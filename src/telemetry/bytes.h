// The byte codec every recorded and wire format in this repository speaks: the HDSL session
// log, the v3 mux container, the netd wire frames and the fleetd result codec. There is
// exactly one implementation of each primitive, here:
//
//   varint  unsigned LEB128, 7 bits per byte, low group first, at most kMaxVarintBytes;
//   signed  zigzag-mapped into a varint (0, -1, 1, -2, ... -> 0, 1, 2, 3, ...);
//   double  the raw IEEE-754 bits, 8 bytes little-endian (-0.0 and NaN payloads survive);
//   string  a varint byte length, then the bytes.
//
// Writers append to a std::string and allocate nothing beyond its growth. Readers take
// `(data, pos)`, advance `*pos` past the value on success, and leave both `*pos` and the
// output untouched on failure. A reader never computes `pos + length`: lengths are compared
// against the bytes remaining, so a corrupt length near 2^64 cannot wrap past the check.
//
// A varint fails either because the bytes end inside it or because ten bytes in a row carry
// a continuation bit (overflow). Streaming readers tell the two apart by the bytes left:
// VarintTruncated() is "wait for more bytes", anything else is malformed input.
//
// ByteWriter and ByteReader share their verbs, so a format is stated once: a field list
// `template <typename IO> void F(IO& io, FieldRef<IO, T> t)`, run with a writer to encode
// and a reader to decode. Where the directions differ (a reader that interns, rebuilds or
// range-checks), `if constexpr (IO::kReading)` keeps both sides in the one function. Only
// the frame-length layers (AppendFrame, FrameSplitter, the v3 frame-header pair) call the
// primitives directly.
#ifndef SRC_TELEMETRY_BYTES_H_
#define SRC_TELEMETRY_BYTES_H_

#include <algorithm>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace telemetry {

inline constexpr size_t kMaxVarintBytes = 10;

// Bytes of `data` at or after `pos` (0 when `pos` is past the end).
inline size_t Remaining(std::string_view data, size_t pos) {
  return pos < data.size() ? data.size() - pos : 0;
}

inline void PutVarint(std::string* out, uint64_t value) {
  while (value >= 0x80) {
    out->push_back(static_cast<char>(static_cast<uint8_t>(value) | 0x80));
    value >>= 7;
  }
  out->push_back(static_cast<char>(static_cast<uint8_t>(value)));
}

inline bool GetVarint(std::string_view data, size_t* pos, uint64_t* value) {
  uint64_t result = 0;
  size_t at = *pos;
  for (int shift = 0; shift < 64 && at < data.size(); shift += 7) {
    const auto byte = static_cast<uint8_t>(data[at++]);
    result |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      *pos = at;
      *value = result;
      return true;
    }
  }
  return false;
}

// After GetVarint failed at `pos`: true when the data simply ends inside the varint (more
// bytes could complete it), false when it overflowed.
inline bool VarintTruncated(std::string_view data, size_t pos) {
  return Remaining(data, pos) < kMaxVarintBytes;
}

inline void PutSigned(std::string* out, int64_t value) {
  PutVarint(out, (static_cast<uint64_t>(value) << 1) ^ static_cast<uint64_t>(value >> 63));
}

inline bool GetSigned(std::string_view data, size_t* pos, int64_t* value) {
  uint64_t raw = 0;
  if (!GetVarint(data, pos, &raw)) {
    return false;
  }
  *value = static_cast<int64_t>(raw >> 1) ^ -static_cast<int64_t>(raw & 1);
  return true;
}

inline void PutDouble(std::string* out, double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  char bytes[8];
  for (int i = 0; i < 8; ++i) {
    bytes[i] = static_cast<char>(static_cast<uint8_t>(bits >> (8 * i)));
  }
  out->append(bytes, sizeof(bytes));
}

inline bool GetDouble(std::string_view data, size_t* pos, double* value) {
  if (Remaining(data, *pos) < 8) {
    return false;
  }
  uint64_t bits = 0;
  for (int i = 0; i < 8; ++i) {
    bits |= static_cast<uint64_t>(static_cast<uint8_t>(data[*pos + static_cast<size_t>(i)]))
            << (8 * i);
  }
  std::memcpy(value, &bits, sizeof(bits));
  *pos += 8;
  return true;
}

inline void PutString(std::string* out, std::string_view value) {
  PutVarint(out, value.size());
  out->append(value);
}

// `value` views `data`, so it is valid only as long as the bytes `data` views.
inline bool GetString(std::string_view data, size_t* pos, std::string_view* value) {
  size_t at = *pos;
  uint64_t length = 0;
  if (!GetVarint(data, &at, &length) || length > Remaining(data, at)) {
    return false;
  }
  *value = data.substr(at, static_cast<size_t>(length));
  *pos = at + static_cast<size_t>(length);
  return true;
}

inline bool GetString(std::string_view data, size_t* pos, std::string* value) {
  std::string_view view;
  if (!GetString(data, pos, &view)) {
    return false;
  }
  value->assign(view);
  return true;
}

// What a field list takes a value as: const for a writer, mutable for a reader.
template <typename IO, typename T>
using FieldRef = std::conditional_t<IO::kReading, T&, const T&>;

// Appends fields to a std::string.
class ByteWriter {
 public:
  static constexpr bool kReading = false;

  explicit ByteWriter(std::string* out) : out_(out) {}

  bool ok() const { return true; }
  void Byte(uint8_t value) { out_->push_back(static_cast<char>(value)); }
  void Varint(uint64_t value) { PutVarint(out_, value); }
  void Signed(int64_t value) { PutSigned(out_, value); }
  void Double(double value) { PutDouble(out_, value); }
  void Bool(bool value) { Byte(value ? 1 : 0); }
  void String(std::string_view value) { PutString(out_, value); }
  // Constant bytes the reader checks (a format's magic or lead byte).
  void Magic(std::string_view bytes) { out_->append(bytes); }
  // A varint element count, then `each(element)` for every element.
  template <typename Container, typename Each>
  void Sequence(const Container& elements, Each&& each) {
    Varint(elements.size());
    for (const auto& element : elements) {
      each(element);
    }
  }

 private:
  std::string* out_;
};

// Reads fields in order from bytes it views. Sticky: the first failure records
// "<message> (at byte N)" in `*error`, and every later read leaves its output untouched. A
// value that does not fit the field it is read into (2^32 + 1 for an int32) is refused as
// "value out of range", never wrapped. The failure paths are cold, so each read stays small
// enough to inline into a field list's loop (a deep stack sample reads thousands of ids).
class ByteReader {
 public:
  static constexpr bool kReading = true;

  // `input` names the bytes in the truncation message ("unexpected end of <input>").
  ByteReader(std::string_view data, std::string* error, std::string_view input)
      : data_(data), error_(error), input_(input) {}

  bool ok() const { return ok_; }
  size_t pos() const { return pos_; }
  bool AtEnd() const { return pos_ >= data_.size(); }
  // Bytes not yet read. Every element of a sequence takes at least one byte, so this caps a
  // reserve against a declared count: a corrupt count cannot request a huge buffer.
  size_t remaining() const { return Remaining(data_, pos_); }

  [[gnu::cold]] bool Fail(std::string_view message) {
    if (ok_) {
      ok_ = false;
      error_->assign(message);
      error_->append(" (at byte " + std::to_string(pos_) + ")");
    }
    return false;
  }

  void Byte(uint8_t& value) {
    if (ok_ && AtEnd()) {
      FailEnd();
    } else if (ok_) {
      value = static_cast<uint8_t>(data_[pos_++]);
    }
  }
  template <std::unsigned_integral T>
    requires(!std::same_as<T, bool>)
  void Varint(T& value) {
    Integer<uint64_t, GetVarint>(value);
  }
  template <std::signed_integral T>
  void Signed(T& value) {
    Integer<int64_t, GetSigned>(value);
  }
  void Double(double& value) {
    if (ok_ && !GetDouble(data_, &pos_, &value)) {
      FailEnd();
    }
  }
  void Bool(bool& value) {
    uint8_t byte = value ? 1 : 0;
    Byte(byte);
    value = byte != 0;
  }
  // `value` views the input.
  void String(std::string_view& value) {
    uint64_t length = 0;
    if (ok_ && !GetString(data_, &pos_, &value)) {
      // Either the length varint failed, or the length overruns the bytes after it.
      GetVarint(data_, &pos_, &length) ? FailEnd() : FailVarint();
    }
  }
  // Exact-size, as the bytes were (assign would round a 16 to 29 byte string up to 30).
  void String(std::string& value) {
    std::string_view view;
    String(view);
    if (ok_) {
      value = std::string(view);
    }
  }
  void Magic(std::string_view bytes) {
    if (ok_ && data_.substr(pos_, bytes.size()) != bytes) {
      Fail("bad magic");
    } else if (ok_) {
      pos_ += bytes.size();
    }
  }

  // A varint element count, then `each(element)` for every element. A vector keeps its
  // elements and their capacity: they are overwritten in place and the rest truncated, so a
  // warm read allocates nothing. Other containers get each element inserted at the end.
  template <typename T, typename Each>
  void Sequence(std::vector<T>& elements, Each&& each) {
    uint64_t count = 0;
    Varint(count);
    elements.reserve(std::min<uint64_t>(count, remaining()));
    size_t read = 0;
    for (; ok_ && read < count; ++read) {
      each(read < elements.size() ? elements[read] : elements.emplace_back());
    }
    elements.resize(read);
  }
  template <typename Container, typename Each>
  void Sequence(Container& elements, Each&& each) {
    uint64_t count = 0;
    Varint(count);
    elements.clear();
    for (uint64_t i = 0; ok_ && i < count; ++i) {
      typename Container::value_type element{};
      each(element);
      elements.insert(elements.end(), std::move(element));
    }
  }

 private:
  // Reads a varint or a zigzag varint with `Get`, then stores it if it fits `value`.
  template <typename Raw, bool (*Get)(std::string_view, size_t*, Raw*), typename T>
  void Integer(T& value) {
    const size_t at = pos_;
    Raw raw = 0;
    if (!ok_) {
      return;
    }
    if (!Get(data_, &pos_, &raw)) {
      FailVarint();
    } else if (!std::in_range<T>(raw)) {
      pos_ = at;
      Fail("value out of range");
    } else {
      value = static_cast<T>(raw);
    }
  }

  [[gnu::cold]] void FailEnd() { Fail("unexpected end of " + std::string(input_)); }

  // Reports a varint that failed at pos_ where a byte-at-a-time read stops: at the end of
  // the input when it is truncated, just past its tenth byte when it overflows.
  [[gnu::cold]] void FailVarint() {
    if (VarintTruncated(data_, pos_)) {
      pos_ = data_.size();
      FailEnd();
    } else {
      pos_ += kMaxVarintBytes;
      Fail("varint too long");
    }
  }

  std::string_view data_;
  std::string* error_;
  std::string_view input_;
  size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace telemetry

#endif  // SRC_TELEMETRY_BYTES_H_

// The byte codec every recorded and wire format in this repository speaks: the HDSL session
// log, the v3 mux container, the netd wire frames and the fleetd result codec. There is exactly one implementation of each primitive, here:
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
#ifndef SRC_TELEMETRY_BYTES_H_
#define SRC_TELEMETRY_BYTES_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

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

}  // namespace telemetry

#endif  // SRC_TELEMETRY_BYTES_H_

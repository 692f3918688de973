// The shared byte codec (src/telemetry/bytes.h) at its edges: the widest varint, overflow
// versus truncation, zigzag at the int64 limits, a string length that would wrap `pos +
// length`, and doubles whose bits a value comparison would not pin (-0.0, NaN payloads).
// Every recorded and wire format rests on these functions, so each accept/reject decision
// here is one every decoder in the repository makes.
#include "src/telemetry/bytes.h"

#include <cstdint>
#include <cstring>
#include <limits>
#include <string>

#include <gtest/gtest.h>

namespace {

uint64_t Bits(double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

TEST(BytesTest, VarintEncodingIsLeb128) {
  std::string out;
  telemetry::PutVarint(&out, 0);
  telemetry::PutVarint(&out, 127);
  telemetry::PutVarint(&out, 300);
  EXPECT_EQ(out, std::string("\x00\x7f\xac\x02", 4));
}

TEST(BytesTest, Uint64MaxRoundTripsInTenBytes) {
  std::string out = "x";  // decoding starts mid-buffer
  telemetry::PutVarint(&out, std::numeric_limits<uint64_t>::max());
  ASSERT_EQ(out.size(), 1 + telemetry::kMaxVarintBytes);
  size_t pos = 1;
  uint64_t value = 0;
  ASSERT_TRUE(telemetry::GetVarint(out, &pos, &value));
  EXPECT_EQ(value, std::numeric_limits<uint64_t>::max());
  EXPECT_EQ(pos, out.size());
}

TEST(BytesTest, TenContinuationBytesOverflowAndLeavePosUnchanged) {
  const std::string bytes = "ab" + std::string(10, '\xff') + std::string(1, '\x01');
  size_t pos = 2;
  uint64_t value = 42;
  EXPECT_FALSE(telemetry::GetVarint(bytes, &pos, &value));
  EXPECT_EQ(pos, 2u);
  EXPECT_EQ(value, 42u);
  EXPECT_FALSE(telemetry::VarintTruncated(bytes, pos)) << "ten bytes in hand: overflow";
}

TEST(BytesTest, NineContinuationBytesAreTruncation) {
  const std::string bytes(9, '\x80');
  size_t pos = 0;
  uint64_t value = 42;
  EXPECT_FALSE(telemetry::GetVarint(bytes, &pos, &value));
  EXPECT_EQ(pos, 0u);
  EXPECT_EQ(value, 42u);
  EXPECT_TRUE(telemetry::VarintTruncated(bytes, pos)) << "a tenth byte could complete it";
  // ... and it does.
  const std::string completed = bytes + std::string(1, '\x01');
  ASSERT_TRUE(telemetry::GetVarint(completed, &pos, &value));
  EXPECT_EQ(value, uint64_t{1} << 63);
  EXPECT_EQ(pos, completed.size());
}

TEST(BytesTest, ZigzagRoundTripsAtTheInt64Limits) {
  for (int64_t want : {std::numeric_limits<int64_t>::min(), int64_t{-1}, int64_t{0},
                       int64_t{1}, std::numeric_limits<int64_t>::max()}) {
    std::string out;
    telemetry::PutSigned(&out, want);
    size_t pos = 0;
    int64_t got = 0;
    ASSERT_TRUE(telemetry::GetSigned(out, &pos, &got)) << want;
    EXPECT_EQ(got, want);
    EXPECT_EQ(pos, out.size());
  }
  // Small magnitudes stay small: 0, -1, 1, -2 map to 0, 1, 2, 3.
  std::string out;
  for (int64_t value : {0, -1, 1, -2}) {
    telemetry::PutSigned(&out, value);
  }
  EXPECT_EQ(out, std::string("\x00\x01\x02\x03", 4));
}

TEST(BytesTest, StringLengthNearTwoToTheSixtyFourIsRejectedWithoutWrapping) {
  // With pos = 3, a length of 2^64 - 2 would wrap `pos + length` to 1, which passes a
  // `pos + length <= size` check.
  std::string bytes = "abc";
  telemetry::PutVarint(&bytes, std::numeric_limits<uint64_t>::max() - 1);
  bytes += "payload";
  size_t pos = 3;
  std::string value = "untouched";
  EXPECT_FALSE(telemetry::GetString(bytes, &pos, &value));
  EXPECT_EQ(pos, 3u);
  EXPECT_EQ(value, "untouched");

  std::string_view view;
  EXPECT_FALSE(telemetry::GetString(bytes, &pos, &view));
  EXPECT_EQ(pos, 3u);
}

TEST(BytesTest, StringsRoundTripAndViewTheInput) {
  std::string out;
  telemetry::PutString(&out, "");
  telemetry::PutString(&out, std::string("a\0b", 3));
  size_t pos = 0;
  std::string empty;
  std::string_view view;
  ASSERT_TRUE(telemetry::GetString(out, &pos, &empty));
  ASSERT_TRUE(telemetry::GetString(out, &pos, &view));
  EXPECT_EQ(empty, "");
  EXPECT_EQ(view, std::string_view("a\0b", 3));
  EXPECT_EQ(view.data(), out.data() + 2);
  EXPECT_EQ(pos, out.size());
}

TEST(BytesTest, NegativeZeroAndNanDoublesRoundTripBitForBit) {
  const double quiet_nan_with_payload = [] {
    uint64_t bits = 0x7ff8000000000123ULL;
    double value;
    std::memcpy(&value, &bits, sizeof(value));
    return value;
  }();
  for (double want : {-0.0, 0.0, quiet_nan_with_payload, -std::numeric_limits<double>::infinity(),
                      1.5e-310}) {
    std::string out;
    telemetry::PutDouble(&out, want);
    ASSERT_EQ(out.size(), 8u);
    size_t pos = 0;
    double got = 0.0;
    ASSERT_TRUE(telemetry::GetDouble(out, &pos, &got));
    EXPECT_EQ(Bits(got), Bits(want));
    EXPECT_EQ(pos, 8u);
  }
  // Little-endian: the low byte of the bits comes first.
  std::string out;
  telemetry::PutDouble(&out, -0.0);
  EXPECT_EQ(out, std::string("\x00\x00\x00\x00\x00\x00\x00\x80", 8));

  size_t pos = 1;
  double untouched = 7.0;
  EXPECT_FALSE(telemetry::GetDouble(out, &pos, &untouched)) << "seven bytes left";
  EXPECT_EQ(pos, 1u);
  EXPECT_EQ(untouched, 7.0);
}

}  // namespace

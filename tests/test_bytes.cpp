// Unit tests for the little-endian byte reader/writer.

#include <gtest/gtest.h>

#include <string>

#include "common/bytes.hpp"

namespace edhp {
namespace {

TEST(ByteWriter, LittleEndianLayout) {
  ByteWriter w;
  w.u8(0x11);
  w.u16(0x2233);
  w.u32(0x44556677);
  w.u64(0x8899AABBCCDDEEFFull);
  const auto& b = w.view();
  ASSERT_EQ(b.size(), 15u);
  EXPECT_EQ(b[0], 0x11);
  EXPECT_EQ(b[1], 0x33);
  EXPECT_EQ(b[2], 0x22);
  EXPECT_EQ(b[3], 0x77);
  EXPECT_EQ(b[4], 0x66);
  EXPECT_EQ(b[5], 0x55);
  EXPECT_EQ(b[6], 0x44);
  EXPECT_EQ(b[7], 0xFF);
  EXPECT_EQ(b[14], 0x88);
}

TEST(ByteWriter, Str16PrefixesLength) {
  ByteWriter w;
  w.str16("abc");
  const auto& b = w.view();
  ASSERT_EQ(b.size(), 5u);
  EXPECT_EQ(b[0], 3);
  EXPECT_EQ(b[1], 0);
  EXPECT_EQ(b[2], 'a');
}

TEST(ByteWriter, Str16RejectsStringsPastU16Length) {
  ByteWriter w;
  w.u8(1);
  EXPECT_THROW(w.str16(std::string(65536, 'x')), DecodeError);
  EXPECT_EQ(w.size(), 1u);  // nothing of the rejected string was written
  w.str16(std::string(65535, 'y'));
  EXPECT_EQ(w.size(), 1u + 2 + 65535);
}

TEST(ByteWriter, GrowsPastItsInitialSize) {
  ByteWriter w(3);
  for (std::uint32_t i = 0; i < 1000; ++i) {
    w.u32(i * 2654435761u);
  }
  ASSERT_EQ(w.size(), 4000u);
  ByteReader r(w.view());
  for (std::uint32_t i = 0; i < 1000; ++i) {
    EXPECT_EQ(r.u32(), i * 2654435761u);
  }
  EXPECT_TRUE(r.done());
  EXPECT_EQ(std::move(w).take().size(), 4000u);
}

TEST(ByteWriter, PatchU32OverwritesInPlace) {
  ByteWriter w;
  w.u32(0);
  w.u8(0xAB);
  w.patch_u32(0, 0xDEADBEEF);
  ByteReader r(w.view());
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u8(), 0xAB);
}

TEST(ByteWriter, PatchOutOfRangeThrows) {
  ByteWriter w;
  w.u16(7);
  EXPECT_THROW(w.patch_u32(0, 1), DecodeError);
}

TEST(ByteReader, RoundTripAllWidths) {
  ByteWriter w;
  w.u8(200);
  w.u16(60000);
  w.u32(4000000000u);
  w.u64(0x0123456789ABCDEFull);
  w.str16("hello world");
  ByteReader r(w.view());
  EXPECT_EQ(r.u8(), 200);
  EXPECT_EQ(r.u16(), 60000);
  EXPECT_EQ(r.u32(), 4000000000u);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.str16(), "hello world");
  EXPECT_TRUE(r.done());
  EXPECT_NO_THROW(r.expect_done("test"));
}

TEST(ByteReader, TruncatedReadThrows) {
  const std::uint8_t raw[3] = {1, 2, 3};
  ByteReader r{std::span<const std::uint8_t>(raw, 3)};
  EXPECT_EQ(r.u16(), 0x0201u);
  EXPECT_THROW((void)r.u16(), DecodeError);
}

TEST(ByteReader, TruncatedStringThrows) {
  ByteWriter w;
  w.u16(10);  // claims 10 bytes follow
  w.u8('x');
  ByteReader r(w.view());
  EXPECT_THROW((void)r.str16(), DecodeError);
}

TEST(ByteReader, ExpectDoneThrowsOnTrailingBytes) {
  const std::uint8_t raw[2] = {1, 2};
  ByteReader r{std::span<const std::uint8_t>(raw, 2)};
  (void)r.u8();
  EXPECT_THROW(r.expect_done("ctx"), DecodeError);
}

TEST(ByteReader, EmptyBufferReportsDone) {
  ByteReader r{std::span<const std::uint8_t>{}};
  EXPECT_TRUE(r.done());
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_THROW((void)r.u8(), DecodeError);
}

TEST(ByteReader, BytesSpanViewsUnderlyingBuffer) {
  ByteWriter w;
  w.u32(0xAABBCCDD);
  ByteReader r(w.view());
  auto s = r.bytes(4);
  EXPECT_EQ(s[0], 0xDD);
  EXPECT_EQ(s[3], 0xAA);
  EXPECT_TRUE(r.done());
}

}  // namespace
}  // namespace edhp

#include "util/bitvector.h"

#include <gtest/gtest.h>

#include <deque>
#include <string>

#include "util/rng.h"

namespace goofi {
namespace {

TEST(BitVectorTest, StartsZeroed) {
  BitVector v(100);
  EXPECT_EQ(v.size(), 100u);
  EXPECT_EQ(v.PopCount(), 0u);
  for (std::size_t i = 0; i < 100; ++i) EXPECT_FALSE(v.Get(i));
}

TEST(BitVectorTest, SetGetFlip) {
  BitVector v(70);
  v.Set(0, true);
  v.Set(63, true);
  v.Set(64, true);
  v.Set(69, true);
  EXPECT_TRUE(v.Get(0));
  EXPECT_TRUE(v.Get(63));
  EXPECT_TRUE(v.Get(64));
  EXPECT_TRUE(v.Get(69));
  EXPECT_EQ(v.PopCount(), 4u);
  v.Flip(64);
  EXPECT_FALSE(v.Get(64));
  v.Flip(1);
  EXPECT_TRUE(v.Get(1));
  EXPECT_EQ(v.PopCount(), 4u);
}

TEST(BitVectorTest, FieldWithinOneWord) {
  BitVector v(64);
  v.SetField(4, 16, 0xBEEF);
  EXPECT_EQ(v.GetField(4, 16), 0xBEEFu);
  EXPECT_EQ(v.GetField(0, 4), 0u);
  EXPECT_EQ(v.GetField(20, 8), 0u);
}

TEST(BitVectorTest, FieldStraddlingWordBoundary) {
  BitVector v(128);
  v.SetField(60, 32, 0xDEADBEEF);
  EXPECT_EQ(v.GetField(60, 32), 0xDEADBEEFu);
  // Neighbours untouched.
  EXPECT_EQ(v.GetField(0, 60), 0u);
  EXPECT_EQ(v.GetField(92, 36), 0u);
}

TEST(BitVectorTest, Full64BitField) {
  BitVector v(200);
  const std::uint64_t value = 0x0123456789abcdefULL;
  v.SetField(0, 64, value);
  EXPECT_EQ(v.GetField(0, 64), value);
  v.SetField(100, 64, value);
  EXPECT_EQ(v.GetField(100, 64), value);
  EXPECT_EQ(v.GetField(0, 64), value);  // first field intact
}

TEST(BitVectorTest, SetFieldOverwritesOldBits) {
  BitVector v(64);
  v.SetField(8, 8, 0xFF);
  v.SetField(8, 8, 0x0F);
  EXPECT_EQ(v.GetField(8, 8), 0x0Fu);
  EXPECT_EQ(v.PopCount(), 4u);
}

TEST(BitVectorTest, HammingDistance) {
  BitVector a(100);
  BitVector b(100);
  EXPECT_EQ(a.HammingDistance(b), 0u);
  a.Set(3, true);
  b.Set(97, true);
  EXPECT_EQ(a.HammingDistance(b), 2u);
  b.Set(3, true);
  EXPECT_EQ(a.HammingDistance(b), 1u);
}

TEST(BitVectorTest, FillOneRespectsTail) {
  BitVector v(67);
  v.FillOne();
  EXPECT_EQ(v.PopCount(), 67u);
  v.FillZero();
  EXPECT_EQ(v.PopCount(), 0u);
}

TEST(BitVectorTest, ShiftRightInsertTop) {
  BitVector v = BitVector::FromBitString("10110");
  EXPECT_TRUE(v.ShiftRightInsertTop(true));    // out = old bit 0 = 1
  EXPECT_EQ(v.ToBitString(), "01101");
  EXPECT_FALSE(v.ShiftRightInsertTop(false));  // out = 0
  EXPECT_EQ(v.ToBitString(), "11010");
}

TEST(BitVectorTest, ShiftAcrossWordBoundary) {
  BitVector v(130);
  v.Set(64, true);
  v.Set(129, true);
  EXPECT_FALSE(v.ShiftRightInsertTop(false));
  EXPECT_TRUE(v.Get(63));
  EXPECT_FALSE(v.Get(64));
  EXPECT_TRUE(v.Get(128));
  EXPECT_FALSE(v.Get(129));
  // Full rotation restores the original pattern.
  BitVector w = BitVector::FromBitString("1100101");
  BitVector original = w;
  for (int i = 0; i < 7; ++i) {
    const bool out = w.ShiftRightInsertTop(false);
    w.Set(6, out);  // feed back
  }
  EXPECT_TRUE(w == original);
}

TEST(BitVectorTest, ShiftThroughMatchesOneBitSteps) {
  // Every length class against a bit FIFO: fewer bits than the vector,
  // exactly as many, more, word-aligned and not, zeros and null `out`.
  Rng rng(5);
  for (std::size_t size : {1u, 5u, 63u, 64u, 65u, 130u, 300u}) {
    for (std::size_t count : {1u, 2u, 63u, 64u, 65u, 129u, 200u, 301u, 700u}) {
      BitVector v(size);
      std::deque<bool> fifo;
      for (std::size_t i = 0; i < size; ++i) {
        v.Set(i, rng.NextBool());
        fifo.push_back(v.Get(i));
      }
      BitVector in(count);
      for (std::size_t i = 0; i < count; ++i) in.Set(i, rng.NextBool());
      const bool zeros = rng.NextBool(0.25);
      std::string expected_out;
      for (std::size_t i = 0; i < count; ++i) {
        expected_out.push_back(fifo.front() ? '1' : '0');
        fifo.pop_front();
        fifo.push_back(!zeros && in.Get(i));
      }
      std::string expected_rest;
      for (bool bit : fifo) expected_rest.push_back(bit ? '1' : '0');

      BitVector out(3);  // resized by the call
      BitVector discard_copy = v;
      v.ShiftThrough(count, zeros ? nullptr : &in, &out);
      discard_copy.ShiftThrough(count, zeros ? nullptr : &in, nullptr);
      EXPECT_EQ(out.ToBitString(), expected_out) << size << "/" << count;
      EXPECT_EQ(v.ToBitString(), expected_rest) << size << "/" << count;
      EXPECT_TRUE(discard_copy == v) << size << "/" << count;
    }
  }
}

TEST(BitVectorTest, BitStringRoundTrip) {
  const std::string bits = "1011001110001";
  BitVector v = BitVector::FromBitString(bits);
  EXPECT_EQ(v.size(), bits.size());
  EXPECT_EQ(v.ToBitString(), bits);
}

TEST(BitVectorTest, HexStringFormat) {
  BitVector v(8);
  v.SetField(0, 8, 0xA5);
  EXPECT_EQ(v.ToHexString(), "8:5a");  // low nibble first
}

TEST(BitVectorTest, HexRejectsMalformed) {
  BitVector out;
  EXPECT_FALSE(BitVector::FromHexString("nocolon", &out));
  EXPECT_FALSE(BitVector::FromHexString("8:z5", &out));
  EXPECT_FALSE(BitVector::FromHexString("8:5", &out));     // wrong length
  EXPECT_FALSE(BitVector::FromHexString("5:ff", &out));    // tail bits set
  EXPECT_TRUE(BitVector::FromHexString("5:f1", &out));     // 5 bits all set
  EXPECT_EQ(out.PopCount(), 5u);
}

TEST(BitVectorTest, EqualityIncludesSize) {
  BitVector a(10);
  BitVector b(11);
  EXPECT_FALSE(a == b);
  BitVector c(10);
  EXPECT_TRUE(a == c);
  c.Set(9, true);
  EXPECT_FALSE(a == c);
}

// Property sweep: hex round trip over many random sizes and contents.
class BitVectorRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(BitVectorRoundTrip, HexRoundTripIsLossless) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 1);
  const std::size_t size = 1 + rng.NextBelow(5000);
  BitVector v(size);
  for (std::size_t i = 0; i < size; ++i) v.Set(i, rng.NextBool());
  BitVector parsed;
  ASSERT_TRUE(BitVector::FromHexString(v.ToHexString(), &parsed));
  EXPECT_TRUE(v == parsed);
  // Bit-string round trip agrees too.
  EXPECT_TRUE(BitVector::FromBitString(v.ToBitString()) == v);
}

TEST_P(BitVectorRoundTrip, FieldReadBackMatchesWrites) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 3);
  BitVector v(512);
  for (int round = 0; round < 50; ++round) {
    const std::size_t width = 1 + rng.NextBelow(64);
    const std::size_t bit = rng.NextBelow(512 - width + 1);
    const std::uint64_t value =
        width == 64 ? rng.NextU64()
                    : rng.NextU64() & ((std::uint64_t{1} << width) - 1);
    v.SetField(bit, width, value);
    EXPECT_EQ(v.GetField(bit, width), value)
        << "bit=" << bit << " width=" << width;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, BitVectorRoundTrip, ::testing::Range(0, 20));

}  // namespace
}  // namespace goofi

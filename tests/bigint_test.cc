#include "src/value/bigint.h"

#include <gtest/gtest.h>

#include <iterator>
#include <string>

namespace concord {
namespace {

TEST(BigInt, DefaultIsZero) {
  BigInt z;
  EXPECT_TRUE(z.IsZero());
  EXPECT_EQ(z.ToDecimal(), "0");
  EXPECT_EQ(z.ToHexString(), "0");
  EXPECT_EQ(z.ToUint64(), 0u);
}

TEST(BigInt, FromUint64RoundTrips) {
  BigInt v(65015);
  EXPECT_EQ(v.ToDecimal(), "65015");
  EXPECT_EQ(v.ToUint64(), 65015u);
  BigInt big(0xffffffffffffffffULL);
  EXPECT_EQ(big.ToDecimal(), "18446744073709551615");
  EXPECT_EQ(big.ToUint64(), 0xffffffffffffffffULL);
}

TEST(BigInt, FromDecimalParses) {
  auto v = BigInt::FromDecimal("10251");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->ToDecimal(), "10251");
  EXPECT_FALSE(BigInt::FromDecimal("").has_value());
  EXPECT_FALSE(BigInt::FromDecimal("12x").has_value());
}

TEST(BigInt, LeadingZerosNormalize) {
  auto v = BigInt::FromDecimal("000110");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->ToDecimal(), "110");
  EXPECT_EQ(*v, BigInt(110));
}

TEST(BigInt, BeyondUint64) {
  auto v = BigInt::FromDecimal("340282366920938463463374607431768211456");  // 2^128.
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->ToDecimal(), "340282366920938463463374607431768211456");
  EXPECT_FALSE(v->ToUint64().has_value());
  EXPECT_EQ(v->ToHexString(), "100000000000000000000000000000000");
}

TEST(BigInt, HexConversion) {
  EXPECT_EQ(BigInt(110).ToHexString(), "6e");
  EXPECT_EQ(BigInt(11).ToHexString(), "b");
  auto parsed = BigInt::FromHex("6e");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, BigInt(110));
  auto padded = BigInt::FromHex("0b");
  ASSERT_TRUE(padded.has_value());
  EXPECT_EQ(*padded, BigInt(11));
  EXPECT_FALSE(BigInt::FromHex("").has_value());
  EXPECT_FALSE(BigInt::FromHex("xyz").has_value());
}

TEST(BigInt, CompareOrders) {
  EXPECT_LT(BigInt(9), BigInt(10));
  EXPECT_GT(BigInt(100), BigInt(99));
  EXPECT_EQ(BigInt(5), BigInt(5));
  auto huge = *BigInt::FromDecimal("99999999999999999999999999");
  EXPECT_LT(BigInt(0xffffffffffffffffULL), huge);
}

TEST(BigInt, Add) {
  EXPECT_EQ(BigInt(10).Add(BigInt(20)), BigInt(30));
  // Carry across limbs.
  auto max64 = BigInt(0xffffffffffffffffULL);
  EXPECT_EQ(max64.Add(BigInt(1)).ToDecimal(), "18446744073709551616");
  EXPECT_EQ(BigInt().Add(BigInt(7)), BigInt(7));
}

TEST(BigInt, AbsDiff) {
  EXPECT_EQ(BigInt(30).AbsDiff(BigInt(10)), BigInt(20));
  EXPECT_EQ(BigInt(10).AbsDiff(BigInt(30)), BigInt(20));
  EXPECT_EQ(BigInt(42).AbsDiff(BigInt(42)), BigInt(0));
  // Borrow across limbs.
  auto big = *BigInt::FromDecimal("18446744073709551616");  // 2^64.
  EXPECT_EQ(big.AbsDiff(BigInt(1)).ToDecimal(), "18446744073709551615");
}

TEST(BigInt, SequenceDistances) {
  // Sequence contract use case: 10, 20, 30 must be equidistant.
  BigInt a(10), b(20), c(30);
  EXPECT_EQ(b.AbsDiff(a), c.AbsDiff(b));
}

TEST(BigInt, HashStableAndDiscriminating) {
  EXPECT_EQ(BigInt(123).Hash(), BigInt(123).Hash());
  EXPECT_NE(BigInt(123).Hash(), BigInt(124).Hash());
}

// 2^32 - 1, 2^32, 2^64 - 1, 2^64 and 2^64 + 1: the limb and inline-form edges.
constexpr const char* kEdges[] = {"4294967295", "4294967296", "18446744073709551615",
                                  "18446744073709551616", "18446744073709551617"};
constexpr const char* kEdgeHex[] = {"ffffffff", "100000000", "ffffffffffffffff",
                                    "10000000000000000", "10000000000000001"};

BigInt Dec(const char* s) { return *BigInt::FromDecimal(s); }

TEST(BigInt, EdgesRoundTripInBothRenderings) {
  for (size_t i = 0; i < std::size(kEdges); ++i) {
    BigInt v = Dec(kEdges[i]);
    EXPECT_EQ(v.ToDecimal(), kEdges[i]);
    EXPECT_EQ(v.ToHexString(), kEdgeHex[i]);
    auto from_hex = BigInt::FromHex(kEdgeHex[i]);
    ASSERT_TRUE(from_hex.has_value());
    EXPECT_EQ(*from_hex, v);
    EXPECT_EQ(from_hex->Hash(), v.Hash());
    // Leading zeros change neither form.
    EXPECT_EQ(*BigInt::FromHex(std::string("000") + kEdgeHex[i]), v);
    EXPECT_EQ(Dec((std::string("00") + kEdges[i]).c_str()), v);
    EXPECT_EQ(v.ToUint64().has_value(), i < 3) << kEdges[i];
  }
}

TEST(BigInt, EdgesCompareInOrder) {
  for (size_t i = 0; i < std::size(kEdges); ++i) {
    for (size_t j = 0; j < std::size(kEdges); ++j) {
      int expected = i < j ? -1 : (i > j ? 1 : 0);
      EXPECT_EQ(Dec(kEdges[i]).Compare(Dec(kEdges[j])), expected) << i << " vs " << j;
    }
  }
}

TEST(BigInt, EdgesAddAndSubtractAcrossTheInlineBoundary) {
  BigInt one(1);
  for (size_t i = 0; i + 1 < std::size(kEdges); ++i) {
    BigInt lo = Dec(kEdges[i]);
    BigInt hi = Dec(kEdges[i + 1]);
    BigInt gap = hi.AbsDiff(lo);
    EXPECT_EQ(lo.Add(gap), hi);
    EXPECT_EQ(gap.Add(lo), hi);
    EXPECT_EQ(hi.AbsDiff(gap), lo);
    EXPECT_EQ(lo.AbsDiff(hi), gap);
  }
  EXPECT_EQ(Dec("18446744073709551615").Add(one).ToDecimal(), "18446744073709551616");
  EXPECT_EQ(Dec("18446744073709551616").Add(one).ToDecimal(), "18446744073709551617");
  EXPECT_EQ(Dec("4294967295").Add(one).ToHexString(), "100000000");
  EXPECT_EQ(Dec("18446744073709551617").AbsDiff(one).ToHexString(), "10000000000000000");
  EXPECT_EQ(Dec("18446744073709551616").AbsDiff(Dec("18446744073709551616")), BigInt());
}

TEST(BigInt, WideDifferenceFallsBackToTheInlineForm) {
  // 2^64 + 5 and 2^64 are both wide; their difference must be the plain 5, so
  // equality, order and hashing cannot tell it from BigInt(5).
  BigInt wide = Dec("18446744073709551621");
  BigInt diff = wide.AbsDiff(Dec("18446744073709551616"));
  EXPECT_EQ(diff, BigInt(5));
  EXPECT_EQ(diff.Compare(BigInt(5)), 0);
  EXPECT_EQ(diff.Hash(), BigInt(5).Hash());
  EXPECT_EQ(diff.ToUint64(), 5u);
  EXPECT_EQ(Dec("18446744073709551616").AbsDiff(Dec("18446744073709551615")), BigInt(1));
}

TEST(BigInt, HashIsPinned) {
  // Hashes feed value hashing and so every hash-keyed index; they must not move
  // with the representation. Pinned from the all-limbs implementation.
  EXPECT_EQ(BigInt().Hash(), 0x9e3779b97f4a7c15ULL);
  EXPECT_EQ(BigInt(5).Hash(), 0x2b5b3577afe36216ULL);
  EXPECT_EQ(Dec("4294967295").Hash(), 0x2b5b3577afe361e8ULL);
  EXPECT_EQ(Dec("4294967296").Hash(), 0xcaff1e3d2cebad1fULL);
  EXPECT_EQ(Dec("18446744073709551615").Hash(), 0xcaff1e3d2cebaddaULL);
  EXPECT_EQ(Dec("18446744073709551616").Hash(), 0x387848e608b60618ULL);
  EXPECT_EQ(Dec("18446744073709551617").Hash(), 0x387848e608b61609ULL);
  EXPECT_EQ(Dec("18446744073709551621").Hash(), 0x387848e608b4648cULL);
  EXPECT_EQ(Dec("340282366920938463463374607431768211456").Hash(), 0x035ad432c698a90aULL);
}

}  // namespace
}  // namespace concord

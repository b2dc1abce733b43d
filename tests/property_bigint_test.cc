// Property tests: BigInt agrees with native 64-bit arithmetic wherever both are
// defined, and string conversions round-trip at any width.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "src/util/rng.h"
#include "src/util/strings.h"
#include "src/value/bigint.h"

namespace concord {
namespace {

class BigIntProperty : public ::testing::TestWithParam<int> {
 protected:
  SplitMix64 rng_{static_cast<uint64_t>(GetParam()) * 6364136223846793005ULL + 1};
};

TEST_P(BigIntProperty, AgreesWithNativeU64) {
  for (int i = 0; i < 500; ++i) {
    // Mixed magnitudes: small values exercise carries/borrows at limb edges.
    uint64_t a = rng_.Next() >> rng_.Below(64);
    uint64_t b = rng_.Next() >> rng_.Below(64);
    BigInt ba(a), bb(b);

    EXPECT_EQ(ba.ToDecimal(), std::to_string(a));
    EXPECT_EQ(ba.ToUint64(), a);
    EXPECT_EQ(ba.Compare(bb) < 0, a < b);
    EXPECT_EQ(ba.Compare(bb) == 0, a == b);
    EXPECT_EQ(ba.AbsDiff(bb).ToUint64(), a > b ? a - b : b - a);
    if (a <= 0x7fffffffffffffffULL && b <= 0x7fffffffffffffffULL) {
      EXPECT_EQ(ba.Add(bb).ToUint64(), a + b);
    }
    EXPECT_EQ(ba.ToHexString(), ToHex(a));
  }
}

TEST_P(BigIntProperty, DecimalRoundTripAtAnyWidth) {
  for (int i = 0; i < 100; ++i) {
    size_t digits = 1 + rng_.Below(60);
    std::string s;
    s.push_back(static_cast<char>('1' + rng_.Below(9)));
    for (size_t k = 1; k < digits; ++k) {
      s.push_back(static_cast<char>('0' + rng_.Below(10)));
    }
    auto v = BigInt::FromDecimal(s);
    ASSERT_TRUE(v.has_value()) << s;
    EXPECT_EQ(v->ToDecimal(), s);
  }
}

TEST_P(BigIntProperty, HexRoundTripAtAnyWidth) {
  static constexpr char kHexDigits[] = "0123456789abcdef";
  for (int i = 0; i < 100; ++i) {
    size_t digits = 1 + rng_.Below(40);
    std::string s;
    s.push_back(kHexDigits[1 + rng_.Below(15)]);
    for (size_t k = 1; k < digits; ++k) {
      s.push_back(kHexDigits[rng_.Below(16)]);
    }
    auto v = BigInt::FromHex(s);
    ASSERT_TRUE(v.has_value()) << s;
    EXPECT_EQ(v->ToHexString(), s);
  }
}

TEST_P(BigIntProperty, AddAbsDiffInverse) {
  // (a + b).AbsDiff(b) == a for arbitrary-width values.
  for (int i = 0; i < 100; ++i) {
    BigInt a(rng_.Next());
    BigInt b(rng_.Next());
    BigInt wide = a.Add(b).Add(BigInt(rng_.Next()));  // > 64 bits sometimes.
    EXPECT_EQ(wide.Add(b).AbsDiff(b), wide);
    EXPECT_EQ(a.Add(b).AbsDiff(b), a);
    EXPECT_EQ(a.AbsDiff(a), BigInt(0));
  }
}

TEST_P(BigIntProperty, CompareIsTotalOrder) {
  for (int i = 0; i < 100; ++i) {
    BigInt a(rng_.Next() >> rng_.Below(64));
    BigInt b(rng_.Next() >> rng_.Below(64));
    BigInt c(rng_.Next() >> rng_.Below(64));
    EXPECT_EQ(a.Compare(b), -b.Compare(a));
    if (a.Compare(b) <= 0 && b.Compare(c) <= 0) {
      EXPECT_LE(a.Compare(c), 0);
    }
  }
}

// Reference arithmetic on little-endian hex digit vectors, independent of
// BigInt's limbs and its inline form.
using HexDigits = std::vector<int>;

HexDigits ToDigits(const std::string& hex) {
  HexDigits d;
  for (size_t i = hex.size(); i-- > 0;) {
    d.push_back(hex[i] <= '9' ? hex[i] - '0' : hex[i] - 'a' + 10);
  }
  while (!d.empty() && d.back() == 0) {
    d.pop_back();
  }
  return d;
}

std::string FromDigits(const HexDigits& d) {
  static constexpr char kHexDigits[] = "0123456789abcdef";
  std::string s;
  for (size_t i = d.size(); i-- > 0;) {
    s.push_back(kHexDigits[d[i]]);
  }
  return s.empty() ? "0" : s;
}

int CompareDigits(const HexDigits& a, const HexDigits& b) {
  if (a.size() != b.size()) {
    return a.size() < b.size() ? -1 : 1;
  }
  for (size_t i = a.size(); i-- > 0;) {
    if (a[i] != b[i]) {
      return a[i] < b[i] ? -1 : 1;
    }
  }
  return 0;
}

HexDigits AddDigits(const HexDigits& a, const HexDigits& b) {
  HexDigits out;
  int carry = 0;
  for (size_t i = 0; i < std::max(a.size(), b.size()) || carry != 0; ++i) {
    int sum = (i < a.size() ? a[i] : 0) + (i < b.size() ? b[i] : 0) + carry;
    out.push_back(sum % 16);
    carry = sum / 16;
  }
  return out;
}

HexDigits SubDigits(const HexDigits& hi, const HexDigits& lo) {  // hi >= lo.
  HexDigits out;
  int borrow = 0;
  for (size_t i = 0; i < hi.size(); ++i) {
    int cur = hi[i] - (i < lo.size() ? lo[i] : 0) - borrow;
    borrow = cur < 0 ? 1 : 0;
    out.push_back(cur + 16 * borrow);
  }
  while (!out.empty() && out.back() == 0) {
    out.pop_back();
  }
  return out;
}

TEST_P(BigIntProperty, WideValuesAgreeWithDigitArithmetic) {
  static constexpr char kHexDigits[] = "0123456789abcdef";
  auto random_hex = [this] {
    // Mostly 15..18 digits, so values straddle the 2^64 inline boundary.
    size_t digits = rng_.Below(4) == 0 ? 1 + rng_.Below(40) : 15 + rng_.Below(4);
    std::string s;
    for (size_t k = 0; k < digits; ++k) {
      s.push_back(kHexDigits[rng_.Below(16)]);
    }
    return s;
  };
  for (int i = 0; i < 300; ++i) {
    std::string ha = random_hex();
    std::string hb = rng_.Below(8) == 0 ? ha : random_hex();
    BigInt a = *BigInt::FromHex(ha);
    BigInt b = *BigInt::FromHex(hb);
    HexDigits da = ToDigits(ha);
    HexDigits db = ToDigits(hb);
    int order = CompareDigits(da, db);
    EXPECT_EQ(a.Compare(b), order) << ha << " " << hb;
    std::string sum = FromDigits(AddDigits(da, db));
    std::string diff = FromDigits(order >= 0 ? SubDigits(da, db) : SubDigits(db, da));
    for (const auto& [got, want] : {std::pair{a.Add(b), sum}, std::pair{a.AbsDiff(b), diff}}) {
      EXPECT_EQ(got.ToHexString(), want) << ha << " " << hb;
      // One representation per value: re-parsing either rendering gives an
      // equal value with an equal hash.
      BigInt reparsed = *BigInt::FromDecimal(got.ToDecimal());
      EXPECT_EQ(reparsed, got);
      EXPECT_EQ(reparsed.Hash(), got.Hash());
      EXPECT_EQ(BigInt::FromHex(want)->Hash(), got.Hash());
      EXPECT_EQ(got.ToUint64().has_value(), want.size() <= 16) << want;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BigIntProperty, ::testing::Range(0, 6));

}  // namespace
}  // namespace concord

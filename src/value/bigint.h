// Arbitrary-precision unsigned integers.
//
// The paper's lexer stores [num] and [hex] tokens as Rust BigInt values (Table 1) so
// that arbitrarily long identifiers in configurations never overflow. This is the C++
// equivalent: an unsigned magnitude with the handful of operations contract learning
// needs — parsing, comparison, difference (sequence contracts), and decimal /
// hexadecimal rendering (the `hex` and `str` data transformations of §3.5).
//
// Nearly every value in a configuration fits in 64 bits, and the lexer builds one
// BigInt per [num] candidate, so a value below 2^64 lives inline in one word and
// allocates nothing. Only wider values keep base-2^32 limbs on the heap. Every
// operation returns the inline form when its result is below 2^64, so each value
// has exactly one representation and equality is representation equality.
#ifndef SRC_VALUE_BIGINT_H_
#define SRC_VALUE_BIGINT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace concord {

class BigInt {
 public:
  BigInt() = default;  // Zero.
  explicit BigInt(uint64_t value) : small_(value) {}

  // Parses a decimal string of digits; rejects empty input and non-digits.
  // Leading zeros are accepted and normalized away.
  static std::optional<BigInt> FromDecimal(std::string_view s);

  // Parses a hexadecimal string (no 0x prefix).
  static std::optional<BigInt> FromHex(std::string_view s);

  bool IsZero() const { return limbs_.empty() && small_ == 0; }

  // Returns the value when it fits in 64 bits.
  std::optional<uint64_t> ToUint64() const;

  // Three-way comparison: negative/zero/positive like memcmp.
  int Compare(const BigInt& other) const;

  bool operator==(const BigInt& other) const { return Compare(other) == 0; }
  bool operator!=(const BigInt& other) const { return Compare(other) != 0; }
  bool operator<(const BigInt& other) const { return Compare(other) < 0; }
  bool operator<=(const BigInt& other) const { return Compare(other) <= 0; }
  bool operator>(const BigInt& other) const { return Compare(other) > 0; }
  bool operator>=(const BigInt& other) const { return Compare(other) >= 0; }

  BigInt Add(const BigInt& other) const;

  // Absolute difference |a - b|; sequence contracts only need distances.
  BigInt AbsDiff(const BigInt& other) const;

  // Decimal rendering without leading zeros ("0" for zero).
  std::string ToDecimal() const;

  // Lower-case hexadecimal rendering without leading zeros or prefix ("0" for zero).
  std::string ToHexString() const;

  // Mixes the little-endian base-2^32 limbs of the value, so the inline and the
  // wide form hash alike.
  size_t Hash() const;

 private:
  // Strips high zero limbs and returns the inline form when the value fits.
  static BigInt FromLimbs(std::vector<uint32_t> limbs);

  // The value as little-endian base-2^32 limbs without high zeros (empty for zero).
  std::vector<uint32_t> Limbs() const;

  // The value when `limbs_` is empty; zero otherwise.
  uint64_t small_ = 0;
  // Little-endian limbs of a value of at least 2^64 (three or more, top one
  // non-zero); empty for every smaller value.
  std::vector<uint32_t> limbs_;
};

}  // namespace concord

#endif  // SRC_VALUE_BIGINT_H_

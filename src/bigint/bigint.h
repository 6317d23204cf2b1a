#ifndef VF2BOOST_BIGINT_BIGINT_H_
#define VF2BOOST_BIGINT_BIGINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "common/status.h"

namespace vf2boost {

/// \brief Arbitrary-precision signed integer with 64-bit limbs.
///
/// This is the arithmetic substrate for the Paillier cryptosystem
/// (src/crypto). It implements everything Paillier needs — multi-word
/// add/sub/mul, Knuth algorithm-D division, shifts, and byte/string
/// conversion — without any third-party bignum dependency. Modular
/// arithmetic (Montgomery exponentiation, inverses, gcd) lives in
/// bigint/modarith.h; primality testing in bigint/prime.h.
///
/// Representation: sign-magnitude. `limbs_` holds the magnitude
/// little-endian (limbs_[0] is least significant) and is always normalized
/// (no trailing zero limbs; zero has an empty limb vector and positive sign).
class BigInt {
 public:
  /// Zero.
  BigInt() = default;
  /// Conversion from built-in integers (implicit by design: BigInt is a
  /// numeric type and `x + 1` should read like arithmetic).
  BigInt(int64_t v);   // NOLINT(runtime/explicit)
  BigInt(uint64_t v);  // NOLINT(runtime/explicit)
  BigInt(int v) : BigInt(static_cast<int64_t>(v)) {}  // NOLINT

  /// Parses a base-10 string with optional leading '-'.
  static Result<BigInt> FromDecString(const std::string& s);
  /// Parses a base-16 string (no 0x prefix) with optional leading '-'.
  static Result<BigInt> FromHexString(const std::string& s);
  /// Builds a nonnegative value from little-endian magnitude bytes.
  static BigInt FromBytes(const uint8_t* data, size_t len);
  /// Builds a nonnegative value from little-endian limbs.
  static BigInt FromLimbs(std::vector<uint64_t> limbs);

  /// Uniform random value in [0, 2^bits).
  static BigInt Random(size_t bits, Rng* rng);
  /// Uniform random value in [0, bound). bound must be positive.
  static BigInt RandomBelow(const BigInt& bound, Rng* rng);

  // --- predicates -----------------------------------------------------------
  bool IsZero() const { return limbs_.empty(); }
  bool IsOne() const {
    return !negative_ && limbs_.size() == 1 && limbs_[0] == 1;
  }
  bool IsNegative() const { return negative_; }
  bool IsOdd() const { return !limbs_.empty() && (limbs_[0] & 1); }
  bool IsEven() const { return !IsOdd(); }

  /// Number of significant bits of the magnitude (0 for zero).
  size_t BitLength() const;
  /// Bit i of the magnitude (i may exceed BitLength; returns false then).
  bool TestBit(size_t i) const;

  // --- comparison -----------------------------------------------------------
  /// -1 / 0 / +1 for this < / == / > other (signed).
  int Compare(const BigInt& other) const;
  /// Magnitude-only comparison.
  int CompareMagnitude(const BigInt& other) const;

  friend bool operator==(const BigInt& a, const BigInt& b) {
    return a.Compare(b) == 0;
  }
  friend bool operator!=(const BigInt& a, const BigInt& b) {
    return a.Compare(b) != 0;
  }
  friend bool operator<(const BigInt& a, const BigInt& b) {
    return a.Compare(b) < 0;
  }
  friend bool operator<=(const BigInt& a, const BigInt& b) {
    return a.Compare(b) <= 0;
  }
  friend bool operator>(const BigInt& a, const BigInt& b) {
    return a.Compare(b) > 0;
  }
  friend bool operator>=(const BigInt& a, const BigInt& b) {
    return a.Compare(b) >= 0;
  }

  // --- arithmetic -----------------------------------------------------------
  friend BigInt operator+(const BigInt& a, const BigInt& b);
  friend BigInt operator-(const BigInt& a, const BigInt& b);
  friend BigInt operator*(const BigInt& a, const BigInt& b);
  /// Truncated division (C semantics: quotient rounds toward zero,
  /// remainder has the sign of the dividend). b must be nonzero.
  friend BigInt operator/(const BigInt& a, const BigInt& b);
  friend BigInt operator%(const BigInt& a, const BigInt& b);

  BigInt& operator+=(const BigInt& b) { return *this = *this + b; }
  BigInt& operator-=(const BigInt& b) { return *this = *this - b; }
  BigInt& operator*=(const BigInt& b) { return *this = *this * b; }

  BigInt operator-() const;
  BigInt operator<<(size_t bits) const;
  BigInt operator>>(size_t bits) const;

  /// Computes quotient and remainder at once (truncated division).
  static void DivMod(const BigInt& a, const BigInt& b, BigInt* quotient,
                     BigInt* remainder);

  // --- conversion -----------------------------------------------------------
  /// Low 64 bits of the magnitude.
  uint64_t ToU64() const { return limbs_.empty() ? 0 : limbs_[0]; }
  /// Nearest double, rounded once (ties to even); +/-inf for huge values.
  double ToDouble() const;
  std::string ToDecString() const;
  std::string ToHexString() const;
  /// Little-endian magnitude bytes, no sign, minimal length (empty for 0).
  std::vector<uint8_t> ToBytes() const;

  const std::vector<uint64_t>& limbs() const { return limbs_; }

 private:
  void Normalize();

  // Magnitude helpers (ignore sign).
  static std::vector<uint64_t> AddMag(const std::vector<uint64_t>& a,
                                      const std::vector<uint64_t>& b);
  // Requires |a| >= |b|.
  static std::vector<uint64_t> SubMag(const std::vector<uint64_t>& a,
                                      const std::vector<uint64_t>& b);
  static std::vector<uint64_t> MulMag(const std::vector<uint64_t>& a,
                                      const std::vector<uint64_t>& b);

  bool negative_ = false;
  std::vector<uint64_t> limbs_;

  friend class MontgomeryContext;
};

}  // namespace vf2boost

#endif  // VF2BOOST_BIGINT_BIGINT_H_

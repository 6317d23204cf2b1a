#include "bigint/bigint.h"

#include <algorithm>
#include <cctype>
#include <cmath>

#include "common/logging.h"

namespace vf2boost {

namespace {

using u128 = unsigned __int128;

// Karatsuba pays off above this operand size (limbs). 4096-bit Paillier
// ciphertext squares are 64 limbs, so deep recursion is rare.
constexpr size_t kKaratsubaThreshold = 24;

// Largest power of ten that fits in a uint64 (10^19).
constexpr uint64_t kDecChunkBase = 10000000000000000000ULL;
constexpr int kDecChunkDigits = 19;

void TrimZeros(std::vector<uint64_t>* v) {
  while (!v->empty() && v->back() == 0) v->pop_back();
}

int CompareMag(const std::vector<uint64_t>& a, const std::vector<uint64_t>& b) {
  if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
  for (size_t i = a.size(); i-- > 0;) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  return 0;
}

// Schoolbook multiply: out (must be zeroed, size >= an+bn) += a * b.
void MulSchoolbook(const uint64_t* a, size_t an, const uint64_t* b, size_t bn,
                   uint64_t* out) {
  for (size_t i = 0; i < an; ++i) {
    uint64_t carry = 0;
    const u128 ai = a[i];
    for (size_t j = 0; j < bn; ++j) {
      u128 cur = ai * b[j] + out[i + j] + carry;
      out[i + j] = static_cast<uint64_t>(cur);
      carry = static_cast<uint64_t>(cur >> 64);
    }
    out[i + bn] += carry;
  }
}

// out = a + b, both little-endian raw vectors.
std::vector<uint64_t> AddRaw(const std::vector<uint64_t>& a,
                             const std::vector<uint64_t>& b) {
  const std::vector<uint64_t>& big = a.size() >= b.size() ? a : b;
  const std::vector<uint64_t>& small = a.size() >= b.size() ? b : a;
  std::vector<uint64_t> out(big.size() + 1, 0);
  uint64_t carry = 0;
  size_t i = 0;
  for (; i < small.size(); ++i) {
    u128 cur = static_cast<u128>(big[i]) + small[i] + carry;
    out[i] = static_cast<uint64_t>(cur);
    carry = static_cast<uint64_t>(cur >> 64);
  }
  for (; i < big.size(); ++i) {
    u128 cur = static_cast<u128>(big[i]) + carry;
    out[i] = static_cast<uint64_t>(cur);
    carry = static_cast<uint64_t>(cur >> 64);
  }
  out[big.size()] = carry;
  TrimZeros(&out);
  return out;
}

// out = a - b; requires a >= b (magnitudes).
std::vector<uint64_t> SubRaw(const std::vector<uint64_t>& a,
                             const std::vector<uint64_t>& b) {
  std::vector<uint64_t> out(a.size(), 0);
  uint64_t borrow = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    uint64_t bi = i < b.size() ? b[i] : 0;
    u128 cur = static_cast<u128>(a[i]) - bi - borrow;
    out[i] = static_cast<uint64_t>(cur);
    borrow = (cur >> 64) ? 1 : 0;  // wrapped => borrow
  }
  VF2_DCHECK(borrow == 0);
  TrimZeros(&out);
  return out;
}

std::vector<uint64_t> MulRaw(const std::vector<uint64_t>& a,
                             const std::vector<uint64_t>& b);

// Karatsuba split at `half` limbs.
std::vector<uint64_t> MulKaratsuba(const std::vector<uint64_t>& a,
                                   const std::vector<uint64_t>& b) {
  const size_t half = std::max(a.size(), b.size()) / 2;
  auto lo = [half](const std::vector<uint64_t>& v) {
    std::vector<uint64_t> r(v.begin(),
                            v.begin() + std::min(half, v.size()));
    TrimZeros(&r);
    return r;
  };
  auto hi = [half](const std::vector<uint64_t>& v) {
    if (v.size() <= half) return std::vector<uint64_t>();
    return std::vector<uint64_t>(v.begin() + half, v.end());
  };

  std::vector<uint64_t> a0 = lo(a), a1 = hi(a);
  std::vector<uint64_t> b0 = lo(b), b1 = hi(b);

  std::vector<uint64_t> z0 = MulRaw(a0, b0);
  std::vector<uint64_t> z2 = MulRaw(a1, b1);
  std::vector<uint64_t> z1 = MulRaw(AddRaw(a0, a1), AddRaw(b0, b1));
  z1 = SubRaw(z1, AddRaw(z0, z2));

  // result = z0 + (z1 << 64*half) + (z2 << 128*half)
  std::vector<uint64_t> out(std::max({z0.size(), z1.size() + half,
                                      z2.size() + 2 * half}) +
                                1,
                            0);
  auto add_at = [&out](const std::vector<uint64_t>& v, size_t off) {
    uint64_t carry = 0;
    size_t i = 0;
    for (; i < v.size(); ++i) {
      u128 cur = static_cast<u128>(out[off + i]) + v[i] + carry;
      out[off + i] = static_cast<uint64_t>(cur);
      carry = static_cast<uint64_t>(cur >> 64);
    }
    while (carry) {
      u128 cur = static_cast<u128>(out[off + i]) + carry;
      out[off + i] = static_cast<uint64_t>(cur);
      carry = static_cast<uint64_t>(cur >> 64);
      ++i;
    }
  };
  add_at(z0, 0);
  add_at(z1, half);
  add_at(z2, 2 * half);
  TrimZeros(&out);
  return out;
}

std::vector<uint64_t> MulRaw(const std::vector<uint64_t>& a,
                             const std::vector<uint64_t>& b) {
  if (a.empty() || b.empty()) return {};
  if (std::min(a.size(), b.size()) >= kKaratsubaThreshold) {
    return MulKaratsuba(a, b);
  }
  std::vector<uint64_t> out(a.size() + b.size(), 0);
  MulSchoolbook(a.data(), a.size(), b.data(), b.size(), out.data());
  TrimZeros(&out);
  return out;
}

// Single-limb divide: q = u / d, returns remainder. d != 0.
uint64_t DivModSingle(const std::vector<uint64_t>& u, uint64_t d,
                      std::vector<uint64_t>* q) {
  q->assign(u.size(), 0);
  u128 rem = 0;
  for (size_t i = u.size(); i-- > 0;) {
    u128 cur = (rem << 64) | u[i];
    (*q)[i] = static_cast<uint64_t>(cur / d);
    rem = cur % d;
  }
  TrimZeros(q);
  return static_cast<uint64_t>(rem);
}

// Knuth algorithm D. u / v with v.size() >= 2, |u| >= |v|.
void DivModKnuth(const std::vector<uint64_t>& u, const std::vector<uint64_t>& v,
                 std::vector<uint64_t>* q, std::vector<uint64_t>* r) {
  const size_t n = v.size();
  const size_t m = u.size() - n;
  const int shift = __builtin_clzll(v.back());

  // Normalize so the divisor's top bit is set.
  std::vector<uint64_t> vn(n);
  for (size_t i = n; i-- > 0;) {
    vn[i] = v[i] << shift;
    if (shift && i > 0) vn[i] |= v[i - 1] >> (64 - shift);
  }
  std::vector<uint64_t> un(u.size() + 1, 0);
  for (size_t i = u.size(); i-- > 0;) {
    un[i] = u[i] << shift;
    if (shift && i > 0) un[i] |= u[i - 1] >> (64 - shift);
  }
  if (shift) un[u.size()] = u.back() >> (64 - shift);

  q->assign(m + 1, 0);
  for (size_t j = m + 1; j-- > 0;) {
    u128 num = (static_cast<u128>(un[j + n]) << 64) | un[j + n - 1];
    u128 qhat = num / vn[n - 1];
    u128 rhat = num % vn[n - 1];
    while (qhat >> 64 ||
           qhat * vn[n - 2] > ((rhat << 64) | un[j + n - 2])) {
      --qhat;
      rhat += vn[n - 1];
      if (rhat >> 64) break;
    }
    // Multiply-subtract qhat * vn from un[j .. j+n].
    u128 borrow = 0;
    u128 carry = 0;
    for (size_t i = 0; i < n; ++i) {
      u128 p = qhat * vn[i] + carry;
      carry = p >> 64;
      u128 sub = static_cast<u128>(un[j + i]) - static_cast<uint64_t>(p) -
                 static_cast<uint64_t>(borrow);
      un[j + i] = static_cast<uint64_t>(sub);
      borrow = (sub >> 64) ? 1 : 0;
    }
    u128 sub = static_cast<u128>(un[j + n]) - carry - borrow;
    un[j + n] = static_cast<uint64_t>(sub);
    if (sub >> 64) {
      // qhat was one too large: add back.
      --qhat;
      uint64_t c = 0;
      for (size_t i = 0; i < n; ++i) {
        u128 cur = static_cast<u128>(un[j + i]) + vn[i] + c;
        un[j + i] = static_cast<uint64_t>(cur);
        c = static_cast<uint64_t>(cur >> 64);
      }
      un[j + n] += c;
    }
    (*q)[j] = static_cast<uint64_t>(qhat);
  }

  // Denormalize remainder.
  r->assign(n, 0);
  for (size_t i = 0; i < n; ++i) {
    (*r)[i] = un[i] >> shift;
    if (shift && i + 1 < un.size()) (*r)[i] |= un[i + 1] << (64 - shift);
  }
  TrimZeros(q);
  TrimZeros(r);
}

void DivModMag(const std::vector<uint64_t>& u, const std::vector<uint64_t>& v,
               std::vector<uint64_t>* q, std::vector<uint64_t>* r) {
  VF2_CHECK(!v.empty()) << "division by zero";
  if (CompareMag(u, v) < 0) {
    q->clear();
    *r = u;
    return;
  }
  if (v.size() == 1) {
    uint64_t rem = DivModSingle(u, v[0], q);
    r->clear();
    if (rem) r->push_back(rem);
    return;
  }
  DivModKnuth(u, v, q, r);
}

}  // namespace

BigInt::BigInt(int64_t v) {
  if (v < 0) {
    negative_ = true;
    // Avoid overflow on INT64_MIN.
    limbs_.push_back(static_cast<uint64_t>(-(v + 1)) + 1);
  } else if (v > 0) {
    limbs_.push_back(static_cast<uint64_t>(v));
  }
}

BigInt::BigInt(uint64_t v) {
  if (v != 0) limbs_.push_back(v);
}

void BigInt::Normalize() {
  TrimZeros(&limbs_);
  if (limbs_.empty()) negative_ = false;
}

Result<BigInt> BigInt::FromDecString(const std::string& s) {
  size_t pos = 0;
  bool neg = false;
  if (pos < s.size() && (s[pos] == '-' || s[pos] == '+')) {
    neg = s[pos] == '-';
    ++pos;
  }
  if (pos >= s.size()) return Status::InvalidArgument("empty number: " + s);
  BigInt out;
  // Process up to 19 digits at a time: out = out * 10^k + chunk.
  while (pos < s.size()) {
    uint64_t chunk = 0;
    uint64_t base = 1;
    int digits = 0;
    while (pos < s.size() && digits < kDecChunkDigits) {
      if (!std::isdigit(static_cast<unsigned char>(s[pos]))) {
        return Status::InvalidArgument("bad decimal digit in: " + s);
      }
      chunk = chunk * 10 + static_cast<uint64_t>(s[pos] - '0');
      base *= 10;
      ++pos;
      ++digits;
    }
    out = out * BigInt(base) + BigInt(chunk);
  }
  out.negative_ = neg && !out.IsZero();
  return out;
}

Result<BigInt> BigInt::FromHexString(const std::string& s) {
  size_t pos = 0;
  bool neg = false;
  if (pos < s.size() && (s[pos] == '-' || s[pos] == '+')) {
    neg = s[pos] == '-';
    ++pos;
  }
  if (pos >= s.size()) return Status::InvalidArgument("empty number: " + s);
  BigInt out;
  for (; pos < s.size(); ++pos) {
    const char c = s[pos];
    uint64_t d;
    if (c >= '0' && c <= '9') {
      d = static_cast<uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      d = static_cast<uint64_t>(c - 'a' + 10);
    } else if (c >= 'A' && c <= 'F') {
      d = static_cast<uint64_t>(c - 'A' + 10);
    } else {
      return Status::InvalidArgument("bad hex digit in: " + s);
    }
    out = (out << 4) + BigInt(d);
  }
  out.negative_ = neg && !out.IsZero();
  return out;
}

BigInt BigInt::FromBytes(const uint8_t* data, size_t len) {
  BigInt out;
  out.limbs_.assign((len + 7) / 8, 0);
  for (size_t i = 0; i < len; ++i) {
    out.limbs_[i / 8] |= static_cast<uint64_t>(data[i]) << (8 * (i % 8));
  }
  out.Normalize();
  return out;
}

BigInt BigInt::FromLimbs(std::vector<uint64_t> limbs) {
  BigInt out;
  out.limbs_ = std::move(limbs);
  out.Normalize();
  return out;
}

BigInt BigInt::Random(size_t bits, Rng* rng) {
  BigInt out;
  if (bits == 0) return out;
  const size_t full = bits / 64;
  const size_t rem = bits % 64;
  out.limbs_.resize(full + (rem ? 1 : 0));
  for (size_t i = 0; i < full; ++i) out.limbs_[i] = rng->NextU64();
  if (rem) out.limbs_[full] = rng->NextU64() >> (64 - rem);
  out.Normalize();
  return out;
}

BigInt BigInt::RandomBelow(const BigInt& bound, Rng* rng) {
  VF2_CHECK(!bound.IsZero() && !bound.IsNegative())
      << "RandomBelow requires positive bound";
  const size_t bits = bound.BitLength();
  for (;;) {
    BigInt candidate = Random(bits, rng);
    if (candidate.Compare(bound) < 0) return candidate;
  }
}

size_t BigInt::BitLength() const {
  if (limbs_.empty()) return 0;
  return 64 * limbs_.size() -
         static_cast<size_t>(__builtin_clzll(limbs_.back()));
}

bool BigInt::TestBit(size_t i) const {
  const size_t limb = i / 64;
  if (limb >= limbs_.size()) return false;
  return (limbs_[limb] >> (i % 64)) & 1;
}

int BigInt::Compare(const BigInt& other) const {
  if (negative_ != other.negative_) return negative_ ? -1 : 1;
  const int mag = CompareMag(limbs_, other.limbs_);
  return negative_ ? -mag : mag;
}

int BigInt::CompareMagnitude(const BigInt& other) const {
  return CompareMag(limbs_, other.limbs_);
}

BigInt operator+(const BigInt& a, const BigInt& b) {
  BigInt out;
  if (a.negative_ == b.negative_) {
    out.limbs_ = AddRaw(a.limbs_, b.limbs_);
    out.negative_ = a.negative_;
  } else {
    const int cmp = CompareMag(a.limbs_, b.limbs_);
    if (cmp == 0) return out;  // zero
    if (cmp > 0) {
      out.limbs_ = SubRaw(a.limbs_, b.limbs_);
      out.negative_ = a.negative_;
    } else {
      out.limbs_ = SubRaw(b.limbs_, a.limbs_);
      out.negative_ = b.negative_;
    }
  }
  out.Normalize();
  return out;
}

BigInt operator-(const BigInt& a, const BigInt& b) { return a + (-b); }

BigInt operator*(const BigInt& a, const BigInt& b) {
  BigInt out;
  out.limbs_ = MulRaw(a.limbs_, b.limbs_);
  out.negative_ = (a.negative_ != b.negative_) && !out.limbs_.empty();
  return out;
}

BigInt operator/(const BigInt& a, const BigInt& b) {
  BigInt q, r;
  BigInt::DivMod(a, b, &q, &r);
  return q;
}

BigInt operator%(const BigInt& a, const BigInt& b) {
  BigInt q, r;
  BigInt::DivMod(a, b, &q, &r);
  return r;
}

void BigInt::DivMod(const BigInt& a, const BigInt& b, BigInt* quotient,
                    BigInt* remainder) {
  std::vector<uint64_t> q, r;
  DivModMag(a.limbs_, b.limbs_, &q, &r);
  quotient->limbs_ = std::move(q);
  quotient->negative_ = (a.negative_ != b.negative_);
  quotient->Normalize();
  remainder->limbs_ = std::move(r);
  remainder->negative_ = a.negative_;
  remainder->Normalize();
}

BigInt BigInt::operator-() const {
  BigInt out = *this;
  if (!out.IsZero()) out.negative_ = !out.negative_;
  return out;
}

BigInt BigInt::operator<<(size_t bits) const {
  if (IsZero() || bits == 0) return *this;
  const size_t limb_shift = bits / 64;
  const size_t bit_shift = bits % 64;
  BigInt out;
  out.negative_ = negative_;
  out.limbs_.assign(limbs_.size() + limb_shift + 1, 0);
  for (size_t i = 0; i < limbs_.size(); ++i) {
    out.limbs_[i + limb_shift] |= limbs_[i] << bit_shift;
    if (bit_shift) {
      out.limbs_[i + limb_shift + 1] |= limbs_[i] >> (64 - bit_shift);
    }
  }
  out.Normalize();
  return out;
}

BigInt BigInt::operator>>(size_t bits) const {
  const size_t limb_shift = bits / 64;
  if (limb_shift >= limbs_.size()) return BigInt();
  const size_t bit_shift = bits % 64;
  BigInt out;
  out.negative_ = negative_;
  out.limbs_.assign(limbs_.size() - limb_shift, 0);
  for (size_t i = 0; i < out.limbs_.size(); ++i) {
    out.limbs_[i] = limbs_[i + limb_shift] >> bit_shift;
    if (bit_shift && i + limb_shift + 1 < limbs_.size()) {
      out.limbs_[i] |= limbs_[i + limb_shift + 1] << (64 - bit_shift);
    }
  }
  out.Normalize();
  return out;
}

double BigInt::ToDouble() const {
  if (limbs_.size() <= 1) {
    const double v = limbs_.empty() ? 0.0 : static_cast<double>(limbs_[0]);
    return negative_ ? -v : v;
  }
  // Round once: take the top 64 bits, fold every lower bit into a sticky
  // bit 0 (below the 11 bits the conversion drops), convert, then scale by
  // an exact power of two. Hence (x << k).ToDouble() == ldexp(x.ToDouble(), k).
  const size_t shift = BitLength() - 64;
  const size_t limb = shift / 64;
  const unsigned bit = shift % 64;
  uint64_t top = limbs_[limb] >> bit;
  if (bit != 0) top |= limbs_[limb + 1] << (64 - bit);
  bool sticky = bit != 0 && (limbs_[limb] << (64 - bit)) != 0;
  for (size_t i = 0; i < limb && !sticky; ++i) sticky = limbs_[i] != 0;
  const double v =
      std::ldexp(static_cast<double>(top | uint64_t{sticky}),
                 static_cast<int>(shift));
  return negative_ ? -v : v;
}

std::string BigInt::ToDecString() const {
  if (IsZero()) return "0";
  std::vector<uint64_t> mag = limbs_;
  std::string out;
  while (!mag.empty()) {
    std::vector<uint64_t> q;
    uint64_t rem = DivModSingle(mag, kDecChunkBase, &q);
    mag = std::move(q);
    if (mag.empty()) {
      out = std::to_string(rem) + out;
    } else {
      std::string chunk = std::to_string(rem);
      out = std::string(kDecChunkDigits - chunk.size(), '0') + chunk + out;
    }
  }
  return negative_ ? "-" + out : out;
}

std::string BigInt::ToHexString() const {
  if (IsZero()) return "0";
  static const char* kDigits = "0123456789abcdef";
  std::string out;
  for (size_t i = limbs_.size(); i-- > 0;) {
    for (int nib = 15; nib >= 0; --nib) {
      const int d = static_cast<int>((limbs_[i] >> (4 * nib)) & 0xf);
      if (out.empty() && d == 0) continue;
      out.push_back(kDigits[d]);
    }
  }
  return negative_ ? "-" + out : out;
}

std::vector<uint8_t> BigInt::ToBytes() const {
  std::vector<uint8_t> out;
  out.reserve(limbs_.size() * 8);
  for (uint64_t limb : limbs_) {
    for (int b = 0; b < 8; ++b) out.push_back((limb >> (8 * b)) & 0xff);
  }
  while (!out.empty() && out.back() == 0) out.pop_back();
  return out;
}

std::vector<uint64_t> BigInt::AddMag(const std::vector<uint64_t>& a,
                                     const std::vector<uint64_t>& b) {
  return AddRaw(a, b);
}
std::vector<uint64_t> BigInt::SubMag(const std::vector<uint64_t>& a,
                                     const std::vector<uint64_t>& b) {
  return SubRaw(a, b);
}
std::vector<uint64_t> BigInt::MulMag(const std::vector<uint64_t>& a,
                                     const std::vector<uint64_t>& b) {
  return MulRaw(a, b);
}

}  // namespace vf2boost

#include "bigint/modarith.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <utility>

#include "common/logging.h"
#include "common/threadpool.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define VF2_HAVE_X86_KERNELS 1
#include <immintrin.h>
#endif

namespace vf2boost {

namespace {

using u128 = unsigned __int128;

std::atomic<int> g_mont_kernel{static_cast<int>(MontKernel::kAuto)};

// Below this limb count the radix-2^32 vector kernel loses to the scalar
// u128 CIOS (vector setup + lazy-carry settlement dominates); 32 limbs is
// the n^2 ring of a 1024-bit key, where the column-tile kernel first shows
// a consistent win on this hardware. Smaller rings (CRT halves, short keys)
// stay scalar under kAuto; kAvx2 forces the vector path everywhere.
constexpr size_t kAvx2MinLimbs = 32;

// The IFMA kernel breaks even with scalar CIOS around 10 limbs and is 1.3x
// faster or more from 12 (768-bit rings: the CRT rings of a 768-bit key).
constexpr size_t kIfmaMinLimbs = 12;
// Widest ring the IFMA kernel runs: its accumulator lives in at most this
// many zmm registers (L = ceil(64k/52) <= 8 * kIfmaMaxVectors digits), i.e.
// 8192-bit rings, the n^2 ring of a 4096-bit key.
constexpr size_t kIfmaMaxVectors = 20;
constexpr size_t kIfmaMaxLimbs = 8 * kIfmaMaxVectors * 52 / 64;
// A chain needs one digit more than MulReduceRaw when 52L = 64k (k a
// multiple of 13), so at 130 limbs its accumulator is one vector longer.
constexpr size_t kChainMaxVectors = kIfmaMaxVectors + 1;
// Widest accumulator the pair kernel interleaves: two of them, the two
// broadcast digits and the two quotients still fit the 32 zmm registers.
constexpr size_t kIfmaPairMaxVectors = 12;

constexpr uint64_t kMask52 = (uint64_t{1} << 52) - 1;

bool DetectAvx2() {
#if defined(VF2_HAVE_X86_KERNELS)
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

bool DetectIfma() {
#if defined(VF2_HAVE_X86_KERNELS)
  return __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512ifma");
#else
  return false;
#endif
}

// Final step shared by every kernel: t (k limbs plus the bits `top` above
// them) is known to be < 2m; writes t mod m to out.
void SubtractIfAtLeast(const uint64_t* t, uint64_t top, const uint64_t* n,
                       size_t k, uint64_t* out) {
  bool ge = top != 0;
  if (!ge) {
    ge = true;
    for (size_t i = k; i-- > 0;) {
      if (t[i] != n[i]) {
        ge = t[i] > n[i];
        break;
      }
    }
  }
  if (ge) {
    uint64_t borrow = 0;
    for (size_t i = 0; i < k; ++i) {
      const u128 d = static_cast<u128>(t[i]) - n[i] - borrow;
      out[i] = static_cast<uint64_t>(d);
      borrow = (d >> 64) ? 1 : 0;
    }
  } else {
    std::copy(t, t + k, out);
  }
}

// Re-slices k 64-bit limbs, shifted left by `shift` < 52 bits, into `len`
// 52-bit digits (zero-filled past the end of the input).
void ToRadix52(const uint64_t* x, size_t k, unsigned shift, uint64_t* d,
               size_t len) {
  u128 buf = 0;
  unsigned bits = shift;  // valid bits in buf (the low `shift` are zero)
  size_t next = 0;
  for (size_t j = 0; j < len; ++j) {
    if (bits < 52 && next < k) {
      buf |= static_cast<u128>(x[next++]) << bits;
      bits += 64;
    }
    d[j] = static_cast<uint64_t>(buf) & kMask52;
    buf >>= 52;
    bits = bits > 52 ? bits - 52 : 0;
  }
}

// Settles `len` lazy radix-2^52 lanes (each < 2^63) into k 64-bit limbs;
// returns the value of the bits above 2^(64k).
uint64_t FromRadix52(const uint64_t* lanes, size_t len, uint64_t* t,
                     size_t k) {
  u128 buf = 0;
  unsigned bits = 0;
  uint64_t carry = 0;
  size_t next = 0;
  for (size_t j = 0; j < len; ++j) {
    const uint64_t v = lanes[j] + carry;
    carry = v >> 52;
    buf |= static_cast<u128>(v & kMask52) << bits;
    bits += 52;
    if (bits >= 64 && next < k) {
      t[next++] = static_cast<uint64_t>(buf);
      buf >>= 64;
      bits -= 64;
    }
  }
  VF2_DCHECK(next == k);
  return static_cast<uint64_t>(buf) + (carry << bits);
}

}  // namespace

bool CpuHasAvx2() {
  static const bool has = DetectAvx2();
  return has;
}

bool CpuHasIfma() {
  static const bool has = DetectIfma();
  return has;
}

void SetMontKernel(MontKernel kernel) {
  g_mont_kernel.store(static_cast<int>(kernel), std::memory_order_relaxed);
}

MontKernel GetMontKernel() {
  return static_cast<MontKernel>(
      g_mont_kernel.load(std::memory_order_relaxed));
}

MontKernel MontKernelFor(size_t num_limbs) {
  const MontKernel sel = GetMontKernel();
  if (sel == MontKernel::kScalar) return MontKernel::kScalar;
  if (CpuHasIfma() && num_limbs <= kIfmaMaxLimbs &&
      (sel == MontKernel::kIfma ||
       (sel == MontKernel::kAuto && num_limbs >= kIfmaMinLimbs))) {
    return MontKernel::kIfma;
  }
  if (CpuHasAvx2() &&
      (sel == MontKernel::kAvx2 || num_limbs >= kAvx2MinLimbs)) {
    return MontKernel::kAvx2;
  }
  return MontKernel::kScalar;
}

const char* MontKernelName(MontKernel kernel) {
  switch (kernel) {
    case MontKernel::kAuto:
      return "auto";
    case MontKernel::kScalar:
      return "scalar";
    case MontKernel::kAvx2:
      return "avx2";
    case MontKernel::kIfma:
      return "ifma";
  }
  return "?";
}

BigInt Mod(const BigInt& a, const BigInt& m) {
  BigInt r = a % m;
  if (r.IsNegative()) r += m;
  return r;
}

BigInt ModMul(const BigInt& a, const BigInt& b, const BigInt& m) {
  return Mod(a * b, m);
}

BigInt ModExp(const BigInt& base, const BigInt& exp, const BigInt& m) {
  VF2_CHECK(!exp.IsNegative()) << "negative exponent";
  if (m.IsOne()) return BigInt();
  if (m.IsOdd()) {
    MontgomeryContext ctx(m);
    return ctx.Pow(base, exp);
  }
  // Generic square-and-multiply for even moduli (not used by Paillier).
  BigInt result(1);
  BigInt b = Mod(base, m);
  const size_t bits = exp.BitLength();
  for (size_t i = 0; i < bits; ++i) {
    if (exp.TestBit(i)) result = ModMul(result, b, m);
    b = ModMul(b, b, m);
  }
  return result;
}

BigInt ModExp(const BigInt& base, const BigInt& exp,
              const MontgomeryContext& ctx) {
  return ctx.Pow(base, exp);
}

Result<BigInt> ModInverse(const BigInt& a, const BigInt& m) {
  // Iterative extended Euclid on (a mod m, m).
  BigInt r0 = Mod(a, m), r1 = m;
  BigInt s0(1), s1(0);
  while (!r1.IsZero()) {
    BigInt q, r;
    BigInt::DivMod(r0, r1, &q, &r);
    BigInt s = s0 - q * s1;
    r0 = r1;
    r1 = r;
    s0 = s1;
    s1 = s;
  }
  if (!r0.IsOne()) {
    return Status::InvalidArgument("not invertible: gcd != 1");
  }
  return Mod(s0, m);
}

BigInt Gcd(const BigInt& a, const BigInt& b) {
  BigInt x = a.IsNegative() ? -a : a;
  BigInt y = b.IsNegative() ? -b : b;
  while (!y.IsZero()) {
    BigInt r = x % y;
    x = y;
    y = r;
  }
  return x;
}

BigInt Lcm(const BigInt& a, const BigInt& b) {
  if (a.IsZero() || b.IsZero()) return BigInt();
  return (a * b) / Gcd(a, b);
}

MontgomeryContext::MontgomeryContext(const BigInt& m) : m_(m) {
  VF2_CHECK(m.IsOdd() && m.BitLength() > 1)
      << "Montgomery modulus must be odd and > 1";
  k_ = m.limbs().size();
  // inv64_ = -m^{-1} mod 2^64 via Newton iteration (5 steps double precision
  // each time: 2 -> 4 -> 8 -> 16 -> 32 -> 64 bits).
  const uint64_t m0 = m.limbs()[0];
  uint64_t x = m0;  // correct mod 2^3 already since m0 odd: x*m0 ≡ 1 mod 8
  for (int i = 0; i < 5; ++i) x *= 2 - m0 * x;
  inv64_ = ~x + 1;  // -m^{-1}

  // R^2 mod m where R = 2^(64k).
  r2_ = Mod(BigInt(1) << (128 * k_), m_);

  r2_raw_.assign(k_, 0);
  LoadRaw(r2_, r2_raw_.data());
  unit_raw_.assign(k_, 0);
  unit_raw_[0] = 1;

  // Operands of the column-tiled AVX2 kernel: m and -m^{-1} mod R as
  // zero-extended 32-bit limbs with 8 zero lanes of padding on both sides
  // (the tile loads run slightly past either end).
  n32pad_.assign(2 * k_ + 16, 0);
  for (size_t j = 0; j < k_; ++j) {
    n32pad_[8 + 2 * j] = m_.limbs()[j] & 0xffffffffu;
    n32pad_[8 + 2 * j + 1] = m_.limbs()[j] >> 32;
  }
  // Full-width n' = -m^{-1} mod R via Newton lifting from the 64-bit seed
  // (precision doubles per step; one-time setup cost).
  const BigInt pow2 = BigInt(1) << (64 * k_);
  BigInt minv(~inv64_ + 1);  // m^{-1} mod 2^64
  for (size_t bits = 64; bits < 64 * k_; bits *= 2) {
    minv = Mod(minv * (BigInt(2) - m_ * minv), pow2);
  }
  const BigInt np = pow2 - minv;
  np32pad_.assign(2 * k_ + 16, 0);
  for (size_t j = 0; j < np.limbs().size(); ++j) {
    np32pad_[8 + 2 * j] = np.limbs()[j] & 0xffffffffu;
    np32pad_[8 + 2 * j + 1] = np.limbs()[j] >> 32;
  }

  l52_ = (64 * k_ + 51) / 52;
  shift52_ = static_cast<unsigned>(52 * l52_ - 64 * k_);
  // A lazy chain needs 4m <= R′, i.e. 52L′ - 64k >= 2. 52L - 64k is a
  // multiple of 4, so only 52L = 64k (k a multiple of 13) takes a digit more.
  chain_len_ = shift52_ == 0 ? l52_ + 1 : l52_;
  const size_t chain_words = (chain_len_ + 7) / 8 * 8;
  m52_.assign(chain_words, 0);
  ToRadix52(m_.limbs().data(), k_, 0, m52_.data(), l52_);
  if (CpuHasIfma() && k_ <= kIfmaMaxLimbs) {
    const BigInt r2 = Mod(BigInt(1) << (104 * chain_len_), m_);  // R′² mod m
    chain_r2_.assign(chain_words, 0);
    ToRadix52(r2.limbs().data(), r2.limbs().size(), 0, chain_r2_.data(),
              chain_words);
    chain_unit_.assign(chain_words, 0);
    chain_unit_[0] = 1;
  }
}

void MontgomeryContext::MulReduceRaw(const uint64_t* a, const uint64_t* b,
                                     uint64_t* out) const {
  switch (MontKernelFor(k_)) {
    case MontKernel::kIfma:
      MulReduceRawIfma(a, b, out);
      return;
    case MontKernel::kAvx2:
      MulReduceRawAvx2(a, b, out);
      return;
    default:
      MulReduceRawScalar(a, b, out);
  }
}

void MontgomeryContext::MulReduceRawScalar(const uint64_t* a,
                                           const uint64_t* b,
                                           uint64_t* out) const {
  // CIOS over a thread-local accumulator of k_+2 limbs. The scratch persists
  // across calls, so steady-state cost is one fill — no heap traffic.
  // `out` is only written after the last read of `a`/`b`, so aliasing either
  // (squaring, in-place chains) is safe.
  thread_local std::vector<uint64_t> scratch;
  if (scratch.size() < k_ + 2) scratch.resize(k_ + 2);
  uint64_t* t = scratch.data();
  std::fill(t, t + k_ + 2, 0);
  const uint64_t* n = m_.limbs().data();
  for (size_t i = 0; i < k_; ++i) {
    // t += a[i] * b
    uint64_t carry = 0;
    const u128 ai = a[i];
    for (size_t j = 0; j < k_; ++j) {
      u128 cur = ai * b[j] + t[j] + carry;
      t[j] = static_cast<uint64_t>(cur);
      carry = static_cast<uint64_t>(cur >> 64);
    }
    u128 cur = static_cast<u128>(t[k_]) + carry;
    t[k_] = static_cast<uint64_t>(cur);
    t[k_ + 1] = static_cast<uint64_t>(cur >> 64);

    // m = t[0] * n' mod 2^64; t = (t + m*n) / 2^64
    const u128 mi = static_cast<uint64_t>(t[0] * inv64_);
    cur = mi * n[0] + t[0];
    carry = static_cast<uint64_t>(cur >> 64);
    for (size_t j = 1; j < k_; ++j) {
      cur = mi * n[j] + t[j] + carry;
      t[j - 1] = static_cast<uint64_t>(cur);
      carry = static_cast<uint64_t>(cur >> 64);
    }
    cur = static_cast<u128>(t[k_]) + carry;
    t[k_ - 1] = static_cast<uint64_t>(cur);
    t[k_] = t[k_ + 1] + static_cast<uint64_t>(cur >> 64);
    t[k_ + 1] = 0;
  }
  SubtractIfAtLeast(t, t[k_], n, k_, out);
}

#if defined(VF2_HAVE_X86_KERNELS)

namespace {

constexpr uint64_t kMask32 = 0xffffffffu;

// Column-tiled radix-2^32 schoolbook product: adds u*v into the lazy column
// accumulator S, i.e. S[c] += low32 and S[c+1] += high32 of every partial
// product u32[i]*v32[c-i], for output columns [0, out_cols).
//
// `u32` holds ulen zero-extended 32-bit limbs read scalar (one broadcast per
// row); `v32pad` holds vlen limbs with 8 zero lanes of padding on BOTH sides
// so boundary tiles can load past either end and pick up exact zeros. Tiles
// are 8 columns wide: four in-register accumulators (lo lanes = columns
// c0..c0+7, hi lanes = columns c0+1..c0+8) absorb at most vlen+7 < 2^9
// values below 2^32 per tile, so they cannot overflow, and S is touched only
// four times per tile — the kernel is multiply-throughput-bound, not
// memory-bound, and amortizes one broadcast over 8 partial products.
__attribute__((target("avx2"))) void TiledMulAvx2(
    const uint64_t* u32, size_t ulen, const uint64_t* v32pad, size_t vlen,
    uint64_t* S, size_t out_cols) {
  const __m256i mask = _mm256_set1_epi64x(0xffffffffLL);
  for (size_t c0 = 0; c0 < out_cols; c0 += 8) {
    __m256i lo0 = _mm256_setzero_si256();
    __m256i hi0 = _mm256_setzero_si256();
    __m256i lo1 = _mm256_setzero_si256();
    __m256i hi1 = _mm256_setzero_si256();
    const size_t ilo = c0 + 1 > vlen ? c0 + 1 - vlen : 0;
    const size_t ihi = std::min(ulen - 1, c0 + 7);
    for (size_t i = ilo; i <= ihi; ++i) {
      const __m256i uv = _mm256_set1_epi64x(static_cast<long long>(u32[i]));
      const uint64_t* vp = v32pad + 8 + static_cast<ptrdiff_t>(c0) -
                           static_cast<ptrdiff_t>(i);
      const __m256i p0 = _mm256_mul_epu32(
          uv, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(vp)));
      const __m256i p1 = _mm256_mul_epu32(
          uv, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(vp + 4)));
      lo0 = _mm256_add_epi64(lo0, _mm256_and_si256(p0, mask));
      hi0 = _mm256_add_epi64(hi0, _mm256_srli_epi64(p0, 32));
      lo1 = _mm256_add_epi64(lo1, _mm256_and_si256(p1, mask));
      hi1 = _mm256_add_epi64(hi1, _mm256_srli_epi64(p1, 32));
    }
    __m256i* sp = reinterpret_cast<__m256i*>(S + c0);
    _mm256_storeu_si256(sp, _mm256_add_epi64(_mm256_loadu_si256(sp), lo0));
    __m256i* sp4 = reinterpret_cast<__m256i*>(S + c0 + 4);
    _mm256_storeu_si256(sp4, _mm256_add_epi64(_mm256_loadu_si256(sp4), lo1));
    __m256i* sp1 = reinterpret_cast<__m256i*>(S + c0 + 1);
    _mm256_storeu_si256(sp1, _mm256_add_epi64(_mm256_loadu_si256(sp1), hi0));
    __m256i* sp5 = reinterpret_cast<__m256i*>(S + c0 + 5);
    _mm256_storeu_si256(sp5, _mm256_add_epi64(_mm256_loadu_si256(sp5), hi1));
  }
}

// Settles an even number of lazy 32-bit columns into cols/2 64-bit limbs;
// returns the carry flowing past the last column.
uint64_t SettleColumns(const uint64_t* S, size_t cols, uint64_t* out) {
  uint64_t carry = 0;
  for (size_t i = 0; 2 * i < cols; ++i) {
    const uint64_t v0 = S[2 * i] + carry;
    const uint64_t v1 = S[2 * i + 1] + (v0 >> 32);
    out[i] = (v0 & kMask32) | (v1 << 32);
    carry = v1 >> 32;
  }
  return carry;
}

}  // namespace

__attribute__((target("avx2")))
void MontgomeryContext::MulReduceRawAvx2(const uint64_t* a, const uint64_t* b,
                                         uint64_t* out) const {
  // Separated Montgomery multiply in radix 2^32: P = a*b, m = P*n' mod R,
  // t = (P + m*n) / R — 2.5 k^2 limb products versus CIOS's 2 k^2, but every
  // product runs through the register-resident column-tile kernel, which is
  // what makes the trade profitable. All three phases use TiledMulAvx2; the
  // only scalar work is O(k) column settlement between phases.
  const size_t k = k_;
  const size_t cols = 2 * k;
  thread_local std::vector<uint64_t> arena;
  const size_t need =
      (4 * k + 8) + (cols + 8) + 2 * (cols + 16) + 2 * (cols + 1) + 2 * cols;
  if (arena.size() < need) arena.resize(need);
  uint64_t* SP = arena.data();             // lazy columns of P, then of m*n
  uint64_t* bpad = SP + 4 * k + 8;         // b, padded both sides
  uint64_t* SB = bpad + cols + 16;         // lazy columns of P*n' mod R
  uint64_t* m32pad = SB + cols + 8;        // m, padded both sides
  uint64_t* p64 = m32pad + cols + 16;      // P as 64-bit limbs
  uint64_t* m64 = p64 + cols + 1;          // m*n as 64-bit limbs
  uint64_t* a32 = m64 + cols + 1;          // a as 32-bit limbs (broadcasts)
  uint64_t* pl32 = a32 + cols;             // P mod R as 32-bit limbs

  for (size_t j = 0; j < k; ++j) {
    a32[2 * j] = a[j] & kMask32;
    a32[2 * j + 1] = a[j] >> 32;
    bpad[8 + 2 * j] = b[j] & kMask32;
    bpad[8 + 2 * j + 1] = b[j] >> 32;
  }
  std::fill(bpad, bpad + 8, 0);
  std::fill(bpad + 8 + cols, bpad + cols + 16, 0);

  // Phase 1: P = a*b.
  std::fill(SP, SP + 4 * k + 8, 0);
  TiledMulAvx2(a32, cols, bpad, cols, SP, 2 * cols);
  uint64_t top = SettleColumns(SP, 2 * cols, p64);
  VF2_DCHECK(top == 0);
  for (size_t j = 0; j < k; ++j) {
    pl32[2 * j] = p64[j] & kMask32;
    pl32[2 * j + 1] = p64[j] >> 32;
  }

  // Phase 2: m = (P mod R) * n' mod R — a low-half product.
  std::fill(SB, SB + cols + 8, 0);
  TiledMulAvx2(pl32, cols, np32pad_.data(), cols, SB, cols);
  std::fill(m32pad, m32pad + 8, 0);
  std::fill(m32pad + 8 + cols, m32pad + cols + 16, 0);
  uint64_t carry = 0;
  for (size_t c = 0; c < cols; ++c) {
    const uint64_t v = SB[c] + carry;
    m32pad[8 + c] = v & kMask32;
    carry = v >> 32;
  }

  // Phase 3: m*n, then t = (P + m*n) / R. The low R half of the sum is zero
  // by construction of m; its carry chain still has to be walked.
  std::fill(SP, SP + 4 * k + 8, 0);
  TiledMulAvx2(m32pad + 8, cols, n32pad_.data(), cols, SP, 2 * cols);
  top = SettleColumns(SP, 2 * cols, m64);
  VF2_DCHECK(top == 0);

  uint64_t* tres = a32;  // a32/pl32 are dead past this point; reuse for t
  u128 cur = 0;
  for (size_t i = 0; i < k; ++i) {
    cur = static_cast<u128>(p64[i]) + m64[i] + static_cast<uint64_t>(cur >> 64);
    VF2_DCHECK(static_cast<uint64_t>(cur) == 0);
  }
  for (size_t i = 0; i < k; ++i) {
    cur = static_cast<u128>(p64[k + i]) + m64[k + i] +
          static_cast<uint64_t>(cur >> 64);
    tres[i] = static_cast<uint64_t>(cur);
  }

  SubtractIfAtLeast(tres, static_cast<uint64_t>(cur >> 64), m_.limbs().data(),
                    k, out);
}

namespace {

// Almost-Montgomery multiply in radix 2^52, word-serial over the digits of
// a with the accumulator held in V zmm registers: per digit a_i,
// acc += a_i*b + q*m with q = -acc_0 / m mod 2^52, then acc shifts down one
// digit. IFMA splits each 52x52 product into a low and a high half; the low
// halves are added before the shift and the high halves (one digit up)
// after it, so L digits need exactly L lanes. Lanes stay lazy: each absorbs
// < 4 * 2^52 per digit, so L <= 8 * kChainMaxVectors digits cannot overflow.
// Lane 0's carry is kept in a scalar and folded in at the end. The v-loops
// are fully unrolled so the accumulator stays in registers. Leaves
// (a*b + Q*m) / 2^(52*len) in 8V lazy lanes at `res`.
//
// P independent products (a[p], b[p]) -> res[p] run interleaved in one
// pass: the kernel is latency-bound (each digit's quotient waits on the
// previous digit's shift), so a second product fills the idle execution ports.
// Every input is read before any result is stored.
template <size_t V, size_t P>
__attribute__((target("avx512f,avx512ifma"))) void AmmIfma(
    const uint64_t* const* as, size_t len, const uint64_t* const* bs,
    const uint64_t* m52, uint64_t m0inv, uint64_t* const* outs) {
  const __m512i zero = _mm512_setzero_si512();
  __m512i acc[P][V];
  uint64_t carry[P];
  // Local copies: the result stores could otherwise alias the pointer lists.
  const uint64_t* a52[P];
  const uint64_t* b52[P];
  uint64_t* res[P];
#pragma GCC unroll 2
  for (size_t p = 0; p < P; ++p) {
    a52[p] = as[p];
    b52[p] = bs[p];
    res[p] = outs[p];
    carry[p] = 0;
#pragma GCC unroll 32
    for (size_t v = 0; v < V; ++v) acc[p][v] = zero;
  }
  const uint64_t m0 = m52[0];
  for (size_t i = 0; i < len; ++i) {
    __m512i ai[P], qv[P];
#pragma GCC unroll 2
    for (size_t p = 0; p < P; ++p) {
      ai[p] = _mm512_set1_epi64(static_cast<long long>(a52[p][i]));
#pragma GCC unroll 32
      for (size_t v = 0; v < V; ++v) {
        acc[p][v] = _mm512_madd52lo_epu64(
            acc[p][v], ai[p], _mm512_loadu_si512(b52[p] + 8 * v));
      }
    }
#pragma GCC unroll 2
    for (size_t p = 0; p < P; ++p) {
      // Masked forms pass explicit pass-through operands: the unmasked ones
      // trip GCC's -Wmaybe-uninitialized on their internal undefined values.
      const uint64_t x = static_cast<uint64_t>(_mm_cvtsi128_si64(
                             _mm512_mask_extracti32x4_epi32(
                                 _mm_setzero_si128(), 0xf, acc[p][0], 0))) +
                         carry[p];
      const uint64_t q = (x * m0inv) & kMask52;
      carry[p] = (x + ((q * m0) & kMask52)) >> 52;
      qv[p] = _mm512_set1_epi64(static_cast<long long>(q));
    }
#pragma GCC unroll 2
    for (size_t p = 0; p < P; ++p) {
#pragma GCC unroll 32
      for (size_t v = 0; v < V; ++v) {
        acc[p][v] = _mm512_madd52lo_epu64(acc[p][v], qv[p],
                                          _mm512_loadu_si512(m52 + 8 * v));
      }
#pragma GCC unroll 32
      for (size_t v = 0; v < V; ++v) {
        acc[p][v] = _mm512_mask_alignr_epi64(
            zero, 0xff, v + 1 < V ? acc[p][v + 1] : zero, acc[p][v], 1);
      }
#pragma GCC unroll 32
      for (size_t v = 0; v < V; ++v) {
        acc[p][v] = _mm512_madd52hi_epu64(
            acc[p][v], ai[p], _mm512_loadu_si512(b52[p] + 8 * v));
        acc[p][v] = _mm512_madd52hi_epu64(acc[p][v], qv[p],
                                          _mm512_loadu_si512(m52 + 8 * v));
      }
    }
  }
#pragma GCC unroll 2
  for (size_t p = 0; p < P; ++p) {
#pragma GCC unroll 32
    for (size_t v = 0; v < V; ++v) {
      _mm512_storeu_si512(res[p] + 8 * v, acc[p][v]);
    }
    res[p][0] += carry[p];
  }
}

using AmmIfmaFn = void (*)(const uint64_t* const*, size_t,
                           const uint64_t* const*, const uint64_t*, uint64_t,
                           uint64_t* const*);

template <size_t P, size_t... Vs>
constexpr std::array<AmmIfmaFn, sizeof...(Vs)> MakeAmmIfmaTable(
    std::index_sequence<Vs...>) {
  return {&AmmIfma<Vs + 1, P>...};
}

// kAmmIfma[V - 1] runs one V-vector accumulator, kAmmIfmaPair[V - 1] two.
constexpr auto kAmmIfma =
    MakeAmmIfmaTable<1>(std::make_index_sequence<kChainMaxVectors>());
constexpr auto kAmmIfmaPair =
    MakeAmmIfmaTable<2>(std::make_index_sequence<kIfmaPairMaxVectors>());

// Carries `len` lazy radix-2^52 lanes into 52-bit digits in place; the
// value must fit those digits (a chain value is below 2m < R′).
void NormalizeRadix52(uint64_t* d, size_t len) {
  uint64_t carry = 0;
  for (size_t j = 0; j < len; ++j) {
    const uint64_t v = d[j] + carry;
    d[j] = v & kMask52;
    carry = v >> 52;
  }
  VF2_DCHECK(carry == 0);
}

}  // namespace

void MontgomeryContext::MulReduceRawIfma(const uint64_t* a, const uint64_t* b,
                                         uint64_t* out) const {
  // a' = a * 2^(52L - 64k) < 2^(52L) m, so a'*b / 2^(52L) = a*b / R and the
  // almost-Montgomery result stays below 2m. Both operands are re-sliced
  // before `out` is written, so it may alias either.
  const size_t lanes = (l52_ + 7) / 8 * 8;
  thread_local std::vector<uint64_t> arena;
  if (arena.size() < 3 * lanes + k_) arena.resize(3 * lanes + k_);
  uint64_t* a52 = arena.data();
  uint64_t* b52 = a52 + lanes;
  uint64_t* acc = b52 + lanes;
  uint64_t* t = acc + lanes;
  ToRadix52(a, k_, shift52_, a52, l52_);
  ToRadix52(b, k_, 0, b52, lanes);
  const uint64_t* as[] = {a52};
  const uint64_t* bs[] = {b52};
  uint64_t* outs[] = {acc};
  kAmmIfma[lanes / 8 - 1](as, l52_, bs, m52_.data(), inv64_ & kMask52, outs);
  const uint64_t top = FromRadix52(acc, l52_, t, k_);
  SubtractIfAtLeast(t, top, m_.limbs().data(), k_, out);
}

void MontgomeryContext::ChainAmm(const uint64_t* a, const uint64_t* b,
                                 uint64_t* out) const {
  const uint64_t* as[] = {a};
  const uint64_t* bs[] = {b};
  uint64_t* outs[] = {out};
  kAmmIfma[chain_r2_.size() / 8 - 1](as, chain_len_, bs, m52_.data(),
                                     inv64_ & kMask52, outs);
  NormalizeRadix52(out, chain_len_);
}

void MontgomeryContext::ChainAmm2(const uint64_t* a0, const uint64_t* b0,
                                  uint64_t* out0, const uint64_t* a1,
                                  const uint64_t* b1, uint64_t* out1) const {
  const size_t vectors = chain_r2_.size() / 8;
  if (vectors > kIfmaPairMaxVectors) {  // too wide to interleave in registers
    ChainAmm(a0, b0, out0);
    ChainAmm(a1, b1, out1);
    return;
  }
  const uint64_t* as[] = {a0, a1};
  const uint64_t* bs[] = {b0, b1};
  uint64_t* outs[] = {out0, out1};
  kAmmIfmaPair[vectors - 1](as, chain_len_, bs, m52_.data(), inv64_ & kMask52,
                            outs);
  NormalizeRadix52(out0, chain_len_);
  NormalizeRadix52(out1, chain_len_);
}

#else  // !VF2_HAVE_X86_KERNELS

void MontgomeryContext::MulReduceRawAvx2(const uint64_t* a, const uint64_t* b,
                                         uint64_t* out) const {
  MulReduceRawScalar(a, b, out);
}

void MontgomeryContext::MulReduceRawIfma(const uint64_t* a, const uint64_t* b,
                                         uint64_t* out) const {
  MulReduceRawScalar(a, b, out);
}

// ChainForm never picks radix 2^52 without the IFMA kernel.
void MontgomeryContext::ChainAmm(const uint64_t*, const uint64_t*,
                                 uint64_t*) const {
  VF2_CHECK(false) << "radix-2^52 chain on a build without IFMA";
}

void MontgomeryContext::ChainAmm2(const uint64_t*, const uint64_t*, uint64_t*,
                                  const uint64_t*, const uint64_t*,
                                  uint64_t*) const {
  VF2_CHECK(false) << "radix-2^52 chain on a build without IFMA";
}

#endif  // VF2_HAVE_X86_KERNELS

void MontgomeryContext::LoadRaw(const BigInt& a, uint64_t* out) const {
  const std::vector<uint64_t>& limbs = a.limbs();
  VF2_DCHECK(!a.IsNegative() && limbs.size() <= k_);
  std::copy(limbs.begin(), limbs.end(), out);
  std::fill(out + limbs.size(), out + k_, 0);
}

BigInt MontgomeryContext::FromMontRaw(const uint64_t* a) const {
  std::vector<uint64_t> out(k_);
  MulReduceRaw(a, unit_raw_.data(), out.data());
  return BigInt::FromLimbs(std::move(out));
}

MontgomeryContext::Chain MontgomeryContext::ChainForm() const {
  if (MontKernelFor(k_) == MontKernel::kIfma) {
    return Chain{true, chain_r2_.size()};
  }
  return Chain{false, k_};
}

void MontgomeryContext::ChainEnter(Chain c, const uint64_t* x,
                                   uint64_t* out) const {
  if (!c.radix52) {
    MulReduceRaw(x, r2_raw_.data(), out);
    return;
  }
  // x < m in normalized digits, then x·R′²·R′⁻¹ = x·R′.
  thread_local std::vector<uint64_t> digits;
  digits.resize(c.words);
  ToRadix52(x, k_, 0, digits.data(), c.words);
  ChainAmm(digits.data(), chain_r2_.data(), out);
}

BigInt MontgomeryContext::ChainLeave(Chain c, const uint64_t* a) const {
  if (!c.radix52) return FromMontRaw(a);
  // a·1·R′⁻¹ + Q·m·R′⁻¹ < 2m/R′ + m, so at most m: one subtract settles it.
  thread_local std::vector<uint64_t> scratch;
  scratch.resize(c.words + k_);
  uint64_t* digits = scratch.data();
  uint64_t* t = digits + c.words;
  ChainAmm(a, chain_unit_.data(), digits);
  const uint64_t top = FromRadix52(digits, chain_len_, t, k_);
  std::vector<uint64_t> out(k_);
  SubtractIfAtLeast(t, top, m_.limbs().data(), k_, out.data());
  return BigInt::FromLimbs(std::move(out));
}

void MontgomeryContext::ChainMul(Chain c, const uint64_t* a, const uint64_t* b,
                                 uint64_t* out) const {
  if (c.radix52) {
    ChainAmm(a, b, out);
  } else {
    MulReduceRaw(a, b, out);
  }
}

void MontgomeryContext::ChainMul2(Chain c, const uint64_t* a0,
                                  const uint64_t* b0, uint64_t* out0,
                                  const uint64_t* a1, const uint64_t* b1,
                                  uint64_t* out1) const {
  if (c.radix52) {
    ChainAmm2(a0, b0, out0, a1, b1, out1);
  } else {
    MulReduceRaw(a0, b0, out0);
    MulReduceRaw(a1, b1, out1);
  }
}

BigInt MontgomeryContext::ToMont(const BigInt& a) const {
  return MontMul(Mod(a, m_), r2_);
}

BigInt MontgomeryContext::FromMont(const BigInt& a) const {
  thread_local std::vector<uint64_t> pad;
  if (pad.size() < k_) pad.resize(k_);
  LoadRaw(a, pad.data());
  return FromMontRaw(pad.data());
}

BigInt MontgomeryContext::MontMul(const BigInt& a, const BigInt& b) const {
  VF2_DCHECK(!a.IsNegative() && !b.IsNegative());
  thread_local std::vector<uint64_t> pads;
  if (pads.size() < 2 * k_) pads.resize(2 * k_);
  uint64_t* av = pads.data();
  uint64_t* bv = av + k_;
  LoadRaw(a, av);
  LoadRaw(b, bv);
  std::vector<uint64_t> out(k_);
  MulReduceRaw(av, bv, out.data());
  return BigInt::FromLimbs(std::move(out));
}

namespace {

// The fixed 4-bit window of Pow (N = 1) and Pow2 (N = 2): bases[l]^exp for
// every lane l, with exp > 0. Every lane runs the same schedule, so each
// table build, squaring and multiply is one ChainMul or, for two lanes, one
// ChainMul2. Lane l's table[d] = bases[l]^d in chain form, then
// square-and-multiply window by window from the top one, whose digit is
// nonzero. One thread-local arena holds the lanes' tables and, in the slot
// of the never-used digit 0, their accumulators, so the whole loop performs
// no heap allocation. Every input is read before any output is written.
template <size_t N>
void WindowPow(const MontgomeryContext& ctx,
               const std::array<const BigInt*, N>& bases, const BigInt& exp,
               const std::array<BigInt*, N>& outs) {
  static_assert(N == 1 || N == 2);
  constexpr size_t kWindow = 4;
  constexpr size_t kTableSize = 1 << kWindow;
  const MontgomeryContext::Chain c = ctx.ChainForm();
  const size_t w = c.words;
  thread_local std::vector<uint64_t> arena;
  if (arena.size() < N * kTableSize * w) arena.resize(N * kTableSize * w);
  std::array<uint64_t*, N> table;  // lane l's entry d at table[l] + d*w
  for (size_t l = 0; l < N; ++l) table[l] = arena.data() + l * kTableSize * w;
  // out = a·b at the same entry offsets in every lane.
  auto step = [&](size_t a, size_t b, size_t out) {
    if constexpr (N == 1) {
      ctx.ChainMul(c, table[0] + a, table[0] + b, table[0] + out);
    } else {
      ctx.ChainMul2(c, table[0] + a, table[0] + b, table[0] + out,
                    table[1] + a, table[1] + b, table[1] + out);
    }
  };

  const BigInt& m = ctx.modulus();
  for (size_t l = 0; l < N; ++l) {
    const BigInt& base = *bases[l];
    if (base.IsNegative() || base.Compare(m) >= 0) {
      ctx.LoadRaw(Mod(base, m), table[l] + w);
    } else {
      ctx.LoadRaw(base, table[l] + w);
    }
    ctx.ChainEnter(c, table[l] + w, table[l] + w);
  }
  for (size_t d = 2; d < kTableSize; ++d) step((d - 1) * w, w, d * w);

  auto digit = [&](size_t window) {
    size_t idx = 0;
    for (size_t s = kWindow; s-- > 0;) {
      idx = (idx << 1) | (exp.TestBit(window * kWindow + s) ? 1 : 0);
    }
    return idx;
  };
  const size_t windows = (exp.BitLength() + kWindow - 1) / kWindow;
  const size_t top = digit(windows - 1) * w;
  for (size_t l = 0; l < N; ++l) {
    std::copy(table[l] + top, table[l] + top + w, table[l]);
  }
  for (size_t i = windows - 1; i-- > 0;) {
    for (size_t s = 0; s < kWindow; ++s) step(0, 0, 0);
    if (const size_t idx = digit(i)) step(0, idx * w, 0);
  }
  std::array<BigInt, N> results;
  for (size_t l = 0; l < N; ++l) results[l] = ctx.ChainLeave(c, table[l]);
  for (size_t l = 0; l < N; ++l) *outs[l] = std::move(results[l]);
}

}  // namespace

BigInt MontgomeryContext::Pow(const BigInt& base, const BigInt& exp) const {
  VF2_CHECK(!exp.IsNegative()) << "negative exponent";
  if (exp.IsZero()) return Mod(BigInt(1), m_);
  BigInt out;
  WindowPow<1>(*this, {&base}, exp, {&out});
  return out;
}

void MontgomeryContext::Pow2(const BigInt& b0, const BigInt& b1,
                             const BigInt& exp, BigInt* out0,
                             BigInt* out1) const {
  VF2_CHECK(!exp.IsNegative()) << "negative exponent";
  if (exp.IsZero()) {
    *out0 = Mod(BigInt(1), m_);
    *out1 = *out0;
    return;
  }
  WindowPow<2>(*this, {&b0, &b1}, exp, {out0, out1});
}

FixedBasePowTable::FixedBasePowTable(
    std::shared_ptr<const MontgomeryContext> ctx, BigInt base,
    size_t max_exp_bits, size_t window_bits, ThreadPool* pool)
    : ctx_(std::move(ctx)),
      base_(std::move(base)),
      max_exp_bits_(max_exp_bits),
      window_bits_(window_bits),
      chain_(ctx_->ChainForm()) {
  VF2_CHECK(window_bits_ >= 1 && window_bits_ <= 8) << "bad window";
  VF2_CHECK(max_exp_bits_ >= 1) << "empty exponent range";
  num_windows_ = (max_exp_bits_ + window_bits_ - 1) / window_bits_;
  table_digits_ = (size_t{1} << window_bits_) - 1;
  const size_t w = chain_.words;
  table_.assign(num_windows_ * table_digits_ * w, 0);

  // Window i holds e_d = g^d for g = base^(2^(w*i)). The serial pass walks
  // the squaring chain of base: e_1, e_2, e_4, ..., e_(2^(w-1)) of window i,
  // and then e_(2^w), the next window's g. Every other entry of a window
  // comes from its own powers of two only, so the windows fill
  // independently.
  auto e = [&](size_t i, size_t d) -> uint64_t* {
    if (d > table_digits_) {  // e_(2^w) is the next window's e_1
      ++i;
      d = 1;
    }
    return table_.data() + (i * table_digits_ + (d - 1)) * w;
  };
  uint64_t* g = e(0, 1);
  ctx_->LoadRaw(Mod(base_, ctx_->modulus()), g);
  ctx_->ChainEnter(chain_, g, g);
  for (size_t i = 0; i < num_windows_; ++i) {
    const size_t top = i + 1 < num_windows_ ? window_bits_ : window_bits_ - 1;
    for (size_t d = 1; d < (size_t{1} << top); d *= 2) {
      ctx_->ChainMul(chain_, e(i, d), e(i, d), e(i, 2 * d));
    }
  }
  // Past the powers of two, entries come in independent pairs
  // e_(2j+1) = e_j·e_(j+1) and e_(2j+2) = e_(j+1)², one ChainMul2 each; a
  // pair whose square is a power of two has it already.
  auto fill = [&](size_t i) {
    for (size_t j = 1; 2 * j + 1 <= table_digits_; ++j) {
      if (((2 * j + 2) & (2 * j + 1)) == 0) {
        ctx_->ChainMul(chain_, e(i, j), e(i, j + 1), e(i, 2 * j + 1));
      } else {
        ctx_->ChainMul2(chain_, e(i, j), e(i, j + 1), e(i, 2 * j + 1),
                        e(i, j + 1), e(i, j + 1), e(i, 2 * j + 2));
      }
    }
  };
  if (pool != nullptr && pool->num_threads() >= 2) {
    pool->ParallelFor(num_windows_, fill);
  } else {
    for (size_t i = 0; i < num_windows_; ++i) fill(i);
  }
}

BigInt FixedBasePowTable::EntryResidue(size_t window, size_t digit) const {
  VF2_CHECK(window < num_windows_ && digit >= 1 && digit <= table_digits_)
      << "no table entry (" << window << ", " << digit << ")";
  return ctx_->ChainLeave(chain_, Entry(window, digit));
}

BigInt FixedBasePowTable::Pow(const BigInt& exp) const {
  VF2_CHECK(!exp.IsNegative() && exp.BitLength() <= max_exp_bits_)
      << "fixed-base exponent out of range";
  const MontgomeryContext& ctx = *ctx_;
  const size_t w = chain_.words;
  thread_local std::vector<uint64_t> accs;
  if (accs.size() < 2 * w) accs.resize(2 * w);
  uint64_t* const acc[2] = {accs.data(), accs.data() + w};
  const std::vector<uint64_t>& e = exp.limbs();
  const uint64_t mask = (uint64_t{1} << window_bits_) - 1;
  const size_t windows =
      std::min(num_windows_, (exp.BitLength() + window_bits_ - 1) / window_bits_);
  // The nonzero windows are dealt alternately to acc[0] and acc[1]; the
  // first factor of each replaces its 1 without a multiply, and later ones
  // wait for a partner so both halves advance in one ChainMul2.
  size_t factors = 0;
  const uint64_t* waiting = nullptr;  // acc[0]'s next factor
  for (size_t i = 0; i < windows; ++i) {
    // Digit i is bits [w*i, w*i + w) of exp; it may straddle two limbs.
    const size_t bit = i * window_bits_;
    const size_t limb = bit / 64, shift = bit % 64;
    uint64_t word = e[limb] >> shift;
    if (shift + window_bits_ > 64 && limb + 1 < e.size()) {
      word |= e[limb + 1] << (64 - shift);
    }
    const size_t digit = word & mask;
    if (digit == 0) continue;
    const uint64_t* entry = Entry(i, digit);
    if (factors < 2) {
      std::copy(entry, entry + w, acc[factors]);
    } else if (waiting == nullptr) {
      waiting = entry;
    } else {
      ctx.ChainMul2(chain_, acc[0], waiting, acc[0], acc[1], entry, acc[1]);
      waiting = nullptr;
    }
    ++factors;
  }
  if (factors == 0) return BigInt(1);
  if (waiting != nullptr) ctx.ChainMul(chain_, acc[0], waiting, acc[0]);
  if (factors >= 2) ctx.ChainMul(chain_, acc[0], acc[1], acc[0]);
  return ctx.ChainLeave(chain_, acc[0]);
}

}  // namespace vf2boost

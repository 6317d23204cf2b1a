#ifndef VF2BOOST_BIGINT_MODARITH_H_
#define VF2BOOST_BIGINT_MODARITH_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "bigint/bigint.h"
#include "common/result.h"

namespace vf2boost {

class MontgomeryContext;
class ThreadPool;

/// \brief Runtime-selectable Montgomery multiply kernel.
///
/// kAuto (the default) picks, per ring width, the fastest kernel the CPU
/// supports (cpuid, cached): the AVX-512 IFMA radix-2^52 kernel from 12
/// limbs (768-bit rings) up to 130 limbs, else the AVX2 product-scanning
/// kernel from 32 limbs up, else the scalar CIOS kernel. Benches and tests force a specific
/// kernel for A/B comparison. The selection is a pure performance choice —
/// every kernel produces identical MulReduceRaw limbs, and every
/// exponentiation chain (see MontgomeryContext::Chain) the same residues.
enum class MontKernel { kAuto, kScalar, kAvx2, kIfma };

/// Sets the process-wide kernel selection. Safe to call between
/// computations; not intended to race with in-flight multiplies.
void SetMontKernel(MontKernel kernel);
MontKernel GetMontKernel();

/// True when the running CPU supports the AVX2 kernel (always false on
/// non-x86 builds, where kAvx2 silently falls back to scalar).
bool CpuHasAvx2();
/// True when the running CPU (and OS) support AVX-512F + AVX-512 IFMA.
bool CpuHasIfma();

/// The kernel (never kAuto) that MulReduceRaw runs on a num_limbs-limb ring
/// under the current selection. A forced kernel the CPU or the width cannot
/// run falls back to the kAuto rule without it.
MontKernel MontKernelFor(size_t num_limbs);
/// "auto", "scalar", "avx2" or "ifma".
const char* MontKernelName(MontKernel kernel);

/// Canonical residue of a mod m, in [0, m). m must be positive.
BigInt Mod(const BigInt& a, const BigInt& m);

/// (a * b) mod m.
BigInt ModMul(const BigInt& a, const BigInt& b, const BigInt& m);

/// base^exp mod m, exp >= 0. Uses Montgomery arithmetic when m is odd
/// (the Paillier case), generic square-and-multiply otherwise.
///
/// Builds a fresh MontgomeryContext (R^2 reduction included) on every call;
/// hot loops against a fixed modulus should use the cached-context overload.
BigInt ModExp(const BigInt& base, const BigInt& exp, const BigInt& m);

/// base^exp mod ctx.modulus() through a caller-cached context, skipping the
/// per-call setup cost entirely.
BigInt ModExp(const BigInt& base, const BigInt& exp,
              const MontgomeryContext& ctx);

/// Multiplicative inverse of a modulo m, or InvalidArgument when
/// gcd(a, m) != 1.
Result<BigInt> ModInverse(const BigInt& a, const BigInt& m);

BigInt Gcd(const BigInt& a, const BigInt& b);
BigInt Lcm(const BigInt& a, const BigInt& b);

/// \brief Precomputed Montgomery domain for a fixed odd modulus.
///
/// Paillier encryption/decryption performs thousands of exponentiations
/// against the same modulus (n or n^2), so the per-modulus setup (R^2 mod m,
/// -m^{-1} mod 2^64) is hoisted here. MulReduce implements the CIOS variant
/// of Montgomery multiplication on raw 64-bit limbs.
///
/// The raw-limb API (`*Raw` methods) is the allocation-free hot path: every
/// operand is a plain k-limb little-endian array and the only per-call
/// storage is a thread-local scratch buffer that is reused across calls.
/// The BigInt-typed convenience wrappers allocate once for each returned
/// value and nothing else.
class MontgomeryContext {
 public:
  /// m must be odd and > 1.
  explicit MontgomeryContext(const BigInt& m);

  const BigInt& modulus() const { return m_; }
  /// Limb count k of the modulus; every raw-limb operand has this length.
  size_t num_limbs() const { return k_; }

  /// Converts into the Montgomery domain: a*R mod m.
  BigInt ToMont(const BigInt& a) const;
  /// Converts out of the Montgomery domain: a*R^{-1} mod m.
  BigInt FromMont(const BigInt& a) const;
  /// Montgomery product: a*b*R^{-1} mod m (both operands in-domain).
  BigInt MontMul(const BigInt& a, const BigInt& b) const;

  /// base^exp mod m (inputs/outputs in the ordinary domain). A fixed 4-bit
  /// window over one exponentiation chain (see Chain): one conversion in,
  /// one out, every squaring and multiply in the kernel's own domain.
  BigInt Pow(const BigInt& base, const BigInt& exp) const;
  /// *out0 = b0^exp and *out1 = b1^exp mod m: two bases under one exponent
  /// advance in lockstep through Pow's window schedule, each table build,
  /// squaring and multiply one ChainMul2. The results equal two Pow calls.
  /// Under IFMA the pair runs interleaved, at 1.5-1.8x the throughput of
  /// two Pows on 1024- to 2048-bit rings (4-core IFMA Xeon); under the
  /// other kernels it costs exactly two. Either output may alias any input.
  void Pow2(const BigInt& b0, const BigInt& b1, const BigInt& exp,
            BigInt* out0, BigInt* out1) const;

  // --- raw-limb hot-path kernels (allocation-free) --------------------------

  /// Raw k-limb Montgomery multiply: out = a*b*R^{-1} mod m in [0, m), for
  /// a, b in [0, m). All pointers reference k-limb little-endian arrays;
  /// `out` may alias `a` and/or `b`. Runs the kernel that
  /// MontKernelFor(num_limbs()) names; every kernel writes the same limbs.
  void MulReduceRaw(const uint64_t* a, const uint64_t* b, uint64_t* out) const;

  /// Loads a residue (must already be in [0, m)) into a zero-padded k-limb
  /// array.
  void LoadRaw(const BigInt& a, uint64_t* out) const;

  /// Converts a k-limb in-domain residue at `a` into an ordinary-domain
  /// BigInt (the one allocation of a raw computation chain).
  BigInt FromMontRaw(const uint64_t* a) const;

  // --- exponentiation chains ------------------------------------------------

  /// \brief The form an exponentiation chain holds its residues in.
  ///
  /// A chain converts once on entry and once on exit and keeps every value
  /// in between in its kernel's own domain. Under the IFMA kernel a residue
  /// x is held as x·R′ mod m, possibly plus m, with R′ = 2^(52·L′), in L′
  /// carry-normalized radix-2^52 digits zero-padded to whole 8-lane vectors;
  /// L′ = ⌈64k/52⌉, plus one digit when that leaves 52L′ = 64k, so 4m ≤ R′
  /// keeps every lazy product below 2m. A step is one almost-Montgomery
  /// multiply and a carry pass, with no re-slicing and no final subtract.
  /// Under the other kernels a chain value is MulReduceRaw's canonical
  /// k-limb x·R mod m and a step is one MulReduceRaw. Values of the two
  /// forms do not mix; a chain keeps the form it started in.
  struct Chain {
    bool radix52 = false;
    size_t words = 0;  ///< uint64_t words per chain value
  };
  /// The form a chain started now runs in: radix 2^52 exactly when
  /// MontKernelFor(num_limbs()) is kIfma.
  Chain ChainForm() const;
  /// out = x in chain form, for a k-limb residue x in [0, m). `out` (c.words
  /// words) may alias x.
  void ChainEnter(Chain c, const uint64_t* x, uint64_t* out) const;
  /// out = a·b in chain form; `out` may alias a and/or b.
  void ChainMul(Chain c, const uint64_t* a, const uint64_t* b,
                uint64_t* out) const;
  /// Two independent chain products, out0 = a0·b0 and out1 = a1·b1, with
  /// the same words as two ChainMul calls. Under IFMA they run interleaved
  /// in one pass, which hides most of one product's latency. Each output
  /// may alias its own product's inputs; out0 must not be a1 or b1.
  void ChainMul2(Chain c, const uint64_t* a0, const uint64_t* b0,
                 uint64_t* out0, const uint64_t* a1, const uint64_t* b1,
                 uint64_t* out1) const;
  /// The canonical residue in [0, m) of a chain value.
  BigInt ChainLeave(Chain c, const uint64_t* a) const;

  /// k-limb R^2 mod m — MulReduceRaw(x, r2_raw(), out) converts x into the
  /// Montgomery domain.
  const uint64_t* r2_raw() const { return r2_raw_.data(); }

 private:
  void MulReduceRawScalar(const uint64_t* a, const uint64_t* b,
                          uint64_t* out) const;
  /// Radix-2^32 product-scanning kernel with lazy column accumulators;
  /// forwards to the scalar kernel on builds without AVX2 support.
  void MulReduceRawAvx2(const uint64_t* a, const uint64_t* b,
                        uint64_t* out) const;
  /// Radix-2^52 AVX-512 IFMA kernel; `a` is pre-shifted so that its 2^(52L)
  /// Montgomery radix leaves exactly R = 2^(64k).
  void MulReduceRawIfma(const uint64_t* a, const uint64_t* b,
                        uint64_t* out) const;
  /// The IFMA chain step: out = a·b·R′⁻¹ + Q·m·R′⁻¹ < 2m in normalized
  /// digits, for chain values a, b; the pair form runs two interleaved.
  void ChainAmm(const uint64_t* a, const uint64_t* b, uint64_t* out) const;
  void ChainAmm2(const uint64_t* a0, const uint64_t* b0, uint64_t* out0,
                 const uint64_t* a1, const uint64_t* b1, uint64_t* out1) const;

  BigInt m_;
  size_t k_ = 0;        // limb count of m_
  uint64_t inv64_ = 0;  // -m^{-1} mod 2^64
  BigInt r2_;           // R^2 mod m
  std::vector<uint64_t> r2_raw_;    // k-limb copy of r2_
  std::vector<uint64_t> unit_raw_;  // k-limb literal 1 (for FromMont)
  // m_ and -m^{-1} mod R as zero-extended 32-bit limbs, 8 zero lanes of
  // padding on both sides (operands of the column-tiled AVX2 kernel).
  std::vector<uint64_t> n32pad_;
  std::vector<uint64_t> np32pad_;
  // IFMA kernel state: m in radix-2^52 digits, zero-padded to the chain's
  // whole 8-lane vectors; MulReduceRaw's L = ceil(64k/52) digits and the
  // pre-shift 52L - 64k it applies to `a`.
  std::vector<uint64_t> m52_;
  size_t l52_ = 0;
  unsigned shift52_ = 0;
  // The IFMA chain form (built only where the CPU runs IFMA): L′ digits,
  // and R′² mod m and 1 as chain words.
  size_t chain_len_ = 0;
  std::vector<uint64_t> chain_r2_;
  std::vector<uint64_t> chain_unit_;
};

/// \brief Precomputed fixed-base windowed exponentiation (Lim-Lee style).
///
/// For a base that never changes — the Paillier obfuscation generator
/// h^n mod n^2 — precomputes base^(d * 2^(w*i)) for every window position i
/// and w-bit digit d, so an exponentiation is just one multiply per nonzero
/// window and **zero squarings**. A 256-bit exponent costs <= 32 multiplies
/// at w = 8 (the Paillier nonce table) and <= 64 at w = 4, versus ~307 for
/// windowed square-and-multiply (256 squarings + ~51 multiplies).
///
/// The entries are held in the chain form (MontgomeryContext::Chain) of the
/// kernel selected when the table is built, and the table keeps that form:
/// every later Pow runs it, whatever the selection is then. Pow deals the
/// nonzero windows alternately to two accumulators, advances both through
/// ChainMul2 and multiplies the halves at the end. The table holds
/// ceil(max_exp_bits/w) * (2^w - 1) entries: 8160 at w = 8 and 256 bits,
/// 2.6 MB of IFMA chain digits (2 MB of limbs under the other kernels) on
/// the 2048-bit ring of a 1024-bit key.
class FixedBasePowTable {
 public:
  /// Builds the table for exponents in [0, 2^max_exp_bits) with
  /// window_bits-bit digits (1..8). The context is shared (not copied); it
  /// must describe the modulus `base` lives under. One serial pass squares
  /// its way through every window's powers of two (w squarings a window);
  /// the rest of each window depends on those alone, so the windows are
  /// then filled across `pool` when it has two threads or more, and in turn
  /// otherwise. The entries are the same either way.
  FixedBasePowTable(std::shared_ptr<const MontgomeryContext> ctx, BigInt base,
                    size_t max_exp_bits, size_t window_bits,
                    ThreadPool* pool = nullptr);

  /// base^exp mod m. exp must be in [0, 2^max_exp_bits).
  BigInt Pow(const BigInt& exp) const;

  const BigInt& base() const { return base_; }
  size_t max_exp_bits() const { return max_exp_bits_; }
  size_t num_windows() const { return num_windows_; }
  /// The canonical residue base^(digit * 2^(w*window)) mod m that entry
  /// (window, digit) holds, digit in [1, 2^w). The same under every kernel.
  BigInt EntryResidue(size_t window, size_t digit) const;

 private:
  const uint64_t* Entry(size_t window, size_t digit) const {
    return table_.data() +
           (window * table_digits_ + (digit - 1)) * chain_.words;
  }

  std::shared_ptr<const MontgomeryContext> ctx_;
  BigInt base_;
  size_t max_exp_bits_ = 0;
  size_t window_bits_ = 0;
  size_t num_windows_ = 0;
  size_t table_digits_ = 0;  // (1 << window_bits_) - 1, digit 0 is implicit
  MontgomeryContext::Chain chain_;
  std::vector<uint64_t> table_;  // [num_windows][table_digits][chain words]
};

}  // namespace vf2boost

#endif  // VF2BOOST_BIGINT_MODARITH_H_

#ifndef VF2BOOST_CRYPTO_PAILLIER_H_
#define VF2BOOST_CRYPTO_PAILLIER_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "bigint/bigint.h"
#include "bigint/modarith.h"
#include "common/bytes.h"
#include "common/random.h"
#include "common/result.h"
#include "common/threadpool.h"

namespace vf2boost {

/// \brief Public half of a Paillier key (paper §2.2, [Paillier '99]).
///
/// Uses the standard g = n + 1 simplification, so encryption is
/// `c = (1 + m*n) * r mod n^2` for an obfuscation nonce r. Nonces come from
/// the DJN-style short-exponent scheme [Damgård-Jurik-Nielsen '10, §4.2]:
/// `h_s = (-y^2)^n mod n^2` for a public y in Z_n^*, and a fresh nonce is
/// `h_s^x` for a *short* random x of kObfuscationExpBits (twice the
/// statistical-security parameter) instead of a full S-bit exponent —
/// evaluated through a window-8 fixed-base table with zero squarings, 32
/// multiplies per nonce.
///
/// h_s and that table (2.6 MB at a 1024-bit key and 5.2 MB at 2048 under
/// the IFMA kernel, 2 and 4 MB under the others) are built once, by the
/// first PrepareNonces or MakeNonce on the key or any copy of it, and shared
/// by every copy; concurrent first uses build them once. The keyholder,
/// Party B, builds them during set-up with PrepareNonces over its worker
/// pool, so its first tree finds them ready. A key that only adds and scales
/// ciphers — Party A's — never builds them. The Montgomery context of n^2
/// and the fold-count table are built with the key and shared too.
class PaillierPublicKey {
 public:
  /// Statistical-security parameter of the short-exponent obfuscation; the
  /// nonce exponent has twice this many bits (DJN recommend 2s for s-bit
  /// statistical indistinguishability from full-exponent nonces).
  static constexpr size_t kStatisticalSecurityBits = 128;
  static constexpr size_t kObfuscationExpBits = 2 * kStatisticalSecurityBits;
  /// Digit width of the nonce table: 32 multiplies per 256-bit exponent.
  static constexpr size_t kNonceWindowBits = 8;

  PaillierPublicKey() = default;
  explicit PaillierPublicKey(BigInt n);

  const BigInt& n() const { return n_; }
  const BigInt& n_squared() const { return n2_; }
  size_t key_bits() const { return n_.BitLength(); }
  /// Nominal serialized cipher size in bytes (2S bits).
  size_t CipherBytes() const { return (2 * key_bits() + 7) / 8; }

  /// Encrypts plaintext m in [0, n). Obfuscates with a fresh short-exponent
  /// nonce drawn from rng.
  BigInt Encrypt(const BigInt& m, Rng* rng) const;

  /// Draws a fresh obfuscation nonce h_s^x mod n^2 (x short random
  /// exponent). Pre-generating nonces (see NoisePool) turns Encrypt into a
  /// single modular multiply on the critical path. The first call on a key
  /// builds the nonce table unless PrepareNonces already has.
  BigInt MakeNonce(Rng* rng) const;

  /// Builds h_s and the nonce table now, unless a MakeNonce or
  /// PrepareNonces on this key (or a copy) already has; blocks until they
  /// are ready. Lets the keyholder pay the build before its first tree.
  /// h_s is one serial exponentiation; the table's windows are filled
  /// across `pool` when it has two threads or more.
  void PrepareNonces(ThreadPool* pool = nullptr) const;

  /// Encrypts with a caller-provided nonce from MakeNonce (or a NoisePool):
  /// c = (1 + m*n) * nonce mod n^2.
  BigInt EncryptWithNonce(const BigInt& m, const BigInt& nonce) const;

  /// Encrypts without obfuscation (r = 1). Only safe for values that are
  /// public anyway — e.g. the histogram-packing shift constant.
  BigInt EncryptUnobfuscated(const BigInt& m) const;

  /// Homomorphic addition: Dec(HAdd(c1,c2)) = m1 + m2 mod n.
  BigInt HAdd(const BigInt& c1, const BigInt& c2) const;

  /// Scalar multiplication: Dec(SMul(k, c)) = k * m mod n.
  BigInt SMul(const BigInt& k, const BigInt& c) const;

  /// Packing chain c_0 ⊕ 2^M ⊗ (c_1 ⊕ 2^M ⊗ (… c_{t-1})) for M = shift_bits,
  /// the same residue as t-1 rounds of HAdd(c_i, SMul(2^M, acc)). The
  /// accumulator is one exponentiation chain (MontgomeryContext::Chain), so
  /// a step is M squarings, one conversion of c_i and one multiply (≈ M+2
  /// MontMuls) instead of a windowed Pow round trip plus a DivMod, with no
  /// per-step allocation. `slots` must not be empty.
  BigInt HornerPow2(std::span<const BigInt* const> slots,
                    size_t shift_bits) const;

  /// Lazy product of ciphers, the accumulator workspace of HAdds (paper
  /// §5.1). `acc` holds `count` folded ciphers as ∏c·R^−(count−1) mod n² in
  /// num_limbs() raw limbs (R = 2^(64·num_limbs())), so each fold after the
  /// first is exactly one Montgomery multiply and nothing divides. `count`
  /// is the number of ciphers folded before c; at 0, `acc` is sized and c
  /// loaded (reduced mod n² first if it is not already).
  void FoldRaw(std::vector<uint64_t>* acc, size_t count, const BigInt& c) const;
  /// The plain residue ∏c mod n² of a workspace holding `count` >= 1
  /// ciphers, i.e. acc·R^count·R⁻¹: one multiply per set bit of count−1.
  BigInt MaterializeRaw(const std::vector<uint64_t>& acc, size_t count) const;

  void Serialize(ByteWriter* w) const;
  static Result<PaillierPublicKey> Deserialize(ByteReader* r);

 private:
  /// a·b mod n², two Montgomery multiplies (a·b·R⁻¹, then ·R²·R⁻¹).
  BigInt MulModN2(const BigInt& a, const BigInt& b) const;
  /// Loads c mod n² into num_limbs() raw limbs; a wire cipher need not be
  /// reduced, and the Montgomery kernels need inputs below n².
  void LoadReduced(const BigInt& c, uint64_t* out) const;

  /// The fixed-base table of h_s, built on first use (defined in the .cc).
  struct NonceTable;
  const FixedBasePowTable& nonce_table(ThreadPool* pool = nullptr) const;

  BigInt n_;
  BigInt n2_;
  std::shared_ptr<const MontgomeryContext> mont_n2_;
  std::shared_ptr<NonceTable> nonces_;  ///< shared by every copy of the key
  /// Entry i (num_limbs() limbs each) is R^(2^i + 1) mod n², the Montgomery
  /// form of R^(2^i): a multiply by it lifts a workspace's R^−(count−1) by
  /// R^(2^i).
  std::shared_ptr<const std::vector<uint64_t>> r_pow2_;
};

/// \brief Private half: CRT-accelerated decryption.
///
/// Decryption evaluates `L(c^{p-1} mod p^2) * hp mod p` and the q-analogue,
/// then CRT-combines — roughly 4x faster than the textbook
/// `L(c^lambda mod n^2) / L(g^lambda mod n^2)` because both exponent and
/// modulus halve. Within one half every cipher shares the modulus and the
/// exponent, so DecryptBatch runs ciphers two at a time through one
/// MontgomeryContext::Pow2 chain, and spreads the pairs' p- and q-halves
/// across a thread pool. A lone Decrypt has nothing to pair with.
class PaillierPrivateKey {
 public:
  PaillierPrivateKey() = default;
  PaillierPrivateKey(const PaillierPublicKey& pub, BigInt p, BigInt q);

  /// Decrypts a cipher to the plaintext residue in [0, n).
  BigInt Decrypt(const BigInt& c) const;

  /// The CRT decryption rings.
  const BigInt& p_squared() const { return p_half_.sq; }
  const BigInt& q_squared() const { return q_half_.sq; }

  /// Decrypts a batch, equal cipher by cipher to Decrypt. Ciphers 2j and
  /// 2j+1 share one Pow2 chain per CRT half, and an odd last cipher runs
  /// alone: ⌈N/2⌉ p-tasks and ⌈N/2⌉ q-tasks, spread across `pool` when it
  /// has two threads or more and run in turn otherwise.
  std::vector<BigInt> DecryptBatch(const std::vector<BigInt>& cs,
                                   ThreadPool* pool) const;

 private:
  /// One CRT ring r² (r = p or q) and what a half-decryption needs of it.
  struct CrtHalf {
    BigInt prime;
    BigInt prime_minus_1;  ///< the exponent of every half-decryption
    BigInt sq;             ///< prime²
    BigInt hinv;           ///< L_r(g^{r-1} mod r²)^{-1} mod r
    std::shared_ptr<const MontgomeryContext> mont;  ///< of sq

    /// m_r = L_r(x) * hinv mod r for x = c^{r-1} mod r².
    BigInt Finish(const BigInt& x) const;
  };
  static CrtHalf MakeHalf(const BigInt& prime, const BigInt& g);
  /// m_r of c, and of c0 and c1 on one paired chain.
  static BigInt DecryptHalf(const BigInt& c, const CrtHalf& h);
  static void DecryptHalf2(const BigInt& c0, const BigInt& c1,
                           const CrtHalf& h, BigInt* m0, BigInt* m1);
  BigInt CrtCombine(const BigInt& mp, const BigInt& mq) const;

  CrtHalf p_half_, q_half_;
  BigInt p_inv_mod_q_;  // CRT recombination factor
};

/// \brief A freshly generated Paillier key pair.
struct PaillierKeyPair {
  PaillierPublicKey pub;
  PaillierPrivateKey priv;

  /// Generates a key with an S-bit modulus n = p*q (p, q distinct primes of
  /// S/2 bits with their top two bits set, so every pair found gives exactly
  /// S bits). key_bits must be even and >= 64. Two seeds drawn from `rng`
  /// drive the searches for p and q, whose candidates are tested across
  /// `pool` when it has two threads or more and on the calling thread
  /// otherwise (GeneratePrimes); the key depends only on `rng`, never on the
  /// pool. The paper uses S = 2048; the test suite
  /// uses 256-512 for speed — every measured ratio is also spot-checked at
  /// larger sizes in the benches.
  static Result<PaillierKeyPair> Generate(size_t key_bits, Rng* rng,
                                          ThreadPool* pool = nullptr);
};

}  // namespace vf2boost

#endif  // VF2BOOST_CRYPTO_PAILLIER_H_

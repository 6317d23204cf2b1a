#ifndef VF2BOOST_CRYPTO_BACKEND_H_
#define VF2BOOST_CRYPTO_BACKEND_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "bigint/bigint.h"
#include "common/bytes.h"
#include "common/random.h"
#include "common/result.h"
#include "common/threadpool.h"
#include "crypto/encoding.h"
#include "crypto/noise_pool.h"
#include "crypto/paillier.h"

namespace vf2boost {

/// \brief An encrypted fixed-point number: ciphertext plus its encoding
/// exponent ⟨e, ⟦V⟧⟩ (paper §2.2).
struct Cipher {
  BigInt data;
  int32_t exponent = 0;
};

/// \brief Running homomorphic sum of same-exponent ciphers in a backend's
/// working form: one workspace of an accumulator (paper §5.1). Filled with
/// CipherBackend::Fold and read with CipherBackend::Materialize, which
/// yields the residue a chain of HAddRaw would.
struct CipherWorkspace {
  size_t count = 0;  ///< ciphers folded in so far
  /// Paillier: the lazy Montgomery product (PaillierPublicKey::FoldRaw).
  std::vector<uint64_t> limbs;
  /// Mock: the running sum itself.
  BigInt sum;
};

/// \brief Abstract homomorphic-arithmetic backend.
///
/// Two implementations: PaillierBackend (real cryptography) and MockBackend
/// (identical encoding and protocol flow, plaintext arithmetic) — the latter
/// is the paper's VF-MOCK competitor and isolates protocol overhead from
/// cryptography overhead in the end-to-end evaluation (Table 4).
class CipherBackend {
 public:
  explicit CipherBackend(FixedPointCodec codec) : codec_(codec) {}
  virtual ~CipherBackend() = default;

  const FixedPointCodec& codec() const { return codec_; }
  /// The plaintext modulus n (a surrogate modulus for the mock backend).
  virtual const BigInt& plain_modulus() const = 0;
  virtual bool is_mock() const = 0;
  /// True when this backend holds the private key (Party B only).
  virtual bool can_decrypt() const = 0;
  /// Nominal wire size of one ciphertext in bytes.
  virtual size_t CipherBytes() const = 0;

  // --- raw ring operations (plaintext-space semantics mod n) ---------------
  virtual BigInt EncryptRaw(const BigInt& m, Rng* rng) const = 0;
  virtual BigInt DecryptRaw(const BigInt& data) const = 0;
  virtual BigInt HAddRaw(const BigInt& a, const BigInt& b) const = 0;
  virtual BigInt SMulRaw(const BigInt& k, const BigInt& data) const = 0;
  /// Deterministic encryption of a public constant (no obfuscation).
  virtual BigInt EncryptPublicRaw(const BigInt& m) const = 0;
  /// Folds c into `ws` (one HAdd once ws holds a cipher). The default keeps
  /// an HAddRaw chain in ws->sum; Paillier keeps a lazy Montgomery product.
  virtual void Fold(CipherWorkspace* ws, const BigInt& c) const;
  /// The sum of a non-empty workspace, equal to the HAddRaw chain's.
  virtual BigInt Materialize(const CipherWorkspace& ws) const;
  /// Horner chain of the §5.2 pack: c_0 ⊕ 2^M ⊗ (c_1 ⊕ 2^M ⊗ (… c_{t-1})),
  /// M = shift_bits, over the slots' raw data (exponents are ignored).
  /// The default runs one SMulRaw and one HAddRaw per step; the Paillier
  /// backend keeps the chain in Montgomery form, with the same result.
  /// `slots` must not be empty.
  virtual BigInt HornerRaw(std::span<const Cipher> slots,
                           size_t shift_bits) const;
  /// Batch decryption of raw ciphertexts. The default loops DecryptRaw;
  /// the Paillier backend spreads the independent CRT halves across `pool`
  /// when one is given.
  virtual std::vector<BigInt> DecryptRawBatch(const std::vector<BigInt>& cs,
                                              ThreadPool* pool) const;

  // --- exponent-aware fixed-point layer -------------------------------------
  /// Encrypts v with a randomly sampled exponent (footnote 2 of the paper).
  Cipher Encrypt(double v, Rng* rng) const;
  /// Encrypts v at a fixed exponent.
  Cipher EncryptAt(double v, int exponent, Rng* rng) const;
  /// Deterministic encryption of a public constant at a fixed exponent.
  Cipher EncryptPublicAt(double v, int exponent) const;
  /// Decrypts and decodes (requires can_decrypt()).
  double Decrypt(const Cipher& c) const;

  /// Rescales c to a higher exponent via one SMul with B^(diff).
  /// This is the "cipher scaling" operation whose count the re-ordered
  /// accumulation technique minimizes.
  Cipher ScaleTo(const Cipher& c, int target_exponent) const;

  /// Exponent-aligning homomorphic addition. If `scalings` is non-null it is
  /// incremented when an alignment scaling was needed.
  Cipher HAdd(const Cipher& a, const Cipher& b, size_t* scalings) const;

  // --- wire format -----------------------------------------------------------
  void SerializeCipher(const Cipher& c, ByteWriter* w) const;
  /// Corruption when the exponent lies outside the codec's
  /// [min_exponent, max_exponent].
  Status DeserializeCipher(ByteReader* r, Cipher* c) const;

 protected:
  FixedPointCodec codec_;
};

/// \brief Real Paillier backend. Party A constructs it from the public key
/// only; Party B also installs the private key.
class PaillierBackend : public CipherBackend {
 public:
  PaillierBackend(PaillierPublicKey pub, FixedPointCodec codec)
      : CipherBackend(codec), pub_(std::move(pub)) {}

  void SetPrivateKey(PaillierPrivateKey priv) { priv_ = std::move(priv); }

  /// Installs a background pre-compute pool of obfuscation nonces;
  /// EncryptRaw then consumes pooled nonces, leaving one modular multiply
  /// on the critical path. Pass nullptr to detach.
  void SetNoisePool(std::shared_ptr<NoisePool> pool) {
    noise_pool_ = std::move(pool);
  }
  const std::shared_ptr<NoisePool>& noise_pool() const { return noise_pool_; }

  const PaillierPublicKey& public_key() const { return pub_; }
  const BigInt& plain_modulus() const override { return pub_.n(); }
  bool is_mock() const override { return false; }
  bool can_decrypt() const override { return priv_.has_value(); }
  size_t CipherBytes() const override { return pub_.CipherBytes(); }

  BigInt EncryptRaw(const BigInt& m, Rng* rng) const override;
  BigInt DecryptRaw(const BigInt& data) const override;
  std::vector<BigInt> DecryptRawBatch(const std::vector<BigInt>& cs,
                                      ThreadPool* pool) const override;
  BigInt HAddRaw(const BigInt& a, const BigInt& b) const override {
    return pub_.HAdd(a, b);
  }
  BigInt SMulRaw(const BigInt& k, const BigInt& data) const override {
    return pub_.SMul(k, data);
  }
  BigInt EncryptPublicRaw(const BigInt& m) const override {
    return pub_.EncryptUnobfuscated(m);
  }
  void Fold(CipherWorkspace* ws, const BigInt& c) const override {
    pub_.FoldRaw(&ws->limbs, ws->count++, c);
  }
  BigInt Materialize(const CipherWorkspace& ws) const override {
    return pub_.MaterializeRaw(ws.limbs, ws.count);
  }
  BigInt HornerRaw(std::span<const Cipher> slots,
                   size_t shift_bits) const override;

 private:
  PaillierPublicKey pub_;
  std::optional<PaillierPrivateKey> priv_;
  std::shared_ptr<NoisePool> noise_pool_;
};

/// \brief Plaintext backend with identical encoding semantics (VF-MOCK).
///
/// "Ciphertexts" are the encoded residues themselves, reduced modulo a
/// surrogate modulus, so HAdd/SMul behave ring-identically to Paillier
/// plaintext space — only ~10^2-10^3x faster.
class MockBackend : public CipherBackend {
 public:
  explicit MockBackend(FixedPointCodec codec = FixedPointCodec())
      : CipherBackend(codec), n_(BigInt(1) << kMockModulusBits) {}

  const BigInt& plain_modulus() const override { return n_; }
  bool is_mock() const override { return true; }
  bool can_decrypt() const override { return true; }
  /// Wire size of a plaintext residue (16 bytes covers the value range the
  /// GBDT workload produces).
  size_t CipherBytes() const override { return 16; }

  BigInt EncryptRaw(const BigInt& m, Rng* /*rng*/) const override { return m; }
  BigInt DecryptRaw(const BigInt& data) const override { return data; }
  BigInt HAddRaw(const BigInt& a, const BigInt& b) const override;
  BigInt SMulRaw(const BigInt& k, const BigInt& data) const override;
  BigInt EncryptPublicRaw(const BigInt& m) const override { return m; }

 private:
  // Sized like a small real key so packing capacity and value ranges behave
  // identically to the Paillier backend.
  static constexpr size_t kMockModulusBits = 512;
  BigInt n_;
};

}  // namespace vf2boost

#endif  // VF2BOOST_CRYPTO_BACKEND_H_

#ifndef VF2BOOST_CRYPTO_PACKING_H_
#define VF2BOOST_CRYPTO_PACKING_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/result.h"
#include "crypto/backend.h"

namespace vf2boost {

/// \brief One packed cipher carrying `num_slots` histogram bins of
/// `slot_bits` bits each (paper §5.2, Fig. 9).
struct PackedCipher {
  BigInt data;
  int32_t exponent = 0;
  uint32_t slot_bits = 0;
  uint32_t num_slots = 0;
};

/// How many slot values fit in one plaintext. One slot of headroom is
/// reserved so carries from the topmost slot cannot wrap past the modulus
/// (e.g. S = 2048, M = 64 -> 31 usable slots + headroom; the paper packs 32
/// by assuming exact bounds — we keep the defensive slot).
size_t MaxSlotsPerCipher(size_t slot_bits, size_t plain_modulus_bits);

/// Packs `slots` (all at the same exponent, every plaintext guaranteed in
/// [0, 2^slot_bits)) into one cipher via the polynomial transformation
///   ⟦V̄⟧ = ⟦V₁⟧ ⊕ 2^M ⊗ (⟦V₂⟧ ⊕ 2^M ⊗ (…)).
/// Returns InvalidArgument if the slots disagree on exponent or exceed
/// capacity. Cost: one CipherBackend::HornerRaw chain of t-1 steps, each
/// ≈ slot_bits+2 Montgomery multiplies under Paillier — repaid ~t× at
/// decryption and on the wire.
Result<PackedCipher> PackCiphers(std::span<const Cipher> slots,
                                 size_t slot_bits,
                                 const CipherBackend& backend);

/// Rejects a received pack that no PackCiphers call under a plaintext
/// modulus of `plain_modulus_bits` bits produces: a slot width of 0 or not
/// below the modulus, or 0 slots, or more than MaxSlotsPerCipher. Run it on
/// wire input before decrypting or unpacking: UnpackPlaintext allocates one
/// value per slot. ProtocolError on failure.
Status ValidatePackedShape(const PackedCipher& packed,
                           size_t plain_modulus_bits);

/// Splits a decrypted packed plaintext back into its slot values
/// (V₁ = low M bits, V₂ = next M bits, …). Slots may exceed 64 bits (large
/// shifted values at high exponents), hence BigInt.
std::vector<BigInt> UnpackPlaintext(const BigInt& plain, size_t slot_bits,
                                    size_t num_slots);

/// Decrypts a packed cipher and returns the decoded slot values. Slot
/// plaintexts are unsigned (the protocol shifts them nonnegative before
/// packing), so decoding never applies the negative-range rule. The pack's
/// shape is checked first (ValidatePackedShape).
Result<std::vector<double>> DecryptPacked(const PackedCipher& packed,
                                          const CipherBackend& backend);

}  // namespace vf2boost

#endif  // VF2BOOST_CRYPTO_PACKING_H_

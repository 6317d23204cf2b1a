#include "crypto/packing.h"

#include <cmath>

namespace vf2boost {

size_t MaxSlotsPerCipher(size_t slot_bits, size_t plain_modulus_bits) {
  if (slot_bits == 0 || plain_modulus_bits <= 2 * slot_bits) return 1;
  // Reserve one slot of headroom below the modulus.
  return (plain_modulus_bits - slot_bits) / slot_bits;
}

Status ValidatePackedShape(const PackedCipher& packed,
                           size_t plain_modulus_bits) {
  if (packed.slot_bits == 0 || packed.slot_bits >= plain_modulus_bits) {
    return Status::ProtocolError(
        "pack slot width " + std::to_string(packed.slot_bits) +
        " outside (0, " + std::to_string(plain_modulus_bits) + ")");
  }
  const size_t capacity =
      MaxSlotsPerCipher(packed.slot_bits, plain_modulus_bits);
  if (packed.num_slots == 0 || packed.num_slots > capacity) {
    return Status::ProtocolError(
        "pack carries " + std::to_string(packed.num_slots) +
        " slots, capacity is " + std::to_string(capacity));
  }
  return Status::OK();
}

Result<PackedCipher> PackCiphers(std::span<const Cipher> slots,
                                 size_t slot_bits,
                                 const CipherBackend& backend) {
  if (slots.empty()) {
    return Status::InvalidArgument("cannot pack zero ciphers");
  }
  const size_t capacity =
      MaxSlotsPerCipher(slot_bits, backend.plain_modulus().BitLength());
  if (slots.size() > capacity) {
    return Status::InvalidArgument(
        "packing " + std::to_string(slots.size()) + " slots exceeds capacity " +
        std::to_string(capacity));
  }
  const int exponent = slots.front().exponent;
  for (const Cipher& c : slots) {
    if (c.exponent != exponent) {
      return Status::InvalidArgument(
          "packed slots must share one exponent; align them first");
    }
  }

  PackedCipher out;
  out.data = backend.HornerRaw(slots, slot_bits);
  out.exponent = exponent;
  out.slot_bits = static_cast<uint32_t>(slot_bits);
  out.num_slots = static_cast<uint32_t>(slots.size());
  return out;
}

std::vector<BigInt> UnpackPlaintext(const BigInt& plain, size_t slot_bits,
                                    size_t num_slots) {
  std::vector<BigInt> out;
  out.reserve(num_slots);
  BigInt rest = plain;
  const BigInt modulus = BigInt(1) << slot_bits;
  for (size_t i = 0; i < num_slots; ++i) {
    out.push_back(rest % modulus);
    rest = rest >> slot_bits;
  }
  return out;
}

Result<std::vector<double>> DecryptPacked(const PackedCipher& packed,
                                          const CipherBackend& backend) {
  if (!backend.can_decrypt()) {
    return Status::CryptoError("backend has no private key");
  }
  VF2_RETURN_IF_ERROR(
      ValidatePackedShape(packed, backend.plain_modulus().BitLength()));
  const std::vector<BigInt> raw = UnpackPlaintext(
      backend.DecryptRaw(packed.data), packed.slot_bits, packed.num_slots);
  const double scale =
      std::pow(static_cast<double>(backend.codec().base()), packed.exponent);
  std::vector<double> out;
  out.reserve(raw.size());
  for (const BigInt& v : raw) out.push_back(v.ToDouble() / scale);
  return out;
}

}  // namespace vf2boost

#include "crypto/backend.h"

#include "bigint/modarith.h"
#include "common/logging.h"

namespace vf2boost {

Cipher CipherBackend::Encrypt(double v, Rng* rng) const {
  return EncryptAt(v, codec_.SampleExponent(rng), rng);
}

Cipher CipherBackend::EncryptAt(double v, int exponent, Rng* rng) const {
  Cipher c;
  c.exponent = exponent;
  c.data = EncryptRaw(codec_.Encode(v, exponent, plain_modulus()), rng);
  return c;
}

Cipher CipherBackend::EncryptPublicAt(double v, int exponent) const {
  Cipher c;
  c.exponent = exponent;
  c.data = EncryptPublicRaw(codec_.Encode(v, exponent, plain_modulus()));
  return c;
}

double CipherBackend::Decrypt(const Cipher& c) const {
  VF2_CHECK(can_decrypt()) << "backend has no private key";
  return codec_.Decode(DecryptRaw(c.data), c.exponent, plain_modulus());
}

BigInt CipherBackend::HornerRaw(std::span<const Cipher> slots,
                                size_t shift_bits) const {
  VF2_CHECK(!slots.empty()) << "empty Horner chain";
  const BigInt shift = BigInt(1) << shift_bits;
  BigInt acc = slots.back().data;
  for (size_t i = slots.size() - 1; i-- > 0;) {
    acc = HAddRaw(slots[i].data, SMulRaw(shift, acc));
  }
  return acc;
}

std::vector<BigInt> CipherBackend::DecryptRawBatch(
    const std::vector<BigInt>& cs, ThreadPool* /*pool*/) const {
  std::vector<BigInt> out;
  out.reserve(cs.size());
  for (const BigInt& c : cs) out.push_back(DecryptRaw(c));
  return out;
}

Cipher CipherBackend::ScaleTo(const Cipher& c, int target_exponent) const {
  VF2_CHECK(target_exponent >= c.exponent)
      << "cannot rescale cipher downward";
  if (target_exponent == c.exponent) return c;
  Cipher out;
  out.exponent = target_exponent;
  out.data = SMulRaw(codec_.ScaleFactor(target_exponent - c.exponent), c.data);
  return out;
}

void CipherBackend::Fold(CipherWorkspace* ws, const BigInt& c) const {
  if (ws->count++ == 0) {
    ws->sum = c;
  } else {
    ws->sum = HAddRaw(ws->sum, c);
  }
}

BigInt CipherBackend::Materialize(const CipherWorkspace& ws) const {
  VF2_DCHECK(ws.count > 0);
  return ws.sum;
}

Cipher CipherBackend::HAdd(const Cipher& a, const Cipher& b,
                           size_t* scalings) const {
  const Cipher* lo = &a;
  const Cipher* hi = &b;
  if (lo->exponent > hi->exponent) std::swap(lo, hi);
  Cipher aligned;
  if (lo->exponent != hi->exponent) {
    aligned = ScaleTo(*lo, hi->exponent);
    lo = &aligned;
    if (scalings != nullptr) ++*scalings;
  }
  Cipher out;
  out.exponent = hi->exponent;
  out.data = HAddRaw(lo->data, hi->data);
  return out;
}

void CipherBackend::SerializeCipher(const Cipher& c, ByteWriter* w) const {
  w->PutI32(c.exponent);
  w->PutU64Vector(c.data.limbs());
}

Status CipherBackend::DeserializeCipher(ByteReader* r, Cipher* c) const {
  VF2_RETURN_IF_ERROR(r->GetI32(&c->exponent));
  // Accumulators index a workspace by exponent and B aligns exponents with
  // ScaleFactor, so one outside the codec's range must not get past here.
  if (c->exponent < codec_.min_exponent() ||
      c->exponent > codec_.max_exponent()) {
    return Status::Corruption("cipher exponent " +
                              std::to_string(c->exponent) +
                              " outside the codec range");
  }
  std::vector<uint64_t> limbs;
  VF2_RETURN_IF_ERROR(r->GetU64Vector(&limbs));
  c->data = BigInt::FromLimbs(std::move(limbs));
  return Status::OK();
}

BigInt PaillierBackend::EncryptRaw(const BigInt& m, Rng* rng) const {
  if (noise_pool_ != nullptr) {
    return pub_.EncryptWithNonce(m, noise_pool_->Take());
  }
  return pub_.Encrypt(m, rng);
}

BigInt PaillierBackend::DecryptRaw(const BigInt& data) const {
  VF2_CHECK(priv_.has_value()) << "PaillierBackend has no private key";
  return priv_->Decrypt(data);
}

BigInt PaillierBackend::HornerRaw(std::span<const Cipher> slots,
                                  size_t shift_bits) const {
  std::vector<const BigInt*> data;
  data.reserve(slots.size());
  for (const Cipher& c : slots) data.push_back(&c.data);
  return pub_.HornerPow2(data, shift_bits);
}

std::vector<BigInt> PaillierBackend::DecryptRawBatch(
    const std::vector<BigInt>& cs, ThreadPool* pool) const {
  VF2_CHECK(priv_.has_value()) << "PaillierBackend has no private key";
  return priv_->DecryptBatch(cs, pool);
}

BigInt MockBackend::HAddRaw(const BigInt& a, const BigInt& b) const {
  return Mod(a + b, n_);
}

BigInt MockBackend::SMulRaw(const BigInt& k, const BigInt& data) const {
  return Mod(k * data, n_);
}

}  // namespace vf2boost

#include "crypto/packing.h"

#include <gtest/gtest.h>

#include <memory>

#include "crypto/paillier.h"

namespace vf2boost {
namespace {

class PackingTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    codec_ = FixedPointCodec(16, 4, 4);
    if (GetParam()) {
      Rng krng(4242);
      auto kp = PaillierKeyPair::Generate(512, &krng);
      ASSERT_TRUE(kp.ok());
      auto pb = std::make_unique<PaillierBackend>(kp->pub, codec_);
      pb->SetPrivateKey(kp->priv);
      backend_ = std::move(pb);
    } else {
      backend_ = std::make_unique<MockBackend>(codec_);
    }
  }

  FixedPointCodec codec_{16, 4, 4};
  std::unique_ptr<CipherBackend> backend_;
  Rng rng_{11};
};

TEST_P(PackingTest, PackUnpackRoundTrip) {
  // Nonnegative histogram-bin-like values at a shared exponent.
  const std::vector<double> values = {0.0, 1.5, 1023.25, 7.0, 0.0625};
  std::vector<Cipher> slots;
  for (double v : values) slots.push_back(backend_->EncryptAt(v, 4, &rng_));

  auto packed = PackCiphers(slots, /*slot_bits=*/40, *backend_);
  ASSERT_TRUE(packed.ok()) << packed.status().ToString();
  auto out = DecryptPacked(packed.value(), *backend_);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_NEAR((*out)[i], values[i], 1e-4) << i;
  }
}

TEST_P(PackingTest, OneDecryptionRecoversAllSlots) {
  // The whole point of packing: t bins, one DecryptRaw. Fill to capacity.
  const size_t slot_bits = 32;
  const size_t capacity =
      MaxSlotsPerCipher(slot_bits, backend_->plain_modulus().BitLength());
  ASSERT_GE(capacity, 2u);
  std::vector<Cipher> slots;
  std::vector<double> values;
  for (size_t i = 0; i < capacity; ++i) {
    values.push_back(static_cast<double>(i) + 0.5);
    slots.push_back(backend_->EncryptAt(values.back(), 4, &rng_));
  }
  auto packed = PackCiphers(slots, slot_bits, *backend_);
  ASSERT_TRUE(packed.ok());
  auto out = DecryptPacked(packed.value(), *backend_);
  ASSERT_TRUE(out.ok());
  for (size_t i = 0; i < capacity; ++i) {
    EXPECT_NEAR((*out)[i], values[i], 1e-4);
  }
}

TEST_P(PackingTest, MismatchedExponentsRejected) {
  std::vector<Cipher> slots = {backend_->EncryptAt(1.0, 4, &rng_),
                               backend_->EncryptAt(1.0, 5, &rng_)};
  EXPECT_FALSE(PackCiphers(slots, 32, *backend_).ok());
}

TEST_P(PackingTest, OverCapacityRejected) {
  const size_t slot_bits = 64;
  const size_t capacity =
      MaxSlotsPerCipher(slot_bits, backend_->plain_modulus().BitLength());
  std::vector<Cipher> slots(capacity + 1, backend_->EncryptAt(1.0, 4, &rng_));
  EXPECT_FALSE(PackCiphers(slots, slot_bits, *backend_).ok());
}

TEST_P(PackingTest, EmptyInputRejected) {
  EXPECT_FALSE(PackCiphers({}, 32, *backend_).ok());
}

TEST_P(PackingTest, SingleSlotPack) {
  std::vector<Cipher> slots = {backend_->EncryptAt(9.75, 4, &rng_)};
  auto packed = PackCiphers(slots, 32, *backend_);
  ASSERT_TRUE(packed.ok());
  auto out = DecryptPacked(packed.value(), *backend_);
  ASSERT_TRUE(out.ok());
  EXPECT_NEAR((*out)[0], 9.75, 1e-4);
}

INSTANTIATE_TEST_SUITE_P(MockAndPaillier, PackingTest,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Paillier" : "Mock";
                         });

TEST(PackingCapacityTest, MatchesPaperNumbers) {
  // Paper: S = 2048, M = 64 packs 32 bins. We reserve one headroom slot.
  EXPECT_EQ(MaxSlotsPerCipher(64, 2048), 31u);
  EXPECT_EQ(MaxSlotsPerCipher(64, 1024), 15u);
  EXPECT_EQ(MaxSlotsPerCipher(32, 512), 15u);
  // Degenerate sizes never return zero.
  EXPECT_EQ(MaxSlotsPerCipher(64, 64), 1u);
  EXPECT_EQ(MaxSlotsPerCipher(64, 0), 1u);
}

// The Horner chain as PackCiphers ran it before the Montgomery-resident
// chain: one SMulRaw(2^M) and one HAddRaw per step. Kept as the oracle.
BigInt ReferenceHorner(const std::vector<Cipher>& slots, size_t shift_bits,
                       const CipherBackend& backend) {
  const BigInt shift = BigInt(1) << shift_bits;
  BigInt acc = slots.back().data;
  for (size_t i = slots.size() - 1; i-- > 0;) {
    acc = backend.HAddRaw(slots[i].data, backend.SMulRaw(shift, acc));
  }
  return acc;
}

TEST(PackingHornerTest, ResidentChainMatchesReferenceChain) {
  // The chain is plain arithmetic mod n^2, so any odd n of the key size and
  // any residues exercise it; no key generation needed.
  Rng rng(2024);
  for (size_t key_bits : {512, 1024, 2048}) {
    BigInt n = (BigInt(1) << (key_bits - 1)) + BigInt::Random(key_bits - 1, &rng);
    if (n.IsEven()) n += BigInt(1);
    const PaillierPublicKey pub(n);
    const PaillierBackend backend(pub, FixedPointCodec());
    std::vector<Cipher> all(31);
    for (size_t i = 0; i < all.size(); ++i) {
      all[i].data = BigInt::RandomBelow(pub.n_squared(), &rng);
    }
    // Wire ciphers need not be reduced mod n^2.
    all[2].data += pub.n_squared();
    all[30].data += pub.n_squared();
    std::vector<size_t> counts;
    for (size_t t = 1; t <= all.size(); ++t) {
      if (key_bits < 2048 || t <= 3 || t == 18 || t == 31) counts.push_back(t);
    }
    for (size_t shift_bits : {1, 64, 105}) {
      for (size_t t : counts) {
        const std::vector<Cipher> slots(all.begin(), all.begin() + t);
        EXPECT_EQ(backend.HornerRaw(slots, shift_bits),
                  ReferenceHorner(slots, shift_bits, backend))
            << key_bits << "-bit key, " << t << " slots of " << shift_bits
            << " bits";
      }
    }
  }
}

TEST(PackingShapeTest, RejectsShapesPackCiphersNeverMakes) {
  PackedCipher pc;
  pc.slot_bits = 64;
  pc.num_slots = 31;
  EXPECT_TRUE(ValidatePackedShape(pc, 2048).ok());
  pc.num_slots = 32;
  EXPECT_EQ(ValidatePackedShape(pc, 2048).code(), StatusCode::kProtocolError);
  pc.num_slots = 0;
  EXPECT_EQ(ValidatePackedShape(pc, 2048).code(), StatusCode::kProtocolError);
  pc.num_slots = 1;
  pc.slot_bits = 0;
  EXPECT_EQ(ValidatePackedShape(pc, 2048).code(), StatusCode::kProtocolError);
  pc.slot_bits = 0xFFFFFFFFu;  // would make UnpackPlaintext shift by 4 Gbit
  EXPECT_EQ(ValidatePackedShape(pc, 2048).code(), StatusCode::kProtocolError);
}

TEST(PackingUnpackTest, SliceLayoutIsLittleEndianBySlot) {
  // V = V1 + V2*2^8 + V3*2^16 with 8-bit slots.
  BigInt packed = BigInt(5) + (BigInt(200) << 8) + (BigInt(31) << 16);
  std::vector<BigInt> slots = UnpackPlaintext(packed, 8, 3);
  EXPECT_EQ(slots, (std::vector<BigInt>{BigInt(5), BigInt(200), BigInt(31)}));

  // Slots wider than 64 bits must survive intact.
  BigInt wide = (BigInt(1) << 80) + BigInt(7);
  BigInt packed_wide = wide + (BigInt(3) << 100);
  std::vector<BigInt> wide_slots = UnpackPlaintext(packed_wide, 100, 2);
  EXPECT_EQ(wide_slots[0], wide);
  EXPECT_EQ(wide_slots[1], BigInt(3));
}

}  // namespace
}  // namespace vf2boost

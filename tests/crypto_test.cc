#include "crypto/paillier.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>

#include "common/threadpool.h"
#include "crypto/backend.h"
#include "crypto/encoding.h"

namespace vf2boost {
namespace {

class PaillierTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto kp = PaillierKeyPair::Generate(256, &rng_);
    ASSERT_TRUE(kp.ok()) << kp.status().ToString();
    kp_ = kp.value();
  }

  Rng rng_{12345};
  PaillierKeyPair kp_;
};

TEST_F(PaillierTest, KeyGenValidation) {
  Rng rng(1);
  EXPECT_FALSE(PaillierKeyPair::Generate(63, &rng).ok());   // odd size
  EXPECT_FALSE(PaillierKeyPair::Generate(62, &rng).ok());   // too small
  auto kp = PaillierKeyPair::Generate(128, &rng);
  ASSERT_TRUE(kp.ok());
  EXPECT_EQ(kp->pub.key_bits(), 128u);
  EXPECT_EQ(kp->pub.n_squared(), kp->pub.n() * kp->pub.n());
}

// Every pair of primes found is kept: both have their top two bits set, so
// n has exactly key_bits bits at every seed.
TEST(PaillierKeyGenTest, ModulusHasExactlyKeyBits) {
  const std::pair<size_t, int> kSizes[] = {{64, 200}, {128, 200}, {512, 3},
                                           {1024, 2}};
  for (const auto& [bits, seeds] : kSizes) {
    for (int seed = 0; seed < seeds; ++seed) {
      SCOPED_TRACE(std::to_string(bits) + "-bit key, seed " +
                   std::to_string(seed));
      Rng rng(9000 + seed);
      auto kp = PaillierKeyPair::Generate(bits, &rng);
      ASSERT_TRUE(kp.ok()) << kp.status().ToString();
      EXPECT_EQ(kp->pub.key_bits(), bits);
      EXPECT_NE(kp->priv.p_squared(), kp->priv.q_squared());  // p != q
      EXPECT_EQ(kp->priv.p_squared() * kp->priv.q_squared(),
                kp->pub.n_squared());
      const BigInt m = BigInt::RandomBelow(kp->pub.n(), &rng);
      EXPECT_EQ(kp->priv.Decrypt(kp->pub.Encrypt(m, &rng)), m);
    }
  }
}

// p and q are searched from seeds of their own, across a pool of two
// threads or more: the key depends on the seed alone.
TEST(PaillierKeyGenTest, KeyDoesNotDependOnThePool) {
  ThreadPool one(1), two(2), four(4);
  for (size_t bits : {128u, 256u, 512u}) {
    for (uint64_t seed : {1u, 2u, 3u}) {
      SCOPED_TRACE(std::to_string(bits) + "-bit key, seed " +
                   std::to_string(seed));
      Rng rng(seed);
      auto want = PaillierKeyPair::Generate(bits, &rng);
      ASSERT_TRUE(want.ok());
      for (ThreadPool* pool : {&one, &two, &four}) {
        Rng pooled_rng(seed);
        auto got = PaillierKeyPair::Generate(bits, &pooled_rng, pool);
        ASSERT_TRUE(got.ok());
        EXPECT_EQ(got->pub.n(), want->pub.n()) << pool->num_threads();
        EXPECT_EQ(got->priv.p_squared(), want->priv.p_squared());
        EXPECT_EQ(got->priv.q_squared(), want->priv.q_squared());
        // The caller's stream advances the same way too.
        EXPECT_EQ(pooled_rng.NextU64(), Rng(rng).NextU64());
      }
    }
  }
}

TEST_F(PaillierTest, EncryptDecryptRoundTrip) {
  for (uint64_t m : {0ULL, 1ULL, 42ULL, 123456789ULL, 0xffffffffffffULL}) {
    BigInt c = kp_.pub.Encrypt(BigInt(m), &rng_);
    EXPECT_EQ(kp_.priv.Decrypt(c), BigInt(m));
  }
}

TEST_F(PaillierTest, DecryptNearModulusBoundary) {
  const BigInt n = kp_.pub.n();
  for (const BigInt& m : {n - BigInt(1), n - BigInt(2), n >> 1}) {
    BigInt c = kp_.pub.Encrypt(m, &rng_);
    EXPECT_EQ(kp_.priv.Decrypt(c), m);
  }
}

TEST_F(PaillierTest, EncryptionIsProbabilistic) {
  BigInt c1 = kp_.pub.Encrypt(BigInt(7), &rng_);
  BigInt c2 = kp_.pub.Encrypt(BigInt(7), &rng_);
  EXPECT_NE(c1, c2);  // fresh nonce each time
  EXPECT_EQ(kp_.priv.Decrypt(c1), kp_.priv.Decrypt(c2));
}

TEST_F(PaillierTest, HomomorphicAddition) {
  Rng vrng(5);
  for (int i = 0; i < 10; ++i) {
    uint64_t a = vrng.NextBounded(1u << 30);
    uint64_t b = vrng.NextBounded(1u << 30);
    BigInt c = kp_.pub.HAdd(kp_.pub.Encrypt(BigInt(a), &rng_),
                            kp_.pub.Encrypt(BigInt(b), &rng_));
    EXPECT_EQ(kp_.priv.Decrypt(c), BigInt(a + b));
  }
}

TEST_F(PaillierTest, HomomorphicAdditionWrapsModN) {
  const BigInt n = kp_.pub.n();
  BigInt c = kp_.pub.HAdd(kp_.pub.Encrypt(n - BigInt(1), &rng_),
                          kp_.pub.Encrypt(BigInt(5), &rng_));
  EXPECT_EQ(kp_.priv.Decrypt(c), BigInt(4));
}

TEST_F(PaillierTest, ScalarMultiplication) {
  BigInt c = kp_.pub.Encrypt(BigInt(1234), &rng_);
  BigInt scaled = kp_.pub.SMul(BigInt(1000), c);
  EXPECT_EQ(kp_.priv.Decrypt(scaled), BigInt(1234000));
}

TEST_F(PaillierTest, UnobfuscatedEncryptDecrypts) {
  BigInt c = kp_.pub.EncryptUnobfuscated(BigInt(99));
  EXPECT_EQ(kp_.priv.Decrypt(c), BigInt(99));
}

TEST_F(PaillierTest, PublicKeySerializationRoundTrip) {
  ByteWriter w;
  kp_.pub.Serialize(&w);
  ByteReader r(w.data());
  auto pub = PaillierPublicKey::Deserialize(&r);
  ASSERT_TRUE(pub.ok());
  EXPECT_EQ(pub->n(), kp_.pub.n());
  // The deserialized key must produce ciphers the private key can open.
  BigInt c = pub->Encrypt(BigInt(77), &rng_);
  EXPECT_EQ(kp_.priv.Decrypt(c), BigInt(77));
}

TEST_F(PaillierTest, CorruptKeyRejected) {
  ByteWriter w;
  w.PutU64Vector({3});  // 2-bit "modulus"
  ByteReader r(w.data());
  EXPECT_FALSE(PaillierPublicKey::Deserialize(&r).ok());

  ByteWriter even;
  even.PutU64Vector({(uint64_t{1} << 36) | 0x2468});  // 37-bit even modulus
  ByteReader re(even.data());
  const auto key = PaillierPublicKey::Deserialize(&re);
  ASSERT_FALSE(key.ok());
  EXPECT_EQ(key.status().code(), StatusCode::kCorruption);
}

TEST(FixedPointTest, EncodeDecodeRoundTrip) {
  FixedPointCodec codec(16, 8, 4);
  BigInt n = (BigInt(1) << 192) + BigInt(1);
  for (double v : {0.0, 1.0, -1.0, 0.5, -0.5, 3.14159, -123.456, 1e-6, 1e6}) {
    for (int e = 8; e <= 11; ++e) {
      BigInt enc = codec.Encode(v, e, n);
      EXPECT_FALSE(enc.IsNegative());
      EXPECT_LT(enc, n);
      EXPECT_NEAR(codec.Decode(enc, e, n), v, std::fabs(v) * 1e-6 + 1e-8)
          << "v=" << v << " e=" << e;
    }
  }
}

TEST(FixedPointTest, HigherExponentIsFiner) {
  FixedPointCodec codec(16, 2, 8);
  BigInt n = (BigInt(1) << 128) + BigInt(1);
  const double v = 1.0 / 3.0;
  double err_low = std::fabs(codec.Decode(codec.Encode(v, 2, n), 2, n) - v);
  double err_high = std::fabs(codec.Decode(codec.Encode(v, 9, n), 9, n) - v);
  EXPECT_LT(err_high, err_low);
}

TEST(FixedPointTest, SampleExponentStaysInRange) {
  FixedPointCodec codec(16, 8, 4);
  Rng rng(3);
  bool seen[4] = {false, false, false, false};
  for (int i = 0; i < 200; ++i) {
    int e = codec.SampleExponent(&rng);
    ASSERT_GE(e, 8);
    ASSERT_LE(e, 11);
    seen[e - 8] = true;
  }
  for (bool s : seen) EXPECT_TRUE(s);  // all exponents occur
}

TEST(FixedPointTest, ScaleFactorIsBasePower) {
  FixedPointCodec codec(16, 0, 4);
  EXPECT_EQ(codec.ScaleFactor(0), BigInt(1));
  EXPECT_EQ(codec.ScaleFactor(3), BigInt(16 * 16 * 16));
}

class BackendParamTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    if (GetParam()) {
      Rng krng(999);
      auto kp = PaillierKeyPair::Generate(256, &krng);
      ASSERT_TRUE(kp.ok());
      auto pb = std::make_unique<PaillierBackend>(kp->pub, FixedPointCodec());
      pb->SetPrivateKey(kp->priv);
      backend_ = std::move(pb);
    } else {
      backend_ = std::make_unique<MockBackend>();
    }
  }

  std::unique_ptr<CipherBackend> backend_;
  Rng rng_{77};
};

TEST_P(BackendParamTest, EncryptDecryptDoubles) {
  for (double v : {0.0, 1.0, -1.0, 0.125, -2.75, 100.5, -0.001}) {
    Cipher c = backend_->Encrypt(v, &rng_);
    EXPECT_NEAR(backend_->Decrypt(c), v, 1e-6);
  }
}

TEST_P(BackendParamTest, HAddAlignsExponents) {
  Cipher a = backend_->EncryptAt(1.5, 8, &rng_);
  Cipher b = backend_->EncryptAt(2.25, 10, &rng_);
  size_t scalings = 0;
  Cipher sum = backend_->HAdd(a, b, &scalings);
  EXPECT_EQ(scalings, 1u);
  EXPECT_EQ(sum.exponent, 10);
  EXPECT_NEAR(backend_->Decrypt(sum), 3.75, 1e-6);
}

TEST_P(BackendParamTest, HAddSameExponentNeedsNoScaling) {
  Cipher a = backend_->EncryptAt(1.5, 9, &rng_);
  Cipher b = backend_->EncryptAt(-0.5, 9, &rng_);
  size_t scalings = 0;
  Cipher sum = backend_->HAdd(a, b, &scalings);
  EXPECT_EQ(scalings, 0u);
  EXPECT_NEAR(backend_->Decrypt(sum), 1.0, 1e-6);
}

TEST_P(BackendParamTest, ScaleToPreservesValue) {
  Cipher c = backend_->EncryptAt(-3.5, 8, &rng_);
  Cipher scaled = backend_->ScaleTo(c, 11);
  EXPECT_EQ(scaled.exponent, 11);
  EXPECT_NEAR(backend_->Decrypt(scaled), -3.5, 1e-6);
}

TEST_P(BackendParamTest, NegativeSumsStayCorrect) {
  // Gradient-like workload: sum of positive and negative values.
  Rng vrng(13);
  double expect = 0;
  Cipher sum = backend_->EncryptAt(0.0, 10, &rng_);
  for (int i = 0; i < 20; ++i) {
    double g = vrng.NextGaussian();
    expect += g;
    sum = backend_->HAdd(sum, backend_->EncryptAt(g, 10, &rng_), nullptr);
  }
  EXPECT_NEAR(backend_->Decrypt(sum), expect, 1e-4);
}

TEST_P(BackendParamTest, CipherSerializationRoundTrip) {
  Cipher c = backend_->Encrypt(-1.25, &rng_);
  ByteWriter w;
  backend_->SerializeCipher(c, &w);
  ByteReader r(w.data());
  Cipher back;
  ASSERT_TRUE(backend_->DeserializeCipher(&r, &back).ok());
  EXPECT_EQ(back.exponent, c.exponent);
  EXPECT_EQ(back.data, c.data);
  EXPECT_NEAR(backend_->Decrypt(back), -1.25, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(MockAndPaillier, BackendParamTest,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Paillier" : "Mock";
                         });

TEST(BackendTest, MockIsDeclaredMock) {
  MockBackend mock;
  EXPECT_TRUE(mock.is_mock());
  EXPECT_TRUE(mock.can_decrypt());
  EXPECT_EQ(mock.CipherBytes(), 16u);
}

TEST(BackendTest, PaillierWithoutPrivateKeyCannotDecrypt) {
  Rng rng(31);
  auto kp = PaillierKeyPair::Generate(128, &rng);
  ASSERT_TRUE(kp.ok());
  PaillierBackend party_a(kp->pub, FixedPointCodec());
  EXPECT_FALSE(party_a.can_decrypt());
  EXPECT_FALSE(party_a.is_mock());
  // Party A can still do everything the protocol requires of it.
  Cipher c = party_a.Encrypt(2.5, &rng);
  Cipher sum = party_a.HAdd(c, party_a.Encrypt(1.5, &rng), nullptr);
  PaillierBackend party_b(kp->pub, FixedPointCodec());
  party_b.SetPrivateKey(kp->priv);
  EXPECT_NEAR(party_b.Decrypt(sum), 4.0, 1e-6);
}

}  // namespace
}  // namespace vf2boost

// Tests for the crypto hot path: short-exponent obfuscation, the noise
// pre-compute pool, and batch CRT decryption. A textbook full-exponent
// encryption, built here from the public bigint API, is the oracle the fast
// path must be plaintext-equivalent to.

#include <gtest/gtest.h>

#include <atomic>
#include <latch>
#include <memory>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/threadpool.h"
#include "crypto/backend.h"
#include "crypto/noise_pool.h"
#include "bigint/modarith.h"
#include "crypto/paillier.h"

namespace vf2boost {
namespace {

// Legacy full-exponent obfuscation: (1 + m*n) * r^n mod n^2 for r uniform in
// Z_n^*; ~5-20x slower than Encrypt.
BigInt EncryptLegacy(const PaillierPublicKey& pub, const BigInt& m,
                     Rng* rng) {
  const BigInt& n = pub.n();
  const BigInt n2 = n * n;
  const BigInt r = BigInt::RandomBelow(n - BigInt(1), rng) + BigInt(1);
  const BigInt rn = ModExp(r, n, n2);
  const BigInt gm = Mod(BigInt(1) + m * n, n2);
  return Mod(gm * rn, n2);
}

class CryptoFastPathTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng krng(4242);
    auto kp = PaillierKeyPair::Generate(256, &krng);
    ASSERT_TRUE(kp.ok()) << kp.status().ToString();
    kp_ = std::move(kp).value();
  }

  PaillierKeyPair kp_;
  Rng rng_{77};
};

// The concurrent cases run on a 1024-bit key, whose rings reach a vector
// Montgomery kernel (n^2: 32 limbs; CRT: 16 limbs), so TSan sees the
// kernels' thread-local scratch shared by pool workers and consumers.
const PaillierKeyPair& WideKey() {
  static const PaillierKeyPair kp = [] {
    Rng krng(4243);
    auto generated = PaillierKeyPair::Generate(1024, &krng);
    VF2_CHECK(generated.ok()) << generated.status().ToString();
    return std::move(generated).value();
  }();
  return kp;
}

class CryptoFastPathWideKeyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (CpuHasAvx2() || CpuHasIfma()) {
      EXPECT_NE(MontKernelFor(kp_.pub.n_squared().limbs().size()),
                MontKernel::kScalar);
    }
  }

  const PaillierKeyPair& kp_ = WideKey();
  Rng rng_{77};
};

TEST_F(CryptoFastPathTest, ShortExponentDecryptsLikeLegacy) {
  for (int i = 0; i < 50; ++i) {
    const BigInt m = BigInt::RandomBelow(kp_.pub.n(), &rng_);
    const BigInt fast = kp_.pub.Encrypt(m, &rng_);
    const BigInt legacy = EncryptLegacy(kp_.pub, m, &rng_);
    EXPECT_NE(fast, legacy) << "distinct nonces must yield distinct ciphers";
    EXPECT_EQ(kp_.priv.Decrypt(fast), m);
    EXPECT_EQ(kp_.priv.Decrypt(legacy), m);
  }
}

TEST_F(CryptoFastPathTest, FastAndLegacyCiphersInteroperateHomomorphically) {
  const BigInt a(123456789), b(987654321);
  const BigInt sum = kp_.pub.HAdd(kp_.pub.Encrypt(a, &rng_),
                                  EncryptLegacy(kp_.pub, b, &rng_));
  EXPECT_EQ(kp_.priv.Decrypt(sum), a + b);
}

TEST_F(CryptoFastPathTest, NoncesAreUnitsAndDistinct) {
  // A nonce must be an n-th power and invertible mod n^2; distinct draws
  // must differ (a repeat would link ciphertexts).
  const BigInt n1 = kp_.pub.MakeNonce(&rng_);
  const BigInt n2 = kp_.pub.MakeNonce(&rng_);
  EXPECT_NE(n1, n2);
  // Dec(E(m; nonce)) == m proves the n-th-power property.
  const BigInt m(424242);
  const BigInt c1 = kp_.pub.EncryptWithNonce(m, n1);
  const BigInt c2 = kp_.pub.EncryptWithNonce(m, n2);
  EXPECT_NE(c1, c2);
  EXPECT_EQ(kp_.priv.Decrypt(c1), m);
  EXPECT_EQ(kp_.priv.Decrypt(c2), m);
}

TEST_F(CryptoFastPathTest, DeserializedKeyMakesCompatibleCiphers) {
  // The obfuscation base is derived deterministically from n, so a key
  // rebuilt from the wire must produce ciphers the private key accepts.
  ByteWriter w;
  kp_.pub.Serialize(&w);
  auto bytes = w.Release();
  ByteReader r(bytes);
  auto pub2 = PaillierPublicKey::Deserialize(&r);
  ASSERT_TRUE(pub2.ok());
  const BigInt m(31337);
  EXPECT_EQ(kp_.priv.Decrypt(pub2->Encrypt(m, &rng_)), m);
}

TEST_F(CryptoFastPathWideKeyTest, NoisePoolRoundTripConcurrent) {
  // The producer against concurrent consumers: every nonce taken from the
  // pool must decrypt its cipher correctly, and the producer must make
  // exactly the nonces the misses left to it.
  constexpr int kConsumers = 4;
  constexpr int kPerConsumer = 50;
  NoisePool pool(kp_.pub, /*capacity=*/64, /*seed=*/99);
  pool.AddDemand(kConsumers * kPerConsumer);
  std::atomic<int> failures{0};
  std::vector<std::thread> consumers;
  for (int t = 0; t < kConsumers; ++t) {
    consumers.emplace_back([&, t] {
      Rng rng(1000 + t);
      for (int i = 0; i < kPerConsumer; ++i) {
        const BigInt m = BigInt::RandomBelow(kp_.pub.n(), &rng);
        const BigInt c = kp_.pub.EncryptWithNonce(m, pool.Take());
        if (kp_.priv.Decrypt(c) != m) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : consumers) t.join();
  EXPECT_EQ(failures.load(), 0);
  const NoisePool::Stats stats = pool.stats();
  EXPECT_EQ(stats.hits + stats.misses, kConsumers * kPerConsumer);
  EXPECT_EQ(stats.produced + stats.misses, kConsumers * kPerConsumer);
  EXPECT_EQ(pool.fill(), 0u);
}

TEST_F(CryptoFastPathTest, NoisePoolWithoutDemandFallsBackInline) {
  NoisePool pool(kp_.pub, /*capacity=*/8, /*seed=*/5);
  const BigInt m(777);
  const BigInt c = kp_.pub.EncryptWithNonce(m, pool.Take());
  EXPECT_EQ(kp_.priv.Decrypt(c), m);
  const NoisePool::Stats stats = pool.stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.produced, 0u);
}

TEST_F(CryptoFastPathTest, PoolMissesLeaveTheCallersExponentStreamAlone) {
  // A miss must not draw from the caller's rng: that rng also samples the
  // codec exponents, so a timing-dependent miss count would change them.
  PaillierBackend backend(kp_.pub, FixedPointCodec(16, 8, 4));
  backend.SetPrivateKey(kp_.priv);
  backend.SetNoisePool(std::make_shared<NoisePool>(kp_.pub, 8, 3));
  Rng used(21), expected(21);
  for (int i = 0; i < 16; ++i) {
    const Cipher c = backend.Encrypt(0.5, &used);
    EXPECT_EQ(c.exponent, backend.codec().SampleExponent(&expected)) << i;
    EXPECT_NEAR(backend.Decrypt(c), 0.5, 1e-6);
  }
  EXPECT_EQ(backend.noise_pool()->stats().misses, 16u);
}

TEST_F(CryptoFastPathTest, PooledBackendEncryptionDecrypts) {
  PaillierBackend backend(kp_.pub, FixedPointCodec());
  backend.SetPrivateKey(kp_.priv);
  auto pool = std::make_shared<NoisePool>(kp_.pub, 32, 7);
  pool->AddDemand(20);
  backend.SetNoisePool(pool);
  for (int i = 0; i < 20; ++i) {
    const double v = (i - 10) * 0.375;
    EXPECT_NEAR(backend.Decrypt(backend.Encrypt(v, &rng_)), v, 1e-6);
  }
  const NoisePool::Stats stats = pool->stats();
  EXPECT_EQ(stats.hits + stats.misses, 20u);
  EXPECT_EQ(stats.produced + stats.misses, 20u);
}

TEST_F(CryptoFastPathWideKeyTest, ConcurrentFirstNoncesBuildOneTable) {
  // A key fresh off the wire has no nonce table yet: four threads encrypt
  // at once, so the first MakeNonce calls race to build it. Each must get
  // the keyholder's nonces (same h_s, same table) and decryptable ciphers.
  ByteWriter w;
  kp_.pub.Serialize(&w);
  const std::vector<uint8_t> bytes = w.Release();
  ByteReader r(bytes);
  auto fresh = PaillierPublicKey::Deserialize(&r);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  constexpr int kThreads = 4;
  constexpr int kPerThread = 3;
  std::vector<std::vector<BigInt>> plain(kThreads), ciphers(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(500 + t);
      start.arrive_and_wait();
      for (int i = 0; i < kPerThread; ++i) {
        plain[t].push_back(BigInt::RandomBelow(fresh->n(), &rng));
        ciphers[t].push_back(fresh->Encrypt(plain[t].back(), &rng));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t) {
    Rng rng(500 + t);
    for (int i = 0; i < kPerThread; ++i) {
      const BigInt m = BigInt::RandomBelow(kp_.pub.n(), &rng);
      EXPECT_EQ(ciphers[t][i], kp_.pub.Encrypt(m, &rng)) << t << "/" << i;
      EXPECT_EQ(kp_.priv.Decrypt(ciphers[t][i]), plain[t][i]) << t << "/" << i;
    }
  }
}

TEST_F(CryptoFastPathWideKeyTest, DecryptBatchMatchesSerial) {
  ThreadPool pool(4);
  std::vector<BigInt> plain, ciphers;
  for (int i = 0; i < 33; ++i) {
    plain.push_back(BigInt::RandomBelow(kp_.pub.n(), &rng_));
    ciphers.push_back(kp_.pub.Encrypt(plain.back(), &rng_));
  }
  const std::vector<BigInt> parallel = kp_.priv.DecryptBatch(ciphers, &pool);
  const std::vector<BigInt> serial = kp_.priv.DecryptBatch(ciphers, nullptr);
  ASSERT_EQ(parallel.size(), plain.size());
  for (size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(parallel[i], plain[i]);
    EXPECT_EQ(serial[i], plain[i]);
  }
}

// DecryptBatch runs ciphers 2j and 2j+1 on one Pow2 chain per CRT half and
// an odd last cipher alone: batches of every parity equal Decrypt cipher by
// cipher with no pool, a 1-thread and a 2-thread pool. Cipher 3 repeats
// cipher 2, so one pair is a cipher twice; cipher 5 is 1, below p^2, and
// cipher 6 is an unreduced wire cipher at or above n^2, which the chain
// reduces first (paired in the 160-batch, alone in the 7-batch).
TEST_F(CryptoFastPathWideKeyTest, DecryptBatchPairsMatchDecrypt) {
  ThreadPool one(1), two(2);
  std::vector<BigInt> plain, ciphers;
  for (int i = 0; i < 160; ++i) {
    plain.push_back(BigInt::RandomBelow(kp_.pub.n(), &rng_));
    ciphers.push_back(kp_.pub.Encrypt(plain.back(), &rng_));
  }
  plain[3] = plain[2];
  ciphers[3] = ciphers[2];
  plain[5] = BigInt(0);
  ciphers[5] = kp_.pub.EncryptUnobfuscated(BigInt(0));
  ASSERT_LT(ciphers[5].Compare(kp_.priv.p_squared()), 0);
  ciphers[6] += kp_.pub.n_squared();
  std::vector<BigInt> expected;
  for (size_t i = 0; i < ciphers.size(); ++i) {
    expected.push_back(kp_.priv.Decrypt(ciphers[i]));
    ASSERT_EQ(expected[i], plain[i]) << i;
  }
  for (size_t size : {0u, 1u, 2u, 3u, 7u, 160u}) {
    const std::vector<BigInt> batch(ciphers.begin(), ciphers.begin() + size);
    for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &one, &two}) {
      const size_t threads = pool == nullptr ? 0 : pool->num_threads();
      const std::vector<BigInt> out = kp_.priv.DecryptBatch(batch, pool);
      ASSERT_EQ(out.size(), size) << threads << " threads";
      for (size_t i = 0; i < size; ++i) {
        EXPECT_EQ(out[i], expected[i])
            << size << " ciphers, cipher " << i << ", " << threads
            << " threads";
      }
    }
  }
}

TEST_F(CryptoFastPathWideKeyTest, BackendDecryptRawBatchMatchesDecrypt) {
  ThreadPool tp(3);
  PaillierBackend backend(kp_.pub, FixedPointCodec());
  backend.SetPrivateKey(kp_.priv);
  std::vector<Cipher> cs;
  std::vector<BigInt> raw;
  std::vector<double> expected;
  for (int i = 0; i < 17; ++i) {
    const double v = (i - 8) * 1.25;
    cs.push_back(backend.Encrypt(v, &rng_));
    raw.push_back(cs.back().data);
    expected.push_back(v);
  }
  const std::vector<BigInt> batch = backend.DecryptRawBatch(raw, &tp);
  ASSERT_EQ(batch.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    const double decoded = backend.codec().Decode(
        batch[i], cs[i].exponent, backend.plain_modulus());
    EXPECT_NEAR(decoded, expected[i], 1e-6);
    EXPECT_EQ(decoded, backend.Decrypt(cs[i]));
  }
}

}  // namespace
}  // namespace vf2boost

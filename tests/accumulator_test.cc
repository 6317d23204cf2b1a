#include "crypto/accumulator.h"

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bigint/modarith.h"
#include "common/bytes.h"
#include "crypto/paillier.h"

namespace vf2boost {
namespace {

// The accumulators are backend-agnostic; run every test against both the
// mock ring and real Paillier.
class AccumulatorTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    codec_ = FixedPointCodec(16, 4, 4);  // E = 4 distinct exponents
    if (GetParam()) {
      Rng krng(555);
      auto kp = PaillierKeyPair::Generate(256, &krng);
      ASSERT_TRUE(kp.ok());
      auto pb = std::make_unique<PaillierBackend>(kp->pub, codec_);
      pb->SetPrivateKey(kp->priv);
      backend_ = std::move(pb);
    } else {
      backend_ = std::make_unique<MockBackend>(codec_);
    }
  }

  std::vector<Cipher> MakeStream(int n, std::vector<double>* values) {
    std::vector<Cipher> out;
    Rng vrng(42);
    for (int i = 0; i < n; ++i) {
      const double v = vrng.NextGaussian();
      values->push_back(v);
      out.push_back(backend_->Encrypt(v, &rng_));  // random exponent
    }
    return out;
  }

  FixedPointCodec codec_{16, 4, 4};
  std::unique_ptr<CipherBackend> backend_;
  Rng rng_{7};
};

TEST_P(AccumulatorTest, BothStrategiesComputeTheSameSum) {
  std::vector<double> values;
  std::vector<Cipher> stream = MakeStream(GetParam() ? 40 : 400, &values);
  double expect = 0;
  for (double v : values) expect += v;

  AccumulatorStats naive_stats, reordered_stats;
  Cipher naive = SumCiphers(stream, *backend_, /*reordered=*/false,
                            &naive_stats);
  Cipher reordered = SumCiphers(stream, *backend_, /*reordered=*/true,
                                &reordered_stats);
  EXPECT_NEAR(backend_->Decrypt(naive), expect, 1e-3);
  EXPECT_NEAR(backend_->Decrypt(reordered), expect, 1e-3);
}

TEST_P(AccumulatorTest, ReorderedNeedsAtMostEMinusOneScalings) {
  std::vector<double> values;
  std::vector<Cipher> stream = MakeStream(GetParam() ? 40 : 400, &values);

  AccumulatorStats naive_stats, reordered_stats;
  SumCiphers(stream, *backend_, false, &naive_stats);
  SumCiphers(stream, *backend_, true, &reordered_stats);

  const size_t e = static_cast<size_t>(codec_.num_exponents());
  EXPECT_LE(reordered_stats.scalings, e - 1);
  // Naive accumulation pays O(N * (E-1)/E) scalings: vastly more.
  EXPECT_GT(naive_stats.scalings, stream.size() / 2);
}

TEST_P(AccumulatorTest, EmptyAccumulatorYieldsZero) {
  NaiveCipherAccumulator naive(backend_.get());
  ReorderedCipherAccumulator reordered(backend_.get());
  EXPECT_NEAR(backend_->Decrypt(naive.Finalize()), 0.0, 1e-9);
  EXPECT_NEAR(backend_->Decrypt(reordered.Finalize()), 0.0, 1e-9);
}

TEST_P(AccumulatorTest, SingleCipherPassesThrough) {
  Cipher c = backend_->EncryptAt(2.5, 5, &rng_);
  NaiveCipherAccumulator naive(backend_.get());
  naive.Add(c);
  EXPECT_NEAR(backend_->Decrypt(naive.Finalize()), 2.5, 1e-6);
  EXPECT_EQ(naive.stats().scalings, 0u);

  ReorderedCipherAccumulator reordered(backend_.get());
  reordered.Add(c);
  EXPECT_NEAR(backend_->Decrypt(reordered.Finalize()), 2.5, 1e-6);
  EXPECT_EQ(reordered.stats().scalings, 0u);
}

TEST_P(AccumulatorTest, UniformExponentStreamNeedsZeroScalings) {
  // When every cipher shares one exponent, even the naive strategy pays no
  // scalings — the cost comes only from exponent diversity.
  std::vector<Cipher> stream;
  double expect = 0;
  for (int i = 0; i < 30; ++i) {
    stream.push_back(backend_->EncryptAt(0.5, 6, &rng_));
    expect += 0.5;
  }
  AccumulatorStats naive_stats, reordered_stats;
  Cipher a = SumCiphers(stream, *backend_, false, &naive_stats);
  Cipher b = SumCiphers(stream, *backend_, true, &reordered_stats);
  EXPECT_EQ(naive_stats.scalings, 0u);
  EXPECT_EQ(reordered_stats.scalings, 0u);
  EXPECT_NEAR(backend_->Decrypt(a), expect, 1e-6);
  EXPECT_NEAR(backend_->Decrypt(b), expect, 1e-6);
}

TEST_P(AccumulatorTest, FinalExponentIsMaxSeen) {
  std::vector<Cipher> stream = {backend_->EncryptAt(1.0, 4, &rng_),
                                backend_->EncryptAt(1.0, 6, &rng_),
                                backend_->EncryptAt(1.0, 5, &rng_)};
  Cipher naive = SumCiphers(stream, *backend_, false, nullptr);
  Cipher reordered = SumCiphers(stream, *backend_, true, nullptr);
  EXPECT_EQ(naive.exponent, 6);
  EXPECT_EQ(reordered.exponent, 6);
}

INSTANTIATE_TEST_SUITE_P(MockAndPaillier, AccumulatorTest,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Paillier" : "Mock";
                         });

// Exact oracle for the lazy Montgomery product: with real Paillier, each
// strategy's sum must be the residue a sequential Mod(acc * c, n^2) fold
// yields, byte for byte. Decrypting to the same value is not enough: the
// wire bytes must not change, and a result off by an n-th power residue
// still decrypts right. Scalings in the oracle are plain ModExp by B^diff.
class AccumulatorOracleTest : public ::testing::TestWithParam<size_t> {
 protected:
  void SetUp() override {
    Rng krng(900 + GetParam());
    auto kp = PaillierKeyPair::Generate(GetParam(), &krng);
    ASSERT_TRUE(kp.ok());
    backend_ = std::make_unique<PaillierBackend>(kp->pub, codec_);
    n2_ = kp->pub.n_squared();
  }

  Cipher Enc(int exponent) {
    return backend_->EncryptAt(rng_.NextGaussian(), exponent, &rng_);
  }
  // The same residue, as a wire cipher that was never reduced mod n^2.
  Cipher Unreduced(Cipher c) const {
    c.data = c.data + n2_;
    return c;
  }
  BigInt Scale(const BigInt& c, int from, int to) const {
    return ModExp(c, codec_.ScaleFactor(to - from), n2_);
  }
  std::vector<uint8_t> Bytes(const Cipher& c) const {
    ByteWriter w;
    backend_->SerializeCipher(c, &w);
    return w.Release();
  }

  // Arrival-order fold, rescaling on every exponent mismatch.
  Cipher NaiveOracle(const std::vector<Cipher>& cs) const {
    Cipher acc{Mod(cs[0].data, n2_), cs[0].exponent};
    for (size_t i = 1; i < cs.size(); ++i) {
      const Cipher& c = cs[i];
      if (c.exponent == acc.exponent) {
        acc.data = Mod(acc.data * c.data, n2_);
      } else if (c.exponent < acc.exponent) {
        acc.data = Mod(acc.data * Scale(c.data, c.exponent, acc.exponent), n2_);
      } else {
        acc.data = Mod(Scale(acc.data, acc.exponent, c.exponent) * c.data, n2_);
        acc.exponent = c.exponent;
      }
    }
    return acc;
  }

  // One fold per exponent, merged from the highest exponent down.
  Cipher ReorderedOracle(const std::vector<Cipher>& cs) const {
    std::map<int, BigInt, std::greater<int>> per_exponent;
    for (const Cipher& c : cs) {
      auto it = per_exponent.find(c.exponent);
      if (it == per_exponent.end()) {
        per_exponent.emplace(c.exponent, Mod(c.data, n2_));
      } else {
        it->second = Mod(it->second * c.data, n2_);
      }
    }
    const int top = per_exponent.begin()->first;
    Cipher sum{per_exponent.begin()->second, top};
    for (auto it = std::next(per_exponent.begin()); it != per_exponent.end();
         ++it) {
      sum.data = Mod(sum.data * Scale(it->second, it->first, top), n2_);
    }
    return sum;
  }

  FixedPointCodec codec_{16, 4, 4};
  std::unique_ptr<PaillierBackend> backend_;
  BigInt n2_;
  Rng rng_{31};
};

TEST_P(AccumulatorOracleTest, SameExponentSumsMatchTheModFold) {
  std::vector<Cipher> pool;
  for (int i = 0; i < 257; ++i) pool.push_back(Enc(5));
  for (size_t count : {1, 2, 3, 4, 5, 8, 9, 63, 64, 65, 257}) {
    std::vector<Cipher> stream(pool.begin(), pool.begin() + count);
    // Unreduced inputs on both the load (first) and the fold (last) path.
    stream.front() = Unreduced(stream.front());
    stream.back() = Unreduced(stream.back());
    const std::vector<uint8_t> expect = Bytes(NaiveOracle(stream));
    for (bool reordered : {false, true}) {
      AccumulatorStats stats;
      const Cipher sum = SumCiphers(stream, *backend_, reordered, &stats);
      EXPECT_EQ(Bytes(sum), expect)
          << "count=" << count << " reordered=" << reordered;
      EXPECT_EQ(stats.hadds, count - 1);
      EXPECT_EQ(stats.scalings, 0u);
    }
  }
}

TEST_P(AccumulatorOracleTest, MixedExponentSumsMatchTheModFold) {
  // Runs of several ciphers per exponent, so the naive running sum holds
  // many ciphers each time it is materialized and scaled up (ascending),
  // and every lower cipher is scaled into a long-lived product
  // (descending). The random order mixes both branches.
  const std::vector<std::pair<int, int>> runs = {
      {4, 5}, {5, 9}, {6, 3}, {7, 64}};
  std::vector<Cipher> ascending;
  for (const auto& [exponent, count] : runs) {
    for (int i = 0; i < count; ++i) ascending.push_back(Enc(exponent));
  }
  std::vector<Cipher> descending(ascending.rbegin(), ascending.rend());
  std::vector<Cipher> random;
  for (int i = 0; i < 65; ++i) random.push_back(backend_->Encrypt(0.5, &rng_));
  for (auto* stream : {&ascending, &descending, &random}) {
    (*stream)[stream->size() / 2] = Unreduced((*stream)[stream->size() / 2]);
    const char* order = stream == &ascending    ? "ascending"
                        : stream == &descending ? "descending"
                                                : "random";
    EXPECT_EQ(Bytes(SumCiphers(*stream, *backend_, false)),
              Bytes(NaiveOracle(*stream)))
        << order;
    EXPECT_EQ(Bytes(SumCiphers(*stream, *backend_, true)),
              Bytes(ReorderedOracle(*stream)))
        << order;
  }
}

INSTANTIATE_TEST_SUITE_P(KeyBits, AccumulatorOracleTest,
                         ::testing::Values(256, 1024),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return "Key" + std::to_string(info.param);
                         });

TEST(AccumulatorDeathTest, OutOfRangeExponentIsRejected) {
  MockBackend backend(FixedPointCodec(16, 4, 2));
  ReorderedCipherAccumulator acc(&backend);
  Cipher bad;
  bad.exponent = 99;
  bad.data = BigInt(1);
  EXPECT_DEATH(acc.Add(bad), "outside codec range");
}

}  // namespace
}  // namespace vf2boost

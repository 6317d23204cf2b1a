#include "fed/enc_histogram.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <numeric>
#include <utility>

#include "data/synthetic.h"
#include "gbdt/loss.h"

namespace vf2boost {
namespace {

class EncHistogramTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    codec_ = FixedPointCodec(16, 6, 4);
    if (GetParam()) {
      Rng krng(31337);
      auto kp = PaillierKeyPair::Generate(512, &krng);
      ASSERT_TRUE(kp.ok());
      auto pb = std::make_unique<PaillierBackend>(kp->pub, codec_);
      pb->SetPrivateKey(kp->priv);
      backend_ = std::move(pb);
    } else {
      backend_ = std::make_unique<MockBackend>(codec_);
    }

    SyntheticSpec spec;
    spec.rows = GetParam() ? 60 : 400;
    spec.cols = 6;
    spec.density = 0.5;
    spec.seed = 404;
    data_ = GenerateSynthetic(spec);
    cuts_ = ComputeBinCuts(data_.features, 6);
    binned_ = BinnedMatrix::FromCsr(data_.features, cuts_);
    layout_ = FeatureLayout::FromCuts(cuts_);

    // Logistic-like gradient pairs and their ciphers.
    Rng vrng(5);
    grads_.resize(data_.rows());
    for (auto& gp : grads_) {
      gp.g = vrng.NextDouble() * 2 - 1;  // in [-1, 1]
      gp.h = vrng.NextDouble() * 0.25;
    }
    Rng enc_rng(6);
    for (const GradPair& gp : grads_) {
      g_ciphers_.push_back(backend_->Encrypt(gp.g, &enc_rng));
      h_ciphers_.push_back(backend_->Encrypt(gp.h, &enc_rng));
    }
    instances_.resize(data_.rows());
    std::iota(instances_.begin(), instances_.end(), 0);
  }

  Histogram PlainReference() const {
    return Histogram::Build(binned_, layout_, instances_, grads_);
  }

  // One [count|g|h] cipher per instance.
  std::vector<Cipher> EncryptGh(const GhPackLayout& gh_layout) const {
    Rng enc_rng(60);
    std::vector<Cipher> gh_ciphers;
    for (const GradPair& gp : grads_) {
      Cipher c;
      c.exponent = gh_layout.exponent;
      c.data = backend_->EncryptRaw(EncodeGhPair(gh_layout, gp.g, gp.h),
                                    &enc_rng);
      gh_ciphers.push_back(std::move(c));
    }
    return gh_ciphers;
  }

  // Root histograms of both packing paths, plus the gh layout.
  struct PackInputs {
    EncryptedHistogram classic;
    EncryptedHistogram gh;
    GhPackLayout gh_layout;
  };
  PackInputs MakePackInputs() const {
    PackInputs in;
    in.classic = BuildEncryptedHistogramParallel(
        binned_, layout_, instances_, g_ciphers_, h_ciphers_, *backend_,
        /*reordered=*/true, nullptr, /*pool=*/nullptr);
    auto gh_layout =
        MakeGhPackLayout(codec_, data_.rows(), /*value_bound=*/1.0,
                         backend_->plain_modulus().BitLength());
    EXPECT_TRUE(gh_layout.ok()) << gh_layout.status().ToString();
    in.gh_layout = gh_layout.value();
    in.gh = BuildEncryptedHistogramGhParallel(
        binned_, layout_, instances_, EncryptGh(in.gh_layout), *backend_,
        /*reordered=*/true, nullptr, /*pool=*/nullptr);
    return in;
  }

  FixedPointCodec codec_{16, 6, 4};
  std::unique_ptr<CipherBackend> backend_;
  Dataset data_;
  BinCuts cuts_;
  BinnedMatrix binned_;
  FeatureLayout layout_;
  std::vector<GradPair> grads_;
  std::vector<Cipher> g_ciphers_, h_ciphers_;
  std::vector<uint32_t> instances_;
};

TEST_P(EncHistogramTest, MatchesPlaintextHistogram) {
  for (bool reordered : {false, true}) {
    AccumulatorStats stats;
    EncryptedHistogram enc = BuildEncryptedHistogramParallel(
        binned_, layout_, instances_, g_ciphers_, h_ciphers_, *backend_,
        reordered, &stats, /*pool=*/nullptr);
    size_t decryptions = 0;
    auto hist = DecryptRawHistogram(enc.g_bins, enc.h_bins, layout_,
                                    *backend_, &decryptions);
    ASSERT_TRUE(hist.ok());
    EXPECT_EQ(decryptions, 2 * layout_.total_bins());
    Histogram ref = PlainReference();
    for (size_t i = 0; i < layout_.total_bins(); ++i) {
      EXPECT_NEAR(hist->bin(i).g, ref.bin(i).g, 1e-4) << "bin " << i;
      EXPECT_NEAR(hist->bin(i).h, ref.bin(i).h, 1e-4) << "bin " << i;
    }
  }
}

TEST_P(EncHistogramTest, ReorderedCutsScalings) {
  AccumulatorStats naive_stats, reordered_stats;
  BuildEncryptedHistogramParallel(binned_, layout_, instances_, g_ciphers_,
                                  h_ciphers_, *backend_, false, &naive_stats,
                                  /*pool=*/nullptr);
  BuildEncryptedHistogramParallel(binned_, layout_, instances_, g_ciphers_,
                                  h_ciphers_, *backend_, true,
                                  &reordered_stats, /*pool=*/nullptr);
  // Re-ordered: at most E-1 scalings per bin per statistic.
  const size_t e = static_cast<size_t>(codec_.num_exponents());
  EXPECT_LE(reordered_stats.scalings, 2 * layout_.total_bins() * (e - 1));
  EXPECT_LT(reordered_stats.scalings, naive_stats.scalings);
  EXPECT_EQ(reordered_stats.hadds, naive_stats.hadds);
}

TEST_P(EncHistogramTest, PackedRoundTripMatchesRaw) {
  EncryptedHistogram enc = BuildEncryptedHistogramParallel(
      binned_, layout_, instances_, g_ciphers_, h_ciphers_, *backend_,
      /*reordered=*/true, nullptr, /*pool=*/nullptr);
  AccumulatorStats pack_stats;
  auto packed = PackHistogram(enc, layout_, data_.rows(),
                              /*grad_bound=*/1.0, *backend_, &pack_stats);
  ASSERT_TRUE(packed.ok()) << packed.status().ToString();

  size_t packed_decryptions = 0;
  auto packed_hist = DecryptPackedHistogram(packed.value(), layout_,
                                            *backend_, &packed_decryptions);
  ASSERT_TRUE(packed_hist.ok()) << packed_hist.status().ToString();

  size_t raw_decryptions = 0;
  auto raw_hist = DecryptRawHistogram(enc.g_bins, enc.h_bins, layout_,
                                      *backend_, &raw_decryptions);
  ASSERT_TRUE(raw_hist.ok());

  // The whole point: far fewer decryptions.
  EXPECT_LT(packed_decryptions, raw_decryptions / 2);
  for (size_t i = 0; i < layout_.total_bins(); ++i) {
    EXPECT_NEAR(packed_hist->bin(i).g, raw_hist->bin(i).g, 1e-3) << i;
    EXPECT_NEAR(packed_hist->bin(i).h, raw_hist->bin(i).h, 1e-3) << i;
  }
}

TEST_P(EncHistogramTest, SubsetOfInstances) {
  // Histogram over half the instances must match the plaintext restriction.
  std::vector<uint32_t> subset;
  for (size_t i = 0; i < instances_.size(); i += 2) subset.push_back(i);
  EncryptedHistogram enc = BuildEncryptedHistogramParallel(
      binned_, layout_, subset, g_ciphers_, h_ciphers_, *backend_, true,
      nullptr, /*pool=*/nullptr);
  auto hist =
      DecryptRawHistogram(enc.g_bins, enc.h_bins, layout_, *backend_, nullptr);
  ASSERT_TRUE(hist.ok());
  Histogram ref = Histogram::Build(binned_, layout_, subset, grads_);
  for (size_t i = 0; i < layout_.total_bins(); ++i) {
    EXPECT_NEAR(hist->bin(i).g, ref.bin(i).g, 1e-4);
  }
}

TEST_P(EncHistogramTest, GhModeMatchesClassicAndPlaintext) {
  // gh mode: one [count|g|h] cipher per instance, one accumulator per bin.
  auto gh_layout = MakeGhPackLayout(codec_, data_.rows(), /*value_bound=*/1.0,
                                    backend_->plain_modulus().BitLength());
  ASSERT_TRUE(gh_layout.ok()) << gh_layout.status().ToString();
  const std::vector<Cipher> gh_ciphers = EncryptGh(*gh_layout);

  AccumulatorStats gh_stats, classic_stats;
  EncryptedHistogram enc = BuildEncryptedHistogramGhParallel(
      binned_, layout_, instances_, gh_ciphers, *backend_, /*reordered=*/true,
      &gh_stats, /*pool=*/nullptr);
  BuildEncryptedHistogramParallel(binned_, layout_, instances_, g_ciphers_,
                                  h_ciphers_, *backend_, true, &classic_stats,
                                  /*pool=*/nullptr);
  // The tentpole accounting claim: half the homomorphic additions.
  EXPECT_EQ(2 * gh_stats.hadds, classic_stats.hadds);

  size_t raw_decryptions = 0;
  auto hist = DecryptRawGhHistogram(enc.gh_bins, layout_, *gh_layout,
                                    *backend_, &raw_decryptions);
  ASSERT_TRUE(hist.ok()) << hist.status().ToString();
  EXPECT_EQ(raw_decryptions, layout_.total_bins());
  Histogram ref = PlainReference();
  for (size_t i = 0; i < layout_.total_bins(); ++i) {
    EXPECT_NEAR(hist->bin(i).g, ref.bin(i).g, 1e-4) << "bin " << i;
    EXPECT_NEAR(hist->bin(i).h, ref.bin(i).h, 1e-4) << "bin " << i;
  }

  // Parallel build must accumulate to the same decrypted histogram.
  ThreadPool pool(3);
  EncryptedHistogram par = BuildEncryptedHistogramGhParallel(
      binned_, layout_, instances_, gh_ciphers, *backend_, true, nullptr,
      &pool);
  auto par_hist = DecryptRawGhHistogram(par.gh_bins, layout_, *gh_layout,
                                        *backend_, nullptr);
  ASSERT_TRUE(par_hist.ok());
  for (size_t i = 0; i < layout_.total_bins(); ++i) {
    EXPECT_NEAR(par_hist->bin(i).g, hist->bin(i).g, 1e-9) << "bin " << i;
    EXPECT_NEAR(par_hist->bin(i).h, hist->bin(i).h, 1e-9) << "bin " << i;
  }

  // §5.2 composition: packed prefix sums round-trip to the same bins with
  // fewer decryptions than the raw gh form.
  AccumulatorStats pack_stats;
  auto packed =
      PackGhHistogram(enc, layout_, *gh_layout, *backend_, &pack_stats);
  ASSERT_TRUE(packed.ok()) << packed.status().ToString();
  size_t packed_decryptions = 0;
  auto packed_hist = DecryptPackedGhHistogram(
      packed.value(), layout_, *gh_layout, *backend_, &packed_decryptions);
  ASSERT_TRUE(packed_hist.ok()) << packed_hist.status().ToString();
  EXPECT_LT(packed_decryptions, raw_decryptions);
  for (size_t i = 0; i < layout_.total_bins(); ++i) {
    EXPECT_NEAR(packed_hist->bin(i).g, hist->bin(i).g, 1e-3) << "bin " << i;
    EXPECT_NEAR(packed_hist->bin(i).h, hist->bin(i).h, 1e-3) << "bin " << i;
  }
}

void ExpectSamePacks(const std::vector<PackedCipher>& got,
                     const std::vector<PackedCipher>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].data, want[i].data) << "pack " << i;
    EXPECT_EQ(got[i].num_slots, want[i].num_slots) << "pack " << i;
    EXPECT_EQ(got[i].slot_bits, want[i].slot_bits) << "pack " << i;
  }
}

void ExpectSameHistogram(const Histogram& got, const Histogram& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got.bin(i).g, want.bin(i).g) << "bin " << i;
    EXPECT_EQ(got.bin(i).h, want.bin(i).h) << "bin " << i;
  }
}

TEST_P(EncHistogramTest, PooledPackingMatchesSerial) {
  const PackInputs in = MakePackInputs();
  const size_t total = layout_.total_bins();
  const size_t modulus_bits = backend_->plain_modulus().BitLength();
  auto serial = PackHistogram(in.classic, layout_, data_.rows(), 1.0,
                              *backend_, nullptr);
  auto serial_gh =
      PackGhHistogram(in.gh, layout_, in.gh_layout, *backend_, nullptr);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ASSERT_TRUE(serial_gh.ok()) << serial_gh.status().ToString();

  // As many packs as capacity-sized groups need, slot counts within one.
  auto expect_balanced = [&](const std::vector<PackedCipher>& packs,
                             size_t slot_bits) {
    const size_t capacity = MaxSlotsPerCipher(slot_bits, modulus_bits);
    EXPECT_EQ(packs.size(), (total + capacity - 1) / capacity);
    ASSERT_GE(packs.size(), 2u) << "the fixture should need several packs";
    uint32_t lo = packs.front().num_slots, hi = lo;
    for (const PackedCipher& pc : packs) {
      lo = std::min(lo, pc.num_slots);
      hi = std::max(hi, pc.num_slots);
    }
    EXPECT_LE(hi - lo, 1u);
  };
  expect_balanced(serial->g_packs, serial->slot_bits);
  expect_balanced(serial->h_packs, serial->slot_bits);
  expect_balanced(*serial_gh, in.gh_layout.total_bits());

  auto serial_hist =
      DecryptPackedHistogram(*serial, layout_, *backend_, nullptr);
  auto serial_gh_hist = DecryptPackedGhHistogram(*serial_gh, layout_,
                                                 in.gh_layout, *backend_,
                                                 nullptr);
  ASSERT_TRUE(serial_hist.ok()) << serial_hist.status().ToString();
  ASSERT_TRUE(serial_gh_hist.ok()) << serial_gh_hist.status().ToString();

  for (size_t workers : {1, 2, 4}) {
    SCOPED_TRACE(workers);
    ThreadPool pool(workers);
    auto pooled = PackHistogram(in.classic, layout_, data_.rows(), 1.0,
                                *backend_, nullptr, 2, &pool);
    auto pooled_gh = PackGhHistogram(in.gh, layout_, in.gh_layout, *backend_,
                                     nullptr, 2, &pool);
    ASSERT_TRUE(pooled.ok()) << pooled.status().ToString();
    ASSERT_TRUE(pooled_gh.ok()) << pooled_gh.status().ToString();
    ExpectSamePacks(pooled->g_packs, serial->g_packs);
    ExpectSamePacks(pooled->h_packs, serial->h_packs);
    ExpectSamePacks(*pooled_gh, *serial_gh);

    auto hist = DecryptPackedHistogram(*pooled, layout_, *backend_, nullptr);
    auto gh_hist = DecryptPackedGhHistogram(*pooled_gh, layout_,
                                            in.gh_layout, *backend_, nullptr);
    ASSERT_TRUE(hist.ok()) << hist.status().ToString();
    ASSERT_TRUE(gh_hist.ok()) << gh_hist.status().ToString();
    ExpectSameHistogram(*hist, *serial_hist);
    ExpectSameHistogram(*gh_hist, *serial_gh_hist);
  }
}

TEST_P(EncHistogramTest, HostilePackShapesAreRejectedBeforeDecrypting) {
  const PackInputs in = MakePackInputs();
  auto packed = PackHistogram(in.classic, layout_, data_.rows(), 1.0,
                              *backend_, nullptr);
  auto gh_packs =
      PackGhHistogram(in.gh, layout_, in.gh_layout, *backend_, nullptr);
  ASSERT_TRUE(packed.ok()) << packed.status().ToString();
  ASSERT_TRUE(gh_packs.ok()) << gh_packs.status().ToString();

  // The wire does not carry PackedHistogram::slot_bits; B leaves it 0.
  PackedHistogram wire = *packed;
  wire.slot_bits = 0;
  size_t decryptions = 0;
  ASSERT_TRUE(
      DecryptPackedHistogram(wire, layout_, *backend_, &decryptions).ok());
  ASSERT_TRUE(DecryptPackedGhHistogram(*gh_packs, layout_, in.gh_layout,
                                       *backend_, &decryptions)
                  .ok());

  using Mutation = std::function<void(std::vector<PackedCipher>*)>;
  const std::vector<std::pair<const char*, Mutation>> mutations = {
      {"zero slots", [](auto* p) { p->front().num_slots = 0; }},
      {"slots beyond capacity",
       [](auto* p) { p->front().num_slots = 0xFFFFFFFFu; }},
      {"slot width 0", [](auto* p) { p->front().slot_bits = 0; }},
      {"mismatched slot width", [](auto* p) { p->back().slot_bits += 1; }},
      {"one slot short", [](auto* p) { p->back().num_slots -= 1; }},
      {"one slot too many", [](auto* p) { p->front().num_slots += 1; }},
      {"pack missing", [](auto* p) { p->pop_back(); }},
      {"pack repeated", [](auto* p) { p->push_back(p->front()); }},
      {"every width huge",
       [](auto* p) {
         for (PackedCipher& pc : *p) {
           pc.slot_bits = 0xFFFFFFFFu;
           pc.num_slots = 1;
         }
       }},
  };
  for (const auto& [name, mutate] : mutations) {
    SCOPED_TRACE(name);
    decryptions = 0;
    PackedHistogram g_bad = wire;
    mutate(&g_bad.g_packs);
    auto g_res = DecryptPackedHistogram(g_bad, layout_, *backend_,
                                        &decryptions);
    ASSERT_FALSE(g_res.ok());
    EXPECT_EQ(g_res.status().code(), StatusCode::kProtocolError);
    PackedHistogram h_bad = wire;
    mutate(&h_bad.h_packs);
    auto h_res = DecryptPackedHistogram(h_bad, layout_, *backend_,
                                        &decryptions);
    ASSERT_FALSE(h_res.ok());
    EXPECT_EQ(h_res.status().code(), StatusCode::kProtocolError);
    std::vector<PackedCipher> gh_bad = *gh_packs;
    mutate(&gh_bad);
    auto gh_res = DecryptPackedGhHistogram(gh_bad, layout_, in.gh_layout,
                                           *backend_, &decryptions);
    ASSERT_FALSE(gh_res.ok());
    EXPECT_EQ(gh_res.status().code(), StatusCode::kProtocolError);
    EXPECT_EQ(decryptions, 0u) << "rejected after decrypting";
  }
}

INSTANTIATE_TEST_SUITE_P(MockAndPaillier, EncHistogramTest,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Paillier" : "Mock";
                         });

TEST(PackHistogramTest, TinyKeyFallsBackWithError) {
  // A 128-bit key cannot hold two ~60-bit slots: PackHistogram must refuse.
  Rng krng(99);
  auto kp = PaillierKeyPair::Generate(128, &krng);
  ASSERT_TRUE(kp.ok());
  FixedPointCodec codec(16, 8, 4);
  PaillierBackend backend(kp->pub, codec);
  FeatureLayout layout;
  layout.offsets = {0, 2};
  EncryptedHistogram hist;
  Rng rng(1);
  hist.g_bins = {backend.EncryptAt(0.5, 11, &rng),
                 backend.EncryptAt(0.5, 11, &rng)};
  hist.h_bins = hist.g_bins;
  auto packed = PackHistogram(hist, layout, 1000000, 1.0, backend, nullptr);
  EXPECT_FALSE(packed.ok());
}

}  // namespace
}  // namespace vf2boost

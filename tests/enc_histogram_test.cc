#include "fed/enc_histogram.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <numeric>
#include <optional>
#include <utility>

#include "data/synthetic.h"
#include "fed/placement.h"
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
      keys_ = std::move(kp).value();
    }
    backend_ = BackendWith(codec_);

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

  // A backend of the parameter's kind (and key) over `codec`.
  std::unique_ptr<CipherBackend> BackendWith(FixedPointCodec codec) const {
    if (!keys_.has_value()) return std::make_unique<MockBackend>(codec);
    auto pb = std::make_unique<PaillierBackend>(keys_->pub, codec);
    pb->SetPrivateKey(keys_->priv);
    return pb;
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
  std::optional<PaillierKeyPair> keys_;  // Paillier parameter only
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
      {"pack exponent off", [](auto* p) { p->back().exponent -= 1; }},
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
  // A shift the slots cannot hold is refused before the codec would abort
  // encoding it.
  for (double shift : {-1.0, 1e300, std::nan("")}) {
    SCOPED_TRACE(shift);
    decryptions = 0;
    PackedHistogram bad = wire;
    bad.shift_g = shift;
    auto res = DecryptPackedHistogram(bad, layout_, *backend_, &decryptions);
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.status().code(), StatusCode::kProtocolError);
    EXPECT_EQ(decryptions, 0u) << "rejected after decrypting";
  }
}

// Sibling subtraction on B: parent − built child, derived from the exact
// plaintexts, must decode bit for bit like the other child's own histogram,
// whatever wire form (raw or §5.2-packed) each of the three arrives in. The
// split is on feature 0, so that feature's bins are empty in one child or
// the other, and the rows with no value for it go left.
TEST_P(EncHistogramTest, DerivedSiblingIsBitIdenticalToDirect) {
  const Bitmap placement =
      ComputePlacement(binned_, instances_, 0, 1, /*default_left=*/true);
  std::vector<uint32_t> left, right;
  ApplyPlacement(instances_, placement, &left, &right);
  ASSERT_FALSE(left.empty());
  ASSERT_FALSE(right.empty());
  const bool left_built = BuildsLeftChild(left.size(), right.size());
  const std::vector<uint32_t>& built_rows = left_built ? left : right;
  const std::vector<uint32_t>& other_rows = left_built ? right : left;

  enum class Form { kRaw, kPacked };
  struct Case {
    const char* name;
    FixedPointCodec codec;
    bool gh;
    bool reordered;
    double grad_scale = 1.0;  ///< classic gradients are multiplied by it
  };
  const std::vector<Case> cases = {
      {"classic E=4 naive", FixedPointCodec(16, 6, 4), false, false},
      {"classic E=4 reordered", FixedPointCodec(16, 6, 4), false, true},
      {"classic E=1", FixedPointCodec(16, 6, 1), false, true},
      {"gh", FixedPointCodec(16, 6, 4), true, true},
      // Max exponent 15: at 16^15 = 2^60, bin sums of 16 or more encode
      // above 2^64, where ToDouble spans two limbs.
      {"classic E=4 max exponent 15", FixedPointCodec(16, 12, 4), false, true,
       64.0},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const std::unique_ptr<CipherBackend> backend = BackendWith(c.codec);
    auto gh_layout = MakeGhPackLayout(c.codec, data_.rows(), 1.0,
                                      backend->plain_modulus().BitLength());
    ASSERT_TRUE(gh_layout.ok()) << gh_layout.status().ToString();
    Rng enc_rng(61);
    std::vector<Cipher> g, h, gh;
    for (const GradPair& gp : grads_) {
      if (c.gh) {
        gh.push_back({backend->EncryptRaw(
                          EncodeGhPair(*gh_layout, gp.g, gp.h), &enc_rng),
                      gh_layout->exponent});
      } else {
        g.push_back(backend->Encrypt(gp.g * c.grad_scale, &enc_rng));
        h.push_back(backend->Encrypt(gp.h * c.grad_scale, &enc_rng));
      }
    }
    auto build = [&](const std::vector<uint32_t>& rows) {
      return c.gh ? BuildEncryptedHistogramGhParallel(binned_, layout_, rows,
                                                      gh, *backend,
                                                      c.reordered, nullptr,
                                                      nullptr)
                  : BuildEncryptedHistogramParallel(binned_, layout_, rows, g,
                                                    h, *backend, c.reordered,
                                                    nullptr, nullptr);
    };
    // A node histogram as B receives and decrypts it in `form`.
    auto receive = [&](const EncryptedHistogram& hist,
                       Form form) -> PlainHistogram {
      Result<PlainHistogram> plain = Status::Internal("unset");
      if (c.gh && form == Form::kPacked) {
        auto packs = PackGhHistogram(hist, layout_, *gh_layout, *backend,
                                     nullptr);
        EXPECT_TRUE(packs.ok()) << packs.status().ToString();
        plain = DecryptPackedGhPlain(*packs, layout_, *gh_layout, *backend,
                                     nullptr);
      } else if (c.gh) {
        plain = DecryptRawGhPlain(hist.gh_bins, layout_, *backend, nullptr);
      } else if (form == Form::kPacked) {
        auto packed = PackHistogram(hist, layout_, data_.rows(),
                                    c.grad_scale, *backend, nullptr);
        EXPECT_TRUE(packed.ok()) << packed.status().ToString();
        plain = DecryptPackedPlain(*packed, layout_, *backend, nullptr);
      } else {
        plain = DecryptRawPlain(hist.g_bins, hist.h_bins, layout_, *backend,
                                nullptr);
      }
      EXPECT_TRUE(plain.ok()) << plain.status().ToString();
      return plain.ok() ? std::move(plain).value() : PlainHistogram{};
    };
    auto decode = [&](const PlainHistogram& plain) {
      auto hist = DecodePlainHistogram(plain, *gh_layout, *backend);
      EXPECT_TRUE(hist.ok()) << hist.status().ToString();
      return hist.ok() ? std::move(hist).value() : Histogram(0);
    };
    const EncryptedHistogram parent = build(instances_);
    const EncryptedHistogram built = build(built_rows);
    const EncryptedHistogram other = build(other_rows);
    if (c.grad_scale > 1) {  // the case must reach values above 2^64
      const PlainHistogram plain = receive(parent, Form::kRaw);
      const BigInt& n = backend->plain_modulus();
      size_t widest = 0;
      for (const PlainValue& v : plain.g) {
        const BigInt magnitude = v.value < (n >> 1) ? v.value : n - v.value;
        widest = std::max(widest, magnitude.BitLength());
      }
      ASSERT_GT(widest, 64u);
    }
    for (Form parent_form : {Form::kRaw, Form::kPacked}) {
      for (Form built_form : {Form::kRaw, Form::kPacked}) {
        SCOPED_TRACE(testing::Message()
                     << "parent packed " << (parent_form == Form::kPacked)
                     << ", built packed " << (built_form == Form::kPacked));
        auto derived = DeriveSibling(receive(parent, parent_form),
                                     receive(built, built_form), *backend);
        ASSERT_TRUE(derived.ok()) << derived.status().ToString();
        const Histogram got = decode(*derived);
        for (Form other_form : {Form::kRaw, Form::kPacked}) {
          const Histogram want = decode(receive(other, other_form));
          ASSERT_EQ(got.size(), want.size());
          for (size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(std::memcmp(&got.bin(i), &want.bin(i),
                                  sizeof(GradPair)),
                      0)
                << "bin " << i << ": derived (" << got.bin(i).g << ", "
                << got.bin(i).h << ") direct (" << want.bin(i).g << ", "
                << want.bin(i).h << ")";
          }
        }
      }
    }
  }
}

TEST_P(EncHistogramTest, DeriveSiblingRefusesAChildAboveItsParent) {
  // Exponents are bounded when a cipher is deserialized, but within the
  // codec's range a built child's bin must not rise above its parent's.
  EncryptedHistogram parent;
  Rng rng(8);
  for (size_t i = 0; i < layout_.total_bins(); ++i) {
    parent.g_bins.push_back(
        backend_->EncryptAt(0.5, codec_.min_exponent(), &rng));
    parent.h_bins.push_back(
        backend_->EncryptAt(0.25, codec_.min_exponent(), &rng));
  }
  EncryptedHistogram child = parent;
  child.g_bins[1] = backend_->EncryptAt(0.25, codec_.min_exponent() + 1, &rng);
  auto plain_parent = DecryptRawPlain(parent.g_bins, parent.h_bins, layout_,
                                      *backend_, nullptr);
  auto plain_child = DecryptRawPlain(child.g_bins, child.h_bins, layout_,
                                     *backend_, nullptr);
  ASSERT_TRUE(plain_parent.ok() && plain_child.ok());
  auto derived = DeriveSibling(*plain_parent, *plain_child, *backend_);
  ASSERT_FALSE(derived.ok());
  EXPECT_EQ(derived.status().code(), StatusCode::kProtocolError);

  // A gh child larger than its parent borrows; decoding refuses it.
  auto gh_layout = MakeGhPackLayout(codec_, data_.rows(), 1.0,
                                    backend_->plain_modulus().BitLength());
  ASSERT_TRUE(gh_layout.ok());
  const std::vector<Cipher> gh = EncryptGh(*gh_layout);
  std::vector<uint32_t> half(instances_.begin(),
                             instances_.begin() + instances_.size() / 2);
  auto small = DecryptRawGhPlain(
      BuildEncryptedHistogramGhParallel(binned_, layout_, half, gh, *backend_,
                                        true, nullptr, nullptr)
          .gh_bins,
      layout_, *backend_, nullptr);
  auto large = DecryptRawGhPlain(
      BuildEncryptedHistogramGhParallel(binned_, layout_, instances_, gh,
                                        *backend_, true, nullptr, nullptr)
          .gh_bins,
      layout_, *backend_, nullptr);
  ASSERT_TRUE(small.ok() && large.ok());
  auto borrowed = DeriveSibling(*small, *large, *backend_);
  ASSERT_TRUE(borrowed.ok());
  auto decoded = DecodePlainHistogram(*borrowed, *gh_layout, *backend_);
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
}

TEST(SiblingRuleTest, SmallerChildIsBuiltAndTheLeftOneOnATie) {
  EXPECT_TRUE(BuildsLeftChild(3, 5));
  EXPECT_FALSE(BuildsLeftChild(5, 3));
  EXPECT_TRUE(BuildsLeftChild(4, 4));
  EXPECT_TRUE(BuildsLeftChild(0, 0));
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

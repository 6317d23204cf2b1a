#include "fed/fed_trainer.h"

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "data/partition.h"
#include "data/synthetic.h"
#include "gbdt/histogram.h"
#include "gbdt/model_io.h"
#include "gbdt/trainer.h"
#include "metrics/metrics.h"

namespace vf2boost {
namespace {

struct Fixture {
  Dataset train;
  Dataset valid;
  VerticalSplitSpec spec;
  std::vector<Dataset> shards;  // A parties first, B last
};

Fixture MakeFixture(size_t rows, size_t cols, double density,
                    const std::vector<double>& fractions, uint64_t seed) {
  SyntheticSpec sspec;
  sspec.rows = rows;
  sspec.cols = cols;
  sspec.density = density;
  sspec.seed = seed;
  Dataset all = GenerateSynthetic(sspec);

  Fixture f;
  Rng rng(seed + 1);
  TrainValidSplit(all, 0.8, &rng, &f.train, &f.valid);
  f.spec = SplitColumnsRandomly(cols, fractions, &rng);
  auto shards = PartitionVertically(f.train, f.spec,
                                    /*label_party=*/fractions.size() - 1);
  EXPECT_TRUE(shards.ok());
  f.shards = std::move(shards).value();
  return f;
}

// Sums counter `name` over the parties selected by `party` in a run's
// metrics (see obs::PartySum).
size_t Count(const FedTrainResult& r, const char* name,
             const char* party = "party_") {
  return static_cast<size_t>(obs::PartySum(r.metrics, party, name));
}

FedConfig FastConfig() {
  FedConfig config;
  config.mock_crypto = true;
  config.gbdt.num_trees = 5;
  config.gbdt.num_layers = 4;
  config.gbdt.max_bins = 8;
  return config;
}

TEST(FedTrainerTest, MockSequentialLearns) {
  Fixture f = MakeFixture(1500, 16, 0.5, {0.5, 0.5}, 21);
  FedTrainer trainer(FastConfig());
  auto result = trainer.Train(f.shards);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->model.trees.size(), 5u);

  auto joint = result->ToJointModel(f.spec);
  ASSERT_TRUE(joint.ok()) << joint.status().ToString();
  const double auc = Auc(joint->PredictRaw(f.valid.features), f.valid.labels);
  EXPECT_GT(auc, 0.70) << "federated model failed to learn";

  // Both parties contribute splits.
  EXPECT_GT(Count(*result, "splits_a"), 0u);
  EXPECT_GT(Count(*result, "splits_b"), 0u);
  EXPECT_GT(Count(*result, "leaves"), 0u);
  // Train loss decreases across trees.
  EXPECT_LT(result->log.back().train_loss, result->log.front().train_loss);
}

TEST(FedTrainerTest, FederatedBeatsPartyBOnly) {
  Fixture f = MakeFixture(2000, 20, 0.5, {0.5, 0.5}, 23);
  FedConfig config = FastConfig();
  config.gbdt.num_trees = 10;
  FedTrainer trainer(config);
  auto result = trainer.Train(f.shards);
  ASSERT_TRUE(result.ok());
  auto joint = result->ToJointModel(f.spec);
  ASSERT_TRUE(joint.ok());
  const double fed_auc =
      Auc(joint->PredictRaw(f.valid.features), f.valid.labels);

  // Party-B-only baseline: plain GBDT on B's columns.
  Dataset b_train = f.shards.back();
  GbdtTrainer plain(config.gbdt);
  auto b_model = plain.Train(b_train);
  ASSERT_TRUE(b_model.ok());
  Dataset b_valid;
  b_valid.features = f.valid.features.SelectColumns(f.spec.party_columns[1]);
  b_valid.labels = f.valid.labels;
  const double b_auc =
      Auc(b_model->PredictRaw(b_valid.features), b_valid.labels);

  // And the co-located upper reference.
  auto full_model = plain.Train(f.train);
  ASSERT_TRUE(full_model.ok());
  const double full_auc =
      Auc(full_model->PredictRaw(f.valid.features), f.valid.labels);

  EXPECT_GT(fed_auc, b_auc + 0.01) << "vertical FL should lift AUC";
  EXPECT_NEAR(fed_auc, full_auc, 0.05) << "FL should match co-located";
}

// {total parties, workers per party}: with 3 parties each owner query goes
// to one A party and not the other; 4 workers run every pooled build path.
class OptimisticParityTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>> {};

TEST_P(OptimisticParityTest, OptimisticMatchesSequentialExactly) {
  const auto [parties, workers] = GetParam();
  const std::vector<double> fractions(parties, 1.0 / parties);
  Fixture f = MakeFixture(1200, 16, 0.5, fractions, 25);
  FedConfig seq = FastConfig();
  seq.workers_per_party = workers;
  FedConfig opt = seq;
  opt.optimistic = true;

  auto r_seq = FedTrainer(seq).Train(f.shards);
  auto r_opt = FedTrainer(opt).Train(f.shards);
  ASSERT_TRUE(r_seq.ok()) << r_seq.status().ToString();
  ASSERT_TRUE(r_opt.ok()) << r_opt.status().ToString();

  // The optimistic protocol must be a pure scheduling change: identical
  // split decisions, identical model.
  auto j_seq = r_seq->ToJointModel(f.spec);
  auto j_opt = r_opt->ToJointModel(f.spec);
  ASSERT_TRUE(j_seq.ok());
  ASSERT_TRUE(j_opt.ok());
  auto p_seq = j_seq->PredictRaw(f.valid.features);
  auto p_opt = j_opt->PredictRaw(f.valid.features);
  for (size_t i = 0; i < p_seq.size(); ++i) {
    ASSERT_DOUBLE_EQ(p_seq[i], p_opt[i]) << "instance " << i;
  }
  // With balanced features, a sizable share of optimistic splits is dirty.
  EXPECT_GT(Count(*r_opt, "dirty_nodes"), 0u);
  EXPECT_GT(Count(*r_opt, "optimistic_splits"),
            Count(*r_opt, "dirty_nodes"));
  EXPECT_EQ(Count(*r_seq, "dirty_nodes"), 0u);
  // Every party, B included, owns some split of the optimistic model.
  std::vector<size_t> owned(parties, 0);
  for (const Tree& tree : r_opt->model.trees) {
    for (size_t n = 0; n < tree.size(); ++n) {
      const int32_t owner = tree.node(static_cast<int32_t>(n)).owner_party;
      if (owner >= 0) ++owned[owner];
    }
  }
  for (size_t p = 0; p < parties; ++p) {
    EXPECT_GT(owned[p], 0u) << "party " << p << " owns no split";
  }
}

INSTANTIATE_TEST_SUITE_P(
    PartiesAndWorkers, OptimisticParityTest,
    ::testing::Combine(::testing::Values(size_t{2}, size_t{3}),
                       ::testing::Values(size_t{1}, size_t{4})),
    [](const ::testing::TestParamInfo<std::tuple<size_t, size_t>>& info) {
      return std::to_string(std::get<0>(info.param)) + "parties_" +
             std::to_string(std::get<1>(info.param)) + "workers";
    });

TEST(FedTrainerTest, DirtyRateTracksFeatureRatio) {
  // Paper §4.2: failure probability ~ D_A / (D_A + D_B).
  auto dirty_rate = [](const std::vector<double>& fractions, uint64_t seed) {
    Fixture f = MakeFixture(1200, 30, 0.4, fractions, seed);
    FedConfig config = FastConfig();
    config.optimistic = true;
    auto r = FedTrainer(config).Train(f.shards);
    EXPECT_TRUE(r.ok());
    const double total =
        static_cast<double>(Count(*r, "dirty_nodes") + Count(*r, "splits_b"));
    return total == 0 ? 0.0 : Count(*r, "dirty_nodes") / total;
  };
  const double rate_a_heavy = dirty_rate({0.8, 0.2}, 31);
  const double rate_b_heavy = dirty_rate({0.2, 0.8}, 31);
  EXPECT_GT(rate_a_heavy, rate_b_heavy);
}

TEST(FedTrainerTest, PackingPreservesQualityAndCutsBytes) {
  Fixture f = MakeFixture(1500, 16, 0.5, {0.5, 0.5}, 27);
  FedConfig raw = FastConfig();
  FedConfig packed = FastConfig();
  packed.packing = true;

  auto r_raw = FedTrainer(raw).Train(f.shards);
  auto r_packed = FedTrainer(packed).Train(f.shards);
  ASSERT_TRUE(r_raw.ok());
  ASSERT_TRUE(r_packed.ok()) << r_packed.status().ToString();

  auto j_raw = r_raw->ToJointModel(f.spec);
  auto j_packed = r_packed->ToJointModel(f.spec);
  ASSERT_TRUE(j_raw.ok());
  ASSERT_TRUE(j_packed.ok());
  const double auc_raw =
      Auc(j_raw->PredictRaw(f.valid.features), f.valid.labels);
  const double auc_packed =
      Auc(j_packed->PredictRaw(f.valid.features), f.valid.labels);
  EXPECT_NEAR(auc_raw, auc_packed, 0.02);

  EXPECT_GT(Count(*r_packed, "packs"), 0u);
  EXPECT_LT(Count(*r_packed, "decryptions"),
            Count(*r_raw, "decryptions") / 2);
  EXPECT_LT(Count(*r_packed, "bytes_sent", "party_a"),
            Count(*r_raw, "bytes_sent", "party_a"));
}

TEST(FedTrainerTest, ReorderedReducesScalings) {
  Fixture f = MakeFixture(800, 12, 0.5, {0.5, 0.5}, 29);
  FedConfig naive = FastConfig();
  naive.gbdt.num_trees = 2;
  FedConfig reordered = naive;
  reordered.reordered = true;

  auto r_naive = FedTrainer(naive).Train(f.shards);
  auto r_reordered = FedTrainer(reordered).Train(f.shards);
  ASSERT_TRUE(r_naive.ok());
  ASSERT_TRUE(r_reordered.ok());
  EXPECT_LT(Count(*r_reordered, "scalings"),
            Count(*r_naive, "scalings") / 2);
}

TEST(FedTrainerTest, BlasterSplitsGradTraffic) {
  Fixture f = MakeFixture(1000, 10, 0.5, {0.5, 0.5}, 33);
  FedConfig bulk = FastConfig();
  bulk.gbdt.num_trees = 1;
  FedConfig blaster = bulk;
  blaster.blaster = true;
  blaster.blaster_batch = 128;

  auto r_bulk = FedTrainer(bulk).Train(f.shards);
  auto r_blaster = FedTrainer(blaster).Train(f.shards);
  ASSERT_TRUE(r_bulk.ok());
  ASSERT_TRUE(r_blaster.ok());
  // Same data volume, same learned model quality; the blaster just streams.
  auto j_bulk = r_bulk->ToJointModel(f.spec);
  auto j_blaster = r_blaster->ToJointModel(f.spec);
  ASSERT_TRUE(j_bulk.ok());
  ASSERT_TRUE(j_blaster.ok());
  auto p1 = j_bulk->PredictRaw(f.valid.features);
  auto p2 = j_blaster->PredictRaw(f.valid.features);
  for (size_t i = 0; i < p1.size(); ++i) ASSERT_DOUBLE_EQ(p1[i], p2[i]);
}

TEST(FedTrainerTest, FullVf2BoostStackLearns) {
  Fixture f = MakeFixture(1500, 16, 0.5, {0.5, 0.5}, 35);
  FedConfig config = FedConfig::Vf2Boost();
  config.mock_crypto = true;
  config.gbdt.num_trees = 5;
  config.gbdt.num_layers = 4;
  config.gbdt.max_bins = 8;
  auto result = FedTrainer(config).Train(f.shards);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto joint = result->ToJointModel(f.spec);
  ASSERT_TRUE(joint.ok());
  EXPECT_GT(Auc(joint->PredictRaw(f.valid.features), f.valid.labels), 0.70);
  EXPECT_GT(Count(*result, "packs"), 0u);
  EXPECT_GT(Count(*result, "optimistic_splits"), 0u);
}

TEST(FedTrainerTest, GhPackedModelIsByteIdenticalToUnpacked) {
  // With a single codec exponent both streams decode bit-exactly, so the
  // gh-packed gradient path must reproduce the unpacked model byte for byte.
  Fixture f = MakeFixture(800, 12, 0.5, {0.5, 0.5}, 41);
  FedConfig base = FedConfig::Vf2Boost();
  base.mock_crypto = true;
  base.gbdt.num_trees = 4;
  base.gbdt.num_layers = 4;
  base.gbdt.max_bins = 8;
  base.codec_num_exponents = 1;

  FedConfig unpacked = base;
  unpacked.gh_pack = false;

  auto r_gh = FedTrainer(base).Train(f.shards);
  ASSERT_TRUE(r_gh.ok()) << r_gh.status().ToString();
  auto r_classic = FedTrainer(unpacked).Train(f.shards);
  ASSERT_TRUE(r_classic.ok()) << r_classic.status().ToString();

  auto j_gh = r_gh->ToJointModel(f.spec);
  auto j_classic = r_classic->ToJointModel(f.spec);
  ASSERT_TRUE(j_gh.ok());
  ASSERT_TRUE(j_classic.ok());
  EXPECT_EQ(ModelToString(*j_gh), ModelToString(*j_classic));

  // And the point of the exercise: gh packing halves the gradient-stream
  // encryptions (plus shared per-node constants on each side).
  EXPECT_LT(Count(*r_gh, "encryptions"), Count(*r_classic, "encryptions"));
  EXPECT_LT(Count(*r_gh, "bytes_sent", "party_b"),
            Count(*r_classic, "bytes_sent", "party_b"));
}

TEST(FedTrainerTest, RealPaillierGhPackedMatchesMock) {
  // The gh cipher path under real 256-bit Paillier: encode-once pairs,
  // gh histograms, gh decrypt — decisions must match the mock run.
  Fixture f = MakeFixture(200, 8, 0.6, {0.5, 0.5}, 43);
  FedConfig config = FedConfig::Vf2Boost();
  config.paillier_bits = 256;
  config.gbdt.num_trees = 2;
  config.gbdt.num_layers = 3;
  config.gbdt.max_bins = 6;
  config.codec_num_exponents = 1;
  ASSERT_TRUE(config.gh_pack);

  auto real = FedTrainer(config).Train(f.shards);
  ASSERT_TRUE(real.ok()) << real.status().ToString();
  FedConfig mock = config;
  mock.mock_crypto = true;
  auto mocked = FedTrainer(mock).Train(f.shards);
  ASSERT_TRUE(mocked.ok()) << mocked.status().ToString();

  auto j_real = real->ToJointModel(f.spec);
  auto j_mock = mocked->ToJointModel(f.spec);
  ASSERT_TRUE(j_real.ok());
  ASSERT_TRUE(j_mock.ok());
  EXPECT_EQ(ModelToString(*j_real), ModelToString(*j_mock));
}

// Sibling subtraction: per tree, B decrypts A's root histogram and one
// child's per split whose children still get histograms (a split above the
// last two layers); it derives the other child's. With raw classic bins
// that is (1 + such splits) · 2 · A's bins decryptions per tree.
TEST(FedTrainerTest, BDecryptsTheRootAndOneChildPerSplit) {
  Fixture f = MakeFixture(600, 10, 0.8, {0.5, 0.5}, 41);
  for (bool optimistic : {false, true}) {
    SCOPED_TRACE(optimistic ? "optimistic" : "sequential");
    FedConfig config = FastConfig();
    config.optimistic = optimistic;
    auto result = FedTrainer(config).Train(f.shards);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const size_t a_bins =
        FeatureLayout::FromCuts(result->party_a_cuts[0]).total_bins();
    size_t nodes = 0;  // histograms B decrypts, over all trees
    size_t splits = 0;
    for (const Tree& tree : result->model.trees) {
      ++nodes;
      std::vector<std::pair<int32_t, uint32_t>> stack = {{0, 0}};
      while (!stack.empty()) {
        const auto [id, depth] = stack.back();
        stack.pop_back();
        const TreeNode& node = tree.node(id);
        if (node.is_leaf()) continue;
        ++splits;
        if (depth + 2 < config.gbdt.num_layers) ++nodes;
        stack.push_back({node.left, depth + 1});
        stack.push_back({node.right, depth + 1});
      }
    }
    ASSERT_GT(nodes, result->model.trees.size());
    EXPECT_EQ(Count(*result, "decryptions", "party_b"), nodes * 2 * a_bins)
        << splits << " splits";
  }
}

TEST(FedTrainerTest, RealPaillierEndToEnd) {
  // Small but fully real: 256-bit Paillier, every optimization on.
  Fixture f = MakeFixture(200, 8, 0.6, {0.5, 0.5}, 37);
  FedConfig config = FedConfig::Vf2Boost();
  config.paillier_bits = 256;
  config.gbdt.num_trees = 2;
  config.gbdt.num_layers = 3;
  config.gbdt.max_bins = 6;
  auto result = FedTrainer(config).Train(f.shards);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(Count(*result, "encryptions"), 0u);
  EXPECT_GT(Count(*result, "decryptions"), 0u);

  // The exact same run under mock crypto must produce the same tree
  // decisions (the cryptosystem is computation-transparent).
  FedConfig mock = config;
  mock.mock_crypto = true;
  auto mock_result = FedTrainer(mock).Train(f.shards);
  ASSERT_TRUE(mock_result.ok());
  auto j_real = result->ToJointModel(f.spec);
  auto j_mock = mock_result->ToJointModel(f.spec);
  ASSERT_TRUE(j_real.ok());
  ASSERT_TRUE(j_mock.ok());
  auto p_real = j_real->PredictRaw(f.valid.features);
  auto p_mock = j_mock->PredictRaw(f.valid.features);
  double max_diff = 0;
  for (size_t i = 0; i < p_real.size(); ++i) {
    max_diff = std::max(max_diff, std::fabs(p_real[i] - p_mock[i]));
  }
  EXPECT_LT(max_diff, 1e-3);
}

TEST(FedTrainerTest, RealPaillierSequentialRaw) {
  // The baseline VF-GBDT path under real crypto.
  Fixture f = MakeFixture(150, 6, 0.8, {0.5, 0.5}, 39);
  FedConfig config = FedConfig::VfGbdt();
  config.mock_crypto = false;
  config.paillier_bits = 256;
  config.gbdt.num_trees = 2;
  config.gbdt.num_layers = 3;
  config.gbdt.max_bins = 6;
  auto result = FedTrainer(config).Train(f.shards);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->model.trees.size(), 2u);
}

TEST(FedTrainerTest, StarvedNoisePoolDoesNotChangeTheModel) {
  // VF-GBDT samples E > 1 random exponents from the per-tree rng. A noise
  // pool that keeps one nonce ready misses on almost every encryption; the
  // misses must not draw from that rng, or the model would depend on timing.
  // (A run without any pool draws every nonce from that rng by design, so
  // its exponents, and the low bits of A-side gains, differ.)
  Fixture f = MakeFixture(150, 6, 0.8, {0.5, 0.5}, 39);
  FedConfig config = FedConfig::VfGbdt();
  config.paillier_bits = 256;
  config.gbdt.num_trees = 2;
  config.gbdt.num_layers = 3;
  config.gbdt.max_bins = 6;
  ASSERT_GT(config.codec_num_exponents, 1);
  FedConfig starved = config;
  starved.noise_pool_capacity = 1;

  auto fed = FedTrainer(config).Train(f.shards);
  ASSERT_TRUE(fed.ok()) << fed.status().ToString();
  auto hungry = FedTrainer(starved).Train(f.shards);
  ASSERT_TRUE(hungry.ok()) << hungry.status().ToString();
  EXPECT_GT(Count(*hungry, "noise_pool/misses"),
            Count(*fed, "noise_pool/misses"));
  EXPECT_EQ(ModelToString(hungry->model), ModelToString(fed->model));
}

TEST(FedTrainerTest, NoisePoolMakesExactlyTheNoncesTheRunTakes) {
  // B announces the run's demand (rows x ciphers per row x trees) and the
  // producer stops there, so no nonce is made that no encryption takes:
  // produced + misses == encryptions, whether the pool keeps a tree's worth
  // ready or starves at one. Neither changes a byte of the model.
  Fixture f = MakeFixture(150, 6, 0.8, {0.5, 0.5}, 39);
  for (FedConfig config : {FedConfig::Vf2Boost(), FedConfig::VfGbdt()}) {
    SCOPED_TRACE(config.gh_pack ? "gh-packed VF2Boost" : "classic VF-GBDT");
    config.paillier_bits = 256;
    config.gbdt.num_trees = 2;
    config.gbdt.num_layers = 3;
    config.gbdt.max_bins = 6;
    FedConfig starved = config;
    starved.noise_pool_capacity = 1;

    auto fed = FedTrainer(config).Train(f.shards);
    ASSERT_TRUE(fed.ok()) << fed.status().ToString();
    auto hungry = FedTrainer(starved).Train(f.shards);
    ASSERT_TRUE(hungry.ok()) << hungry.status().ToString();
    EXPECT_EQ(Count(*fed, "encryptions", "party_b"),
              f.shards.back().rows() * (config.gh_pack ? 1 : 2) * 2);
    for (const FedTrainResult* r : {&*fed, &*hungry}) {
      EXPECT_EQ(Count(*r, "noise_pool/produced", "party_b") +
                    Count(*r, "noise_pool/misses", "party_b"),
                Count(*r, "encryptions", "party_b"));
    }
    EXPECT_EQ(ModelToString(hungry->model), ModelToString(fed->model));
  }
}

TEST(FedTrainerTest, ThreeParties) {
  Fixture f = MakeFixture(1500, 24, 0.5, {0.34, 0.33, 0.33}, 41);
  FedConfig config = FastConfig();
  config.optimistic = true;
  config.gbdt.num_trees = 10;
  auto result = FedTrainer(config).Train(f.shards);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto joint = result->ToJointModel(f.spec);
  ASSERT_TRUE(joint.ok());
  EXPECT_GT(Auc(joint->PredictRaw(f.valid.features), f.valid.labels), 0.66);
  EXPECT_EQ(result->party_a_cuts.size(), 2u);
}

TEST(FedTrainerTest, MorePartiesLiftAuc) {
  // Table 6's qualitative claim: adding feature-contributing parties helps.
  SyntheticSpec spec;
  spec.rows = 2500;
  spec.cols = 32;
  spec.density = 0.4;
  spec.seed = 43;
  Dataset all = GenerateSynthetic(spec);
  Rng rng(44);
  Dataset train, valid;
  TrainValidSplit(all, 0.8, &rng, &train, &valid);
  VerticalSplitSpec spec4 = SplitColumnsRandomly(32, {1, 1, 1, 1}, &rng);

  FedConfig config = FastConfig();
  config.gbdt.num_trees = 8;

  // B-only baseline (B = last party's columns).
  Dataset b_train;
  b_train.features = train.features.SelectColumns(spec4.party_columns[3]);
  b_train.labels = train.labels;
  GbdtTrainer plain(config.gbdt);
  auto b_model = plain.Train(b_train);
  ASSERT_TRUE(b_model.ok());
  Dataset b_valid;
  b_valid.features = valid.features.SelectColumns(spec4.party_columns[3]);
  const double auc1 = Auc(b_model->PredictRaw(b_valid.features), valid.labels);

  // 2 parties: A = parties 0+1+2 columns merged? No — use party 0 as A.
  auto run_fed = [&](size_t num_a) {
    VerticalSplitSpec sub;
    for (size_t p = 0; p < num_a; ++p) {
      sub.party_columns.push_back(spec4.party_columns[p]);
    }
    sub.party_columns.push_back(spec4.party_columns[3]);
    auto shards = PartitionVertically(train, sub, num_a);
    EXPECT_TRUE(shards.ok());
    auto result = FedTrainer(config).Train(shards.value());
    EXPECT_TRUE(result.ok());
    auto joint = result->ToJointModel(sub);
    EXPECT_TRUE(joint.ok());
    return Auc(joint->PredictRaw(valid.features), valid.labels);
  };
  const double auc2 = run_fed(1);
  const double auc4 = run_fed(3);
  EXPECT_GT(auc2, auc1);
  EXPECT_GT(auc4, auc2);
}

TEST(FedTrainerTest, OptimisticLeafCorrectionPath) {
  // Force the trickiest rollback path: B's features are pure noise, so B
  // optimistically declares LEAVES (its own gains fall under gamma) that
  // validation later converts into A-owned splits — children created fresh
  // by the correction, not reused.
  Rng rng(71);
  std::vector<std::vector<Entry>> rows;
  std::vector<float> labels;
  for (int i = 0; i < 1200; ++i) {
    std::vector<Entry> row;
    double score = 0;
    for (uint32_t c = 0; c < 6; ++c) {  // informative (party A)
      const float v = static_cast<float>(rng.NextGaussian());
      row.push_back({c, v});
      score += v;
    }
    for (uint32_t c = 6; c < 12; ++c) {  // noise (party B)
      row.push_back({c, static_cast<float>(rng.NextGaussian())});
    }
    rows.push_back(std::move(row));
    labels.push_back(score > 0 ? 1.0f : 0.0f);
  }
  Dataset data;
  data.features = CsrMatrix::FromRows(rows, 12).value();
  data.labels = labels;

  VerticalSplitSpec spec;
  spec.party_columns = {{0, 1, 2, 3, 4, 5}, {6, 7, 8, 9, 10, 11}};
  auto shards = PartitionVertically(data, spec, 1);
  ASSERT_TRUE(shards.ok());

  FedConfig seq = FastConfig();
  seq.gbdt.min_split_gain = 5.0;  // kill B's spurious noise splits
  FedConfig opt = seq;
  opt.optimistic = true;

  auto r_seq = FedTrainer(seq).Train(shards.value());
  auto r_opt = FedTrainer(opt).Train(shards.value());
  ASSERT_TRUE(r_seq.ok()) << r_seq.status().ToString();
  ASSERT_TRUE(r_opt.ok()) << r_opt.status().ToString();

  // Nearly every split belongs to A; B's optimistic actions were leaves
  // that validation overturned.
  EXPECT_GT(Count(*r_opt, "splits_a"), 0u);
  EXPECT_GT(Count(*r_opt, "dirty_nodes"),
            Count(*r_opt, "optimistic_splits"))
      << "expected leaf->split corrections beyond rolled-back B splits";

  // Still exactly equivalent to the sequential protocol.
  auto p_seq = r_seq->ToJointModel(spec)->PredictRaw(data.features);
  auto p_opt = r_opt->ToJointModel(spec)->PredictRaw(data.features);
  for (size_t i = 0; i < p_seq.size(); ++i) {
    ASSERT_DOUBLE_EQ(p_seq[i], p_opt[i]);
  }
  // And the model actually uses A's informative features.
  EXPECT_GT(Auc(p_opt, data.labels), 0.8);
}

TEST(FedTrainerTest, InputValidation) {
  Fixture f = MakeFixture(100, 8, 0.5, {0.5, 0.5}, 47);
  FedTrainer trainer(FastConfig());

  // Too few parties.
  EXPECT_FALSE(trainer.Train({f.shards[1]}).ok());
  // B without labels.
  std::vector<Dataset> no_labels = {f.shards[0], f.shards[0]};
  EXPECT_FALSE(trainer.Train(no_labels).ok());
  // A with labels (privacy violation).
  std::vector<Dataset> leak = {f.shards[1], f.shards[1]};
  EXPECT_FALSE(trainer.Train(leak).ok());
  // Misaligned rows.
  Fixture f2 = MakeFixture(120, 8, 0.5, {0.5, 0.5}, 48);
  std::vector<Dataset> misaligned = {f2.shards[0], f.shards[1]};
  EXPECT_FALSE(trainer.Train(misaligned).ok());
}

TEST(FedTrainerTest, ToJointModelValidation) {
  Fixture f = MakeFixture(300, 8, 0.5, {0.5, 0.5}, 49);
  auto result = FedTrainer(FastConfig()).Train(f.shards);
  ASSERT_TRUE(result.ok());
  VerticalSplitSpec bad;
  bad.party_columns = {{0, 1}};  // wrong party count
  EXPECT_FALSE(result->ToJointModel(bad).ok());
}

}  // namespace
}  // namespace vf2boost

#include "fedlr/fed_lr.h"

#include <gtest/gtest.h>

#include <cmath>

#include "data/synthetic.h"
#include "metrics/metrics.h"

namespace vf2boost {
namespace {

// Sums counter `name` over both parties of an LR run (see obs::PartySum).
size_t Count(const FedLrResult& r, const char* name) {
  return static_cast<size_t>(obs::PartySum(r.metrics, "party_", name));
}

struct LrFixture {
  Dataset train;
  Dataset valid;
  VerticalSplitSpec spec;
  Dataset shard_a;
  Dataset shard_b;
};

LrFixture MakeFixture(size_t rows, size_t cols, uint64_t seed) {
  SyntheticSpec sspec;
  sspec.rows = rows;
  sspec.cols = cols;
  sspec.density = 0.6;
  sspec.seed = seed;
  Dataset all = GenerateSynthetic(sspec);
  LrFixture f;
  Rng rng(seed + 1);
  TrainValidSplit(all, 0.8, &rng, &f.train, &f.valid);
  f.spec = SplitColumnsRandomly(cols, {0.5, 0.5}, &rng);
  auto shards = PartitionVertically(f.train, f.spec, 1);
  EXPECT_TRUE(shards.ok());
  f.shard_a = std::move((*shards)[0]);
  f.shard_b = std::move((*shards)[1]);
  return f;
}

TEST(PlainLrTest, LearnsLinearTask) {
  LrFixture f = MakeFixture(2000, 12, 81);
  LrParams params;
  params.epochs = 20;
  params.learning_rate = 0.3;
  auto model = PlainLrTrainer(params).Train(f.train);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  // The synthetic labels come from a linear teacher: LR should do well.
  EXPECT_GT(Auc(model->PredictRaw(f.valid.features), f.valid.labels), 0.8);
}

TEST(PlainLrTest, TaylorSurrogateAlsoLearns) {
  LrFixture f = MakeFixture(2000, 12, 83);
  LrParams params;
  params.epochs = 20;
  params.learning_rate = 0.3;
  params.taylor = true;
  auto model = PlainLrTrainer(params).Train(f.train);
  ASSERT_TRUE(model.ok());
  EXPECT_GT(Auc(model->PredictRaw(f.valid.features), f.valid.labels), 0.8);
}

TEST(PlainLrTest, RejectsBadInput) {
  Dataset empty;
  EXPECT_FALSE(PlainLrTrainer(LrParams{}).Train(empty).ok());
  LrFixture f = MakeFixture(100, 4, 85);
  Dataset unlabeled = f.shard_a;
  EXPECT_FALSE(PlainLrTrainer(LrParams{}).Train(unlabeled).ok());
}

TEST(LrBatchTest, ScheduleIsDeterministicAndCoversEpoch) {
  LrParams params;
  params.batch_size = 64;
  params.seed = 5;
  const size_t n = 200;
  EXPECT_EQ(LrBatchesPerEpoch(n, params), 4u);
  std::vector<bool> seen(n, false);
  size_t total = 0;
  for (size_t b = 0; b < 4; ++b) {
    const auto batch = LrBatchIndices(n, params, /*epoch=*/2, b);
    const auto again = LrBatchIndices(n, params, 2, b);
    EXPECT_EQ(batch, again);
    for (uint32_t i : batch) {
      EXPECT_FALSE(seen[i]) << "instance repeated within epoch";
      seen[i] = true;
    }
    total += batch.size();
  }
  EXPECT_EQ(total, n);
  // Different epochs shuffle differently.
  EXPECT_NE(LrBatchIndices(n, params, 0, 0), LrBatchIndices(n, params, 1, 0));
}

class FedLrModeTest : public ::testing::TestWithParam<bool> {};

TEST_P(FedLrModeTest, MatchesCentralizedTaylorReference) {
  LrFixture f = MakeFixture(600, 10, 87);
  FedLrConfig config;
  config.mock_crypto = !GetParam();
  config.paillier_bits = 256;
  config.lr.epochs = 3;
  config.lr.batch_size = 128;
  config.lr.learning_rate = 0.3;
  config.lr.seed = 7;

  auto fed = FedLrTrainer(config).Train(f.shard_a, f.shard_b);
  ASSERT_TRUE(fed.ok()) << fed.status().ToString();
  auto joint = fed->ToJointModel(f.spec);
  ASSERT_TRUE(joint.ok());

  // Reference: centralized trainer with the identical Taylor gradient and
  // batch schedule. The two must coincide up to fixed-point noise.
  LrParams ref_params = config.lr;
  ref_params.taylor = true;
  auto ref = PlainLrTrainer(ref_params).Train(f.train);
  ASSERT_TRUE(ref.ok());

  double max_diff = std::fabs(joint->bias - ref->bias);
  for (size_t j = 0; j < ref->weights.size(); ++j) {
    max_diff = std::max(max_diff,
                        std::fabs(joint->weights[j] - ref->weights[j]));
  }
  EXPECT_LT(max_diff, 1e-4) << "federated LR diverged from the reference";
}

INSTANTIATE_TEST_SUITE_P(MockAndPaillier, FedLrModeTest,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Paillier" : "Mock";
                         });

TEST(FedLrTest, LearnsAndBeatsPartyBOnly) {
  LrFixture f = MakeFixture(2500, 16, 89);
  FedLrConfig config;
  config.mock_crypto = true;
  config.lr.epochs = 15;
  config.lr.learning_rate = 0.3;
  auto fed = FedLrTrainer(config).Train(f.shard_a, f.shard_b);
  ASSERT_TRUE(fed.ok()) << fed.status().ToString();
  auto joint = fed->ToJointModel(f.spec);
  ASSERT_TRUE(joint.ok());
  const double fed_auc =
      Auc(joint->PredictRaw(f.valid.features), f.valid.labels);
  EXPECT_GT(fed_auc, 0.78);

  LrParams b_params = config.lr;
  auto b_model = PlainLrTrainer(b_params).Train(f.shard_b);
  ASSERT_TRUE(b_model.ok());
  Dataset b_valid;
  b_valid.features = f.valid.features.SelectColumns(f.spec.party_columns[1]);
  const double b_auc =
      Auc(b_model->PredictRaw(b_valid.features), f.valid.labels);
  EXPECT_GT(fed_auc, b_auc + 0.02) << "party A's features should lift AUC";
}

TEST(FedLrTest, ReorderedReducesScalings) {
  LrFixture f = MakeFixture(400, 8, 91);
  FedLrConfig base;
  base.mock_crypto = true;
  base.lr.epochs = 2;
  base.reordered = false;
  FedLrConfig reordered = base;
  reordered.reordered = true;

  auto r0 = FedLrTrainer(base).Train(f.shard_a, f.shard_b);
  auto r1 = FedLrTrainer(reordered).Train(f.shard_a, f.shard_b);
  ASSERT_TRUE(r0.ok());
  ASSERT_TRUE(r1.ok());
  EXPECT_LT(Count(*r1, "scalings"), Count(*r0, "scalings") / 2)
      << "the paper's §5.1 claim carries to LR";
  // Same model either way.
  auto j0 = r0->ToJointModel(f.spec);
  auto j1 = r1->ToJointModel(f.spec);
  for (size_t j = 0; j < j0->weights.size(); ++j) {
    EXPECT_NEAR(j0->weights[j], j1->weights[j], 1e-6);
  }
}

TEST(FedLrTest, PackingCutsDecryptionsAndBytes) {
  LrFixture f = MakeFixture(400, 8, 93);
  FedLrConfig raw;
  raw.mock_crypto = true;
  raw.lr.epochs = 2;
  raw.packing = false;
  FedLrConfig packed = raw;
  packed.packing = true;

  auto r0 = FedLrTrainer(raw).Train(f.shard_a, f.shard_b);
  auto r1 = FedLrTrainer(packed).Train(f.shard_a, f.shard_b);
  ASSERT_TRUE(r0.ok());
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  EXPECT_GT(Count(*r1, "packs"), 0u);
  EXPECT_LT(Count(*r1, "decryptions"), Count(*r0, "decryptions"));
  auto j0 = r0->ToJointModel(f.spec);
  auto j1 = r1->ToJointModel(f.spec);
  for (size_t j = 0; j < j0->weights.size(); ++j) {
    EXPECT_NEAR(j0->weights[j], j1->weights[j], 1e-5);
  }
}

TEST(FedLrTest, InputValidation) {
  LrFixture f = MakeFixture(100, 6, 95);
  FedLrConfig config;
  config.mock_crypto = true;
  // A with labels.
  EXPECT_FALSE(FedLrTrainer(config).Train(f.shard_b, f.shard_b).ok());
  // B without labels.
  EXPECT_FALSE(FedLrTrainer(config).Train(f.shard_a, f.shard_a).ok());
  // Bad config.
  FedLrConfig bad = config;
  bad.lr.learning_rate = 0;
  EXPECT_FALSE(FedLrTrainer(bad).Train(f.shard_a, f.shard_b).ok());
  bad = config;
  bad.mock_crypto = false;
  bad.paillier_bits = 31;
  EXPECT_FALSE(FedLrTrainer(bad).Train(f.shard_a, f.shard_b).ok());
}

}  // namespace
}  // namespace vf2boost

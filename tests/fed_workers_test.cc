// Intra-party worker parallelism: the scheduler-worker decomposition must
// change only the schedule, never the protocol semantics or model quality.

#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <span>
#include <tuple>

#include "data/partition.h"
#include "data/synthetic.h"
#include "fed/enc_histogram.h"
#include "fed/fed_trainer.h"
#include "gbdt/model_io.h"
#include "metrics/metrics.h"

namespace vf2boost {
namespace {

// (pool threads, root in uneven batches, gh stream, reordered).
using ShardCase = std::tuple<size_t, bool, bool, bool>;

class ParallelHistogramTest : public ::testing::TestWithParam<ShardCase> {};

// Whatever the pool size or the batching of the rows, the sharded builder
// must decrypt, bin for bin, to the serial build fed every row at once.
TEST_P(ParallelHistogramTest, ShardMergeMatchesSerialBuild) {
  const auto [threads, batched, gh, reordered] = GetParam();
  SyntheticSpec spec;
  spec.rows = 500;
  spec.cols = 8;
  spec.density = 0.5;
  spec.seed = 55;
  Dataset data = GenerateSynthetic(spec);
  BinCuts cuts = ComputeBinCuts(data.features, 6);
  BinnedMatrix binned = BinnedMatrix::FromCsr(data.features, cuts);
  FeatureLayout layout = FeatureLayout::FromCuts(cuts);

  const FixedPointCodec codec(16, 6, 4);
  MockBackend backend(codec);
  auto gh_layout = MakeGhPackLayout(codec, data.rows(), /*value_bound=*/4.0,
                                    backend.plain_modulus().BitLength());
  ASSERT_TRUE(gh_layout.ok()) << gh_layout.status().ToString();
  Rng rng(5);
  std::vector<Cipher> g, h, packed;
  for (size_t i = 0; i < data.rows(); ++i) {
    const double gv = rng.NextGaussian();
    const double hv = 0.25 * rng.NextDouble();
    g.push_back(backend.Encrypt(gv, &rng));
    h.push_back(backend.Encrypt(hv, &rng));
    Cipher c;
    c.exponent = gh_layout->exponent;
    c.data = backend.EncryptRaw(EncodeGhPair(*gh_layout, gv, hv), &rng);
    packed.push_back(std::move(c));
  }
  std::vector<const std::vector<Cipher>*> streams = {&g, &h};
  if (gh) streams = {&packed};
  std::vector<uint32_t> all(data.rows());
  std::iota(all.begin(), all.end(), 0);

  auto decrypt = [&](const EncryptedHistogram& hist) {
    auto out = gh ? DecryptRawGhHistogram(hist.gh_bins, layout, *gh_layout,
                                          backend, nullptr)
                  : DecryptRawHistogram(hist.g_bins, hist.h_bins, layout,
                                        backend, nullptr);
    EXPECT_TRUE(out.ok()) << out.status().ToString();
    return std::move(out).value();
  };

  IncrementalHistogramBuilder serial(&binned, &layout, &backend, reordered,
                                     streams, /*pool=*/nullptr);
  serial.Add(all);
  const Histogram expected = decrypt(serial.Finalize(nullptr));

  std::unique_ptr<ThreadPool> pool;
  if (threads > 0) pool = std::make_unique<ThreadPool>(threads);
  IncrementalHistogramBuilder sharded(&binned, &layout, &backend, reordered,
                                      streams, pool.get());
  // Uneven batches: one below the pool cutoff, the rest spread over shards.
  const std::vector<size_t> sizes = batched
                                        ? std::vector<size_t>{40, 150, 97, 213}
                                        : std::vector<size_t>{500};
  size_t start = 0;
  for (size_t n : sizes) {
    sharded.Add(std::span<const uint32_t>(all).subspan(start, n));
    start += n;
  }
  ASSERT_EQ(start, data.rows());
  const Histogram got = decrypt(sharded.Finalize(nullptr));

  ASSERT_EQ(got.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(got.bin(i).g, expected.bin(i).g) << "bin " << i;
    EXPECT_EQ(got.bin(i).h, expected.bin(i).h) << "bin " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Builds, ParallelHistogramTest,
    ::testing::Combine(::testing::Values(size_t{0}, size_t{2}, size_t{4}),
                       ::testing::Bool(), ::testing::Bool(),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<ShardCase>& info) {
      return "pool" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "_batches" : "_one_batch") +
             (std::get<2>(info.param) ? "_gh" : "_classic") +
             (std::get<3>(info.param) ? "_reordered" : "_naive");
    });

struct WorkerFixture {
  Dataset train;
  Dataset valid;
  VerticalSplitSpec spec;
  std::vector<Dataset> shards;
};

WorkerFixture MakeFixture(uint64_t seed) {
  SyntheticSpec sspec;
  sspec.rows = 1200;
  sspec.cols = 14;
  sspec.density = 0.5;
  sspec.seed = seed;
  Dataset all = GenerateSynthetic(sspec);
  WorkerFixture f;
  Rng rng(seed + 1);
  TrainValidSplit(all, 0.8, &rng, &f.train, &f.valid);
  f.spec = SplitColumnsRandomly(14, {0.5, 0.5}, &rng);
  auto shards = PartitionVertically(f.train, f.spec, 1);
  EXPECT_TRUE(shards.ok());
  f.shards = std::move(shards).value();
  return f;
}

TEST(FedWorkersTest, MultiWorkerTrainingMatchesSingleWorkerQuality) {
  WorkerFixture f = MakeFixture(61);
  FedConfig base;
  base.mock_crypto = true;
  base.gbdt.num_trees = 6;
  base.gbdt.num_layers = 4;
  base.gbdt.max_bins = 8;

  FedConfig multi = base;
  multi.workers_per_party = 3;

  auto r1 = FedTrainer(base).Train(f.shards);
  auto r3 = FedTrainer(multi).Train(f.shards);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  ASSERT_TRUE(r3.ok()) << r3.status().ToString();

  const double auc1 = Auc(
      r1->ToJointModel(f.spec)->PredictRaw(f.valid.features), f.valid.labels);
  const double auc3 = Auc(
      r3->ToJointModel(f.spec)->PredictRaw(f.valid.features), f.valid.labels);
  EXPECT_NEAR(auc1, auc3, 0.03);
  EXPECT_GT(auc3, 0.65);
}

// The worker count changes only the schedule: with blaster splitting the
// root into several batches, every worker count trains the same model.
TEST(FedWorkersTest, WorkerCountLeavesModelByteIdentical) {
  WorkerFixture f = MakeFixture(67);
  for (bool mock : {true, false}) {
    FedConfig config = FedConfig::Vf2Boost();
    config.mock_crypto = mock;
    config.paillier_bits = 256;
    config.blaster_batch = 200;  // 960 training rows: 5 batches
    config.gbdt.num_trees = 2;
    config.gbdt.num_layers = 4;
    config.gbdt.max_bins = 6;
    std::string reference;
    for (size_t workers : {1, 2, 3}) {
      config.workers_per_party = workers;
      auto result = FedTrainer(config).Train(f.shards);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      auto joint = result->ToJointModel(f.spec);
      ASSERT_TRUE(joint.ok()) << joint.status().ToString();
      const std::string text = ModelToString(*joint);
      if (workers == 1) {
        reference = text;
      } else {
        EXPECT_EQ(text, reference)
            << (mock ? "mock" : "paillier") << ", workers " << workers;
      }
    }
  }
}

TEST(FedWorkersTest, MultiWorkerWithAllOptimizationsAndRealCrypto) {
  WorkerFixture f = MakeFixture(63);
  FedConfig config = FedConfig::Vf2Boost();
  config.paillier_bits = 256;
  config.workers_per_party = 2;
  config.gbdt.num_trees = 2;
  config.gbdt.num_layers = 3;
  config.gbdt.max_bins = 6;
  auto result = FedTrainer(config).Train(f.shards);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->model.trees.size(), 2u);
  EXPECT_GT(obs::PartySum(result->metrics, "party_b", "encryptions"), 0);
}

}  // namespace
}  // namespace vf2boost

// Golden models: the joint model of a few fixed in-process federated runs
// must equal, byte for byte, the model recorded in tests/golden/. A change
// that claims "same splits, same model" (a new histogram schedule, a new
// decoder, a refactor) is held to that here instead of by a hand check.
//
// The fixtures are written by this same file: built with -DVF2_GOLDEN_WRITE
// (and VF2_GOLDEN_DIR pointing at an output directory) against the library
// whose models they record, it writes each model instead of comparing it.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "data/partition.h"
#include "data/synthetic.h"
#include "fed/fed_trainer.h"
#include "gbdt/model_io.h"

namespace vf2boost {
namespace {

struct GoldenCase {
  const char* name;
  FedConfig config;
  std::vector<double> fractions;  ///< column shares, A parties first, B last
};

FedConfig Shaped(FedConfig config) {
  config.paillier_bits = 512;
  config.gbdt.num_trees = 3;
  config.gbdt.num_layers = 5;
  config.gbdt.max_bins = 8;
  config.workers_per_party = 2;
  return config;
}

std::vector<GoldenCase> Cases() {
  FedConfig classic_packed = FedConfig::Vf2Boost();
  classic_packed.gh_pack = false;
  classic_packed.codec_num_exponents = 1;
  return {
      {"vf2boost", Shaped(FedConfig::Vf2Boost()), {0.5, 0.5}},
      {"vf2boost_no_gh_pack_e1", Shaped(classic_packed), {0.5, 0.5}},
      {"vfgbdt", Shaped(FedConfig::VfGbdt()), {0.5, 0.5}},
      {"mock_3party", Shaped(FedConfig::VfMock()), {0.35, 0.35, 0.3}},
  };
}

// Trains `c` on a fixed synthetic dataset and serializes its joint model.
std::string TrainJointModel(const GoldenCase& c) {
  SyntheticSpec spec;
  spec.rows = 400;
  spec.cols = 12;
  spec.density = 0.8;
  spec.seed = 2027;
  const Dataset all = GenerateSynthetic(spec);
  Rng rng(2028);
  const VerticalSplitSpec split =
      SplitColumnsRandomly(spec.cols, c.fractions, &rng);
  auto shards = PartitionVertically(all, split, c.fractions.size() - 1);
  EXPECT_TRUE(shards.ok()) << shards.status().ToString();
  if (!shards.ok()) return "";
  auto result = FedTrainer(c.config).Train(*shards);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (!result.ok()) return "";
  auto joint = result->ToJointModel(split);
  EXPECT_TRUE(joint.ok()) << joint.status().ToString();
  return joint.ok() ? ModelToString(*joint) : "";
}

std::string FixturePath(const GoldenCase& c) {
  return std::string(VF2_GOLDEN_DIR) + "/" + c.name + ".model";
}

class GoldenModelTest : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(GoldenModelTest, MatchesTheRecordedModel) {
  const std::string model = TrainJointModel(GetParam());
  ASSERT_FALSE(model.empty());
#ifdef VF2_GOLDEN_WRITE
  std::ofstream(FixturePath(GetParam()), std::ios::binary) << model;
#else
  std::ifstream in(FixturePath(GetParam()), std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing fixture " << FixturePath(GetParam());
  std::stringstream golden;
  golden << in.rdbuf();
  // Compared whole, so a mismatch names no line; the model text is short
  // enough to diff by hand from the two strings gtest prints.
  EXPECT_EQ(model, golden.str());
#endif
}

INSTANTIATE_TEST_SUITE_P(
    Runs, GoldenModelTest, ::testing::ValuesIn(Cases()),
    [](const ::testing::TestParamInfo<GoldenCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace vf2boost

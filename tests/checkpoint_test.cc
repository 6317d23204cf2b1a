#include "fed/checkpoint.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "data/binning.h"
#include "fed/protocol.h"

namespace vf2boost {
namespace {

std::string TempDir(const std::string& name) {
  return ::testing::TempDir() + "vf2_ckpt_" + name;
}

Tree MakeTree(uint32_t salt) {
  Tree tree;
  // AddNode may reallocate, so never hold a node reference across it.
  const int32_t left = tree.AddNode();
  const int32_t right = tree.AddNode();
  tree.node(0).left = left;
  tree.node(0).right = right;
  tree.node(0).feature = 3 + salt;
  tree.node(0).split_value = 0.25f * static_cast<float>(salt + 1);
  tree.node(0).split_bin = 7;
  tree.node(0).default_left = (salt % 2) == 0;
  tree.node(0).owner_party = static_cast<int32_t>(salt % 3);
  tree.node(0).gain = 1.5 + salt;
  tree.node(left).weight = -0.5 - salt;
  tree.node(right).weight = 0.75 + salt;
  return tree;
}

PartyBCheckpoint MakeBCheckpoint() {
  PartyBCheckpoint ckpt;
  ckpt.config_fingerprint = 0xfeedULL;
  ckpt.completed_trees = 2;
  ckpt.base_score = 0.125;
  ckpt.trees = {MakeTree(0), MakeTree(1)};
  ckpt.scores = {0.5, -1.25, 3.0};
  EvalRecord rec;
  rec.tree_index = 1;
  rec.elapsed_seconds = 2.5;
  rec.train_loss = 0.31;
  ckpt.log = {rec, rec};
  return ckpt;
}

void ExpectTreesEqual(const std::vector<Tree>& a, const std::vector<Tree>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t t = 0; t < a.size(); ++t) {
    ASSERT_EQ(a[t].size(), b[t].size());
    for (size_t i = 0; i < a[t].size(); ++i) {
      const TreeNode& x = a[t].node(static_cast<int32_t>(i));
      const TreeNode& y = b[t].node(static_cast<int32_t>(i));
      EXPECT_EQ(x.left, y.left);
      EXPECT_EQ(x.right, y.right);
      EXPECT_EQ(x.feature, y.feature);
      EXPECT_EQ(x.split_value, y.split_value);
      EXPECT_EQ(x.split_bin, y.split_bin);
      EXPECT_EQ(x.default_left, y.default_left);
      EXPECT_EQ(x.owner_party, y.owner_party);
      EXPECT_EQ(x.weight, y.weight);
      EXPECT_EQ(x.gain, y.gain);
    }
  }
}

TEST(CheckpointTest, PartyBRoundTripsThroughBytes) {
  const PartyBCheckpoint ckpt = MakeBCheckpoint();
  const std::vector<uint8_t> bytes = SerializePartyBCheckpoint(ckpt);
  PartyBCheckpoint back;
  ASSERT_TRUE(DeserializePartyBCheckpoint(bytes, &back).ok());
  EXPECT_EQ(back.config_fingerprint, ckpt.config_fingerprint);
  EXPECT_EQ(back.completed_trees, ckpt.completed_trees);
  EXPECT_EQ(back.base_score, ckpt.base_score);
  EXPECT_EQ(back.scores, ckpt.scores);
  ASSERT_EQ(back.log.size(), ckpt.log.size());
  EXPECT_EQ(back.log[0].tree_index, ckpt.log[0].tree_index);
  EXPECT_EQ(back.log[0].train_loss, ckpt.log[0].train_loss);
  ExpectTreesEqual(back.trees, ckpt.trees);
}

TEST(CheckpointTest, PartyBRoundTripsThroughDisk) {
  const std::string dir = TempDir("b_disk");
  const PartyBCheckpoint ckpt = MakeBCheckpoint();
  ASSERT_TRUE(SavePartyBCheckpoint(ckpt, dir).ok());
  Result<PartyBCheckpoint> back = LoadPartyBCheckpoint(dir);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->completed_trees, 2u);
  ExpectTreesEqual(back->trees, ckpt.trees);
  // Saving again overwrites atomically; the latest state wins.
  PartyBCheckpoint newer = ckpt;
  newer.completed_trees = 3;
  newer.trees.push_back(MakeTree(2));
  ASSERT_TRUE(SavePartyBCheckpoint(newer, dir).ok());
  EXPECT_EQ(LoadPartyBCheckpoint(dir)->completed_trees, 3u);
}

TEST(CheckpointTest, MissingFileIsNotFound) {
  Result<PartyBCheckpoint> r = LoadPartyBCheckpoint(TempDir("missing"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(CheckpointTest, CorruptFileIsRejected) {
  const std::string dir = TempDir("corrupt");
  ASSERT_TRUE(SavePartyBCheckpoint(MakeBCheckpoint(), dir).ok());
  const std::string path = PartyBCheckpointPath(dir);

  // Flip one byte in the middle of the file.
  std::ifstream in(path, std::ios::binary);
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  in.close();
  bytes[bytes.size() / 2] ^= 0x01;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();

  Result<PartyBCheckpoint> r = LoadPartyBCheckpoint(dir);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
}

TEST(CheckpointTest, TruncatedFileIsRejected) {
  const std::string dir = TempDir("truncated");
  ASSERT_TRUE(SavePartyBCheckpoint(MakeBCheckpoint(), dir).ok());
  const std::string path = PartyBCheckpointPath(dir);
  std::ifstream in(path, std::ios::binary);
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  in.close();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  out.close();
  EXPECT_EQ(LoadPartyBCheckpoint(dir).status().code(),
            StatusCode::kCorruption);
}

TEST(CheckpointTest, ConfigFingerprintTracksModelDeterminingKnobs) {
  FedConfig base = FedConfig::VfMock();
  const uint64_t fp = base.Fingerprint();
  EXPECT_EQ(fp, FedConfig::VfMock().Fingerprint());  // deterministic

  FedConfig changed = base;
  changed.seed += 1;
  EXPECT_NE(changed.Fingerprint(), fp);
  changed = base;
  changed.gbdt.num_trees += 1;
  EXPECT_NE(changed.Fingerprint(), fp);
  changed = base;
  changed.gbdt.learning_rate *= 2;
  EXPECT_NE(changed.Fingerprint(), fp);
  changed = base;
  changed.optimistic = !changed.optimistic;
  EXPECT_NE(changed.Fingerprint(), fp);

  // Transport and observability knobs do NOT affect the model: a resumed
  // run may use different deadlines, faults, or machines.
  changed = base;
  changed.network.default_deadline_seconds = 9.0;
  changed.network.heartbeat_interval_seconds = 0.05;
  changed.network.heal_after_seconds = 0.5;
  changed.network.reconnect_max_attempts = 7;
  changed.workers_per_party = 4;
  EXPECT_EQ(changed.Fingerprint(), fp);
}

TEST(CheckpointTest, HashCutsTracksCutValues) {
  BinCuts cuts;
  cuts.cuts = {{0.1f, 0.5f, 1.0f}, {2.0f}};
  const uint64_t h = HashCuts(cuts);
  EXPECT_EQ(h, HashCuts(cuts));
  BinCuts other = cuts;
  other.cuts[1][0] = 2.5f;
  EXPECT_NE(HashCuts(other), h);
  BinCuts reshaped;
  reshaped.cuts = {{0.1f, 0.5f}, {1.0f, 2.0f}};  // same values, new shape
  EXPECT_NE(HashCuts(reshaped), h);
}

}  // namespace
}  // namespace vf2boost

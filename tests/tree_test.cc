// Unit coverage of the Tree / GbdtModel structures: traversal semantics,
// leaf-index prediction, and instance-weight training.

#include "gbdt/tree.h"

#include <gtest/gtest.h>

#include <set>

#include "data/synthetic.h"
#include "gbdt/trainer.h"
#include "metrics/metrics.h"

namespace vf2boost {
namespace {

// Builds:        f0 < 2.0
//               /        \  (f0 >= 2.0)
//          leaf(-1)    f1 < 5.0 (default-right)
//                      /      \  (f1 >= 5.0)
//                 leaf(+1)  leaf(+3)
Tree HandTree() {
  Tree tree;
  const int32_t l0 = tree.AddNode();
  const int32_t n1 = tree.AddNode();
  TreeNode& root = tree.node(0);
  root.feature = 0;
  root.split_value = 2.0f;
  root.default_left = true;
  root.left = l0;
  root.right = n1;
  tree.node(l0).weight = -1.0;
  const int32_t l1 = tree.AddNode();
  const int32_t l2 = tree.AddNode();
  TreeNode& mid = tree.node(n1);
  mid.feature = 1;
  mid.split_value = 5.0f;
  mid.default_left = false;
  mid.left = l1;
  mid.right = l2;
  tree.node(l1).weight = 1.0;
  tree.node(l2).weight = 3.0;
  return tree;
}

CsrMatrix Rows(const std::vector<std::vector<Entry>>& rows) {
  return CsrMatrix::FromRows(rows, 2).value();
}

TEST(TreeTest, StructureAccessors) {
  Tree tree = HandTree();
  EXPECT_EQ(tree.size(), 5u);
  EXPECT_EQ(tree.NumLeaves(), 3u);
  EXPECT_EQ(tree.Depth(), 2u);
}

TEST(TreeTest, TraversalSemantics) {
  Tree tree = HandTree();
  // f0=1 -> left leaf.
  EXPECT_EQ(tree.Predict(Rows({{{0, 1.0f}}}), 0), -1.0);
  // f0=3, f1=4 -> mid, 4<5 -> left leaf (+1).
  EXPECT_EQ(tree.Predict(Rows({{{0, 3.0f}, {1, 4.0f}}}), 0), 1.0);
  // f0=3, f1=6 -> right leaf (+3).
  EXPECT_EQ(tree.Predict(Rows({{{0, 3.0f}, {1, 6.0f}}}), 0), 3.0);
  // f0 missing -> default left at root.
  EXPECT_EQ(tree.Predict(Rows({{{1, 9.0f}}}), 0), -1.0);
  // f0=3, f1 missing -> default RIGHT at mid node (+3).
  EXPECT_EQ(tree.Predict(Rows({{{0, 3.0f}}}), 0), 3.0);
}

TEST(TreeTest, PredictLeafMatchesPredict) {
  Tree tree = HandTree();
  CsrMatrix x = Rows({{{0, 1.0f}},
                      {{0, 3.0f}, {1, 4.0f}},
                      {{0, 3.0f}, {1, 6.0f}},
                      {}});
  for (size_t r = 0; r < x.rows(); ++r) {
    const int32_t leaf = tree.PredictLeaf(x, r);
    EXPECT_TRUE(tree.node(leaf).is_leaf());
    EXPECT_EQ(tree.node(leaf).weight, tree.Predict(x, r));
  }
}

TEST(TreeTest, PredictRawTreePrefix) {
  SyntheticSpec spec;
  spec.rows = 200;
  spec.cols = 6;
  spec.density = 0.6;
  spec.seed = 46;
  Dataset data = GenerateSynthetic(spec);
  GbdtParams params;
  params.num_trees = 6;
  params.num_layers = 3;
  auto model = GbdtTrainer(params).Train(data);
  ASSERT_TRUE(model.ok());
  // Prefix predictions are monotone refinements: tree k prefix equals full
  // model with trees truncated.
  GbdtModel truncated = model.value();
  truncated.trees.resize(3);
  const auto full_prefix = model->PredictRaw(data.features, 3);
  const auto trunc = truncated.PredictRaw(data.features);
  for (size_t r = 0; r < data.rows(); ++r) {
    ASSERT_DOUBLE_EQ(full_prefix[r], trunc[r]);
  }
}

TEST(WeightedTrainingTest, DuplicationEqualsWeightTwo) {
  // Training with instance i duplicated must equal training with w_i = 2 —
  // the defining property of instance weights.
  SyntheticSpec spec;
  spec.rows = 300;
  spec.cols = 8;
  spec.density = 0.6;
  spec.seed = 48;
  Dataset base = GenerateSynthetic(spec);

  // Duplicate the first 50 rows.
  std::vector<size_t> dup_rows;
  for (size_t r = 0; r < base.rows(); ++r) dup_rows.push_back(r);
  for (size_t r = 0; r < 50; ++r) dup_rows.push_back(r);
  Dataset duplicated;
  duplicated.features = base.features.SelectRows(dup_rows);
  for (size_t r : dup_rows) duplicated.labels.push_back(base.labels[r]);

  Dataset weighted = base;
  weighted.weights.assign(base.rows(), 1.0f);
  for (size_t r = 0; r < 50; ++r) weighted.weights[r] = 2.0f;

  GbdtParams params;
  params.num_trees = 4;
  params.num_layers = 4;
  auto m_dup = GbdtTrainer(params).Train(duplicated);
  auto m_w = GbdtTrainer(params).Train(weighted);
  ASSERT_TRUE(m_dup.ok());
  ASSERT_TRUE(m_w.ok());

  // Same data distribution -> same split decisions -> identical predictions
  // on the base rows. (Bin cuts differ slightly because the duplicated set
  // feeds more values into the sketches; compare predictions, allowing tiny
  // drift from cut placement.)
  const auto p_dup = m_dup->PredictRaw(base.features);
  const auto p_w = m_w->PredictRaw(base.features);
  double mean_diff = 0;
  for (size_t r = 0; r < base.rows(); ++r) {
    mean_diff += std::fabs(p_dup[r] - p_w[r]);
  }
  mean_diff /= static_cast<double>(base.rows());
  EXPECT_LT(mean_diff, 0.05);
}

TEST(WeightedTrainingTest, UpweightedClassDominates) {
  // Give positives 10x weight: the model's mean prediction must rise.
  SyntheticSpec spec;
  spec.rows = 800;
  spec.cols = 8;
  spec.density = 0.6;
  spec.seed = 50;
  Dataset data = GenerateSynthetic(spec);
  Dataset upweighted = data;
  upweighted.weights.assign(data.rows(), 1.0f);
  for (size_t r = 0; r < data.rows(); ++r) {
    if (data.labels[r] > 0.5f) upweighted.weights[r] = 10.0f;
  }
  GbdtParams params;
  params.num_trees = 5;
  params.num_layers = 4;
  auto base = GbdtTrainer(params).Train(data);
  auto up = GbdtTrainer(params).Train(upweighted);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(up.ok());
  auto mean = [&](const GbdtModel& m) {
    double s = 0;
    for (double v : m.PredictRaw(data.features)) s += v;
    return s / static_cast<double>(data.rows());
  };
  EXPECT_GT(mean(up.value()), mean(base.value()) + 0.1);
}

}  // namespace
}  // namespace vf2boost

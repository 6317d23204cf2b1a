#ifndef VF2BOOST_GBDT_TREE_H_
#define VF2BOOST_GBDT_TREE_H_

#include <cstdint>
#include <vector>

#include "data/matrix.h"
#include "gbdt/types.h"

namespace vf2boost {

/// \brief One decision-tree node.
///
/// Plain (non-federated) models set owner_party = -1 and use `feature` as a
/// global column id. Federated models set owner_party to the party that owns
/// the split and `feature` to that party's local column id; our evaluation
/// harness maps these back to global ids via the VerticalSplitSpec (a real
/// deployment would instead evaluate each node inside its owner party —
/// paper §3.2, "only one party knows the actual split information").
struct TreeNode {
  int32_t left = -1;   ///< child index; -1 on leaves
  int32_t right = -1;
  uint32_t feature = 0;
  float split_value = 0;
  /// Split candidate bin (federated nodes are decided at bin granularity —
  /// split_value is only recoverable by the owner party's cuts).
  uint32_t split_bin = 0;
  bool default_left = true;
  int32_t owner_party = -1;
  double weight = 0;  ///< leaf value
  double gain = 0;    ///< loss reduction of this split (0 on leaves)

  bool is_leaf() const { return left < 0; }
};

/// \brief A decision tree stored as a flat node array (node 0 is the root).
class Tree {
 public:
  Tree() { nodes_.emplace_back(); }

  int32_t AddNode() {
    nodes_.emplace_back();
    return static_cast<int32_t>(nodes_.size()) - 1;
  }

  size_t size() const { return nodes_.size(); }
  TreeNode& node(int32_t i) { return nodes_[i]; }
  const TreeNode& node(int32_t i) const { return nodes_[i]; }

  /// Number of leaves.
  size_t NumLeaves() const;
  /// Depth of the deepest leaf (root = 0).
  size_t Depth() const;

  /// Evaluates the tree on one row. Sparse-zero values follow the split's
  /// default direction (they were never binned during training). Requires a
  /// joint view where `feature` is a global column (owner_party == -1).
  double Predict(const CsrMatrix& x, size_t row) const;

  /// Index of the leaf the row lands in (same traversal as Predict).
  int32_t PredictLeaf(const CsrMatrix& x, size_t row) const;

 private:
  std::vector<TreeNode> nodes_;
};

/// \brief A trained GBDT model: ensemble of trees plus shrinkage.
struct GbdtModel {
  GbdtParams params;
  double base_score = 0;
  std::vector<Tree> trees;

  /// Raw scores (pre-sigmoid for logistic) of every row, using the first
  /// `num_trees` trees (0 = all).
  std::vector<double> PredictRaw(const CsrMatrix& x,
                                 size_t num_trees = 0) const;
  /// Sigmoid probabilities (logistic objective).
  std::vector<double> PredictProba(const CsrMatrix& x) const;
};

}  // namespace vf2boost

#endif  // VF2BOOST_GBDT_TREE_H_

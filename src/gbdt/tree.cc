#include "gbdt/tree.h"

#include <cmath>
#include <functional>

#include "common/logging.h"

namespace vf2boost {

size_t Tree::NumLeaves() const {
  size_t leaves = 0;
  for (const TreeNode& n : nodes_) {
    if (n.is_leaf()) ++leaves;
  }
  return leaves;
}

size_t Tree::Depth() const {
  std::function<size_t(int32_t)> depth = [&](int32_t i) -> size_t {
    const TreeNode& n = nodes_[i];
    if (n.is_leaf()) return 0;
    return 1 + std::max(depth(n.left), depth(n.right));
  };
  return depth(0);
}

int32_t Tree::PredictLeaf(const CsrMatrix& x, size_t row) const {
  int32_t cur = 0;
  while (!nodes_[cur].is_leaf()) {
    const TreeNode& n = nodes_[cur];
    VF2_DCHECK(n.owner_party < 0);
    const float v = x.At(row, n.feature);
    bool go_left;
    if (v == 0.0f) {
      go_left = n.default_left;
    } else {
      go_left = v < n.split_value;
    }
    cur = go_left ? n.left : n.right;
  }
  return cur;
}

double Tree::Predict(const CsrMatrix& x, size_t row) const {
  return nodes_[PredictLeaf(x, row)].weight;
}

std::vector<double> GbdtModel::PredictRaw(const CsrMatrix& x,
                                          size_t num_trees) const {
  if (num_trees == 0 || num_trees > trees.size()) num_trees = trees.size();
  std::vector<double> scores(x.rows(), base_score);
  for (size_t t = 0; t < num_trees; ++t) {
    for (size_t r = 0; r < x.rows(); ++r) {
      scores[r] += params.learning_rate * trees[t].Predict(x, r);
    }
  }
  return scores;
}

std::vector<double> GbdtModel::PredictProba(const CsrMatrix& x) const {
  std::vector<double> scores = PredictRaw(x);
  for (double& s : scores) s = 1.0 / (1.0 + std::exp(-s));
  return scores;
}

}  // namespace vf2boost

#include "gbdt/trainer.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "common/logging.h"
#include "common/timer.h"
#include "gbdt/loss.h"
#include "gbdt/split.h"
#include "metrics/metrics.h"

namespace vf2boost {

void PartitionInstances(const BinnedMatrix& x,
                        const std::vector<uint32_t>& instances,
                        uint32_t feature, uint32_t bin, bool default_left,
                        std::vector<uint32_t>* left,
                        std::vector<uint32_t>* right) {
  left->clear();
  right->clear();
  for (uint32_t i : instances) {
    (x.GoesLeft(i, feature, bin, default_left) ? left : right)->push_back(i);
  }
}

namespace {

// State of one node while its layer is processed.
struct ActiveNode {
  int32_t id = 0;
  std::vector<uint32_t> instances;
  GradPair total;
  Histogram hist;
};

GradPair SumGrads(const std::vector<GradPair>& grads,
                  const std::vector<uint32_t>& instances) {
  GradPair total;
  for (uint32_t i : instances) total += grads[i];
  return total;
}

}  // namespace

Result<GbdtModel> GbdtTrainer::Train(const Dataset& train, const Dataset* valid,
                                     std::vector<EvalRecord>* log) const {
  if (!train.has_labels()) {
    return Status::InvalidArgument("training data has no labels");
  }
  if (params_.num_layers < 1) {
    return Status::InvalidArgument("num_layers must be >= 1");
  }
  auto loss_or = MakeLoss(params_.objective);
  VF2_RETURN_IF_ERROR(loss_or.status());
  const Loss& loss = *loss_or.value();

  const BinCuts cuts = ComputeBinCuts(train.features, params_.max_bins);
  const BinnedMatrix binned = BinnedMatrix::FromCsr(train.features, cuts);
  const FeatureLayout layout = FeatureLayout::FromCuts(cuts);

  GbdtModel model;
  model.params = params_;
  model.base_score = 0;

  const size_t n = train.rows();
  std::vector<double> scores(n, model.base_score);
  std::vector<GradPair> grads;
  Stopwatch clock;
  Rng sampler(params_.seed);
  const bool row_sampling = params_.row_subsample < 1.0;
  const bool col_sampling = params_.col_subsample < 1.0;
  double best_valid_loss = std::numeric_limits<double>::infinity();
  size_t rounds_since_best = 0;

  for (size_t t = 0; t < params_.num_trees; ++t) {
    loss.Compute(scores, train.labels, &grads,
                 train.has_weights() ? &train.weights : nullptr);

    // Row subsampling: the tree is grown on a per-tree instance sample.
    std::vector<uint32_t> root_instances;
    root_instances.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      if (!row_sampling || sampler.NextDouble() < params_.row_subsample) {
        root_instances.push_back(static_cast<uint32_t>(i));
      }
    }
    if (root_instances.empty()) root_instances.push_back(0);

    // Column subsampling: a per-tree feature mask.
    std::vector<uint8_t> allowed(layout.num_features(), 1);
    if (col_sampling) {
      size_t kept = 0;
      for (auto& a : allowed) {
        a = sampler.NextDouble() < params_.col_subsample ? 1 : 0;
        kept += a;
      }
      if (kept == 0) allowed[sampler.NextBounded(allowed.size())] = 1;
    }
    const std::vector<uint8_t>* mask = col_sampling ? &allowed : nullptr;

    Tree tree;
    std::vector<ActiveNode> active(1);
    active[0].id = 0;
    active[0].instances = std::move(root_instances);
    active[0].total = SumGrads(grads, active[0].instances);
    active[0].hist =
        Histogram::Build(binned, layout, active[0].instances, grads);

    auto make_leaf = [&](ActiveNode& node) {
      const double w = LeafWeight(node.total, params_);
      tree.node(node.id).weight = w;
      if (row_sampling) return;  // scores refreshed via Predict below
      for (uint32_t i : node.instances) {
        scores[i] += params_.learning_rate * w;
      }
    };

    for (size_t layer = 0; layer + 1 < params_.num_layers && !active.empty();
         ++layer) {
      std::vector<ActiveNode> next;
      for (ActiveNode& node : active) {
        const SplitCandidate split =
            FindBestSplit(node.hist, layout, node.total, params_, mask);
        if (!split.valid()) {
          make_leaf(node);
          continue;
        }
        ActiveNode left_child, right_child;
        PartitionInstances(binned, node.instances, split.feature, split.bin,
                           split.default_left, &left_child.instances,
                           &right_child.instances);

        // AddNode may reallocate the node array; fetch references only
        // after both children exist.
        const int32_t left_id = tree.AddNode();
        const int32_t right_id = tree.AddNode();
        TreeNode& tn = tree.node(node.id);
        tn.feature = split.feature;
        tn.split_value = cuts.SplitValue(split.feature, split.bin);
        tn.split_bin = split.bin;
        tn.default_left = split.default_left;
        tn.gain = split.gain;
        tn.left = left_id;
        tn.right = right_id;
        left_child.id = left_id;
        right_child.id = right_id;
        left_child.total = split.left_sum;
        right_child.total = split.right_sum;

        // Sibling subtraction: build the smaller child, derive the other.
        ActiveNode* small = &left_child;
        ActiveNode* big = &right_child;
        if (!BuildsLeftChild(left_child.instances.size(),
                             right_child.instances.size())) {
          std::swap(small, big);
        }
        small->hist =
            Histogram::Build(binned, layout, small->instances, grads);
        big->hist = small->hist;  // copy, then invert against the parent
        big->hist.SubtractFrom(node.hist);

        next.push_back(std::move(left_child));
        next.push_back(std::move(right_child));
      }
      active = std::move(next);
    }
    // Whatever is still active at the last layer becomes leaves.
    for (ActiveNode& node : active) make_leaf(node);

    if (row_sampling) {
      // Under subsampling, out-of-sample instances also need their scores
      // advanced: refresh via a full prediction pass over the new tree.
      for (size_t i = 0; i < n; ++i) {
        scores[i] += params_.learning_rate * tree.Predict(train.features, i);
      }
    }
    model.trees.push_back(std::move(tree));

    const bool want_valid =
        valid != nullptr && valid->has_labels() &&
        (log != nullptr || params_.early_stopping_rounds > 0);
    double valid_loss = 0, valid_auc = 0;
    if (want_valid) {
      const std::vector<double> vs = model.PredictRaw(valid->features);
      valid_loss = params_.objective == "squared" ? Rmse(vs, valid->labels)
                                                  : LogLoss(vs, valid->labels);
      valid_auc = Auc(vs, valid->labels);
    }
    if (log != nullptr) {
      EvalRecord rec;
      rec.tree_index = t;
      rec.elapsed_seconds = clock.ElapsedSeconds();
      double total = 0;
      for (size_t i = 0; i < n; ++i) {
        total += loss.Value(scores[i], train.labels[i]);
      }
      rec.train_loss = total / static_cast<double>(n);
      rec.valid_loss = valid_loss;
      rec.valid_auc = valid_auc;
      log->push_back(rec);
    }
    if (want_valid && params_.early_stopping_rounds > 0) {
      if (valid_loss < best_valid_loss - 1e-12) {
        best_valid_loss = valid_loss;
        rounds_since_best = 0;
      } else if (++rounds_since_best >= params_.early_stopping_rounds) {
        break;  // model keeps the trees built so far
      }
    }
  }
  return model;
}

}  // namespace vf2boost

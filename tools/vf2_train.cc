// Plain (non-federated) GBDT training CLI.
//
//   vf2_train --data train.libsvm --model model.txt --trees 50
//             --valid valid.libsvm --early-stop 5

#include <cstdio>

#include "data/io.h"
#include "gbdt/importance.h"
#include "gbdt/model_io.h"
#include "gbdt/trainer.h"
#include "metrics/metrics.h"
#include "tools/flags.h"

int main(int argc, char** argv) {
  using namespace vf2boost;
  tools::Flags flags(
      argc, argv,
      {{"data", "training LIBSVM file (required)"},
       {"valid", "validation LIBSVM file"},
       {"model", "output model path (required)"},
       {"trees", "number of trees (default 20)"},
       {"layers", "tree layers L (default 7)"},
       {"bins", "histogram bins s (default 20)"},
       {"lr", "learning rate (default 0.1)"},
       {"l2", "L2 regularization lambda (default 1.0)"},
       {"objective", "logistic|squared (default logistic)"},
       {"row-subsample", "per-tree row fraction (default 1.0)"},
       {"col-subsample", "per-tree column fraction (default 1.0)"},
       {"early-stop", "early stopping rounds, needs --valid (default 0)"},
       {"importance", "print top-k feature importance (default 0 = off)"}});
  flags.Require({"data", "model"});

  auto train = LoadLibsvm(flags.GetString("data"));
  if (!train.ok()) {
    std::fprintf(stderr, "%s\n", train.status().ToString().c_str());
    return 1;
  }
  Dataset valid;
  const bool has_valid = flags.Has("valid");
  if (has_valid) {
    auto v = LoadLibsvm(flags.GetString("valid"));
    if (!v.ok()) {
      std::fprintf(stderr, "%s\n", v.status().ToString().c_str());
      return 1;
    }
    valid = std::move(v).value();
  }

  GbdtParams params;
  params.num_trees = static_cast<size_t>(flags.GetInt("trees", 20));
  params.num_layers = static_cast<size_t>(flags.GetInt("layers", 7));
  params.max_bins = static_cast<size_t>(flags.GetInt("bins", 20));
  params.learning_rate = flags.GetDouble("lr", 0.1);
  params.l2_reg = flags.GetDouble("l2", 1.0);
  params.objective = flags.GetString("objective", "logistic");
  params.row_subsample = flags.GetDouble("row-subsample", 1.0);
  params.col_subsample = flags.GetDouble("col-subsample", 1.0);
  params.early_stopping_rounds =
      static_cast<size_t>(flags.GetInt("early-stop", 0));

  GbdtTrainer trainer(params);
  std::vector<EvalRecord> log;
  auto model = trainer.Train(train.value(), has_valid ? &valid : nullptr,
                             &log);
  if (!model.ok()) {
    std::fprintf(stderr, "training failed: %s\n",
                 model.status().ToString().c_str());
    return 1;
  }
  for (const EvalRecord& rec : log) {
    std::printf("tree %3zu  %.2fs  train_loss %.5f", rec.tree_index + 1,
                rec.elapsed_seconds, rec.train_loss);
    if (has_valid) {
      std::printf("  valid_loss %.5f  valid_auc %.5f", rec.valid_loss,
                  rec.valid_auc);
    }
    std::printf("\n");
  }

  const long top_k = flags.GetInt("importance", 0);
  if (top_k > 0) {
    const auto gain = FeatureImportance(model.value(), train->columns(),
                                        ImportanceType::kGain);
    std::printf("top features by gain:\n");
    for (size_t f : TopFeatures(gain, static_cast<size_t>(top_k))) {
      if (gain[f] <= 0) break;
      std::printf("  feature %zu: %.4f\n", f, gain[f]);
    }
  }

  if (Status s = SaveModel(model.value(), flags.GetString("model")); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("saved %zu trees to %s\n", model->trees.size(),
              flags.GetString("model").c_str());
  return 0;
}

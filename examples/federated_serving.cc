// Online federated inference (the right half of the paper's Figure 1):
// after training, the model is SPLIT — each party keeps only the split
// parameters it owns — and predictions are served jointly: Party B drives
// tree traversal, querying the owner party whenever it hits a foreign node.
//
// This example trains a two-party model, splits it, runs the serving
// protocol over an in-process channel, and verifies the served scores
// against the joint model.

#include <cmath>
#include <cstdio>
#include <thread>

#include "data/partition.h"
#include "data/synthetic.h"
#include "fed/serving.h"
#include "metrics/metrics.h"

int main() {
  using namespace vf2boost;

  // --- train a federated model ---------------------------------------------
  SyntheticSpec spec;
  spec.rows = 2000;
  spec.cols = 20;
  spec.density = 0.4;
  spec.seed = 99;
  Dataset data = GenerateSynthetic(spec);
  Rng rng(4);
  VerticalSplitSpec split_spec = SplitColumnsRandomly(20, {0.5, 0.5}, &rng);
  auto shards = PartitionVertically(data, split_spec, 1);
  if (!shards.ok()) return 1;

  FedConfig config = FedConfig::Vf2Boost();
  config.mock_crypto = true;  // training crypto demoed in credit_scoring
  config.gbdt.num_trees = 6;
  config.gbdt.num_layers = 5;
  auto result = FedTrainer(config).Train(shards.value());
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }

  // --- split the model into per-party shards -------------------------------
  auto split = SplitModelShards(result.value());
  if (!split.ok()) return 1;
  std::printf("model split: party A holds %zu private splits; B's skeleton "
              "has %zu trees\n",
              split->shards[0].splits.size(), split->skeleton.trees.size());

  // --- serve over an in-process channel -----------------------------------
  auto [a_end, b_end] = ChannelEndpoint::CreatePair();
  ServingPartyA responder(split->shards[0], (*shards)[0], a_end.get());
  std::thread a_thread([&responder] {
    if (Status s = responder.Run(); !s.ok()) {
      std::fprintf(stderr, "party A serving failed: %s\n",
                   s.ToString().c_str());
    }
  });

  ServingPartyB coordinator(split->skeleton, (*shards)[1], {b_end.get()});
  auto served = coordinator.Predict();
  coordinator.Shutdown();
  a_thread.join();
  if (!served.ok()) {
    std::fprintf(stderr, "%s\n", served.status().ToString().c_str());
    return 1;
  }

  // --- verify against the joint model ---------------------------------------
  auto joint = result->ToJointModel(split_spec);
  if (!joint.ok()) return 1;
  const auto expected = joint->PredictRaw(data.features);
  double max_diff = 0;
  for (size_t i = 0; i < expected.size(); ++i) {
    max_diff = std::max(max_diff, std::fabs((*served)[i] - expected[i]));
  }
  std::printf("served %zu predictions; max deviation from joint model: %.2e\n",
              served->size(), max_diff);
  std::printf("AUC of served scores: %.4f\n", Auc(*served, data.labels));
  std::printf("neither party ever saw the other's thresholds or columns.\n");
  return max_diff < 1e-9 ? 0 : 1;
}

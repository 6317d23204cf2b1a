// Vertical federated logistic regression — the paper's §5 Discussions
// realized: the re-ordered accumulation (§5.1) speeds up the encrypted
// mini-batch gradient reduction and histogram packing (§5.2) compresses the
// masked gradients sent for decryption. Two parties, two key pairs, no
// third-party coordinator.

#include <cstdio>

#include "data/partition.h"
#include "data/synthetic.h"
#include "fedlr/fed_lr.h"
#include "metrics/metrics.h"

int main() {
  using namespace vf2boost;

  SyntheticSpec spec;
  spec.rows = 3000;
  spec.cols = 20;
  spec.density = 0.5;
  spec.seed = 321;
  Dataset world = GenerateSynthetic(spec);
  Rng rng(5);
  Dataset train, valid;
  TrainValidSplit(world, 0.8, &rng, &train, &valid);
  VerticalSplitSpec split = SplitColumnsRandomly(20, {0.5, 0.5}, &rng);
  auto shards = PartitionVertically(train, split, 1);
  if (!shards.ok()) return 1;

  FedLrConfig config;
  config.paillier_bits = 512;  // real Paillier, both parties keyed
  config.lr.epochs = 3;
  config.lr.batch_size = 512;
  config.lr.learning_rate = 0.3;

  auto result = FedLrTrainer(config).Train((*shards)[0], (*shards)[1]);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }
  auto joint = result->ToJointModel(split);
  if (!joint.ok()) return 1;

  const double fed_auc =
      Auc(joint->PredictRaw(valid.features), valid.labels);

  // References: centralized LR and bank-only LR.
  LrParams plain = config.lr;
  auto central = PlainLrTrainer(plain).Train(train);
  auto b_only = PlainLrTrainer(plain).Train((*shards)[1]);
  Dataset b_valid;
  b_valid.features = valid.features.SelectColumns(split.party_columns[1]);

  std::printf("federated LR AUC   : %.4f\n", fed_auc);
  if (central.ok()) {
    std::printf("centralized LR AUC : %.4f\n",
                Auc(central->PredictRaw(valid.features), valid.labels));
  }
  if (b_only.ok()) {
    std::printf("B-only LR AUC      : %.4f\n",
                Auc(b_only->PredictRaw(b_valid.features), valid.labels));
  }
  auto total = [&](const char* party, const char* name) {
    return obs::PartySum(result->metrics, party, name);
  };
  std::printf("crypto: %.0f enc, %.0f dec, %.0f hadd, %.0f scalings, "
              "%.0f packs\n",
              total("party_", "encryptions"), total("party_", "decryptions"),
              total("party_", "hadds"), total("party_", "scalings"),
              total("party_", "packs"));
  std::printf("traffic: %.2f MB + %.2f MB\n",
              total("party_a", "bytes_sent") / 1e6,
              total("party_b", "bytes_sent") / 1e6);
  return 0;
}

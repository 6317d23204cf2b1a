// Credit scoring across two enterprises — the paper's motivating scenario.
//
// A bank (Party B) holds repayment labels and a handful of account
// features; an internet platform (Party A) holds a rich set of behavioural
// features for overlapping users. Neither may disclose raw data. The
// pipeline below is the full production flow:
//
//   1. align the user sets with (simulated) PSI,
//   2. train VF²Boost with real Paillier encryption,
//   3. compare against the bank training alone.

#include <cstdio>

#include "data/partition.h"
#include "data/psi.h"
#include "data/synthetic.h"
#include "fed/fed_trainer.h"
#include "gbdt/trainer.h"
#include "metrics/metrics.h"

int main() {
  using namespace vf2boost;

  // --- the joint population (only the simulator sees it joined) -----------
  SyntheticSpec spec;
  spec.rows = 4000;
  spec.cols = 40;
  spec.density = 0.25;
  spec.seed = 2024;
  Dataset world = GenerateSynthetic(spec);

  Rng rng(7);
  Dataset train, valid;
  TrainValidSplit(world, 0.8, &rng, &train, &valid);

  // Platform holds 30 behavioural features, bank holds 10 + labels.
  VerticalSplitSpec spec2 = SplitColumnsRandomly(40, {0.75, 0.25}, &rng);
  auto shards = PartitionVertically(train, spec2, /*label_party=*/1);
  if (!shards.ok()) return 1;

  // --- 1. PSI: align overlapping users ------------------------------------
  // Both sides know their own user ids; only the intersection (here:
  // everything, since the shards came pre-aligned) becomes training data.
  std::vector<uint64_t> platform_users, bank_users;
  for (size_t i = 0; i < train.rows(); ++i) {
    platform_users.push_back(1000 + i);
    bank_users.push_back(1000 + i);
  }
  PsiResult psi = SimulatedPsi(platform_users, bank_users, /*salt=*/99);
  std::printf("PSI aligned %zu common users\n", psi.size());
  std::vector<Dataset> parties(2);
  parties[0].features = (*shards)[0].features.SelectRows(psi.indices_a);
  parties[1].features = (*shards)[1].features.SelectRows(psi.indices_b);
  for (size_t k : psi.indices_b) {
    parties[1].labels.push_back((*shards)[1].labels[k]);
  }

  // --- 2. federated training (real cryptography) --------------------------
  FedConfig config = FedConfig::Vf2Boost();  // all four optimizations on
  config.paillier_bits = 256;  // demo-sized key; production uses 2048
  config.gbdt.num_trees = 5;
  config.gbdt.num_layers = 5;
  config.gbdt.max_bins = 16;

  auto result = FedTrainer(config).Train(parties);
  if (!result.ok()) {
    std::fprintf(stderr, "federated training failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  auto joint = result->ToJointModel(spec2);
  if (!joint.ok()) return 1;
  const double fed_auc =
      Auc(joint->PredictRaw(valid.features), valid.labels);

  // --- 3. bank-only baseline ----------------------------------------------
  GbdtTrainer bank_only(config.gbdt);
  auto bank_model = bank_only.Train(parties[1]);
  Dataset bank_valid;
  bank_valid.features = valid.features.SelectColumns(spec2.party_columns[1]);
  const double bank_auc =
      bank_model.ok()
          ? Auc(bank_model->PredictRaw(bank_valid.features), valid.labels)
          : 0;

  std::printf("bank-only AUC          : %.4f\n", bank_auc);
  std::printf("federated AUC          : %.4f  (+%.4f from the platform)\n",
              fed_auc, fed_auc - bank_auc);
  auto total = [&](const char* party, const char* name) {
    return obs::PartySum(result->metrics, party, name);
  };
  std::printf("ciphertext traffic     : %.2f MB A->B, %.2f MB B->A\n",
              total("party_a", "bytes_sent") / 1e6,
              total("party_b", "bytes_sent") / 1e6);
  std::printf("crypto ops             : %.0f enc, %.0f dec, %.0f hadd\n",
              total("party_", "encryptions"), total("party_", "decryptions"),
              total("party_", "hadds"));
  std::printf("splits platform/bank   : %.0f / %.0f "
              "(dirty rolled back: %.0f)\n",
              total("party_", "splits_a"), total("party_", "splits_b"),
              total("party_", "dirty_nodes"));
  return 0;
}

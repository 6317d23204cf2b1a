// Multi-party scenario (paper §6.4): an advertiser (Party B, owns
// conversion labels) enriches its model with features from several partner
// enterprises, each acting as a Party A. Shows the AUC climbing as partners
// join, and the per-partner traffic.

#include <cstdio>

#include "data/partition.h"
#include "data/synthetic.h"
#include "fed/fed_trainer.h"
#include "gbdt/trainer.h"
#include "metrics/metrics.h"

int main() {
  using namespace vf2boost;

  SyntheticSpec spec;
  spec.rows = 4000;
  spec.cols = 48;
  spec.density = 0.3;
  spec.seed = 777;
  Dataset world = GenerateSynthetic(spec);

  Rng rng(3);
  Dataset train, valid;
  TrainValidSplit(world, 0.8, &rng, &train, &valid);

  // Features split evenly across 3 partners + the advertiser.
  VerticalSplitSpec quarters = SplitColumnsRandomly(48, {1, 1, 1, 1}, &rng);

  GbdtParams params;
  params.num_trees = 8;
  params.num_layers = 5;
  params.max_bins = 16;

  // Advertiser alone.
  Dataset solo;
  solo.features = train.features.SelectColumns(quarters.party_columns[3]);
  solo.labels = train.labels;
  GbdtTrainer plain(params);
  auto solo_model = plain.Train(solo);
  Dataset solo_valid;
  solo_valid.features = valid.features.SelectColumns(quarters.party_columns[3]);
  const double solo_auc =
      solo_model.ok()
          ? Auc(solo_model->PredictRaw(solo_valid.features), valid.labels)
          : 0;
  std::printf("%-28s AUC %.4f\n", "advertiser alone:", solo_auc);

  // Add partners one by one.
  for (size_t partners = 1; partners <= 3; ++partners) {
    VerticalSplitSpec sub;
    for (size_t p = 0; p < partners; ++p) {
      sub.party_columns.push_back(quarters.party_columns[p]);
    }
    sub.party_columns.push_back(quarters.party_columns[3]);
    auto shards = PartitionVertically(train, sub, partners);
    if (!shards.ok()) return 1;

    FedConfig config = FedConfig::Vf2Boost();
    config.mock_crypto = true;  // keep the demo snappy; see credit_scoring
                                // for a real-Paillier run
    config.gbdt = params;
    auto result = FedTrainer(config).Train(shards.value());
    if (!result.ok()) {
      std::fprintf(stderr, "failed: %s\n", result.status().ToString().c_str());
      return 1;
    }
    auto joint = result->ToJointModel(sub);
    if (!joint.ok()) return 1;
    const double auc = Auc(joint->PredictRaw(valid.features), valid.labels);
    std::printf("advertiser + %zu partner(s):  AUC %.4f  (traffic %.2f MB, "
                "partner splits %zu)\n",
                partners, auc,
                obs::PartySum(result->metrics, "party_", "bytes_sent") / 1e6,
                static_cast<size_t>(
                    obs::PartySum(result->metrics, "party_b", "splits_a")));
  }
  return 0;
}

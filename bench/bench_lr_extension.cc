// Extension bench (paper §5.1/§5.2 Discussions): both VF²Boost cryptography
// customizations applied to vertical federated LOGISTIC REGRESSION — the
// paper's stated future work. Measures, per protocol level, wall-clock per
// epoch plus the crypto op counts the techniques attack.

#include <cstdio>

#include "bench/bench_util.h"
#include "common/timer.h"
#include "fedlr/fed_lr.h"
#include "metrics/metrics.h"

namespace vf2boost {
namespace {

using bench::Fmt;
using bench::PrintRow;
using bench::PrintRule;

struct LrRun {
  double seconds = 0;
  size_t scalings = 0;
  size_t decryptions = 0;
  double auc = 0;
};

LrRun Run(const bench::BenchFixture& f, bool reordered, bool packing) {
  FedLrConfig config;
  config.paillier_bits = 512;
  config.reordered = reordered;
  config.packing = packing;
  config.lr.epochs = 2;
  config.lr.batch_size = 256;
  config.lr.learning_rate = 0.3;

  Stopwatch clock;
  auto result =
      FedLrTrainer(config).Train(f.shards[0], f.shards[1]);
  LrRun run;
  run.seconds = clock.ElapsedSeconds();
  if (!result.ok()) {
    std::fprintf(stderr, "LR run failed: %s\n",
                 result.status().ToString().c_str());
    std::abort();
  }
  run.scalings = static_cast<size_t>(
      obs::PartySum(result->metrics, "party_", "scalings"));
  run.decryptions = static_cast<size_t>(
      obs::PartySum(result->metrics, "party_", "decryptions"));
  auto joint = result->ToJointModel(f.spec);
  if (joint.ok()) {
    run.auc = Auc(joint->PredictRaw(f.valid.features), f.valid.labels);
  }
  return run;
}

}  // namespace
}  // namespace vf2boost

int main() {
  using namespace vf2boost;
  using bench::Fmt;

  std::printf("== Extension: §5 techniques on vertical federated LR "
              "(512-bit keys, N=2000, D=10+10) ==\n");
  SyntheticSpec spec;
  spec.rows = 1500;
  spec.cols = 20;
  spec.density = 0.5;
  spec.seed = 404;
  bench::BenchFixture f = bench::MakeBenchFixture(spec, {0.5, 0.5}, 405);

  const std::vector<int> widths = {22, 10, 10, 8, 8};
  bench::PrintRow({"protocol", "scalings", "decrypts", "time", "AUC"},
                  widths);
  bench::PrintRule(widths);
  struct Level {
    const char* name;
    bool reordered, packing;
  };
  for (const Level& level :
       {Level{"baseline", false, false}, Level{"+reordered", true, false},
        Level{"+packing", false, true},
        Level{"+reordered+packing", true, true}}) {
    const LrRun run = Run(f, level.reordered, level.packing);
    bench::PrintRow({level.name, std::to_string(run.scalings),
                     std::to_string(run.decryptions),
                     Fmt("%.2fs", run.seconds), Fmt("%.3f", run.auc)},
                    widths);
  }
  std::printf("(the §5.1/§5.2 claims transfer: scalings collapse with "
              "re-ordering; decryptions shrink with packing)\n\n");
  return 0;
}

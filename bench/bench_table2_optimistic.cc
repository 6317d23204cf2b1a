// Table 2: breakdown of the optimistic node-splitting strategy and the
// polynomial-based histogram packing on one full decision tree, varying the
// feature split between the parties (40K/10K, 25K/25K, 10K/40K in the paper).
//
// Part 1: real scaled-down training runs (reports the Party-B split share
// and dirty-node rate too). Part 2: calibrated simulation at paper scale.

#include <cstdio>

#include "bench/bench_util.h"
#include "common/timer.h"
#include "fed/fed_trainer.h"
#include "sim/protocol_sim.h"

namespace vf2boost {
namespace {

using bench::Fmt;
using bench::PrintRow;
using bench::PrintRule;

struct TreeRun {
  double seconds = 0;
  double split_b_share = 0;
  double dirty = 0;
};

TreeRun RunTree(const bench::BenchFixture& f, bool optimistic, bool packing) {
  FedConfig config;
  config.paillier_bits = 256;
  config.optimistic = optimistic;
  config.packing = packing;
  config.reordered = true;  // both arms share the §5.1 accumulation
  config.gbdt.num_trees = 1;
  config.gbdt.num_layers = 5;
  config.gbdt.max_bins = 10;

  Stopwatch clock;
  auto result = FedTrainer(config).Train(f.shards);
  if (!result.ok()) {
    std::fprintf(stderr, "run failed: %s\n", result.status().ToString().c_str());
    std::abort();
  }
  TreeRun run;
  run.seconds = clock.ElapsedSeconds();
  const double splits_b = obs::PartySum(result->metrics, "party_b", "splits_b");
  const double splits =
      obs::PartySum(result->metrics, "party_b", "splits_a") + splits_b;
  run.split_b_share = splits == 0 ? 0 : splits_b / splits;
  run.dirty = obs::PartySum(result->metrics, "party_b", "dirty_nodes");
  return run;
}

void RealPart() {
  std::printf("== Table 2 (real runs, scaled: 256-bit keys, N~4000) ==\n");
  const std::vector<int> widths = {14, 12, 10, 12, 12, 14, 8};
  PrintRow({"#Features A/B", "B-split shr", "Baseline", "+OptimSplit",
            "+HistPack", "+Optim+Pack", "Dirty"},
           widths);
  PrintRule(widths);
  struct Ratio {
    const char* name;
    double a, b;
  };
  for (const Ratio& ratio : {Ratio{"32/8", 0.8, 0.2}, Ratio{"20/20", 0.5, 0.5},
                             Ratio{"8/32", 0.2, 0.8}}) {
    SyntheticSpec spec;
    spec.rows = 5000;
    spec.cols = 40;
    spec.density = 0.2;
    spec.seed = 17;
    bench::BenchFixture f =
        bench::MakeBenchFixture(spec, {ratio.a, ratio.b}, 19);

    const TreeRun base = RunTree(f, false, false);
    const TreeRun optim = RunTree(f, true, false);
    const TreeRun pack = RunTree(f, false, true);
    const TreeRun both = RunTree(f, true, true);
    PrintRow({ratio.name, Fmt("%.1f%%", 100 * base.split_b_share),
              Fmt("%.2fs", base.seconds),
              Fmt("%.2fx", base.seconds / optim.seconds),
              Fmt("%.2fx", base.seconds / pack.seconds),
              Fmt("%.2fx", base.seconds / both.seconds),
              Fmt("%.0f", both.dirty)},
             widths);
  }
  std::printf("\n");
}

void SimulatedPart() {
  std::printf(
      "== Table 2 (simulated at paper scale: N=10M, S=2048, 8 workers) ==\n");
  std::printf("paper reference (25K/25K): base 4286s; +OptimSplit 1.32x, "
              "+HistPack 1.45x, both 2.16x\n");
  const CostModel cost = CostModel::PaperScale();
  const std::vector<int> widths = {14, 10, 12, 12, 14};
  PrintRow({"#Features A/B", "Baseline", "+OptimSplit", "+HistPack",
            "+Optim+Pack"},
           widths);
  PrintRule(widths);
  struct Shape {
    const char* name;
    double a, b;
  };
  for (const Shape& s : {Shape{"40K/10K", 40000, 10000},
                         Shape{"25K/25K", 25000, 25000},
                         Shape{"10K/40K", 10000, 40000}}) {
    SimWorkload w;
    w.instances = 10e6;
    w.features_a = s.a;
    w.features_b = s.b;
    w.density = 0.002;
    SimFlags none, o, p, op;
    o.optimistic = true;
    p.packing = true;
    op.optimistic = op.packing = true;
    const double base = SimulateTree(w, none, cost).total_seconds;
    const double optim = SimulateTree(w, o, cost).total_seconds;
    const double pack = SimulateTree(w, p, cost).total_seconds;
    const double both = SimulateTree(w, op, cost).total_seconds;
    PrintRow({s.name, Fmt("%.0fs", base), Fmt("%.2fx", base / optim),
              Fmt("%.2fx", base / pack), Fmt("%.2fx", base / both)},
             widths);
  }
  std::printf("\n");
}

}  // namespace
}  // namespace vf2boost

int main() {
  vf2boost::RealPart();
  vf2boost::SimulatedPart();
  return 0;
}

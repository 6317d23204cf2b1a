// Table 1: breakdown of the blaster-style encryption scheme and the
// re-ordered histogram accumulation on ROOT-NODE processing.
//
// Part 1 measures real wall-clock runs of this library at laptop scale
// (256-bit keys, thousands of instances). Part 2 replays the paper's exact
// configuration (N in {2.5M, 5M, 10M}, 25K+25K features, S = 2048, 8
// workers, 300 Mbps) through the calibrated event simulator.

#include <algorithm>
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

// Runs one tree with num_layers=2 so the run is dominated by root-node
// processing (the Table 1 regime), and returns total seconds + phase times.
struct RootRun {
  double total = 0;
  double enc = 0;
  double hadd = 0;
  double scalings = 0;
};

RootRun RunRoot(const bench::BenchFixture& f, bool blaster, bool reordered) {
  FedConfig config;
  config.paillier_bits = 256;
  config.blaster = blaster;
  config.blaster_batch = 512;
  config.reordered = reordered;
  config.gbdt.num_trees = 1;
  config.gbdt.num_layers = 2;
  config.gbdt.max_bins = 20;

  Stopwatch clock;
  auto result = FedTrainer(config).Train(f.shards);
  RootRun run;
  run.total = clock.ElapsedSeconds();
  if (!result.ok()) {
    std::fprintf(stderr, "run failed: %s\n", result.status().ToString().c_str());
    std::abort();
  }
  run.enc = obs::PartySum(result->metrics, "party_b", "phase/encrypt");
  run.hadd = obs::PartySum(result->metrics, "party_a", "phase/build_hist");
  run.scalings = obs::PartySum(result->metrics, "party_", "scalings");
  return run;
}

// Median-of-3 by total wall time: single runs at these sizes jitter by a few
// percent (thread scheduling, allocator state), which is enough to flip a
// ~1.1x speedup ratio below 1.0 and trip the perf gate on noise alone.
RootRun RunRootMedian(const bench::BenchFixture& f, bool blaster,
                      bool reordered) {
  RootRun runs[3];
  for (RootRun& r : runs) r = RunRoot(f, blaster, reordered);
  std::sort(std::begin(runs), std::end(runs),
            [](const RootRun& a, const RootRun& b) { return a.total < b.total; });
  return runs[1];
}

void RealPart(bool smoke, bench::JsonWriter* json) {
  std::printf(
      "== Table 1 (real runs, scaled: 256-bit keys, D=20+20 features) ==\n");
  const std::vector<int> widths = {10, 10, 10, 10, 12, 12, 14};
  PrintRow({"#Instances", "Base total", "Base enc", "Base hadd", "+Blaster",
            "+Reordered", "+Both"},
           widths);
  PrintRule(widths);
  // Smoke mode (CI): one small size so the job finishes in seconds while
  // still exercising every protocol variant end to end.
  const std::vector<size_t> sizes =
      smoke ? std::vector<size_t>{1000} : std::vector<size_t>{2500, 5000, 10000};
  for (size_t n : sizes) {
    SyntheticSpec spec;
    spec.rows = n + n / 4;  // 80% train split lands near n
    spec.cols = 40;
    spec.density = 0.2;
    spec.seed = 7;
    bench::BenchFixture f = bench::MakeBenchFixture(spec, {0.5, 0.5}, 11);

    const RootRun base = RunRootMedian(f, false, false);
    const RootRun blaster = RunRootMedian(f, true, false);
    const RootRun reordered = RunRootMedian(f, false, true);
    const RootRun both = RunRootMedian(f, true, true);
    PrintRow({std::to_string(n), Fmt("%.2fs", base.total),
              Fmt("%.2fs", base.enc), Fmt("%.2fs", base.hadd),
              Fmt("%.2fx", base.total / blaster.total),
              Fmt("%.2fx", base.total / reordered.total),
              Fmt("%.2fx", base.total / both.total)},
             widths);
    if (json != nullptr) {
      const std::string prefix = "table1/real/n=" + std::to_string(n);
      json->Add(prefix + "/base_total", base.total, "s");
      json->Add(prefix + "/base_encrypt", base.enc, "s");
      json->Add(prefix + "/speedup_blaster", base.total / blaster.total, "x");
      json->Add(prefix + "/speedup_reordered", base.total / reordered.total,
                "x");
      json->Add(prefix + "/speedup_both", base.total / both.total, "x");
    }
  }
  std::printf("\n");
}

void SimulatedPart(bench::JsonWriter* json) {
  std::printf(
      "== Table 1 (simulated at paper scale: S=2048, D=25K+25K, 8 workers, "
      "300 Mbps) ==\n");
  std::printf("paper reference row (N=2.5M): Enc 116 / Comm 44 / HAdd 248 / "
              "Total 398; +Blaster 1.55x, +Reordered 1.17x, +Both 2.25x\n");
  const CostModel cost = CostModel::PaperScale();
  const std::vector<int> widths = {10, 6, 7, 7, 8, 12, 12, 14};
  PrintRow({"#Instances", "Enc", "Comm", "HAdd", "Total", "+Blaster",
            "+Reordered", "+Both"},
           widths);
  PrintRule(widths);
  for (double n : {2.5e6, 5e6, 10e6}) {
    SimWorkload w;
    w.instances = n;
    w.features_a = 25000;
    w.features_b = 25000;
    w.density = 0.002;
    SimFlags none, b, r, br;
    b.blaster = true;
    r.reordered = true;
    br.blaster = br.reordered = true;
    const SimReport base = SimulateRootNode(w, none, cost);
    const SimReport blaster = SimulateRootNode(w, b, cost);
    const SimReport reordered = SimulateRootNode(w, r, cost);
    const SimReport both = SimulateRootNode(w, br, cost);
    PrintRow({Fmt("%.1fM", n / 1e6), Fmt("%.0f", base.enc_seconds),
              Fmt("%.0f", base.comm_seconds), Fmt("%.0f", base.hadd_seconds),
              Fmt("%.0f", base.total_seconds),
              Fmt("%.0f ", blaster.total_seconds) +
                  Fmt("(%.2fx)", base.total_seconds / blaster.total_seconds),
              Fmt("%.0f ", reordered.total_seconds) +
                  Fmt("(%.2fx)", base.total_seconds / reordered.total_seconds),
              Fmt("%.0f ", both.total_seconds) +
                  Fmt("(%.2fx)", base.total_seconds / both.total_seconds)},
             widths);
    if (json != nullptr) {
      const std::string prefix =
          "table1/sim/n=" + Fmt("%.1fM", n / 1e6);
      json->Add(prefix + "/base_total", base.total_seconds, "s");
      json->Add(prefix + "/speedup_blaster",
                base.total_seconds / blaster.total_seconds, "x");
      json->Add(prefix + "/speedup_reordered",
                base.total_seconds / reordered.total_seconds, "x");
      json->Add(prefix + "/speedup_both",
                base.total_seconds / both.total_seconds, "x");
    }
  }
  std::printf("\n");
}

}  // namespace
}  // namespace vf2boost

int main(int argc, char** argv) {
  const std::string json_path =
      vf2boost::bench::TakeStringFlag(&argc, argv, "--json");
  const bool smoke = vf2boost::bench::TakeBoolFlag(&argc, argv, "--smoke");
  vf2boost::bench::JsonWriter json;
  vf2boost::bench::JsonWriter* jp = json_path.empty() ? nullptr : &json;
  vf2boost::RealPart(smoke, jp);
  vf2boost::SimulatedPart(jp);
  if (!json_path.empty() && !json.WriteTo(json_path)) return 1;
  return 0;
}

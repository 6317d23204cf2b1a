// Training-run report tool: joins a metrics dump (--metrics-out) with an
// optional trace (--trace-out) into per-party and per-tree phase-time
// attribution, and diffs/gates two benchmark JSON files.
//
//   vf2_report --metrics run/metrics.json --trace run/trace.json
//              --profile run/profile.folded
//   vf2_report --baseline bench/baselines/BENCH_crypto.json
//              --current BENCH_crypto.json --tolerance 0.15 --check
//
// Attribution answers the paper's accounting questions: where does wall time
// go per phase (encrypt/transfer/build_hist/pack/decrypt/find_split), how
// much did optimistic-split rollbacks cost, and does the observed dirty-node
// rate match the D_A/(D_A+D_B) prediction (§4.2).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/bench_diff.h"
#include "obs/profiler.h"
#include "obs/trace_check.h"
#include "tools/flags.h"

namespace {

using vf2boost::obs::BenchDiffOptions;
using vf2boost::obs::BenchDiffReport;
using vf2boost::obs::BenchDiffRow;
using vf2boost::obs::BenchMap;
using vf2boost::obs::JsonValue;
using vf2boost::obs::ParseJson;
using vf2boost::tools::ReadFile;

bool LoadBench(const std::string& path, BenchMap* out, std::string* error) {
  std::string text;
  if (!ReadFile(path, &text, /*quiet=*/true)) {
    *error = "cannot read " + path;
    return false;
  }
  if (!vf2boost::obs::ParseBenchJson(text, out, error)) {
    *error = path + ": " + *error;
    return false;
  }
  return true;
}

double Lookup(const BenchMap& m, const std::string& name) {
  const auto it = m.find(name);
  return it == m.end() ? 0 : it->second.value;
}

const char* const kPhases[] = {"encrypt", "build_hist", "pack",
                               "decrypt", "find_split", "comm_wait"};

// ---------------------------------------------------------------------------
// CPU attribution (folded profile joined against phase wall time)
// ---------------------------------------------------------------------------

// Joins a folded-stack CPU profile (--profile-out) against the phase wall
// times in the metrics dump: per party/phase self CPU, the cpu/wall ratio,
// and a note when they diverge — cpu << wall is blocking (lock contention,
// a slow peer) inside the span; cpu >> wall means pool workers burned CPU
// for the phase in parallel.
int AppendCpuAttribution(const BenchMap& m, const std::string& profile_path) {
  std::string text, error;
  if (!ReadFile(profile_path, &text, /*quiet=*/true)) {
    std::fprintf(stderr, "error: cannot read %s\n", profile_path.c_str());
    return 1;
  }
  vf2boost::obs::FoldedProfileInfo info;
  if (!vf2boost::obs::ParseFoldedProfile(text, &info, &error)) {
    std::fprintf(stderr, "error: %s: %s\n", profile_path.c_str(),
                 error.c_str());
    return 1;
  }
  const int hz = info.hz > 0 ? info.hz : 99;
  std::printf("\n== cpu attribution (sampling profiler, %d Hz, %llu "
              "samples) ==\n",
              hz, static_cast<unsigned long long>(info.total_samples));
  if (info.total_samples == 0) {
    std::printf("(no samples — run too short or profiler disabled)\n");
    return 0;
  }
  std::printf("%-10s %-16s %10s %10s %9s  %s\n", "party", "phase", "cpu_s",
              "wall_s", "cpu/wall", "note");
  for (const auto& [key, samples] : info.samples_by_phase) {
    const size_t slash = key.find('/');
    const std::string party = key.substr(0, slash);
    const std::string phase = key.substr(slash + 1);
    const double cpu = static_cast<double>(samples) / hz;
    const double wall = Lookup(m, party + "/phase/" + phase);
    std::printf("%-10s %-16s %10.3f", party.c_str(), phase.c_str(), cpu);
    if (wall > 0) {
      const double ratio = cpu / wall;
      const char* note = "";
      if (ratio < 0.5) {
        note = "cpu << wall: blocked inside the span (contention/peer)";
      } else if (ratio > 1.5) {
        note = "cpu >> wall: pool workers ran this phase in parallel";
      }
      std::printf(" %10.3f %9.2f  %s\n", wall, ratio, note);
    } else {
      std::printf(" %10s %9s  %s\n", "-", "-",
                  phase == "unknown" ? "untagged samples" : "");
    }
  }
  const double tagged_pct =
      100.0 * static_cast<double>(info.phase_tagged) /
      static_cast<double>(info.total_samples);
  std::printf("phase-tagged samples: %llu/%llu (%.1f%%)\n",
              static_cast<unsigned long long>(info.phase_tagged),
              static_cast<unsigned long long>(info.total_samples),
              tagged_pct);

  // Hottest leaf functions across the profile (self CPU).
  std::map<std::string, uint64_t> leaves;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    const uint64_t count = std::strtoull(line.c_str() + space + 1, nullptr, 10);
    const std::string stack = line.substr(0, space);
    const size_t semi = stack.rfind(';');
    leaves[semi == std::string::npos ? stack : stack.substr(semi + 1)] +=
        count;
  }
  std::vector<std::pair<std::string, uint64_t>> hot(leaves.begin(),
                                                    leaves.end());
  std::sort(hot.begin(), hot.end(), [](const auto& a, const auto& b) {
    return a.second > b.second;
  });
  std::printf("\nhottest functions (self cpu):\n");
  for (size_t i = 0; i < hot.size() && i < 8; ++i) {
    std::printf("  %6.1f%%  %8.3fs  %s\n",
                100.0 * static_cast<double>(hot[i].second) /
                    static_cast<double>(info.total_samples),
                static_cast<double>(hot[i].second) / hz,
                hot[i].first.c_str());
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Attribution mode
// ---------------------------------------------------------------------------

int RunAttribution(const std::string& metrics_path,
                   const std::string& trace_path,
                   const std::string& profile_path) {
  BenchMap m;
  std::string error;
  if (!LoadBench(metrics_path, &m, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }

  // Party prefixes present in the dump, A parties first.
  std::vector<std::string> parties;
  for (const auto& [name, bench] : m) {
    (void)bench;
    const size_t slash = name.find('/');
    if (slash == std::string::npos) continue;
    const std::string prefix = name.substr(0, slash);
    if (prefix.rfind("party_", 0) != 0) continue;
    if (std::find(parties.begin(), parties.end(), prefix) == parties.end()) {
      parties.push_back(prefix);
    }
  }
  std::sort(parties.begin(), parties.end());
  if (parties.empty()) {
    std::fprintf(stderr, "error: %s has no party_* metrics\n",
                 metrics_path.c_str());
    return 1;
  }

  std::printf("== phase time by party (seconds) ==\n");
  std::printf("%-10s", "party");
  for (const char* p : kPhases) std::printf(" %10s", p);
  std::printf(" %10s\n", "total");
  for (const std::string& party : parties) {
    double total = 0;
    std::printf("%-10s", party.c_str());
    for (const char* p : kPhases) {
      const double v = Lookup(m, party + "/phase/" + p);
      total += v;
      std::printf(" %10.3f", v);
    }
    std::printf(" %10.3f\n", total);
  }

  // Optimistic-split accounting vs the paper's prediction: a dirty node is
  // an optimistic split B guessed wrong, expected at rate D_A/(D_A+D_B).
  double d_a = 0;
  for (const std::string& party : parties) {
    if (party != "party_b") d_a += Lookup(m, party + "/features");
  }
  const double d_b = Lookup(m, "party_b/features");
  const double opt = Lookup(m, "party_b/optimistic_splits");
  const double dirty = Lookup(m, "party_b/dirty_nodes");
  std::printf("\n== optimistic splits ==\n");
  std::printf("optimistic %.0f, dirty %.0f", opt, dirty);
  if (opt > 0) std::printf(" (observed dirty rate %.3f)", dirty / opt);
  std::printf("\n");
  if (d_a + d_b > 0) {
    std::printf("predicted dirty rate D_A/(D_A+D_B) = %.0f/%.0f = %.3f\n",
                d_a, d_a + d_b, d_a / (d_a + d_b));
  }

  // Gradient-cipher traffic: what the gh pack saved on the wire. A ratio of
  // 2.0 means every gradient cipher carried a whole (g, h) pair.
  std::printf("\n== cipher traffic ==\n");
  for (const std::string& party : parties) {
    const double ciphers = Lookup(m, party + "/ciphers_sent");
    if (ciphers <= 0) continue;
    const double ratio = Lookup(m, party + "/gh_pack_ratio");
    std::printf("%-10s %10.0f ciphers sent", party.c_str(), ciphers);
    const double trees = Lookup(m, party + "/trees_finished");
    if (trees > 0) std::printf(" (%.0f per tree)", ciphers / trees);
    if (ratio > 0) std::printf(", %.1f values/cipher", ratio);
    std::printf("\n");
  }

  if (!profile_path.empty()) {
    const int rc = AppendCpuAttribution(m, profile_path);
    if (rc != 0) return rc;
  }

  if (trace_path.empty()) return 0;

  // Per-tree attribution: bucket every phase span into the enclosing B-side
  // "tree" span by midpoint (phase spans never straddle tree boundaries).
  std::string text;
  JsonValue root;
  if (!ReadFile(trace_path, &text, /*quiet=*/true) || !ParseJson(text, &root, &error)) {
    std::fprintf(stderr, "error: cannot parse %s: %s\n", trace_path.c_str(),
                 error.c_str());
    return 1;
  }
  const JsonValue* events = root.Get("traceEvents");
  if (events == nullptr || !events->is_array()) {
    std::fprintf(stderr, "error: %s has no traceEvents\n",
                 trace_path.c_str());
    return 1;
  }
  struct Span {
    std::string name;
    double ts = 0, dur = 0;
    int64_t tree_arg = -1;
  };
  std::vector<Span> trees;
  std::vector<Span> spans;
  for (const JsonValue& e : events->array) {
    const JsonValue* ph = e.Get("ph");
    const JsonValue* name = e.Get("name");
    const JsonValue* ts = e.Get("ts");
    const JsonValue* dur = e.Get("dur");
    if (ph == nullptr || !ph->is_string() || ph->string != "X" ||
        name == nullptr || ts == nullptr || dur == nullptr) {
      continue;
    }
    Span s;
    s.name = name->string;
    s.ts = ts->number;
    s.dur = dur->number;
    if (const JsonValue* args = e.Get("args"); args != nullptr) {
      if (const JsonValue* t = args->Get("tree");
          t != nullptr && t->is_number()) {
        s.tree_arg = static_cast<int64_t>(t->number);
      }
    }
    if (s.name == "tree") {
      trees.push_back(s);
    } else {
      spans.push_back(s);
    }
  }
  if (trees.empty()) {
    std::fprintf(stderr,
                 "warning: no \"tree\" spans in %s (per-tree table skipped)\n",
                 trace_path.c_str());
    return 0;
  }
  std::sort(trees.begin(), trees.end(),
            [](const Span& a, const Span& b) { return a.ts < b.ts; });

  // phase -> column; rollback tracked separately as protocol overhead.
  std::vector<std::string> cols(std::begin(kPhases), std::end(kPhases));
  cols.push_back("rollback");
  std::map<int64_t, std::map<std::string, double>> per_tree;  // us sums
  for (const Span& s : spans) {
    if (std::find(cols.begin(), cols.end(), s.name) == cols.end()) continue;
    const double mid = s.ts + s.dur / 2;
    for (size_t i = 0; i < trees.size(); ++i) {
      if (mid >= trees[i].ts && mid <= trees[i].ts + trees[i].dur) {
        const int64_t id =
            trees[i].tree_arg >= 0 ? trees[i].tree_arg
                                   : static_cast<int64_t>(i);
        per_tree[id][s.name] += s.dur;
        break;
      }
    }
  }

  std::printf("\n== per-tree phase time (seconds, all parties) ==\n");
  std::printf("%-6s", "tree");
  for (const std::string& c : cols) std::printf(" %10s", c.c_str());
  std::printf(" %10s\n", "wall");
  double rollback_total = 0, wall_total = 0;
  for (size_t i = 0; i < trees.size(); ++i) {
    const int64_t id =
        trees[i].tree_arg >= 0 ? trees[i].tree_arg : static_cast<int64_t>(i);
    std::printf("%-6lld", static_cast<long long>(id));
    for (const std::string& c : cols) {
      std::printf(" %10.3f", per_tree[id][c] / 1e6);
    }
    std::printf(" %10.3f\n", trees[i].dur / 1e6);
    rollback_total += per_tree[id]["rollback"] / 1e6;
    wall_total += trees[i].dur / 1e6;
  }
  if (wall_total > 0) {
    std::printf("\nrollback overhead: %.3fs of %.3fs tree wall time (%.1f%%)\n",
                rollback_total, wall_total, 100 * rollback_total / wall_total);
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Diff / gate mode
// ---------------------------------------------------------------------------

int RunDiff(const std::string& baseline_path, const std::string& current_path,
            double tolerance, bool check, const std::string& units) {
  BenchMap base, cur;
  std::string error;
  if (!LoadBench(baseline_path, &base, &error) ||
      !LoadBench(current_path, &cur, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  BenchDiffOptions options;
  options.tolerance = tolerance;
  options.units = vf2boost::obs::SplitCommaList(units);
  const BenchDiffReport report = vf2boost::obs::DiffBenchmarks(base, cur,
                                                               options);
  std::printf("baseline %s vs current %s (tolerance %.0f%%)\n",
              baseline_path.c_str(), current_path.c_str(), 100 * tolerance);
  std::printf("%-44s %12s %12s %8s  %s\n", "name", "baseline", "current",
              "delta", "status");
  for (const BenchDiffRow& row : report.rows) {
    const char* status = vf2boost::obs::BenchStatusName(row.status);
    if (!row.has_current) {
      std::printf("%-44s %12.4g %12s %8s  %s\n", row.name.c_str(),
                  row.baseline, "-", "-", status);
    } else if (!row.has_baseline) {
      std::printf("%-44s %12s %12.4g %8s  %s\n", row.name.c_str(), "-",
                  row.current, "-", status);
    } else {
      std::printf("%-44s %12.4g %12.4g %+7.1f%%  %s\n", row.name.c_str(),
                  row.baseline, row.current, 100 * row.delta, status);
    }
  }
  if (report.regressions > 0) {
    std::printf("%d metric(s) regressed beyond %.0f%%\n", report.regressions,
                100 * tolerance);
    return check ? 1 : 0;
  }
  std::printf("no regressions\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vf2boost;
  tools::Flags flags(
      argc, argv,
      {{"metrics", "metrics JSON from --metrics-out (attribution mode)"},
       {"trace", "trace JSON from --trace-out (adds the per-tree table)"},
       {"profile",
        "folded CPU profile from --profile-out (adds the cpu attribution "
        "section)"},
       {"baseline", "baseline benchmark/metrics JSON (diff mode)"},
       {"current", "current benchmark/metrics JSON (diff mode)"},
       {"tolerance", "relative regression tolerance (default 0.15)"},
       {"units", "comma-separated units to gate (default: all gateable)"},
       {"check", "exit 1 when a gated metric regressed or went missing"}});

  const bool diff_mode = flags.Has("baseline") || flags.Has("current");
  if (diff_mode) {
    flags.Require({"baseline", "current"});
    return RunDiff(flags.GetString("baseline"), flags.GetString("current"),
                   flags.GetDouble("tolerance", 0.15), flags.GetBool("check"),
                   flags.GetString("units", ""));
  }
  flags.Require({"metrics"});
  return RunAttribution(flags.GetString("metrics"),
                        flags.GetString("trace", ""),
                        flags.GetString("profile", ""));
}

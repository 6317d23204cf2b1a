// Validates the observability artifacts of a traced run: a Chrome
// trace-event JSON (--trace), a flat metrics JSON (--metrics), and/or a
// folded CPU profile from --profile-out (--profile). Exits nonzero on the
// first structural violation, so CI can gate on it:
//
//   vf2_trace_check --trace trace.json --metrics metrics.json
//                   --require-span encrypt,build_hist --min-events 100
//   vf2_trace_check --profile profile.folded --min-phase-fraction 0.9
//
// --require-span takes a comma-separated list of span names that must each
// appear at least once (e.g. opt_split,rollback to prove the optimistic
// pipeline actually exercised a dirty-node correction).

#include <cstdio>
#include <string>
#include <vector>

#include "obs/bench_diff.h"
#include "obs/profiler.h"
#include "obs/trace_check.h"
#include "tools/flags.h"

int main(int argc, char** argv) {
  using namespace vf2boost;
  tools::Flags flags(
      argc, argv,
      {{"trace", "Chrome trace-event JSON to validate"},
       {"metrics", "flat metrics JSON to validate"},
       {"require-span", "comma-separated span names that must appear"},
       {"min-events", "minimum trace event count (default 1)"},
       {"flow-audit", "strict cross-process flow pairing on the trace"},
       {"causal-slack-us",
        "flow-audit: receive may precede send by this much beyond the "
        "negotiated clock uncertainty (default 0)"},
       {"require-matched-flows",
        "flow-audit: message-name substrings whose flows must all pair"},
       {"max-clock-uncertainty-us",
        "fail when any clockSync entry's uncertainty exceeds this"},
       {"profile", "folded CPU profile (--profile-out) to validate"},
       {"min-phase-fraction",
        "profile: minimum fraction of samples with a known phase tag "
        "(default 0)"},
       {"min-samples", "profile: minimum total sample count (default 1)"},
       {"quiet", "suppress the summary output"}});
  if (!flags.Has("trace") && !flags.Has("metrics") && !flags.Has("profile")) {
    std::fprintf(stderr,
                 "nothing to check: pass --trace, --metrics and/or "
                 "--profile\n");
    return 2;
  }
  const bool quiet = flags.GetBool("quiet");

  if (flags.Has("trace")) {
    const std::string path = flags.GetString("trace");
    std::string text;
    if (!tools::ReadFile(path, &text)) return 1;
    std::string error;
    obs::TraceSummary summary;
    if (!obs::ValidateTraceJson(text, &error, &summary)) {
      std::fprintf(stderr, "%s: INVALID trace: %s\n", path.c_str(),
                   error.c_str());
      return 1;
    }
    const size_t min_events =
        static_cast<size_t>(flags.GetInt("min-events", 1));
    if (summary.events < min_events) {
      std::fprintf(stderr, "%s: only %zu events, expected >= %zu\n",
                   path.c_str(), summary.events, min_events);
      return 1;
    }
    for (const std::string& name :
         obs::SplitCommaList(flags.GetString("require-span"))) {
      const auto it = summary.span_counts.find(name);
      if (it == summary.span_counts.end() || it->second == 0) {
        std::fprintf(stderr, "%s: required span \"%s\" never appears\n",
                     path.c_str(), name.c_str());
        return 1;
      }
    }
    if (flags.GetBool("flow-audit")) {
      obs::FlowAudit audit;
      // The causal bound a merged trace can actually honor is the NTP
      // uncertainty of the negotiated offsets: a receive may legitimately
      // appear up to u_sender + u_receiver early. Allow the sum of the two
      // largest negotiated uncertainties (a pairwise upper bound) on top of
      // the explicit flag; --max-clock-uncertainty-us caps how loose this
      // can get.
      int64_t slack = flags.GetInt("causal-slack-us", 0);
      {
        obs::JsonValue root;
        std::string parse_error;
        double u1 = 0, u2 = 0;  // two largest uncertainties
        if (obs::ParseJson(text, &root, &parse_error) && root.is_object()) {
          if (const obs::JsonValue* cs = root.Get("clockSync");
              cs != nullptr && cs->is_array()) {
            for (const obs::JsonValue& e : cs->array) {
              const obs::JsonValue* samples = e.Get("samples");
              const obs::JsonValue* unc = e.Get("uncertainty_us");
              if (samples == nullptr || !samples->is_number() ||
                  samples->number <= 0 || unc == nullptr ||
                  !unc->is_number()) {
                continue;
              }
              if (unc->number > u1) {
                u2 = u1;
                u1 = unc->number;
              } else if (unc->number > u2) {
                u2 = unc->number;
              }
            }
          }
        }
        slack += static_cast<int64_t>(u1 + u2);
      }
      if (!obs::AuditTraceFlows(
              text, slack,
              obs::SplitCommaList(flags.GetString("require-matched-flows")),
              &error, &audit)) {
        std::fprintf(stderr,
                     "%s: flow audit FAILED: %s\n"
                     "  (matched %zu, unmatched starts %zu, unmatched ends "
                     "%zu, causality violations %zu)\n",
                     path.c_str(), error.c_str(), audit.matched,
                     audit.unmatched_starts, audit.unmatched_ends,
                     audit.causality_violations);
        return 1;
      }
      if (!quiet) {
        std::printf(
            "%s: flow audit OK — %zu matched, %zu/%zu unmatched "
            "starts/ends tolerated, slack %lld us\n",
            path.c_str(), audit.matched, audit.unmatched_starts,
            audit.unmatched_ends, static_cast<long long>(slack));
      }
    }
    if (flags.Has("max-clock-uncertainty-us")) {
      const double max_unc = flags.GetDouble("max-clock-uncertainty-us", 0);
      obs::JsonValue root;
      if (!obs::ParseJson(text, &root, &error)) {
        std::fprintf(stderr, "%s: %s\n", path.c_str(), error.c_str());
        return 1;
      }
      const obs::JsonValue* cs =
          root.is_object() ? root.Get("clockSync") : nullptr;
      if (cs == nullptr || !cs->is_array() || cs->array.empty()) {
        std::fprintf(stderr, "%s: no clockSync metadata to gate on\n",
                     path.c_str());
        return 1;
      }
      size_t negotiated = 0;
      for (const obs::JsonValue& e : cs->array) {
        const obs::JsonValue* ref = e.Get("reference");
        if (ref != nullptr && ref->boolean) continue;  // reference pins 0
        const obs::JsonValue* samples = e.Get("samples");
        if (samples == nullptr || !samples->is_number() ||
            samples->number <= 0) {
          continue;  // never negotiated (e.g. clock sync off)
        }
        ++negotiated;
        const obs::JsonValue* unc = e.Get("uncertainty_us");
        const double u =
            unc != nullptr && unc->is_number() ? unc->number : 1e18;
        if (u > max_unc) {
          std::fprintf(stderr,
                       "%s: clock-offset uncertainty %.0f us exceeds the "
                       "%.0f us budget\n",
                       path.c_str(), u, max_unc);
          return 1;
        }
      }
      if (negotiated == 0) {
        std::fprintf(stderr,
                     "%s: clockSync has no negotiated (samples > 0) entry\n",
                     path.c_str());
        return 1;
      }
      if (!quiet) {
        std::printf("%s: clock uncertainty OK (%zu negotiated offset(s) "
                    "within %.0f us)\n",
                    path.c_str(), negotiated, max_unc);
      }
    }
    if (!quiet) {
      std::printf(
          "%s: OK — %zu events (%zu spans, %zu/%zu flow starts/ends, "
          "%zu counter samples)\n",
          path.c_str(), summary.events, summary.complete_spans,
          summary.flow_starts, summary.flow_ends, summary.counters);
      for (const auto& [name, count] : summary.span_counts) {
        std::printf("  span %-24s x%zu\n", name.c_str(), count);
      }
    }
  }

  if (flags.Has("metrics")) {
    const std::string path = flags.GetString("metrics");
    std::string text;
    if (!tools::ReadFile(path, &text)) return 1;
    std::string error;
    std::vector<std::string> names;
    if (!obs::ValidateMetricsJson(text, &error, &names)) {
      std::fprintf(stderr, "%s: INVALID metrics: %s\n", path.c_str(),
                   error.c_str());
      return 1;
    }
    if (names.empty()) {
      std::fprintf(stderr, "%s: metrics file is empty\n", path.c_str());
      return 1;
    }
    if (!quiet) {
      std::printf("%s: OK — %zu metrics\n", path.c_str(), names.size());
    }
  }

  if (flags.Has("profile")) {
    const std::string path = flags.GetString("profile");
    std::string text;
    if (!tools::ReadFile(path, &text)) return 1;
    std::string error;
    obs::FoldedProfileInfo info;
    if (!obs::ParseFoldedProfile(text, &info, &error)) {
      std::fprintf(stderr, "%s: INVALID profile: %s\n", path.c_str(),
                   error.c_str());
      return 1;
    }
    const uint64_t min_samples =
        static_cast<uint64_t>(flags.GetInt("min-samples", 1));
    if (info.total_samples < min_samples) {
      std::fprintf(stderr, "%s: only %llu samples, expected >= %llu\n",
                   path.c_str(),
                   static_cast<unsigned long long>(info.total_samples),
                   static_cast<unsigned long long>(min_samples));
      return 1;
    }
    const double fraction =
        info.total_samples == 0
            ? 0.0
            : static_cast<double>(info.phase_tagged) /
                  static_cast<double>(info.total_samples);
    const double min_fraction = flags.GetDouble("min-phase-fraction", 0);
    if (fraction < min_fraction) {
      std::fprintf(stderr,
                   "%s: only %.1f%% of samples carry a known phase tag, "
                   "expected >= %.1f%%\n",
                   path.c_str(), 100 * fraction, 100 * min_fraction);
      return 1;
    }
    if (!quiet) {
      char hz_note[32];
      if (info.hz > 0) {
        std::snprintf(hz_note, sizeof(hz_note), ", %d Hz", info.hz);
      } else {
        std::snprintf(hz_note, sizeof(hz_note), ", no hz header");
      }
      std::printf(
          "%s: OK — %llu samples on %llu stacks (%.1f%% phase-tagged%s)\n",
          path.c_str(), static_cast<unsigned long long>(info.total_samples),
          static_cast<unsigned long long>(info.lines), 100 * fraction,
          hz_note);
      for (const auto& [key, count] : info.samples_by_phase) {
        std::printf("  phase %-32s x%llu\n", key.c_str(),
                    static_cast<unsigned long long>(count));
      }
    }
  }
  return 0;
}

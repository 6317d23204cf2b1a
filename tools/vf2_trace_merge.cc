// Merges per-party Chrome trace-event JSONs from a multi-process run into
// one Perfetto-loadable timeline:
//
//   vf2_trace_merge --inputs traceB.json,traceA0.json --out merged.json
//
// Each input carries its own "clockSync" metadata (written by the trace
// recorder from the kHello/kClockPing offset negotiation). The file whose
// entry is marked reference=true (party B) keeps its timestamps; every other
// file is shifted by its negotiated offset onto the reference clock, then
// the whole timeline is normalized to start at ts=0. Wire flow events ('s'
// from the sender's file, 'f' from the receiver's) share a globally unique
// per-party-namespaced id, so the union stitches cross-process arrows with
// no renumbering. The merged file keeps a combined "clockSync" array (with
// the applied shifts) for downstream gating (vf2_trace_check
// --max-clock-uncertainty-us).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace_check.h"
#include "tools/flags.h"

namespace {

using vf2boost::obs::JsonValue;
using vf2boost::obs::ParseJson;

void AppendEscaped(std::string* out, const std::string& s) {
  *out += '"';
  for (char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\t': *out += "\\t"; break;
      case '\r': *out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
  *out += '"';
}

void AppendNumber(std::string* out, double v) {
  // Trace ids and timestamps are integral and below 2^53: print them
  // exactly, without an exponent, so ids survive a parse/serialize rountrip
  // bit-for-bit.
  if (v == static_cast<double>(static_cast<long long>(v)) &&
      std::abs(v) < 9.007199254740992e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    *out += buf;
  } else {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    *out += buf;
  }
}

void Serialize(const JsonValue& v, std::string* out) {
  switch (v.type) {
    case JsonValue::Type::kNull:
      *out += "null";
      break;
    case JsonValue::Type::kBool:
      *out += v.boolean ? "true" : "false";
      break;
    case JsonValue::Type::kNumber:
      AppendNumber(out, v.number);
      break;
    case JsonValue::Type::kString:
      AppendEscaped(out, v.string);
      break;
    case JsonValue::Type::kArray: {
      *out += '[';
      for (size_t i = 0; i < v.array.size(); ++i) {
        if (i > 0) *out += ',';
        Serialize(v.array[i], out);
      }
      *out += ']';
      break;
    }
    case JsonValue::Type::kObject: {
      *out += '{';
      bool first = true;
      for (const auto& [key, value] : v.object) {
        if (!first) *out += ',';
        first = false;
        AppendEscaped(out, key);
        *out += ':';
        Serialize(value, out);
      }
      *out += '}';
      break;
    }
  }
}

struct ClockEntry {
  double pid = 0;
  double offset_us = 0;       // shift that was applied to this file
  double uncertainty_us = 0;
  double rtt_us = 0;
  double samples = 0;
  bool reference = false;
};

struct InputFile {
  std::string path;
  JsonValue root;
  double shift_us = 0;
  std::vector<ClockEntry> clock_entries;
};

double NumberOr(const JsonValue* v, double fallback) {
  return v != nullptr && v->is_number() ? v->number : fallback;
}

// The shift that maps this file onto the reference clock. A reference entry
// pins the file at 0; otherwise the negotiated offset (remote - local) of
// the file's own party is the shift. A file with no clock metadata (e.g. an
// in-process run's single trace) merges unshifted.
double FileShift(const InputFile& f, bool* negotiated) {
  *negotiated = false;
  const ClockEntry* best = nullptr;
  for (const ClockEntry& e : f.clock_entries) {
    if (e.reference) return 0;
    if (best == nullptr || e.samples > best->samples) best = &e;
  }
  if (best == nullptr || best->samples <= 0) return 0;
  *negotiated = true;
  return best->offset_us;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vf2boost;
  tools::Flags flags(
      argc, argv,
      {{"inputs", "comma-separated per-party trace JSONs to merge"},
       {"out", "merged trace JSON path"},
       {"quiet", "suppress the summary output"}});
  flags.Require({"inputs", "out"});

  std::vector<std::string> paths;
  {
    const std::string csv = flags.GetString("inputs");
    std::string cur;
    for (char c : csv) {
      if (c == ',') {
        if (!cur.empty()) paths.push_back(cur);
        cur.clear();
      } else {
        cur += c;
      }
    }
    if (!cur.empty()) paths.push_back(cur);
  }
  if (paths.empty()) {
    std::fprintf(stderr, "error: --inputs is empty\n");
    return 2;
  }

  std::vector<InputFile> files;
  for (const std::string& path : paths) {
    InputFile f;
    f.path = path;
    std::string text, error;
    if (!tools::ReadFile(path, &text)) return 1;
    if (!ParseJson(text, &f.root, &error)) {
      std::fprintf(stderr, "%s: bad JSON: %s\n", path.c_str(), error.c_str());
      return 1;
    }
    if (!f.root.is_object() || f.root.Get("traceEvents") == nullptr ||
        !f.root.Get("traceEvents")->is_array()) {
      std::fprintf(stderr, "%s: no traceEvents array\n", path.c_str());
      return 1;
    }
    if (const JsonValue* cs = f.root.Get("clockSync");
        cs != nullptr && cs->is_array()) {
      for (const JsonValue& e : cs->array) {
        ClockEntry entry;
        entry.pid = NumberOr(e.Get("pid"), 0);
        entry.offset_us = NumberOr(e.Get("offset_us"), 0);
        entry.uncertainty_us = NumberOr(e.Get("uncertainty_us"), 0);
        entry.rtt_us = NumberOr(e.Get("rtt_us"), 0);
        entry.samples = NumberOr(e.Get("samples"), 0);
        const JsonValue* ref = e.Get("reference");
        entry.reference = ref != nullptr &&
                          ref->type == JsonValue::Type::kBool && ref->boolean;
        f.clock_entries.push_back(entry);
      }
    }
    files.push_back(std::move(f));
  }

  // Pass 1: per-file shift onto the reference clock, then the global
  // earliest (shifted) event pins ts=0 for the merged timeline.
  size_t negotiated_files = 0;
  double min_ts = std::numeric_limits<double>::infinity();
  for (InputFile& f : files) {
    bool negotiated = false;
    f.shift_us = FileShift(f, &negotiated);
    if (negotiated) ++negotiated_files;
    for (const JsonValue& e : f.root.Get("traceEvents")->array) {
      const JsonValue* ph = e.Get("ph");
      const JsonValue* ts = e.Get("ts");
      if (ph == nullptr || !ph->is_string() || ph->string == "M") continue;
      if (ts != nullptr && ts->is_number()) {
        min_ts = std::min(min_ts, ts->number + f.shift_us);
      }
    }
  }
  if (!std::isfinite(min_ts)) min_ts = 0;

  // Pass 2: union the events. Process-name metadata dedupes by (pid, name)
  // so a party traced into several files labels its track once.
  JsonValue merged_events;
  merged_events.type = JsonValue::Type::kArray;
  std::set<std::pair<double, std::string>> seen_meta;
  size_t total_events = 0;
  for (const InputFile& f : files) {
    for (const JsonValue& e : f.root.Get("traceEvents")->array) {
      if (!e.is_object()) continue;
      const JsonValue* ph = e.Get("ph");
      if (ph == nullptr || !ph->is_string()) continue;
      JsonValue copy = e;
      if (ph->string == "M") {
        std::string label;
        if (const JsonValue* args = e.Get("args"); args != nullptr) {
          if (const JsonValue* name = args->Get("name");
              name != nullptr && name->is_string()) {
            label = name->string;
          }
        }
        const auto key = std::make_pair(NumberOr(e.Get("pid"), 0), label);
        if (!seen_meta.insert(key).second) continue;
      } else if (auto it = copy.object.find("ts");
                 it != copy.object.end() && it->second.is_number()) {
        it->second.number = it->second.number + f.shift_us - min_ts;
      }
      merged_events.array.push_back(std::move(copy));
      ++total_events;
    }
  }

  std::string out = "{\"traceEvents\":";
  Serialize(merged_events, &out);
  out += ",\"displayTimeUnit\":\"ms\",\"clockSync\":[";
  bool first = true;
  for (const InputFile& f : files) {
    for (const ClockEntry& e : f.clock_entries) {
      if (!first) out += ',';
      first = false;
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "{\"pid\":%.0f,\"offset_us\":%.0f,"
                    "\"uncertainty_us\":%.0f,\"rtt_us\":%.0f,"
                    "\"samples\":%.0f,\"reference\":%s,"
                    "\"applied_shift_us\":%.0f}",
                    e.pid, e.offset_us, e.uncertainty_us, e.rtt_us, e.samples,
                    e.reference ? "true" : "false", f.shift_us);
      out += buf;
    }
  }
  out += "]}\n";

  const std::string out_path = flags.GetString("out");
  std::ofstream os(out_path, std::ios::binary | std::ios::trunc);
  if (!os || !(os << out)) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  os.close();

  if (!flags.GetBool("quiet")) {
    std::printf("merged %zu file(s) -> %s: %zu events, %zu clock-shifted\n",
                files.size(), out_path.c_str(), total_events,
                negotiated_files);
    for (const InputFile& f : files) {
      std::printf("  %-32s shift %+.0f us\n", f.path.c_str(), f.shift_us);
    }
  }
  return 0;
}

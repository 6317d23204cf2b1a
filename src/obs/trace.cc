#include "obs/trace.h"

#include <cstdio>
#include <cstring>

#include "common/logging.h"
#include "obs/profiler.h"

namespace vf2boost {
namespace obs {

std::atomic<TraceRecorder*> TraceRecorder::g_current{nullptr};

namespace {

// Trace attribution of the calling thread: pid set by SetThreadParty (0 =
// unattributed), tid a small dense id assigned on first use.
thread_local uint32_t t_pid = 0;
std::atomic<uint32_t> g_next_tid{1};
thread_local uint32_t t_tid = 0;

uint32_t ThreadTid() {
  if (t_tid == 0) t_tid = g_next_tid.fetch_add(1, std::memory_order_relaxed);
  return t_tid;
}

std::atomic<uint32_t> g_trace_namespace{0};
std::atomic<uint64_t> g_next_trace_seq{1};

}  // namespace

uint32_t CurrentTraceThreadPid() { return t_pid; }

void SetProcessTraceNamespace(uint32_t ns) {
  g_trace_namespace.store(ns, std::memory_order_relaxed);
}

uint32_t ProcessTraceNamespace() {
  return g_trace_namespace.load(std::memory_order_relaxed);
}

uint64_t NamespacedFlowId(uint64_t local) {
  // Namespace at bits 40..47: high enough that per-process sequences never
  // reach it, low enough that the composed id stays under 2^48 and survives
  // the double-precision parse in trace_check exactly.
  return (static_cast<uint64_t>(ProcessTraceNamespace()) << 40) | local;
}

uint64_t NextTraceId() {
  return NamespacedFlowId(
      g_next_trace_seq.fetch_add(1, std::memory_order_relaxed));
}

int64_t TraceNowMicros() {
  if (TraceRecorder* rec = TraceRecorder::Current(); rec != nullptr) {
    return rec->NowMicros();
  }
  static const TraceRecorder::Clock::time_point epoch =
      TraceRecorder::Clock::now();
  return std::chrono::duration_cast<std::chrono::microseconds>(
             TraceRecorder::Clock::now() - epoch)
      .count();
}

TraceRecorder::TraceRecorder() : origin_(Clock::now()) {}

TraceRecorder::~TraceRecorder() {
  // Detach if we are still the global recorder so no site dangles into a
  // destroyed object.
  TraceRecorder* expected = this;
  g_current.compare_exchange_strong(expected, nullptr,
                                    std::memory_order_acq_rel);
}

void TraceRecorder::Install() {
  g_current.store(this, std::memory_order_release);
}

void TraceRecorder::Uninstall() {
  g_current.store(nullptr, std::memory_order_release);
}

void TraceRecorder::SetThreadParty(uint32_t pid,
                                   const std::string& process_name) {
  t_pid = pid;
  TraceRecorder* rec = Current();
  if (rec == nullptr) return;
  std::lock_guard<std::mutex> lock(rec->mu_);
  rec->process_names_[pid] = process_name;
}

void TraceRecorder::SetClockSync(uint32_t pid, const ClockSyncMeta& meta) {
  std::lock_guard<std::mutex> lock(mu_);
  clock_sync_[pid] = meta;
}

std::map<uint32_t, TraceRecorder::ClockSyncMeta>
TraceRecorder::ClockSyncEntries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return clock_sync_;
}

int64_t TraceRecorder::NowMicros() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                               origin_)
      .count();
}

void TraceRecorder::Append(Event e) {
  e.pid = t_pid;
  e.tid = ThreadTid();
  std::lock_guard<std::mutex> lock(mu_);
  if (e.ph == 'X') {
    RecentSpan span{e.name, e.pid, e.tid, e.ts_us, e.dur_us};
    if (recent_.size() < kRecentSpanCapacity) {
      recent_.push_back(std::move(span));
    } else {
      recent_[recent_next_] = std::move(span);
      recent_next_ = (recent_next_ + 1) % kRecentSpanCapacity;
    }
  }
  events_.push_back(std::move(e));
}

void TraceRecorder::CompleteSpan(std::string name, const char* category,
                                 int64_t ts_us, int64_t dur_us,
                                 std::string args_json) {
  Event e;
  e.ph = 'X';
  e.ts_us = ts_us;
  e.dur_us = dur_us < 1 ? 1 : dur_us;  // zero-width spans vanish in viewers
  e.id = 0;
  e.name = std::move(name);
  e.args_json = std::move(args_json);
  e.category = category;
  Append(std::move(e));
}

void TraceRecorder::FlowStart(std::string name, uint64_t id,
                              std::string args_json, int64_t ts_us) {
  const int64_t now = ts_us >= 0 ? ts_us : NowMicros();
  // Anchor span: flow arrows bind to enclosing slices in the viewer.
  CompleteSpan(name, "comm", now, 1, std::move(args_json));
  Event e;
  e.ph = 's';
  e.ts_us = now;
  e.dur_us = 0;
  e.id = id;
  e.name = std::move(name);
  e.category = "comm";
  Append(std::move(e));
}

void TraceRecorder::FlowEnd(std::string name, uint64_t id,
                            std::string args_json) {
  const int64_t now = NowMicros();
  CompleteSpan(name, "comm", now, 1, std::move(args_json));
  Event e;
  e.ph = 'f';
  e.ts_us = now;
  e.dur_us = 0;
  e.id = id;
  e.name = std::move(name);
  e.category = "comm";
  Append(std::move(e));
}

void TraceRecorder::CounterValue(std::string name, double value) {
  Event e;
  e.ph = 'C';
  e.ts_us = NowMicros();
  e.dur_us = 0;
  e.id = 0;
  e.name = std::move(name);
  char buf[64];
  std::snprintf(buf, sizeof(buf), "\"value\":%.6g", value);
  e.args_json = buf;
  e.category = "gauge";
  Append(std::move(e));
}

size_t TraceRecorder::num_events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

std::vector<TraceRecorder::SpanView> TraceRecorder::CompleteSpans() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SpanView> out;
  for (const Event& e : events_) {
    if (e.ph != 'X') continue;
    out.push_back(SpanView{&e.name, e.pid, e.tid, e.ts_us, e.dur_us});
  }
  return out;
}

std::map<uint32_t, std::string> TraceRecorder::ProcessNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  return process_names_;
}

std::vector<TraceRecorder::RecentSpan> TraceRecorder::RecentSpans() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<RecentSpan> out;
  out.reserve(recent_.size());
  // Once the ring is full, recent_next_ points at the oldest entry.
  const size_t start = recent_.size() < kRecentSpanCapacity ? 0 : recent_next_;
  for (size_t i = 0; i < recent_.size(); ++i) {
    out.push_back(recent_[(start + i) % recent_.size()]);
  }
  return out;
}

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

std::string TraceRecorder::ToJson(int pid_filter) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"traceEvents\":[\n";
  bool first = true;
  char buf[256];
  // Process-name metadata first so viewers label the pid rows.
  for (const auto& [pid, name] : process_names_) {
    if (pid_filter >= 0 && pid != static_cast<uint32_t>(pid_filter)) continue;
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%u,"
                  "\"tid\":0,\"ts\":0,\"args\":{\"name\":\"%s\"}}",
                  first ? "" : ",\n", pid, JsonEscape(name).c_str());
    out += buf;
    first = false;
  }
  for (const Event& e : events_) {
    if (pid_filter >= 0 && e.pid != static_cast<uint32_t>(pid_filter)) {
      continue;
    }
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%c\","
                  "\"ts\":%lld,\"pid\":%u,\"tid\":%u",
                  first ? "" : ",\n", JsonEscape(e.name).c_str(),
                  e.category == nullptr ? "" : e.category, e.ph,
                  static_cast<long long>(e.ts_us), e.pid, e.tid);
    out += buf;
    first = false;
    if (e.ph == 'X') {
      std::snprintf(buf, sizeof(buf), ",\"dur\":%lld",
                    static_cast<long long>(e.dur_us));
      out += buf;
    }
    if (e.ph == 's' || e.ph == 'f') {
      std::snprintf(buf, sizeof(buf), ",\"id\":%llu",
                    static_cast<unsigned long long>(e.id));
      out += buf;
      if (e.ph == 'f') out += ",\"bp\":\"e\"";
    }
    if (!e.args_json.empty()) {
      out += ",\"args\":{" + e.args_json + "}";
    }
    out += "}";
  }
  out += "\n],\"displayTimeUnit\":\"ms\"";
  // Clock-alignment metadata: vf2_trace_merge reads this to shift the file
  // onto the reference party's timeline. Not part of the trace-event spec;
  // viewers ignore unknown top-level keys.
  bool first_cs = true;
  for (const auto& [pid, cs] : clock_sync_) {
    if (pid_filter >= 0 && pid != static_cast<uint32_t>(pid_filter)) continue;
    out += first_cs ? ",\"clockSync\":[" : ",";
    first_cs = false;
    std::snprintf(buf, sizeof(buf),
                  "{\"pid\":%u,\"offset_us\":%lld,\"uncertainty_us\":%lld,"
                  "\"rtt_us\":%lld,\"samples\":%u,\"reference\":%s}",
                  pid, static_cast<long long>(cs.offset_us),
                  static_cast<long long>(cs.uncertainty_us),
                  static_cast<long long>(cs.rtt_us), cs.samples,
                  cs.reference ? "true" : "false");
    out += buf;
  }
  if (!first_cs) out += "]";
  out += "}\n";
  return out;
}

bool TraceRecorder::WriteJson(const std::string& path, int pid_filter) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    VF2_LOG(Error) << "cannot open " << path << " for writing";
    return false;
  }
  const std::string json = ToJson(pid_filter);
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  std::fclose(f);
  if (!ok) VF2_LOG(Error) << "short write to " << path;
  return ok;
}

void TraceSpan::AddArg(const char* key, int64_t value) {
  if (rec_ == nullptr) return;
  if (!args_.empty()) args_ += ",";
  char buf[96];
  std::snprintf(buf, sizeof(buf), "\"%s\":%lld", key,
                static_cast<long long>(value));
  args_ += buf;
}

void TraceSpan::AddArg(const char* key, double value) {
  if (rec_ == nullptr) return;
  if (!args_.empty()) args_ += ",";
  char buf[96];
  std::snprintf(buf, sizeof(buf), "\"%s\":%.6g", key, value);
  args_ += buf;
}

void TraceSpan::AddArg(const char* key, const std::string& value) {
  if (rec_ == nullptr) return;
  if (!args_.empty()) args_ += ",";
  args_ += "\"" + std::string(key) + "\":\"" + JsonEscape(value) + "\"";
}

ThreadPartyScope::ThreadPartyScope(uint32_t pid, const std::string& name)
    : prev_pid_(t_pid), prev_log_tag_(GetThreadLogContext()) {
  TraceRecorder::SetThreadParty(pid, name);
  SetThreadLogContext(name);
  // Profiler attribution: samples taken on this thread carry the party
  // name ("party B" -> "party_b"), and the thread becomes sampleable.
  std::memcpy(prev_party_tag_, MutablePhaseTag()->party,
              sizeof(prev_party_tag_));
  SetThreadPartyTag(name.c_str());
  ProfilerRegisterCurrentThread();
}

ThreadPartyScope::~ThreadPartyScope() {
  t_pid = prev_pid_;
  SetThreadLogContext(prev_log_tag_);
  std::memcpy(MutablePhaseTag()->party, prev_party_tag_,
              sizeof(prev_party_tag_));
}

}  // namespace obs
}  // namespace vf2boost

#ifndef VF2BOOST_OBS_TRACE_H_
#define VF2BOOST_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/phase_tag.h"

namespace vf2boost {
namespace obs {

/// \brief Span/flow recorder emitting Chrome trace-event JSON.
///
/// The output loads directly in Perfetto (https://ui.perfetto.dev) or
/// chrome://tracing and reconstructs the paper's Fig-4/5 timelines from a
/// REAL run: pid = party, tid = thread, complete ("X") spans for protocol
/// phases, flow ("s"/"f") arrows linking a message's send on one party to
/// its receive on the other, and counter ("C") tracks for gauges like the
/// noise-pool fill level.
///
/// Exactly one recorder can be active at a time (`Install`/`Uninstall`);
/// instrumentation sites reach it through `Current()`, one relaxed atomic
/// load. With no recorder installed a VF2_TRACE_SPAN costs that load and a
/// predictable branch — nothing else — so the hot paths stay untouched in
/// production runs.
///
/// Thread-safe: events from any thread are appended under one mutex. That is
/// deliberate — spans mark phase boundaries (per batch / node / message),
/// not per-element work, so contention is negligible next to the crypto they
/// bracket.
class TraceRecorder {
 public:
  using Clock = std::chrono::steady_clock;

  TraceRecorder();
  ~TraceRecorder();

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Makes this the process-global recorder seen by Current(). The recorder
  /// must outlive training; Uninstall (or destruction) detaches it.
  void Install();
  static void Uninstall();
  static TraceRecorder* Current() {
    return g_current.load(std::memory_order_acquire);
  }

  /// Binds the calling thread to a trace process: subsequent events from
  /// this thread carry `pid`, and the pid row is labeled `process_name` in
  /// the viewer. Engines call this on entry (B on the caller thread, each A
  /// on its spawned thread). Affects only trace attribution; safe to call
  /// with no recorder installed.
  static void SetThreadParty(uint32_t pid, const std::string& process_name);

  /// Clock-alignment metadata for one trace process, embedded into the
  /// exported JSON (top-level "clockSync" array) so vf2_trace_merge can
  /// shift this file's timestamps onto the reference party's timeline.
  /// `reference` marks the party whose clock the offsets are relative to
  /// (its own offset is 0 by definition).
  struct ClockSyncMeta {
    int64_t offset_us = 0;       ///< add to local ts to land on reference time
    int64_t uncertainty_us = 0;  ///< bound on |true offset - offset_us|
    int64_t rtt_us = 0;          ///< min round-trip of the samples used
    uint32_t samples = 0;
    bool reference = false;
  };
  void SetClockSync(uint32_t pid, const ClockSyncMeta& meta);
  std::map<uint32_t, ClockSyncMeta> ClockSyncEntries() const;

  /// Microseconds since this recorder was created (all parties share the
  /// process clock, so cross-party spans and flows line up).
  int64_t NowMicros() const;

  /// Complete span [ts_us, ts_us + dur_us). `args_json` is either empty or
  /// a preformatted `"key":value` list (no outer braces).
  void CompleteSpan(std::string name, const char* category, int64_t ts_us,
                    int64_t dur_us, std::string args_json);
  /// Flow arrow endpoints; `id` must match between the send ("s") and the
  /// receive ("f") side. Each endpoint also emits a 1us anchor span, which
  /// the arrow binds to in the viewer. A start may carry an earlier `ts_us`
  /// (NowMicros when the frame was handed over; -1 = now), so a start that
  /// is recorded after the peer already received the frame still precedes
  /// its end.
  void FlowStart(std::string name, uint64_t id, std::string args_json,
                 int64_t ts_us = -1);
  void FlowEnd(std::string name, uint64_t id, std::string args_json);
  /// Counter track sample (rendered as a step chart).
  void CounterValue(std::string name, double value);

  size_t num_events() const;

  /// View of recorded complete spans (for the text gantt renderer).
  struct SpanView {
    const std::string* name;
    uint32_t pid;
    uint32_t tid;
    int64_t ts_us;
    int64_t dur_us;
  };
  std::vector<SpanView> CompleteSpans() const;
  std::map<uint32_t, std::string> ProcessNames() const;

  /// The last kRecentSpanCapacity completed spans, oldest first — a bounded
  /// owning copy (names included) for live introspection (/tracez) while the
  /// full event log keeps growing.
  static constexpr size_t kRecentSpanCapacity = 256;
  struct RecentSpan {
    std::string name;
    uint32_t pid;
    uint32_t tid;
    int64_t ts_us;
    int64_t dur_us;
  };
  std::vector<RecentSpan> RecentSpans() const;

  /// `pid_filter` >= 0 keeps only events attributed to that trace pid (for
  /// per-party artifact files); -1 exports everything.
  std::string ToJson(int pid_filter = -1) const;
  bool WriteJson(const std::string& path, int pid_filter = -1) const;

 private:
  struct Event {
    char ph;  // 'X', 's', 'f', 'C', 'M'
    uint32_t pid;
    uint32_t tid;
    int64_t ts_us;
    int64_t dur_us;  // X only
    uint64_t id;     // s/f only
    std::string name;
    std::string args_json;
    const char* category;
  };

  void Append(Event e);

  static std::atomic<TraceRecorder*> g_current;

  const Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Event> events_;
  std::map<uint32_t, std::string> process_names_;
  std::map<uint32_t, ClockSyncMeta> clock_sync_;
  std::vector<RecentSpan> recent_;  ///< ring, capacity kRecentSpanCapacity
  size_t recent_next_ = 0;          ///< ring write cursor
};

/// Trace pid of the calling thread (what SetThreadParty last bound; 0 =
/// unattributed). Lets transports stamp flight-recorder entries with the
/// same party attribution the trace events carry.
uint32_t CurrentTraceThreadPid();

/// Process-wide namespace folded into every wire trace id / flow id so ids
/// minted by different OS processes never collide when their trace files are
/// merged. Multi-process drivers set this to a distinct small value per
/// process (e.g. the party's trace pid) before bringing up transports;
/// single-process runs keep the default 0.
void SetProcessTraceNamespace(uint32_t ns);
uint32_t ProcessTraceNamespace();

/// Next wire trace id: a process-global monotone sequence folded with the
/// process namespace. The namespace occupies bits 40..47 so ids survive a
/// round-trip through JSON double parsing (53-bit mantissa) intact.
uint64_t NextTraceId();

/// Folds the process namespace into a locally-unique flow id (same bit
/// layout as NextTraceId; `local` must stay below 2^40).
uint64_t NamespacedFlowId(uint64_t local);

/// Microseconds on the tracing timebase: the installed recorder's NowMicros
/// when one exists, else a process-static steady epoch. Clock-sync frames
/// use this so offsets measured during the handshake apply directly to
/// trace timestamps.
int64_t TraceNowMicros();

/// \brief RAII complete-span. Construction snapshots the active recorder and
/// the start time; destruction emits the span. All methods are no-ops when
/// no recorder is installed.
class TraceSpan {
 public:
  TraceSpan(const char* category, const char* name)
      : rec_(TraceRecorder::Current()), category_(category), name_(name) {
    if (rec_ != nullptr) start_us_ = rec_->NowMicros();
    // "phase"-category spans double as profiler phase tags (obs/phase_tag.h)
    // so SIGPROF samples inside the span carry its name — even with no
    // recorder installed (profiling without tracing). `name` is a string
    // literal per the macro contract, so the tag can hold the pointer.
    if (category != nullptr && std::strcmp(category, "phase") == 0) {
      PhaseTag* tag = MutablePhaseTag();
      prev_phase_ = tag->phase;
      tag->phase = name;
      tagged_ = true;
    }
  }
  ~TraceSpan() { End(); }

  /// Emits the span now instead of at scope exit — for phases that end
  /// mid-scope. Idempotent; later AddArg calls become no-ops.
  void End() {
    if (tagged_) {
      MutablePhaseTag()->phase = prev_phase_;
      tagged_ = false;
    }
    if (rec_ != nullptr) {
      rec_->CompleteSpan(name_, category_, start_us_,
                         rec_->NowMicros() - start_us_, std::move(args_));
      rec_ = nullptr;
    }
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// True when a recorder is installed — gate any arg-formatting work on
  /// this so disabled runs never build strings.
  bool active() const { return rec_ != nullptr; }

  void AddArg(const char* key, int64_t value);
  void AddArg(const char* key, double value);
  void AddArg(const char* key, const std::string& value);

 private:
  TraceRecorder* rec_;
  const char* category_;
  const char* name_;
  int64_t start_us_ = 0;
  std::string args_;
  const char* prev_phase_ = nullptr;
  bool tagged_ = false;
};

/// \brief RAII party binding for the calling thread: sets BOTH the trace
/// attribution (pid + process name, see TraceRecorder::SetThreadParty) and
/// the log-line context prefix (SetThreadLogContext), restoring the previous
/// binding on destruction. Engines open one of these at the top of Run() so
/// borrowed caller threads (Party B runs on the trainer's thread) are left
/// as found.
class ThreadPartyScope {
 public:
  ThreadPartyScope(uint32_t pid, const std::string& name);
  ~ThreadPartyScope();

  ThreadPartyScope(const ThreadPartyScope&) = delete;
  ThreadPartyScope& operator=(const ThreadPartyScope&) = delete;

 private:
  uint32_t prev_pid_;
  std::string prev_log_tag_;
  char prev_party_tag_[24];
};

#define VF2_TRACE_CONCAT_INNER(a, b) a##b
#define VF2_TRACE_CONCAT(a, b) VF2_TRACE_CONCAT_INNER(a, b)

/// Zero-cost-when-disabled scoped span: one atomic load when no recorder is
/// installed. Category groups spans for filtering in the viewer ("phase",
/// "comm", "crypto", ...).
#define VF2_TRACE_SPAN(category, name)             \
  ::vf2boost::obs::TraceSpan VF2_TRACE_CONCAT(     \
      _vf2_trace_span_, __LINE__)(category, name)

}  // namespace obs
}  // namespace vf2boost

#endif  // VF2BOOST_OBS_TRACE_H_

#ifndef VF2BOOST_OBS_PROFILER_H_
#define VF2BOOST_OBS_PROFILER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace vf2boost {
namespace obs {

/// \brief In-process sampling CPU profiler with phase attribution.
///
/// Every registered thread gets its own POSIX CPU-time timer
/// (`timer_create` on the thread's `pthread_getcpuclockid` clock) firing
/// SIGPROF at `hz` on that thread. The handler — async-signal-safe: no
/// locks, no allocation, no symbolization — captures a raw backtrace plus
/// the thread's PhaseTag (obs/phase_tag.h, kept current by PhaseClock /
/// VF2_TRACE_SPAN / ThreadPartyScope) into a lock-free ring. A background
/// drainer folds ring entries into aggregate counts; symbolization happens
/// only at report time (`FoldedText`), via dladdr + demangling.
///
/// Because the timers run on per-thread CPU clocks, a blocked thread
/// (comm_wait, idle pool worker) takes no samples — CPU attribution is
/// exactly what the name says, and skew against span wall time is the
/// lock-contention / stall evidence vf2_report surfaces.
///
/// When no profiler is running the cost is zero: no timers exist, SIGPROF
/// never fires, and the instrumentation sites (phase tags) are plain
/// thread-local stores that engines pay anyway for tracing.
///
/// Exactly one profiler can be running at a time (Start fails otherwise).
/// The SIGPROF handler stays installed for the life of the process once any
/// profiler has started — restoring the default disposition while a
/// just-deleted timer still has a signal in flight would kill the process.
struct ProfilerOptions {
  int hz = 99;          ///< per-thread sampling frequency
  int max_frames = 48;  ///< deepest stack captured per sample
};

struct ProfilerStats {
  uint64_t samples = 0;    ///< samples folded into the profile
  uint64_t dropped = 0;    ///< samples lost to a full ring
  uint64_t threads = 0;    ///< threads that were armed at least once
};

class Profiler {
 public:
  explicit Profiler(ProfilerOptions opts = {});
  ~Profiler();

  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  /// Arms timers on every registered thread (and on threads that register
  /// later, until Stop). Returns false if another profiler is running.
  bool Start();
  /// Disarms all timers, waits out in-flight handlers, drains the ring.
  /// Idempotent.
  void Stop();

  bool running() const;

  /// The profiler running process-wide right now, or nullptr. Borrowed;
  /// valid until that profiler's Stop returns.
  static Profiler* Active();

  /// Aggregated sample counts keyed by semicolon-joined folded stack
  /// `party;phase;outer;...;inner` (symbolized, root first). Safe while
  /// running; drains pending ring entries first.
  std::map<std::string, uint64_t> Counts() const;

  /// Deterministic folded-stack text: '#' header lines (hz, samples,
  /// dropped), then `party;phase;frames... count` lines sorted
  /// lexicographically. `party_filter` non-empty keeps only stacks whose
  /// first component equals it. `base` non-null subtracts a prior Counts()
  /// snapshot (for serving a time-windowed delta from a long-running
  /// profiler).
  std::string FoldedText(
      const std::string& party_filter = "",
      const std::map<std::string, uint64_t>* base = nullptr) const;
  bool WriteFolded(const std::string& path,
                   const std::string& party_filter = "") const;

  ProfilerStats stats() const;

  struct Impl;  // public name so free helpers in profiler.cc can use it

 private:
  /// Stop body without the collection lock (CollectFoldedProfile already
  /// holds it when stopping its temporary profiler).
  void StopLocked();
  friend std::string CollectFoldedProfile(double seconds, int hz,
                                          std::string* error);
  Impl* impl_;
};

/// Registers the calling thread with the profiler subsystem: a running
/// profiler (current or future) arms a CPU-time timer on it. Idempotent;
/// the thread auto-unregisters at exit. Engines, pool workers and noise
/// producers call this on entry; unregistered threads are simply invisible
/// to profiles.
void ProfilerRegisterCurrentThread();

/// Collects a folded CPU profile over ~`seconds`. If a profiler is already
/// running, serves the delta of its counts over the window; otherwise runs
/// a temporary profiler at `hz`. Blocks for the duration. On failure
/// returns empty and sets `*error`.
std::string CollectFoldedProfile(double seconds, int hz, std::string* error);

/// ---- Folded-profile validation (vf2_trace_check --profile) ----------

struct FoldedProfileInfo {
  uint64_t total_samples = 0;
  uint64_t phase_tagged = 0;  ///< samples whose phase component != "unknown"
  uint64_t lines = 0;
  int hz = 0;  ///< from the '# hz N' header comment; 0 when absent
  std::map<std::string, uint64_t> samples_by_phase;  ///< "party/phase" -> n
};

/// Parses + grammar-checks folded text: '#' comments anywhere; every other
/// line must be `comp1;comp2[;...] count` with >= 2 components, non-empty
/// components, and a positive integer count. Returns false (with `*error`)
/// on the first violation.
bool ParseFoldedProfile(const std::string& text, FoldedProfileInfo* info,
                        std::string* error);

/// ---- Resource accounting --------------------------------------------

/// One sample of process-level resource usage, from /proc/self/statm,
/// getrusage and (glibc) mallinfo2. Fields are 0 when the source is
/// unavailable on the platform.
struct ResourceUsage {
  uint64_t rss_bytes = 0;
  uint64_t peak_rss_bytes = 0;
  double cpu_user_seconds = 0.0;
  double cpu_sys_seconds = 0.0;
  /// Allocator in-use and free-list bytes (glibc mallinfo2); both stay 0
  /// when glibc malloc is not the active allocator (sanitizers, tcmalloc).
  uint64_t heap_allocated_bytes = 0;
  uint64_t heap_free_bytes = 0;
};
ResourceUsage SampleResourceUsage();

/// Human-readable heap/RSS summary for the ops server's /pprof/heap.
std::string RenderHeapProfile();

}  // namespace obs
}  // namespace vf2boost

#endif  // VF2BOOST_OBS_PROFILER_H_

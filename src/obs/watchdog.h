#ifndef VF2BOOST_OBS_WATCHDOG_H_
#define VF2BOOST_OBS_WATCHDOG_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>

#include "obs/live_status.h"
#include "obs/metrics_registry.h"

namespace vf2boost {
namespace obs {

/// \brief Detects a wedged training run by watching LiveStatus for progress.
///
/// A background thread samples the engine's (state, tree, layer, phase)
/// position. While the engine is in an active state (kTraining or
/// kReconnecting) and the position does not change for longer than the stall
/// budget, the watchdog declares a stall: it exports the stall through
/// `seconds_since_progress` / `stalls` metrics, fires the on_stall hook once
/// per episode (flight-recorder dump), and /healthz flips to 503 while
/// stalled() is true. Progress at any later sample ends the episode.
///
/// The typical cause is a hung REMOTE party: the local engine blocks forever
/// in comm_wait with a healthy process and no state transition of its own,
/// which no exit code or crash dump would ever surface.
class StallWatchdog {
 public:
  struct Options {
    /// Seconds without a position change before a stall is declared.
    /// <= 0 disables stall detection — the watchdog then runs purely as a
    /// resource accountant (see the os/* gauges below).
    double budget_seconds = 60;
    /// Engine position to watch (required; must outlive the watchdog).
    const LiveStatus* live = nullptr;
    /// When set, `<metric_prefix>/watchdog/seconds_since_progress` (gauge)
    /// and `<metric_prefix>/watchdog/stalls` (counter) are exported, plus
    /// process-level resource gauges sampled every poll tick and once more
    /// when the watchdog stops:
    /// `<metric_prefix>/os/rss_bytes`, `.../os/peak_rss_bytes`,
    /// `.../os/cpu_seconds/user`, `.../os/cpu_seconds/sys` and
    /// `.../os/heap_allocated_bytes` — memory/CPU trending on /metrics for
    /// every run, profiler or not.
    MetricsRegistry* registry = nullptr;
    std::string metric_prefix;
    /// Fired from the watchdog thread on the sample that first declares a
    /// stall (once per episode). Keep it cheap and non-blocking.
    std::function<void()> on_stall;
    double poll_interval_seconds = 0.25;
  };

  StallWatchdog() = default;
  ~StallWatchdog() { Stop(); }

  StallWatchdog(const StallWatchdog&) = delete;
  StallWatchdog& operator=(const StallWatchdog&) = delete;

  /// Launches the watch thread. No-op when already running or live == null.
  void Start(Options options);
  /// Joins the watch thread; safe to call repeatedly.
  void Stop();

  bool stalled() const { return stalled_.load(std::memory_order_relaxed); }
  double seconds_since_progress() const {
    return seconds_since_progress_.load(std::memory_order_relaxed);
  }
  double budget_seconds() const { return options_.budget_seconds; }
  /// Phase the engine was in when the current/last stall was declared
  /// (string literal, "" before any stall).
  const char* stalled_phase() const {
    return stalled_phase_.load(std::memory_order_relaxed);
  }

 private:
  void Watch();
  /// Sets the os/* gauges from one resource sample (no-op without them).
  void SampleResources();

  Options options_;
  std::thread thread_;
  std::mutex mu_;                ///< guards cv_ wakeups
  std::condition_variable cv_;
  bool stop_requested_ = false;
  std::atomic<bool> stalled_{false};
  std::atomic<double> seconds_since_progress_{0};
  std::atomic<const char*> stalled_phase_{""};
  Gauge* g_seconds_ = nullptr;
  Counter* c_stalls_ = nullptr;
  Gauge* g_rss_ = nullptr;
  Gauge* g_peak_rss_ = nullptr;
  Gauge* g_cpu_user_ = nullptr;
  Gauge* g_cpu_sys_ = nullptr;
  Gauge* g_heap_ = nullptr;
};

}  // namespace obs
}  // namespace vf2boost

#endif  // VF2BOOST_OBS_WATCHDOG_H_

#include "obs/watchdog.h"

#include "common/logging.h"
#include "obs/profiler.h"

namespace vf2boost {
namespace obs {

void StallWatchdog::Start(Options options) {
  if (thread_.joinable() || options.live == nullptr) return;
  options_ = std::move(options);
  if (options_.registry != nullptr) {
    g_seconds_ = options_.registry->GetGauge(
        options_.metric_prefix + "/watchdog/seconds_since_progress", "s");
    c_stalls_ = options_.registry->GetCounter(options_.metric_prefix +
                                              "/watchdog/stalls");
    const std::string os = options_.metric_prefix + "/os/";
    g_rss_ = options_.registry->GetGauge(os + "rss_bytes", "B");
    g_peak_rss_ = options_.registry->GetGauge(os + "peak_rss_bytes", "B");
    g_cpu_user_ = options_.registry->GetGauge(os + "cpu_seconds/user", "s");
    g_cpu_sys_ = options_.registry->GetGauge(os + "cpu_seconds/sys", "s");
    g_heap_ = options_.registry->GetGauge(os + "heap_allocated_bytes", "B");
  }
  stop_requested_ = false;
  thread_ = std::thread([this] { Watch(); });
}

void StallWatchdog::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_requested_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void StallWatchdog::Watch() {
  using Clock = std::chrono::steady_clock;
  const LiveStatus& live = *options_.live;
  auto last_progress = Clock::now();
  // Whether this thread has already declared the current stall episode. The
  // stalled_ atomic mirrors it for readers, but is published only *after*
  // the episode bookkeeping (phase, counter, on_stall) so an observer that
  // sees stalled() == true also sees the callback's side effects.
  bool episode = false;
  // Position sampled last tick; any component changing counts as progress.
  LiveStatus::State prev_state = live.state();
  int64_t prev_tree = live.tree();
  int64_t prev_layer = live.layer();
  const char* prev_phase = live.phase();
  const auto poll = std::chrono::duration<double>(
      options_.poll_interval_seconds > 0 ? options_.poll_interval_seconds
                                         : 0.25);
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_requested_) {
    cv_.wait_for(lock, poll, [this] { return stop_requested_; });
    if (stop_requested_) break;
    SampleResources();
    const LiveStatus::State state = live.state();
    const int64_t tree = live.tree();
    const int64_t layer = live.layer();
    const char* phase = live.phase();
    const bool moved = state != prev_state || tree != prev_tree ||
                       layer != prev_layer || phase != prev_phase;
    prev_state = state;
    prev_tree = tree;
    prev_layer = layer;
    prev_phase = phase;
    const bool active = state == LiveStatus::State::kTraining ||
                        state == LiveStatus::State::kReconnecting;
    const auto now = Clock::now();
    if (moved || !active) {
      last_progress = now;
      if (episode) {
        episode = false;
        stalled_.store(false, std::memory_order_release);
        VF2_LOG(Info) << "watchdog: progress resumed";
      }
      seconds_since_progress_.store(0, std::memory_order_relaxed);
      if (g_seconds_ != nullptr) g_seconds_->Set(0);
      continue;
    }
    const double idle =
        std::chrono::duration<double>(now - last_progress).count();
    seconds_since_progress_.store(idle, std::memory_order_relaxed);
    if (g_seconds_ != nullptr) g_seconds_->Set(idle);
    if (options_.budget_seconds > 0 && idle > options_.budget_seconds &&
        !episode) {
      episode = true;
      stalled_phase_.store(phase, std::memory_order_relaxed);
      if (c_stalls_ != nullptr) c_stalls_->Add();
      VF2_LOG(Warn) << "watchdog: no progress for " << idle
                    << "s (budget " << options_.budget_seconds
                    << "s), state=" << LiveStatus::StateName(state)
                    << " tree=" << tree << " layer=" << layer << " phase=\""
                    << (phase == nullptr ? "" : phase) << "\"";
      if (options_.on_stall) {
        lock.unlock();
        options_.on_stall();
        lock.lock();
      }
      stalled_.store(true, std::memory_order_release);
    }
  }
  // A last sample at stop: a run shorter than a tick, or memory taken after
  // the last one, still reaches the exported os/* gauges.
  SampleResources();
}

void StallWatchdog::SampleResources() {
  if (g_rss_ == nullptr) return;
  // Resource accountant: one /proc + getrusage sample per tick keeps
  // memory/CPU trending on /metrics even when the profiler is off.
  const ResourceUsage u = SampleResourceUsage();
  g_rss_->Set(static_cast<double>(u.rss_bytes));
  g_peak_rss_->Set(static_cast<double>(u.peak_rss_bytes));
  g_cpu_user_->Set(u.cpu_user_seconds);
  g_cpu_sys_->Set(u.cpu_sys_seconds);
  g_heap_->Set(static_cast<double>(u.heap_allocated_bytes));
}

}  // namespace obs
}  // namespace vf2boost

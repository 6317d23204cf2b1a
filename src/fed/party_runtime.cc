#include "fed/party_runtime.h"

#include "common/logging.h"
#include "obs/build_info.h"
#include "obs/flight_recorder.h"
#include "obs/ops_server.h"
#include "obs/trace.h"
#include "obs/watchdog.h"

namespace vf2boost {

PartyRole PartyRole::A(uint32_t index) {
  const std::string i = std::to_string(index);
  return {.metric_prefix = "party_a" + i,
          .name = "party A" + i,
          .trace_pid = index + 1,
          .ops_port_offset = 1 + static_cast<int>(index),
          .ops_label = "A" + i,
          .ops_prefix = "party_a" + i};
}

PartyRole PartyRole::B(uint32_t num_a, const obs::RemoteMetrics* remote) {
  return {.metric_prefix = "party_b",
          .name = "party B",
          .trace_pid = num_a + 1,
          .ops_label = "B",
          // B's endpoints expose the whole registry: a cluster view when
          // the trainer runs in-process, the federated view otherwise.
          .ops_prefix = "",
          .remote = remote};
}

PartyRuntime::PartyRuntime(const FedConfig& config, PartyRole role)
    : owned_metrics_(config.metrics == nullptr
                         ? std::make_unique<obs::MetricsRegistry>()
                         : nullptr),
      role_(std::move(role)),
      config_(config) {
  // Engines built directly (tests, drills) get a private registry so the
  // handles always resolve; FedTrainer injects a shared one.
  if (owned_metrics_ != nullptr) config_.metrics = owned_metrics_.get();
  obs::RegisterBuildInfo(config_.metrics);
  m_ = PartyMetrics::Create(config_.metrics, role_.metric_prefix);
  m_.live = &live_;
  if (config_.workers_per_party > 1) {
    pool_ = std::make_unique<ThreadPool>(config_.workers_per_party);
    pool_->SetQueueDepthGauge(m_.pool_queue_high_water);
    pool_->SetBusyWorkersGauge(m_.pool_busy_workers);
    m_.pool_size->Set(static_cast<double>(pool_->num_threads()));
  }
}

Status PartyRuntime::RunParty(std::span<Inbox> inboxes,
                              const std::function<Status()>& body) {
  // Trace/log attribution for the running thread, restored on exit (B runs
  // on the trainer's thread; drills may reuse one for A).
  obs::ThreadPartyScope party_scope(role_.trace_pid, role_.name);
  obs::StallWatchdog watchdog;
  {
    obs::StallWatchdog::Options wd;
    wd.budget_seconds = config_.stall_budget_seconds;
    wd.live = &live_;
    wd.registry = config_.metrics;
    wd.metric_prefix = role_.metric_prefix;
    wd.on_stall = [this, &watchdog] {
      // Records the last position AND (via Record's boundary auto-persist)
      // flushes the flight recorder to disk while the process still lives.
      obs::FlightRecorder::RecordEvent(
          obs::FlightRecorder::Kind::kWatchdog, 0,
          static_cast<int64_t>(watchdog.seconds_since_progress()),
          live_.tree(), live_.phase());
    };
    watchdog.Start(std::move(wd));
  }
  // Declared after the watchdog and stopped before it is: the server reads
  // the watchdog, the live status and (for B) the remote metrics.
  std::unique_ptr<obs::OpsServer> ops;
  if (config_.ops_port > 0) {
    obs::OpsServerOptions opts;
    opts.port = config_.ops_port + role_.ops_port_offset;
    opts.bind_address = config_.ops_bind;
    opts.party_label = role_.ops_label;
    opts.metric_prefix = role_.ops_prefix;
    opts.registry = config_.metrics;
    opts.remote = role_.remote;
    opts.live = &live_;
    opts.watchdog = &watchdog;
    // Best effort: a bind failure is logged and never fails training.
    auto server = obs::OpsServer::Start(opts);
    if (server.ok()) {
      ops = std::move(server).value();
    } else {
      VF2_LOG(Warn) << role_.name << " ops server disabled: "
                    << server.status().ToString();
    }
  }

  live_.SetState(obs::LiveStatus::State::kTraining);
  const Status status = body();
  live_.SetState(status.ok() ? obs::LiveStatus::State::kDone
                             : obs::LiveStatus::State::kFailed);
  watchdog.Stop();
  if (!status.ok()) {
    // Failure post-mortem: make sure the ring reaches disk even when no
    // progress boundary ever persisted it.
    if (auto* fr = obs::FlightRecorder::Current(); fr != nullptr) {
      obs::FlightRecorder::RecordEvent(
          obs::FlightRecorder::Kind::kStateChange, 0, live_.tree(),
          live_.layer(), "run failed");
      fr->Persist();
    }
  }
  ChannelStats sent;
  for (Inbox& inbox : inboxes) {
    sent += inbox.port()->sent_stats();
    m_.inbox_high_water->Max(
        static_cast<double>(inbox.buffered_high_water()));
  }
  m_.bytes_sent->Set(static_cast<double>(sent.bytes));
  m_.messages_sent->Set(static_cast<double>(sent.messages));
  m_.messages_dropped->Set(static_cast<double>(sent.dropped));
  // Wake every peer, whatever way the run ended: clean closes drain pending
  // messages (so a final kTrainDone still arrives), failed ones hand the
  // peer the root cause instead of leaving it blocked.
  const Status close_status =
      status.ok()
          ? Status::OK()
          : Status::Aborted(role_.name + " failed: " + status.ToString());
  for (Inbox& inbox : inboxes) inbox.port()->Close(close_status);
  return status;
}

}  // namespace vf2boost

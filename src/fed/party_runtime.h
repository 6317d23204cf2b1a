#ifndef VF2BOOST_FED_PARTY_RUNTIME_H_
#define VF2BOOST_FED_PARTY_RUNTIME_H_

#include <functional>
#include <memory>
#include <span>
#include <string>

#include "common/threadpool.h"
#include "fed/fed_metrics.h"
#include "fed/inbox.h"
#include "fed/protocol.h"
#include "obs/live_status.h"
#include "obs/remote_metrics.h"

namespace vf2boost {

/// Messages an engine's Inbox parks while waiting for a specific type.
/// Exceeding it fails training with ResourceExhausted instead of buffering
/// a misbehaving peer without bound.
inline constexpr size_t kMaxInboxBuffered = 4096;

/// What tells one party's process shell from another's: its names, trace
/// pid and ops endpoint.
struct PartyRole {
  /// Party A<index>: trace pid index + 1, ops on ops_port + 1 + index.
  static PartyRole A(uint32_t index);
  /// Party B, which comes after `num_a` A parties: trace pid num_a + 1, ops
  /// on ops_port. Its endpoints serve the whole registry plus `remote`, the
  /// A parties' federated snapshots.
  static PartyRole B(uint32_t num_a, const obs::RemoteMetrics* remote);

  std::string metric_prefix;  ///< "party_a<i>" / "party_b"
  std::string name;           ///< "party A<i>" / "party B" (logs, closes)
  uint32_t trace_pid = 0;
  int ops_port_offset = 0;    ///< added to FedConfig::ops_port
  std::string ops_label;      ///< "A<i>" / "B"
  std::string ops_prefix;     ///< registry filter of the ops endpoints
  const obs::RemoteMetrics* remote = nullptr;
};

/// \brief The process shell every party runs in (paper §3.1: a scheduler
/// with workers behind a gateway). Only the protocol role differs between
/// parties, so the engines derive from this and keep only protocol state.
///
/// For the engine's lifetime the shell owns the metric handles (in a
/// private registry when the config brings none; either way the registry
/// gets the build/info entries), the live position and the worker pool. RunParty() wraps one training run in the rest of the shell.
class PartyRuntime {
 private:
  /// Declared first so it outlives the handles and the pool's gauges.
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;

 protected:
  PartyRuntime(const FedConfig& config, PartyRole role);
  PartyRuntime(const PartyRuntime&) = delete;
  PartyRuntime& operator=(const PartyRuntime&) = delete;

  /// Runs `body` as this party: binds the thread's trace pid and log name,
  /// and runs the stall watchdog (always on: it is also the resource
  /// accountant behind the os/* gauges) and, with config.ops_port set, the
  /// ops server, both stopped before this returns. On every exit it
  /// records the live state, dumps the flight recorder on failure, sets the
  /// inbox_high_water, bytes_sent, messages_sent and messages_dropped
  /// gauges over `inboxes`, and closes every port so no peer blocks on a
  /// dead party. Returns body's status.
  Status RunParty(std::span<Inbox> inboxes,
                  const std::function<Status()>& body);

  const PartyRole role_;
  FedConfig config_;  ///< config_.metrics is never null
  PartyMetrics m_;
  obs::LiveStatus live_;  ///< live position for the ops endpoints
  std::unique_ptr<ThreadPool> pool_;  ///< intra-party workers (config > 1)
};

}  // namespace vf2boost

#endif  // VF2BOOST_FED_PARTY_RUNTIME_H_

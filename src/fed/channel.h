#ifndef VF2BOOST_FED_CHANNEL_H_
#define VF2BOOST_FED_CHANNEL_H_

#include <chrono>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>

#include "common/result.h"
#include "fed/message.h"

namespace vf2boost {

/// \brief Link behaviour shared by both transports: receive deadlines, the
/// session layer's kill switch, recovery and liveness.
///
/// The paper's deployment routes all cross-party traffic through gateway
/// message queues over an unreliable 300 Mbps public link. Links here only
/// move frames: paper-scale WAN cost comes from the cost model in src/sim,
/// and latency, throttling and wire faults (corruption, resets, partitions)
/// are injected on real sockets by the vf2_chaosd proxy
/// (fed/chaos_proxy.h).
struct NetworkConfig {
  // --- failure model --------------------------------------------------------

  /// Default per-call Receive deadline. 0 = block until close; > 0 turns a
  /// silent peer into Status::DeadlineExceeded instead of a hang.
  double default_deadline_seconds = 0;
  /// Deterministic link death: after this many sends per direction, hello
  /// and heartbeats included, a channel's first link silently drops
  /// everything (0 = never); replacement links stay up. Models a peer data
  /// center going dark mid-protocol. Applied by SessionChannel.
  size_t kill_after_messages = 0;
  /// Seeds the session layer's reconnect backoff jitter (fed/session.h).
  uint64_t fault_seed = 0x5eedULL;

  // --- recovery model (session layer; see fed/session.h) -------------------

  /// Once a dead link's replacement is requested, the rendezvous only
  /// succeeds after this many seconds — models the outage duration between
  /// link death and the WAN healing. 0 = heals immediately.
  double heal_after_seconds = 0;
  /// Total re-establishment attempts a SessionChannel may spend over the
  /// whole run (its reconnect budget). 0 = none: the link still says hello
  /// (fingerprint check, heartbeats), but a dead link fails the run fast.
  /// Requires a nonzero receive deadline, otherwise a dead link is never
  /// detected in the first place.
  int reconnect_max_attempts = 0;
  /// Exponential backoff with decorrelated jitter between reconnect
  /// attempts: sleep_i = min(cap, uniform(base, 3 * sleep_{i-1})).
  double reconnect_backoff_base_seconds = 0.05;
  double reconnect_backoff_cap_seconds = 2.0;

  // --- liveness model (session layer; see fed/session.h) --------------------

  /// Period of the session layer's kHeartbeat sideband beacons. 0 = no
  /// heartbeats. Heartbeats let a quiet-but-healthy protocol phase (e.g. B
  /// encrypting a large gradient batch) be told apart from a half-open or
  /// SIGSTOP'd peer without waiting for the watchdog.
  double heartbeat_interval_seconds = 0;
  /// Maximum tolerated inbound silence before the session layer declares the
  /// peer dead (Unavailable -> reconnect machinery). 0 = disabled; > 0
  /// requires heartbeats to be on (otherwise a legitimately quiet peer trips
  /// it) and should comfortably exceed the heartbeat interval.
  double liveness_budget_seconds = 0;

  /// Rejects nonsensical knob values (non-finite or negative times, a
  /// reconnect budget without a receive deadline, a liveness budget without
  /// heartbeats).
  Status Validate() const;
};

/// Traffic counters for one direction.
struct ChannelStats {
  size_t messages = 0;  ///< Send calls (including ones later dropped)
  size_t bytes = 0;
  size_t dropped = 0;  ///< messages lost (link dead or sent after close)

  ChannelStats& operator+=(const ChannelStats& o) {
    messages += o.messages;
    bytes += o.bytes;
    dropped += o.dropped;
    return *this;
  }
};

/// True for failures the session layer may recover from by re-establishing
/// the link and replaying from the last tree boundary: receive deadlines
/// (silent link death), Unavailable (the peer tore the endpoint down to
/// resynchronize), and Corruption (a damaged frame — the message is gone but
/// the protocol state can be rebuilt). Everything else — ProtocolError,
/// Aborted peer failures, crypto errors — is terminal.
inline bool IsTransientFault(const Status& s) {
  switch (s.code()) {
    case StatusCode::kDeadlineExceeded:
    case StatusCode::kUnavailable:
    case StatusCode::kCorruption:
      return true;
    default:
      return false;
  }
}

/// \brief Abstract duplex message port the engines talk through.
///
/// ChannelEndpoint and TcpMessagePort (fed/tcp_transport.h) are links: they
/// only move frames. SessionChannel (fed/session.h), the port every party
/// gets, wraps a replaceable link and is the one place that stamps trace
/// ids and records frames in the trace and the flight recorder. Engines
/// hold MessagePort* so the same protocol code runs over any of them.
class MessagePort {
 public:
  virtual ~MessagePort() = default;

  /// Hands one frame to the link without waiting for the peer to read it.
  /// Returns false when the frame was dropped (closed or broken link, or the
  /// session's kill switch); the peer notices that as a missing message.
  virtual bool Send(Message msg) = 0;
  virtual Result<Message> Receive() = 0;
  virtual void Close(Status status) = 0;
  virtual bool closed() const = 0;
  virtual ChannelStats sent_stats() const = 0;

  /// True when this port can survive transient faults via Reestablish.
  virtual bool resilient() const { return false; }

  /// Tears down the current link and blocks until a replacement is up and
  /// the kHello handshake has completed; returns the peer's hello. The
  /// engines then run their setup exchange on the new link generation. Only
  /// resilient ports implement this.
  virtual Result<HelloPayload> Reestablish() {
    return Status::Unimplemented("this port cannot re-establish its link");
  }
};

/// \brief One endpoint of a duplex, ordered message channel — the in-process
/// stand-in for a Pulsar topic pair between gateways.
///
/// A mutex-guarded FIFO per direction: Send never reorders or duplicates, and
/// a message sent after close is lost. Receive blocks until a message is
/// available, the deadline expires, or either side calls Close. Thread-safe:
/// one party thread per endpoint.
class ChannelEndpoint : public MessagePort {
 public:
  using Clock = std::chrono::steady_clock;

  /// Creates a connected pair. first is conventionally Party A's endpoint.
  static std::pair<std::unique_ptr<ChannelEndpoint>,
                   std::unique_ptr<ChannelEndpoint>>
  CreatePair(const NetworkConfig& config = {});

  /// Enqueues a message and returns immediately. Sends on a closed channel
  /// are dropped (false).
  bool Send(Message msg) override;

  /// Blocks until the next message arrives and returns it, subject to the
  /// config's default deadline. Error outcomes:
  ///  - the peer's (or our own) close status when the channel was closed
  ///    with an error,
  ///  - Aborted("channel closed") when it was closed cleanly and every
  ///    pending message has been drained,
  ///  - DeadlineExceeded when default_deadline_seconds elapses first.
  Result<Message> Receive() override;

  /// Closes the whole duplex channel: wakes every blocked receiver on BOTH
  /// ends and makes subsequent Receive calls fail as described
  /// above. `status` records why; an engine that failed passes its error so
  /// the peer sees the root cause within one receive call. The first close
  /// wins; later calls are no-ops.
  void Close(Status status) override;

  /// True once either side has called Close.
  bool closed() const override;

  /// Bytes/messages sent from this endpoint.
  ChannelStats sent_stats() const override;

 private:
  struct Shared;
  struct Queue;

  ChannelEndpoint(std::shared_ptr<Shared> shared, Queue* in, Queue* out);

  std::shared_ptr<Shared> shared_;
  Queue* in_;
  Queue* out_;
};

/// \brief RAII guard: closes a port when the owning engine leaves its
/// Run() scope, propagating the engine's final status so blocked peers fail
/// with a descriptive Aborted error instead of hanging forever.
class ChannelCloseGuard {
 public:
  /// `who` names the owning engine in the propagated error (e.g. "party A0").
  ChannelCloseGuard(MessagePort* endpoint, std::string who)
      : endpoint_(endpoint), who_(std::move(who)) {}
  ~ChannelCloseGuard() {
    if (endpoint_ == nullptr) return;
    endpoint_->Close(status_.ok() ? Status::OK()
                                  : Status::Aborted(who_ + " failed: " +
                                                    status_.ToString()));
  }

  ChannelCloseGuard(const ChannelCloseGuard&) = delete;
  ChannelCloseGuard& operator=(const ChannelCloseGuard&) = delete;

  void SetStatus(const Status& status) { status_ = status; }

 private:
  MessagePort* endpoint_;
  std::string who_;
  Status status_;
};

}  // namespace vf2boost

#endif  // VF2BOOST_FED_CHANNEL_H_

#ifndef VF2BOOST_FED_SESSION_H_
#define VF2BOOST_FED_SESSION_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "fed/channel.h"
#include "obs/clock_sync.h"
#include "obs/metrics_registry.h"

namespace vf2boost {

/// \brief Source of a channel's links for the session layer: the first one
/// (SessionChannel::Open) and every replacement. A side that wants a link
/// calls Reconnect() and blocks until its peer is reachable; what
/// "reachable" means is transport-specific:
/// SessionBroker cuts a fresh in-process ChannelEndpoint pair once both
/// sides ask, TcpChannelFactory (fed/tcp_transport.h) accepts or redials a
/// real TCP connection. Thread-safe; Shutdown() aborts all pending and
/// future rendezvous, which is how a terminal engine failure stops the peer
/// from retrying forever.
class ChannelFactory {
 public:
  virtual ~ChannelFactory() = default;

  /// Blocks until the replacement link for `channel` is up (peer present and
  /// heal delay elapsed) or `deadline` passes, and returns this side's
  /// port. `a_side` says which half of the link the caller gets.
  virtual Result<std::unique_ptr<MessagePort>> Reconnect(
      size_t channel, bool a_side, ChannelEndpoint::Clock::time_point deadline) = 0;

  /// Aborts every pending and future Reconnect with `status`.
  virtual void Shutdown(Status status) = 0;
};

/// \brief In-process ChannelFactory: the rendezvous point where both sides
/// of a channel meet to get a ChannelEndpoint pair — the in-process stand-in
/// for the gateway message queues coming up, and coming back up after a WAN
/// outage.
///
/// One broker serves every channel of a training run; each channel has one
/// rendezvous slot, indexed by A-party. Reconnect blocks until (a) the peer
/// side also asks, and (b) on a replacement link, the configured heal-after
/// delay since the first request has elapsed — then a new endpoint pair is
/// cut and each caller receives its half.
class SessionBroker : public ChannelFactory {
 public:
  /// `configs[i]` is the network config the links of channel i are created
  /// with.
  explicit SessionBroker(std::vector<NetworkConfig> configs);

  Result<std::unique_ptr<MessagePort>> Reconnect(
      size_t channel, bool a_side,
      ChannelEndpoint::Clock::time_point deadline) override;

  void Shutdown(Status status) override;

 private:
  struct Slot {
    NetworkConfig config;
    bool want_a = false;
    bool want_b = false;
    /// Earliest instant a pair may be cut; armed by the first request
    /// (models a replacement's outage lasting heal_after_seconds).
    ChannelEndpoint::Clock::time_point heal_at{};
    bool heal_armed = false;
    size_t generation = 0;  ///< pairs cut so far
    std::unique_ptr<ChannelEndpoint> ready_a;
    std::unique_ptr<ChannelEndpoint> ready_b;
  };

  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Slot> slots_;
  bool shutdown_ = false;
  Status shutdown_status_;
};

/// \brief Every party link: a session over a replaceable factory link. Open()
/// brings generation 0 up, and a peer with another fingerprint or session id
/// is refused there, whatever the reconnect budget.
///
/// The port itself never retries I/O — Send/Receive delegate to the current
/// link and surface its errors unchanged, so without a reconnect budget the
/// engines fail fast. With one, the engine can answer a transient error by
/// calling Reestablish(), which
///   1. closes the current link with Status::Unavailable so a healthy peer
///      blocked on it fails over at once instead of waiting out its deadline,
///   2. sleeps exponential backoff with decorrelated jitter
///      (sleep = min(cap, uniform(base, 3 * previous))), deterministic per
///      (fault_seed, side),
///   3. takes a fresh link from the factory and exchanges kHello on it, as
///      Open does,
/// under a total attempt budget of `config.reconnect_max_attempts` for the
/// port's lifetime. One engine thread drives Send/Receive/Reestablish; the
/// beacon thread (below) sends too, so the current link sits behind a mutex.
///
/// Kill switch (NetworkConfig::kill_after_messages): generation 0 goes silent
/// after that many sends, hello and beacons included, and counts the rest in
/// sent_stats().dropped; replacement links are never armed.
///
/// Heartbeat liveness: with heartbeats on, a beacon thread sends an empty
/// kHeartbeat every interval while the link is up; inbound heartbeats are
/// consumed below the engine's inbox and only refresh a last-inbound stamp.
/// With `liveness_budget_seconds > 0`, Receive turns per-call deadline
/// expiries into continued waiting while inbound silence is within the
/// budget, and into Status::Unavailable ("peer liveness budget exhausted")
/// once it is not. So a half-open or SIGSTOP'd peer is detected within the
/// budget, while a healthy-but-quiet peer (minutes of Paillier crunching)
/// keeps the link alive through its beacons.
class SessionChannel : public MessagePort {
 public:
  /// The channel has no link until Open(). `party` is the owner's party
  /// index (A: 0..n-1, B: n) advertised in hellos. The channel counts into
  /// "session/{heartbeats_sent,heartbeats_received,liveness_trips}" of
  /// `metrics` (borrowed; must outlive the channel). Channels sharing a
  /// registry share the counters: per-process totals, like transport/tcp/*.
  SessionChannel(ChannelFactory* factory, size_t channel_index, bool a_side,
                 uint64_t session_id, uint32_t party,
                 uint64_t config_fingerprint, const NetworkConfig& config,
                 obs::MetricsRegistry* metrics);
  ~SessionChannel() override;

  /// Brings generation 0 up: waits up to `timeout_seconds` for the factory's
  /// first link and the peer's hello, with no backoff and no budget spent,
  /// and returns that hello. Call once, before any other method.
  Result<HelloPayload> Open(double timeout_seconds);

  /// Stamps a zero trace id with obs::NextTraceId and records the frame
  /// (trace flow start, flight recorder) once the link takes it. Receive
  /// records every frame it hands up, and the hello handshake records its
  /// two frames too, over either transport.
  bool Send(Message msg) override;
  Result<Message> Receive() override;
  /// Closes the current endpoint. A non-OK close also shuts the factory
  /// down: the owning engine failed terminally, so the peer's pending and
  /// future rendezvous must fail fast instead of burning their budget.
  void Close(Status status) override;
  bool closed() const override;
  /// Accumulated over every link generation this port has used.
  ChannelStats sent_stats() const override;

  bool resilient() const override {
    return config_.reconnect_max_attempts > 0;
  }
  Result<HelloPayload> Reestablish() override;

  /// Feeds every completed hello handshake into `sync` as a coarse clock
  /// sample (see obs::ClockSync::AddHelloSample). Borrowed; must outlive
  /// the channel. Null (default) disables.
  void set_clock_sync(obs::ClockSync* sync) { clock_sync_ = sync; }

 private:
  /// Current-endpoint snapshot; safe against the beacon thread and against
  /// Reestablish swapping generations.
  std::shared_ptr<MessagePort> SnapshotEp() const;
  /// Stamps "inbound traffic seen now" for the liveness clock.
  void TouchInbound();
  /// Body of the beacon thread: every heartbeat interval, send one empty
  /// kHeartbeat on the current endpoint while the link is up.
  void HeartbeatLoop();
  /// Takes a link from the factory (by `deadline`), publishes it as the
  /// current generation and runs the hello handshake on it. A receive
  /// deadline before `wait_until` is waited out: at bring-up the peer may
  /// still be joining its other links.
  Result<HelloPayload> Connect(ChannelEndpoint::Clock::time_point deadline,
                               ChannelEndpoint::Clock::time_point wait_until);
  /// Sends on `link` unless generation 0's kill switch has fired; true when
  /// the link took the frame.
  bool SendOn(MessagePort* link, Message msg);

  ChannelFactory* factory_;
  const size_t channel_index_;
  const bool a_side_;
  const uint64_t session_id_;
  const uint32_t party_;
  const uint64_t fingerprint_;
  const NetworkConfig config_;

  /// Guarded by ep_mu_; shared_ptr so the beacon thread can Send on a
  /// snapshot while Reestablish retires the generation.
  mutable std::mutex ep_mu_;
  std::shared_ptr<MessagePort> ep_;
  size_t links_ = 0;             ///< links published; the first is generation 0
  size_t first_link_sends_ = 0;  ///< sends on generation 0, for the kill switch
  ChannelStats killed_;          ///< sends the kill switch swallowed
  /// True while the current link generation is usable (false between link
  /// retirement and a completed hello) — the beacon thread only sends on a
  /// ready link so a heartbeat can never race ahead of a handshake hello.
  std::atomic<bool> link_ready_{false};
  /// Steady-clock stamp (microseconds) of the last inbound frame.
  std::atomic<int64_t> last_inbound_us_{0};

  std::thread heartbeat_thread_;
  std::mutex hb_mu_;
  std::condition_variable hb_cv_;
  bool hb_stop_ = false;

  obs::Counter* const heartbeats_sent_;
  obs::Counter* const heartbeats_received_;
  obs::Counter* const liveness_trips_;

  obs::ClockSync* clock_sync_ = nullptr;
  ChannelStats retired_stats_;  // sums of replaced endpoints' sent_stats
  Rng backoff_rng_;
  double prev_backoff_seconds_ = 0;
  int attempts_used_ = 0;
  std::atomic<bool> terminally_closed_{false};
  Status close_status_;
};

}  // namespace vf2boost

#endif  // VF2BOOST_FED_SESSION_H_

#include "fed/session.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>
#include <utility>

#include "common/logging.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"

namespace vf2boost {

namespace {

using Clock = ChannelEndpoint::Clock;

Clock::duration Seconds(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}

int64_t SteadyMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// Records one frame the link took (kFrameSent) or delivered
// (kFrameReceived): a "snd"/"rcv" flow event under the frame's trace id, so
// a send and its receive pair up in one trace or across merged per-process
// traces, and a flight-recorder entry. Heartbeats stay out of both; clock
// probes stay out of the flows only, since one may be legitimately in
// flight at shutdown. A send's flow starts at `sent_us`, when the frame was
// handed to the link, so the peer's receive never precedes it.
void NoteFrame(obs::FlightRecorder::Kind kind, MessageType type,
               size_t payload_bytes, uint64_t trace_id, int64_t sent_us = -1) {
  if (IsHeartbeatFrame(type)) return;
  const char* name = MessageTypeName(type);
  const bool sent = kind == obs::FlightRecorder::Kind::kFrameSent;
  if (auto* rec = obs::TraceRecorder::Current();
      rec != nullptr && !IsClockSyncFrame(type)) {
    char args[64];
    std::snprintf(args, sizeof(args), "\"bytes\":%zu",
                  payload_bytes + kFrameOverheadBytes);
    std::string flow = std::string(sent ? "snd " : "rcv ") + name;
    if (sent) {
      rec->FlowStart(std::move(flow), trace_id, args, sent_us);
    } else {
      rec->FlowEnd(std::move(flow), trace_id, args);
    }
  }
  obs::FlightRecorder::RecordEvent(kind, static_cast<uint8_t>(type),
                                   static_cast<int64_t>(payload_bytes),
                                   static_cast<int64_t>(trace_id), name);
}

}  // namespace

SessionBroker::SessionBroker(std::vector<NetworkConfig> configs) {
  slots_.resize(configs.size());
  for (size_t i = 0; i < configs.size(); ++i) {
    slots_[i].config = std::move(configs[i]);
  }
}

Result<std::unique_ptr<MessagePort>> SessionBroker::Reconnect(
    size_t channel, bool a_side, Clock::time_point deadline) {
  std::unique_lock<std::mutex> lock(mu_);
  if (channel >= slots_.size()) {
    return Status::InvalidArgument("no rendezvous slot for channel " +
                                   std::to_string(channel));
  }
  Slot& s = slots_[channel];
  bool& my_want = a_side ? s.want_a : s.want_b;
  std::unique_ptr<ChannelEndpoint>& my_ready = a_side ? s.ready_a : s.ready_b;
  my_want = true;
  if (!s.heal_armed) {
    // The outage clock starts at the first replacement request — the link
    // comes back heal_after_seconds later no matter how often either side
    // retries in between. The first generation has no outage to wait out.
    s.heal_armed = true;
    s.heal_at = Clock::now();
    if (s.generation > 0) s.heal_at += Seconds(s.config.heal_after_seconds);
  }
  cv_.notify_all();
  for (;;) {
    // A leftover endpoint from a rendezvous the peer abandoned (it closed
    // its half and went back to retrying) is useless — discard it.
    if (my_ready != nullptr && my_ready->closed()) my_ready.reset();
    if (my_ready != nullptr) {
      my_want = false;
      return std::unique_ptr<MessagePort>(std::move(my_ready));
    }
    if (shutdown_) {
      my_want = false;
      return shutdown_status_;
    }
    const auto now = Clock::now();
    if (s.want_a && s.want_b && now >= s.heal_at) {
      ++s.generation;
      auto pair = ChannelEndpoint::CreatePair(s.config);
      s.ready_a = std::move(pair.first);
      s.ready_b = std::move(pair.second);
      s.want_a = s.want_b = false;
      s.heal_armed = false;
      cv_.notify_all();
      continue;  // pick up my half on the next iteration
    }
    if (now >= deadline) {
      my_want = false;
      return Status::DeadlineExceeded("reconnect rendezvous timed out");
    }
    auto wake = deadline;
    if (s.want_a && s.want_b) wake = std::min(wake, s.heal_at);
    cv_.wait_until(lock, wake);
  }
}

void SessionBroker::Shutdown(Status status) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) return;  // first shutdown (and its reason) wins
    shutdown_ = true;
    shutdown_status_ =
        status.ok() ? Status::Aborted("session broker shut down")
                    : std::move(status);
  }
  cv_.notify_all();
}

SessionChannel::SessionChannel(ChannelFactory* factory, size_t channel_index,
                               bool a_side, uint64_t session_id,
                               uint32_t party, uint64_t config_fingerprint,
                               const NetworkConfig& config,
                               obs::MetricsRegistry* metrics)
    : factory_(factory),
      channel_index_(channel_index),
      a_side_(a_side),
      session_id_(session_id),
      party_(party),
      fingerprint_(config_fingerprint),
      config_(config),
      heartbeats_sent_(metrics->GetCounter("session/heartbeats_sent")),
      heartbeats_received_(
          metrics->GetCounter("session/heartbeats_received")),
      liveness_trips_(metrics->GetCounter("session/liveness_trips")),
      backoff_rng_(config.fault_seed ^ (a_side ? 0xA'5e55ULL : 0xB'5e55ULL) ^
                   (channel_index * 0x9E3779B97F4A7C15ULL)) {
  last_inbound_us_.store(SteadyMicros(), std::memory_order_relaxed);
  if (config_.heartbeat_interval_seconds > 0) {
    heartbeat_thread_ = std::thread(&SessionChannel::HeartbeatLoop, this);
  }
}

SessionChannel::~SessionChannel() {
  {
    std::lock_guard<std::mutex> lock(hb_mu_);
    hb_stop_ = true;
  }
  hb_cv_.notify_all();
  if (heartbeat_thread_.joinable()) heartbeat_thread_.join();
}

std::shared_ptr<MessagePort> SessionChannel::SnapshotEp() const {
  std::lock_guard<std::mutex> lock(ep_mu_);
  return ep_;
}

void SessionChannel::TouchInbound() {
  last_inbound_us_.store(SteadyMicros(), std::memory_order_relaxed);
}

void SessionChannel::HeartbeatLoop() {
  const auto period =
      std::chrono::duration<double>(config_.heartbeat_interval_seconds);
  std::unique_lock<std::mutex> lock(hb_mu_);
  for (;;) {
    if (hb_cv_.wait_for(lock, period, [this] { return hb_stop_; })) return;
    // Beacons flow only on a ready link: link_ready_ is false between link
    // retirement and a completed hello handshake, so a heartbeat can never
    // jump ahead of a hello on a fresh (FIFO) link, and a terminally closed
    // channel goes quiet.
    if (terminally_closed_.load(std::memory_order_acquire)) continue;
    if (!link_ready_.load(std::memory_order_acquire)) continue;
    lock.unlock();
    if (std::shared_ptr<MessagePort> ep = SnapshotEp(); ep != nullptr) {
      SendOn(ep.get(), Message{MessageType::kHeartbeat, {}});
      heartbeats_sent_->Add();
    }
    lock.lock();
  }
}

bool SessionChannel::SendOn(MessagePort* link, Message msg) {
  // A message that already carries an id keeps it; the link writes
  // whatever id it is given into the frame header.
  if (msg.trace_id == 0) msg.trace_id = obs::NextTraceId();
  {
    // One count for the engine thread and the beacon thread alike.
    std::lock_guard<std::mutex> lock(ep_mu_);
    if (links_ == 1 && config_.kill_after_messages > 0 &&
        ++first_link_sends_ > config_.kill_after_messages) {
      // Deterministic link death: the gateway stops forwarding, silently.
      // The peer notices through its receive deadline.
      killed_.messages += 1;
      killed_.bytes += msg.WireBytes();
      killed_.dropped += 1;
      return false;
    }
  }
  const MessageType type = msg.type;
  const size_t payload_bytes = msg.payload.size();
  const uint64_t trace_id = msg.trace_id;
  obs::TraceRecorder* rec = obs::TraceRecorder::Current();
  const int64_t sent_us = rec != nullptr ? rec->NowMicros() : -1;
  // A frame the link dropped gets no flow start.
  if (!link->Send(std::move(msg))) return false;
  NoteFrame(obs::FlightRecorder::Kind::kFrameSent, type, payload_bytes,
            trace_id, sent_us);
  return true;
}

bool SessionChannel::Send(Message msg) {
  std::shared_ptr<MessagePort> ep = SnapshotEp();
  return ep != nullptr && SendOn(ep.get(), std::move(msg));
}

Result<Message> SessionChannel::Receive() {
  const double budget = config_.liveness_budget_seconds;
  for (;;) {
    std::shared_ptr<MessagePort> ep = SnapshotEp();
    if (ep == nullptr) return Status::Unavailable("session link is down");
    Result<Message> r = ep->Receive();
    if (r.ok()) {
      TouchInbound();
      if (IsHeartbeatFrame(r.value().type)) {
        // Consumed below the engine's inbox regardless of the local config:
        // a peer with heartbeats on while ours are off must not leak beacons
        // into the protocol stream.
        heartbeats_received_->Add();
        continue;
      }
      NoteFrame(obs::FlightRecorder::Kind::kFrameReceived, r->type,
                r->payload.size(), r->trace_id);
      return r;
    }
    if (budget > 0 &&
        r.status().code() == StatusCode::kDeadlineExceeded) {
      // With a liveness budget, per-call deadline expiries stop being the
      // dead-link signal: inbound silence is. A quiet-but-alive peer keeps
      // refreshing last_inbound_ through its beacons; only true silence
      // beyond the budget surfaces — as Unavailable, which the engines'
      // IsTransientFault -> Reestablish machinery recovers from.
      const int64_t last = last_inbound_us_.load(std::memory_order_relaxed);
      const double silence = static_cast<double>(SteadyMicros() - last) * 1e-6;
      if (silence <= budget) continue;
      liveness_trips_->Add();
      obs::FlightRecorder::RecordEvent(
          obs::FlightRecorder::Kind::kLiveness,
          static_cast<uint32_t>(channel_index_),
          static_cast<int64_t>(silence * 1e3),
          static_cast<int64_t>(budget * 1e3),
          a_side_ ? "liveness trip (A)" : "liveness trip (B)");
      VF2_LOG(Warn) << "session " << session_id_ << " channel "
                    << channel_index_ << (a_side_ ? " (A)" : " (B)")
                    << " peer liveness budget exhausted: " << silence
                    << "s of inbound silence > " << budget << "s budget";
      return Status::Unavailable("peer liveness budget exhausted (" +
                                 std::to_string(silence) +
                                 "s of inbound silence, budget " +
                                 std::to_string(budget) + "s)");
    }
    return r.status();
  }
}

void SessionChannel::Close(Status status) {
  if (terminally_closed_.exchange(true, std::memory_order_acq_rel)) return;
  close_status_ = status;
  link_ready_.store(false, std::memory_order_release);
  if (std::shared_ptr<MessagePort> ep = SnapshotEp(); ep != nullptr) {
    ep->Close(status);
  }
  if (!status.ok()) {
    // The owning engine failed for good. Abort the peer's pending and future
    // rendezvous so it fails with the root cause instead of burning its
    // reconnect budget against a side that will never come back.
    factory_->Shutdown(status);
  }
}

bool SessionChannel::closed() const {
  if (terminally_closed_.load(std::memory_order_acquire)) return true;
  std::shared_ptr<MessagePort> ep = SnapshotEp();
  return ep != nullptr && ep->closed();
}

ChannelStats SessionChannel::sent_stats() const {
  ChannelStats total = retired_stats_;
  std::shared_ptr<MessagePort> ep;
  {
    std::lock_guard<std::mutex> lock(ep_mu_);
    total += killed_;
    ep = ep_;
  }
  if (ep != nullptr) total += ep->sent_stats();
  return total;
}

Result<HelloPayload> SessionChannel::Open(double timeout_seconds) {
  const Clock::time_point deadline = Clock::now() + Seconds(timeout_seconds);
  return Connect(deadline, deadline);
}

Result<HelloPayload> SessionChannel::Connect(Clock::time_point deadline,
                                             Clock::time_point wait_until) {
  Result<std::unique_ptr<MessagePort>> fresh =
      factory_->Reconnect(channel_index_, a_side_, deadline);
  if (!fresh.ok()) return fresh.status();
  std::shared_ptr<MessagePort> link = std::move(fresh).value();
  {
    // Published (so Close can reach it) but not yet "ready": the beacon
    // thread stays quiet until the hello handshake below completes.
    std::lock_guard<std::mutex> lock(ep_mu_);
    ep_ = link;
    ++links_;
  }
  // Prove to each other we are the same session with compatible configs.
  HelloPayload mine;
  mine.session_id = session_id_;
  mine.party = party_;
  mine.config_fingerprint = fingerprint_;
  const int64_t hello_sent_us = obs::TraceNowMicros();
  mine.clock_micros = hello_sent_us;
  SendOn(link.get(), EncodeHello(mine));
  Result<Message> reply = link->Receive();
  while (!reply.ok() &&
         reply.status().code() == StatusCode::kDeadlineExceeded &&
         Clock::now() < wait_until) {
    reply = link->Receive();
  }
  const int64_t hello_reply_us = obs::TraceNowMicros();
  if (!reply.ok()) return reply.status();
  NoteFrame(obs::FlightRecorder::Kind::kFrameReceived, reply->type,
            reply->payload.size(), reply->trace_id);
  HelloPayload peer;
  Status st = DecodeHello(reply.value(), &peer);
  if (!st.ok()) {
    return Status::ProtocolError("bad hello from peer: " + st.ToString());
  }
  // The fingerprint first: the session id is derived from it, so a config
  // mismatch would otherwise read as a session id mismatch.
  if (peer.config_fingerprint != fingerprint_) {
    return Status::ProtocolError(
        "peer runs an incompatible configuration (fingerprint mismatch)");
  }
  if (peer.session_id != session_id_) {
    return Status::ProtocolError(
        "hello session id mismatch: peer says " +
        std::to_string(peer.session_id) + ", this session is " +
        std::to_string(session_id_));
  }
  TouchInbound();  // the peer's hello is inbound traffic: liveness restarts
  link_ready_.store(true, std::memory_order_release);
  if (clock_sync_ != nullptr && peer.clock_micros != 0) {
    // The handshake is symmetric (both Send then Receive), so the peer's
    // stamp echoes nothing of ours — a degenerate NTP sample bounded by
    // the whole handshake round trip. Ping/pong rounds refine it later.
    clock_sync_->AddHelloSample(hello_sent_us, peer.clock_micros,
                                hello_reply_us);
  }
  return peer;
}

Result<HelloPayload> SessionChannel::Reestablish() {
  if (terminally_closed_.load(std::memory_order_acquire)) {
    return Status::Aborted("session already closed: " +
                           close_status_.ToString());
  }
  // Bound each rendezvous wait by the worst honest case: the peer first has
  // to notice the outage (its receive deadline), back off, and the link has
  // to heal. Budget exhaustion, not this deadline, is the final arbiter.
  const double rendezvous_window =
      config_.heal_after_seconds + config_.reconnect_backoff_cap_seconds +
      std::max(1.0, 4 * config_.default_deadline_seconds);
  while (attempts_used_ < config_.reconnect_max_attempts) {
    ++attempts_used_;
    // Quiesce the beacon thread for this generation swap: no heartbeat may
    // flow between link retirement and the next completed hello.
    link_ready_.store(false, std::memory_order_release);
    std::shared_ptr<MessagePort> old;
    {
      std::lock_guard<std::mutex> lock(ep_mu_);
      old = std::move(ep_);
      ep_.reset();
    }
    if (old != nullptr) {
      // Retire the dead generation. Closing with Unavailable (not an engine
      // failure) tells a still-healthy peer to fail over immediately rather
      // than waiting out its receive deadline.
      retired_stats_ += old->sent_stats();
      old->Close(Status::Unavailable("session re-establishing"));
      old.reset();
    }
    // Exponential backoff, decorrelated jitter (AWS architecture blog
    // variant): sleep = min(cap, uniform(base, 3 * previous)).
    const double base = config_.reconnect_backoff_base_seconds;
    double sleep_s = base;
    if (prev_backoff_seconds_ > 0) {
      const double hi = std::max(base, 3 * prev_backoff_seconds_);
      sleep_s = base + backoff_rng_.NextDouble() * (hi - base);
    }
    sleep_s = std::min(sleep_s, config_.reconnect_backoff_cap_seconds);
    prev_backoff_seconds_ = sleep_s;
    if (sleep_s > 0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(sleep_s));
    }
    Result<HelloPayload> peer =
        Connect(Clock::now() + Seconds(rendezvous_window),
                /*wait_until=*/Clock::time_point{});
    if (!peer.ok()) {
      // A timed-out rendezvous or a link that died mid-hello is retried; a
      // shut-down factory or a refused hello is terminal.
      if (IsTransientFault(peer.status())) continue;
      return peer.status();
    }
    obs::FlightRecorder::RecordEvent(obs::FlightRecorder::Kind::kReconnect,
                                     static_cast<uint32_t>(channel_index_),
                                     static_cast<int64_t>(attempts_used_),
                                     peer->party,
                                     a_side_ ? "hello ok (A)" : "hello ok (B)");
    VF2_LOG(Info) << "session " << session_id_ << " channel " << channel_index_
                  << (a_side_ ? " (A)" : " (B)") << " re-established, attempt "
                  << attempts_used_ << "/" << config_.reconnect_max_attempts;
    return peer;
  }
  return Status::Unavailable(
      "reconnect budget exhausted (" + std::to_string(attempts_used_) + "/" +
      std::to_string(config_.reconnect_max_attempts) + " attempts)");
}

}  // namespace vf2boost

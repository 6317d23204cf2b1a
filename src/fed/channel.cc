#include "fed/channel.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <utility>

#include "obs/trace.h"

namespace vf2boost {

namespace {
using Clock = ChannelEndpoint::Clock;

Clock::duration Seconds(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}

// Process-unique id per queue direction; flow ids are (direction << 32) |
// sequence so a send and its receive pair up across parties while staying
// distinct from every other channel's traffic. The process trace namespace
// is folded in above bit 40 (obs::NamespacedFlowId) so ids minted by
// concurrently running OS processes never collide in a merged trace; the
// direction counter stays below 2^8, comfortably inside the 40-bit window.
std::atomic<uint64_t> g_next_flow_dir{1};

uint64_t FlowId(uint64_t dir, uint64_t seq) {
  return obs::NamespacedFlowId((dir << 32) | seq);
}
}  // namespace

Status NetworkConfig::Validate() const {
  // Every time and rate below feeds a std::chrono conversion, where NaN or
  // infinity is undefined behaviour.
  const std::pair<const char*, double> knobs[] = {
      {"bandwidth_bytes_per_sec", bandwidth_bytes_per_sec},
      {"latency_seconds", latency_seconds},
      {"default_deadline_seconds", default_deadline_seconds},
      {"heal_after_seconds", heal_after_seconds},
      {"reconnect_backoff_base_seconds", reconnect_backoff_base_seconds},
      {"reconnect_backoff_cap_seconds", reconnect_backoff_cap_seconds},
      {"heartbeat_interval_seconds", heartbeat_interval_seconds},
      {"liveness_budget_seconds", liveness_budget_seconds},
  };
  for (const auto& [name, value] : knobs) {
    if (!std::isfinite(value) || value < 0) {
      return Status::InvalidArgument(std::string(name) +
                                     " must be finite and nonnegative");
    }
  }
  if (reconnect_max_attempts < 0) {
    return Status::InvalidArgument("reconnect_max_attempts must be >= 0");
  }
  if (reconnect_max_attempts > 0) {
    if (default_deadline_seconds <= 0) {
      return Status::InvalidArgument(
          "reconnect_max_attempts > 0 requires default_deadline_seconds > 0 "
          "(a dead link is only detected through receive deadlines)");
    }
    if (reconnect_backoff_cap_seconds < reconnect_backoff_base_seconds) {
      return Status::InvalidArgument(
          "reconnect_backoff_cap_seconds must be >= "
          "reconnect_backoff_base_seconds");
    }
  }
  if (liveness_budget_seconds > 0) {
    if (heartbeat_interval_seconds <= 0) {
      return Status::InvalidArgument(
          "liveness_budget_seconds > 0 requires heartbeat_interval_seconds > "
          "0 (without heartbeats a legitimately quiet peer trips the budget)");
    }
    if (default_deadline_seconds <= 0) {
      return Status::InvalidArgument(
          "liveness_budget_seconds > 0 requires default_deadline_seconds > 0 "
          "(inbound silence is only measured at receive-deadline expiry)");
    }
    if (liveness_budget_seconds <= heartbeat_interval_seconds) {
      return Status::InvalidArgument(
          "liveness_budget_seconds must exceed heartbeat_interval_seconds "
          "(one delayed beacon must not read as peer death)");
    }
  }
  return Status::OK();
}

struct ChannelEndpoint::Queue {
  struct Item {
    Clock::time_point deliver;
    uint64_t seq = 0;
    Message msg;
  };
  std::deque<Item> items;
  Clock::time_point next_free = Clock::now();  // bandwidth serialization point
  uint64_t next_seq = 1;
  uint64_t flow_dir = 0;  // trace flow-id namespace for this direction
  ChannelStats sent;
};

struct ChannelEndpoint::Shared {
  NetworkConfig config;
  std::mutex mu;
  std::condition_variable cv;
  Queue a_to_b;
  Queue b_to_a;
  bool closed = false;
  Status close_status;
};

std::pair<std::unique_ptr<ChannelEndpoint>, std::unique_ptr<ChannelEndpoint>>
ChannelEndpoint::CreatePair(const NetworkConfig& config) {
  auto shared = std::make_shared<Shared>();
  shared->config = config;
  shared->a_to_b.flow_dir =
      g_next_flow_dir.fetch_add(1, std::memory_order_relaxed);
  shared->b_to_a.flow_dir =
      g_next_flow_dir.fetch_add(1, std::memory_order_relaxed);
  auto a = std::unique_ptr<ChannelEndpoint>(
      new ChannelEndpoint(shared, &shared->b_to_a, &shared->a_to_b));
  auto b = std::unique_ptr<ChannelEndpoint>(
      new ChannelEndpoint(shared, &shared->a_to_b, &shared->b_to_a));
  return {std::move(a), std::move(b)};
}

ChannelEndpoint::ChannelEndpoint(std::shared_ptr<Shared> shared, Queue* in,
                                 Queue* out)
    : shared_(std::move(shared)), in_(in), out_(out) {}

void ChannelEndpoint::Send(Message msg) {
  const size_t bytes = msg.WireBytes();
  const MessageType type = msg.type;
  uint64_t flow_id = 0;  // nonzero once the message is actually enqueued
  {
    std::lock_guard<std::mutex> lock(shared_->mu);
    const auto& cfg = shared_->config;
    out_->sent.messages += 1;
    out_->sent.bytes += bytes;
    if (shared_->closed) {
      out_->sent.dropped += 1;
      return;
    }
    const auto now = Clock::now();
    auto deliver = now;
    if (cfg.bandwidth_bytes_per_sec > 0) {
      // Messages serialize through the gateway link.
      const auto start = std::max(now, out_->next_free);
      out_->next_free = start + Seconds(static_cast<double>(bytes) /
                                        cfg.bandwidth_bytes_per_sec);
      deliver = out_->next_free;
    }
    if (cfg.latency_seconds > 0) {
      deliver += Seconds(cfg.latency_seconds);
    }
    const uint64_t seq = out_->next_seq++;
    flow_id = FlowId(out_->flow_dir, seq);
    out_->items.push_back(Queue::Item{deliver, seq, std::move(msg)});
    shared_->cv.notify_all();
  }
  // Trace flow start (outside the channel lock): one arrow per delivered
  // message from this send to the peer's matching receive. A message an
  // error close discards in flight leaves a dangling start, which viewers
  // render as an arrow to nowhere — exactly right.
  if (auto* rec = obs::TraceRecorder::Current();
      rec != nullptr && !IsClockSyncFrame(type) && !IsHeartbeatFrame(type)) {
    char args[64];
    std::snprintf(args, sizeof(args), "\"bytes\":%zu", bytes);
    rec->FlowStart(std::string("snd ") + MessageTypeName(type), flow_id,
                   args);
  }
}

Message ChannelEndpoint::PopFront(std::unique_lock<std::mutex>* lock) {
  const uint64_t flow_id = FlowId(in_->flow_dir, in_->items.front().seq);
  Message msg = std::move(in_->items.front().msg);
  in_->items.pop_front();
  lock->unlock();
  if (auto* rec = obs::TraceRecorder::Current();
      rec != nullptr && !IsClockSyncFrame(msg.type) &&
      !IsHeartbeatFrame(msg.type)) {
    char args[64];
    std::snprintf(args, sizeof(args), "\"bytes\":%zu", msg.WireBytes());
    rec->FlowEnd(std::string("rcv ") + MessageTypeName(msg.type), flow_id,
                 args);
  }
  return msg;
}

Result<Message> ChannelEndpoint::Receive() {
  std::optional<Clock::time_point> deadline;
  if (const double d = shared_->config.default_deadline_seconds; d > 0) {
    deadline = Clock::now() + Seconds(d);
  }
  std::unique_lock<std::mutex> lock(shared_->mu);
  for (;;) {
    // An error close fails fast, ahead of any still-undrained traffic.
    if (shared_->closed && !shared_->close_status.ok()) {
      return shared_->close_status;
    }
    const auto now = Clock::now();
    if (!in_->items.empty()) {
      const auto deliver = in_->items.front().deliver;
      if (now >= deliver) return PopFront(&lock);
      if (deadline && *deadline < deliver) {
        if (now >= *deadline) {
          return Status::DeadlineExceeded("receive deadline expired");
        }
        shared_->cv.wait_until(lock, *deadline);
      } else {
        shared_->cv.wait_until(lock, deliver);
      }
    } else {
      if (shared_->closed) {
        return Status::Aborted("channel closed");
      }
      if (deadline) {
        if (now >= *deadline) {
          return Status::DeadlineExceeded("receive deadline expired");
        }
        shared_->cv.wait_until(lock, *deadline);
      } else {
        shared_->cv.wait(lock);
      }
    }
  }
}

void ChannelEndpoint::Close(Status status) {
  {
    std::lock_guard<std::mutex> lock(shared_->mu);
    if (shared_->closed) return;  // first close (and its reason) wins
    shared_->closed = true;
    shared_->close_status = std::move(status);
  }
  shared_->cv.notify_all();
}

bool ChannelEndpoint::closed() const {
  std::lock_guard<std::mutex> lock(shared_->mu);
  return shared_->closed;
}

ChannelStats ChannelEndpoint::sent_stats() const {
  std::lock_guard<std::mutex> lock(shared_->mu);
  return out_->sent;
}

}  // namespace vf2boost

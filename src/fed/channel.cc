#include "fed/channel.h"

#include <cmath>
#include <utility>

namespace vf2boost {

Status NetworkConfig::Validate() const {
  // Every time below feeds a std::chrono conversion, where NaN or infinity
  // is undefined behaviour.
  const std::pair<const char*, double> knobs[] = {
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
  std::deque<Message> items;
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
  auto a = std::unique_ptr<ChannelEndpoint>(
      new ChannelEndpoint(shared, &shared->b_to_a, &shared->a_to_b));
  auto b = std::unique_ptr<ChannelEndpoint>(
      new ChannelEndpoint(shared, &shared->a_to_b, &shared->b_to_a));
  return {std::move(a), std::move(b)};
}

ChannelEndpoint::ChannelEndpoint(std::shared_ptr<Shared> shared, Queue* in,
                                 Queue* out)
    : shared_(std::move(shared)), in_(in), out_(out) {}

bool ChannelEndpoint::Send(Message msg) {
  {
    std::lock_guard<std::mutex> lock(shared_->mu);
    out_->sent.messages += 1;
    out_->sent.bytes += msg.WireBytes();
    if (shared_->closed) {
      out_->sent.dropped += 1;
      return false;
    }
    out_->items.push_back(std::move(msg));
  }
  shared_->cv.notify_all();
  return true;
}

Result<Message> ChannelEndpoint::Receive() {
  std::optional<Clock::time_point> deadline;
  if (const double d = shared_->config.default_deadline_seconds; d > 0) {
    deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(d));
  }
  std::unique_lock<std::mutex> lock(shared_->mu);
  for (;;) {
    // An error close fails fast, ahead of any still-undrained traffic.
    if (shared_->closed && !shared_->close_status.ok()) {
      return shared_->close_status;
    }
    if (!in_->items.empty()) {
      Message msg = std::move(in_->items.front());
      in_->items.pop_front();
      return msg;
    }
    if (shared_->closed) return Status::Aborted("channel closed");
    if (!deadline) {
      shared_->cv.wait(lock);
    } else if (Clock::now() >= *deadline) {
      return Status::DeadlineExceeded("receive deadline expired");
    } else {
      shared_->cv.wait_until(lock, *deadline);
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

#ifndef VF2BOOST_FED_INBOX_H_
#define VF2BOOST_FED_INBOX_H_

#include <algorithm>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <utility>

#include "fed/channel.h"

namespace vf2boost {

/// \brief Type-selective receiver over one channel endpoint.
///
/// Under the optimistic protocol Party A pipelines ahead, so Party B can
/// have next-layer histograms in flight while it is still waiting for this
/// layer's placement replies. Inbox lets the engine pull "the next message
/// of type T", buffering everything else in arrival order.
///
/// A failing or over-chatty peer would otherwise grow that buffer without
/// bound, so the buffer is capped: exceeding `max_buffered` pending messages
/// fails the receive with ResourceExhausted. The high-water mark is exported
/// as the `<party>/inbox_high_water` gauge for capacity planning.
class Inbox {
 public:
  /// `max_buffered` = 0 disables the cap.
  explicit Inbox(MessagePort* port, size_t max_buffered = 0)
      : endpoint_(port), max_buffered_(max_buffered) {}

  MessagePort* port() { return endpoint_; }

  /// Discards every buffered message. Called on session re-establishment:
  /// buffered messages belong to the dead link's generation and would
  /// otherwise be replayed into the resynchronized protocol.
  void Clear() { buffer_.clear(); }

  /// Registers an out-of-band consumer: every arriving message of
  /// `sideband_type` is handed to `handler` at ingestion instead of being
  /// returned, buffered, or counted against the cap. Used for observability
  /// traffic (kMetricsDelta, kClockPing/kClockPong) that must never perturb
  /// the training state machine regardless of when it arrives. One handler
  /// per type; registering again for the same type replaces it. The handler
  /// runs on the receiving engine's thread.
  void SetSideband(MessageType sideband_type,
                   std::function<void(Message)> handler) {
    sidebands_[sideband_type] = std::move(handler);
  }

  /// Next message of any type (buffered first). Fails when the channel is
  /// closed or the receive deadline expires (see ChannelEndpoint::Receive).
  Result<Message> Receive() {
    if (!buffer_.empty()) {
      Message m = std::move(buffer_.front());
      buffer_.pop_front();
      return m;
    }
    for (;;) {
      Result<Message> m = endpoint_->Receive();
      if (!m.ok()) return m;
      if (ConsumeSideband(&m.value())) continue;
      return m;
    }
  }

  /// Blocks until a message of `type` arrives; other messages are buffered
  /// and later returned by Receive()/ReceiveType in arrival order.
  Result<Message> ReceiveType(MessageType type) {
    for (auto it = buffer_.begin(); it != buffer_.end(); ++it) {
      if (it->type == type) {
        Message m = std::move(*it);
        buffer_.erase(it);
        return m;
      }
    }
    for (;;) {
      Result<Message> m = endpoint_->Receive();
      if (!m.ok()) return m.status();
      if (ConsumeSideband(&m.value())) continue;
      if (m->type == type) return std::move(m).value();
      VF2_RETURN_IF_ERROR(Buffer(std::move(m).value(), type));
    }
  }

  void Send(Message msg) { endpoint_->Send(std::move(msg)); }

  /// Largest number of messages ever parked in the buffer.
  size_t buffered_high_water() const { return high_water_; }

 private:
  /// True when `m` was a sideband message and has been handed off.
  bool ConsumeSideband(Message* m) {
    auto it = sidebands_.find(m->type);
    if (it == sidebands_.end()) return false;
    it->second(std::move(*m));
    return true;
  }

  Status Buffer(Message m, MessageType waiting_for) {
    if (max_buffered_ > 0 && buffer_.size() >= max_buffered_) {
      return Status::ResourceExhausted(
          "inbox buffered " + std::to_string(buffer_.size()) +
          " messages while waiting for " + MessageTypeName(waiting_for) +
          " (cap " + std::to_string(max_buffered_) + ")");
    }
    buffer_.push_back(std::move(m));
    high_water_ = std::max(high_water_, buffer_.size());
    return Status::OK();
  }

  MessagePort* endpoint_;
  size_t max_buffered_;
  size_t high_water_ = 0;
  std::deque<Message> buffer_;
  std::map<MessageType, std::function<void(Message)>> sidebands_;
};

}  // namespace vf2boost

#endif  // VF2BOOST_FED_INBOX_H_

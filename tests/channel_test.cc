#include "fed/channel.h"

#include <gtest/gtest.h>

#include <limits>
#include <thread>

#include "common/timer.h"
#include "fed/inbox.h"

namespace vf2boost {
namespace {

Message Make(MessageType type, uint8_t tag) {
  Message m;
  m.type = type;
  m.payload = {tag};
  return m;
}

TEST(ChannelTest, FifoOrderBothDirections) {
  auto [a, b] = ChannelEndpoint::CreatePair();
  EXPECT_TRUE(a->Send(Make(MessageType::kGradBatch, 1)));
  EXPECT_TRUE(a->Send(Make(MessageType::kGradBatch, 2)));
  EXPECT_TRUE(b->Send(Make(MessageType::kDecisions, 3)));
  EXPECT_EQ(b->Receive()->payload[0], 1);
  EXPECT_EQ(b->Receive()->payload[0], 2);
  EXPECT_EQ(a->Receive()->payload[0], 3);
}

TEST(ChannelTest, CrossThreadBlockingReceive) {
  auto [a, b] = ChannelEndpoint::CreatePair();
  std::thread sender([&a] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    a->Send(Make(MessageType::kTreeDone, 5));
  });
  Result<Message> m = b->Receive();
  sender.join();
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->payload[0], 5);
}

TEST(ChannelTest, SentStatsCountBytesAndMessages) {
  auto [a, b] = ChannelEndpoint::CreatePair();
  Message m;
  m.type = MessageType::kGradBatch;
  m.payload.assign(100, 0);
  a->Send(m);
  a->Send(m);
  const ChannelStats stats = a->sent_stats();
  EXPECT_EQ(stats.messages, 2u);
  // Wire bytes = payload + framing (version, type, length, CRC).
  EXPECT_EQ(stats.bytes, 2 * (100u + kFrameOverheadBytes));
  EXPECT_EQ(b->sent_stats().messages, 0u);
}

// --- lifecycle --------------------------------------------------------------

TEST(ChannelTest, CloseWakesBlockedReceiverOnPeerEnd) {
  auto [a, b] = ChannelEndpoint::CreatePair();
  std::thread closer([&a] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    a->Close(Status::Aborted("party A0 failed: injected"));
  });
  Result<Message> r = b->Receive();  // blocked until the close
  closer.join();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kAborted);
  EXPECT_NE(r.status().message().find("injected"), std::string::npos);
  EXPECT_TRUE(b->closed());
}

TEST(ChannelTest, CleanCloseDrainsPendingMessagesFirst) {
  auto [a, b] = ChannelEndpoint::CreatePair();
  a->Send(Make(MessageType::kTrainDone, 7));
  a->Close(Status::OK());
  Result<Message> r = b->Receive();
  ASSERT_TRUE(r.ok());  // in-flight message still delivered
  EXPECT_EQ(r->payload[0], 7);
  Result<Message> after = b->Receive();
  ASSERT_FALSE(after.ok());
  EXPECT_EQ(after.status().code(), StatusCode::kAborted);
}

TEST(ChannelTest, ErrorCloseFailsFastAheadOfPendingTraffic) {
  auto [a, b] = ChannelEndpoint::CreatePair();
  a->Send(Make(MessageType::kGradBatch, 1));
  a->Close(Status::Aborted("mid-protocol death"));
  Result<Message> r = b->Receive();
  ASSERT_FALSE(r.ok());  // error beats the undrained message
  EXPECT_FALSE(b->Receive().ok());  // and keeps beating it
}

TEST(ChannelTest, FirstCloseWins) {
  auto [a, b] = ChannelEndpoint::CreatePair();
  a->Close(Status::Aborted("root cause"));
  b->Close(Status::OK());  // late clean close must not mask the error
  Result<Message> r = a->Receive();
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("root cause"), std::string::npos);
}

TEST(ChannelTest, SendAfterCloseIsDropped) {
  auto [a, b] = ChannelEndpoint::CreatePair();
  a->Close(Status::OK());
  EXPECT_FALSE(a->Send(Make(MessageType::kGradBatch, 1)));
  EXPECT_EQ(a->sent_stats().dropped, 1u);
}

// --- deadlines --------------------------------------------------------------

TEST(ChannelTest, DefaultDeadlineTurnsSilentPeerIntoError) {
  NetworkConfig net;
  net.default_deadline_seconds = 0.05;
  auto [a, b] = ChannelEndpoint::CreatePair(net);
  Stopwatch clock;
  Result<Message> r = b->Receive();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_GE(clock.ElapsedSeconds(), 0.04);
}

TEST(ChannelTest, ExpiredDeadlineLeavesChannelUsable) {
  NetworkConfig net;
  net.default_deadline_seconds = 0.03;
  auto [a, b] = ChannelEndpoint::CreatePair(net);
  Result<Message> r = b->Receive();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  // A deadline is per call, not a close: the next message still arrives.
  EXPECT_FALSE(b->closed());
  a->Send(Make(MessageType::kTreeDone, 6));
  Result<Message> later = b->Receive();
  ASSERT_TRUE(later.ok()) << later.status().ToString();
  EXPECT_EQ(later->payload[0], 6);
}

TEST(ChannelTest, DeadlineDoesNotFireWhenMessageArrives) {
  NetworkConfig net;
  net.default_deadline_seconds = 0.5;
  auto [a, b] = ChannelEndpoint::CreatePair(net);
  a->Send(Make(MessageType::kTreeDone, 4));
  Result<Message> r = b->Receive();
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->payload[0], 4);
}

TEST(ChannelTest, WireFrameRoundTrips) {
  Message m = Make(MessageType::kNodeHistogram, 42);
  m.payload.push_back(7);
  const std::vector<uint8_t> frame = EncodeFrame(m);
  EXPECT_EQ(frame.size(), m.WireBytes());
  Message back;
  ASSERT_TRUE(DecodeFrame(frame, &back).ok());
  EXPECT_EQ(back.type, m.type);
  EXPECT_EQ(back.payload, m.payload);
}

TEST(ChannelTest, WireFrameRejectsTampering) {
  Message m = Make(MessageType::kGradBatch, 1);
  const std::vector<uint8_t> good = EncodeFrame(m);
  Message out;

  std::vector<uint8_t> bad_version = good;
  bad_version[0] = kWireVersion + 1;
  EXPECT_EQ(DecodeFrame(bad_version, &out).code(), StatusCode::kCorruption);

  std::vector<uint8_t> bad_crc = good;
  bad_crc.back() ^= 0x10;  // flip payload bit -> CRC mismatch
  EXPECT_EQ(DecodeFrame(bad_crc, &out).code(), StatusCode::kCorruption);

  std::vector<uint8_t> truncated(good.begin(), good.begin() + 3);
  EXPECT_EQ(DecodeFrame(truncated, &out).code(), StatusCode::kCorruption);
}

TEST(NetworkConfigTest, ValidateRejectsBadKnobs) {
  NetworkConfig net;
  EXPECT_TRUE(net.Validate().ok());
  net.default_deadline_seconds = -1;
  EXPECT_FALSE(net.Validate().ok());
  net.default_deadline_seconds = 0;
  net.reconnect_backoff_base_seconds = -0.5;
  EXPECT_FALSE(net.Validate().ok());

  // Every time reaches a std::chrono conversion, where NaN or infinity is
  // undefined. The base config is valid with heartbeats on, so the only
  // thing wrong in each case is the one non-finite value.
  NetworkConfig base;
  base.default_deadline_seconds = 1;
  base.heartbeat_interval_seconds = 0.2;
  ASSERT_TRUE(base.Validate().ok());
  for (double NetworkConfig::*knob :
       {&NetworkConfig::default_deadline_seconds,
        &NetworkConfig::heal_after_seconds,
        &NetworkConfig::reconnect_backoff_base_seconds,
        &NetworkConfig::reconnect_backoff_cap_seconds,
        &NetworkConfig::heartbeat_interval_seconds,
        &NetworkConfig::liveness_budget_seconds}) {
    for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                       std::numeric_limits<double>::infinity()}) {
      NetworkConfig c = base;
      c.*knob = bad;
      Status st = c.Validate();
      EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << bad;
      EXPECT_NE(st.message().find("finite"), std::string::npos)
          << st.ToString();
    }
  }
}

TEST(NetworkConfigTest, ValidateRejectsBadRecoveryKnobs) {
  NetworkConfig net;
  net.heal_after_seconds = -0.1;
  EXPECT_FALSE(net.Validate().ok());
  net.heal_after_seconds = 0;

  net.reconnect_max_attempts = -1;
  EXPECT_FALSE(net.Validate().ok());

  // A reconnect budget without a receive deadline can never trigger: the
  // dead link would block forever instead of surfacing a transient fault.
  net.reconnect_max_attempts = 3;
  net.default_deadline_seconds = 0;
  EXPECT_FALSE(net.Validate().ok());
  net.default_deadline_seconds = 1.0;
  EXPECT_TRUE(net.Validate().ok());

  net.reconnect_backoff_cap_seconds =
      net.reconnect_backoff_base_seconds / 2;  // cap below base
  EXPECT_FALSE(net.Validate().ok());
}

TEST(NetworkConfigTest, ValidateRejectsIncoherentLivenessKnobs) {
  NetworkConfig net;
  net.heartbeat_interval_seconds = -1;
  EXPECT_FALSE(net.Validate().ok());
  net.heartbeat_interval_seconds = 0;
  net.liveness_budget_seconds = -1;
  EXPECT_FALSE(net.Validate().ok());

  // A liveness budget needs beacons to measure against...
  net.liveness_budget_seconds = 1.0;
  net.heartbeat_interval_seconds = 0;
  EXPECT_FALSE(net.Validate().ok());
  // ...a receive deadline to sample the silence at...
  net.heartbeat_interval_seconds = 0.2;
  net.default_deadline_seconds = 0;
  EXPECT_FALSE(net.Validate().ok());
  // ...and must exceed the beacon period, or one delayed beacon reads as
  // peer death.
  net.default_deadline_seconds = 0.1;
  net.liveness_budget_seconds = 0.2;
  EXPECT_FALSE(net.Validate().ok());
  net.liveness_budget_seconds = 1.0;
  EXPECT_TRUE(net.Validate().ok());
}

// --- inbox ------------------------------------------------------------------

TEST(InboxTest, ReceiveTypeBuffersOthers) {
  auto [a, b] = ChannelEndpoint::CreatePair();
  Inbox inbox(b.get());
  a->Send(Make(MessageType::kNodeHistogram, 1));
  a->Send(Make(MessageType::kNodeHistogram, 2));
  a->Send(Make(MessageType::kPlacement, 3));
  // Pull the placement first; histograms must be preserved in order.
  Result<Message> p = inbox.ReceiveType(MessageType::kPlacement);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->payload[0], 3);
  EXPECT_EQ(inbox.Receive()->payload[0], 1);
  EXPECT_EQ(inbox.ReceiveType(MessageType::kNodeHistogram)->payload[0], 2);
  EXPECT_EQ(inbox.buffered_high_water(), 2u);
}

TEST(InboxTest, ReceiveDrainsBufferFirst) {
  auto [a, b] = ChannelEndpoint::CreatePair();
  Inbox inbox(b.get());
  a->Send(Make(MessageType::kNodeHistogram, 1));
  a->Send(Make(MessageType::kSplitQueries, 2));
  EXPECT_EQ(inbox.ReceiveType(MessageType::kSplitQueries)->payload[0], 2);
  a->Send(Make(MessageType::kTreeDone, 3));
  EXPECT_EQ(inbox.Receive()->payload[0], 1);  // buffered one comes first
  EXPECT_EQ(inbox.Receive()->payload[0], 3);
}

TEST(InboxTest, BufferCapReturnsResourceExhausted) {
  auto [a, b] = ChannelEndpoint::CreatePair();
  Inbox inbox(b.get(), /*max_buffered=*/2);
  a->Send(Make(MessageType::kNodeHistogram, 1));
  a->Send(Make(MessageType::kNodeHistogram, 2));
  a->Send(Make(MessageType::kNodeHistogram, 3));
  Result<Message> r = inbox.ReceiveType(MessageType::kPlacement);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(inbox.buffered_high_water(), 2u);
}

TEST(InboxTest, PropagatesChannelClose) {
  auto [a, b] = ChannelEndpoint::CreatePair();
  Inbox inbox(b.get());
  a->Close(Status::Aborted("peer died"));
  Result<Message> r = inbox.ReceiveType(MessageType::kNodeHistogram);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kAborted);
}

}  // namespace
}  // namespace vf2boost

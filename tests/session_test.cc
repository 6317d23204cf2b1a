#include "fed/session.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "common/timer.h"

namespace vf2boost {
namespace {

using Clock = ChannelEndpoint::Clock;

uint64_t CounterValue(obs::MetricsRegistry* registry, const char* name) {
  return registry->GetCounter(name)->value();
}

NetworkConfig RecoverableNet() {
  NetworkConfig net;
  net.default_deadline_seconds = 0.1;
  net.reconnect_max_attempts = 8;
  net.reconnect_backoff_base_seconds = 0.001;
  net.reconnect_backoff_cap_seconds = 0.02;
  return net;
}

// Builds both halves of one resilient channel over a shared broker; each
// side counts into its own registry, as two processes would.
struct SessionPair {
  explicit SessionPair(const NetworkConfig& net,
                       uint64_t fingerprint_a = 77, uint64_t fingerprint_b = 77)
      : broker({net}) {
    auto [ea, eb] = ChannelEndpoint::CreatePair(net);
    a = std::make_unique<SessionChannel>(
        &broker, 0, /*a_side=*/true, /*session_id=*/1234, /*party=*/0,
        fingerprint_a, net, std::move(ea), &a_metrics);
    b = std::make_unique<SessionChannel>(
        &broker, 0, /*a_side=*/false, /*session_id=*/1234, /*party=*/1,
        fingerprint_b, net, std::move(eb), &b_metrics);
  }
  SessionBroker broker;
  obs::MetricsRegistry a_metrics;
  obs::MetricsRegistry b_metrics;
  std::unique_ptr<SessionChannel> a;
  std::unique_ptr<SessionChannel> b;
};

// Cuts one pair for channel 0, one side on a helper thread.
std::pair<std::unique_ptr<MessagePort>, std::unique_ptr<MessagePort>>
Rendezvous(SessionBroker* broker) {
  Result<std::unique_ptr<MessagePort>> a = Status::Unavailable("pending");
  std::thread peer([&] {
    a = broker->Reconnect(0, true, Clock::now() + std::chrono::seconds(5));
  });
  auto b = broker->Reconnect(0, false, Clock::now() + std::chrono::seconds(5));
  peer.join();
  EXPECT_TRUE(a.ok()) << a.status().ToString();
  EXPECT_TRUE(b.ok()) << b.status().ToString();
  if (!a.ok() || !b.ok()) return {};
  return {std::move(a).value(), std::move(b).value()};
}

TEST(SessionBrokerTest, RendezvousHandsBothSidesAConnectedPair) {
  SessionBroker broker({NetworkConfig{}});
  auto [a, b] = Rendezvous(&broker);
  ASSERT_NE(a, nullptr);
  a->Send(Message{MessageType::kTreeDone, {42}});
  Result<Message> r = b->Receive();
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->payload[0], 42);
}

TEST(SessionBrokerTest, HealDelayGatesOnlyReplacementLinks) {
  NetworkConfig net;
  net.heal_after_seconds = 0.3;
  SessionBroker broker({net});
  Stopwatch first_clock;
  auto first = Rendezvous(&broker);  // generation 0: no outage to wait out
  ASSERT_NE(first.first, nullptr);
  EXPECT_LT(first_clock.ElapsedSeconds(), 0.25);
  Stopwatch second_clock;
  auto second = Rendezvous(&broker);
  ASSERT_NE(second.first, nullptr);
  EXPECT_GE(second_clock.ElapsedSeconds(), 0.25);  // outage lasted ~heal_after
}

TEST(SessionBrokerTest, KillAfterArmsOnlyTheFirstGeneration) {
  NetworkConfig net;
  net.kill_after_messages = 1;
  net.default_deadline_seconds = 0.05;
  SessionBroker broker({net});
  for (int generation = 0; generation < 2; ++generation) {
    auto [a, b] = Rendezvous(&broker);
    ASSERT_NE(a, nullptr);
    a->Send(Message{MessageType::kTreeDone, {1}});
    a->Send(Message{MessageType::kTreeDone, {2}});
    EXPECT_TRUE(b->Receive().ok());
    // The first link dies after one message; its replacement stays up.
    EXPECT_EQ(b->Receive().ok(), generation > 0) << "generation " << generation;
  }
}

TEST(SessionBrokerTest, TimesOutWithoutPeer) {
  SessionBroker broker({NetworkConfig{}});
  auto r = broker.Reconnect(0, true,
                            Clock::now() + std::chrono::milliseconds(50));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(SessionBrokerTest, ShutdownAbortsPendingAndFutureRendezvous) {
  SessionBroker broker({NetworkConfig{}});
  std::thread killer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    broker.Shutdown(Status::Aborted("party B failed: injected"));
  });
  auto pending =
      broker.Reconnect(0, true, Clock::now() + std::chrono::seconds(5));
  killer.join();
  ASSERT_FALSE(pending.ok());
  EXPECT_EQ(pending.status().code(), StatusCode::kAborted);
  auto later =
      broker.Reconnect(0, false, Clock::now() + std::chrono::seconds(5));
  ASSERT_FALSE(later.ok());
  EXPECT_NE(later.status().message().find("injected"), std::string::npos);
}

TEST(SessionChannelTest, ReestablishReplacesLinkAndExchangesHellos) {
  SessionPair pair(RecoverableNet());
  Result<HelloPayload> peer_of_a = Status::Unavailable("pending");
  std::thread side_a([&] { peer_of_a = pair.a->Reestablish(3); });
  Result<HelloPayload> peer_of_b = pair.b->Reestablish(3);
  side_a.join();
  ASSERT_TRUE(peer_of_a.ok()) << peer_of_a.status().ToString();
  ASSERT_TRUE(peer_of_b.ok()) << peer_of_b.status().ToString();
  EXPECT_EQ(peer_of_a->party, 1u);
  EXPECT_EQ(peer_of_b->party, 0u);
  EXPECT_EQ(peer_of_a->last_completed_tree, 3);
  EXPECT_EQ(pair.a->reconnects(), 1u);
  EXPECT_EQ(pair.b->reconnects(), 1u);

  // The replacement link carries traffic.
  Message m;
  m.type = MessageType::kGradBatch;
  m.payload = {7};
  pair.b->Send(std::move(m));
  Result<Message> r = pair.a->Receive();
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->payload[0], 7);
}

TEST(SessionChannelTest, StatsAccumulateAcrossGenerations) {
  SessionPair pair(RecoverableNet());
  Message m;
  m.type = MessageType::kGradBatch;
  m.payload = {1};
  pair.a->Send(m);  // first generation traffic
  std::thread side_a([&] { EXPECT_TRUE(pair.a->Reestablish(0).ok()); });
  EXPECT_TRUE(pair.b->Reestablish(0).ok());
  side_a.join();
  pair.a->Send(m);  // second generation traffic
  // 2 data messages + 1 hello, summed over both link generations.
  EXPECT_EQ(pair.a->sent_stats().messages, 3u);
}

TEST(SessionChannelTest, BudgetExhaustionIsUnavailable) {
  NetworkConfig net = RecoverableNet();
  net.default_deadline_seconds = 0.01;
  net.reconnect_max_attempts = 1;
  SessionPair pair(net);
  // No peer ever shows up: the single attempt times out at the rendezvous
  // and the budget is spent.
  Result<HelloPayload> r = pair.a->Reestablish(0);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(pair.a->attempts_used(), 1);
}

TEST(SessionChannelTest, FingerprintMismatchIsTerminal) {
  SessionPair pair(RecoverableNet(), /*fingerprint_a=*/1,
                   /*fingerprint_b=*/2);
  Result<HelloPayload> peer_of_a = Status::Unavailable("pending");
  std::thread side_a([&] { peer_of_a = pair.a->Reestablish(0); });
  Result<HelloPayload> peer_of_b = pair.b->Reestablish(0);
  side_a.join();
  // Both sides must reject the marriage, not retry it.
  ASSERT_FALSE(peer_of_a.ok());
  ASSERT_FALSE(peer_of_b.ok());
  EXPECT_EQ(peer_of_a.status().code(), StatusCode::kProtocolError);
  EXPECT_EQ(peer_of_b.status().code(), StatusCode::kProtocolError);
}

TEST(SessionChannelTest, ErrorCloseShutsTheBrokerDown) {
  SessionPair pair(RecoverableNet());
  pair.a->Close(Status::Aborted("engine failed"));
  // The peer's future reconnects fail fast with the root cause instead of
  // burning the budget against a side that is gone for good.
  Result<HelloPayload> r = pair.b->Reestablish(0);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kAborted);
}

// --- heartbeat / liveness ---------------------------------------------------

TEST(SessionHeartbeatTest, BeaconsFlowAndNeverSurfaceFromReceive) {
  // Asymmetric on purpose: only A beacons, B has no heartbeat config at all.
  // B must still consume them silently — liveness is a per-side choice.
  NetworkConfig a_net = RecoverableNet();
  a_net.heartbeat_interval_seconds = 0.02;
  NetworkConfig b_net = RecoverableNet();
  SessionBroker broker({a_net});
  obs::MetricsRegistry a_metrics, b_metrics;
  auto [ea, eb] = ChannelEndpoint::CreatePair(a_net);
  SessionChannel a(&broker, 0, /*a_side=*/true, /*session_id=*/1, /*party=*/0,
                   /*fingerprint=*/7, a_net, std::move(ea), &a_metrics);
  SessionChannel b(&broker, 0, /*a_side=*/false, /*session_id=*/1,
                   /*party=*/1, /*fingerprint=*/7, b_net, std::move(eb),
                   &b_metrics);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  Message m;
  m.type = MessageType::kGradBatch;
  m.payload = {7};
  a.Send(std::move(m));
  // The beacons queued ahead of the data frame are swallowed, not surfaced.
  Result<Message> r = b.Receive();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->type, MessageType::kGradBatch);
  EXPECT_GE(CounterValue(&a_metrics, "session/heartbeats_sent"), 1u);
  EXPECT_GE(CounterValue(&b_metrics, "session/heartbeats_received"), 1u);
}

TEST(SessionHeartbeatTest, LivenessBudgetTripsOnSilentPeerAndLinkHeals) {
  // A beacons and enforces a budget; B is mute (no heartbeat config). From
  // A's perspective the peer is alive-but-silent — exactly what a SIGSTOP'd
  // process or a partitioned link looks like: the connection stays open, so
  // only the liveness budget can flag it.
  NetworkConfig a_net = RecoverableNet();
  a_net.default_deadline_seconds = 0.05;
  a_net.heartbeat_interval_seconds = 0.02;
  a_net.liveness_budget_seconds = 0.2;
  NetworkConfig b_net = RecoverableNet();
  SessionBroker broker({a_net});
  obs::MetricsRegistry a_metrics, b_metrics;
  auto [ea, eb] = ChannelEndpoint::CreatePair(a_net);
  SessionChannel a(&broker, 0, /*a_side=*/true, /*session_id=*/1, /*party=*/0,
                   /*fingerprint=*/7, a_net, std::move(ea), &a_metrics);
  SessionChannel b(&broker, 0, /*a_side=*/false, /*session_id=*/1,
                   /*party=*/1, /*fingerprint=*/7, b_net, std::move(eb),
                   &b_metrics);

  Stopwatch timer;
  Result<Message> r = a.Receive();
  ASSERT_FALSE(r.ok());
  // The trip rides the existing recovery path: a transient Unavailable the
  // engines answer with Recover(), not a new failure mode.
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
  EXPECT_TRUE(IsTransientFault(r.status()));
  EXPECT_NE(r.status().message().find("liveness"), std::string::npos);
  EXPECT_GE(timer.ElapsedSeconds(), 0.2);
  EXPECT_EQ(CounterValue(&a_metrics, "session/liveness_trips"), 1u);

  // And the standard reconnect machinery heals the session afterwards.
  Result<HelloPayload> from_b = Status::Unavailable("pending");
  std::thread side_b([&] { from_b = b.Reestablish(0); });
  Result<HelloPayload> from_a = a.Reestablish(0);
  side_b.join();
  ASSERT_TRUE(from_a.ok()) << from_a.status().ToString();
  ASSERT_TRUE(from_b.ok()) << from_b.status().ToString();
  Message m;
  m.type = MessageType::kGradBatch;
  m.payload = {9};
  b.Send(std::move(m));
  Result<Message> healed = a.Receive();
  ASSERT_TRUE(healed.ok()) << healed.status().ToString();
  EXPECT_EQ(healed->payload[0], 9);
}

TEST(SessionHeartbeatTest, TrafficKeepsTheBudgetFromTripping) {
  // Real inbound frames reset the silence clock just like beacons do: a link
  // carrying data never trips, even when the peer sends no heartbeats.
  NetworkConfig a_net = RecoverableNet();
  a_net.default_deadline_seconds = 0.05;
  a_net.heartbeat_interval_seconds = 0.05;
  a_net.liveness_budget_seconds = 0.3;
  NetworkConfig b_net = RecoverableNet();
  SessionBroker broker({a_net});
  obs::MetricsRegistry a_metrics, b_metrics;
  auto [ea, eb] = ChannelEndpoint::CreatePair(a_net);
  SessionChannel a(&broker, 0, /*a_side=*/true, /*session_id=*/1, /*party=*/0,
                   /*fingerprint=*/7, a_net, std::move(ea), &a_metrics);
  SessionChannel b(&broker, 0, /*a_side=*/false, /*session_id=*/1,
                   /*party=*/1, /*fingerprint=*/7, b_net, std::move(eb),
                   &b_metrics);
  std::thread feeder([&] {
    for (int i = 0; i < 5; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      Message m;
      m.type = MessageType::kGradBatch;
      m.payload = {static_cast<uint8_t>(i)};
      b.Send(std::move(m));
    }
  });
  for (int i = 0; i < 5; ++i) {
    Result<Message> r = a.Receive();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->payload[0], static_cast<uint8_t>(i));
  }
  feeder.join();
  EXPECT_EQ(CounterValue(&a_metrics, "session/liveness_trips"), 0u);
}

TEST(SessionChannelTest, CleanCloseLeavesBrokerRunning) {
  SessionPair pair(RecoverableNet());
  pair.a->Close(Status::OK());
  // A clean close is not a failure: other channels (here: the same slot)
  // must still be able to rendezvous.
  auto r = pair.broker.Reconnect(0, true,
                                 Clock::now() + std::chrono::milliseconds(50));
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);  // not aborted
}

}  // namespace
}  // namespace vf2boost

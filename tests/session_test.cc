#include "fed/session.h"

#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <string>
#include <thread>

#include "common/timer.h"
#include "fed/fed_trainer.h"
#include "fed/tcp_transport.h"
#include "fed_test_util.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"
#include "obs/trace_check.h"

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

// Brings both halves of one channel up through a shared broker, A on a
// helper thread; each side counts into its own registry, as two processes
// would. The broker cuts links with A's config.
struct SessionPair {
  explicit SessionPair(const NetworkConfig& net, uint64_t fingerprint_a = 77,
                       uint64_t fingerprint_b = 77)
      : SessionPair(net, net, fingerprint_a, fingerprint_b) {}
  SessionPair(const NetworkConfig& a_net, const NetworkConfig& b_net,
              uint64_t fingerprint_a = 77, uint64_t fingerprint_b = 77)
      : broker({a_net}),
        a(std::make_unique<SessionChannel>(
            &broker, 0, /*a_side=*/true, /*session_id=*/1234, /*party=*/0,
            fingerprint_a, a_net, &a_metrics)),
        b(std::make_unique<SessionChannel>(
            &broker, 0, /*a_side=*/false, /*session_id=*/1234, /*party=*/1,
            fingerprint_b, b_net, &b_metrics)) {
    std::thread side_a([this] { a_open = a->Open(5); });
    b_open = b->Open(5);
    side_a.join();
  }
  bool up() const { return a_open.ok() && b_open.ok(); }

  SessionBroker broker;
  obs::MetricsRegistry a_metrics;
  obs::MetricsRegistry b_metrics;
  std::unique_ptr<SessionChannel> a;
  std::unique_ptr<SessionChannel> b;
  Result<HelloPayload> a_open = Status::Unavailable("pending");  ///< B's hello
  Result<HelloPayload> b_open = Status::Unavailable("pending");  ///< A's hello
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

TEST(SessionChannelTest, OpenExchangesHellosWithoutSpendingTheBudget) {
  NetworkConfig net = RecoverableNet();
  net.reconnect_max_attempts = 1;
  // A backoff sleep at bring-up would show as a slow Open.
  net.reconnect_backoff_base_seconds = 1;
  net.reconnect_backoff_cap_seconds = 1;
  Stopwatch clock;
  SessionPair pair(net);
  ASSERT_TRUE(pair.up()) << pair.a_open.status().ToString() << " / "
                         << pair.b_open.status().ToString();
  EXPECT_LT(clock.ElapsedSeconds(), 0.9);
  EXPECT_EQ(pair.a_open->party, 1u);
  EXPECT_EQ(pair.b_open->party, 0u);
  EXPECT_EQ(pair.a_open->session_id, 1234u);
  EXPECT_EQ(pair.b_open->config_fingerprint, 77u);

  Message m;
  m.type = MessageType::kGradBatch;
  m.payload = {5};
  pair.a->Send(std::move(m));
  Result<Message> r = pair.b->Receive();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->payload[0], 5);

  // The one attempt in the budget is still there for a real outage.
  Result<HelloPayload> healed = Status::Unavailable("pending");
  std::thread side_a([&] { healed = pair.a->Reestablish(); });
  EXPECT_TRUE(pair.b->Reestablish().ok());
  side_a.join();
  EXPECT_TRUE(healed.ok()) << healed.status().ToString();
}

TEST(SessionChannelTest, OpenTimesOutWithoutPeer) {
  SessionBroker broker({NetworkConfig{}});
  obs::MetricsRegistry metrics;
  SessionChannel a(&broker, 0, /*a_side=*/true, 1, 0, 7, NetworkConfig{},
                   &metrics);
  Stopwatch clock;
  Result<HelloPayload> r = a.Open(0.1);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_LT(clock.ElapsedSeconds(), 2.0);
}

TEST(SessionChannelTest, ReestablishReplacesLinkAndExchangesHellos) {
  SessionPair pair(RecoverableNet());
  ASSERT_TRUE(pair.up());
  Result<HelloPayload> peer_of_a = Status::Unavailable("pending");
  std::thread side_a([&] { peer_of_a = pair.a->Reestablish(); });
  Result<HelloPayload> peer_of_b = pair.b->Reestablish();
  side_a.join();
  ASSERT_TRUE(peer_of_a.ok()) << peer_of_a.status().ToString();
  ASSERT_TRUE(peer_of_b.ok()) << peer_of_b.status().ToString();
  EXPECT_EQ(peer_of_a->party, 1u);
  EXPECT_EQ(peer_of_b->party, 0u);
  EXPECT_EQ(peer_of_a->session_id, 1234u);

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
  std::thread side_a([&] { EXPECT_TRUE(pair.a->Reestablish().ok()); });
  EXPECT_TRUE(pair.b->Reestablish().ok());
  side_a.join();
  pair.a->Send(m);  // second generation traffic
  // 2 data messages + 2 hellos, summed over both link generations.
  EXPECT_EQ(pair.a->sent_stats().messages, 4u);
}

TEST(SessionChannelTest, BudgetExhaustionIsUnavailable) {
  NetworkConfig net = RecoverableNet();
  net.default_deadline_seconds = 0.01;
  net.reconnect_max_attempts = 1;
  SessionPair pair(net);
  // No peer ever shows up: the single attempt times out at the rendezvous
  // and the budget is spent.
  Result<HelloPayload> r = pair.a->Reestablish();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(r.status().message().find("1/1 attempts"), std::string::npos)
      << r.status().ToString();
}

TEST(SessionChannelTest, FingerprintMismatchIsTerminal) {
  SessionPair pair(RecoverableNet(), /*fingerprint_a=*/1,
                   /*fingerprint_b=*/2);
  // Both sides must reject the marriage at bring-up, not retry it.
  ASSERT_FALSE(pair.a_open.ok());
  ASSERT_FALSE(pair.b_open.ok());
  EXPECT_EQ(pair.a_open.status().code(), StatusCode::kProtocolError);
  EXPECT_EQ(pair.b_open.status().code(), StatusCode::kProtocolError);
}

TEST(SessionChannelTest, ErrorCloseShutsTheBrokerDown) {
  SessionPair pair(RecoverableNet());
  pair.a->Close(Status::Aborted("engine failed"));
  // The peer's future reconnects fail fast with the root cause instead of
  // burning the budget against a side that is gone for good.
  Result<HelloPayload> r = pair.b->Reestablish();
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
  SessionPair pair(a_net, b_net);
  ASSERT_TRUE(pair.up());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  Message m;
  m.type = MessageType::kGradBatch;
  m.payload = {7};
  pair.a->Send(std::move(m));
  // The beacons queued ahead of the data frame are swallowed, not surfaced.
  Result<Message> r = pair.b->Receive();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->type, MessageType::kGradBatch);
  EXPECT_GE(CounterValue(&pair.a_metrics, "session/heartbeats_sent"), 1u);
  EXPECT_GE(CounterValue(&pair.b_metrics, "session/heartbeats_received"), 1u);
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
  SessionPair pair(a_net, b_net);
  ASSERT_TRUE(pair.up());
  SessionChannel& a = *pair.a;
  SessionChannel& b = *pair.b;

  Stopwatch timer;
  Result<Message> r = a.Receive();
  ASSERT_FALSE(r.ok());
  // The trip rides the existing recovery path: a transient Unavailable the
  // engines answer with Recover(), not a new failure mode.
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
  EXPECT_TRUE(IsTransientFault(r.status()));
  EXPECT_NE(r.status().message().find("liveness"), std::string::npos);
  EXPECT_GE(timer.ElapsedSeconds(), 0.2);
  EXPECT_EQ(CounterValue(&pair.a_metrics, "session/liveness_trips"), 1u);

  // And the standard reconnect machinery heals the session afterwards.
  Result<HelloPayload> from_b = Status::Unavailable("pending");
  std::thread side_b([&] { from_b = b.Reestablish(); });
  Result<HelloPayload> from_a = a.Reestablish();
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
  SessionPair pair(a_net, b_net);
  ASSERT_TRUE(pair.up());
  SessionChannel& a = *pair.a;
  SessionChannel& b = *pair.b;
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
  EXPECT_EQ(CounterValue(&pair.a_metrics, "session/liveness_trips"), 0u);
}

// --- kill switch ------------------------------------------------------------

// Drives the kill switch over one factory pair with kill_after_messages = 2.
// B beacons, so its first link goes silent after its hello and its first
// beacon; every later send is counted as dropped. The replacement link
// stays up.
void ExpectKillSwitchFiresOnce(ChannelFactory* a_factory,
                               ChannelFactory* b_factory,
                               const NetworkConfig& net) {
  NetworkConfig b_net = net;
  b_net.heartbeat_interval_seconds = 0.005;
  obs::MetricsRegistry a_metrics, b_metrics;
  SessionChannel a(a_factory, 0, /*a_side=*/true, 1, 0, 7, net, &a_metrics);
  SessionChannel b(b_factory, 0, /*a_side=*/false, 1, 1, 7, b_net,
                   &b_metrics);
  Result<HelloPayload> a_up = Status::Unavailable("pending");
  std::thread side_a([&] { a_up = a.Open(5); });
  Result<HelloPayload> b_up = b.Open(5);
  side_a.join();
  ASSERT_TRUE(a_up.ok()) << a_up.status().ToString();
  ASSERT_TRUE(b_up.ok()) << b_up.status().ToString();

  for (int i = 0; i < 400; ++i) {
    if (CounterValue(&b_metrics, "session/heartbeats_sent") >= 3) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_GE(CounterValue(&b_metrics, "session/heartbeats_sent"), 3u);
  b.Send(Message{MessageType::kGradBatch, {1}});
  // A swallows the one beacon that got through, then hears nothing.
  Result<Message> r = a.Receive();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(CounterValue(&a_metrics, "session/heartbeats_received"), 1u);
  const ChannelStats dead = b.sent_stats();
  EXPECT_EQ(dead.messages - dead.dropped, 2u);  // the hello and one beacon
  EXPECT_GE(dead.dropped, 3u);  // later beacons and the data frame

  Result<HelloPayload> a_healed = Status::Unavailable("pending");
  std::thread side_a2([&] { a_healed = a.Reestablish(); });
  Result<HelloPayload> b_healed = b.Reestablish();
  side_a2.join();
  ASSERT_TRUE(a_healed.ok()) << a_healed.status().ToString();
  ASSERT_TRUE(b_healed.ok()) << b_healed.status().ToString();
  for (uint8_t i = 1; i <= 5; ++i) {
    b.Send(Message{MessageType::kGradBatch, {i}});
  }
  for (uint8_t i = 1; i <= 5; ++i) {
    Result<Message> healed = a.Receive();
    ASSERT_TRUE(healed.ok()) << healed.status().ToString();
    EXPECT_EQ(healed->payload[0], i);
  }
}

NetworkConfig KillAfterTwo() {
  NetworkConfig net = RecoverableNet();
  net.default_deadline_seconds = 0.2;
  net.kill_after_messages = 2;
  return net;
}

TEST(SessionKillSwitchTest, FirstLinkDiesOnceOverSessionBroker) {
  const NetworkConfig net = KillAfterTwo();
  SessionBroker broker({net});
  ExpectKillSwitchFiresOnce(&broker, &broker, net);
}

TEST(SessionKillSwitchTest, FirstLinkDiesOnceOverTcp) {
  const NetworkConfig net = KillAfterTwo();
  auto listener = TcpChannelFactory::Listen("127.0.0.1", 0, 1, net);
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  auto dialer =
      TcpChannelFactory::Dial("127.0.0.1", (*listener)->port(), 0, net);
  ASSERT_TRUE(dialer.ok()) << dialer.status().ToString();
  ExpectKillSwitchFiresOnce(dialer->get(), listener->get(), net);
}

// --- frame tracing ----------------------------------------------------------

// Brings a session up, sends one batch A -> B, and then one frame that the
// kill switch (2 sends on generation 0: the hello and the batch) drops.
void ExchangeWithOneDroppedFrame(ChannelFactory* a_factory,
                                 ChannelFactory* b_factory,
                                 const NetworkConfig& net) {
  obs::MetricsRegistry a_metrics, b_metrics;
  SessionChannel a(a_factory, 0, /*a_side=*/true, 1, 0, 7, net, &a_metrics);
  SessionChannel b(b_factory, 0, /*a_side=*/false, 1, 1, 7, net, &b_metrics);
  Result<HelloPayload> a_up = Status::Unavailable("pending");
  std::thread side_a([&] { a_up = a.Open(5); });
  Result<HelloPayload> b_up = b.Open(5);
  side_a.join();
  ASSERT_TRUE(a_up.ok()) << a_up.status().ToString();
  ASSERT_TRUE(b_up.ok()) << b_up.status().ToString();
  EXPECT_TRUE(a.Send(Message{MessageType::kGradBatch, {1}}));
  Result<Message> r = b.Receive();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->trace_id >> 40, 4u);  // stamped under the process namespace
  EXPECT_FALSE(a.Send(Message{MessageType::kNodeHistogram, {2}}));
}

// The session records every frame once over either transport: both hellos
// and the batch pair up as snd/rcv flows (the TCP routing preamble below
// the session is not a session frame), and each shows in the flight
// recorder. The dropped frame gets neither.
void ExpectEveryFrameTracedOnce(ChannelFactory* a_factory,
                                ChannelFactory* b_factory,
                                const NetworkConfig& net) {
  obs::SetProcessTraceNamespace(4);
  obs::TraceRecorder rec;
  obs::FlightRecorder flight;
  rec.Install();
  flight.Install();
  ExchangeWithOneDroppedFrame(a_factory, b_factory, net);
  obs::FlightRecorder::Uninstall();
  obs::TraceRecorder::Uninstall();
  obs::SetProcessTraceNamespace(0);

  std::string error;
  obs::FlowAudit audit;
  EXPECT_TRUE(obs::AuditTraceFlows(rec.ToJson(), /*slack_us=*/0,
                                   {"Hello", "GradBatch", "NodeHistogram"},
                                   &error, &audit))
      << error;
  EXPECT_EQ(audit.matched, 3u);
  EXPECT_EQ(audit.unmatched_starts, 0u);
  EXPECT_EQ(audit.unmatched_ends, 0u);
  std::map<std::string, int> sent, received;
  for (const obs::FlightRecorder::Entry& e : flight.Snapshot()) {
    if (e.kind == obs::FlightRecorder::Kind::kFrameSent) ++sent[e.detail];
    if (e.kind == obs::FlightRecorder::Kind::kFrameReceived) {
      ++received[e.detail];
    }
  }
  const std::map<std::string, int> expected = {{"Hello", 2}, {"GradBatch", 1}};
  EXPECT_EQ(sent, expected);
  EXPECT_EQ(received, expected);
}

TEST(SessionTraceTest, EveryFrameTracedOnceOverSessionBroker) {
  const NetworkConfig net = KillAfterTwo();
  SessionBroker broker({net});
  ExpectEveryFrameTracedOnce(&broker, &broker, net);
}

TEST(SessionTraceTest, EveryFrameTracedOnceOverTcp) {
  const NetworkConfig net = KillAfterTwo();
  auto listener = TcpChannelFactory::Listen("127.0.0.1", 0, 1, net);
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  auto dialer =
      TcpChannelFactory::Dial("127.0.0.1", (*listener)->port(), 0, net);
  ASSERT_TRUE(dialer.ok()) << dialer.status().ToString();
  ExpectEveryFrameTracedOnce(dialer->get(), listener->get(), net);
}

// --- bring-up ---------------------------------------------------------------

// Two sides whose configurations differ only in the seed, without a
// reconnect budget: the hello refuses the link on both sides, naming the
// cause, so neither side starts an engine.
TEST(SessionBringUpTest, MismatchedSeedIsRefusedOnBothSides) {
  Fixture f = MakeFixture(100, 8, /*seed=*/41);
  obs::MetricsRegistry a_metrics, b_metrics;
  FedConfig a_config;
  a_config.seed = 42;
  a_config.metrics = &a_metrics;
  FedConfig b_config = a_config;
  b_config.seed = 43;
  b_config.metrics = &b_metrics;
  SessionBroker broker({a_config.network});
  Status a_status;
  std::thread side_a([&] {
    a_status = RunPartyA(&broker, a_config, f.shards[0], /*num_a=*/1, 0,
                         /*timeout_seconds=*/5);
  });
  Result<PartyBResult> b_result = RunPartyB(
      &broker, b_config, f.shards[1], /*num_a=*/1, /*timeout_seconds=*/5);
  side_a.join();
  ExpectRefusedBeforeAnyEngine(a_status, a_metrics);
  ExpectRefusedBeforeAnyEngine(b_result.status(), b_metrics);
}

// B's second link never comes up: RunPartyB gives up at its timeout and
// closes the link already up, so A0, which has no receive deadline and
// waits for B's setup, fails instead of blocking forever.
TEST(SessionBringUpTest, PartialBringUpClosesTheLinksAlreadyUp) {
  Fixture f = MakeFixture(100, 9, /*seed=*/43, {0.3, 0.3, 0.4});
  obs::MetricsRegistry metrics;
  FedConfig config;
  config.mock_crypto = true;
  config.metrics = &metrics;
  config.network.default_deadline_seconds = 0;
  SessionBroker broker({config.network, config.network});
  Status a0_status = Status::Internal("pending");
  Result<PartyBResult> b_result = Status::Internal("pending");
  ASSERT_TRUE(RunWithWatchdog(
      [&] {
        std::thread a0([&] {
          a0_status = RunPartyA(&broker, config, f.shards[0], /*num_a=*/2, 0,
                                /*timeout_seconds=*/5);
        });
        b_result = RunPartyB(&broker, config, f.shards.back(), /*num_a=*/2,
                             /*timeout_seconds=*/1);
        a0.join();
      },
      30.0))
      << "A0 kept waiting on a B that never started";
  EXPECT_EQ(b_result.status().code(), StatusCode::kDeadlineExceeded)
      << b_result.status().ToString();
  EXPECT_FALSE(a0_status.ok());
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

// TCP transport tests: the frame protocol over real sockets, the socket
// error -> Status taxonomy mapping the session layer depends on, and the
// headline drill — a SessionChannel-over-TCP link dying mid-training and the
// run recovering with a byte-identical model.

#include "fed/tcp_transport.h"

#include <gtest/gtest.h>
#include <pthread.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstring>
#include <thread>

#include "common/timer.h"
#include "fed/fed_trainer.h"
#include "fed/session.h"
#include "fed_test_util.h"
#include "gbdt/model_io.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"

namespace vf2boost {
namespace {

using Clock = ChannelEndpoint::Clock;

// A connected stream-socket pair; TcpMessagePort only needs a stream fd, so
// tests can skip the listen/accept dance.
std::pair<int, int> SocketPair() {
  int fds[2] = {-1, -1};
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  return {fds[0], fds[1]};
}

Message Msg(MessageType type, std::vector<uint8_t> payload) {
  Message m;
  m.type = type;
  m.payload = std::move(payload);
  return m;
}

TEST(TcpMessagePortTest, FramesRoundTripBothDirections) {
  auto [fa, fb] = SocketPair();
  NetworkConfig net;
  net.default_deadline_seconds = 5;
  TcpMessagePort a(fa, net), b(fb, net);

  std::vector<uint8_t> big(100000);
  for (size_t i = 0; i < big.size(); ++i) big[i] = static_cast<uint8_t>(i);
  a.Send(Msg(MessageType::kGradBatch, {1, 2, 3}));
  a.Send(Msg(MessageType::kNodeHistogram, big));
  b.Send(Msg(MessageType::kDecisions, {9}));

  Result<Message> r1 = b.Receive();
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  EXPECT_EQ(r1->type, MessageType::kGradBatch);
  EXPECT_EQ(r1->payload, (std::vector<uint8_t>{1, 2, 3}));
  Result<Message> r2 = b.Receive();
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_EQ(r2->type, MessageType::kNodeHistogram);
  EXPECT_EQ(r2->payload, big);
  Result<Message> r3 = a.Receive();
  ASSERT_TRUE(r3.ok()) << r3.status().ToString();
  EXPECT_EQ(r3->type, MessageType::kDecisions);

  EXPECT_EQ(a.sent_stats().messages, 2u);
  EXPECT_GT(a.sent_stats().bytes, big.size());
  EXPECT_EQ(b.sent_stats().messages, 1u);
}

TEST(TcpMessagePortTest, ReceiveDeadlineExpiresOnSilentPeer) {
  auto [fa, fb] = SocketPair();
  NetworkConfig net;
  net.default_deadline_seconds = 0.2;
  TcpMessagePort a(fa, net), b(fb, net);
  Stopwatch timer;
  Result<Message> r = b.Receive();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(IsTransientFault(r.status()));
  EXPECT_LT(timer.ElapsedSeconds(), 5.0);
}

TEST(TcpMessagePortTest, OversizedLengthHeaderIsRejectedBeforeAllocation) {
  auto [fa, fb] = SocketPair();
  NetworkConfig net;
  net.default_deadline_seconds = 2;
  TcpMessagePort b(fb, net);
  // A valid-looking header whose length field claims more than the cap. The
  // reader must fail with Corruption from the header bytes alone — it
  // never has (or allocates) the claimed payload.
  const uint8_t header[kFrameOverheadBytes] = {
      kWireVersion,
      static_cast<uint8_t>(MessageType::kGradBatch),
      0xFF, 0xFF, 0xFF, 0xFF,       // payload_len = 2^32-1
      0,    0,    0,    0, 0, 0, 0, 0,  // trace id
      0,    0,    0,    0};             // crc
  ASSERT_EQ(::send(fa, header, sizeof(header), 0),
            static_cast<ssize_t>(sizeof(header)));
  Result<Message> r = b.Receive();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
  ::close(fa);
}

// The port is a plain frame pipe: the header carries whatever trace id it is
// given, 0 included, and the port itself records nothing in the trace (the
// session layer does; see session_test).
TEST(TcpMessagePortTest, TraceIdsRideTheWireUntouched) {
  obs::TraceRecorder rec;
  rec.Install();
  {
    auto [fa, fb] = SocketPair();
    NetworkConfig net;
    net.default_deadline_seconds = 5;
    TcpMessagePort a(fa, net), b(fb, net);
    Message stamped = Msg(MessageType::kGradBatch, {1, 2, 3});
    stamped.trace_id = (uint64_t{4} << 40) | 17;
    EXPECT_TRUE(a.Send(stamped));
    EXPECT_TRUE(a.Send(Msg(MessageType::kNodeHistogram, {4})));
    Result<Message> first = b.Receive();
    Result<Message> second = b.Receive();
    ASSERT_TRUE(first.ok());
    ASSERT_TRUE(second.ok());
    EXPECT_EQ(first->trace_id, stamped.trace_id);
    EXPECT_EQ(second->trace_id, 0u);
  }
  obs::TraceRecorder::Uninstall();
  EXPECT_EQ(rec.num_events(), 0u);
}

TEST(TcpMessagePortTest, GarbageVersionByteIsCorruption) {
  auto [fa, fb] = SocketPair();
  NetworkConfig net;
  net.default_deadline_seconds = 2;
  TcpMessagePort b(fb, net);
  const uint8_t junk[kFrameOverheadBytes] = {0x77, 1, 0, 0, 0, 0, 0, 0, 0,
                                             0,    0, 0, 0, 0, 0, 0, 0, 0};
  ASSERT_EQ(::send(fa, junk, sizeof(junk), 0),
            static_cast<ssize_t>(sizeof(junk)));
  Result<Message> r = b.Receive();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
  EXPECT_TRUE(IsTransientFault(r.status()));
  ::close(fa);
}

TEST(TcpMessagePortTest, PeerCloseDrainsBufferedFramesThenUnavailable) {
  auto [fa, fb] = SocketPair();
  NetworkConfig net;
  net.default_deadline_seconds = 5;
  TcpMessagePort b(fb, net);
  {
    TcpMessagePort a(fa, net);
    a.Send(Msg(MessageType::kSplitQueries, {4, 2}));
    a.Close(Status::OK());  // FIN; the sent frame is still in flight
  }
  Result<Message> r1 = b.Receive();
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  EXPECT_EQ(r1->type, MessageType::kSplitQueries);
  Result<Message> r2 = b.Receive();
  ASSERT_FALSE(r2.ok());
  EXPECT_EQ(r2.status().code(), StatusCode::kUnavailable);
  EXPECT_TRUE(IsTransientFault(r2.status()));
}

TEST(TcpMessagePortTest, MidReceivePeerDisconnectSurfacesUnavailable) {
  ASSERT_TRUE(RunWithWatchdog(
      [] {
        auto [fa, fb] = SocketPair();
        NetworkConfig net;  // no deadline: only the FIN can wake the receiver
        TcpMessagePort a(fa, net);
        TcpMessagePort b(fb, net);
        std::thread killer([&a] {
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
          a.Close(Status::Aborted("engine failed"));
        });
        Result<Message> r = b.Receive();
        killer.join();
        ASSERT_FALSE(r.ok());
        // A raw socket cannot carry the peer's close status; it degrades to
        // the transient Unavailable the session layer recovers from.
        EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
      },
      20.0));
}

TEST(TcpMessagePortTest, LocalCloseWakesBlockedReceiveAsAborted) {
  ASSERT_TRUE(RunWithWatchdog(
      [] {
        auto [fa, fb] = SocketPair();
        NetworkConfig net;
        TcpMessagePort b(fb, net);
        std::thread closer([&b] {
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
          b.Close(Status::OK());
        });
        Result<Message> r = b.Receive();
        closer.join();
        ASSERT_FALSE(r.ok());
        EXPECT_EQ(r.status().code(), StatusCode::kAborted);
        ::close(fa);
      },
      20.0));
}

TEST(TcpMessagePortTest, ShortWritesAreCountedAndTheFrameStaysIntact) {
  ASSERT_TRUE(RunWithWatchdog(
      [] {
        // A no-op handler installed WITHOUT SA_RESTART: a signal delivered
        // while send() is blocked on a full socket buffer makes it return
        // the partial byte count, which is exactly the short write the send
        // loop must finish and count.
        struct sigaction sa;
        std::memset(&sa, 0, sizeof(sa));
        sa.sa_handler = [](int) {};
        sigemptyset(&sa.sa_mask);
        sa.sa_flags = 0;
        struct sigaction old_sa;
        ASSERT_EQ(sigaction(SIGUSR1, &sa, &old_sa), 0);

        auto [fa, fb] = SocketPair();
        int sndbuf = 4096;  // tiny buffer: a large frame cannot fit at once
        ASSERT_EQ(::setsockopt(fa, SOL_SOCKET, SO_SNDBUF, &sndbuf,
                               sizeof(sndbuf)),
                  0);
        obs::MetricsRegistry registry;
        const TcpTransportMetrics metrics =
            TcpTransportMetrics::Create(&registry);
        NetworkConfig net;
        net.default_deadline_seconds = 30;
        TcpMessagePort a(fa, net, metrics), b(fb, net, metrics);

        std::vector<uint8_t> big(4 * 1024 * 1024);
        for (size_t i = 0; i < big.size(); ++i) {
          big[i] = static_cast<uint8_t>(i * 13);
        }
        std::atomic<bool> sending{true};
        std::thread sender([&] {
          a.Send(Msg(MessageType::kNodeHistogram, big));
          sending.store(false);
        });
        // Let the sender wedge against the full buffer, then pepper it with
        // signals while the reader is still idle — the first interrupted
        // send() has already moved partial bytes and must count.
        std::thread signaler([&, handle = sender.native_handle()] {
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
          while (sending.load()) {
            pthread_kill(handle, SIGUSR1);
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
        });
        std::this_thread::sleep_for(std::chrono::milliseconds(60));
        Result<Message> r = b.Receive();
        sender.join();
        signaler.join();
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        EXPECT_EQ(r->payload, big);  // interrupted writes never tore a frame
        EXPECT_GE(registry.GetCounter("transport/tcp/short_writes")->value(),
                  1u);
        ASSERT_EQ(sigaction(SIGUSR1, &old_sa, nullptr), 0);
      },
      60.0));
}

TEST(TcpChannelFactoryTest, PreambleRoutesOutOfOrderJoiners) {
  ASSERT_TRUE(RunWithWatchdog(
      [] {
        NetworkConfig net;
        net.default_deadline_seconds = 5;
        auto listener = TcpChannelFactory::Listen("127.0.0.1", 0, 2, net);
        ASSERT_TRUE(listener.ok()) << listener.status().ToString();
        auto dial1 = TcpChannelFactory::Dial("127.0.0.1", (*listener)->port(),
                                             1, net);
        auto dial0 = TcpChannelFactory::Dial("127.0.0.1", (*listener)->port(),
                                             0, net);
        ASSERT_TRUE(dial0.ok() && dial1.ok());
        const auto deadline = Clock::now() + std::chrono::seconds(10);
        // Channel 1 dials first, but the listener asks for channel 0 first —
        // the early connection must be parked, not lost.
        auto a1 = (*dial1)->Reconnect(1, /*a_side=*/true, deadline);
        ASSERT_TRUE(a1.ok()) << a1.status().ToString();
        (*a1)->Send(Msg(MessageType::kLayout, {11}));
        auto a0 = (*dial0)->Reconnect(0, /*a_side=*/true, deadline);
        ASSERT_TRUE(a0.ok()) << a0.status().ToString();
        (*a0)->Send(Msg(MessageType::kLayout, {10}));

        auto b0 = (*listener)->Reconnect(0, /*a_side=*/false, deadline);
        ASSERT_TRUE(b0.ok()) << b0.status().ToString();
        auto b1 = (*listener)->Reconnect(1, /*a_side=*/false, deadline);
        ASSERT_TRUE(b1.ok()) << b1.status().ToString();
        Result<Message> m0 = (*b0)->Receive();
        Result<Message> m1 = (*b1)->Receive();
        ASSERT_TRUE(m0.ok() && m1.ok());
        EXPECT_EQ(m0->payload[0], 10);
        EXPECT_EQ(m1->payload[0], 11);
      },
      30.0));
}

TEST(TcpChannelFactoryTest, ShutdownAbortsPendingAccept) {
  ASSERT_TRUE(RunWithWatchdog(
      [] {
        NetworkConfig net;
        auto listener = TcpChannelFactory::Listen("127.0.0.1", 0, 1, net);
        ASSERT_TRUE(listener.ok());
        std::thread stopper([&] {
          std::this_thread::sleep_for(std::chrono::milliseconds(100));
          (*listener)->Shutdown(Status::Aborted("party B failed: boom"));
        });
        auto got = (*listener)->Reconnect(
            0, /*a_side=*/false, Clock::now() + std::chrono::seconds(30));
        stopper.join();
        ASSERT_FALSE(got.ok());
        EXPECT_EQ(got.status().code(), StatusCode::kAborted);
      },
      20.0));
}

// ---------------------------------------------------------------------------
// The headline drill: full federated training where the duplex link between
// the parties is a real TCP connection wrapped in SessionChannels. The link
// deterministically dies mid-run (kill_after_messages), both engines recover
// through the factory's accept/redial rendezvous, and the trained model must
// be byte-identical to a fault-free in-process run.

FedConfig DrillConfig() {
  FedConfig config;
  config.mock_crypto = true;
  config.gbdt.num_trees = 4;
  config.gbdt.num_layers = 4;
  config.gbdt.max_bins = 8;
  return config;
}

TEST(TcpSessionDrillTest, LinkDeathMidTrainingRecoversWithIdenticalModel) {
  ASSERT_TRUE(RunWithWatchdog(
      [] {
        Fixture f = MakeFixture(200, 12, /*seed=*/31);
        FedConfig config = DrillConfig();

        // Reference: fault-free in-process run. The network shape is
        // excluded from the model, so this is the ground truth for every
        // transport and fault pattern.
        auto reference = FedTrainer(config).Train(f.shards);
        ASSERT_TRUE(reference.ok()) << reference.status().ToString();
        const std::string want = ModelToString(reference->model);

        NetworkConfig net;
        net.default_deadline_seconds = 0.3;
        net.kill_after_messages = 25;  // dies mid-run, after setup
        net.reconnect_max_attempts = 20;
        net.reconnect_backoff_base_seconds = 0.001;
        net.reconnect_backoff_cap_seconds = 0.02;
        config.network = net;

        obs::MetricsRegistry registry;
        config.metrics = &registry;
        auto listener =
            TcpChannelFactory::Listen("127.0.0.1", 0, 1, net, &registry);
        ASSERT_TRUE(listener.ok()) << listener.status().ToString();
        auto dialer = TcpChannelFactory::Dial(
            "127.0.0.1", (*listener)->port(), 0, net, &registry);
        ASSERT_TRUE(dialer.ok()) << dialer.status().ToString();

        // Both sides run exactly as vf2_fedtrain's processes do.
        Status a_status;
        std::thread a_thread([&] {
          a_status = RunPartyA(dialer->get(), config, f.shards[0],
                               /*num_a=*/1, 0, /*timeout_seconds=*/10);
        });
        Result<PartyBResult> got =
            RunPartyB(listener->get(), config, f.shards[1], /*num_a=*/1,
                      /*timeout_seconds=*/10);
        a_thread.join();
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        ASSERT_TRUE(a_status.ok()) << a_status.ToString();

        // The drill actually exercised recovery...
        EXPECT_GE(obs::PartySum(registry.Snapshot(), "party_",
                                "session/reconnects"),
                  2);
        EXPECT_GE(registry.GetCounter("transport/tcp/redials")->value(), 1u);
        EXPECT_GT(registry.GetCounter("transport/tcp/frames_read")->value(),
                  0u);
        // ...and the faults never leaked into the model.
        EXPECT_EQ(ModelToString(got->model), want);
      },
      120.0));
}

bool HasMetric(const obs::MetricsRegistry& registry, const std::string& name) {
  for (const obs::MetricSample& s : registry.Snapshot()) {
    if (s.name == name) return true;
  }
  return false;
}

// Three parties over TCP, each with its own registry as separate processes
// would have, each launched through RunPartyA/RunPartyB on its own thread. A1
// dials and says hello before A0 starts, so B's listener must park A1's
// connection until channel 0 has joined; the model must still match the
// in-process run byte for byte.
TEST(TcpPartyLaunchTest, ThreePartiesJoinOutOfOrderWithIdenticalModel) {
  ASSERT_TRUE(RunWithWatchdog(
      [] {
        Fixture f = MakeFixture(300, 12, /*seed=*/37, {0.3, 0.3, 0.4});
        FedConfig config = DrillConfig();
        auto reference = FedTrainer(config).Train(f.shards);
        ASSERT_TRUE(reference.ok()) << reference.status().ToString();

        constexpr size_t kNumA = 2;
        std::array<obs::MetricsRegistry, kNumA + 1> registries;  // B last
        std::array<FedConfig, kNumA + 1> configs;
        for (size_t p = 0; p <= kNumA; ++p) {
          configs[p] = config;
          configs[p].metrics = &registries[p];
        }
        auto listener = TcpChannelFactory::Listen(
            "127.0.0.1", 0, kNumA, config.network, &registries[kNumA]);
        ASSERT_TRUE(listener.ok()) << listener.status().ToString();
        std::array<std::unique_ptr<TcpChannelFactory>, kNumA> dialers;
        for (size_t p = 0; p < kNumA; ++p) {
          auto dialer = TcpChannelFactory::Dial(
              "127.0.0.1", (*listener)->port(), p, config.network,
              &registries[p]);
          ASSERT_TRUE(dialer.ok()) << dialer.status().ToString();
          dialers[p] = std::move(dialer).value();
        }

        std::array<Status, kNumA> a_status;
        std::vector<std::thread> a_threads;
        auto launch_a = [&](size_t p) {
          a_threads.emplace_back([&, p] {
            a_status[p] = RunPartyA(dialers[p].get(), configs[p], f.shards[p],
                                    kNumA, p, /*timeout_seconds=*/10);
          });
        };
        // A1's routing preamble and hello (two frames) are on the wire
        // before A0 dials, so the join order is exact.
        launch_a(1);
        obs::Counter* a1_frames =
            registries[1].GetCounter("transport/tcp/frames_written");
        for (int i = 0; i < 1000 && a1_frames->value() < 2; ++i) {
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        EXPECT_GE(a1_frames->value(), 2u);
        launch_a(0);

        Result<PartyBResult> got =
            RunPartyB(listener->get(), configs[kNumA], f.shards.back(), kNumA,
                      /*timeout_seconds=*/10);
        for (auto& t : a_threads) t.join();
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        for (const Status& st : a_status) {
          ASSERT_TRUE(st.ok()) << st.ToString();
        }
        EXPECT_EQ(ModelToString(got->model),
                  ModelToString(reference->model));
        EXPECT_EQ(registries[kNumA].GetCounter("transport/tcp/accepts")
                      ->value(),
                  kNumA);
        // Every party's registry carries the build identity, A processes
        // included.
        for (const obs::MetricsRegistry& registry : registries) {
          EXPECT_TRUE(HasMetric(registry, "build/info"));
        }
      },
      120.0));
}

// Two processes whose configurations differ only in the seed, without a
// reconnect budget: both refuse the link at the hello, naming the cause,
// so neither starts an engine.
TEST(TcpPartyLaunchTest, MismatchedSeedIsRefusedOnBothSides) {
  ASSERT_TRUE(RunWithWatchdog(
      [] {
        Fixture f = MakeFixture(100, 8, /*seed=*/41);
        obs::MetricsRegistry a_registry, b_registry;
        FedConfig a_config = DrillConfig();
        a_config.metrics = &a_registry;
        FedConfig b_config = a_config;
        b_config.seed = a_config.seed + 1;
        b_config.metrics = &b_registry;
        auto listener = TcpChannelFactory::Listen(
            "127.0.0.1", 0, 1, b_config.network, &b_registry);
        ASSERT_TRUE(listener.ok()) << listener.status().ToString();
        auto dialer = TcpChannelFactory::Dial("127.0.0.1", (*listener)->port(),
                                              0, a_config.network, &a_registry);
        ASSERT_TRUE(dialer.ok()) << dialer.status().ToString();

        Status a_status;
        std::thread a_thread([&] {
          a_status = RunPartyA(dialer->get(), a_config, f.shards[0],
                               /*num_a=*/1, 0, /*timeout_seconds=*/10);
        });
        Result<PartyBResult> b_result =
            RunPartyB(listener->get(), b_config, f.shards[1], /*num_a=*/1,
                      /*timeout_seconds=*/10);
        a_thread.join();
        ExpectRefusedBeforeAnyEngine(a_status, a_registry);
        ExpectRefusedBeforeAnyEngine(b_result.status(), b_registry);
      },
      30.0));
}

// Every link generation, the first and each replacement, carries both
// hellos intact across TCP: party id, session id and config fingerprint.
TEST(TcpSessionDrillTest, HelloCrossesEveryGeneration) {
  ASSERT_TRUE(RunWithWatchdog(
      [] {
        NetworkConfig net;
        net.default_deadline_seconds = 2;
        net.reconnect_max_attempts = 5;
        net.reconnect_backoff_base_seconds = 0.001;
        net.reconnect_backoff_cap_seconds = 0.02;
        auto listener = TcpChannelFactory::Listen("127.0.0.1", 0, 1, net);
        ASSERT_TRUE(listener.ok());
        auto dialer =
            TcpChannelFactory::Dial("127.0.0.1", (*listener)->port(), 0, net);
        ASSERT_TRUE(dialer.ok());
        obs::MetricsRegistry registry;
        SessionChannel a_port(dialer->get(), 0, true, 99, 0, 7, net,
                              &registry);
        SessionChannel b_port(listener->get(), 0, false, 99, 1, 7, net,
                              &registry);
        Result<HelloPayload> from_a = Status::Unavailable("pending");
        std::thread b_thread([&] { from_a = b_port.Open(10); });
        Result<HelloPayload> from_b = a_port.Open(10);
        b_thread.join();
        ASSERT_TRUE(from_a.ok()) << from_a.status().ToString();
        ASSERT_TRUE(from_b.ok()) << from_b.status().ToString();
        EXPECT_EQ(from_a->party, 0u);
        EXPECT_EQ(from_b->party, 1u);
        EXPECT_EQ(from_a->session_id, 99u);
        EXPECT_EQ(from_b->config_fingerprint, 7u);

        // A replacement link carries them too.
        std::thread b_again([&] { from_a = b_port.Reestablish(); });
        from_b = a_port.Reestablish();
        b_again.join();
        ASSERT_TRUE(from_a.ok()) << from_a.status().ToString();
        ASSERT_TRUE(from_b.ok()) << from_b.status().ToString();
        EXPECT_EQ(from_a->party, 0u);
        EXPECT_EQ(from_b->party, 1u);
        EXPECT_EQ(from_a->session_id, 99u);
        EXPECT_EQ(from_b->config_fingerprint, 7u);
      },
      30.0));
}

}  // namespace
}  // namespace vf2boost

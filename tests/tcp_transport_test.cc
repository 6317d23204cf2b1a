// TCP transport tests: the frame protocol over real sockets, the socket
// error -> Status taxonomy mapping the session layer depends on, and the
// headline drill — a SessionChannel-over-TCP link dying mid-training and the
// run recovering with a byte-identical model.

#include "fed/tcp_transport.h"

#include <gtest/gtest.h>
#include <pthread.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstring>
#include <functional>
#include <mutex>
#include <thread>

#include "common/timer.h"
#include "data/partition.h"
#include "data/synthetic.h"
#include "fed/fed_trainer.h"
#include "fed/party_a.h"
#include "fed/party_b.h"
#include "gbdt/model_io.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "obs/trace_check.h"

namespace vf2boost {
namespace {

using Clock = ChannelEndpoint::Clock;

// Same watchdog idiom as fed_fault_test: a wedged socket test must FAIL,
// not hang CI.
bool RunWithWatchdog(const std::function<void()>& fn, double timeout_seconds) {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  std::thread worker([&] {
    fn();
    std::lock_guard<std::mutex> lock(mu);
    done = true;
    cv.notify_all();
  });
  std::unique_lock<std::mutex> lock(mu);
  const bool finished =
      cv.wait_for(lock, std::chrono::duration<double>(timeout_seconds),
                  [&] { return done; });
  lock.unlock();
  if (finished) {
    worker.join();
  } else {
    worker.detach();
  }
  return finished;
}

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

TEST(TcpMessagePortTest, TryReceiveIsNonBlocking) {
  auto [fa, fb] = SocketPair();
  NetworkConfig net;
  TcpMessagePort a(fa, net), b(fb, net);
  Message out;
  bool got = true;
  ASSERT_TRUE(b.TryReceive(&out, &got).ok());
  EXPECT_FALSE(got);
  a.Send(Msg(MessageType::kTreeDone, {7}));
  // The frame is tiny; one poll round-trip is enough on loopback, but give
  // the kernel a moment to make it readable.
  for (int i = 0; i < 100 && !got; ++i) {
    ASSERT_TRUE(b.TryReceive(&out, &got).ok());
    if (!got) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(got);
  EXPECT_EQ(out.type, MessageType::kTreeDone);
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

TEST(TcpMessagePortTest, TraceIdsRideTheWireAndEmitMatchedFlows) {
  obs::SetProcessTraceNamespace(4);
  obs::TraceRecorder rec;
  rec.Install();
  {
    auto [fa, fb] = SocketPair();
    NetworkConfig net;
    net.default_deadline_seconds = 5;
    TcpMessagePort a(fa, net), b(fb, net);
    a.Send(Msg(MessageType::kGradBatch, {1, 2, 3}));
    a.Send(Msg(MessageType::kNodeHistogram, {4}));
    Result<Message> first = b.Receive();
    Result<Message> second = b.Receive();
    ASSERT_TRUE(first.ok());
    ASSERT_TRUE(second.ok());
    // Sender-stamped ids: nonzero, namespaced, distinct, delivered intact.
    EXPECT_NE(first->trace_id, 0u);
    EXPECT_EQ(first->trace_id >> 40, 4u);
    EXPECT_NE(first->trace_id, second->trace_id);
  }
  obs::TraceRecorder::Uninstall();
  obs::SetProcessTraceNamespace(0);

  // Both sockets live in this process, so every snd has its rcv and the
  // flow pairing must audit clean with zero slack.
  std::string error;
  obs::FlowAudit audit;
  ASSERT_TRUE(obs::AuditTraceFlows(rec.ToJson(), /*slack_us=*/0,
                                   {"GradBatch", "NodeHistogram"}, &error,
                                   &audit))
      << error;
  EXPECT_EQ(audit.matched, 2u);
  EXPECT_EQ(audit.unmatched_starts, 0u);
  EXPECT_EQ(audit.unmatched_ends, 0u);
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

struct Fixture {
  Dataset train;
  VerticalSplitSpec spec;
  std::vector<Dataset> shards;  // A party first, B last
};

Fixture MakeFixture(size_t rows, size_t cols, uint64_t seed) {
  SyntheticSpec sspec;
  sspec.rows = rows;
  sspec.cols = cols;
  sspec.density = 0.5;
  sspec.seed = seed;
  Fixture f;
  f.train = GenerateSynthetic(sspec);
  Rng rng(seed + 1);
  f.spec = SplitColumnsRandomly(cols, {0.5, 0.5}, &rng);
  auto shards = PartitionVertically(f.train, f.spec, /*label_party=*/1);
  EXPECT_TRUE(shards.ok());
  f.shards = std::move(shards).value();
  return f;
}

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
        auto listener =
            TcpChannelFactory::Listen("127.0.0.1", 0, 1, net, &registry);
        ASSERT_TRUE(listener.ok()) << listener.status().ToString();
        auto dialer = TcpChannelFactory::Dial(
            "127.0.0.1", (*listener)->port(), 0, net, &registry);
        ASSERT_TRUE(dialer.ok()) << dialer.status().ToString();

        const uint64_t fp = config.Fingerprint();
        const uint64_t session_id = fp ^ 0x5e55ULL;
        SessionChannel a_port(dialer->get(), 0, /*a_side=*/true, session_id,
                              /*party=*/0, fp, net, /*initial=*/nullptr,
                              &registry);
        SessionChannel b_port(listener->get(), 0, /*a_side=*/false,
                              session_id, /*party=*/1, fp, net,
                              /*initial=*/nullptr, &registry);

        Status a_status;
        std::thread a_thread([&] {
          // Initial bring-up is a Reestablish with no live link yet, exactly
          // like the multi-process runner.
          Result<HelloPayload> hello = a_port.Reestablish(-1);
          if (!hello.ok()) {
            a_status = hello.status();
            return;
          }
          PartyAEngine engine(config, f.shards[0], &a_port, 0);
          a_status = engine.Run();
        });
        Result<HelloPayload> hello = b_port.Reestablish(-1);
        ASSERT_TRUE(hello.ok()) << hello.status().ToString();
        PartyBEngine engine(config, f.shards[1], {&b_port});
        Result<PartyBResult> got = engine.Run();
        a_thread.join();
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        ASSERT_TRUE(a_status.ok()) << a_status.ToString();

        // The drill actually exercised recovery...
        EXPECT_GE(a_port.reconnects() + b_port.reconnects(), 2u);
        EXPECT_GE(registry.GetCounter("transport/tcp/redials")->value(), 1u);
        EXPECT_GT(registry.GetCounter("transport/tcp/frames_read")->value(),
                  0u);
        // ...and the faults never leaked into the model.
        EXPECT_EQ(ModelToString(got->model), want);
      },
      120.0));
}

// A freshly launched peer advertises needs_setup in its hello; the other
// side's engine uses that to replay the setup phase. Here we just assert the
// flag crosses the TCP hello exchange intact.
TEST(TcpSessionDrillTest, NeedsSetupFlagCrossesHelloExchange) {
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
        SessionChannel a_port(dialer->get(), 0, true, 99, 0, 7, net, nullptr,
                              &registry);
        SessionChannel b_port(listener->get(), 0, false, 99, 1, 7, net,
                              nullptr, &registry);
        Result<HelloPayload> from_a = Status::Unavailable("pending");
        std::thread b_thread(
            [&] { from_a = b_port.Reestablish(3); });
        Result<HelloPayload> from_b =
            a_port.Reestablish(-1, /*needs_setup=*/true);
        b_thread.join();
        ASSERT_TRUE(from_a.ok()) << from_a.status().ToString();
        ASSERT_TRUE(from_b.ok()) << from_b.status().ToString();
        EXPECT_TRUE(from_a->needs_setup);
        EXPECT_EQ(from_a->last_completed_tree, -1);
        EXPECT_FALSE(from_b->needs_setup);
        EXPECT_EQ(from_b->last_completed_tree, 3);
      },
      30.0));
}

}  // namespace
}  // namespace vf2boost

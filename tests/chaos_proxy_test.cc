// Chaos proxy tests: the scenario grammar, the deterministic dice, the
// incremental tree-boundary scanner, wire-level fault injection against real
// TcpMessagePorts, and the training drills — full federated training through
// the proxy under scripted faults or seeded latency and jitter, each with a
// byte-identical model.

#include "fed/chaos_proxy.h"

#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <sstream>
#include <thread>

#include "fed/fed_trainer.h"
#include "fed/message.h"
#include "fed/session.h"
#include "fed/tcp_transport.h"
#include "fed_test_util.h"
#include "gbdt/model_io.h"
#include "obs/metrics_registry.h"

namespace vf2boost {
namespace {

using Clock = ChannelEndpoint::Clock;

Message Msg(MessageType type, std::vector<uint8_t> payload) {
  Message m;
  m.type = type;
  m.payload = std::move(payload);
  return m;
}

// --------------------------------------------------------------------------
// Scenario grammar

TEST(ChaosScenarioTest, ParsesTheFullGrammar) {
  std::vector<ChaosEvent> events;
  ASSERT_TRUE(ParseChaosScenario(
                  "drop@tree=3,partition@tree=5:10s,corrupt@t=2/b2a,"
                  "throttle=64@1:250ms/a2b,blackhole@0.5",
                  &events)
                  .ok());
  ASSERT_EQ(events.size(), 5u);

  EXPECT_EQ(events[0].kind, ChaosEvent::Kind::kDrop);
  EXPECT_TRUE(events[0].by_tree);
  EXPECT_EQ(events[0].at_tree, 3);
  EXPECT_EQ(events[0].dir, ChaosEvent::Dir::kBoth);

  EXPECT_EQ(events[1].kind, ChaosEvent::Kind::kPartition);
  EXPECT_EQ(events[1].at_tree, 5);
  EXPECT_DOUBLE_EQ(events[1].duration_seconds, 10.0);

  EXPECT_EQ(events[2].kind, ChaosEvent::Kind::kCorrupt);
  EXPECT_FALSE(events[2].by_tree);
  EXPECT_DOUBLE_EQ(events[2].at_seconds, 2.0);
  EXPECT_EQ(events[2].dir, ChaosEvent::Dir::kBToA);

  EXPECT_EQ(events[3].kind, ChaosEvent::Kind::kThrottle);
  EXPECT_DOUBLE_EQ(events[3].throttle_kbps, 64.0);
  EXPECT_DOUBLE_EQ(events[3].at_seconds, 1.0);
  EXPECT_DOUBLE_EQ(events[3].duration_seconds, 0.25);
  EXPECT_EQ(events[3].dir, ChaosEvent::Dir::kAToB);

  // A blackhole is one-way by definition: the default direction is a2b.
  EXPECT_EQ(events[4].kind, ChaosEvent::Kind::kBlackhole);
  EXPECT_EQ(events[4].dir, ChaosEvent::Dir::kAToB);
  EXPECT_DOUBLE_EQ(events[4].at_seconds, 0.5);
}

TEST(ChaosScenarioTest, RejectsMalformedTokensWithNamedOffender) {
  std::vector<ChaosEvent> events;
  auto expect_bad = [&events](const std::string& spec) {
    events.clear();
    Status st = ParseChaosScenario(spec, &events);
    EXPECT_FALSE(st.ok()) << spec << " unexpectedly parsed";
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(st.message().find("'" + spec + "'"), std::string::npos)
        << st.ToString();
  };
  expect_bad("drop");                 // no trigger
  expect_bad("detonate@tree=1");      // unknown kind
  expect_bad("drop@tree=0");          // trees are 1-based
  expect_bad("throttle@1");           // throttle needs a rate
  expect_bad("throttle=-5@1");        // ... a positive one
  expect_bad("drop=3@1");             // drop takes no value
  expect_bad("corrupt@t=2/up");       // bad direction
  expect_bad("partition@tree=2:10x"); // bad duration unit
  // Non-finite numbers and trees outside int (which used to wrap to tree 1
  // or -1) are rejected, not scheduled.
  expect_bad("partition@t=nan:2s");
  expect_bad("partition@inf");
  expect_bad("partition@1:nan");
  expect_bad("throttle=nan@0");
  expect_bad("throttle=inf@0");
  expect_bad("drop@tree=4294967297");
  expect_bad("drop@tree=99999999999999999999");
}

// --------------------------------------------------------------------------
// Determinism

TEST(ChaosDiceTest, SameSeedSameStreamDifferentConnectionsDiffer) {
  ChaosDice d1(/*seed=*/42, /*a_to_b=*/true, /*connection=*/0);
  ChaosDice d2(/*seed=*/42, /*a_to_b=*/true, /*connection=*/0);
  std::vector<uint64_t> s1, s2;
  for (int i = 0; i < 64; ++i) {
    s1.push_back(d1.PickOffset(1 << 20));
    s1.push_back(d1.PickFlip());
    s1.push_back(d1.ShouldCorrupt(0.5) ? 1 : 0);
    s2.push_back(d2.PickOffset(1 << 20));
    s2.push_back(d2.PickFlip());
    s2.push_back(d2.ShouldCorrupt(0.5) ? 1 : 0);
  }
  EXPECT_EQ(s1, s2);

  // The flip mask is never zero — a "corruption" must corrupt.
  ChaosDice d3(7, false, 3);
  for (int i = 0; i < 256; ++i) EXPECT_NE(d3.PickFlip(), 0);

  // Another connection index draws a different stream.
  ChaosDice d4(/*seed=*/42, /*a_to_b=*/true, /*connection=*/1);
  bool any_diff = false;
  for (size_t i = 0; i < 64; ++i) {
    if (d4.PickOffset(1 << 20) != s1[i * 3]) any_diff = true;
    d4.PickFlip();
    d4.ShouldCorrupt(0.5);
  }
  EXPECT_TRUE(any_diff);
}

TEST(FrameScannerTest, CountsTreeBoundariesAcrossArbitraryChunking) {
  // Three trees' worth of traffic: payload frames with kTreeDone markers.
  std::vector<uint8_t> stream;
  for (int t = 0; t < 3; ++t) {
    std::vector<uint8_t> payload(1000 + t * 37, static_cast<uint8_t>(t));
    auto data = EncodeFrame(Msg(MessageType::kGradBatch, payload));
    stream.insert(stream.end(), data.begin(), data.end());
    auto done = EncodeFrame(Msg(MessageType::kTreeDone, {}));
    stream.insert(stream.end(), done.begin(), done.end());
  }
  FrameScanner scanner;
  size_t total = 0;
  // 7-byte chunks slice every header across feeds.
  for (size_t i = 0; i < stream.size(); i += 7) {
    total += scanner.Feed(stream.data() + i, std::min<size_t>(7, stream.size() - i));
  }
  EXPECT_EQ(total, 3u);
  EXPECT_EQ(scanner.trees_done(), 3u);
  EXPECT_FALSE(scanner.broken());
}

TEST(FrameScannerTest, GarbageLatchesBrokenAndRealignResumesCounting) {
  FrameScanner scanner;
  const uint8_t junk[4] = {0x77, 0x12, 0x34, 0x56};  // bad version byte
  EXPECT_EQ(scanner.Feed(junk, sizeof(junk)), 0u);
  EXPECT_TRUE(scanner.broken());
  // Broken means "stop counting", not "miscount": more bytes do nothing.
  auto done = EncodeFrame(Msg(MessageType::kTreeDone, {}));
  EXPECT_EQ(scanner.Feed(done.data(), done.size()), 0u);
  EXPECT_EQ(scanner.trees_done(), 0u);
  // A fresh connection starts on a frame boundary; Realign resumes counting
  // while keeping the cumulative total.
  scanner.Realign();
  EXPECT_FALSE(scanner.broken());
  EXPECT_EQ(scanner.Feed(done.data(), done.size()), 1u);
  EXPECT_EQ(scanner.trees_done(), 1u);
}

// --------------------------------------------------------------------------
// The proxy against real sockets

int ListenEphemeral(int* port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::bind(fd, reinterpret_cast<struct sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  EXPECT_EQ(::listen(fd, 4), 0);
  struct sockaddr_in bound;
  socklen_t len = sizeof(bound);
  EXPECT_EQ(::getsockname(fd, reinterpret_cast<struct sockaddr*>(&bound),
                          &len),
            0);
  *port = ntohs(bound.sin_port);
  return fd;
}

int ConnectTo(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  EXPECT_EQ(::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  return fd;
}

// One TcpMessagePort pair with the proxy in the middle, no factory preamble.
struct ProxiedPair {
  std::unique_ptr<ChaosProxy> proxy;
  std::unique_ptr<TcpMessagePort> client;  // the "A" side
  std::unique_ptr<TcpMessagePort> server;  // the "B" side
  int listen_fd = -1;

  ProxiedPair(ChaosProxy::Options options, const NetworkConfig& net,
              const TcpTransportMetrics& metrics = {}) {
    int upstream_port = 0;
    listen_fd = ListenEphemeral(&upstream_port);
    options.connect_port = upstream_port;
    auto started = ChaosProxy::Start(options);
    EXPECT_TRUE(started.ok()) << started.status().ToString();
    proxy = std::move(started).value();
    const int client_fd = ConnectTo(proxy->port());
    const int server_fd = ::accept(listen_fd, nullptr, nullptr);
    EXPECT_GE(server_fd, 0);
    client = std::make_unique<TcpMessagePort>(client_fd, net, metrics);
    server = std::make_unique<TcpMessagePort>(server_fd, net, metrics);
  }
  ~ProxiedPair() {
    client.reset();
    server.reset();
    if (proxy != nullptr) proxy->Stop();
    if (listen_fd >= 0) ::close(listen_fd);
  }
};

TEST(ChaosProxyTest, FaultFreeProxyForwardsFramesIntactBothWays) {
  ASSERT_TRUE(RunWithWatchdog(
      [] {
        NetworkConfig net;
        net.default_deadline_seconds = 10;
        ProxiedPair p(ChaosProxy::Options{}, net);
        std::vector<uint8_t> big(100000);
        for (size_t i = 0; i < big.size(); ++i) {
          big[i] = static_cast<uint8_t>(i * 31);
        }
        p.client->Send(Msg(MessageType::kGradBatch, {1, 2, 3}));
        p.client->Send(Msg(MessageType::kNodeHistogram, big));
        p.server->Send(Msg(MessageType::kDecisions, {9}));
        Result<Message> r1 = p.server->Receive();
        ASSERT_TRUE(r1.ok()) << r1.status().ToString();
        EXPECT_EQ(r1->payload, (std::vector<uint8_t>{1, 2, 3}));
        Result<Message> r2 = p.server->Receive();
        ASSERT_TRUE(r2.ok()) << r2.status().ToString();
        EXPECT_EQ(r2->payload, big);
        Result<Message> r3 = p.client->Receive();
        ASSERT_TRUE(r3.ok()) << r3.status().ToString();
        EXPECT_EQ(r3->type, MessageType::kDecisions);
        EXPECT_EQ(p.proxy->connections(), 1u);
      },
      60.0));
}

TEST(ChaosProxyTest, InjectedCorruptionSurfacesAsCrcCorruption) {
  ASSERT_TRUE(RunWithWatchdog(
      [] {
        NetworkConfig net;
        net.default_deadline_seconds = 10;
        ChaosProxy::Options options;
        options.corrupt_chunk_probability = 1.0;  // every chunk is flipped
        obs::MetricsRegistry registry;
        options.registry = &registry;
        ProxiedPair p(options, net);
        // A frame big enough that the (seed-deterministic) flip offset lands
        // in the payload, not the 4 length-header bytes — a length flip
        // surfaces as a read timeout instead of a CRC failure.
        p.client->Send(
            Msg(MessageType::kGradBatch, std::vector<uint8_t>(4096, 0x5a)));
        Result<Message> r = p.server->Receive();
        ASSERT_FALSE(r.ok());
        EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
        EXPECT_TRUE(IsTransientFault(r.status()));
        EXPECT_GE(registry.GetCounter("chaos/a2b/corrupted")->value(), 1u);
      },
      60.0));
}

TEST(ChaosProxyTest, DropScenarioSeversTheConnection) {
  ASSERT_TRUE(RunWithWatchdog(
      [] {
        NetworkConfig net;
        net.default_deadline_seconds = 10;
        ChaosProxy::Options options;
        ASSERT_TRUE(ParseChaosScenario("drop@0", &options.events).ok());
        ProxiedPair p(options, net);
        // The drop fires on the first pump tick; both sides see link death.
        Result<Message> r = p.client->Receive();
        ASSERT_FALSE(r.ok());
        EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
        EXPECT_EQ(p.proxy->events_fired(), 1u);
      },
      60.0));
}

TEST(ChaosProxyTest, ThrottleForcesPartialFrameReassembly) {
  ASSERT_TRUE(RunWithWatchdog(
      [] {
        NetworkConfig net;
        net.default_deadline_seconds = 30;
        ChaosProxy::Options options;
        // A whole-run cap: a 64 KiB frame takes ~0.25s, in many pieces.
        ASSERT_TRUE(ParseChaosScenario("throttle=256@0", &options.events).ok());
        obs::MetricsRegistry registry;
        TcpTransportMetrics metrics = TcpTransportMetrics::Create(&registry);
        ProxiedPair p(options, net, metrics);
        std::vector<uint8_t> big(64 * 1024);
        for (size_t i = 0; i < big.size(); ++i) {
          big[i] = static_cast<uint8_t>(i * 7);
        }
        p.client->Send(Msg(MessageType::kNodeHistogram, big));
        Result<Message> r = p.server->Receive();
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        // The frame survives intact, but arrived in shaped pieces the
        // receiver had to reassemble.
        EXPECT_EQ(r->payload, big);
        EXPECT_GE(registry.GetCounter("transport/tcp/short_reads")->value(),
                  1u);
      },
      60.0));
}

TEST(ChaosProxyTest, StartRejectsNonFiniteShaping) {
  ChaosProxy::Options options;
  options.connect_port = 1;  // never dialed: Start fails first
  options.latency_ms = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(ChaosProxy::Start(options).status().code(),
            StatusCode::kInvalidArgument);
  options.latency_ms = 0;
  options.jitter_ms = std::numeric_limits<double>::infinity();
  EXPECT_EQ(ChaosProxy::Start(options).status().code(),
            StatusCode::kInvalidArgument);
  options.jitter_ms = 0;
  options.corrupt_chunk_probability = -0.5;
  EXPECT_EQ(ChaosProxy::Start(options).status().code(),
            StatusCode::kInvalidArgument);
}

// --------------------------------------------------------------------------
// Federated training through the proxy. Each drill trains once in process
// (the fault-free reference) and once over loopback TCP with the proxy in
// the middle, and the two models must serialize byte for byte the same.

// What the proxy and the sessions saw during one TrainThroughProxy run.
struct ProxyRunCounters {
  size_t events_fired = 0;
  size_t connections = 0;
  size_t trees_done = 0;
  size_t reconnects = 0;  ///< both sides
};

// Trains `config` with party A dialing B through a ChaosProxy started from
// `options` (its upstream port is filled in here). The reconnect budget set
// here lets both ends' sessions ride out the proxy's faults, so they cost
// retries, not the run. Returns B's model text.
Result<std::string> TrainThroughProxy(FedConfig config,
                                      const std::vector<Dataset>& shards,
                                      ChaosProxy::Options options,
                                      ProxyRunCounters* counters = nullptr) {
  NetworkConfig net;
  net.default_deadline_seconds = 0.3;
  net.reconnect_max_attempts = 30;
  net.reconnect_backoff_base_seconds = 0.001;
  net.reconnect_backoff_cap_seconds = 0.02;
  config.network = net;

  obs::MetricsRegistry registry;
  auto listener = TcpChannelFactory::Listen("127.0.0.1", 0, 1, net, &registry);
  if (!listener.ok()) return listener.status();
  options.connect_port = (*listener)->port();
  auto proxy = ChaosProxy::Start(options);
  if (!proxy.ok()) return proxy.status();
  auto dialer = TcpChannelFactory::Dial("127.0.0.1", (*proxy)->port(), 0, net,
                                        &registry);
  if (!dialer.ok()) return dialer.status();

  // Both sides run exactly as vf2_fedtrain's processes do.
  config.metrics = &registry;
  Status a_status;
  std::thread a_thread([&] {
    a_status = RunPartyA(dialer->get(), config, shards[0], /*num_a=*/1, 0,
                         /*timeout_seconds=*/10);
  });
  Result<PartyBResult> got = RunPartyB(listener->get(), config, shards.back(),
                                       /*num_a=*/1, /*timeout_seconds=*/10);
  a_thread.join();
  (*proxy)->Stop();
  if (!got.ok()) return got.status();
  VF2_RETURN_IF_ERROR(a_status);
  if (counters != nullptr) {
    counters->events_fired = (*proxy)->events_fired();
    counters->connections = (*proxy)->connections();
    counters->trees_done = (*proxy)->trees_done();
    counters->reconnects = static_cast<size_t>(
        obs::PartySum(registry.Snapshot(), "party_", "session/reconnects"));
  }
  return ModelToString(got->model);
}

FedConfig MockConfig() {
  FedConfig config;
  config.mock_crypto = true;
  config.gbdt.num_layers = 4;
  config.gbdt.max_bins = 8;
  return config;
}

// The headline drill: a scripted mid-run corruption AND a scripted link
// drop, recovered by the session layer, with a byte-identical model.
TEST(ChaosProxyDrillTest, TrainingSurvivesScriptedCorruptionAndDrop) {
  ASSERT_TRUE(RunWithWatchdog(
      [] {
        const std::vector<Dataset> shards = MakeFixture(200, 12, 31).shards;
        FedConfig config = MockConfig();
        config.gbdt.num_trees = 4;
        auto reference = FedTrainer(config).Train(shards);
        ASSERT_TRUE(reference.ok()) << reference.status().ToString();

        ChaosProxy::Options options;
        options.seed = 1234;
        ASSERT_TRUE(ParseChaosScenario("corrupt@tree=1,drop@tree=2",
                                       &options.events)
                        .ok());
        ProxyRunCounters counters;
        Result<std::string> got =
            TrainThroughProxy(config, shards, options, &counters);
        ASSERT_TRUE(got.ok()) << got.status().ToString();

        // Both scripted faults actually fired, the parties reconnected
        // through the proxy at least once per fault...
        EXPECT_EQ(counters.events_fired, 2u);
        EXPECT_GE(counters.connections, 2u);
        EXPECT_GE(counters.trees_done, 4u);
        EXPECT_GE(counters.reconnects, 3u);
        // ...and none of it left a trace in the model.
        EXPECT_EQ(*got, ModelToString(reference->model));
      },
      120.0));
}

// Seed x flag matrix on real sockets: every {blaster, optimistic, packing}
// variant, with seeded proxy latency and jitter reshuffling the timing of
// every frame, must deliver exactly the in-process model. Seeds come from
// VF2_FAULT_SEEDS (comma-separated) so CI can sweep a wider net than the
// default quick pair.
TEST(ChaosProxyDrillTest, SeedFlagMatrixThroughProxy) {
  std::vector<uint64_t> seeds;
  if (const char* env = std::getenv("VF2_FAULT_SEEDS")) {
    std::stringstream ss(env);
    std::string tok;
    while (std::getline(ss, tok, ',')) {
      if (!tok.empty()) seeds.push_back(std::stoull(tok));
    }
  }
  if (seeds.empty()) seeds = {11, 23};

  ASSERT_TRUE(RunWithWatchdog(
      [&seeds] {
        for (const uint64_t seed : seeds) {
          const std::vector<Dataset> shards =
              MakeFixture(300, 10, seed).shards;
          for (int mask = 0; mask < 8; ++mask) {
            FedConfig config = MockConfig();
            config.gbdt.num_trees = 2;
            config.seed = seed;
            config.blaster = (mask & 1) != 0;
            config.optimistic = (mask & 2) != 0;
            config.packing = (mask & 4) != 0;
            auto reference = FedTrainer(config).Train(shards);
            ASSERT_TRUE(reference.ok())
                << "seed " << seed << " mask " << mask << ": "
                << reference.status().ToString();

            ChaosProxy::Options options;
            options.seed = seed * 31 + mask;
            Rng knobs(options.seed);
            options.latency_ms = 0.5 * knobs.NextDouble();
            options.jitter_ms = knobs.NextDouble();
            Result<std::string> got = TrainThroughProxy(config, shards, options);
            ASSERT_TRUE(got.ok()) << "seed " << seed << " mask " << mask
                                  << ": " << got.status().ToString();
            ASSERT_EQ(*got, ModelToString(reference->model))
                << "seed " << seed << " mask " << mask;
          }
        }
      },
      60.0 + 30.0 * static_cast<double>(seeds.size())));
}

}  // namespace
}  // namespace vf2boost

// Federated training CLI: loads a joined LIBSVM file, partitions it
// vertically across the requested parties, and trains with the chosen
// protocol level, reporting quality plus protocol statistics.
//
// Default mode simulates all parties in one process. With --listen /
// --connect, each party runs as its own OS process and the protocol frames
// travel over real TCP sockets; every process loads the same joined file and
// derives the identical partition from the shared seed, so the trained model
// is byte-identical to the in-process run:
//
//   vf2_fedtrain --data train.libsvm --parties 2 --protocol vf2boost
//                --key-bits 512 --model fed_model.txt
//   # terminal 1 (party B, labels):
//   vf2_fedtrain --data train.libsvm --listen 7632 --model fed_model.txt
//   # terminal 2 (party A0, features):
//   vf2_fedtrain --data train.libsvm --connect 127.0.0.1:7632 --party a0

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "data/binning.h"
#include "data/io.h"
#include "data/partition.h"
#include "fed/fed_trainer.h"
#include "fed/party_a.h"
#include "fed/party_b.h"
#include "fed/session.h"
#include "fed/tcp_transport.h"
#include "gbdt/model_io.h"
#include "metrics/metrics.h"
#include "obs/build_info.h"
#include "obs/clock_sync.h"
#include "obs/flight_recorder.h"
#include "obs/metrics_registry.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "obs/trace_gantt.h"
#include "tools/flags.h"

namespace {

// SIGTERM post-mortem: flush the flight-recorder ring with async-signal-safe
// calls only, then let the default disposition terminate the process.
extern "C" void OnTerminate(int sig) {
  if (auto* fr = vf2boost::obs::FlightRecorder::Current(); fr != nullptr) {
    fr->SignalDump();
  }
  std::signal(sig, SIG_DFL);
  std::raise(sig);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vf2boost;
  tools::Flags flags(
      argc, argv,
      {{"data", "joined LIBSVM training file (required)"},
       {"valid", "validation LIBSVM file"},
       {"model", "output path for the joint model"},
       {"parties", "total parties incl. B (default 2)"},
       {"b-fraction", "fraction of columns Party B owns (default 0.5)"},
       {"protocol", "vf2boost|vfgbdt|mock (default vf2boost)"},
       {"no-gh-pack", "disable gh-packed gradient ciphers (vf2boost packs "
                      "each instance's (g,h) pair into one ciphertext)"},
       {"codec-min-exp", "lowest fixed-point exponent (default 8)"},
       {"codec-num-exp", "size of the random exponent range E (default 4; "
                         "1 = deterministic encoding, exact decode)"},
       {"key-bits", "Paillier modulus bits (default 512)"},
       {"trees", "number of trees (default 10)"},
       {"layers", "tree layers L (default 7)"},
       {"bins", "histogram bins s (default 20)"},
       {"lr", "learning rate (default 0.1)"},
       {"workers", "intra-party workers (default 1)"},
       {"seed", "partition/crypto seed (default 42)"},
       {"checkpoint-dir", "write a tree-boundary checkpoint after each tree"},
       {"resume", "resume from --checkpoint-dir instead of starting fresh"},
       {"deadline", "per-receive deadline seconds (0 = block forever)"},
       {"kill-after", "kill each link after N sends per direction (0 = off)"},
       {"heal-after", "seconds a dead link stays down before it can heal"},
       {"reconnect-budget", "session reconnect attempts (0 = fail fast)"},
       {"fault-seed", "seed of the session's reconnect backoff jitter "
                      "(default 0x5eed)"},
       {"heartbeat-interval", "session kHeartbeat beacon period, seconds "
                              "(0 = no heartbeats)"},
       {"liveness-budget", "max inbound silence before the session declares "
                           "the peer dead and reconnects (0 = off; needs "
                           "--heartbeat-interval and --deadline)"},
       {"listen", "run as party B over TCP: accept A parties on this port "
                  "(0 = ephemeral, printed)"},
       {"connect", "run as one A party over TCP: dial party B at HOST:PORT"},
       {"party", "which party this process is with --connect: a0, a1, ..."},
       {"connect-timeout", "seconds to wait for the TCP peer(s) at startup "
                           "(default 30)"},
       {"trace-out", "write a Chrome trace-event JSON (Perfetto-loadable)"},
       {"metrics-out", "write the metrics registry as flat JSON"},
       {"gantt", "print a text gantt of the traced run (needs --trace-out)"},
       {"ops-port", "serve /healthz /metrics /statusz /tracez: B on PORT, "
                    "A_i on PORT+1+i"},
       {"ops-bind", "ops server bind address (default 127.0.0.1; set "
                    "0.0.0.0 to allow remote scraping)"},
       {"federate-metrics", "A parties piggyback metric snapshots to B at "
                            "tree boundaries (default: on with --ops-port)"},
       {"stall-budget", "seconds without training progress before the "
                        "watchdog flips /healthz to 503 (0 = off)"},
       {"flight-out", "flight-recorder dump path: written on failure, "
                      "SIGTERM, watchdog trip, and progress boundaries"},
       {"profile-out", "write a folded-stack CPU profile of the training "
                       "run (flamegraph.pl/speedscope-compatible; per-party "
                       "files get the party spliced into the name)"},
       {"profile-hz", "profiler sampling frequency per thread (default 99)"},
       {"no-clock-sync", "disable kClockPing offset probes (traced TCP runs "
                         "negotiate clock offsets by default)"}});
  flags.Require({"data"});
  // Parsed before any data is loaded or any dial is made, so a malformed
  // party or port exits at once instead of running as A0 or dialing port 0.
  const size_t a_index = flags.Has("party") ? flags.GetIndexed("party", 'a')
                                            : 0;
  std::pair<std::string, int> connect_to;
  if (flags.Has("connect")) connect_to = flags.GetHostPort("connect");

  auto train = LoadLibsvm(flags.GetString("data"));
  if (!train.ok()) {
    std::fprintf(stderr, "%s\n", train.status().ToString().c_str());
    return 1;
  }
  if (!train->has_labels()) {
    std::fprintf(stderr, "training file has no labels\n");
    return 1;
  }

  const std::string protocol = flags.GetString("protocol", "vf2boost");
  FedConfig config;
  if (protocol == "vf2boost") {
    config = FedConfig::Vf2Boost();
  } else if (protocol == "vfgbdt") {
    config = FedConfig::VfGbdt();
  } else if (protocol == "mock") {
    config = FedConfig::VfMock();
  } else {
    std::fprintf(stderr, "unknown protocol %s\n", protocol.c_str());
    return 1;
  }
  if (flags.GetBool("no-gh-pack")) config.gh_pack = false;
  config.codec_min_exponent =
      flags.GetInt("codec-min-exp", config.codec_min_exponent);
  config.codec_num_exponents =
      flags.GetInt("codec-num-exp", config.codec_num_exponents);
  config.paillier_bits = static_cast<size_t>(flags.GetInt("key-bits", 512));
  config.workers_per_party =
      static_cast<size_t>(flags.GetInt("workers", 1));
  config.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  config.gbdt.num_trees = static_cast<size_t>(flags.GetInt("trees", 10));
  config.gbdt.num_layers = static_cast<size_t>(flags.GetInt("layers", 7));
  config.gbdt.max_bins = static_cast<size_t>(flags.GetInt("bins", 20));
  config.gbdt.learning_rate = flags.GetDouble("lr", 0.1);
  config.checkpoint_dir = flags.GetString("checkpoint-dir", "");
  config.resume = flags.GetBool("resume");
  config.network.default_deadline_seconds = flags.GetDouble("deadline", 0);
  config.network.kill_after_messages =
      static_cast<size_t>(flags.GetInt("kill-after", 0));
  config.network.heal_after_seconds = flags.GetDouble("heal-after", 0);
  config.network.reconnect_max_attempts = flags.GetInt("reconnect-budget", 0);
  config.network.fault_seed =
      static_cast<uint64_t>(flags.GetInt("fault-seed", 0x5eed));
  config.network.heartbeat_interval_seconds =
      flags.GetDouble("heartbeat-interval", 0);
  config.network.liveness_budget_seconds =
      flags.GetDouble("liveness-budget", 0);
  config.ops_port = flags.GetInt("ops-port", 0);
  config.ops_bind = flags.GetString("ops-bind", "127.0.0.1");
  config.federate_metrics =
      flags.Has("federate-metrics") ? flags.GetBool("federate-metrics")
                                    : config.ops_port > 0;
  config.stall_budget_seconds = flags.GetDouble("stall-budget", 0);
  if (flags.GetBool("no-clock-sync")) config.clock_sync = false;

  const size_t parties = static_cast<size_t>(flags.GetInt("parties", 2));
  if (parties < 2 || parties > 8) {
    std::fprintf(stderr, "--parties must be in [2, 8]\n");
    return 1;
  }
  const double b_fraction = flags.GetDouble("b-fraction", 0.5);
  std::vector<double> fractions(parties - 1,
                                (1.0 - b_fraction) / (parties - 1));
  fractions.push_back(b_fraction);

  Rng rng(config.seed);
  const VerticalSplitSpec spec =
      SplitColumnsRandomly(train->columns(), fractions, &rng);
  auto shards = PartitionVertically(train.value(), spec, parties - 1);
  if (!shards.ok()) {
    std::fprintf(stderr, "%s\n", shards.status().ToString().c_str());
    return 1;
  }
  for (size_t p = 0; p + 1 < parties; ++p) {
    std::printf("party A%zu: %zu features\n", p, (*shards)[p].columns());
  }
  std::printf("party B : %zu features + labels\n",
              shards->back().columns());

  // Observability: the registry collects every engine's counters/timings
  // (exported via --metrics-out); the recorder, when requested, captures the
  // real protocol timeline (spans + message flows) for Perfetto.
  obs::MetricsRegistry registry;
  config.metrics = &registry;
  std::unique_ptr<obs::TraceRecorder> recorder;
  // --ops-port implies a recorder so /tracez has spans to show.
  if (flags.Has("trace-out") || flags.GetBool("gantt") ||
      config.ops_port > 0) {
    recorder = std::make_unique<obs::TraceRecorder>();
    recorder->Install();
  }
  if (config.ops_port > 0) {
    std::printf("ops endpoints: party B http://%s:%d/, A_i on port "
                "%d+1+i\n",
                config.ops_bind.c_str(), config.ops_port, config.ops_port);
  }
  // A TCP process owns exactly one party; its artifacts (flight dump,
  // profile) get the party spliced into the filename so two parties sharing
  // an output dir never clobber each other.
  std::string party_file_tag;
  if (flags.Has("listen")) {
    party_file_tag = "party_b";
  } else if (flags.Has("connect") && flags.Has("party")) {
    party_file_tag = "party_a" + std::to_string(a_index);
  }
  // Flight recorder: black-box ring dumped on failure paths, SIGTERM, the
  // watchdog, and coarse progress boundaries (SIGKILL insurance).
  std::unique_ptr<obs::FlightRecorder> flight;
  if (flags.Has("flight-out")) {
    flight = std::make_unique<obs::FlightRecorder>();
    flight->Install();
    const std::string fpath = flags.GetString("flight-out");
    flight->SetPersistPath(party_file_tag.empty()
                               ? fpath
                               : obs::PartyArtifactPath(fpath, party_file_tag));
    std::signal(SIGTERM, OnTerminate);
    // Ctrl-C on an interactive chaos drill should leave the same black box a
    // SIGTERM does.
    std::signal(SIGINT, OnTerminate);
    // Write an initial dump immediately: even a SIGKILL that lands before
    // the first tree boundary then leaves a parseable black box behind.
    flight->Record(obs::FlightRecorder::Kind::kStateChange, 0, 0, 0,
                   "flight recorder armed");
    flight->Persist();
  }
  // Sampling CPU profiler: armed here (after data loading, before any
  // engine starts) so samples cover exactly the training run. Engines tag
  // their threads with party/phase as they work; the folded output keys
  // samples by party;phase;stack.
  std::unique_ptr<obs::Profiler> profiler;
  if (flags.Has("profile-out")) {
    obs::ProfilerOptions popts;
    popts.hz = flags.GetInt("profile-hz", 99);
    profiler = std::make_unique<obs::Profiler>(popts);
    if (!profiler->Start()) {
      std::fprintf(stderr, "profiler failed to start (already running?)\n");
      profiler.reset();
    }
  }
  // Stops the profiler and writes the folded artifact(s). `party` non-empty
  // = a TCP process owning exactly one party: its file gets the party
  // spliced into the name (obs::PartyArtifactPath) so two processes sharing
  // an output dir never clobber each other. In-process runs write the full
  // profile plus one filtered file per party, same scheme as traces.
  auto write_profile = [&](const std::string& party,
                           size_t num_a_parties) -> bool {
    if (profiler == nullptr) return true;
    profiler->Stop();
    const obs::ProfilerStats pstats = profiler->stats();
    const std::string path = flags.GetString("profile-out");
    if (!party.empty()) {
      const std::string pp = obs::PartyArtifactPath(path, party);
      if (!profiler->WriteFolded(pp)) return false;
      std::printf("wrote folded cpu profile (%llu samples, %llu dropped) "
                  "to %s\n",
                  static_cast<unsigned long long>(pstats.samples),
                  static_cast<unsigned long long>(pstats.dropped),
                  pp.c_str());
      return true;
    }
    if (!profiler->WriteFolded(path)) return false;
    for (size_t p = 0; p < num_a_parties; ++p) {
      const std::string prefix = "party_a" + std::to_string(p);
      if (!profiler->WriteFolded(obs::PartyArtifactPath(path, prefix),
                                 prefix)) {
        return false;
      }
    }
    if (!profiler->WriteFolded(obs::PartyArtifactPath(path, "party_b"),
                               "party_b")) {
      return false;
    }
    std::printf("wrote folded cpu profile (%llu samples, %llu dropped) to "
                "%s (+ per-party *.party_*)\n",
                static_cast<unsigned long long>(pstats.samples),
                static_cast<unsigned long long>(pstats.dropped),
                path.c_str());
    return true;
  };

  // --- transport selection -------------------------------------------------
  // --listen / --connect switch this process from the in-process simulation
  // to one real party over TCP. Every process loads the same joined file and
  // recomputes the identical partition above, so no feature data ever
  // crosses the wire — only the protocol frames do.
  const bool tcp_listen = flags.Has("listen");
  const bool tcp_connect = flags.Has("connect");
  if (tcp_listen && tcp_connect) {
    std::fprintf(stderr, "--listen and --connect are mutually exclusive\n");
    return 1;
  }
  const size_t num_a = parties - 1;
  const double connect_timeout = flags.GetDouble("connect-timeout", 30.0);

  // Brings one channel up. With a reconnect budget the port is a
  // SessionChannel (crash recovery; same session-id derivation as the
  // in-process FedTrainer so resumed processes agree); without one it is the
  // raw TCP port, preserving PR 1's fail-fast semantics.
  const uint64_t fingerprint = config.Fingerprint();
  auto bring_up = [&](TcpChannelFactory* factory, size_t channel, bool a_side,
                      uint32_t party_id, bool needs_setup,
                      obs::ClockSync* clock_sync)
      -> Result<std::unique_ptr<MessagePort>> {
    if (config.network.reconnect_max_attempts > 0) {
      auto session = std::make_unique<SessionChannel>(
          factory, channel, a_side, fingerprint ^ (0x5e55ULL + channel),
          party_id, fingerprint, config.network,
          /*initial=*/nullptr, &registry);
      session->set_clock_sync(clock_sync);
      Result<HelloPayload> peer = session->Reestablish(-1, needs_setup);
      if (!peer.ok()) return peer.status();
      return std::unique_ptr<MessagePort>(std::move(session));
    }
    return factory->Reconnect(
        channel, a_side,
        ChannelEndpoint::Clock::now() +
            std::chrono::duration_cast<ChannelEndpoint::Clock::duration>(
                std::chrono::duration<double>(connect_timeout)));
  };

  Result<FedTrainResult> result = Status::Internal("not trained");
  if (tcp_connect) {
    // ---- one A party over TCP ---------------------------------------------
    if (!flags.Has("party")) {
      std::fprintf(stderr, "--connect needs --party a0, a1, ...\n");
      return 1;
    }
    if (a_index >= num_a) {
      std::fprintf(stderr, "--party a%zu out of range for --parties %zu\n",
                   a_index, parties);
      return 1;
    }
    if (Status st = config.Validate(); !st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    // Distinct per-process flow-id namespace (matches the trace pid
    // convention: A_i is pid i+1), set before any frame gets a trace id so
    // the per-party traces stitch without collisions at merge time.
    obs::SetProcessTraceNamespace(static_cast<uint32_t>(a_index) + 1);
    // The session hello and the engine's kClockPing probes feed one shared
    // estimator, so the trace metadata always carries the best offset.
    auto clock_sync = std::make_unique<obs::ClockSync>();
    config.clock_sync_state = clock_sync.get();
    auto factory = TcpChannelFactory::Dial(connect_to.first,
                                           connect_to.second, a_index,
                                           config.network, &registry);
    if (!factory.ok()) {
      std::fprintf(stderr, "%s\n", factory.status().ToString().c_str());
      return 1;
    }
    // needs_setup is always true from a dialing process: if B is mid-run
    // (this is a restart after a crash) it replays the setup phase; at a
    // cold start the flag is read by B's own bring-up and ignored, because
    // B's engine runs the setup phase anyway.
    auto port = bring_up(factory->get(), a_index, /*a_side=*/true,
                         static_cast<uint32_t>(a_index),
                         /*needs_setup=*/true, clock_sync.get());
    if (!port.ok()) {
      std::fprintf(stderr, "connecting to party B failed: %s\n",
                   port.status().ToString().c_str());
      return 1;
    }
    std::printf("party A%zu connected to %s\n", a_index,
                flags.GetString("connect").c_str());
    PartyAEngine engine(config, (*shards)[a_index], port->get(),
                        static_cast<uint32_t>(a_index));
    Status st = engine.Run();
    if (recorder != nullptr) obs::TraceRecorder::Uninstall();
    if (!write_profile("party_a" + std::to_string(a_index), num_a)) return 1;
    if (!st.ok()) {
      std::fprintf(stderr, "party A%zu failed: %s\n", a_index,
                   st.ToString().c_str());
      return 1;
    }
    const ChannelStats cs = (*port)->sent_stats();
    std::printf("party A%zu done: sent %.2f MB in %zu messages\n", a_index,
                cs.bytes / 1e6, cs.messages);
    if (recorder != nullptr && flags.Has("trace-out")) {
      const std::string path = flags.GetString("trace-out");
      if (!recorder->WriteJson(path)) return 1;
      std::printf("wrote %zu trace events to %s (merge with "
                  "vf2_trace_merge)\n",
                  recorder->num_events(), path.c_str());
    }
    if (flags.Has("metrics-out")) {
      const std::string path = flags.GetString("metrics-out");
      if (!registry.WriteJson(path)) return 1;
      std::printf("wrote %zu metrics to %s\n", registry.size(), path.c_str());
    }
    return 0;
  } else if (tcp_listen) {
    // ---- party B over TCP -------------------------------------------------
    if (Status st = config.Validate(); !st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    obs::RegisterBuildInfo(&registry);
    // B is the reference clock and the last trace pid (see the pid map in
    // the --trace-out writer below).
    obs::SetProcessTraceNamespace(static_cast<uint32_t>(parties));
    auto factory = TcpChannelFactory::Listen(
        "0.0.0.0", flags.GetInt("listen", 0), num_a, config.network,
        &registry);
    if (!factory.ok()) {
      std::fprintf(stderr, "%s\n", factory.status().ToString().c_str());
      return 1;
    }
    std::printf("party B listening on port %d, waiting for %zu A part%s\n",
                (*factory)->port(), num_a, num_a == 1 ? "y" : "ies");
    std::fflush(stdout);
    std::vector<std::unique_ptr<MessagePort>> ports;
    for (size_t p = 0; p < num_a; ++p) {
      auto port = bring_up(factory->get(), p, /*a_side=*/false,
                           static_cast<uint32_t>(num_a),
                           /*needs_setup=*/false, /*clock_sync=*/nullptr);
      if (!port.ok()) {
        std::fprintf(stderr, "waiting for party A%zu failed: %s\n", p,
                     port.status().ToString().c_str());
        return 1;
      }
      std::printf("party A%zu joined\n", p);
      ports.push_back(std::move(port).value());
    }
    std::fflush(stdout);
    std::vector<MessagePort*> port_ptrs;
    for (auto& p : ports) port_ptrs.push_back(p.get());
    PartyBEngine engine(config, shards->back(), std::move(port_ptrs));
    Result<PartyBResult> b_result = engine.Run();
    if (b_result.ok()) {
      FedTrainResult fed;
      fed.model = std::move(b_result->model);
      fed.log = std::move(b_result->log);
      fed.metrics = registry.Snapshot();
      // The A parties' split-candidate cuts are needed to evaluate the joint
      // model. Binning is deterministic, and this process holds the full
      // joined file, so B recomputes them instead of shipping them (in a
      // real deployment they stay private and the model is served
      // federated; see fed/serving.h).
      for (size_t p = 0; p < num_a; ++p) {
        fed.party_a_cuts.push_back(
            ComputeBinCuts((*shards)[p].features, config.gbdt.max_bins));
      }
      result = std::move(fed);
    } else {
      result = b_result.status();
    }
  } else {
    result = FedTrainer(config).Train(shards.value());
  }
  if (recorder != nullptr) obs::TraceRecorder::Uninstall();
  // Written before the failure check so a failed run still leaves its
  // profile behind — that is exactly when CPU attribution matters.
  if (!write_profile(tcp_listen ? "party_b" : "", num_a)) return 1;
  if (!result.ok()) {
    std::fprintf(stderr, "training failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  for (const EvalRecord& rec : result->log) {
    std::printf("tree %3zu  %7.2fs  train_loss %.5f\n", rec.tree_index + 1,
                rec.elapsed_seconds, rec.train_loss);
  }
  auto count = [&](const char* name) {
    return static_cast<size_t>(obs::PartySum(result->metrics, "party_", name));
  };
  // Over TCP, B's registry holds only B's counters: the inbound volume is in
  // the transport's frame counters.
  const double bytes_a_to_b =
      tcp_listen
          ? static_cast<double>(
                registry.GetCounter("transport/tcp/bytes_read")->value())
          : obs::PartySum(result->metrics, "party_a", "bytes_sent");
  std::printf("traffic A->B %.2f MB, B->A %.2f MB; enc %zu dec %zu hadd %zu "
              "scalings %zu packs %zu\n",
              bytes_a_to_b / 1e6,
              obs::PartySum(result->metrics, "party_b", "bytes_sent") / 1e6,
              count("encryptions"), count("decryptions"), count("hadds"),
              count("scalings"), count("packs"));
  std::printf("splits A %zu / B %zu, leaves %zu, dirty %zu\n",
              count("splits_a"), count("splits_b"), count("leaves"),
              count("dirty_nodes"));

  if (recorder != nullptr) {
    if (flags.Has("trace-out")) {
      const std::string path = flags.GetString("trace-out");
      if (!recorder->WriteJson(path)) return 1;
      std::printf("wrote %zu trace events to %s (load in ui.perfetto.dev)\n",
                  recorder->num_events(), path.c_str());
      // Per-party views so concurrent writers never share a file: trace pid
      // i+1 is A_i, pid `parties` is B (pid 0 is the trainer). Paths get the
      // party id spliced in before the extension (trace.party_b.json).
      // Skipped over TCP: each process already IS one party's view, and its
      // main trace file merges via vf2_trace_merge.
      if (!tcp_listen) {
        for (size_t p = 0; p + 1 < parties; ++p) {
          const std::string ap = obs::PartyArtifactPath(
              path, "party_a" + std::to_string(p));
          if (!recorder->WriteJson(ap, static_cast<int>(p) + 1)) return 1;
        }
        const std::string bp = obs::PartyArtifactPath(path, "party_b");
        if (!recorder->WriteJson(bp, static_cast<int>(parties))) return 1;
        std::printf("wrote per-party traces (*.party_*.json)\n");
      }
    }
    if (flags.GetBool("gantt")) {
      std::printf("%s", RenderTraceGantt(*recorder).c_str());
    }
  }
  if (flags.Has("metrics-out")) {
    const std::string path = flags.GetString("metrics-out");
    if (!registry.WriteJson(path)) return 1;
    std::printf("wrote %zu metrics to %s\n", registry.size(), path.c_str());
    // Same suffix scheme as traces: one filtered dump per party (in-process
    // runs only; a TCP process holds just its own party's counters).
    if (!tcp_listen) {
      for (size_t p = 0; p + 1 < parties; ++p) {
        const std::string prefix = "party_a" + std::to_string(p);
        if (!registry.WriteJson(obs::PartyArtifactPath(path, prefix),
                                prefix + "/")) {
          return 1;
        }
      }
      if (!registry.WriteJson(obs::PartyArtifactPath(path, "party_b"),
                              "party_b/")) {
        return 1;
      }
      std::printf("wrote per-party metrics (*.party_*.json)\n");
    }
  }

  auto joint = result->ToJointModel(spec);
  if (!joint.ok()) {
    std::fprintf(stderr, "%s\n", joint.status().ToString().c_str());
    return 1;
  }
  if (flags.Has("valid")) {
    auto valid = LoadLibsvm(flags.GetString("valid"));
    if (valid.ok() && valid->has_labels() &&
        valid->columns() <= train->columns()) {
      const auto scores = joint->PredictRaw(valid->features);
      std::printf("valid auc %.5f  logloss %.5f\n",
                  Auc(scores, valid->labels), LogLoss(scores, valid->labels));
    }
  }
  if (flags.Has("model")) {
    if (Status st = SaveModel(joint.value(), flags.GetString("model"));
        !st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("saved joint model to %s\n",
                flags.GetString("model").c_str());
  }
  return 0;
}

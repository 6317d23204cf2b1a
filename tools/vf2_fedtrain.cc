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
#include <functional>
#include <memory>
#include <string>

#include "data/io.h"
#include "data/partition.h"
#include "fed/fed_trainer.h"
#include "fed/party_runtime.h"
#include "fed/tcp_transport.h"
#include "gbdt/model_io.h"
#include "metrics/metrics.h"
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
       {"checkpoint-dir", "party B writes a tree-boundary checkpoint here "
                          "after each tree (A parties keep none)"},
       {"resume", "party B resumes from --checkpoint-dir instead of "
                  "starting fresh (no effect on A parties)"},
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
  if (Status st = config.Validate(); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }

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

  Result<FedTrainResult> result = Status::Internal("not trained");
  Status a_status;  // --connect: this process's party
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
    a_status = RunPartyA(factory->get(), config, (*shards)[a_index], num_a,
                         a_index, connect_timeout);
  } else if (tcp_listen) {
    // ---- party B over TCP -------------------------------------------------
    // B is the reference clock and the last trace pid.
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
    Result<PartyBResult> b_result = RunPartyB(
        factory->get(), config, shards->back(), num_a, connect_timeout);
    if (b_result.ok()) {
      // This process holds the full joined file, so the A parties' cuts
      // (needed only to evaluate the joint model here; in a deployment they
      // stay private, see fed/serving.h) are recomputed, not shipped.
      result = MakeFedTrainResult(std::move(b_result).value(), *shards,
                                  config);
    } else {
      result = b_result.status();
    }
  } else {
    result = FedTrainer(config).Train(shards.value());
  }
  if (recorder != nullptr) obs::TraceRecorder::Uninstall();

  // Writes one artifact through `write(path, role)`, `role` naming the
  // party whose slice goes to `path` (null = all this process holds). An
  // in-process run holds every party: the whole run goes to `path` and each
  // party's slice next to it (obs::PartyArtifactPath: trace.party_a0.json,
  // ...). A TCP process is one party and writes once: to `path`, or with
  // `tag_own` to the party-spliced path so processes sharing an output dir
  // never clobber each other.
  auto write_artifact =
      [&](const std::string& path, bool tag_own, const std::string& what,
          const std::function<bool(const std::string&, const PartyRole*)>&
              write) {
        const bool one_party = !party_file_tag.empty();
        const std::string own = one_party && tag_own
                                    ? obs::PartyArtifactPath(path,
                                                             party_file_tag)
                                    : path;
        if (!write(own, nullptr)) return false;
        for (size_t p = 0; !one_party && p < parties; ++p) {
          const PartyRole role =
              p < num_a ? PartyRole::A(static_cast<uint32_t>(p))
                        : PartyRole::B(static_cast<uint32_t>(num_a), nullptr);
          if (!write(obs::PartyArtifactPath(path, role.metric_prefix),
                     &role)) {
            return false;
          }
        }
        std::printf("wrote %s to %s%s\n", what.c_str(), own.c_str(),
                    one_party ? "" : " (+ per-party *.party_*)");
        return true;
      };
  // Written before the failure check so a failed run still leaves its
  // profile behind — that is exactly when CPU attribution matters.
  if (profiler != nullptr) {
    profiler->Stop();
    const obs::ProfilerStats pstats = profiler->stats();
    const std::string what =
        "folded cpu profile (" + std::to_string(pstats.samples) +
        " samples, " + std::to_string(pstats.dropped) + " dropped)";
    if (!write_artifact(flags.GetString("profile-out"), /*tag_own=*/true,
                        what,
                        [&](const std::string& path, const PartyRole* role) {
                          return profiler->WriteFolded(
                              path, role ? role->metric_prefix : "");
                        })) {
      return 1;
    }
  }
  if (tcp_connect) {
    if (!a_status.ok()) {
      std::fprintf(stderr, "party A%zu failed: %s\n", a_index,
                   a_status.ToString().c_str());
      return 1;
    }
    const auto snapshot = registry.Snapshot();
    std::printf("party A%zu done: sent %.2f MB in %zu messages\n", a_index,
                obs::PartySum(snapshot, "party_a", "bytes_sent") / 1e6,
                static_cast<size_t>(
                    obs::PartySum(snapshot, "party_a", "messages_sent")));
  } else {
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
      return static_cast<size_t>(
          obs::PartySum(result->metrics, "party_", name));
    };
    // Over TCP, B's registry holds only B's counters: the inbound volume is
    // in the transport's frame counters.
    const double bytes_a_to_b =
        tcp_listen
            ? static_cast<double>(
                  registry.GetCounter("transport/tcp/bytes_read")->value())
            : obs::PartySum(result->metrics, "party_a", "bytes_sent");
    std::printf("traffic A->B %.2f MB, B->A %.2f MB; enc %zu dec %zu hadd "
                "%zu scalings %zu packs %zu\n",
                bytes_a_to_b / 1e6,
                obs::PartySum(result->metrics, "party_b", "bytes_sent") / 1e6,
                count("encryptions"), count("decryptions"), count("hadds"),
                count("scalings"), count("packs"));
    std::printf("splits A %zu / B %zu, leaves %zu, dirty %zu\n",
                count("splits_a"), count("splits_b"), count("leaves"),
                count("dirty_nodes"));
  }

  // Trace pid i+1 is A_i and pid `parties` is B (pid 0 is the trainer); a
  // TCP process's trace merges with its peers' via vf2_trace_merge.
  if (recorder != nullptr && flags.Has("trace-out") &&
      !write_artifact(flags.GetString("trace-out"), /*tag_own=*/false,
                      std::to_string(recorder->num_events()) +
                          " trace events",
                      [&](const std::string& path, const PartyRole* role) {
                        return recorder->WriteJson(
                            path, role ? static_cast<int>(role->trace_pid)
                                       : -1);
                      })) {
    return 1;
  }
  if (recorder != nullptr && flags.GetBool("gantt")) {
    std::printf("%s", RenderTraceGantt(*recorder).c_str());
  }
  if (flags.Has("metrics-out") &&
      !write_artifact(flags.GetString("metrics-out"), /*tag_own=*/false,
                      std::to_string(registry.size()) + " metrics",
                      [&](const std::string& path, const PartyRole* role) {
                        return registry.WriteJson(
                            path, role ? role->metric_prefix + "/" : "");
                      })) {
    return 1;
  }
  if (tcp_connect) return 0;

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

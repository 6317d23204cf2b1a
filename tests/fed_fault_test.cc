// Failure-model tests: a party dying or a link going silent must surface as
// a descriptive error from FedTrainer::Train within bounded wall-clock time,
// with every thread joined — never a hang. Every test runs under its own
// watchdog so a regression fails the suite instead of wedging CI.

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <thread>

#include "fed/checkpoint.h"
#include "fed/fed_trainer.h"
#include "fed/party_b.h"
#include "fed_test_util.h"
#include "gbdt/model_io.h"

namespace vf2boost {
namespace {

FedConfig FastConfig() {
  FedConfig config;
  config.mock_crypto = true;
  config.gbdt.num_trees = 3;
  config.gbdt.num_layers = 4;
  config.gbdt.max_bins = 8;
  return config;
}

// The ISSUE's headline scenario: one A party's link dies mid-tree. Train
// must return a non-OK status within bounded wall-clock time with all party
// threads joined — the old behavior was a permanent deadlock (B waiting for
// a histogram that never comes, the healthy A waiting for B's decisions).
TEST(FedFaultTest, PartyADeathFailsTrainingInsteadOfHanging) {
  Fixture f = MakeFixture(600, 12, 61, {0.34, 0.33, 0.33});
  FedConfig config = FastConfig();
  config.network.default_deadline_seconds = 0.5;
  NetworkConfig dead = config.network;
  dead.kill_after_messages = 4;  // link dies partway through the first tree
  config.network_per_party = {dead};  // party A0 only; A1 stays healthy

  Result<FedTrainResult> result = Status::Internal("train never ran");
  const bool finished = RunWithWatchdog(
      [&] { result = FedTrainer(config).Train(f.shards); },
      /*timeout_seconds=*/60);
  ASSERT_TRUE(finished) << "FedTrainer::Train hung after party A death";
  ASSERT_FALSE(result.ok()) << "training succeeded over a dead link?";
  EXPECT_FALSE(result.status().message().empty());
}

// A failed run still leaves its exit gauges behind: B had streamed the first
// tree's gradients before A0's link died, and a shared registry must show
// that traffic (it used to be recorded only when B succeeded).
TEST(FedFaultTest, FailedRunStillRecordsPartyBTraffic) {
  Fixture f = MakeFixture(600, 12, 61, {0.34, 0.33, 0.33});
  FedConfig config = FastConfig();
  config.network.default_deadline_seconds = 0.5;
  NetworkConfig dead = config.network;
  dead.kill_after_messages = 4;
  config.network_per_party = {dead};
  obs::MetricsRegistry registry;
  config.metrics = &registry;

  Result<FedTrainResult> result = Status::Internal("train never ran");
  const bool finished = RunWithWatchdog(
      [&] { result = FedTrainer(config).Train(f.shards); },
      /*timeout_seconds=*/60);
  ASSERT_TRUE(finished) << "FedTrainer::Train hung after party A death";
  ASSERT_FALSE(result.ok()) << "training succeeded over a dead link?";
  EXPECT_GT(obs::PartySum(registry.Snapshot(), "party_b", "bytes_sent"), 0);
}

// Same drill with the healthy-side roles flipped: B's own outbound links all
// die, so every A party starves simultaneously.
TEST(FedFaultTest, AllLinksDeadStillTerminates) {
  Fixture f = MakeFixture(400, 10, 63);
  FedConfig config = FastConfig();
  config.network.default_deadline_seconds = 0.3;
  config.network.kill_after_messages = 2;

  Result<FedTrainResult> result = Status::Internal("train never ran");
  const bool finished = RunWithWatchdog(
      [&] { result = FedTrainer(config).Train(f.shards); },
      /*timeout_seconds=*/60);
  ASSERT_TRUE(finished);
  EXPECT_FALSE(result.ok());
}

// A peer that never says anything at all: the per-channel default deadline
// converts the infinite wait into DeadlineExceeded. PartyBEngine is wired
// directly to a channel whose far end nobody serves.
TEST(FedFaultTest, SilentPeerYieldsDeadlineExceeded) {
  Fixture f = MakeFixture(200, 8, 65);
  FedConfig config = FastConfig();
  NetworkConfig net;
  net.default_deadline_seconds = 0.1;
  auto [a_end, b_end] = ChannelEndpoint::CreatePair(net);
  (void)a_end;  // the silent peer

  PartyBEngine engine(config, f.shards.back(), {b_end.get()});
  Result<PartyBResult> result = Status::Internal("never ran");
  const bool finished = RunWithWatchdog(
      [&] { result = engine.Run(); }, /*timeout_seconds=*/30);
  ASSERT_TRUE(finished) << "PartyBEngine hung on a silent peer";
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded)
      << result.status().ToString();
}

// An explicit error close from a peer must surface its message through the
// engine, not a generic deadline: B learns *why* the peer died.
TEST(FedFaultTest, PeerErrorClosePropagatesCause) {
  Fixture f = MakeFixture(200, 8, 67);
  FedConfig config = FastConfig();
  auto [a_end, b_end] = ChannelEndpoint::CreatePair();

  std::thread peer([&a = a_end] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    a->Close(Status::Aborted("party A0 failed: disk on fire"));
  });
  PartyBEngine engine(config, f.shards.back(), {b_end.get()});
  Result<PartyBResult> result = Status::Internal("never ran");
  const bool finished = RunWithWatchdog(
      [&] { result = engine.Run(); }, /*timeout_seconds=*/30);
  peer.join();
  ASSERT_TRUE(finished);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kAborted);
  EXPECT_NE(result.status().message().find("disk on fire"), std::string::npos)
      << result.status().ToString();
}

// Sanity on config plumbing: a bad network knob is rejected up front by
// FedConfig::Validate, not discovered mid-run.
TEST(FedFaultTest, BadNetworkConfigRejectedUpFront) {
  Fixture f = MakeFixture(100, 8, 71);
  FedConfig config = FastConfig();
  config.network.default_deadline_seconds = -1;
  auto result = FedTrainer(config).Train(f.shards);
  EXPECT_FALSE(result.ok());

  config.network.default_deadline_seconds = 0;
  config.network_per_party.resize(1);
  config.network_per_party[0].heal_after_seconds = -1;
  EXPECT_FALSE(FedTrainer(config).Train(f.shards).ok());
}

// --- recovery drills --------------------------------------------------------

std::vector<double> Predictions(const FedTrainResult& result,
                                const Fixture& f) {
  auto joint = result.ToJointModel(f.spec);
  EXPECT_TRUE(joint.ok()) << joint.status().ToString();
  return joint->PredictRaw(f.train.features);
}

// The strongest equivalence we can assert: the serialized joint model —
// structure, split values, gains, and leaf weights — byte for byte.
std::string JointModelText(const FedTrainResult& result, const Fixture& f) {
  auto joint = result.ToJointModel(f.spec);
  EXPECT_TRUE(joint.ok()) << joint.status().ToString();
  return ModelToString(*joint);
}

double MetricValue(const std::vector<obs::MetricSample>& samples,
                   const std::string& name) {
  for (const obs::MetricSample& s : samples) {
    if (s.name == name) return s.value;
  }
  ADD_FAILURE() << "no metric " << name;
  return 0;
}

// The tentpole drill: a link dies mid-tree, and with a reconnect budget the
// run must heal and finish — with a model bit-identical to a fault-free run,
// because both sides retrain the interrupted tree from the last boundary.
TEST(FedRecoveryTest, ReconnectHealsMidTreeLinkDeath) {
  Fixture f = MakeFixture(400, 10, 73);
  FedConfig clean = FastConfig();

  FedConfig faulty = clean;
  faulty.network.default_deadline_seconds = 0.3;
  faulty.network.kill_after_messages = 6;  // dies inside an early tree
  faulty.network.heal_after_seconds = 0.2;
  faulty.network.reconnect_max_attempts = 8;

  auto r_clean = FedTrainer(clean).Train(f.shards);
  ASSERT_TRUE(r_clean.ok()) << r_clean.status().ToString();

  Result<FedTrainResult> r_faulty = Status::Internal("train never ran");
  const bool finished = RunWithWatchdog(
      [&] { r_faulty = FedTrainer(faulty).Train(f.shards); },
      /*timeout_seconds=*/120);
  ASSERT_TRUE(finished) << "recovery drill hung";
  ASSERT_TRUE(r_faulty.ok()) << r_faulty.status().ToString();
  EXPECT_GE(obs::PartySum(r_faulty->metrics, "party_", "session/reconnects"),
            1)
      << "link death never triggered a reconnect (kill_after too high?)";
  // Each party's traffic gauges count every send over both link
  // generations, the ones the kill switch swallowed included.
  double dropped = 0;
  for (const std::string party : {"party_a0", "party_b"}) {
    const double sent =
        MetricValue(r_faulty->metrics, party + "/messages_sent");
    const double lost =
        MetricValue(r_faulty->metrics, party + "/messages_dropped");
    EXPECT_GT(sent, lost) << party;
    dropped += lost;
  }
  EXPECT_GE(dropped, 1);

  const auto p_clean = Predictions(*r_clean, f);
  const auto p_faulty = Predictions(*r_faulty, f);
  ASSERT_EQ(p_clean.size(), p_faulty.size());
  for (size_t i = 0; i < p_clean.size(); ++i) {
    ASSERT_DOUBLE_EQ(p_clean[i], p_faulty[i]) << "instance " << i;
  }
  // Gradient encryption draws from a per-tree rng stream, so even the tree
  // that was interrupted and retrained serializes identically.
  EXPECT_EQ(JointModelText(*r_clean, f), JointModelText(*r_faulty, f));
}

// In-process session channels count their heartbeats into the run's shared
// registry under the same "session/*" names a TCP process exports, and the
// beacons never change the model.
TEST(FedRecoveryTest, InProcessSessionsExportHeartbeatCounters) {
  // Rows and trees keep the run many beacon periods long.
  Fixture f = MakeFixture(2000, 10, 75);
  FedConfig clean = FastConfig();
  clean.gbdt.num_trees = 6;
  FedConfig beating = clean;
  beating.network.default_deadline_seconds = 2;
  beating.network.reconnect_max_attempts = 4;
  beating.network.heartbeat_interval_seconds = 0.002;
  obs::MetricsRegistry registry;
  beating.metrics = &registry;

  auto r_clean = FedTrainer(clean).Train(f.shards);
  ASSERT_TRUE(r_clean.ok()) << r_clean.status().ToString();
  Result<FedTrainResult> result = Status::Internal("train never ran");
  ASSERT_TRUE(RunWithWatchdog(
      [&] { result = FedTrainer(beating).Train(f.shards); },
      /*timeout_seconds=*/60));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(registry.GetCounter("session/heartbeats_sent")->value(), 0u);
  EXPECT_GT(registry.GetCounter("session/heartbeats_received")->value(), 0u);
  EXPECT_EQ(registry.GetCounter("session/liveness_trips")->value(), 0u);
  EXPECT_EQ(JointModelText(*result, f), JointModelText(*r_clean, f));
}

// Without a reconnect budget the same outage is fatal — but the checkpoint
// survives, and a resumed run finishes with the fault-free model: the
// restored trees are bit-identical and the remaining ones retrain from the
// exact stored scores.
TEST(FedRecoveryTest, CheckpointResumeMatchesFaultFree) {
  Fixture f = MakeFixture(400, 10, 75);
  const std::string dir = ::testing::TempDir() + "vf2_resume_drill";
  std::filesystem::remove_all(dir);  // no stale state from earlier runs

  FedConfig clean = FastConfig();
  auto r_ref = FedTrainer(clean).Train(f.shards);
  ASSERT_TRUE(r_ref.ok()) << r_ref.status().ToString();

  FedConfig crash = clean;
  crash.checkpoint_dir = dir;
  crash.network.default_deadline_seconds = 0.3;
  crash.network.kill_after_messages = 12;  // die after >= 1 completed tree
  Result<FedTrainResult> r_crash = Status::Internal("train never ran");
  const bool crash_finished = RunWithWatchdog(
      [&] { r_crash = FedTrainer(crash).Train(f.shards); },
      /*timeout_seconds=*/60);
  ASSERT_TRUE(crash_finished);
  ASSERT_FALSE(r_crash.ok()) << "link death should be fatal without a budget";

  Result<PartyBCheckpoint> ckpt = LoadPartyBCheckpoint(dir);
  ASSERT_TRUE(ckpt.ok()) << ckpt.status().ToString();
  ASSERT_GE(ckpt->completed_trees, 1u);
  ASSERT_LT(ckpt->completed_trees, clean.gbdt.num_trees);

  FedConfig resume = clean;
  resume.checkpoint_dir = dir;
  resume.resume = true;
  auto r_resumed = FedTrainer(resume).Train(f.shards);
  ASSERT_TRUE(r_resumed.ok()) << r_resumed.status().ToString();
  EXPECT_GE(
      obs::PartySum(r_resumed->metrics, "party_b", "session/trees_resumed"),
      ckpt->completed_trees);
  ASSERT_EQ(r_resumed->log.size(), clean.gbdt.num_trees);

  const auto p_ref = Predictions(*r_ref, f);
  const auto p_resumed = Predictions(*r_resumed, f);
  ASSERT_EQ(p_ref.size(), p_resumed.size());
  for (size_t i = 0; i < p_ref.size(); ++i) {
    ASSERT_DOUBLE_EQ(p_ref[i], p_resumed[i]) << "instance " << i;
  }
  // Per-tree train losses match too: the resumed run walked the same path.
  for (size_t t = 0; t < r_resumed->log.size(); ++t) {
    EXPECT_DOUBLE_EQ(r_resumed->log[t].train_loss, r_ref->log[t].train_loss)
        << "tree " << t;
  }
  EXPECT_EQ(JointModelText(*r_ref, f), JointModelText(*r_resumed, f));
}

// A resume against a config that would train a different model must be
// refused up front, not silently produce a franken-model.
TEST(FedRecoveryTest, ResumeRejectsIncompatibleConfig) {
  Fixture f = MakeFixture(200, 8, 77);
  const std::string dir = ::testing::TempDir() + "vf2_resume_mismatch";
  std::filesystem::remove_all(dir);

  FedConfig first = FastConfig();
  first.checkpoint_dir = dir;
  ASSERT_TRUE(FedTrainer(first).Train(f.shards).ok());

  FedConfig incompatible = first;
  incompatible.resume = true;
  incompatible.gbdt.learning_rate *= 2;  // model-determining change
  incompatible.gbdt.num_trees += 1;      // avoid the trivial already-done case
  auto r = FedTrainer(incompatible).Train(f.shards);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("fingerprint"), std::string::npos)
      << r.status().ToString();
}

}  // namespace
}  // namespace vf2boost

#ifndef VF2BOOST_FED_FED_TRAINER_H_
#define VF2BOOST_FED_FED_TRAINER_H_

#include <vector>

#include "data/binning.h"
#include "data/partition.h"
#include "fed/party_b.h"
#include "fed/protocol.h"
#include "fed/session.h"
#include "gbdt/trainer.h"
#include "gbdt/tree.h"
#include "obs/metrics_registry.h"

namespace vf2boost {

/// Output of a federated training run.
struct FedTrainResult {
  /// Federated model: nodes carry (owner_party, party-local feature,
  /// split bin). B-owned nodes also carry the real split value.
  GbdtModel model;
  /// Party B's per-tree telemetry (train loss, elapsed seconds).
  std::vector<EvalRecord> log;
  /// The run's metrics registry once every engine has joined: each party's
  /// counters, phase timings and link traffic under its prefix
  /// ("party_a0/hadds", "party_b/phase/encrypt", "party_a0/bytes_sent").
  /// Add one name up across parties with obs::PartySum.
  std::vector<obs::MetricSample> metrics;
  /// Split-candidate values of each A party, indexed by party. Only the
  /// evaluation harness uses these — in a deployment they stay private.
  std::vector<BinCuts> party_a_cuts;

  /// Rewrites the model with global column ids and real split values so the
  /// harness can evaluate it on the joined dataset. `spec` must be the
  /// partition used for training (A parties first, B last).
  Result<GbdtModel> ToJointModel(const VerticalSplitSpec& spec) const;
};

/// Assembles a run's result from Party B's outcome. `parties` holds every
/// shard, A parties first: each A party's cuts are recomputed from its shard
/// (binning is deterministic, so they are the cuts it trained with), and
/// the result's `metrics` is a snapshot of config.metrics (must be set).
FedTrainResult MakeFedTrainResult(PartyBResult b,
                                  const std::vector<Dataset>& parties,
                                  const FedConfig& config);

/// The one party launcher, in process (SessionBroker) and over TCP
/// (TcpChannelFactory) alike: brings the party's links up through `factory`
/// and runs its engine on them; the links die with the call. Each link is a
/// SessionChannel on config.NetworkFor(channel) whose Open runs the kHello
/// handshake under a session id derived from Fingerprint() and the channel,
/// so a peer with another configuration is refused (ProtocolError) before
/// any engine starts. Party ids are i for A<i> and num_a for B; each peer
/// gets `timeout_seconds` to show up. config.metrics must be set.
///
/// Party A<index> on `shard`; its link feeds config.clock_sync_state.
Status RunPartyA(ChannelFactory* factory, const FedConfig& config,
                 const Dataset& shard, size_t num_a, size_t index,
                 double timeout_seconds);

/// Party B on `shard` (with labels): all num_a links first, in channel
/// order, then the engine. If a link cannot come up, the links already up
/// are closed with its status, so no A party waits on a B that never starts.
Result<PartyBResult> RunPartyB(ChannelFactory* factory,
                               const FedConfig& config, const Dataset& shard,
                               size_t num_a, double timeout_seconds);

/// \brief Drives a full vertical federated training run in-process.
///
/// Spawns one thread per A party, each calling RunPartyA over a
/// SessionBroker, and runs RunPartyB on the calling thread — the in-process
/// equivalent of the paper's two-data-center deployment, with the broker's
/// channels standing in for the WAN.
class FedTrainer {
 public:
  explicit FedTrainer(const FedConfig& config) : config_(config) {}

  /// `parties` holds one shard per party; the LAST shard is Party B and must
  /// carry labels. All shards must have the same row count and alignment
  /// (use PartitionVertically / SimulatedPsi upstream).
  Result<FedTrainResult> Train(const std::vector<Dataset>& parties) const;

 private:
  FedConfig config_;
};

}  // namespace vf2boost

#endif  // VF2BOOST_FED_FED_TRAINER_H_

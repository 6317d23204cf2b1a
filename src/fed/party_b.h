#ifndef VF2BOOST_FED_PARTY_B_H_
#define VF2BOOST_FED_PARTY_B_H_

#include <map>
#include <memory>
#include <vector>

#include "data/dataset.h"
#include "fed/enc_histogram.h"
#include "fed/inbox.h"
#include "fed/party_runtime.h"
#include "fed/protocol.h"
#include "gbdt/loss.h"
#include "gbdt/split.h"
#include "gbdt/trainer.h"
#include "gbdt/tree.h"
#include "obs/remote_metrics.h"

namespace vf2boost {

/// Output of a Party-B training run.
struct PartyBResult {
  /// Federated model: B-owned nodes carry real split values; A-owned nodes
  /// carry (owner_party, local feature, split bin) only.
  GbdtModel model;
  std::vector<EvalRecord> log;
};

/// \brief Party B: the active (label-owning) party.
///
/// Owns the Paillier private key, drives tree growth, encrypts gradient
/// statistics, decrypts Party A histograms, performs global split finding,
/// and — under the optimistic protocol — splits ahead of validation and
/// rolls back dirty nodes (§4.2).
class PartyBEngine : private PartyRuntime {
 public:
  /// One inbox per A party, in party-index order. B's own party index is
  /// channels.size() (it comes last).
  PartyBEngine(const FedConfig& config, const Dataset& data,
               std::vector<MessagePort*> channels);

  Result<PartyBResult> Run();

  /// Metric snapshots federated from the A parties (kMetricsDelta frames);
  /// empty unless config.federate_metrics was on. Valid after Run.
  const obs::RemoteMetrics& remote_metrics() const { return remote_metrics_; }

 private:
  struct NodeState {
    int32_t id = 0;
    uint32_t layer = 0;
    std::vector<uint32_t> instances;
    GradPair total;
    /// B's own best split; under the optimistic protocol B splits every
    /// node that has a valid one ahead of validation.
    SplitCandidate best_b;
    /// B's own-feature histogram: built for the root, derived for one
    /// sibling of every split via subtraction (paper §7).
    Histogram own_hist;
    bool has_hist = false;
    /// Sibling subtraction (BuildsLeftChild): the child A builds no
    /// histograms for keeps its parent's and its built sibling's ids, and B
    /// derives its A histograms from theirs. -1 for a built node.
    int32_t parent = -1;
    int32_t built_sibling = -1;
  };

  /// Bins B's shard, generates the key, then runs every link's first setup
  /// exchange.
  Status Setup();
  /// The setup exchange every link generation starts with: sends A party
  /// `p` the kPublicKey and receives its kLayout. The first layout is
  /// recorded; a later one must match it byte for byte (ProtocolError).
  Status ExchangeSetup(size_t p);
  Result<PartyBResult> RunInternal();
  /// True when every port can re-establish its link (session layer on).
  bool SessionsRecoverable();
  /// Restores model/scores/log from `checkpoint_dir` when resume is set.
  /// Missing checkpoint = fresh start; fingerprint mismatch = hard error.
  Status LoadCheckpointIfResuming(PartyBResult* result, size_t* start_tree);
  /// Writes the tree-boundary checkpoint (no-op without a checkpoint_dir).
  Status MaybeWriteCheckpoint(const PartyBResult& result);
  /// Drops partial-tree protocol state, re-establishes every session and
  /// runs the setup exchange on each new link.
  Status ResyncSessions();
  /// Receives every A party's final kMetricsDelta frame: blocks per inbox
  /// until the peer's clean close (clean closes drain queued traffic first,
  /// so the final frame arrives deterministically).
  void DrainFederatedMetrics();
  /// hists[party][node] = decrypted plaintext histogram of an A party.
  using PartyHistograms = std::vector<std::map<int32_t, Histogram>>;
  /// A split that an A party owns, with the owning party's index.
  struct ASplit {
    SplitCandidate split;
    uint32_t owner = 0;
  };
  /// A layer split whose children are not partitioned yet: B-won (owner =
  /// B's index) or waiting for its A owner's placement.
  struct PendingSplit {
    NodeState* node;
    uint32_t owner;
    size_t decision;  ///< index of the node's decision in the broadcast
  };

  Status TrainOneTree(uint32_t tree_id, Tree* tree);
  /// Ciphers EncryptAndSendGradients makes per tree, each with one nonce.
  size_t NoncesPerTree() const;
  void EncryptAndSendGradients(uint32_t tree_id);
  /// Collects the expected-epoch histogram of every built node in `nodes`
  /// from every A party, derives each A party's histograms of the other
  /// nodes from their parents', and keeps the layer's exact plaintexts as
  /// the next layer's parents. A histogram for a derived node is a
  /// ProtocolError.
  Status CollectHistograms(uint32_t layer, const std::vector<NodeState>& nodes,
                           PartyHistograms* hists);
  /// Best split over every A party's histogram of `node` (invalid when no A
  /// party has one).
  ASplit BestASplit(const NodeState& node, const PartyHistograms& hists) const;
  /// Writes `node`'s split into the tree. Only a B-owned split gets its real
  /// threshold; A-owned nodes keep (owner, feature, bin).
  void RecordSplit(const SplitCandidate& split, uint32_t owner, int32_t node,
                   int32_t left, int32_t right, Tree* tree) const;
  /// Splits `node` on B's own best split: fresh children, B's placement.
  NodeDecision SplitOnB(const NodeState& node, Tree* tree);
  /// Partitions `node` into two children by `placement` and appends them to
  /// `children`. The larger child (BuildsLeftChild) is marked derived, and
  /// its own histogram is the parent's minus the built child's.
  void SplitChildren(const NodeState& node, int32_t left, int32_t right,
                     const Bitmap& placement, std::vector<NodeState>* children);
  /// Receives `owner`'s kPlacement for `node` and checks it fits the node.
  Result<Bitmap> ReceivePlacement(uint32_t owner, const NodeState& node);
  /// Sends a copy of `msg` to every A party.
  void Broadcast(const Message& msg);
  void FinalizeLeaf(const NodeState& node, Tree* tree);
  GradPair SumGrads(const std::vector<uint32_t>& instances) const;

  const Dataset& data_;
  std::vector<Inbox> inboxes_;
  uint32_t party_b_index_;

  BinCuts cuts_;
  BinnedMatrix binned_;
  FeatureLayout layout_;
  std::vector<FeatureLayout> a_layouts_;
  /// Each A party's first kLayout payload, the reference for later ones.
  std::vector<std::vector<uint8_t>> a_layout_payloads_;
  /// Slot layout of the gh-packed gradient stream (config_.gh_pack only),
  /// sized at Setup against the key and the loss bounds — fail-fast.
  GhPackLayout gh_layout_;
  /// The kPublicKey message from Setup, sent on every link generation.
  Message setup_key_msg_;
  std::unique_ptr<CipherBackend> backend_;
  std::shared_ptr<NoisePool> noise_pool_;  // real crypto only; may be null
  std::unique_ptr<Loss> loss_;
  Rng rng_;

  std::vector<double> scores_;
  std::vector<GradPair> grads_;
  std::map<int32_t, uint32_t> hist_epoch_;
  /// Each A party's exact histograms of the layer collected last, by node:
  /// the parents of the next layer's derived nodes (empty when no layer
  /// follows). Freed as they are used, when the tree ends and when the
  /// sessions resync.
  std::vector<std::map<int32_t, PlainHistogram>> a_plain_;
  obs::RemoteMetrics remote_metrics_;  ///< A-party snapshots (federation)
};

}  // namespace vf2boost

#endif  // VF2BOOST_FED_PARTY_B_H_

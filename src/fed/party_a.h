#ifndef VF2BOOST_FED_PARTY_A_H_
#define VF2BOOST_FED_PARTY_A_H_

#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "data/dataset.h"
#include "fed/enc_histogram.h"
#include "fed/inbox.h"
#include "fed/party_runtime.h"
#include "fed/protocol.h"
#include "obs/clock_sync.h"

namespace vf2boost {

/// \brief Party A: the passive (feature-only) party.
///
/// Consumes encrypted gradients, builds encrypted histograms (BuildHistA),
/// answers split queries with placement bitmaps, and — under the optimistic
/// protocol — pipelines one layer ahead of validation, rebuilding the
/// histograms of children invalidated by dirty-node corrections.
///
/// Run() executes the whole training conversation and returns when Party B
/// signals kTrainDone. Thread-compatible: one engine per thread.
class PartyAEngine : private PartyRuntime {
 public:
  /// `party_index` is this party's id (0-based among A parties).
  PartyAEngine(const FedConfig& config, const Dataset& data,
               MessagePort* channel, uint32_t party_index);

  Status Run();

 private:
  /// Bins this party's shard, then runs the first link's setup exchange.
  Status Setup();
  /// The setup exchange every link generation starts with: B's kPublicKey
  /// must be the first frame; A builds its cipher backend from it and
  /// answers with its feature layout and cuts digest (kLayout).
  Status ExchangeSetup();
  Status RunLoop();
  /// One top-level protocol step: receive kTrainDone (sets *done) or run one
  /// tree.
  Status RunOnce(bool* done);
  /// True when `st` is a transient link fault and the port can reconnect.
  bool CanRecover(const Status& st);
  /// Discards partial-tree state, re-establishes the session link and runs
  /// the setup exchange on it; B then replays the interrupted tree.
  Status Recover(const Status& cause);
  /// Piggybacks this party's cumulative metric snapshot to B (kMetricsDelta).
  void SendMetricsDelta(bool final_frame);
  /// Fires `count` kClockPing probes at B (sideband; answered with
  /// kClockPong, consumed by this engine's sideband handler). No-op unless
  /// config.clock_sync is on AND a trace recorder is installed, so message
  /// counts in untraced drills stay exact.
  void SendClockPings(int count);
  Status RunTree(Message first_grad_msg);
  Status ReceiveGradients(Message first, uint32_t* tree_id);
  Status BuildAndSendHist(uint32_t tree, uint32_t layer, int32_t node);
  /// An empty histogram builder over this tree's gradient streams.
  IncrementalHistogramBuilder NewHistogramBuilder();
  /// Checks that `node` is known and (feature, bin) is a split of this
  /// party's layout, then sends B the node's placement (kPlacement).
  Status SendPlacement(uint32_t tree, uint32_t layer, int32_t node,
                       uint32_t feature, uint32_t bin, bool default_left);
  Status HandleSplitQueries(const Message& msg);
  /// Applies B's resolved splits (kDecisions, or kOptPlacements ahead of
  /// validation) and builds the histograms of each split's smaller child
  /// (BuildsLeftChild); B derives the other child's. Children that already
  /// exist are an optimistic guess being corrected: their epochs are bumped
  /// and the built child is redone.
  Status HandleDecisions(const Message& msg);

  bool ChildrenNeedHists(uint32_t layer) const {
    // Children of layer `layer` live on layer+1; they get histograms only if
    // they can still be split (layer+1 <= L-2).
    return layer + 2 < static_cast<uint32_t>(config_.gbdt.num_layers);
  }

  const Dataset& data_;
  Inbox inbox_;
  uint32_t party_index_;

  BinCuts cuts_;
  BinnedMatrix binned_;
  FeatureLayout layout_;
  std::unique_ptr<CipherBackend> backend_;

  // Per-tree state.
  /// Gradient ciphers by row: {gh} in gh-packed mode, else {g, h}. The mode
  /// and gh layout are announced by the stream's first batch and fixed per
  /// tree.
  std::vector<std::vector<Cipher>> streams_;
  bool gh_mode_ = false;
  GhPackLayout gh_layout_;
  /// Root-node histogram accumulated batch by batch while the gradients
  /// stream in (overlaps with B's encryption); consumed by the layer-0 build.
  std::optional<IncrementalHistogramBuilder> root_builder_;
  double root_build_seconds_ = 0;
  std::unordered_map<int32_t, std::vector<uint32_t>> node_instances_;
  std::unordered_map<int32_t, uint32_t> hist_epoch_;
  uint32_t current_tree_ = 0;

  uint64_t metrics_seq_ = 0;  ///< kMetricsDelta sequence (engine lifetime)
  /// Clock alignment against B (borrowed from config.clock_sync_state when a
  /// driver shares one with the session layer, else privately owned).
  std::unique_ptr<obs::ClockSync> owned_clock_sync_;
  obs::ClockSync* clock_sync_ = nullptr;
};

}  // namespace vf2boost

#endif  // VF2BOOST_FED_PARTY_A_H_

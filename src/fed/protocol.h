#ifndef VF2BOOST_FED_PROTOCOL_H_
#define VF2BOOST_FED_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/bitmap.h"
#include "crypto/backend.h"
#include "crypto/packing.h"
#include "fed/channel.h"
#include "fed/message.h"
#include "gbdt/types.h"
#include "obs/metrics_registry.h"

namespace vf2boost {

namespace obs {
class ClockSync;
}  // namespace obs

/// \brief Everything that selects a protocol level and its knobs.
///
/// The four optimization flags correspond 1:1 to the paper's techniques;
/// with all four off this is the baseline SecureBoost-style protocol the
/// paper calls VF-GBDT (§6.3).
struct FedConfig {
  GbdtParams gbdt;

  /// Paillier modulus bits (paper: 2048; tests: 256-512).
  size_t paillier_bits = 512;
  /// Fixed-point codec base; Validate requires a power of two.
  uint32_t codec_base = 16;
  int codec_min_exponent = 8;
  /// Number of distinct random exponents E (paper observes 4-8).
  int codec_num_exponents = 4;

  /// VF-MOCK: run the identical protocol on plaintext arithmetic.
  bool mock_crypto = false;
  /// §4.1 blaster-style encryption: stream gradients in batches.
  bool blaster = false;
  size_t blaster_batch = 2048;
  /// §5.1 re-ordered histogram accumulation.
  bool reordered = false;
  /// §4.2 optimistic node-splitting with dirty-node rollback.
  bool optimistic = false;
  /// §5.2 polynomial-based histogram packing.
  bool packing = false;
  /// Cipher-level gh packing: Party B encodes each instance's (g, h) pair
  /// into ONE plaintext ([count|g|h] slots, see crypto/encoding.h) and
  /// encrypts once, halving the gradient-stream encryptions and transfers;
  /// Party A accumulates one cipher per instance per bin and B decrypts one
  /// plaintext per bin. Composes with `packing`: gh prefix sums are packed
  /// K-per-cipher with slot width = the gh layout's total width. The layout
  /// is sized at Setup from the row count and the loss's gradient/hessian
  /// bounds and fails fast (InvalidArgument) when it cannot fit the key.
  /// Trades away the randomized-exponent obfuscation of the unpacked stream
  /// (all gh slots share the codec's minimum exponent).
  bool gh_pack = false;
  /// Packing is skipped (raw histograms sent) when fewer than this many
  /// slots fit one cipher — packing a slot costs ~M squarings, so small keys
  /// can make it a net loss. The paper's S=2048/M=64 yields 31 slots.
  size_t min_pack_slots = 2;

  /// Intra-party data parallelism: each party runs this many workers over
  /// instance shards (paper §3.1 scheduler-worker layout). Histograms built
  /// by workers are merged into global ones (§3.2).
  size_t workers_per_party = 1;

  /// Nonces Party B's noise pool keeps ready (at most one tree's worth):
  /// one background thread pre-computes obfuscation nonces so Encrypt
  /// degenerates to one modular multiply (§4.1 pipelining extended one
  /// stage earlier), refilling as they are taken until the run's remaining
  /// trees are covered. 0 disables the pool (nonces computed inline).
  /// Ignored under mock_crypto.
  size_t noise_pool_capacity = 8192;

  NetworkConfig network;
  /// Optional per-A-party network overrides: channel p uses
  /// network_per_party[p] when present, `network` otherwise. Lets failure
  /// drills degrade or kill one party's link while the rest stay healthy.
  std::vector<NetworkConfig> network_per_party;
  const NetworkConfig& NetworkFor(size_t channel) const {
    return channel < network_per_party.size() ? network_per_party[channel]
                                              : network;
  }
  uint64_t seed = 42;

  /// Directory for durable tree-boundary checkpoints (see fed/checkpoint.h).
  /// Empty = checkpointing off. Party B writes party_b.ckpt after every
  /// completed tree; A parties keep no checkpoint and ignore this.
  std::string checkpoint_dir;
  /// Resume from the checkpoint in checkpoint_dir: Party B restores the
  /// completed ensemble, its running scores and the eval log, then training
  /// continues at the next tree. A missing checkpoint file means a fresh
  /// start; a fingerprint mismatch (different config or data) fails fast.
  bool resume = false;

  /// External metrics registry shared by every engine of the run. When null,
  /// FedTrainer provides a per-run registry internally (and engines built
  /// directly, e.g. in tests, create their own). All protocol counters and
  /// phase timings live in the registry, and FedTrainResult::metrics is its
  /// snapshot. Trace recording is orthogonal: install an obs::TraceRecorder
  /// globally (TraceRecorder::Install) before Train to capture spans.
  obs::MetricsRegistry* metrics = nullptr;

  /// Base port of the live ops HTTP servers (see obs/ops_server.h); 0 = off.
  /// In the in-process simulation Party B binds ops_port and A party i binds
  /// ops_port + 1 + i; a real one-process-per-party deployment gives each
  /// party its own flag value. Observability only — excluded from
  /// Fingerprint(), so two peers may disagree about it.
  int ops_port = 0;
  /// IPv4 address the ops servers bind ("127.0.0.1" default keeps the
  /// unauthenticated endpoints host-local; set "0.0.0.0" for remote
  /// scraping in multi-process deployments). Observability only — excluded
  /// from Fingerprint().
  std::string ops_bind = "127.0.0.1";
  /// Cross-party metric federation: each A party piggybacks a kMetricsDelta
  /// snapshot of its own registry entries over the training channel at every
  /// tree boundary (plus one final frame at shutdown), and Party B's ops
  /// endpoints expose the merged cluster view with per-party labels. Off by
  /// default because the extra frames shift message counts under
  /// fault-injection drills keyed on kill_after_messages. Observability only
  /// — excluded from Fingerprint().
  bool federate_metrics = false;
  /// Cross-process clock alignment: A parties send kClockPing bursts over
  /// the sideband path (answered by B with kClockPong) and the NTP-style
  /// offset estimate is embedded in trace files and exported as gauges.
  /// Pings only flow when a trace recorder is installed, so drills keyed on
  /// kill_after_messages see no extra frames. Observability only — excluded
  /// from Fingerprint().
  bool clock_sync = true;
  /// External clock-offset estimator for A-side engines (a multi-process
  /// driver shares one with its SessionChannel so hello handshakes seed the
  /// estimate). Null = the engine owns a private one. Observability only —
  /// excluded from Fingerprint().
  obs::ClockSync* clock_sync_state = nullptr;
  /// Stall watchdog budget in seconds: with a LiveStatus position unchanged
  /// for longer than this while the engine is nominally active, /healthz
  /// flips to 503 and the flight recorder dumps. 0 = watchdog off.
  /// Observability only — excluded from Fingerprint().
  double stall_budget_seconds = 0;

  FixedPointCodec MakeCodec() const {
    return FixedPointCodec(codec_base, codec_min_exponent,
                           codec_num_exponents);
  }

  /// Rejects configurations that would fail mid-protocol: too-small keys,
  /// empty codec ranges, degenerate GBDT parameters.
  Status Validate() const;

  /// FNV-1a digest of every field that determines the trained model. Stored
  /// in checkpoints and exchanged in session hellos: a resumed run (or a
  /// reconnected peer) with a different fingerprint would silently train a
  /// different model, so both paths reject the mismatch up front.
  uint64_t Fingerprint() const;

  /// Baseline protocol, every optimization off (the paper's VF-GBDT).
  static FedConfig VfGbdt() { return FedConfig{}; }
  /// All four optimizations on (the paper's VF²Boost), plus cipher-level
  /// gh packing of the gradient stream.
  static FedConfig Vf2Boost() {
    FedConfig c;
    c.blaster = true;
    c.reordered = true;
    c.optimistic = true;
    c.packing = true;
    c.gh_pack = true;
    return c;
  }
  /// VF-MOCK: VF-GBDT flow with plaintext arithmetic.
  static FedConfig VfMock() {
    FedConfig c;
    c.mock_crypto = true;
    return c;
  }
};

// --- payload codecs ---------------------------------------------------------
//
// Every cross-party payload has an Encode function producing a Message and a
// Decode function returning Status on corrupt input. Cipher fields need the
// backend for (de)serialization.

struct GradBatchPayload {
  uint32_t tree = 0;
  uint64_t start = 0;  ///< first instance index of the batch
  std::vector<Cipher> g;
  std::vector<Cipher> h;
  /// gh-packed form: one cipher per instance carrying the [count|g|h]
  /// plaintext of EncodeGhPair, plus the layout descriptor the receiver
  /// needs to accumulate and pack within the sized slot bounds. When set,
  /// `g`/`h` are empty and `gh_ciphers` holds the batch.
  bool gh = false;
  GhPackLayout gh_layout;
  std::vector<Cipher> gh_ciphers;
};
Message EncodeGradBatch(const GradBatchPayload& p, const CipherBackend& b);
/// ProtocolError for a classic cipher whose exponent is outside the codec's
/// range, or a gh cipher not at the layout's exponent.
Status DecodeGradBatch(const Message& m, const CipherBackend& b,
                       GradBatchPayload* p);

struct NodeHistogramPayload {
  uint32_t tree = 0;
  uint32_t layer = 0;
  int32_t node = 0;
  uint32_t epoch = 0;
  /// Wire format: (gh, packed) = (0,0) raw g/h bins, (0,1) §5.2-packed g/h
  /// prefix sums, (1,0) raw gh bins, (1,1) §5.2-packed gh prefix sums.
  bool packed = false;
  bool gh = false;
  // Raw form: one cipher per (feature, bin), flattened by the sender's
  // layout.
  std::vector<Cipher> g_bins;
  std::vector<Cipher> h_bins;
  // Packed form: per-feature prefix sums, shifted nonnegative, packed.
  double shift_g = 0;
  double shift_h = 0;
  std::vector<PackedCipher> g_packs;
  std::vector<PackedCipher> h_packs;
  // gh forms: one gh cipher per bin (raw), or per-feature gh prefix sums
  // packed K-per-cipher at slot width = the gh layout's total width. No
  // shift ciphers: gh slots are offset-encoded nonnegative by construction.
  std::vector<Cipher> gh_bins;
  std::vector<PackedCipher> gh_packs;
};
Message EncodeNodeHistogram(const NodeHistogramPayload& p,
                            const CipherBackend& b);
Status DecodeNodeHistogram(const Message& m, const CipherBackend& b,
                           NodeHistogramPayload* p);

/// Final, resolved action for one node of a layer (sequential decisions and
/// optimistic corrections both use this shape).
enum class NodeAction : uint8_t {
  kLeaf = 0,
  /// Split with the attached placement bitmap (owner irrelevant to the
  /// receiver: B resolves every split into a bitmap before broadcast).
  kSplitResolved = 1,
  /// Query: the receiving party owns this split; compute and return the
  /// placement (feature/bin are receiver-local).
  kSplitQuery = 2,
};

struct NodeDecision {
  int32_t node = 0;
  NodeAction action = NodeAction::kLeaf;
  int32_t left = -1;
  int32_t right = -1;
  Bitmap placement;  // kSplitResolved
  uint32_t feature = 0;
  uint32_t bin = 0;
  bool default_left = true;  // kSplitQuery
};

struct DecisionsPayload {
  uint32_t tree = 0;
  uint32_t layer = 0;
  std::vector<NodeDecision> decisions;
};
Message EncodeDecisions(const DecisionsPayload& p, MessageType type);
Status DecodeDecisions(const Message& m, DecisionsPayload* p);

struct PlacementPayload {
  uint32_t tree = 0;
  uint32_t layer = 0;
  int32_t node = 0;
  Bitmap placement;
};
Message EncodePlacement(const PlacementPayload& p);
Status DecodePlacement(const Message& m, PlacementPayload* p);

/// \brief kLayout body: an A party's answer to kPublicKey on every link
/// generation. Party B compares later generations' bytes with the first, so
/// a relaunched A on other data (other bins or other cut values) is refused.
struct LayoutPayload {
  std::vector<uint64_t> bins_per_feature;
  /// HashCuts of the sender's bin cuts; B only compares it for equality.
  uint64_t cuts_digest = 0;
};
Message EncodeLayout(const LayoutPayload& p);
Status DecodeLayout(const Message& m, LayoutPayload* p);

/// \brief kMetricsDelta body: one sender's cumulative metric snapshot.
///
/// Values are cumulative (not per-tree increments) and `seq` increases
/// monotonically per sender, so the frame is idempotent: replay under
/// retransmission or reconnect cannot double-count — the receiver keeps the
/// newest seq and drops the rest (obs::RemoteMetrics).
struct MetricsDeltaPayload {
  uint32_t party = 0;        ///< sender's A-party index
  uint64_t seq = 0;          ///< per-sender frame sequence, starts at 1
  bool final_frame = false;  ///< true on the frame sent after kTrainDone
  std::vector<obs::MetricSample> samples;
};
Message EncodeMetricsDelta(const MetricsDeltaPayload& p);
Status DecodeMetricsDelta(const Message& m, MetricsDeltaPayload* p);

}  // namespace vf2boost

#endif  // VF2BOOST_FED_PROTOCOL_H_

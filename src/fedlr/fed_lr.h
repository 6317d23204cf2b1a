#ifndef VF2BOOST_FEDLR_FED_LR_H_
#define VF2BOOST_FEDLR_FED_LR_H_

#include <vector>

#include "data/partition.h"
#include "fed/protocol.h"
#include "fedlr/lr_model.h"
#include "obs/metrics_registry.h"

namespace vf2boost {

/// \brief Vertical federated logistic regression — the paper's stated
/// future work (§5.1/§5.2 Discussions): both of VF²Boost's cryptography
/// customizations carried over to LR.
///
/// Protocol (two parties, no third-party coordinator, after [84]):
/// each party holds its own Paillier key pair. Per mini-batch (the batch
/// schedule is derived from the shared seed, so no index exchange):
///
///   1. A -> B: [[0.25 * u_A,i]] under A's key;
///      B -> A: [[0.25 * u_B,i - 0.5 * yhat_i]] under B's key
///      (the Taylor-surrogate residual, linear in the score).
///   2. Each party completes the other's stream into the full residual
///      [[z_i]] by homomorphically adding its own plaintext term, then
///      accumulates its per-feature gradient Sum_i x_ij (x) [[z_i]] under
///      the PEER's key — this is exactly the cipher-summation workload the
///      re-ordered accumulation (§5.1) accelerates.
///   3. The gradients are additively masked, optionally packed (§5.2), and
///      sent to the peer for decryption; the peer returns the masked
///      plaintexts, and the owner unmasks and applies the update.
///
/// Leakage: each party sees only ciphertexts under keys it cannot open,
/// plus statistically masked gradient aggregates of the peer's features.
struct FedLrConfig {
  LrParams lr;
  size_t paillier_bits = 512;
  uint32_t codec_base = 16;
  int codec_min_exponent = 6;
  int codec_num_exponents = 4;
  bool mock_crypto = false;
  /// §5.1 re-ordered accumulation of the gradient cipher sums.
  bool reordered = true;
  /// §5.2 packing of the masked gradient ciphers (falls back to raw when
  /// fewer than min_pack_slots slots fit the key).
  bool packing = true;
  size_t min_pack_slots = 2;
  NetworkConfig network;
  uint64_t seed = 42;

  Status Validate() const;
};

struct FedLrResult {
  /// Party-local weight vectors (each party keeps its own in deployment).
  std::vector<double> weights_a;
  std::vector<double> weights_b;
  double bias = 0;  ///< lives with the label owner (B)
  /// The run's counters once both parties have joined, under "party_a0/"
  /// and "party_b/" (encryptions, decryptions, hadds, scalings, packs and
  /// bytes_sent; see obs::PartySum).
  std::vector<obs::MetricSample> metrics;

  /// Joint evaluation view (harness only): weights mapped to global column
  /// ids per the training partition.
  Result<LrModel> ToJointModel(const VerticalSplitSpec& spec) const;
};

/// \brief Runs the two-party vertical LR protocol in-process (Party A on a
/// worker thread, Party B on the calling thread).
class FedLrTrainer {
 public:
  explicit FedLrTrainer(const FedLrConfig& config) : config_(config) {}

  /// party_a: features only; party_b: features + labels; rows aligned.
  Result<FedLrResult> Train(const Dataset& party_a,
                            const Dataset& party_b) const;

 private:
  FedLrConfig config_;
};

}  // namespace vf2boost

#endif  // VF2BOOST_FEDLR_FED_LR_H_

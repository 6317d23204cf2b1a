#ifndef VF2BOOST_FED_ENC_HISTOGRAM_H_
#define VF2BOOST_FED_ENC_HISTOGRAM_H_

#include <vector>

#include "common/result.h"
#include "crypto/accumulator.h"
#include "crypto/backend.h"
#include "crypto/encoding.h"
#include "crypto/packing.h"
#include "data/binning.h"
#include "common/threadpool.h"
#include "gbdt/histogram.h"

namespace vf2boost {

/// \brief Party A's core data structure: one gradient/hessian cipher per
/// (feature, bin), flattened by A's FeatureLayout. In gh-packed mode the
/// per-bin accumulation lives in `gh_bins` (one [count|g|h] cipher per bin)
/// and `g_bins`/`h_bins` stay empty.
struct EncryptedHistogram {
  std::vector<Cipher> g_bins;
  std::vector<Cipher> h_bins;
  std::vector<Cipher> gh_bins;
};

/// Builds the encrypted histogram of one tree node by scanning the node's
/// instances and homomorphically accumulating their gradient ciphers
/// (BuildHistA). `reordered` selects the §5.1 per-exponent-workspace
/// accumulation; stats (HAdds/scalings) accumulate into *stats when given.
EncryptedHistogram BuildEncryptedHistogram(
    const BinnedMatrix& x, const FeatureLayout& layout,
    const std::vector<uint32_t>& instances, const std::vector<Cipher>& g,
    const std::vector<Cipher>& h, const CipherBackend& backend, bool reordered,
    AccumulatorStats* stats);

/// \brief Stateful histogram accumulation for blaster streaming: rows are
/// added as their gradient ciphers arrive, so Party A overlaps root-node
/// accumulation with Party B's encryption of later batches (the Fig. 4
/// pipeline). Adding the same rows in the same order as
/// BuildEncryptedHistogram and then calling Finalize yields the identical
/// histogram and identical HAdd/scaling counts.
class IncrementalHistogramBuilder {
 public:
  /// `gh` switches the builder into gh-packed mode: one accumulator per bin
  /// (fed by AddRowGh/AddRangeGh) instead of the g/h pair.
  IncrementalHistogramBuilder(const BinnedMatrix* x,
                              const FeatureLayout* layout,
                              const CipherBackend* backend, bool reordered,
                              bool gh = false);

  /// Accumulates one instance; g/h are indexed by global row id.
  void AddRow(uint32_t row, const std::vector<Cipher>& g,
              const std::vector<Cipher>& h);
  /// Accumulates the contiguous row range [begin, end) — one grad batch.
  void AddRange(uint32_t begin, uint32_t end, const std::vector<Cipher>& g,
                const std::vector<Cipher>& h);

  /// gh-mode equivalents: one [count|g|h] cipher per instance.
  void AddRowGh(uint32_t row, const std::vector<Cipher>& gh);
  void AddRangeGh(uint32_t begin, uint32_t end,
                  const std::vector<Cipher>& gh);

  size_t rows_added() const { return rows_added_; }
  bool gh() const { return gh_; }

  /// Finalizes every bin accumulator. The builder is spent afterwards.
  EncryptedHistogram Finalize(AccumulatorStats* stats);

 private:
  const BinnedMatrix* x_;
  const FeatureLayout* layout_;
  bool gh_ = false;
  std::vector<std::unique_ptr<CipherAccumulator>> g_acc_;  // gh mode: the
                                                           // gh accumulators
  std::vector<std::unique_ptr<CipherAccumulator>> h_acc_;  // classic only
  size_t rows_added_ = 0;
};

/// Worker-parallel variant (paper §3: "the local histograms built by workers
/// are further aggregated into global ones"): instance shards build partial
/// histograms on the pool, which are then homomorphically merged. `pool`
/// may be null (falls back to the serial builder).
EncryptedHistogram BuildEncryptedHistogramParallel(
    const BinnedMatrix& x, const FeatureLayout& layout,
    const std::vector<uint32_t>& instances, const std::vector<Cipher>& g,
    const std::vector<Cipher>& h, const CipherBackend& backend, bool reordered,
    AccumulatorStats* stats, ThreadPool* pool);

/// gh-mode builds: `gh` holds one [count|g|h] cipher per instance; the
/// result's gh_bins carries one accumulated cipher per (feature, bin) —
/// half the HAdds of the classic build.
EncryptedHistogram BuildEncryptedHistogramGh(
    const BinnedMatrix& x, const FeatureLayout& layout,
    const std::vector<uint32_t>& instances, const std::vector<Cipher>& gh,
    const CipherBackend& backend, bool reordered, AccumulatorStats* stats);

EncryptedHistogram BuildEncryptedHistogramGhParallel(
    const BinnedMatrix& x, const FeatureLayout& layout,
    const std::vector<uint32_t>& instances, const std::vector<Cipher>& gh,
    const CipherBackend& backend, bool reordered, AccumulatorStats* stats,
    ThreadPool* pool);

/// Packed form of a node histogram: per-feature *prefix sums*, shifted
/// nonnegative, packed t-per-cipher (§5.2, Fig. 9). Prefix sums are packed —
/// not raw bins — because split finding consumes prefix sums anyway and the
/// shift then costs only one HAdd per feature.
struct PackedHistogram {
  double shift_g = 0;  ///< added to every g prefix before packing
  double shift_h = 0;  ///< ditto for h (0: hessians are already nonnegative)
  uint32_t slot_bits = 0;
  std::vector<PackedCipher> g_packs;
  std::vector<PackedCipher> h_packs;
};

/// Packs `hist` (A side). `num_instances` bounds the prefix magnitude, and
/// `grad_bound` is the loss's |g| bound (paper: logistic g in [-1, 1]).
/// Fails with InvalidArgument when fewer than `min_slots` slots of the
/// required width fit one cipher — callers then fall back to the raw form.
/// (Packing one slot costs ~M modular squarings, so it only pays off when a
/// cipher amortizes several decryptions. With M=64 a 2048-bit key holds 31
/// slots; the 105-bit gh slot of PackGhHistogram on a 2000-row node fits 18.)
/// Each stream is split into ceil(bins / capacity) packs whose slot counts
/// differ by at most one, and the independent pack chains run on `pool`
/// when given.
Result<PackedHistogram> PackHistogram(const EncryptedHistogram& hist,
                                      const FeatureLayout& layout,
                                      size_t num_instances, double grad_bound,
                                      const CipherBackend& backend,
                                      AccumulatorStats* stats,
                                      size_t min_slots = 2,
                                      ThreadPool* pool = nullptr);

/// B side: decrypts a raw (unpacked) histogram into plaintext GradPairs.
/// When `pool` is non-null the backend spreads the independent CRT
/// decryption halves across it.
Result<Histogram> DecryptRawHistogram(const std::vector<Cipher>& g_bins,
                                      const std::vector<Cipher>& h_bins,
                                      const FeatureLayout& layout,
                                      const CipherBackend& backend,
                                      size_t* decryptions,
                                      ThreadPool* pool = nullptr);

/// B side: decrypts a packed histogram — one decryption per pack,
/// batch-parallelized over `pool` when given — and reconstructs per-bin
/// GradPairs from the prefix sums. Before decrypting, every pack must pass
/// ValidatePackedShape and carry the slot width `packed.slot_bits` (the
/// first g pack's width when that is 0: the wire does not carry it), and
/// each of the g and h streams must hold exactly layout.total_bins() slots;
/// ProtocolError otherwise.
Result<Histogram> DecryptPackedHistogram(const PackedHistogram& packed,
                                         const FeatureLayout& layout,
                                         const CipherBackend& backend,
                                         size_t* decryptions,
                                         ThreadPool* pool = nullptr);

/// §5.2 packing composed on top of cipher-level gh packing: per-feature
/// *prefix sums* of the per-bin gh ciphers, then several bins per cipher at
/// slot width gh_layout.total_bits(). gh slots are offset-encoded
/// nonnegative and slot-additive, so — unlike PackHistogram — no shift
/// cipher is needed. Fails with InvalidArgument when fewer than
/// max(2, min_slots) bins of that width fit one cipher; callers fall back
/// to the raw gh form. Packs are balanced and run on `pool` as in
/// PackHistogram.
Result<std::vector<PackedCipher>> PackGhHistogram(
    const EncryptedHistogram& hist, const FeatureLayout& layout,
    const GhPackLayout& gh_layout, const CipherBackend& backend,
    AccumulatorStats* stats, size_t min_slots = 2, ThreadPool* pool = nullptr);

/// B side: decrypts a raw gh histogram (one [count|g|h] cipher per bin) —
/// half the decryptions of DecryptRawHistogram.
Result<Histogram> DecryptRawGhHistogram(const std::vector<Cipher>& gh_bins,
                                        const FeatureLayout& layout,
                                        const GhPackLayout& gh_layout,
                                        const CipherBackend& backend,
                                        size_t* decryptions,
                                        ThreadPool* pool = nullptr);

/// B side: decrypts a §5.2-packed gh histogram (per-feature prefix sums of
/// gh bins) and reconstructs per-bin GradPairs by prefix differencing.
/// Packs are checked as in DecryptPackedHistogram, against the slot width
/// gh_layout.total_bits().
Result<Histogram> DecryptPackedGhHistogram(
    const std::vector<PackedCipher>& gh_packs, const FeatureLayout& layout,
    const GhPackLayout& gh_layout, const CipherBackend& backend,
    size_t* decryptions, ThreadPool* pool = nullptr);

}  // namespace vf2boost

#endif  // VF2BOOST_FED_ENC_HISTOGRAM_H_

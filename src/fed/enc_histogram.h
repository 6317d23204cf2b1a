#ifndef VF2BOOST_FED_ENC_HISTOGRAM_H_
#define VF2BOOST_FED_ENC_HISTOGRAM_H_

#include <memory>
#include <span>
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

/// \brief Party A's histogram builder (BuildHistA): folds the gradient
/// ciphers of a node's instances into one accumulator per (stream, bin).
///
/// A tree carries one cipher stream (gh-packed: one [count|g|h] cipher per
/// instance) or two (classic: g and h). Rows may be added in several calls,
/// so the root histogram grows batch by batch while Party B is still
/// encrypting later batches (the Fig. 4 pipeline). Each Add splits its rows
/// into contiguous shards, one per pool worker, and every shard keeps its
/// own accumulators; Finalize merges the shards homomorphically (paper §3:
/// "the local histograms built by workers are further aggregated into
/// global ones"). The sharding changes which ciphers are summed first, so
/// the result decrypts to the same histogram whatever the pool size or
/// batching, but its cipher bytes and HAdd/scaling counts may differ.
class IncrementalHistogramBuilder {
 public:
  /// `streams` is {gh} or {g, h}, each indexed by global row id; the
  /// vectors must outlive the builder. `reordered` selects the §5.1
  /// per-exponent-workspace accumulation. `pool` may be null.
  IncrementalHistogramBuilder(const BinnedMatrix* x,
                              const FeatureLayout* layout,
                              const CipherBackend* backend, bool reordered,
                              std::vector<const std::vector<Cipher>*> streams,
                              ThreadPool* pool);

  /// Accumulates the instances `rows`, spread over the pool's workers.
  void Add(std::span<const uint32_t> rows);

  /// Merges the worker shards into one histogram: gh_bins for a gh stream,
  /// g_bins/h_bins for a classic pair. HAdd/scaling counts accumulate into
  /// *stats when given. The builder is spent afterwards.
  EncryptedHistogram Finalize(AccumulatorStats* stats);

 private:
  using Accumulators = std::vector<std::unique_ptr<CipherAccumulator>>;
  /// Shard `s`'s accumulators, indexed bin * streams + stream; created on
  /// first use.
  Accumulators& Shard(size_t s);
  void AddToShard(size_t s, std::span<const uint32_t> rows);

  const BinnedMatrix* x_;
  const FeatureLayout* layout_;
  const CipherBackend* backend_;
  bool reordered_;
  std::vector<const std::vector<Cipher>*> streams_;
  ThreadPool* pool_;
  std::vector<Accumulators> shards_;  // one per worker; empty until used
};

/// One-shot builds over `instances`, for a classic g/h pair and for a gh
/// stream: a builder fed the whole instance list at once.
EncryptedHistogram BuildEncryptedHistogramParallel(
    const BinnedMatrix& x, const FeatureLayout& layout,
    const std::vector<uint32_t>& instances, const std::vector<Cipher>& g,
    const std::vector<Cipher>& h, const CipherBackend& backend, bool reordered,
    AccumulatorStats* stats, ThreadPool* pool);

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

// ---------------------------------------------------------------------------
// Party B: decryption, in two stages
// ---------------------------------------------------------------------------

/// One decrypted histogram value before decoding: a plaintext in [0, n) and
/// the exponent it is encoded at (a gh plaintext's exponent is its layout's).
struct PlainValue {
  BigInt value;
  int32_t exponent = 0;
};

/// B side: a node histogram's exact plaintexts, the stage between decryption
/// and decoding. Classic: `g` and `h` hold one value per layout bin, each at
/// the exponent A's sum reached (the largest among the bin's rows); a packed
/// histogram is unpacked to per-bin values at the pack exponent. gh: `g`
/// holds one [count|g|h] plaintext per bin and `h` is empty. Sibling
/// subtraction (DeriveSibling) works on this form, before any rounding.
struct PlainHistogram {
  bool gh = false;
  /// Classic only: the values were unpacked from §5.2 packs, so every bin
  /// sits at the pack exponent rather than at its own.
  bool packed = false;
  std::vector<PlainValue> g;
  std::vector<PlainValue> h;
};

/// B side, first stage: decrypts a raw classic histogram (one g and one h
/// cipher per bin). When `pool` is non-null the backend spreads the
/// independent CRT decryption halves across it. ProtocolError when the bin
/// counts do not match `layout`.
Result<PlainHistogram> DecryptRawPlain(const std::vector<Cipher>& g_bins,
                                       const std::vector<Cipher>& h_bins,
                                       const FeatureLayout& layout,
                                       const CipherBackend& backend,
                                       size_t* decryptions,
                                       ThreadPool* pool = nullptr);

/// Decrypts a packed classic histogram (one decryption per pack) and
/// differences its prefix slots into exact per-bin values. Before
/// decrypting, every pack must pass ValidatePackedShape and carry the codec's
/// max exponent and the slot width `packed.slot_bits` (the first g pack's
/// width when that is 0: the wire does not carry it), each of the g and h
/// streams must hold exactly layout.total_bins() slots, and each shift must
/// fit a slot; ProtocolError otherwise.
Result<PlainHistogram> DecryptPackedPlain(const PackedHistogram& packed,
                                          const FeatureLayout& layout,
                                          const CipherBackend& backend,
                                          size_t* decryptions,
                                          ThreadPool* pool = nullptr);

/// Decrypts a raw gh histogram (one [count|g|h] cipher per bin), half the
/// decryptions of DecryptRawPlain.
Result<PlainHistogram> DecryptRawGhPlain(const std::vector<Cipher>& gh_bins,
                                         const FeatureLayout& layout,
                                         const CipherBackend& backend,
                                         size_t* decryptions,
                                         ThreadPool* pool = nullptr);

/// Decrypts a §5.2-packed gh histogram (per-feature prefix sums of gh bins)
/// and differences the prefixes into per-bin gh plaintexts. Packs are checked
/// as in DecryptPackedPlain, against the slot width gh_layout.total_bits()
/// and the exponent gh_layout.exponent.
Result<PlainHistogram> DecryptPackedGhPlain(
    const std::vector<PackedCipher>& gh_packs, const FeatureLayout& layout,
    const GhPackLayout& gh_layout, const CipherBackend& backend,
    size_t* decryptions, ThreadPool* pool = nullptr);

/// B side, second stage: decodes every value once, classic ones with the
/// codec at their exponent and gh ones with DecodeGhSlots (whose Corruption
/// it passes on). `gh_layout` is read for gh histograms only.
Result<Histogram> DecodePlainHistogram(const PlainHistogram& plain,
                                       const GhPackLayout& gh_layout,
                                       const CipherBackend& backend);

/// Sibling subtraction on B: the histogram of the child A did not build,
/// parent − built, per value mod n. Classic values are first aligned to the
/// larger exponent with the codec's ScaleFactor. An honest A never gives a
/// built raw bin an exponent above its parent's, since a bin's exponent is
/// the largest among its rows, so that is a ProtocolError; a packed built
/// histogram sits at the pack exponent, and then the parent is scaled up.
/// A gh subtraction that borrows leaves a plaintext DecodeGhSlots rejects.
///
/// The result decodes to the same doubles, bit for bit, as A's own
/// histogram of that child would: gh plaintexts are equal outright, and a
/// classic value scaled by B^k decodes alike when the codec base is a power
/// of two, since BigInt::ToDouble rounds once at any size and the division
/// by B^e is exact. FedConfig::Validate accepts only such bases.
Result<PlainHistogram> DeriveSibling(const PlainHistogram& parent,
                                     const PlainHistogram& built,
                                     const CipherBackend& backend);

/// One-call forms of the two stages (decrypt, then decode), for each wire
/// form of a node histogram.
Result<Histogram> DecryptRawHistogram(const std::vector<Cipher>& g_bins,
                                      const std::vector<Cipher>& h_bins,
                                      const FeatureLayout& layout,
                                      const CipherBackend& backend,
                                      size_t* decryptions,
                                      ThreadPool* pool = nullptr);
Result<Histogram> DecryptPackedHistogram(const PackedHistogram& packed,
                                         const FeatureLayout& layout,
                                         const CipherBackend& backend,
                                         size_t* decryptions,
                                         ThreadPool* pool = nullptr);
Result<Histogram> DecryptRawGhHistogram(const std::vector<Cipher>& gh_bins,
                                        const FeatureLayout& layout,
                                        const GhPackLayout& gh_layout,
                                        const CipherBackend& backend,
                                        size_t* decryptions,
                                        ThreadPool* pool = nullptr);
Result<Histogram> DecryptPackedGhHistogram(
    const std::vector<PackedCipher>& gh_packs, const FeatureLayout& layout,
    const GhPackLayout& gh_layout, const CipherBackend& backend,
    size_t* decryptions, ThreadPool* pool = nullptr);

}  // namespace vf2boost

#endif  // VF2BOOST_FED_ENC_HISTOGRAM_H_

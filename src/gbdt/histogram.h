#ifndef VF2BOOST_GBDT_HISTOGRAM_H_
#define VF2BOOST_GBDT_HISTOGRAM_H_

#include <cstdint>
#include <vector>

#include "data/binning.h"
#include "gbdt/types.h"

namespace vf2boost {

/// \brief Flat addressing of (feature, bin) pairs into one array.
struct FeatureLayout {
  /// offsets[f] is the flat index of feature f's bin 0; offsets.back() is
  /// the total bin count.
  std::vector<uint32_t> offsets;

  static FeatureLayout FromCuts(const BinCuts& cuts);

  size_t num_features() const { return offsets.size() - 1; }
  size_t total_bins() const { return offsets.back(); }
  size_t NumBins(uint32_t f) const { return offsets[f + 1] - offsets[f]; }
  size_t Flat(uint32_t f, uint32_t bin) const { return offsets[f] + bin; }
};

/// Sibling subtraction's one rule, shared by the plain trainer and both
/// federated parties: of a split's two children the one with fewer instances
/// gets its histograms built, and the other's are derived as parent − built;
/// the left child on a tie. Returns true when the left child is the built
/// one.
inline bool BuildsLeftChild(size_t left_rows, size_t right_rows) {
  return left_rows <= right_rows;
}

/// \brief Plaintext gradient histogram: one GradPair per (feature, bin).
///
/// This is the structure Party B builds over its own features, and the
/// plaintext twin of the encrypted histograms Party A builds (src/fed).
class Histogram {
 public:
  Histogram() = default;
  explicit Histogram(size_t total_bins) : bins_(total_bins) {}

  size_t size() const { return bins_.size(); }
  const GradPair& bin(size_t i) const { return bins_[i]; }
  GradPair& bin(size_t i) { return bins_[i]; }

  /// Accumulates the gradient statistics of `instances` by scanning their
  /// nonzero (feature, bin) entries.
  static Histogram Build(const BinnedMatrix& x, const FeatureLayout& layout,
                         const std::vector<uint32_t>& instances,
                         const std::vector<GradPair>& grads);

  /// Sibling derivation: this := parent - this (paper §7 mentions the
  /// histogram-subtraction technique as a reason for layer-wise growth).
  void SubtractFrom(const Histogram& parent);

  /// Sum over one feature's bins (equals the node total minus that
  /// feature's missing statistics).
  GradPair FeatureSum(const FeatureLayout& layout, uint32_t f) const;

 private:
  std::vector<GradPair> bins_;
};

}  // namespace vf2boost

#endif  // VF2BOOST_GBDT_HISTOGRAM_H_

#ifndef VF2BOOST_DATA_BINNING_H_
#define VF2BOOST_DATA_BINNING_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "data/matrix.h"

namespace vf2boost {

/// \brief Per-feature quantile cut points (the candidate splits).
///
/// Cuts are computed over *nonzero* values only; sparse zeros are treated as
/// missing and routed by each split's default direction — the standard
/// sparsity-aware trick (XGBoost §3.4, LightGBM), required here because the
/// paper's datasets go down to 0.03% density.
struct BinCuts {
  /// cuts[f] is ascending and deduplicated; feature f has cuts[f].size()+1
  /// value bins.
  std::vector<std::vector<float>> cuts;

  size_t num_features() const { return cuts.size(); }
  /// Number of value bins of feature f.
  size_t NumBins(uint32_t f) const { return cuts[f].size() + 1; }
  /// Bin of a nonzero value v: the count of cuts <= v.
  uint32_t BinOf(uint32_t f, float v) const;
  /// Split value of candidate `bin` (rule: nonzero v goes left iff
  /// v < SplitValue). Valid for bin < cuts[f].size().
  float SplitValue(uint32_t f, uint32_t bin) const { return cuts[f][bin]; }

  /// Total bins across features (the histogram width per statistic).
  size_t TotalBins() const;
};

/// Proposes quantile cuts for every feature of X (at most max_bins bins).
BinCuts ComputeBinCuts(const CsrMatrix& x, size_t max_bins,
                       size_t sketch_capacity = 16384);

/// FNV-1a over every cut value: the identity of a party's split state.
uint64_t HashCuts(const BinCuts& cuts);

/// \brief CSR matrix with values replaced by bin indices — the layout the
/// histogram builders scan.
class BinnedMatrix {
 public:
  static BinnedMatrix FromCsr(const CsrMatrix& x, const BinCuts& cuts);

  size_t rows() const { return row_ptr_.size() - 1; }
  size_t columns() const { return num_columns_; }

  std::span<const uint32_t> RowColumns(size_t i) const {
    return {col_idx_.data() + row_ptr_[i], row_ptr_[i + 1] - row_ptr_[i]};
  }
  std::span<const uint16_t> RowBins(size_t i) const {
    return {bins_.data() + row_ptr_[i], row_ptr_[i + 1] - row_ptr_[i]};
  }

  /// The split-direction rule every layer routes rows by: a row missing
  /// `feature` goes to the split's default side, any other row goes left
  /// iff its bin is <= the split `bin`.
  bool GoesLeft(size_t row, uint32_t feature, uint32_t bin,
                bool default_left) const {
    const auto cols = RowColumns(row);
    const auto it = std::lower_bound(cols.begin(), cols.end(), feature);
    if (it == cols.end() || *it != feature) return default_left;
    return RowBins(row)[static_cast<size_t>(it - cols.begin())] <= bin;
  }

 private:
  size_t num_columns_ = 0;
  std::vector<size_t> row_ptr_{0};
  std::vector<uint32_t> col_idx_;
  std::vector<uint16_t> bins_;
};

}  // namespace vf2boost

#endif  // VF2BOOST_DATA_BINNING_H_

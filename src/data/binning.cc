#include "data/binning.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"
#include "data/quantile.h"

namespace vf2boost {

uint32_t BinCuts::BinOf(uint32_t f, float v) const {
  const auto& c = cuts[f];
  return static_cast<uint32_t>(
      std::upper_bound(c.begin(), c.end(), v) - c.begin());
}

size_t BinCuts::TotalBins() const {
  size_t total = 0;
  for (const auto& c : cuts) total += c.size() + 1;
  return total;
}

BinCuts ComputeBinCuts(const CsrMatrix& x, size_t max_bins,
                       size_t sketch_capacity) {
  VF2_CHECK(max_bins >= 2);
  std::vector<QuantileSketch> sketches;
  sketches.reserve(x.columns());
  for (size_t f = 0; f < x.columns(); ++f) {
    sketches.emplace_back(sketch_capacity, /*seed=*/1234 + f);
  }
  for (size_t r = 0; r < x.rows(); ++r) {
    const auto cols = x.RowColumns(r);
    const auto vals = x.RowValues(r);
    for (size_t k = 0; k < cols.size(); ++k) {
      sketches[cols[k]].Add(vals[k]);
    }
  }
  BinCuts out;
  out.cuts.reserve(x.columns());
  for (auto& sketch : sketches) {
    out.cuts.push_back(sketch.GetCuts(max_bins));
  }
  return out;
}

BinnedMatrix BinnedMatrix::FromCsr(const CsrMatrix& x, const BinCuts& cuts) {
  BinnedMatrix out;
  out.num_columns_ = x.columns();
  out.row_ptr_.reserve(x.rows() + 1);
  out.col_idx_.reserve(x.nnz());
  out.bins_.reserve(x.nnz());
  for (size_t r = 0; r < x.rows(); ++r) {
    const auto cols = x.RowColumns(r);
    const auto vals = x.RowValues(r);
    for (size_t k = 0; k < cols.size(); ++k) {
      out.col_idx_.push_back(cols[k]);
      out.bins_.push_back(
          static_cast<uint16_t>(cuts.BinOf(cols[k], vals[k])));
    }
    out.row_ptr_.push_back(out.col_idx_.size());
  }
  return out;
}

uint64_t HashCuts(const BinCuts& cuts) {
  uint64_t h = 1469598103934665603ULL;  // FNV offset basis
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;  // FNV prime
  };
  mix(cuts.cuts.size());
  for (const std::vector<float>& feature : cuts.cuts) {
    mix(feature.size());
    for (float c : feature) {
      uint32_t bits = 0;
      std::memcpy(&bits, &c, sizeof(bits));
      mix(bits);
    }
  }
  return h;
}

}  // namespace vf2boost

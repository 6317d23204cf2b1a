#ifndef VF2BOOST_DATA_MATRIX_H_
#define VF2BOOST_DATA_MATRIX_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/result.h"

namespace vf2boost {

/// One nonzero feature entry of an instance.
struct Entry {
  uint32_t column;
  float value;
};

/// \brief Immutable CSR (compressed sparse row) feature matrix.
///
/// Rows are instances, columns are features. All the paper's datasets are
/// sparse (rcv1 at 0.15%, the industrial set at 0.03% density), so both the
/// plain GBDT core and the federated engines operate on CSR throughout.
class CsrMatrix {
 public:
  CsrMatrix() = default;

  /// Builds from per-row entry lists. Columns within a row must be unique;
  /// they are sorted internally. `num_columns` may exceed any seen column.
  static Result<CsrMatrix> FromRows(
      const std::vector<std::vector<Entry>>& rows, size_t num_columns);

  size_t rows() const { return row_ptr_.empty() ? 0 : row_ptr_.size() - 1; }
  size_t columns() const { return num_columns_; }
  size_t nnz() const { return values_.size(); }
  /// Fraction of nonzero cells.
  double Density() const {
    const double cells = static_cast<double>(rows()) * columns();
    return cells == 0 ? 0.0 : nnz() / cells;
  }

  /// Nonzero column indices of row i (ascending).
  std::span<const uint32_t> RowColumns(size_t i) const {
    return {col_idx_.data() + row_ptr_[i], row_ptr_[i + 1] - row_ptr_[i]};
  }
  /// Matching values of row i.
  std::span<const float> RowValues(size_t i) const {
    return {values_.data() + row_ptr_[i], row_ptr_[i + 1] - row_ptr_[i]};
  }

  /// Value at (row, col); 0 for absent entries (binary search per call).
  float At(size_t row, uint32_t col) const;

  /// Projects onto a subset of columns, renumbering them 0..k-1 in the given
  /// order. Used for vertical partitioning across parties.
  CsrMatrix SelectColumns(const std::vector<uint32_t>& columns) const;

  /// Restricts to a subset of rows in the given order (e.g. PSI alignment,
  /// train/valid split).
  CsrMatrix SelectRows(const std::vector<size_t>& rows_subset) const;

 private:
  size_t num_columns_ = 0;
  std::vector<size_t> row_ptr_{0};
  std::vector<uint32_t> col_idx_;
  std::vector<float> values_;
};

}  // namespace vf2boost

#endif  // VF2BOOST_DATA_MATRIX_H_

#ifndef VF2BOOST_DATA_IO_H_
#define VF2BOOST_DATA_IO_H_

#include <string>

#include "common/result.h"
#include "data/dataset.h"

namespace vf2boost {

/// Reads a LIBSVM-format file (`label idx:val idx:val ...`, 0- or 1-based
/// indices auto-detected as 0-based; blank lines and '#' comments skipped).
/// num_columns of the result is max index + 1.
Result<Dataset> LoadLibsvm(const std::string& path);

/// Parses LIBSVM-format text directly (used by tests).
Result<Dataset> ParseLibsvm(const std::string& text);

/// Writes a dataset in LIBSVM format.
Status SaveLibsvm(const Dataset& data, const std::string& path);

}  // namespace vf2boost

#endif  // VF2BOOST_DATA_IO_H_

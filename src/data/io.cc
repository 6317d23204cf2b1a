#include "data/io.h"

#include <cstdlib>
#include <fstream>
#include <sstream>

namespace vf2boost {

namespace {

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

bool ParseFloat(const std::string& s, float* out) {
  char* end = nullptr;
  *out = std::strtof(s.c_str(), &end);
  return end != nullptr && *end == '\0' && end != s.c_str();
}

}  // namespace

Result<Dataset> ParseLibsvm(const std::string& text) {
  std::vector<std::vector<Entry>> rows;
  std::vector<float> labels;
  uint32_t max_col = 0;
  std::istringstream lines(text);
  std::string line;
  size_t lineno = 0;
  while (std::getline(lines, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream tokens(line);
    std::string tok;
    if (!(tokens >> tok)) continue;
    float label;
    if (!ParseFloat(tok, &label)) {
      return Status::Corruption("bad label at line " + std::to_string(lineno));
    }
    std::vector<Entry> row;
    while (tokens >> tok) {
      const size_t colon = tok.find(':');
      if (colon == std::string::npos) {
        return Status::Corruption("bad entry '" + tok + "' at line " +
                                  std::to_string(lineno));
      }
      char* end = nullptr;
      const long idx = std::strtol(tok.substr(0, colon).c_str(), &end, 10);
      float value;
      if (idx < 0 || !ParseFloat(tok.substr(colon + 1), &value)) {
        return Status::Corruption("bad entry '" + tok + "' at line " +
                                  std::to_string(lineno));
      }
      const uint32_t col = static_cast<uint32_t>(idx);
      max_col = std::max(max_col, col);
      if (value != 0.0f) row.push_back({col, value});
    }
    rows.push_back(std::move(row));
    labels.push_back(label);
  }
  Dataset out;
  auto m = CsrMatrix::FromRows(rows, rows.empty() ? 0 : max_col + 1);
  VF2_RETURN_IF_ERROR(m.status());
  out.features = std::move(m).value();
  out.labels = std::move(labels);
  return out;
}

Result<Dataset> LoadLibsvm(const std::string& path) {
  auto text = ReadFile(path);
  VF2_RETURN_IF_ERROR(text.status());
  return ParseLibsvm(text.value());
}

Status SaveLibsvm(const Dataset& data, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open " + path + " for writing");
  for (size_t r = 0; r < data.rows(); ++r) {
    out << (data.has_labels() ? data.labels[r] : 0.0f);
    const auto cols = data.features.RowColumns(r);
    const auto vals = data.features.RowValues(r);
    for (size_t k = 0; k < cols.size(); ++k) {
      out << ' ' << cols[k] << ':' << vals[k];
    }
    out << '\n';
  }
  return out.good() ? Status::OK() : Status::IOError("write failed: " + path);
}

}  // namespace vf2boost

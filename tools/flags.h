#ifndef VF2BOOST_TOOLS_FLAGS_H_
#define VF2BOOST_TOOLS_FLAGS_H_

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace vf2boost {
namespace tools {

/// \brief Minimal --key=value / --key value command-line parser for the CLI
/// tools. Unknown flags abort with a message so typos never silently use
/// defaults.
class Flags {
 public:
  Flags(int argc, char** argv, const std::map<std::string, std::string>& spec)
      : spec_(spec) {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        Die("positional arguments are not supported: " + arg);
      }
      arg = arg.substr(2);
      std::string key, value;
      const size_t eq = arg.find('=');
      if (eq != std::string::npos) {
        key = arg.substr(0, eq);
        value = arg.substr(eq + 1);
      } else {
        key = arg;
        if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
          value = argv[++i];
        } else {
          value = "true";  // boolean flag
        }
      }
      if (key == "help") {
        PrintHelp();
        std::exit(0);
      }
      if (spec_.find(key) == spec_.end()) Die("unknown flag --" + key);
      values_[key] = value;
    }
  }

  bool Has(const std::string& key) const { return values_.count(key) > 0; }

  std::string GetString(const std::string& key,
                        const std::string& fallback = "") const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  /// Decimal, or hexadecimal after a 0x prefix (--fault-seed 0x5eed). A
  /// value that is not one whole integer aborts naming the flag.
  long GetInt(const std::string& key, long fallback) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    const std::string& v = it->second;
    const bool hex =
        v.size() > 2 && v[0] == '0' && (v[1] == 'x' || v[1] == 'X');
    const char* last = v.data() + v.size();
    long n = 0;
    const auto [end, ec] =
        std::from_chars(v.data() + (hex ? 2 : 0), last, n, hex ? 16 : 10);
    if (ec != std::errc() || end != last) BadValue(key, "an integer");
    return n;
  }
  /// Any finite strtod number; anything else aborts naming the flag.
  double GetDouble(const std::string& key, double fallback) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    const char* v = it->second.c_str();
    char* end = nullptr;
    errno = 0;
    const double d = std::strtod(v, &end);
    if (end == v || *end != '\0' || errno == ERANGE || !std::isfinite(d)) {
      BadValue(key, "a number");
    }
    return d;
  }
  /// `<prefix><decimal index>`, e.g. --party a1 with prefix 'a'; anything
  /// else aborts naming the flag. The flag must be present.
  size_t GetIndexed(const std::string& key, char prefix) const {
    const std::string v = GetString(key);
    unsigned long n = 0;
    if (v.empty() || v[0] != prefix ||
        !ParseDecimal(std::string_view(v).substr(1), &n)) {
      BadValue(key, std::string(1, prefix) + "<index>");
    }
    return n;
  }
  /// `HOST:PORT` with a decimal PORT in [1, 65535]; anything else aborts
  /// naming the flag. The flag must be present.
  std::pair<std::string, int> GetHostPort(const std::string& key) const {
    const std::string v = GetString(key);
    const size_t colon = v.rfind(':');
    unsigned long port = 0;
    if (colon == std::string::npos || colon == 0 ||
        !ParseDecimal(std::string_view(v).substr(colon + 1), &port) ||
        port < 1 || port > 65535) {
      BadValue(key, "HOST:PORT with PORT in [1, 65535]");
    }
    return {v.substr(0, colon), static_cast<int>(port)};
  }
  bool GetBool(const std::string& key, bool fallback = false) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    return it->second == "true" || it->second == "1";
  }

  /// Aborts unless every listed flag was provided.
  void Require(const std::vector<std::string>& keys) const {
    for (const auto& key : keys) {
      if (!Has(key)) Die("missing required flag --" + key);
    }
  }

  void PrintHelp() const {
    std::fprintf(stderr, "flags:\n");
    for (const auto& [key, doc] : spec_) {
      std::fprintf(stderr, "  --%-18s %s\n", key.c_str(), doc.c_str());
    }
  }

 private:
  /// True when `v` is one whole unsigned decimal number that fits `*n`.
  static bool ParseDecimal(std::string_view v, unsigned long* n) {
    const char* last = v.data() + v.size();
    const auto [end, ec] = std::from_chars(v.data(), last, *n);
    return ec == std::errc() && end == last;
  }

  void BadValue(const std::string& key, const std::string& what) const {
    Die("--" + key + " wants " + what + ", got '" + GetString(key) + "'");
  }

  void Die(const std::string& msg) const {
    std::fprintf(stderr, "error: %s\n", msg.c_str());
    PrintHelp();
    std::exit(2);
  }

  std::map<std::string, std::string> spec_;
  std::map<std::string, std::string> values_;
};

/// Reads the whole file at `path` into *out. On failure returns false and,
/// unless `quiet`, prints "cannot read <path>" to stderr.
inline bool ReadFile(const std::string& path, std::string* out,
                     bool quiet = false) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (!quiet) std::fprintf(stderr, "cannot read %s\n", path.c_str());
    return false;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

}  // namespace tools
}  // namespace vf2boost

#endif  // VF2BOOST_TOOLS_FLAGS_H_

#ifndef VF2BOOST_OBS_METRICS_REGISTRY_H_
#define VF2BOOST_OBS_METRICS_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace vf2boost {
namespace obs {

/// \brief Monotonically increasing event count. All operations are lock-free
/// relaxed atomics: safe to hammer from any number of threads.
class Counter {
 public:
  void Add(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// \brief Last-set instantaneous value (queue depth, pool fill level).
/// Set/Add/value are thread-safe; Set is last-writer-wins.
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double d) {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + d,
                                         std::memory_order_relaxed)) {
    }
  }
  /// Raises the gauge to v if v is larger (high-water marks).
  void Max(double v) {
    double cur = value_.load(std::memory_order_relaxed);
    while (cur < v && !value_.compare_exchange_weak(
                          cur, v, std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0};
};

/// \brief Latency histogram over exponential buckets.
///
/// Bucket i counts observations <= first_upper * growth^i; one overflow
/// bucket catches the rest. Defaults cover 1us .. ~18min in x2 steps, which
/// spans every protocol phase this codebase times. Observe is wait-free
/// except for the CAS loops maintaining sum/min/max.
class Histogram {
 public:
  static constexpr size_t kBuckets = 40;

  explicit Histogram(double first_upper = 1e-6, double growth = 2.0)
      : first_upper_(first_upper), growth_(growth) {}

  void Observe(double v);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double min() const;  ///< 0 when empty
  double max() const { return max_.load(std::memory_order_relaxed); }
  double mean() const;
  /// Upper bound of bucket i (inclusive).
  double BucketUpper(size_t i) const;
  uint64_t BucketCount(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  double first_upper() const { return first_upper_; }
  double growth() const { return growth_; }

 private:
  const double first_upper_;
  const double growth_;
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0};
  std::atomic<double> min_{1e300};  // sentinel until the first Observe
  std::atomic<double> max_{0};
  std::atomic<uint64_t> buckets_[kBuckets + 1] = {};  // +1 = overflow
};

/// \brief Point-in-time copy of one registry entry.
///
/// The wire- and exporter-facing view of a metric: plain data, no atomics,
/// trivially serializable. Histogram samples carry the full bucket vector
/// (kBuckets + 1 entries, last = overflow) plus the bucket-ladder parameters
/// so a remote renderer can reconstruct the exact upper bounds.
struct MetricSample {
  enum class Kind : uint8_t { kCounter = 0, kGauge = 1, kHistogram = 2, kValue = 3 };

  std::string name;
  Kind kind = Kind::kValue;
  std::string unit;
  double value = 0;  ///< counter / gauge / value kinds

  // Histogram kind only.
  uint64_t count = 0;
  double sum = 0;
  double min = 0;
  double max = 0;
  double first_upper = 0;
  double growth = 0;
  std::vector<uint64_t> buckets;
};

/// Adds up `<party>/<name>` over every sample whose party (the name up to
/// its first '/') starts with `party_prefix`: "party_" selects every party,
/// "party_a" the A parties, "party_b" Party B. A counter or gauge
/// contributes its value, a histogram its sum; an absent name gives 0.
double PartySum(const std::vector<MetricSample>& samples,
                const std::string& party_prefix, const std::string& name);

/// Inserts a party suffix before the path's extension so per-party artifact
/// files from a multi-process run never collide in a shared directory:
///   PartyArtifactPath("out/metrics.json", "party_b") == "out/metrics.party_b.json"
///   PartyArtifactPath("trace", "party_a0")           == "trace.party_a0"
std::string PartyArtifactPath(const std::string& path,
                              const std::string& party);

/// \brief Thread-safe name -> metric registry with a flat JSON exporter.
///
/// Get* creates on first use and returns a pointer that stays valid for the
/// registry's lifetime, so hot paths resolve their handles once and then
/// touch only atomics. The exported JSON keeps the same minimal shape the
/// bench harness has always written —
///   {"benchmarks": [{"name": ..., "value": ..., "unit": ...}, ...]}
/// — so CI diff scripts need no JSON library and no migration. Histograms
/// export sum/count/mean/min/max as separate flat entries.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name, const std::string& unit = "");
  /// Histogram of seconds (phase latencies).
  Histogram* GetHistogram(const std::string& name);

  /// One-shot named value with a unit (the legacy bench-emitter call shape).
  /// Re-setting the same name overwrites.
  void SetValue(const std::string& name, double value,
                const std::string& unit);

  bool empty() const;
  size_t size() const;

  /// Point-in-time copy of every entry whose name starts with `prefix`
  /// ("" = all), in registration order. Values are read with the same relaxed
  /// loads the JSON exporter uses, so a snapshot is safe concurrently with
  /// writers — it is a consistent-enough view for observability, not a
  /// linearizable one.
  std::vector<MetricSample> Snapshot(const std::string& prefix = "") const;

  /// Flat JSON of every entry whose name starts with `prefix` ("" = all).
  std::string ToJson(const std::string& prefix = "") const;
  /// Writes ToJson(prefix) to `path`; logs and returns false on I/O failure.
  bool WriteJson(const std::string& path,
                 const std::string& prefix = "") const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram, kValue };
  struct Entry {
    Kind kind;
    std::string unit;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
    double value = 0;  // kValue
  };

  Entry* Find(const std::string& name, Kind kind);

  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;
  std::vector<std::string> order_;  ///< registration order for stable export
};

}  // namespace obs
}  // namespace vf2boost

#endif  // VF2BOOST_OBS_METRICS_REGISTRY_H_

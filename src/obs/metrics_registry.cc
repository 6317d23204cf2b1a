#include "obs/metrics_registry.h"

#include <cmath>
#include <cstdio>

#include "common/logging.h"

namespace vf2boost {
namespace obs {

void Histogram::Observe(double v) {
  count_.fetch_add(1, std::memory_order_relaxed);
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + v,
                                     std::memory_order_relaxed)) {
  }
  cur = min_.load(std::memory_order_relaxed);
  while (v < cur &&
         !min_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
  cur = max_.load(std::memory_order_relaxed);
  while (v > cur &&
         !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
  size_t i = 0;
  double upper = first_upper_;
  while (i < kBuckets && v > upper) {
    upper *= growth_;
    ++i;
  }
  buckets_[i].fetch_add(1, std::memory_order_relaxed);
}

double Histogram::min() const {
  return count() == 0 ? 0 : min_.load(std::memory_order_relaxed);
}

double Histogram::mean() const {
  const uint64_t n = count();
  return n == 0 ? 0 : sum() / static_cast<double>(n);
}

double Histogram::BucketUpper(size_t i) const {
  return first_upper_ * std::pow(growth_, static_cast<double>(i));
}

MetricsRegistry::Entry* MetricsRegistry::Find(const std::string& name,
                                              Kind kind) {
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    Entry e;
    e.kind = kind;
    switch (kind) {
      case Kind::kCounter:
        e.counter = std::make_unique<Counter>();
        break;
      case Kind::kGauge:
        e.gauge = std::make_unique<Gauge>();
        break;
      case Kind::kHistogram:
        e.histogram = std::make_unique<Histogram>();
        break;
      case Kind::kValue:
        break;
    }
    it = entries_.emplace(name, std::move(e)).first;
    order_.push_back(name);
  }
  VF2_CHECK(it->second.kind == kind)
      << "metric '" << name << "' re-registered with a different kind";
  return &it->second;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return Find(name, Kind::kCounter)->counter.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name,
                                 const std::string& unit) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry* e = Find(name, Kind::kGauge);
  if (!unit.empty()) e->unit = unit;
  return e->gauge.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry* e = Find(name, Kind::kHistogram);
  e->unit = "s";
  return e->histogram.get();
}

void MetricsRegistry::SetValue(const std::string& name, double value,
                               const std::string& unit) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry* e = Find(name, Kind::kValue);
  e->value = value;
  e->unit = unit;
}

bool MetricsRegistry::empty() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.empty();
}

size_t MetricsRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

double PartySum(const std::vector<MetricSample>& samples,
                const std::string& party_prefix, const std::string& name) {
  double total = 0;
  for (const MetricSample& s : samples) {
    const size_t slash = s.name.find('/');
    if (slash == std::string::npos || slash < party_prefix.size() ||
        s.name.compare(0, party_prefix.size(), party_prefix) != 0 ||
        s.name.compare(slash + 1, std::string::npos, name) != 0) {
      continue;
    }
    total += s.kind == MetricSample::Kind::kHistogram ? s.sum : s.value;
  }
  return total;
}

std::string PartyArtifactPath(const std::string& path,
                              const std::string& party) {
  const size_t slash = path.find_last_of('/');
  const size_t dot = path.find_last_of('.');
  if (dot == std::string::npos || (slash != std::string::npos && dot < slash)) {
    return path + "." + party;
  }
  return path.substr(0, dot) + "." + party + path.substr(dot);
}

std::vector<MetricSample> MetricsRegistry::Snapshot(
    const std::string& prefix) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<MetricSample> out;
  for (const std::string& name : order_) {
    if (name.rfind(prefix, 0) != 0) continue;
    const Entry& e = entries_.at(name);
    MetricSample s;
    s.name = name;
    s.unit = e.unit;
    switch (e.kind) {
      case Kind::kCounter:
        s.kind = MetricSample::Kind::kCounter;
        s.unit = "count";
        s.value = static_cast<double>(e.counter->value());
        break;
      case Kind::kGauge:
        s.kind = MetricSample::Kind::kGauge;
        s.value = e.gauge->value();
        break;
      case Kind::kHistogram: {
        const Histogram& h = *e.histogram;
        s.kind = MetricSample::Kind::kHistogram;
        s.count = h.count();
        s.sum = h.sum();
        s.min = h.min();
        s.max = h.max();
        s.first_upper = h.first_upper();
        s.growth = h.growth();
        s.buckets.resize(Histogram::kBuckets + 1);
        for (size_t i = 0; i <= Histogram::kBuckets; ++i) {
          s.buckets[i] = h.BucketCount(i);
        }
        break;
      }
      case Kind::kValue:
        s.kind = MetricSample::Kind::kValue;
        s.value = e.value;
        break;
    }
    out.push_back(std::move(s));
  }
  return out;
}

namespace {

std::string Escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

void AppendEntry(std::string* out, bool* first, const std::string& name,
                 double value, const std::string& unit) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "%s    {\"name\": \"%s\", \"value\": %.6g, \"unit\": \"%s\"}",
                *first ? "" : ",\n", Escape(name).c_str(), value,
                Escape(unit).c_str());
  *out += buf;
  *first = false;
}

}  // namespace

std::string MetricsRegistry::ToJson(const std::string& prefix) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\n  \"benchmarks\": [\n";
  bool first = true;
  for (const std::string& name : order_) {
    if (name.rfind(prefix, 0) != 0) continue;
    const Entry& e = entries_.at(name);
    switch (e.kind) {
      case Kind::kCounter:
        AppendEntry(&out, &first, name,
                    static_cast<double>(e.counter->value()), "count");
        break;
      case Kind::kGauge:
        AppendEntry(&out, &first, name, e.gauge->value(),
                    e.unit.empty() ? "value" : e.unit);
        break;
      case Kind::kHistogram: {
        const Histogram& h = *e.histogram;
        AppendEntry(&out, &first, name, h.sum(), "s");
        AppendEntry(&out, &first, name + "/count",
                    static_cast<double>(h.count()), "count");
        AppendEntry(&out, &first, name + "/mean", h.mean(), "s");
        AppendEntry(&out, &first, name + "/min", h.min(), "s");
        AppendEntry(&out, &first, name + "/max", h.max(), "s");
        break;
      }
      case Kind::kValue:
        AppendEntry(&out, &first, name, e.value, e.unit);
        break;
    }
  }
  out += "\n  ]\n}\n";
  return out;
}

bool MetricsRegistry::WriteJson(const std::string& path,
                                const std::string& prefix) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    VF2_LOG(Error) << "cannot open " << path << " for writing";
    return false;
  }
  const std::string json = ToJson(prefix);
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  std::fclose(f);
  if (!ok) VF2_LOG(Error) << "short write to " << path;
  return ok;
}

}  // namespace obs
}  // namespace vf2boost

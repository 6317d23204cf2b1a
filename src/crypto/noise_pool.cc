#include "crypto/noise_pool.h"

#include <utility>

#include "obs/phase_tag.h"
#include "obs/profiler.h"
#include "obs/trace.h"

namespace vf2boost {

NoisePool::NoisePool(PaillierPublicKey pub, size_t capacity, uint64_t seed)
    : pub_(std::move(pub)),
      capacity_(capacity == 0 ? 1 : capacity),
      seed_(seed),
      miss_rng_(seed ^ 0x6d6973736573ULL) {  // "misses"
  // Producer CPU shows up in profiles as its own phase, attributed to the
  // party that owns the pool (inherited from the constructing thread).
  const obs::PhaseTag creator = obs::CurrentPhaseTag();
  producer_ = std::thread([this, creator] {
    obs::ProfilerRegisterCurrentThread();
    obs::PhaseTag* tag = obs::MutablePhaseTag();
    *tag = creator;
    tag->phase = "noise_precompute";
    tag->tree = -1;
    ProducerLoop();
  });
}

NoisePool::~NoisePool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  refill_cv_.notify_all();
  producer_.join();
}

void NoisePool::AddDemand(uint64_t nonces) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    unmet_demand_ += nonces;
  }
  refill_cv_.notify_one();
}

void NoisePool::SetFillGauge(obs::Gauge* gauge) {
  fill_gauge_.store(gauge, std::memory_order_release);
}

void NoisePool::PublishFill(size_t fill) {
  if (auto* gauge = fill_gauge_.load(std::memory_order_acquire)) {
    gauge->Set(static_cast<double>(fill));
  }
  // Counter-track samples are throttled: the fill level changes per nonce,
  // far too often for a trace meant to show phase structure.
  if (auto* rec = obs::TraceRecorder::Current(); rec != nullptr) {
    const uint64_t n = fill_updates_.fetch_add(1, std::memory_order_relaxed);
    if (n % 64 == 0) {
      rec->CounterValue("noise_pool_fill", static_cast<double>(fill));
    }
  }
}

void NoisePool::ProducerLoop() {
  pub_.PrepareNonces();  // the one-off table build, before any demand
  Rng rng(seed_ ^ 0x9e3779b97f4a7c15ULL);
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    refill_cv_.wait(lock, [&] {
      return shutdown_ || (unmet_demand_ > 0 && ready_.size() < capacity_);
    });
    if (shutdown_) return;
    lock.unlock();
    BigInt nonce = pub_.MakeNonce(&rng);  // the expensive part, unlocked
    lock.lock();
    // Misses may have covered the rest of the demand meanwhile: a nonce no
    // Take is left to consume is dropped, not counted.
    if (unmet_demand_ == 0) continue;
    --unmet_demand_;
    ready_.push_back(std::move(nonce));
    produced_.fetch_add(1, std::memory_order_relaxed);
    const size_t fill = ready_.size();
    lock.unlock();
    PublishFill(fill);
    lock.lock();
  }
}

BigInt NoisePool::Take() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (!ready_.empty()) {
      BigInt nonce = std::move(ready_.front());
      ready_.pop_front();
      hits_.fetch_add(1, std::memory_order_relaxed);
      const size_t fill = ready_.size();
      lock.unlock();
      if (fill + 1 == capacity_) refill_cv_.notify_one();  // room again
      PublishFill(fill);
      return nonce;
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
    if (unmet_demand_ > 0) --unmet_demand_;
  }
  PublishFill(0);
  // Only the seed draw is serialized; concurrent misses compute in parallel.
  uint64_t miss_seed;
  {
    std::lock_guard<std::mutex> lock(miss_mu_);
    miss_seed = miss_rng_.NextU64();
  }
  Rng rng(miss_seed);
  return pub_.MakeNonce(&rng);
}

NoisePool::Stats NoisePool::stats() const {
  Stats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.produced = produced_.load(std::memory_order_relaxed);
  return s;
}

size_t NoisePool::fill() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ready_.size();
}

}  // namespace vf2boost

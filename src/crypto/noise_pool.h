#ifndef VF2BOOST_CRYPTO_NOISE_POOL_H_
#define VF2BOOST_CRYPTO_NOISE_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#include "bigint/bigint.h"
#include "common/random.h"
#include "crypto/paillier.h"
#include "obs/metrics_registry.h"

namespace vf2boost {

/// \brief Background pre-compute pool of Paillier obfuscation nonces.
///
/// Even with short-exponent obfuscation a nonce costs tens of Montgomery
/// multiplies; this pool moves that work off the critical path. Producer
/// threads keep up to `capacity` nonces ready and refill whenever the pool
/// drains below half, so `Encrypt` on the consumer side degenerates to one
/// modular multiply while nonce generation overlaps the previous batch's
/// transfer and accumulation (paper §4.1 pipelining, extended one stage
/// earlier).
///
/// Thread-safe: any number of concurrent consumers (Take) and producers.
/// A Take on an empty pool never blocks — it computes the nonce inline from
/// the pool's own miss stream and counts a miss. Callers' rngs are never
/// touched, so whatever else they sample (codec exponents) does not depend
/// on how often the pool ran dry.
class NoisePool {
 public:
  /// Counter snapshot. The live counters are std::atomic (consumers and
  /// producers bump them from many threads concurrently); stats() copies
  /// them into this plain struct, readable at any time without tearing.
  struct Stats {
    uint64_t hits = 0;      ///< Takes served from the pool
    uint64_t misses = 0;    ///< Takes computed inline (pool was empty)
    uint64_t produced = 0;  ///< nonces pre-computed by background workers
  };

  /// Starts `workers` producer threads that keep up to `capacity` nonces
  /// ready. `seed` derives each worker's deterministic exponent stream.
  /// `workers` may be 0 (every Take computes inline — useful in tests).
  NoisePool(PaillierPublicKey pub, size_t capacity, size_t workers,
            uint64_t seed);
  ~NoisePool();

  NoisePool(const NoisePool&) = delete;
  NoisePool& operator=(const NoisePool&) = delete;

  /// Pops a pre-computed nonce, or computes one inline from the pool's miss
  /// stream when the pool is empty. Never blocks on producers.
  BigInt Take();

  Stats stats() const;
  size_t capacity() const { return capacity_; }
  /// Nonces currently ready (instantaneous; for gauges/tests).
  size_t fill() const;

  /// Publishes the pool's fill level to `gauge` on every Take/refill (and,
  /// when a TraceRecorder is installed, as a throttled "noise_pool_fill"
  /// counter track). Pass nullptr to detach. Not synchronized with Take:
  /// wire it before the consumers start, as PartyBEngine does in Setup.
  void SetFillGauge(obs::Gauge* gauge);

 private:
  void ProducerLoop(size_t worker_index);
  /// Publishes `fill` to the gauge and (throttled) to the trace recorder.
  void PublishFill(size_t fill);

  const PaillierPublicKey pub_;  // by value: pool never dangles off a backend
  const size_t capacity_;
  const size_t low_water_;  // refill trigger: capacity/2
  const uint64_t seed_;

  mutable std::mutex mu_;
  std::condition_variable refill_cv_;
  std::deque<BigInt> ready_;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> produced_{0};
  std::atomic<obs::Gauge*> fill_gauge_{nullptr};
  std::atomic<uint64_t> fill_updates_{0};  // trace-counter throttle
  bool shutdown_ = false;

  std::mutex miss_mu_;
  Rng miss_rng_;  // seeds the nonces computed inline on a miss
  std::vector<std::thread> workers_;
};

}  // namespace vf2boost

#endif  // VF2BOOST_CRYPTO_NOISE_POOL_H_

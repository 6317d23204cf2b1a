#ifndef VF2BOOST_CRYPTO_NOISE_POOL_H_
#define VF2BOOST_CRYPTO_NOISE_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <thread>

#include "bigint/bigint.h"
#include "common/random.h"
#include "crypto/paillier.h"
#include "obs/metrics_registry.h"

namespace vf2boost {

/// \brief Background pre-compute pool of Paillier obfuscation nonces.
///
/// Even on the window-8 table a nonce costs up to 32 Montgomery multiplies
/// (under IFMA, two interleaved halves of 16 that run in little more than
/// the time of one); this pool moves that work off the critical path. One
/// producer thread first builds the key's nonce table (PrepareNonces) as
/// soon as the pool exists, off the consumer threads, then keeps up to
/// `capacity` nonces ready, refilling as consumers take. `Encrypt` on the
/// consumer side degenerates to one modular multiply while nonce generation
/// overlaps the previous batch's transfer and accumulation (paper §4.1
/// pipelining, extended one stage earlier).
///
/// The producer makes no more nonces than the run will take: it stops once
/// `produced + misses` reaches the demand announced through AddDemand, so
/// it never computes nonces nobody uses while the peers' work needs the
/// cores. Takes beyond that demand (a retrained tree) are served inline.
///
/// Thread-safe: any number of concurrent consumers (Take). A Take on an
/// empty pool never blocks — it computes the nonce inline from the pool's
/// own miss stream and counts a miss. Callers' rngs are never touched, so
/// whatever else they sample (codec exponents) does not depend on how often
/// the pool ran dry.
class NoisePool {
 public:
  /// Counter snapshot. The live counters are std::atomic (consumers and the
  /// producer bump them concurrently); stats() copies them into this plain
  /// struct, readable at any time without tearing.
  struct Stats {
    uint64_t hits = 0;      ///< Takes served from the pool
    uint64_t misses = 0;    ///< Takes computed inline (pool was empty)
    uint64_t produced = 0;  ///< nonces pre-computed by the producer
  };

  /// Starts the producer thread, which builds the key's nonce table and
  /// then waits for demand. `seed` derives its deterministic exponent
  /// stream and the miss stream. Until AddDemand, every Take misses.
  NoisePool(PaillierPublicKey pub, size_t capacity, uint64_t seed);
  ~NoisePool();

  NoisePool(const NoisePool&) = delete;
  NoisePool& operator=(const NoisePool&) = delete;

  /// Announces `nonces` more Takes. The producer stops once produced plus
  /// missed nonces reach the total announced.
  void AddDemand(uint64_t nonces);

  /// Pops a pre-computed nonce, or computes one inline from the pool's miss
  /// stream when the pool is empty. Never blocks on the producer.
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
  void ProducerLoop();
  /// Publishes `fill` to the gauge and (throttled) to the trace recorder.
  void PublishFill(size_t fill);

  const PaillierPublicKey pub_;  // by value: pool never dangles off a backend
  const size_t capacity_;
  const uint64_t seed_;

  mutable std::mutex mu_;
  std::condition_variable refill_cv_;
  std::deque<BigInt> ready_;
  /// Announced Takes not yet covered by a produced or missed nonce.
  uint64_t unmet_demand_ = 0;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> produced_{0};
  std::atomic<obs::Gauge*> fill_gauge_{nullptr};
  std::atomic<uint64_t> fill_updates_{0};  // trace-counter throttle
  bool shutdown_ = false;

  std::mutex miss_mu_;
  Rng miss_rng_;  // seeds the nonces computed inline on a miss
  std::thread producer_;
};

}  // namespace vf2boost

#endif  // VF2BOOST_CRYPTO_NOISE_POOL_H_

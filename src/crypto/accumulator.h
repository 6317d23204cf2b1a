#ifndef VF2BOOST_CRYPTO_ACCUMULATOR_H_
#define VF2BOOST_CRYPTO_ACCUMULATOR_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "crypto/backend.h"

namespace vf2boost {

/// Operation counters used to validate that re-ordered accumulation removes
/// scaling operations (paper Fig. 8) and by the cost-model calibration.
struct AccumulatorStats {
  size_t hadds = 0;
  size_t scalings = 0;
};

/// \brief Streaming sum of ciphers — the inner loop of encrypted histogram
/// construction (one accumulator per histogram bin).
class CipherAccumulator {
 public:
  explicit CipherAccumulator(const CipherBackend* backend)
      : backend_(backend) {}
  virtual ~CipherAccumulator() = default;

  virtual void Add(const Cipher& c) = 0;
  /// Returns the sum. Empty accumulators return an encryption of zero at the
  /// codec's minimum exponent. Finalize may be called once.
  virtual Cipher Finalize() = 0;

  const AccumulatorStats& stats() const { return stats_; }

 protected:
  const CipherBackend* backend_;
  AccumulatorStats stats_;
};

/// \brief Baseline accumulation (paper Fig. 8, top): ciphers are folded into
/// the running sum in arrival order, rescaling on every exponent mismatch —
/// O(N * (E-1)/E) expected scalings for E distinct exponents. A lower
/// exponent cipher is scaled up and folded; a higher one makes the running
/// sum materialize, scale up and restart the workspace.
class NaiveCipherAccumulator : public CipherAccumulator {
 public:
  explicit NaiveCipherAccumulator(const CipherBackend* backend)
      : CipherAccumulator(backend) {}

  void Add(const Cipher& c) override;
  Cipher Finalize() override;

 private:
  CipherWorkspace sum_;
  int32_t exponent_ = 0;  // of sum_, once it holds a cipher
};

/// \brief Re-ordered accumulation (paper §5.1): one workspace per distinct
/// exponent; Add never rescales, Finalize folds the lower E-1 workspaces,
/// each materialized and scaled once, into the highest one.
class ReorderedCipherAccumulator : public CipherAccumulator {
 public:
  explicit ReorderedCipherAccumulator(const CipherBackend* backend);

  void Add(const Cipher& c) override;
  Cipher Finalize() override;

 private:
  // workspaces_[e - min_exponent] accumulates ciphers with exponent e.
  std::vector<CipherWorkspace> workspaces_;
  int min_exponent_;
};

/// Convenience: sums `ciphers` with the chosen strategy, reporting stats.
Cipher SumCiphers(const std::vector<Cipher>& ciphers,
                  const CipherBackend& backend, bool reordered,
                  AccumulatorStats* stats = nullptr);

}  // namespace vf2boost

#endif  // VF2BOOST_CRYPTO_ACCUMULATOR_H_

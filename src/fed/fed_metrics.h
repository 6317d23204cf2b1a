#ifndef VF2BOOST_FED_FED_METRICS_H_
#define VF2BOOST_FED_FED_METRICS_H_

#include <string>

#include "common/timer.h"
#include "obs/flight_recorder.h"
#include "obs/live_status.h"
#include "obs/metrics_registry.h"
#include "obs/phase_tag.h"
#include "obs/trace.h"

namespace vf2boost {

/// \brief The metric handles one party engine touches during training.
///
/// The registry is the single source of truth for protocol counters and
/// phase timings: engines bump these (atomic) handles from whichever thread
/// does the work, and readers take a MetricsRegistry::Snapshot once the
/// engines have joined (obs::PartySum adds one name up across parties).
/// Handles resolve once at engine construction, so the per-event cost is a
/// relaxed atomic op.
struct PartyMetrics {
  obs::Counter* encryptions = nullptr;
  obs::Counter* decryptions = nullptr;
  obs::Counter* hadds = nullptr;
  obs::Counter* scalings = nullptr;
  obs::Counter* packs = nullptr;
  obs::Counter* splits_a = nullptr;
  obs::Counter* splits_b = nullptr;
  obs::Counter* leaves = nullptr;
  obs::Counter* optimistic_splits = nullptr;
  obs::Counter* dirty_nodes = nullptr;
  obs::Counter* redone_hist_builds = nullptr;
  obs::Gauge* inbox_high_water = nullptr;
  /// Link traffic this party sent, summed over its ports and every link
  /// generation; dropped frames are sends the link lost (kill switch).
  obs::Gauge* bytes_sent = nullptr;
  obs::Gauge* messages_sent = nullptr;
  obs::Gauge* messages_dropped = nullptr;
  obs::Counter* noise_pool_hits = nullptr;
  obs::Counter* noise_pool_misses = nullptr;
  obs::Counter* noise_pool_produced = nullptr;
  obs::Gauge* noise_pool_fill = nullptr;
  /// High-water task-queue depth of the party's worker pool.
  obs::Gauge* pool_queue_high_water = nullptr;
  /// Instantaneous busy-worker count and configured pool size. busy/size
  /// is the utilization /statusz shows; queue depth alone cannot
  /// distinguish "saturated" from "idle".
  obs::Gauge* pool_busy_workers = nullptr;
  obs::Gauge* pool_size = nullptr;
  /// Session-layer recovery: completed link re-establishments and (Party B)
  /// trees restored from a checkpoint instead of being retrained.
  obs::Counter* reconnects = nullptr;
  obs::Counter* trees_resumed = nullptr;
  /// Number of feature columns this party holds (set by the engine at
  /// Setup). Lets a report compute the paper's D_A/(D_A+D_B) dirty-node
  /// prediction from a metrics dump alone.
  obs::Gauge* features = nullptr;
  /// Ciphertexts this party put on the wire (gradient stream + histogram
  /// responses). With gh packing one cipher carries a whole (g, h) pair, so
  /// this diverges from `encryptions` exactly when packing pays off.
  obs::Counter* ciphers_sent = nullptr;
  /// Plaintext values per wire cipher over the last gradient stream
  /// (2.0 when gh-packed, 1.0 classic) — the pack ratio a report attributes
  /// decrypt-wall savings to.
  obs::Gauge* gh_pack_ratio = nullptr;
  /// Trees fully trained by this engine (B side). Divides
  /// `ciphers_sent` into the per-tree cipher traffic a report shows.
  obs::Counter* trees_finished = nullptr;

  /// The engine's live training position (tree/layer/phase/state) for the
  /// ops endpoints; borrowed from the owning engine, null when the engine
  /// predates the wiring (e.g. bare PartyMetrics in tests). PhaseClock
  /// publishes its trace_name here when set.
  obs::LiveStatus* live = nullptr;

  obs::Histogram* phase_encrypt = nullptr;
  obs::Histogram* phase_build_hist = nullptr;
  obs::Histogram* phase_pack = nullptr;
  obs::Histogram* phase_decrypt = nullptr;
  obs::Histogram* phase_find_split = nullptr;
  obs::Histogram* phase_comm_wait = nullptr;

  /// Registers every handle under `prefix` (e.g. "party_a0", "party_b").
  static PartyMetrics Create(obs::MetricsRegistry* registry,
                             const std::string& prefix);
};

/// \brief Times one protocol phase: observes `hist` with the elapsed
/// seconds and emits a "phase" trace span covering exactly the same region.
/// Stop() ends the phase early (e.g. right after a blocking receive, before
/// unrelated work in the same scope); the destructor stops implicitly.
class PhaseClock {
 public:
  /// `live`, when given, mirrors the phase name into the engine's LiveStatus
  /// for the duration of the clock (trace_name must be a string literal —
  /// see obs::LiveStatus::SetPhase).
  PhaseClock(obs::Histogram* hist, const char* trace_name,
             obs::LiveStatus* live = nullptr)
      : hist_(hist),
        trace_name_(trace_name),
        rec_(obs::TraceRecorder::Current()),
        live_(live) {
    if (rec_ != nullptr) start_us_ = rec_->NowMicros();
    // Tag this thread for the sampling profiler (obs/profiler.h): SIGPROF
    // samples taken inside the phase carry its name. Plain TLS stores —
    // paid whether or not a profiler runs, like the LiveStatus mirror.
    obs::PhaseTag* tag = obs::MutablePhaseTag();
    prev_phase_ = tag->phase;
    prev_tree_ = tag->tree;
    tag->phase = trace_name;
    if (live_ != nullptr) tag->tree = static_cast<int32_t>(live_->tree());
    if (live_ != nullptr) {
      live_->SetPhase(trace_name);
      // Engine phases (live != nullptr) also land in the black box, so a
      // post-mortem dump names the phase the party died in.
      obs::FlightRecorder::RecordEvent(obs::FlightRecorder::Kind::kPhase, 0,
                                       0, 0, trace_name);
    }
  }
  ~PhaseClock() { Stop(); }

  PhaseClock(const PhaseClock&) = delete;
  PhaseClock& operator=(const PhaseClock&) = delete;

  void Stop() {
    if (stopped_) return;
    stopped_ = true;
    hist_->Observe(watch_.ElapsedSeconds());
    if (rec_ != nullptr) {
      rec_->CompleteSpan(trace_name_, "phase", start_us_,
                         rec_->NowMicros() - start_us_, "");
    }
    if (live_ != nullptr) live_->SetPhase("");
    obs::PhaseTag* tag = obs::MutablePhaseTag();
    tag->phase = prev_phase_;
    tag->tree = prev_tree_;
  }

 private:
  obs::Histogram* hist_;
  const char* trace_name_;
  obs::TraceRecorder* rec_;
  obs::LiveStatus* live_;
  int64_t start_us_ = 0;
  Stopwatch watch_;
  bool stopped_ = false;
  const char* prev_phase_ = nullptr;
  int32_t prev_tree_ = -1;
};

}  // namespace vf2boost

#endif  // VF2BOOST_FED_FED_METRICS_H_

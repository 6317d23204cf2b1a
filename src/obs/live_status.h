#ifndef VF2BOOST_OBS_LIVE_STATUS_H_
#define VF2BOOST_OBS_LIVE_STATUS_H_

#include <atomic>
#include <cstdint>

namespace vf2boost {
namespace obs {

/// \brief Lock-free live view of one party engine's training position.
///
/// The engine thread is the only writer; the ops server reads concurrently
/// with relaxed loads. Readers may observe a tree/layer/phase triple that is
/// one step stale or torn across fields — acceptable for a status page,
/// which is why this is not part of the metrics registry.
///
/// Phase names must be string literals (static storage duration): PhaseClock
/// passes its trace_name, so a reader can dereference the pointer at any
/// later time.
class LiveStatus {
 public:
  enum class State : int {
    kIdle = 0,
    kTraining = 1,
    kReconnecting = 2,
    kDone = 3,
    kFailed = 4,
  };

  void SetState(State s) { state_.store(s, std::memory_order_relaxed); }
  State state() const { return state_.load(std::memory_order_relaxed); }

  void SetTree(int64_t t) { tree_.store(t, std::memory_order_relaxed); }
  int64_t tree() const { return tree_.load(std::memory_order_relaxed); }

  void SetLayer(int64_t l) { layer_.store(l, std::memory_order_relaxed); }
  int64_t layer() const { return layer_.load(std::memory_order_relaxed); }

  void SetPhase(const char* literal) {
    phase_.store(literal, std::memory_order_relaxed);
  }
  const char* phase() const { return phase_.load(std::memory_order_relaxed); }

  static const char* StateName(State s) {
    switch (s) {
      case State::kIdle:
        return "idle";
      case State::kTraining:
        return "training";
      case State::kReconnecting:
        return "reconnecting";
      case State::kDone:
        return "done";
      case State::kFailed:
        return "failed";
    }
    return "unknown";
  }

 private:
  std::atomic<State> state_{State::kIdle};
  std::atomic<int64_t> tree_{-1};
  std::atomic<int64_t> layer_{-1};
  std::atomic<const char*> phase_{""};
};

}  // namespace obs
}  // namespace vf2boost

#endif  // VF2BOOST_OBS_LIVE_STATUS_H_

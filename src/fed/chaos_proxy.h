#ifndef VF2BOOST_FED_CHAOS_PROXY_H_
#define VF2BOOST_FED_CHAOS_PROXY_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/result.h"

namespace vf2boost {

namespace obs {
class Counter;
class MetricsRegistry;
}  // namespace obs

/// \brief One scripted fault on the proxied link.
///
/// Parsed from the `--scenario` grammar (comma-separated):
///
///   KIND[=VALUE]@TRIGGER[:DURATION][/DIR]
///
///   KIND      drop        close both legs cleanly (FIN) — link death
///             reset       close both legs with RST (SO_LINGER 0)
///             partition   forward nothing in either direction for DURATION
///                         (bytes are held by kernel backpressure, not lost)
///             blackhole   one-way partition (default direction a2b)
///             corrupt     flip one byte of the next forwarded chunk
///             throttle=KBPS   cap the forward rate for DURATION
///   TRIGGER   t=SECONDS   seconds since the connection pumps started
///             tree=N      after the Nth kTreeDone frame crossed b2a
///             SECONDS     bare number = t=SECONDS
///   DURATION  e.g. 10s, 250ms (windowed kinds; omitted = rest of the run)
///   DIR       a2b | b2a (default: both; blackhole defaults to a2b)
///
/// Examples: `drop@tree=3`, `partition@tree=5:10s`, `corrupt@t=2/b2a`,
/// `throttle=64@1:5s`, `throttle=256@0` (a cap for the whole run). Numbers
/// must be finite and N must fit an int.
struct ChaosEvent {
  enum class Kind : uint8_t {
    kDrop = 1,
    kReset = 2,
    kPartition = 3,
    kBlackhole = 4,
    kCorrupt = 5,
    kThrottle = 6,
  };
  enum class Dir : uint8_t { kBoth = 0, kAToB = 1, kBToA = 2 };

  Kind kind = Kind::kDrop;
  Dir dir = Dir::kBoth;
  /// Trigger: by tree boundary (b2a kTreeDone count) or by elapsed seconds.
  bool by_tree = false;
  int at_tree = 0;
  double at_seconds = 0;
  /// Windowed kinds only; 0 = stays active for the rest of the run.
  double duration_seconds = 0;
  /// kThrottle only: forwarded-rate cap in kilobytes/second.
  double throttle_kbps = 0;
};

const char* ChaosEventKindName(ChaosEvent::Kind kind);

/// Parses the comma-separated `--scenario` grammar above. On error the
/// returned status names the offending token.
Status ParseChaosScenario(const std::string& spec,
                          std::vector<ChaosEvent>* out);

/// \brief The proxy's deterministic randomness, isolated from the I/O so the
/// fault decisions replay exactly under a fixed seed (chaos_proxy_test
/// asserts this): each pump direction owns one dice stream, seeded
/// seed ^ direction-constant ^ connection-index, so reconnections and the
/// two directions never share draws.
class ChaosDice {
 public:
  ChaosDice(uint64_t seed, bool a_to_b, uint64_t connection)
      : rng_(seed ^ (a_to_b ? 0xA2BULL : 0xB2AULL) ^
             (connection * 0x9E3779B97F4A7C15ULL)) {}

  /// One Bernoulli draw: corrupt this chunk?
  bool ShouldCorrupt(double probability) {
    return probability > 0 && rng_.NextDouble() < probability;
  }
  /// Which byte of an `len`-byte chunk to damage.
  size_t PickOffset(size_t len) {
    return static_cast<size_t>(rng_.NextBounded(len));
  }
  /// Nonzero XOR mask, so the flip always changes the byte.
  uint8_t PickFlip() {
    return static_cast<uint8_t>(1 + rng_.NextBounded(255));
  }
  /// Uniform extra delay in [0, jitter_ms) milliseconds.
  double JitterMs(double jitter_ms) {
    return jitter_ms > 0 ? rng_.NextDouble() * jitter_ms : 0;
  }

 private:
  Rng rng_;
};

/// \brief Incremental wire-frame scanner for the b2a byte stream: counts
/// kTreeDone frames so `tree=N` triggers fire deterministically, without the
/// proxy buffering whole frames. Tolerant by design — the moment the stream
/// stops looking like v2 frames (an injected corruption upstream of us, or a
/// mid-frame connection cut leaving us misaligned), the scanner latches
/// broken() and stops counting rather than miscounting.
class FrameScanner {
 public:
  /// Feeds `n` more stream bytes; returns how many kTreeDone frame headers
  /// completed during this feed.
  size_t Feed(const uint8_t* data, size_t n);
  bool broken() const { return broken_; }
  /// Total kTreeDone frames seen since construction.
  size_t trees_done() const { return trees_done_; }
  /// Re-syncs to a frame boundary (a fresh connection starts on one, so the
  /// proxy calls this per accepted connection); keeps the cumulative tree
  /// count so `tree=N` triggers span reconnections.
  void Realign() {
    header_.clear();
    payload_remaining_ = 0;
    broken_ = false;
  }

 private:
  std::vector<uint8_t> header_;   ///< partial frame header accumulator
  size_t payload_remaining_ = 0;  ///< payload bytes left to skip
  bool broken_ = false;
  size_t trees_done_ = 0;
};

/// \brief Seeded, deterministic TCP fault proxy — the repo's one wire-fault
/// injector (`vf2_chaosd` is its CLI).
///
/// Sits between the A parties (`--listen`) and Party B (`--connect`):
/// every accepted client connection gets a fresh upstream connection and two
/// pump threads, one per direction, that forward chunks while injecting the
/// continuous faults (latency/jitter, per-chunk corruption) and the scripted
/// ChaosEvents. Byte corruption exercises the
/// CRC32 framing on real sockets; throttling forces partial reads/writes
/// through TcpMessagePort's reassembly and short-write loops; partitions
/// starve the receiver into its liveness budget; drops/resets exercise the
/// session layer's redial machinery (the client simply reconnects through
/// the proxy, which dials B again).
///
/// Observability: per-direction `chaos/{a2b,b2a}/{bytes,chunks,corrupted}`
/// plus `chaos/connections`, `chaos/resets` and `chaos/events_fired` in the
/// given registry.
class ChaosProxy {
 public:
  struct Options {
    std::string listen_address = "127.0.0.1";
    int listen_port = 0;  ///< 0 = ephemeral; see port()
    std::string connect_host = "127.0.0.1";
    int connect_port = 0;
    uint64_t seed = 0xC4A05ULL;

    // Continuous shaping, applied to every chunk in both directions.
    double latency_ms = 0;
    double jitter_ms = 0;
    double corrupt_chunk_probability = 0;  ///< per-chunk one-byte flip

    std::vector<ChaosEvent> events;
    obs::MetricsRegistry* registry = nullptr;  ///< borrowed; may be null
  };

  static Result<std::unique_ptr<ChaosProxy>> Start(const Options& options);
  ~ChaosProxy();

  ChaosProxy(const ChaosProxy&) = delete;
  ChaosProxy& operator=(const ChaosProxy&) = delete;

  /// Stops accepting, tears down every live connection, joins all threads.
  /// Idempotent; the destructor calls it.
  void Stop();

  /// The bound listen port (resolves a requested port 0).
  int port() const { return port_; }

  /// kTreeDone frames observed crossing b2a so far (all connections).
  size_t trees_done() const {
    return trees_done_.load(std::memory_order_relaxed);
  }
  /// Client connections accepted so far.
  size_t connections() const {
    return connections_.load(std::memory_order_relaxed);
  }
  /// Scripted events that have fired so far.
  size_t events_fired() const {
    return events_fired_.load(std::memory_order_relaxed);
  }

 private:
  /// What the pump loop must do right now, aggregated over every scripted
  /// event plus the continuous knobs.
  struct Action {
    bool kill = false;       ///< close both legs of the connection
    bool rst = false;        ///< ... with RST instead of FIN
    bool blackout = false;   ///< forward nothing (this direction)
    double throttle_kbps = 0;  ///< 0 = unthrottled
    bool corrupt_once = false;  ///< flip one byte of the next chunk
  };

  /// Per-event mutable state (shared by both pump directions, under mu_).
  struct EventState {
    ChaosEvent ev;
    bool fired = false;        ///< one-shots consumed / window opened
    bool window_open = false;  ///< windowed kinds: currently active
    std::chrono::steady_clock::time_point window_end{};
  };

  struct Connection {
    int client_fd = -1;
    int upstream_fd = -1;
    std::thread a2b;
    std::thread b2a;
    std::atomic<bool> dead{false};
  };

  ChaosProxy() = default;

  void AcceptLoop();
  void PumpLoop(Connection* conn, bool a_to_b, uint64_t connection_index);
  /// `consume_corrupt` marks that the caller has a chunk in hand, so a
  /// triggered one-shot corrupt event may be consumed by this evaluation.
  Action EvalEvents(bool a_to_b, std::chrono::steady_clock::time_point now,
                    bool consume_corrupt);
  /// Closes both legs; with `rst`, arms SO_LINGER 0 first so the peer sees
  /// ECONNRESET instead of a clean FIN.
  void KillConnection(Connection* conn, bool rst);

  Options options_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::chrono::steady_clock::time_point started_{};

  std::mutex mu_;
  std::vector<EventState> events_;
  std::vector<std::unique_ptr<Connection>> conns_;
  FrameScanner scanner_;  ///< b2a tree counter (guarded by mu_)

  std::thread accept_thread_;
  std::atomic<bool> stop_{false};
  std::atomic<size_t> trees_done_{0};
  std::atomic<size_t> connections_{0};
  std::atomic<size_t> events_fired_{0};

  // Registry handles (null = metrics off).
  obs::Counter* c_connections_ = nullptr;
  obs::Counter* c_resets_ = nullptr;
  obs::Counter* c_events_fired_ = nullptr;
  obs::Counter* c_bytes_[2] = {nullptr, nullptr};      // [a2b, b2a]
  obs::Counter* c_chunks_[2] = {nullptr, nullptr};
  obs::Counter* c_corrupted_[2] = {nullptr, nullptr};
};

}  // namespace vf2boost

#endif  // VF2BOOST_FED_CHAOS_PROXY_H_

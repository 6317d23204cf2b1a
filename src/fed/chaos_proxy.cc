#include "fed/chaos_proxy.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <thread>
#include <utility>

#include "common/logging.h"
#include "fed/message.h"
#include "obs/metrics_registry.h"

namespace vf2boost {

namespace {

using SteadyClock = std::chrono::steady_clock;

Status Errno(const std::string& what) {
  return Status::Unavailable(what + ": " + std::string(strerror(errno)));
}

void SetNoDelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/// "10" / "10s" / "250ms" -> seconds. False on anything else.
bool ParseSecondsToken(const std::string& token, double* out) {
  if (token.empty()) return false;
  char* end = nullptr;
  const double v = std::strtod(token.c_str(), &end);
  if (end == token.c_str() || !std::isfinite(v) || v < 0) return false;
  const std::string suffix(end);
  if (suffix.empty() || suffix == "s") {
    *out = v;
    return true;
  }
  if (suffix == "ms") {
    *out = v * 1e-3;
    return true;
  }
  return false;
}

/// Decimal int. False on anything else, including values outside int.
bool ParseIntToken(const std::string& token, int* out) {
  if (token.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(token.c_str(), &end, 10);
  if (end == token.c_str() || *end != '\0' || errno == ERANGE ||
      v < std::numeric_limits<int>::min() ||
      v > std::numeric_limits<int>::max()) {
    return false;
  }
  *out = static_cast<int>(v);
  return true;
}

bool WriteAll(int fd, const uint8_t* p, size_t n) {
  while (n > 0) {
    const ssize_t w = ::send(fd, p, n, MSG_NOSIGNAL);
    if (w > 0) {
      p += w;
      n -= static_cast<size_t>(w);
      continue;
    }
    if (w < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

/// Forwards `n` bytes at no more than `kbps` kilobytes/second by writing
/// small pieces with proportional sleeps — which is exactly what forces
/// partial reads (and therefore frame reassembly) on the downstream
/// TcpMessagePort. kbps <= 0 forwards at full speed.
bool WriteShaped(int fd, const uint8_t* p, size_t n, double kbps) {
  if (kbps <= 0) return WriteAll(fd, p, n);
  constexpr size_t kPiece = 1024;
  while (n > 0) {
    const size_t take = std::min(kPiece, n);
    if (!WriteAll(fd, p, take)) return false;
    p += take;
    n -= take;
    std::this_thread::sleep_for(std::chrono::duration<double>(
        static_cast<double>(take) / (kbps * 1024.0)));
  }
  return true;
}

}  // namespace

const char* ChaosEventKindName(ChaosEvent::Kind kind) {
  switch (kind) {
    case ChaosEvent::Kind::kDrop:
      return "drop";
    case ChaosEvent::Kind::kReset:
      return "reset";
    case ChaosEvent::Kind::kPartition:
      return "partition";
    case ChaosEvent::Kind::kBlackhole:
      return "blackhole";
    case ChaosEvent::Kind::kCorrupt:
      return "corrupt";
    case ChaosEvent::Kind::kThrottle:
      return "throttle";
  }
  return "unknown";
}

Status ParseChaosScenario(const std::string& spec,
                          std::vector<ChaosEvent>* out) {
  size_t pos = 0;
  while (pos <= spec.size()) {
    const size_t comma = spec.find(',', pos);
    std::string token = spec.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    pos = comma == std::string::npos ? spec.size() + 1 : comma + 1;
    if (token.empty()) continue;
    auto bad = [&token](const std::string& why) {
      return Status::InvalidArgument("scenario token '" + token + "': " + why);
    };

    const size_t at = token.find('@');
    if (at == std::string::npos) {
      return bad("missing '@TRIGGER' (e.g. drop@tree=3, corrupt@t=2)");
    }
    std::string head = token.substr(0, at);   // KIND[=VALUE]
    std::string tail = token.substr(at + 1);  // TRIGGER[:DURATION][/DIR]
    ChaosEvent ev;

    if (const size_t slash = tail.find('/'); slash != std::string::npos) {
      const std::string dir = tail.substr(slash + 1);
      tail = tail.substr(0, slash);
      if (dir == "a2b") {
        ev.dir = ChaosEvent::Dir::kAToB;
      } else if (dir == "b2a") {
        ev.dir = ChaosEvent::Dir::kBToA;
      } else {
        return bad("direction must be a2b or b2a, got '" + dir + "'");
      }
    }
    if (const size_t colon = tail.find(':'); colon != std::string::npos) {
      if (!ParseSecondsToken(tail.substr(colon + 1), &ev.duration_seconds)) {
        return bad("bad duration '" + tail.substr(colon + 1) +
                   "' (expected e.g. 10s or 250ms)");
      }
      tail = tail.substr(0, colon);
    }
    if (tail.rfind("tree=", 0) == 0) {
      if (!ParseIntToken(tail.substr(5), &ev.at_tree) || ev.at_tree < 1) {
        return bad("bad tree trigger '" + tail +
                   "' (expected tree=N, 1 <= N <= INT_MAX)");
      }
      ev.by_tree = true;
    } else {
      std::string t = tail;
      if (t.rfind("t=", 0) == 0) t = t.substr(2);
      if (!ParseSecondsToken(t, &ev.at_seconds)) {
        return bad("bad trigger '" + tail +
                   "' (expected tree=N, t=SECONDS, or SECONDS)");
      }
    }

    std::string value;
    if (const size_t eq = head.find('='); eq != std::string::npos) {
      value = head.substr(eq + 1);
      head = head.substr(0, eq);
    }
    if (head == "drop") {
      ev.kind = ChaosEvent::Kind::kDrop;
    } else if (head == "reset") {
      ev.kind = ChaosEvent::Kind::kReset;
    } else if (head == "partition") {
      ev.kind = ChaosEvent::Kind::kPartition;
    } else if (head == "blackhole") {
      ev.kind = ChaosEvent::Kind::kBlackhole;
      // A blackhole is one-way by definition; default to silencing A->B.
      if (ev.dir == ChaosEvent::Dir::kBoth) ev.dir = ChaosEvent::Dir::kAToB;
    } else if (head == "corrupt") {
      ev.kind = ChaosEvent::Kind::kCorrupt;
    } else if (head == "throttle") {
      ev.kind = ChaosEvent::Kind::kThrottle;
      char* end = nullptr;
      ev.throttle_kbps = std::strtod(value.c_str(), &end);
      if (value.empty() || end == value.c_str() || *end != '\0' ||
          !std::isfinite(ev.throttle_kbps) || ev.throttle_kbps <= 0) {
        return bad(
            "throttle needs a finite positive rate: throttle=KBPS@TRIGGER");
      }
    } else {
      return bad("unknown fault kind '" + head + "'");
    }
    if (!value.empty() && ev.kind != ChaosEvent::Kind::kThrottle) {
      return bad("'" + head + "' takes no =VALUE");
    }
    out->push_back(ev);
  }
  return Status::OK();
}

size_t FrameScanner::Feed(const uint8_t* data, size_t n) {
  size_t trees = 0;
  size_t i = 0;
  while (i < n && !broken_) {
    if (payload_remaining_ > 0) {
      const size_t skip = std::min(payload_remaining_, n - i);
      payload_remaining_ -= skip;
      i += skip;
      continue;
    }
    header_.push_back(data[i++]);
    if (header_.size() == 1 && header_[0] != kWireVersion) {
      broken_ = true;
      break;
    }
    if (header_.size() == kFrameOverheadBytes) {
      const uint8_t type = header_[1];
      const uint32_t len = static_cast<uint32_t>(header_[2]) |
                           (static_cast<uint32_t>(header_[3]) << 8) |
                           (static_cast<uint32_t>(header_[4]) << 16) |
                           (static_cast<uint32_t>(header_[5]) << 24);
      if (len > kMaxFramePayloadBytes) {
        broken_ = true;
        break;
      }
      if (type == static_cast<uint8_t>(MessageType::kTreeDone)) {
        ++trees;
        ++trees_done_;
      }
      payload_remaining_ = len;
      header_.clear();
    }
  }
  return trees;
}

// ---------------------------------------------------------------------------
// ChaosProxy

Result<std::unique_ptr<ChaosProxy>> ChaosProxy::Start(const Options& options) {
  if (options.connect_port <= 0) {
    return Status::InvalidArgument("chaos proxy needs a --connect port");
  }
  for (const double v : {options.latency_ms, options.jitter_ms,
                         options.corrupt_chunk_probability}) {
    if (!std::isfinite(v) || v < 0) {
      return Status::InvalidArgument(
          "chaos proxy latency, jitter and corrupt probability must be "
          "finite and nonnegative");
    }
  }
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options.listen_port));
  if (::inet_pton(AF_INET, options.listen_address.c_str(), &addr.sin_addr) !=
      1) {
    return Status::InvalidArgument("bad listen address: " +
                                   options.listen_address);
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) <
      0) {
    Status st = Errno("bind " + options.listen_address + ":" +
                      std::to_string(options.listen_port));
    ::close(fd);
    return st;
  }
  if (::listen(fd, 8) < 0) {
    Status st = Errno("listen");
    ::close(fd);
    return st;
  }
  struct sockaddr_in bound;
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<struct sockaddr*>(&bound), &len) <
      0) {
    Status st = Errno("getsockname");
    ::close(fd);
    return st;
  }
  auto proxy = std::unique_ptr<ChaosProxy>(new ChaosProxy());
  proxy->options_ = options;
  proxy->listen_fd_ = fd;
  proxy->port_ = ntohs(bound.sin_port);
  proxy->started_ = SteadyClock::now();
  proxy->events_.reserve(options.events.size());
  for (const ChaosEvent& ev : options.events) {
    EventState s;
    s.ev = ev;
    proxy->events_.push_back(s);
  }
  if (obs::MetricsRegistry* reg = options.registry; reg != nullptr) {
    proxy->c_connections_ = reg->GetCounter("chaos/connections");
    proxy->c_resets_ = reg->GetCounter("chaos/resets");
    proxy->c_events_fired_ = reg->GetCounter("chaos/events_fired");
    proxy->c_bytes_[0] = reg->GetCounter("chaos/a2b/bytes");
    proxy->c_bytes_[1] = reg->GetCounter("chaos/b2a/bytes");
    proxy->c_chunks_[0] = reg->GetCounter("chaos/a2b/chunks");
    proxy->c_chunks_[1] = reg->GetCounter("chaos/b2a/chunks");
    proxy->c_corrupted_[0] = reg->GetCounter("chaos/a2b/corrupted");
    proxy->c_corrupted_[1] = reg->GetCounter("chaos/b2a/corrupted");
  }
  proxy->accept_thread_ = std::thread(&ChaosProxy::AcceptLoop, proxy.get());
  return proxy;
}

ChaosProxy::~ChaosProxy() { Stop(); }

void ChaosProxy::Stop() {
  stop_.store(true, std::memory_order_release);
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<Connection*> conns;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& c : conns_) conns.push_back(c.get());
  }
  for (Connection* c : conns) {
    c->dead.store(true, std::memory_order_release);
    if (c->client_fd >= 0) ::shutdown(c->client_fd, SHUT_RDWR);
    if (c->upstream_fd >= 0) ::shutdown(c->upstream_fd, SHUT_RDWR);
  }
  for (Connection* c : conns) {
    if (c->a2b.joinable()) c->a2b.join();
    if (c->b2a.joinable()) c->b2a.join();
    if (c->client_fd >= 0) ::close(c->client_fd);
    if (c->upstream_fd >= 0) ::close(c->upstream_fd);
    c->client_fd = c->upstream_fd = -1;
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void ChaosProxy::AcceptLoop() {
  uint64_t conn_idx = 0;
  while (!stop_.load(std::memory_order_acquire)) {
    struct pollfd pfd;
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    pfd.revents = 0;
    const int pr = ::poll(&pfd, 1, 100);
    if (pr < 0 && errno != EINTR) break;
    if (pr <= 0) continue;
    const int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) continue;
    // Dial Party B for this client. B may itself be mid-rebind (crash
    // recovery drills), so refused connects retry briefly; the client's own
    // redial loop absorbs a failure here.
    int upstream = -1;
    const auto dial_deadline = SteadyClock::now() + std::chrono::seconds(10);
    while (!stop_.load(std::memory_order_acquire) &&
           SteadyClock::now() < dial_deadline) {
      const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
      if (fd < 0) break;
      struct sockaddr_in addr;
      std::memset(&addr, 0, sizeof(addr));
      addr.sin_family = AF_INET;
      addr.sin_port = htons(static_cast<uint16_t>(options_.connect_port));
      if (::inet_pton(AF_INET, options_.connect_host.c_str(),
                      &addr.sin_addr) != 1) {
        ::close(fd);
        break;
      }
      int rc;
      do {
        rc = ::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                       sizeof(addr));
      } while (rc < 0 && errno == EINTR);
      if (rc == 0) {
        upstream = fd;
        break;
      }
      ::close(fd);
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    if (upstream < 0) {
      ::close(client);
      continue;
    }
    SetNoDelay(client);
    SetNoDelay(upstream);
    auto conn = std::make_unique<Connection>();
    conn->client_fd = client;
    conn->upstream_fd = upstream;
    Connection* cp = conn.get();
    {
      std::lock_guard<std::mutex> lock(mu_);
      // A fresh connection starts on a frame boundary (the preamble hello);
      // realign the tree scanner in case the previous one died mid-frame.
      scanner_.Realign();
      conns_.push_back(std::move(conn));
    }
    connections_.fetch_add(1, std::memory_order_relaxed);
    if (c_connections_ != nullptr) c_connections_->Add(1);
    VF2_LOG(Info) << "chaos proxy: connection " << conn_idx << " up ("
                  << options_.connect_host << ":" << options_.connect_port
                  << ")";
    cp->a2b = std::thread(&ChaosProxy::PumpLoop, this, cp, true, conn_idx);
    cp->b2a = std::thread(&ChaosProxy::PumpLoop, this, cp, false, conn_idx);
    ++conn_idx;
  }
}

ChaosProxy::Action ChaosProxy::EvalEvents(bool a_to_b,
                                          SteadyClock::time_point now,
                                          bool consume_corrupt) {
  Action act;
  const double elapsed =
      std::chrono::duration<double>(now - started_).count();
  const size_t trees = trees_done_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  for (EventState& s : events_) {
    const ChaosEvent& ev = s.ev;
    const bool dir_match =
        ev.dir == ChaosEvent::Dir::kBoth ||
        (ev.dir == ChaosEvent::Dir::kAToB) == a_to_b;
    const bool triggered = ev.by_tree
                               ? trees >= static_cast<size_t>(ev.at_tree)
                               : elapsed >= ev.at_seconds;
    if (!triggered) continue;
    switch (ev.kind) {
      case ChaosEvent::Kind::kDrop:
      case ChaosEvent::Kind::kReset:
        if (!s.fired) {
          s.fired = true;
          events_fired_.fetch_add(1, std::memory_order_relaxed);
          if (c_events_fired_ != nullptr) c_events_fired_->Add(1);
          act.kill = true;
          act.rst = ev.kind == ChaosEvent::Kind::kReset;
          VF2_LOG(Info) << "chaos proxy: firing " << ChaosEventKindName(ev.kind)
                        << " (trees=" << trees << ", t=" << elapsed << "s)";
        }
        break;
      case ChaosEvent::Kind::kCorrupt:
        // One-shots are consumed only when a chunk is actually in hand —
        // otherwise the flip would be "spent" on an empty poll tick.
        if (!s.fired && dir_match && consume_corrupt) {
          s.fired = true;
          events_fired_.fetch_add(1, std::memory_order_relaxed);
          if (c_events_fired_ != nullptr) c_events_fired_->Add(1);
          act.corrupt_once = true;
          VF2_LOG(Info) << "chaos proxy: firing corrupt (trees=" << trees
                        << ", t=" << elapsed << "s)";
        }
        break;
      case ChaosEvent::Kind::kPartition:
      case ChaosEvent::Kind::kBlackhole:
      case ChaosEvent::Kind::kThrottle: {
        if (!s.fired) {
          s.fired = true;
          s.window_open = true;
          s.window_end = ev.duration_seconds > 0
                             ? now + std::chrono::duration_cast<
                                         SteadyClock::duration>(
                                         std::chrono::duration<double>(
                                             ev.duration_seconds))
                             : SteadyClock::time_point::max();
          events_fired_.fetch_add(1, std::memory_order_relaxed);
          if (c_events_fired_ != nullptr) c_events_fired_->Add(1);
          VF2_LOG(Info) << "chaos proxy: opening "
                        << ChaosEventKindName(ev.kind) << " window for "
                        << (ev.duration_seconds > 0
                                ? std::to_string(ev.duration_seconds) + "s"
                                : std::string("the rest of the run"))
                        << " (trees=" << trees << ", t=" << elapsed << "s)";
        }
        if (s.window_open && now >= s.window_end) s.window_open = false;
        if (s.window_open && dir_match) {
          if (ev.kind == ChaosEvent::Kind::kThrottle) {
            act.throttle_kbps = act.throttle_kbps > 0
                                    ? std::min(act.throttle_kbps,
                                               ev.throttle_kbps)
                                    : ev.throttle_kbps;
          } else {
            act.blackout = true;
          }
        }
        break;
      }
    }
  }
  return act;
}

void ChaosProxy::KillConnection(Connection* conn, bool rst) {
  if (conn->dead.exchange(true, std::memory_order_acq_rel)) return;
  if (rst) {
    // Abort instead of an orderly FIN: linger(0) makes the eventual close
    // send RST, and unread inbound bytes have the same effect immediately.
    struct linger lg;
    lg.l_onoff = 1;
    lg.l_linger = 0;
    ::setsockopt(conn->client_fd, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
    ::setsockopt(conn->upstream_fd, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
    if (c_resets_ != nullptr) c_resets_->Add(1);
  }
  ::shutdown(conn->client_fd, SHUT_RDWR);
  ::shutdown(conn->upstream_fd, SHUT_RDWR);
}

void ChaosProxy::PumpLoop(Connection* conn, bool a_to_b,
                          uint64_t connection_index) {
  const int src = a_to_b ? conn->client_fd : conn->upstream_fd;
  const int dst = a_to_b ? conn->upstream_fd : conn->client_fd;
  const int di = a_to_b ? 0 : 1;
  ChaosDice dice(options_.seed, a_to_b, connection_index);
  uint8_t buf[16 * 1024];
  for (;;) {
    if (stop_.load(std::memory_order_acquire) ||
        conn->dead.load(std::memory_order_acquire)) {
      break;
    }
    const auto now = SteadyClock::now();
    const Action pre = EvalEvents(a_to_b, now, /*consume_corrupt=*/false);
    if (pre.kill) {
      KillConnection(conn, pre.rst);
      break;
    }
    if (pre.blackout) {
      // Hold the direction shut: nothing is read, so in-flight bytes pile up
      // in kernel buffers (backpressure) and the receiver sees pure silence —
      // delayed on heal, never lost. This is what starves a liveness budget.
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      continue;
    }
    struct pollfd pfd;
    pfd.fd = src;
    pfd.events = POLLIN;
    pfd.revents = 0;
    const int pr = ::poll(&pfd, 1, 50);
    if (pr < 0 && errno != EINTR) break;
    if (pr <= 0) continue;
    const ssize_t n = ::recv(src, buf, sizeof(buf), 0);
    if (n == 0) {
      ::shutdown(dst, SHUT_WR);  // propagate the FIN
      break;
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      ::shutdown(dst, SHUT_RDWR);
      break;
    }
    if (c_chunks_[di] != nullptr) c_chunks_[di]->Add(1);
    if (c_bytes_[di] != nullptr) c_bytes_[di]->Add(static_cast<size_t>(n));
    if (!a_to_b) {
      // Count tree boundaries on the CLEAN bytes B actually sent, before any
      // injected damage, so tree triggers stay deterministic.
      std::lock_guard<std::mutex> lock(mu_);
      const size_t trees = scanner_.Feed(buf, static_cast<size_t>(n));
      if (trees > 0) trees_done_.fetch_add(trees, std::memory_order_relaxed);
    }
    const Action post = EvalEvents(a_to_b, now, /*consume_corrupt=*/true);
    if (post.kill) {
      KillConnection(conn, post.rst);
      break;
    }
    if (post.corrupt_once ||
        dice.ShouldCorrupt(options_.corrupt_chunk_probability)) {
      buf[dice.PickOffset(static_cast<size_t>(n))] ^= dice.PickFlip();
      if (c_corrupted_[di] != nullptr) c_corrupted_[di]->Add(1);
    }
    const double delay_ms =
        options_.latency_ms + dice.JitterMs(options_.jitter_ms);
    if (delay_ms > 0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(delay_ms));
    }
    if (!WriteShaped(dst, buf, static_cast<size_t>(n), post.throttle_kbps)) {
      ::shutdown(src, SHUT_RDWR);
      break;
    }
  }
}

}  // namespace vf2boost

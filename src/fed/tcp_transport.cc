#include "fed/tcp_transport.h"

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
#include <cstring>
#include <thread>
#include <utility>

#include "common/logging.h"
#include "obs/metrics_registry.h"

namespace vf2boost {

namespace {

using Clock = ChannelEndpoint::Clock;

/// Milliseconds from now until `deadline`, clamped for poll(): never
/// negative, capped so repeated polls stay responsive to Close().
int PollTimeoutMs(Clock::time_point deadline) {
  const auto left = deadline - Clock::now();
  if (left <= Clock::duration::zero()) return 0;
  const auto ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(left).count();
  return static_cast<int>(std::min<long long>(ms + 1, 200));
}

Status Errno(const std::string& what) {
  return Status::Unavailable(what + ": " + std::string(strerror(errno)));
}

void SetNoDelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

struct sockaddr_in MakeAddr(const std::string& host, int port, bool* ok) {
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  *ok = ::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) == 1;
  return addr;
}

}  // namespace

TcpTransportMetrics TcpTransportMetrics::Create(obs::MetricsRegistry* registry) {
  TcpTransportMetrics m;
  if (registry == nullptr) return m;
  m.dials = registry->GetCounter("transport/tcp/dials");
  m.redials = registry->GetCounter("transport/tcp/redials");
  m.accepts = registry->GetCounter("transport/tcp/accepts");
  m.frames_written = registry->GetCounter("transport/tcp/frames_written");
  m.frames_read = registry->GetCounter("transport/tcp/frames_read");
  m.bytes_written = registry->GetCounter("transport/tcp/bytes_written");
  m.bytes_read = registry->GetCounter("transport/tcp/bytes_read");
  m.short_reads = registry->GetCounter("transport/tcp/short_reads");
  m.short_writes = registry->GetCounter("transport/tcp/short_writes");
  return m;
}

// ---------------------------------------------------------------------------
// TcpMessagePort

TcpMessagePort::TcpMessagePort(int fd, const NetworkConfig& config,
                               const TcpTransportMetrics& metrics,
                               std::vector<uint8_t> buffered)
    : fd_(fd), config_(config), m_(metrics), rbuf_(std::move(buffered)) {
  SetNoDelay(fd_);
}

TcpMessagePort::~TcpMessagePort() {
  closed_.store(true, std::memory_order_relaxed);
  ::close(fd_);
}

bool TcpMessagePort::Send(Message msg) {
  std::vector<uint8_t> frame = EncodeFrame(msg);
  std::lock_guard<std::mutex> lock(stats_mu_);
  ++sent_.messages;
  sent_.bytes += frame.size();
  if (closed_.load(std::memory_order_relaxed) || write_broken_) {
    ++sent_.dropped;
    return false;
  }
  size_t off = 0;
  while (off < frame.size()) {
    const ssize_t n = ::send(fd_, frame.data() + off, frame.size() - off,
                             MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<size_t>(n);
      // The kernel took only part of the frame (full socket buffer — a
      // throttled or congested link); the loop finishes it. Constantly
      // nonzero under the vf2_chaosd bandwidth scenarios.
      if (off < frame.size() && m_.short_writes != nullptr) {
        m_.short_writes->Add(1);
      }
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    // EPIPE / ECONNRESET / shutdown: connection is gone. Like the simulated
    // transport, sends fail silently — the loss surfaces on whoever next
    // waits for this message.
    write_broken_ = true;
    ++sent_.dropped;
    return false;
  }
  if (m_.frames_written != nullptr) m_.frames_written->Add(1);
  if (m_.bytes_written != nullptr) m_.bytes_written->Add(frame.size());
  return true;
}

Status TcpMessagePort::FillBuffer(int timeout_ms) {
  if (peer_gone_) return Status::Unavailable("peer closed the connection");
  struct pollfd pfd;
  pfd.fd = fd_;
  pfd.events = POLLIN;
  pfd.revents = 0;
  const int pr = ::poll(&pfd, 1, timeout_ms);
  if (pr < 0) {
    if (errno == EINTR) return Status::OK();  // caller re-checks the deadline
    return Errno("poll");
  }
  if (pr == 0) return Status::OK();  // nothing yet; caller re-checks deadline
  uint8_t chunk[64 * 1024];
  const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
  if (n > 0) {
    rbuf_.insert(rbuf_.end(), chunk, chunk + n);
    if (m_.bytes_read != nullptr) m_.bytes_read->Add(static_cast<size_t>(n));
    return Status::OK();
  }
  if (n == 0) {
    // Orderly FIN. Frames already buffered stay decodable; new reads fail.
    peer_gone_ = true;
    return Status::OK();
  }
  if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) {
    return Status::OK();
  }
  peer_gone_ = true;
  return Status::Unavailable("connection lost: " +
                             std::string(strerror(errno)));
}

Status TcpMessagePort::TakeFrame(Message* out, bool* got) {
  *got = false;
  if (rbuf_.size() < kFrameOverheadBytes) {
    if (!rbuf_.empty() && m_.short_reads != nullptr) m_.short_reads->Add(1);
    return Status::OK();
  }
  // Validate the fixed header before trusting its length field — DecodeFrame
  // re-checks everything, but only after we would have buffered payload_len
  // bytes, so the cap and sanity checks must run here first.
  if (rbuf_[0] != kWireVersion) {
    return Status::Corruption("unknown wire format version " +
                              std::to_string(rbuf_[0]) + " on socket");
  }
  const uint32_t payload_len = static_cast<uint32_t>(rbuf_[2]) |
                               (static_cast<uint32_t>(rbuf_[3]) << 8) |
                               (static_cast<uint32_t>(rbuf_[4]) << 16) |
                               (static_cast<uint32_t>(rbuf_[5]) << 24);
  if (payload_len > kMaxFramePayloadBytes) {
    return Status::Corruption(
        "socket frame announces " + std::to_string(payload_len) +
        " payload bytes, over the " + std::to_string(kMaxFramePayloadBytes) +
        "-byte cap");
  }
  const size_t frame_size = kFrameOverheadBytes + payload_len;
  if (rbuf_.size() < frame_size) {
    if (m_.short_reads != nullptr) m_.short_reads->Add(1);
    return Status::OK();
  }
  std::vector<uint8_t> frame(rbuf_.begin(), rbuf_.begin() + frame_size);
  rbuf_.erase(rbuf_.begin(), rbuf_.begin() + frame_size);
  VF2_RETURN_IF_ERROR(DecodeFrame(frame, out));
  if (m_.frames_read != nullptr) m_.frames_read->Add(1);
  *got = true;
  return Status::OK();
}

Result<Message> TcpMessagePort::Receive() {
  const bool has_deadline = config_.default_deadline_seconds > 0;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(
                             has_deadline ? config_.default_deadline_seconds
                                          : 3600.0));
  for (;;) {
    Message msg;
    bool got = false;
    VF2_RETURN_IF_ERROR(TakeFrame(&msg, &got));
    if (got) return msg;
    if (closed_.load(std::memory_order_relaxed)) {
      return Status::Aborted("channel closed");
    }
    if (peer_gone_) {
      return Status::Unavailable("peer closed the connection");
    }
    if (has_deadline && Clock::now() >= deadline) {
      return Status::DeadlineExceeded(
          "no frame within " +
          std::to_string(config_.default_deadline_seconds) + "s");
    }
    VF2_RETURN_IF_ERROR(
        FillBuffer(has_deadline ? PollTimeoutMs(deadline) : 200));
  }
}

void TcpMessagePort::Close(Status status) {
  bool expected = false;
  if (!closed_.compare_exchange_strong(expected, true)) return;
  if (!status.ok()) {
    VF2_LOG(Info) << "tcp port closing: " << status.ToString();
  }
  // FIN both ways: wakes our own blocked poll and turns the peer's pending
  // Receive into Unavailable. The fd itself stays open until the destructor
  // so no other thread can race against fd reuse.
  ::shutdown(fd_, SHUT_RDWR);
}

bool TcpMessagePort::closed() const {
  return closed_.load(std::memory_order_relaxed);
}

ChannelStats TcpMessagePort::sent_stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return sent_;
}

// ---------------------------------------------------------------------------
// TcpChannelFactory

Result<std::unique_ptr<TcpChannelFactory>> TcpChannelFactory::Listen(
    const std::string& bind_address, int port, size_t num_channels,
    const NetworkConfig& config, obs::MetricsRegistry* registry) {
  if (num_channels == 0) {
    return Status::InvalidArgument("a listener needs at least one channel");
  }
  bool addr_ok = false;
  struct sockaddr_in addr = MakeAddr(bind_address, port, &addr_ok);
  if (!addr_ok) {
    return Status::InvalidArgument("bad bind address: " + bind_address);
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) <
      0) {
    Status st = Errno("bind " + bind_address + ":" + std::to_string(port));
    ::close(fd);
    return st;
  }
  if (::listen(fd, static_cast<int>(num_channels) + 4) < 0) {
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
  auto factory = std::unique_ptr<TcpChannelFactory>(new TcpChannelFactory());
  factory->listener_ = true;
  factory->port_ = ntohs(bound.sin_port);
  factory->listen_fd_ = fd;
  factory->config_ = config;
  factory->metrics_ = TcpTransportMetrics::Create(registry);
  factory->parked_.resize(num_channels);
  return factory;
}

Result<std::unique_ptr<TcpChannelFactory>> TcpChannelFactory::Dial(
    const std::string& host, int port, size_t channel,
    const NetworkConfig& config, obs::MetricsRegistry* registry) {
  bool addr_ok = false;
  MakeAddr(host, port, &addr_ok);
  if (!addr_ok) {
    return Status::InvalidArgument("bad host address: " + host +
                                   " (numeric IPv4 expected)");
  }
  auto factory = std::unique_ptr<TcpChannelFactory>(new TcpChannelFactory());
  factory->listener_ = false;
  factory->host_ = host;
  factory->port_ = port;
  factory->dial_channel_ = channel;
  factory->config_ = config;
  factory->metrics_ = TcpTransportMetrics::Create(registry);
  factory->parked_.resize(channel + 1);
  return factory;
}

TcpChannelFactory::~TcpChannelFactory() {
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

Result<std::unique_ptr<MessagePort>> TcpChannelFactory::Reconnect(
    size_t channel, bool a_side, Clock::time_point deadline) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) return shutdown_status_;
  }
  if (listener_ == a_side) {
    return Status::InvalidArgument(
        "transport direction mismatch: the listener serves the B side, "
        "dialers serve A sides");
  }
  if (channel >= parked_.size()) {
    return Status::InvalidArgument("no rendezvous slot for channel " +
                                   std::to_string(channel));
  }
  return listener_ ? AcceptChannel(channel, deadline)
                   : DialChannel(channel, deadline);
}

Result<std::unique_ptr<MessagePort>> TcpChannelFactory::AcceptChannel(
    size_t channel, Clock::time_point deadline) {
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (shutdown_) return shutdown_status_;
      // A connection parked by an earlier Reconnect looking for a different
      // channel. Stale halves (the dialer gave up and redialed) are dropped:
      // the dialer's replacement will re-announce itself.
      if (parked_[channel] != nullptr) {
        std::unique_ptr<TcpMessagePort> ready = std::move(parked_[channel]);
        return std::unique_ptr<MessagePort>(std::move(ready));
      }
    }
    if (Clock::now() >= deadline) {
      return Status::DeadlineExceeded("no inbound connection for channel " +
                                      std::to_string(channel));
    }
    struct pollfd pfd;
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    pfd.revents = 0;
    const int pr = ::poll(&pfd, 1, PollTimeoutMs(deadline));
    if (pr < 0 && errno != EINTR) return Errno("poll(listen)");
    if (pr <= 0) continue;
    const int conn = ::accept(listen_fd_, nullptr, nullptr);
    if (conn < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == ECONNABORTED) continue;
      return Errno("accept");
    }
    if (metrics_.accepts != nullptr) metrics_.accepts->Add(1);
    // Read the routing preamble to learn which channel this connection
    // serves. A fresh port object does the frame-parsing for us; the dialer
    // sends the preamble immediately, so a short deadline is plenty.
    NetworkConfig preamble_config = config_;
    preamble_config.default_deadline_seconds = 5.0;
    auto port = std::make_unique<TcpMessagePort>(conn, preamble_config,
                                                 metrics_);
    Result<Message> hello = port->Receive();
    if (!hello.ok()) {
      VF2_LOG(Warn) << "dropping inbound connection without preamble: "
                    << hello.status().ToString();
      continue;
    }
    HelloPayload preamble;
    Status st = DecodeHello(hello.value(), &preamble);
    if (!st.ok() || preamble.party >= parked_.size()) {
      VF2_LOG(Warn) << "dropping inbound connection with bad preamble";
      continue;
    }
    const size_t got = preamble.party;
    // Rebuild the port on the same fd with the link's own config: dup the
    // fd so the preamble port's destructor close doesn't tear the link down,
    // and carry over any bytes TCP coalesced in behind the preamble.
    std::vector<uint8_t> residue = port->TakeBuffered();
    const int kept = ::dup(port->fd());
    port.reset();
    if (kept < 0) return Errno("dup");
    auto real = std::make_unique<TcpMessagePort>(kept, config_, metrics_,
                                                 std::move(residue));
    std::lock_guard<std::mutex> lock(mu_);
    if (got == channel) {
      return std::unique_ptr<MessagePort>(std::move(real));
    }
    parked_[got] = std::move(real);  // out-of-order joiner: hold for its turn
  }
}

Result<std::unique_ptr<MessagePort>> TcpChannelFactory::DialChannel(
    size_t channel, Clock::time_point deadline) {
  bool first_error = true;
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (shutdown_) return shutdown_status_;
    }
    if (Clock::now() >= deadline) {
      return Status::DeadlineExceeded("listener at " + host_ + ":" +
                                      std::to_string(port_) +
                                      " not reachable before deadline");
    }
    if (metrics_.dials != nullptr) metrics_.dials->Add(1);
    if (links_dialed_ > 0 && metrics_.redials != nullptr) {
      metrics_.redials->Add(1);
    }
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return Errno("socket");
    bool addr_ok = false;
    struct sockaddr_in addr = MakeAddr(host_, port_, &addr_ok);
    int rc;
    do {
      rc = ::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                     sizeof(addr));
    } while (rc < 0 && errno == EINTR);
    if (rc < 0) {
      if (first_error) {
        VF2_LOG(Info) << "dial " << host_ << ":" << port_
                      << " failed (" << strerror(errno) << "), retrying";
        first_error = false;
      }
      ::close(fd);
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      continue;
    }
    ++links_dialed_;
    auto port = std::make_unique<TcpMessagePort>(fd, config_, metrics_);
    // Routing preamble: tell the listener which channel slot we serve. The
    // session layer's real hello (with session id and fingerprint checks)
    // follows on top of the returned port.
    HelloPayload preamble;
    preamble.party = static_cast<uint32_t>(channel);
    port->Send(EncodeHello(preamble));
    return std::unique_ptr<MessagePort>(std::move(port));
  }
}

void TcpChannelFactory::Shutdown(Status status) {
  std::lock_guard<std::mutex> lock(mu_);
  if (shutdown_) return;  // first shutdown (and its reason) wins
  shutdown_ = true;
  shutdown_status_ = status.ok()
                         ? Status::Aborted("transport factory shut down")
                         : std::move(status);
  for (auto& p : parked_) {
    if (p != nullptr) p->Close(shutdown_status_);
  }
  // Waking a Reconnect blocked in poll(listen) happens within one poll tick
  // (<= 200 ms); closing listen_fd_ here would race the poll loop's fd use.
}

}  // namespace vf2boost

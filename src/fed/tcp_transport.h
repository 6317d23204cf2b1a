#ifndef VF2BOOST_FED_TCP_TRANSPORT_H_
#define VF2BOOST_FED_TCP_TRANSPORT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "fed/channel.h"
#include "fed/session.h"

namespace vf2boost {

namespace obs {
class Counter;
class MetricsRegistry;
}  // namespace obs

/// Registry handles for the TCP transport's counters ("transport/tcp/*").
/// All pointers may be null (metrics off); Create resolves them once so the
/// I/O paths touch only atomics. Shared by a factory and every port it cuts.
struct TcpTransportMetrics {
  obs::Counter* dials = nullptr;          ///< connect() attempts (incl. refused)
  obs::Counter* redials = nullptr;        ///< reconnect dials after generation 0
  obs::Counter* accepts = nullptr;        ///< accepted inbound connections
  obs::Counter* frames_written = nullptr;
  obs::Counter* frames_read = nullptr;
  obs::Counter* bytes_written = nullptr;  ///< frame bytes handed to the kernel
  obs::Counter* bytes_read = nullptr;     ///< frame bytes taken off the socket
  obs::Counter* short_reads = nullptr;    ///< reads that returned a partial frame
  obs::Counter* short_writes = nullptr;   ///< send() calls that took only part
                                          ///< of a frame (looped until whole)

  static TcpTransportMetrics Create(obs::MetricsRegistry* registry);
};

/// \brief Socket-backed MessagePort: ships the exact length-prefixed frames
/// of src/fed/message.cc over one TCP connection.
///
/// Socket conditions map onto the Status taxonomy the engines and the
/// session layer already understand (IsTransientFault):
///   - peer FIN / connection reset        -> Status::Unavailable
///   - receive deadline expired           -> Status::DeadlineExceeded
///   - bad header / oversized len / CRC   -> Status::Corruption
/// so SessionChannel's reconnect/backoff/kHello machinery works unchanged
/// over a real network. The frame header is validated (version, type,
/// payload_len <= kMaxFramePayloadBytes) before the payload buffer is
/// allocated — a corrupted or hostile length field can never drive a huge
/// allocation.
///
/// Wire-level trace context: the frame header carries whatever trace id the
/// message holds (the session layer stamps it), and Receive hands it back
/// intact, so flows pair exactly across the per-process trace files
/// vf2_trace_merge stitches.
///
/// Send never blocks on protocol state (TCP backpressure aside) and never
/// fails loudly: like ChannelEndpoint, a write to a broken connection counts
/// the message as dropped (Send returns false) and the failure surfaces on
/// the peer as a receive error. Thread-compatible: one engine thread per
/// port, plus Close from any thread.
class TcpMessagePort : public MessagePort {
 public:
  /// Takes ownership of connected socket `fd`. Only `config`'s
  /// default_deadline_seconds is honored. `buffered` seeds the inbound
  /// buffer with bytes already read off the socket by a predecessor port
  /// (see TakeBuffered).
  TcpMessagePort(int fd, const NetworkConfig& config,
                 const TcpTransportMetrics& metrics = {},
                 std::vector<uint8_t> buffered = {});
  ~TcpMessagePort() override;

  TcpMessagePort(const TcpMessagePort&) = delete;
  TcpMessagePort& operator=(const TcpMessagePort&) = delete;

  bool Send(Message msg) override;
  Result<Message> Receive() override;
  /// Half-closes the socket (FIN) and wakes any blocked Receive — local and
  /// remote. The status itself cannot ride a raw socket: a terminal peer
  /// failure surfaces here as Unavailable, not as the peer's root cause.
  void Close(Status status) override;
  bool closed() const override;
  ChannelStats sent_stats() const override;

  int fd() const { return fd_; }

  /// Surrenders the undecoded inbound bytes. Used when handing a live
  /// connection from a preamble-reading port to its replacement — TCP may
  /// coalesce the preamble and the frames behind it into one read, and those
  /// trailing bytes must not die with this object.
  std::vector<uint8_t> TakeBuffered() { return std::move(rbuf_); }

 private:
  /// Blocks (poll) until at least one more byte is buffered or `deadline_ms`
  /// relative milliseconds pass (-1 = forever). OK = progress was made.
  Status FillBuffer(int timeout_ms);
  /// Extracts one complete frame from rbuf_ into *out. *got=false when the
  /// buffered bytes do not yet form a full frame. Header validation errors
  /// are Status::Corruption.
  Status TakeFrame(Message* out, bool* got);

  const int fd_;
  const NetworkConfig config_;
  TcpTransportMetrics m_;

  std::atomic<bool> closed_{false};
  bool peer_gone_ = false;           ///< EOF or reset seen on read
  std::vector<uint8_t> rbuf_;        ///< undecoded inbound bytes
  bool write_broken_ = false;        ///< EPIPE/reset seen on write

  mutable std::mutex stats_mu_;
  ChannelStats sent_;
};

/// \brief ChannelFactory over real TCP: listener-side accept (Party B) and
/// client-side redial (Party A).
///
/// The listener owns one rendezvous slot per channel (= per A party). A
/// dialing side opens a connection and sends one routing preamble — a kHello
/// frame whose `party` field carries the channel index — which the listener
/// uses to park the connection on the right slot; connections for other
/// channels accepted while waiting are parked, not dropped, so multi-party
/// processes can join in any order. Reconnect(channel) then hands over the
/// parked connection. The SessionChannel built on top runs its own kHello
/// handshake with full session/fingerprint validation afterwards; the
/// preamble is routing only.
class TcpChannelFactory : public ChannelFactory {
 public:
  /// Party B: binds `bind_address:port` (port 0 = ephemeral, see port()) and
  /// listens for `num_channels` A parties.
  static Result<std::unique_ptr<TcpChannelFactory>> Listen(
      const std::string& bind_address, int port, size_t num_channels,
      const NetworkConfig& config, obs::MetricsRegistry* registry = nullptr);

  /// Party A_i: dials `host:port`, identifying as `channel` = i. Reconnect
  /// redials from scratch, sleeping between refused attempts, until the
  /// listener answers or the deadline passes.
  static Result<std::unique_ptr<TcpChannelFactory>> Dial(
      const std::string& host, int port, size_t channel,
      const NetworkConfig& config, obs::MetricsRegistry* registry = nullptr);

  ~TcpChannelFactory() override;

  Result<std::unique_ptr<MessagePort>> Reconnect(
      size_t channel, bool a_side,
      ChannelEndpoint::Clock::time_point deadline) override;

  void Shutdown(Status status) override;

  /// Listener only: the bound port (resolves a requested port 0).
  int port() const { return port_; }

 private:
  TcpChannelFactory() = default;

  Result<std::unique_ptr<MessagePort>> AcceptChannel(
      size_t channel, ChannelEndpoint::Clock::time_point deadline);
  Result<std::unique_ptr<MessagePort>> DialChannel(
      size_t channel, ChannelEndpoint::Clock::time_point deadline);

  bool listener_ = false;
  std::string host_;          // dialer: peer host
  int port_ = 0;              // listener: bound port; dialer: peer port
  size_t dial_channel_ = 0;   // dialer: the one channel this side serves
  int listen_fd_ = -1;
  NetworkConfig config_;
  TcpTransportMetrics metrics_;

  std::mutex mu_;
  Status shutdown_status_;
  bool shutdown_ = false;
  std::vector<std::unique_ptr<TcpMessagePort>> parked_;  // per channel
  std::atomic<size_t> links_dialed_{0};  // dialer: for the redials count
};

}  // namespace vf2boost

#endif  // VF2BOOST_FED_TCP_TRANSPORT_H_

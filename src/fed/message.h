#ifndef VF2BOOST_FED_MESSAGE_H_
#define VF2BOOST_FED_MESSAGE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace vf2boost {

/// Cross-party message kinds. The wire protocol is strictly FIFO per
/// direction (the paper's Pulsar queues are ordered per channel), and the
/// engines rely on that ordering.
enum class MessageType : uint8_t {
  kPublicKey = 1,       ///< B -> A: Paillier public key
  kLayout = 2,          ///< A -> B: histogram layout (bins per feature)
  kGradBatch = 3,       ///< B -> A: encrypted gradient/hessian batch
  kNodeHistogram = 4,   ///< A -> B: encrypted histogram of one node
  kDecisions = 5,       ///< B -> A: resolved split decisions for one layer
  kOptPlacements = 6,   ///< B -> A: optimistic split placements (optimistic)
  // 7 is retired: never reuse it, an older peer could still send it.
  kPlacement = 8,       ///< A -> B: instance placement for an A-owned split
  kTreeDone = 9,        ///< B -> A: tree finished
  kTrainDone = 10,      ///< B -> A: training finished
  kSplitQueries = 11,   ///< B -> A: "you own these splits; send placements"
  kServeQuery = 12,     ///< B -> A: inference branch-direction query
  kServeReply = 13,     ///< A -> B: direction bitmap for a serve query
  kServeDone = 14,      ///< B -> A: serving session shutdown
  kHello = 15,          ///< both ways: session re-establishment handshake
  /// A -> B: piggybacked metric snapshot for cross-party federation (sent at
  /// tree boundaries when FedConfig::federate_metrics is on). Observability
  /// only: ignored by the training state machine and excluded from
  /// FedConfig::Fingerprint().
  kMetricsDelta = 16,
  /// A -> B: NTP-style clock probe (t1 = sender's trace clock). Sideband
  /// traffic like kMetricsDelta: observability only, never buffered against
  /// the inbox cap, ignored by the training state machine.
  kClockPing = 17,
  /// B -> A: probe echo carrying (t1, t2=receive, t3=send) on B's clock.
  kClockPong = 18,
  /// Both ways: session-layer liveness beacon (empty payload). Sent
  /// periodically by SessionChannel when heartbeats are enabled and consumed
  /// below the engines' inboxes, so a half-open or SIGSTOP'd peer is
  /// detected within the liveness budget even when the protocol itself is
  /// quiet. Observability/liveness only: never buffered, never part of the
  /// training state machine, excluded from FedConfig::Fingerprint().
  kHeartbeat = 19,
  // 20-23 are retired: never reuse them, an older peer could still send them.
};

/// Human-readable type name (logging / stats).
const char* MessageTypeName(MessageType type);

/// Clock probes are fire-and-forget sideband traffic: one can legitimately
/// still be in flight when a run shuts down, so the session layer skips
/// trace flow emission for them — a dangling snd with no rcv would fail the strict
/// flow-balance check on otherwise healthy traces.
inline bool IsClockSyncFrame(MessageType type) {
  return type == MessageType::kClockPing || type == MessageType::kClockPong;
}

/// Heartbeats are fire-and-forget like the clock probes — one is routinely
/// in flight when a link dies or a run shuts down — so the session layer
/// skips trace flow emission and flight-ring frame events for them: a periodic beacon
/// would both unbalance the strict flow audit and flood the bounded ring.
inline bool IsHeartbeatFrame(MessageType type) {
  return type == MessageType::kHeartbeat;
}

/// Wire frame layout (kFrameOverheadBytes of header ahead of the payload):
///   [version u8][type u8][payload_len u32 LE][trace_id u64 LE]
///   [crc32 u32 LE][payload bytes]
/// The CRC covers type byte, trace-id bytes, then the payload, so a frame
/// whose type, trace context OR payload was corrupted in flight always fails
/// the checksum. v2 added the trace-id word: a per-process monotone id that
/// lets the send-side flow event of a frame match its receive-side event by
/// id across merged multi-process trace files. v3 changed the histogram
/// schedule, not a frame: Party A sends one kNodeHistogram per split (the
/// smaller child's) and Party B derives the other child's.
inline constexpr uint8_t kWireVersion = 3;
inline constexpr size_t kFrameOverheadBytes = 18;

/// Upper bound on a frame's payload. The header's length field is attacker-
/// controlled until the CRC has been checked, and a socket reader sizes its
/// payload buffer from that field — without a cap, a single corrupted or
/// hostile header drives a multi-GB allocation before any integrity check
/// runs. 1 GiB comfortably clears the largest real message (a full-dataset
/// kGradBatch) while keeping a poisoned length harmless.
inline constexpr size_t kMaxFramePayloadBytes = size_t{1} << 30;

/// \brief One message: a kind plus an opaque serialized payload. WireBytes
/// (payload + frame header) is the real wire footprint the links account.
struct Message {
  MessageType type;
  std::vector<uint8_t> payload;
  /// Wire-level trace context: stamped by the sending session (0 = not yet
  /// assigned), carried in the frame header, and used as the flow id on
  /// both the send and receive side so merged traces draw exact arrows.
  /// Not part of message identity or protocol semantics.
  uint64_t trace_id = 0;

  size_t WireBytes() const { return payload.size() + kFrameOverheadBytes; }
};

/// Serializes `msg` into a self-describing checksummed frame.
std::vector<uint8_t> EncodeFrame(const Message& msg);

/// Parses a frame produced by EncodeFrame. Rejects truncated frames, unknown
/// wire versions, unknown message types, length mismatches, and checksum
/// failures with a descriptive Status::Corruption — a corrupted frame is
/// never mis-parsed into a plausible message.
Status DecodeFrame(const std::vector<uint8_t>& frame, Message* out);

/// \brief kHello body: exchanged over every new link generation so both
/// parties agree on which session this is and prove they run compatible
/// configurations. The setup exchange (kPublicKey / kLayout) follows it on
/// every generation, so the hello carries no protocol state. Lives here (not
/// protocol.h) because the session layer below the protocol needs it.
struct HelloPayload {
  uint64_t session_id = 0;
  /// Sender's party index (A parties are 0..n-1, B is n).
  uint32_t party = 0;
  /// FedConfig::Fingerprint() of the sender — both sides must match.
  uint64_t config_fingerprint = 0;
  /// Sender's trace clock (TraceNowMicros) when the hello was built. Seeds
  /// the peer's clock-offset estimate before any ping/pong round completes;
  /// observability only, excluded from session/fingerprint validation.
  int64_t clock_micros = 0;
};

Message EncodeHello(const HelloPayload& hello);
Status DecodeHello(const Message& msg, HelloPayload* out);

/// \brief kClockPing/kClockPong bodies: the NTP-style probe timestamps, all
/// on the sender's respective trace clocks (microseconds). A sends t1; B
/// echoes it with its receive (t2) and send (t3) stamps; A adds t4 on
/// arrival and feeds the quadruple to obs::ClockSync.
struct ClockPingPayload {
  int64_t t1 = 0;
};
struct ClockPongPayload {
  int64_t t1 = 0;
  int64_t t2 = 0;
  int64_t t3 = 0;
};

Message EncodeClockPing(const ClockPingPayload& ping);
Status DecodeClockPing(const Message& msg, ClockPingPayload* out);
Message EncodeClockPong(const ClockPongPayload& pong);
Status DecodeClockPong(const Message& msg, ClockPongPayload* out);

}  // namespace vf2boost

#endif  // VF2BOOST_FED_MESSAGE_H_

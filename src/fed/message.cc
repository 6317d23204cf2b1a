#include "fed/message.h"

#include "common/bytes.h"
#include "common/crc32.h"

namespace vf2boost {

const char* MessageTypeName(MessageType type) {
  switch (type) {
    case MessageType::kPublicKey:
      return "PublicKey";
    case MessageType::kLayout:
      return "Layout";
    case MessageType::kGradBatch:
      return "GradBatch";
    case MessageType::kNodeHistogram:
      return "NodeHistogram";
    case MessageType::kDecisions:
      return "Decisions";
    case MessageType::kOptPlacements:
      return "OptPlacements";
    case MessageType::kPlacement:
      return "Placement";
    case MessageType::kTreeDone:
      return "TreeDone";
    case MessageType::kTrainDone:
      return "TrainDone";
    case MessageType::kSplitQueries:
      return "SplitQueries";
    case MessageType::kServeQuery:
      return "ServeQuery";
    case MessageType::kServeReply:
      return "ServeReply";
    case MessageType::kServeDone:
      return "ServeDone";
    case MessageType::kHello:
      return "Hello";
    case MessageType::kMetricsDelta:
      return "MetricsDelta";
    case MessageType::kClockPing:
      return "ClockPing";
    case MessageType::kClockPong:
      return "ClockPong";
    case MessageType::kHeartbeat:
      return "Heartbeat";
  }
  return "Unknown";
}


namespace {

/// True for every MessageType value the protocol defines; DecodeFrame uses
/// this to reject frames whose type byte was corrupted into a gap value,
/// including the retired 7 and 20-23.
bool IsKnownMessageType(uint8_t raw) {
  return raw >= 1 && raw <= static_cast<uint8_t>(MessageType::kHeartbeat) &&
         raw != 7;
}

void PutU32Le(std::vector<uint8_t>* buf, uint32_t v) {
  buf->push_back(static_cast<uint8_t>(v));
  buf->push_back(static_cast<uint8_t>(v >> 8));
  buf->push_back(static_cast<uint8_t>(v >> 16));
  buf->push_back(static_cast<uint8_t>(v >> 24));
}

uint32_t GetU32Le(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

void PutU64Le(std::vector<uint8_t>* buf, uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    buf->push_back(static_cast<uint8_t>(v >> shift));
  }
}

uint64_t GetU64Le(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

uint32_t FrameCrc(uint8_t type, const uint8_t* trace_id8,
                  const uint8_t* payload, size_t len) {
  uint32_t crc = Crc32(&type, 1);
  crc = Crc32(trace_id8, 8, crc);
  return Crc32(payload, len, crc);
}

}  // namespace

std::vector<uint8_t> EncodeFrame(const Message& msg) {
  std::vector<uint8_t> frame;
  frame.reserve(kFrameOverheadBytes + msg.payload.size());
  frame.push_back(kWireVersion);
  frame.push_back(static_cast<uint8_t>(msg.type));
  PutU32Le(&frame, static_cast<uint32_t>(msg.payload.size()));
  PutU64Le(&frame, msg.trace_id);
  PutU32Le(&frame,
           FrameCrc(static_cast<uint8_t>(msg.type), frame.data() + 6,
                    msg.payload.data(), msg.payload.size()));
  frame.insert(frame.end(), msg.payload.begin(), msg.payload.end());
  return frame;
}

Status DecodeFrame(const std::vector<uint8_t>& frame, Message* out) {
  if (frame.size() < kFrameOverheadBytes) {
    return Status::Corruption("frame truncated: " +
                              std::to_string(frame.size()) +
                              " bytes, header needs " +
                              std::to_string(kFrameOverheadBytes));
  }
  if (frame[0] != kWireVersion) {
    return Status::Corruption("unknown wire format version " +
                              std::to_string(frame[0]) + " (expected " +
                              std::to_string(kWireVersion) + ")");
  }
  const uint8_t raw_type = frame[1];
  if (!IsKnownMessageType(raw_type)) {
    return Status::Corruption("unknown message type " +
                              std::to_string(raw_type));
  }
  const uint32_t payload_len = GetU32Le(frame.data() + 2);
  if (payload_len > kMaxFramePayloadBytes) {
    return Status::Corruption("frame payload length " +
                              std::to_string(payload_len) +
                              " exceeds the " +
                              std::to_string(kMaxFramePayloadBytes) +
                              "-byte cap");
  }
  if (payload_len != frame.size() - kFrameOverheadBytes) {
    return Status::Corruption(
        "frame length mismatch: header says " + std::to_string(payload_len) +
        " payload bytes, frame carries " +
        std::to_string(frame.size() - kFrameOverheadBytes));
  }
  const uint32_t want_crc = GetU32Le(frame.data() + 14);
  const uint32_t got_crc =
      FrameCrc(raw_type, frame.data() + 6,
               frame.data() + kFrameOverheadBytes, payload_len);
  if (want_crc != got_crc) {
    return Status::Corruption("frame CRC mismatch on " +
                              std::string(MessageTypeName(
                                  static_cast<MessageType>(raw_type))) +
                              " frame (" + std::to_string(payload_len) +
                              " payload bytes)");
  }
  out->type = static_cast<MessageType>(raw_type);
  out->trace_id = GetU64Le(frame.data() + 6);
  out->payload.assign(frame.begin() + kFrameOverheadBytes, frame.end());
  return Status::OK();
}

Message EncodeHello(const HelloPayload& hello) {
  ByteWriter w;
  w.PutU64(hello.session_id);
  w.PutU32(hello.party);
  w.PutU64(hello.config_fingerprint);
  w.PutI64(hello.clock_micros);
  return Message{MessageType::kHello, w.Release()};
}

Status DecodeHello(const Message& msg, HelloPayload* out) {
  if (msg.type != MessageType::kHello) {
    return Status::ProtocolError(std::string("expected Hello, got ") +
                                 MessageTypeName(msg.type));
  }
  ByteReader r(msg.payload);
  VF2_RETURN_IF_ERROR(r.GetU64(&out->session_id));
  VF2_RETURN_IF_ERROR(r.GetU32(&out->party));
  VF2_RETURN_IF_ERROR(r.GetU64(&out->config_fingerprint));
  VF2_RETURN_IF_ERROR(r.GetI64(&out->clock_micros));
  return r.ExpectEnd("Hello");
}

Message EncodeClockPing(const ClockPingPayload& ping) {
  ByteWriter w;
  w.PutI64(ping.t1);
  return Message{MessageType::kClockPing, w.Release()};
}

Status DecodeClockPing(const Message& msg, ClockPingPayload* out) {
  if (msg.type != MessageType::kClockPing) {
    return Status::ProtocolError(std::string("expected ClockPing, got ") +
                                 MessageTypeName(msg.type));
  }
  ByteReader r(msg.payload);
  VF2_RETURN_IF_ERROR(r.GetI64(&out->t1));
  return r.ExpectEnd("ClockPing");
}

Message EncodeClockPong(const ClockPongPayload& pong) {
  ByteWriter w;
  w.PutI64(pong.t1);
  w.PutI64(pong.t2);
  w.PutI64(pong.t3);
  return Message{MessageType::kClockPong, w.Release()};
}

Status DecodeClockPong(const Message& msg, ClockPongPayload* out) {
  if (msg.type != MessageType::kClockPong) {
    return Status::ProtocolError(std::string("expected ClockPong, got ") +
                                 MessageTypeName(msg.type));
  }
  ByteReader r(msg.payload);
  VF2_RETURN_IF_ERROR(r.GetI64(&out->t1));
  VF2_RETURN_IF_ERROR(r.GetI64(&out->t2));
  VF2_RETURN_IF_ERROR(r.GetI64(&out->t3));
  return r.ExpectEnd("ClockPong");
}

}  // namespace vf2boost

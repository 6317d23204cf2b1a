#include "obs/flight_recorder.h"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>

#include "common/logging.h"
#include "obs/trace.h"

namespace vf2boost {
namespace obs {

std::atomic<FlightRecorder*> FlightRecorder::g_current{nullptr};

const char* FlightRecorder::KindName(Kind kind) {
  switch (kind) {
    case Kind::kFrameSent:
      return "frame_sent";
    case Kind::kFrameReceived:
      return "frame_received";
    case Kind::kPhase:
      return "phase";
    case Kind::kTreeBoundary:
      return "tree_boundary";
    case Kind::kReconnect:
      return "reconnect";
    case Kind::kStateChange:
      return "state_change";
    case Kind::kWatchdog:
      return "watchdog";
    case Kind::kNote:
      return "note";
    case Kind::kLiveness:
      return "liveness";
  }
  return "unknown";
}

FlightRecorder::FlightRecorder() = default;

FlightRecorder::~FlightRecorder() {
  FlightRecorder* expected = this;
  g_current.compare_exchange_strong(expected, nullptr,
                                    std::memory_order_acq_rel);
}

void FlightRecorder::Install() {
  g_current.store(this, std::memory_order_release);
}

void FlightRecorder::Uninstall() {
  g_current.store(nullptr, std::memory_order_release);
}

void FlightRecorder::Record(Kind kind, uint32_t code, int64_t a, int64_t b,
                            const char* detail) {
  const uint64_t idx = cursor_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = ring_[idx % kCapacity];
  // Odd sequence marks the slot torn; readers that observe it (or a
  // mismatched pair around their copy) drop the entry.
  slot.seq.store(2 * idx + 1, std::memory_order_release);
  Entry& e = slot.entry;
  e.ts_us = TraceNowMicros();
  e.pid = CurrentTraceThreadPid();
  e.kind = kind;
  e.code = code;
  e.a = a;
  e.b = b;
  if (detail == nullptr) {
    e.detail[0] = '\0';
  } else {
    std::strncpy(e.detail, detail, kDetailBytes - 1);
    e.detail[kDetailBytes - 1] = '\0';
  }
  slot.seq.store(2 * idx + 2, std::memory_order_release);
  // Coarse progress boundaries double as persistence points: a later
  // SIGKILL then costs at most the events since the last boundary.
  if (!persist_path_.empty() &&
      (kind == Kind::kTreeBoundary || kind == Kind::kReconnect ||
       kind == Kind::kWatchdog || kind == Kind::kLiveness)) {
    Persist();
  }
}

void FlightRecorder::RecordEvent(Kind kind, uint32_t code, int64_t a,
                                 int64_t b, const char* detail) {
  if (FlightRecorder* fr = Current(); fr != nullptr) {
    fr->Record(kind, code, a, b, detail);
  }
}

void FlightRecorder::SetPersistPath(const std::string& path) {
  persist_path_ = path;
}

std::vector<FlightRecorder::Entry> FlightRecorder::Snapshot() const {
  const uint64_t end = cursor_.load(std::memory_order_acquire);
  const uint64_t count = end < kCapacity ? end : kCapacity;
  std::vector<Entry> out;
  out.reserve(count);
  for (uint64_t idx = end - count; idx < end; ++idx) {
    const Slot& slot = ring_[idx % kCapacity];
    const uint64_t before = slot.seq.load(std::memory_order_acquire);
    if (before != 2 * idx + 2) continue;  // torn or already overwritten
    Entry copy = slot.entry;
    const uint64_t after = slot.seq.load(std::memory_order_acquire);
    if (after != before) continue;
    out.push_back(copy);
  }
  return out;
}

namespace {

void AppendEscaped(std::string* out, const char* s) {
  for (; *s != '\0'; ++s) {
    if (*s == '"' || *s == '\\') *out += '\\';
    *out += *s;
  }
}

}  // namespace

std::string FlightRecorder::ToJson() const {
  const std::vector<Entry> events = Snapshot();
  const char* last_phase = "";
  const char* last_frame = "";
  for (const Entry& e : events) {
    if (e.kind == Kind::kPhase) last_phase = e.detail;
    if (e.kind == Kind::kFrameSent || e.kind == Kind::kFrameReceived) {
      last_frame = e.detail;
    }
  }
  std::string out = "{\"flightRecorder\":{";
  char buf[192];
  std::snprintf(buf, sizeof(buf), "\"events_recorded\":%llu,",
                static_cast<unsigned long long>(
                    cursor_.load(std::memory_order_relaxed)));
  out += buf;
  out += "\"last_phase\":\"";
  AppendEscaped(&out, last_phase);
  out += "\",\"last_frame\":\"";
  AppendEscaped(&out, last_frame);
  out += "\",\"events\":[\n";
  bool first = true;
  for (const Entry& e : events) {
    std::snprintf(buf, sizeof(buf),
                  "%s{\"ts_us\":%lld,\"pid\":%u,\"kind\":\"%s\","
                  "\"code\":%u,\"a\":%lld,\"b\":%lld,\"detail\":\"",
                  first ? "" : ",\n", static_cast<long long>(e.ts_us), e.pid,
                  KindName(e.kind), e.code, static_cast<long long>(e.a),
                  static_cast<long long>(e.b));
    out += buf;
    AppendEscaped(&out, e.detail);
    out += "\"}";
    first = false;
  }
  out += "\n]}}\n";
  return out;
}

bool FlightRecorder::Dump(const std::string& path) const {
  // Written aside and renamed over `path`, so a SIGKILL mid-write leaves
  // the previous dump, never a truncated one.
  static std::atomic<uint64_t> next_tmp{0};
  const std::string tmp = path + ".tmp" + std::to_string(next_tmp++);
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) {
    VF2_LOG(Error) << "cannot open " << tmp << " for flight-recorder dump";
    return false;
  }
  const std::string json = ToJson();
  const bool written =
      std::fwrite(json.data(), 1, json.size(), f) == json.size();
  if (std::fclose(f) == 0 && written &&
      std::rename(tmp.c_str(), path.c_str()) == 0) {
    return true;
  }
  std::remove(tmp.c_str());
  VF2_LOG(Error) << "flight-recorder dump to " << path << " failed";
  return false;
}

void FlightRecorder::Persist() const {
  if (!persist_path_.empty()) Dump(persist_path_);
}

namespace {

// Async-signal-safe helpers for SignalDump: no allocation, no locale, no
// locks — just byte pushing into a caller-owned buffer.
size_t SigAppendStr(char* buf, size_t pos, size_t cap, const char* s) {
  for (; *s != '\0' && pos + 1 < cap; ++s) {
    const unsigned char c = static_cast<unsigned char>(*s);
    if (c == '"' || c == '\\' || c < 0x20) {
      buf[pos++] = '?';
    } else {
      buf[pos++] = *s;
    }
  }
  return pos;
}

size_t SigAppendInt(char* buf, size_t pos, size_t cap, long long v) {
  char digits[24];
  size_t n = 0;
  unsigned long long u =
      v < 0 ? static_cast<unsigned long long>(-(v + 1)) + 1
            : static_cast<unsigned long long>(v);
  do {
    digits[n++] = static_cast<char>('0' + u % 10);
    u /= 10;
  } while (u != 0 && n < sizeof(digits));
  if (v < 0 && pos + 1 < cap) buf[pos++] = '-';
  while (n > 0 && pos + 1 < cap) buf[pos++] = digits[--n];
  return pos;
}

size_t SigAppendLit(char* buf, size_t pos, size_t cap, const char* s) {
  for (; *s != '\0' && pos + 1 < cap; ++s) buf[pos++] = *s;
  return pos;
}

}  // namespace

void FlightRecorder::SignalDump() const {
  if (persist_path_.empty()) return;
  const int fd =
      ::open(persist_path_.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return;
  // One entry per write(2): bounded stack usage, and a partially written
  // file still parses up to the last complete write in most cases — the
  // closing brackets go out last.
  // No Snapshot() here: it allocates. Read the ring in place instead —
  // atomics, stack buffers, and write(2) only.
  char buf[512];
  size_t pos = 0;
  const uint64_t end = cursor_.load(std::memory_order_acquire);
  const uint64_t count = end < kCapacity ? end : kCapacity;
  const char* last_phase = "";
  const char* last_frame = "";
  for (uint64_t idx = end - count; idx < end; ++idx) {
    const Slot& slot = ring_[idx % kCapacity];
    if (slot.seq.load(std::memory_order_acquire) != 2 * idx + 2) continue;
    const Entry& e = slot.entry;
    if (e.kind == Kind::kPhase) last_phase = e.detail;
    if (e.kind == Kind::kFrameSent || e.kind == Kind::kFrameReceived) {
      last_frame = e.detail;
    }
  }
  pos = SigAppendLit(buf, pos, sizeof(buf),
                     "{\"flightRecorder\":{\"events_recorded\":");
  pos = SigAppendInt(buf, pos, sizeof(buf), static_cast<long long>(end));
  pos = SigAppendLit(buf, pos, sizeof(buf), ",\"last_phase\":\"");
  pos = SigAppendStr(buf, pos, sizeof(buf), last_phase);
  pos = SigAppendLit(buf, pos, sizeof(buf), "\",\"last_frame\":\"");
  pos = SigAppendStr(buf, pos, sizeof(buf), last_frame);
  pos = SigAppendLit(buf, pos, sizeof(buf), "\",\"events\":[\n");
  (void)!::write(fd, buf, pos);
  bool first = true;
  for (uint64_t idx = end - count; idx < end; ++idx) {
    const Slot& slot = ring_[idx % kCapacity];
    if (slot.seq.load(std::memory_order_acquire) != 2 * idx + 2) continue;
    const Entry& e = slot.entry;
    pos = 0;
    if (!first) pos = SigAppendLit(buf, pos, sizeof(buf), ",\n");
    first = false;
    pos = SigAppendLit(buf, pos, sizeof(buf), "{\"ts_us\":");
    pos = SigAppendInt(buf, pos, sizeof(buf), e.ts_us);
    pos = SigAppendLit(buf, pos, sizeof(buf), ",\"pid\":");
    pos = SigAppendInt(buf, pos, sizeof(buf), e.pid);
    pos = SigAppendLit(buf, pos, sizeof(buf), ",\"kind\":\"");
    pos = SigAppendStr(buf, pos, sizeof(buf), KindName(e.kind));
    pos = SigAppendLit(buf, pos, sizeof(buf), "\",\"code\":");
    pos = SigAppendInt(buf, pos, sizeof(buf), e.code);
    pos = SigAppendLit(buf, pos, sizeof(buf), ",\"a\":");
    pos = SigAppendInt(buf, pos, sizeof(buf), e.a);
    pos = SigAppendLit(buf, pos, sizeof(buf), ",\"b\":");
    pos = SigAppendInt(buf, pos, sizeof(buf), e.b);
    pos = SigAppendLit(buf, pos, sizeof(buf), ",\"detail\":\"");
    pos = SigAppendStr(buf, pos, sizeof(buf), e.detail);
    pos = SigAppendLit(buf, pos, sizeof(buf), "\"}");
    (void)!::write(fd, buf, pos);
  }
  pos = 0;
  pos = SigAppendLit(buf, pos, sizeof(buf), "\n]}}\n");
  (void)!::write(fd, buf, pos);
  ::close(fd);
}

}  // namespace obs
}  // namespace vf2boost

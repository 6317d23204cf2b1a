#ifndef VF2BOOST_COMMON_BYTES_H_
#define VF2BOOST_COMMON_BYTES_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/status.h"

namespace vf2boost {

/// \brief Append-only little-endian binary encoder for cross-party messages.
///
/// The federated channel carries opaque byte payloads; every message type in
/// src/fed serializes through this writer and the matching ByteReader so the
/// wire sizes counted by the network simulator are the real ones.
class ByteWriter {
 public:
  void PutU8(uint8_t v) { buf_.push_back(v); }
  void PutU32(uint32_t v) { PutRaw(&v, sizeof(v)); }
  void PutU64(uint64_t v) { PutRaw(&v, sizeof(v)); }
  void PutI32(int32_t v) { PutRaw(&v, sizeof(v)); }
  void PutI64(int64_t v) { PutRaw(&v, sizeof(v)); }
  void PutDouble(double v) { PutRaw(&v, sizeof(v)); }

  /// Length-prefixed byte string.
  void PutBytes(const uint8_t* data, size_t len) {
    PutU64(static_cast<uint64_t>(len));
    PutRaw(data, len);
  }
  void PutString(const std::string& s) {
    PutBytes(reinterpret_cast<const uint8_t*>(s.data()), s.size());
  }
  /// Length-prefixed vector of u64 words (BigInt limbs, bitmap words).
  void PutU64Vector(const std::vector<uint64_t>& v) {
    PutU64(v.size());
    PutRaw(v.data(), v.size() * sizeof(uint64_t));
  }

  const std::vector<uint8_t>& data() const { return buf_; }
  std::vector<uint8_t> Release() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

 private:
  void PutRaw(const void* p, size_t n) {
    const uint8_t* b = static_cast<const uint8_t*>(p);
    buf_.insert(buf_.end(), b, b + n);
  }

  std::vector<uint8_t> buf_;
};

/// \brief Bounds-checked decoder matching ByteWriter. All getters return
/// Status so a truncated or corrupt cross-party message surfaces as
/// Status::Corruption rather than undefined behaviour.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t len) : data_(data), len_(len) {}
  explicit ByteReader(const std::vector<uint8_t>& buf)
      : data_(buf.data()), len_(buf.size()) {}

  Status GetU8(uint8_t* v) { return GetRaw(v, sizeof(*v)); }
  Status GetU32(uint32_t* v) { return GetRaw(v, sizeof(*v)); }
  Status GetU64(uint64_t* v) { return GetRaw(v, sizeof(*v)); }
  Status GetI32(int32_t* v) { return GetRaw(v, sizeof(*v)); }
  Status GetI64(int64_t* v) { return GetRaw(v, sizeof(*v)); }
  Status GetDouble(double* v) { return GetRaw(v, sizeof(*v)); }

  Status GetString(std::string* s);
  Status GetU64Vector(std::vector<uint64_t>* v);

  size_t remaining() const { return len_ - pos_; }
  bool AtEnd() const { return pos_ == len_; }
  /// The end-of-payload check every decoder finishes with: Corruption
  /// ("trailing bytes in <what> payload") unless every byte was read, so an
  /// encoder/decoder mismatch is never decoded as if the bytes were absent.
  Status ExpectEnd(const char* what) const;

 private:
  Status GetRaw(void* p, size_t n);

  const uint8_t* data_;
  size_t len_;
  size_t pos_ = 0;
};

}  // namespace vf2boost

#endif  // VF2BOOST_COMMON_BYTES_H_

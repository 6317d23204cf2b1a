#include "common/bytes.h"

namespace vf2boost {

Status ByteReader::ExpectEnd(const char* what) const {
  if (AtEnd()) return Status::OK();
  return Status::Corruption(std::to_string(remaining()) +
                            " trailing bytes in " + what + " payload");
}

Status ByteReader::GetRaw(void* p, size_t n) {
  if (n > len_ - pos_) {
    return Status::Corruption("message truncated: need " + std::to_string(n) +
                              " bytes, have " + std::to_string(len_ - pos_));
  }
  std::memcpy(p, data_ + pos_, n);
  pos_ += n;
  return Status::OK();
}

Status ByteReader::GetString(std::string* s) {
  uint64_t n = 0;
  VF2_RETURN_IF_ERROR(GetU64(&n));
  if (n > len_ - pos_) return Status::Corruption("string length out of range");
  s->assign(reinterpret_cast<const char*>(data_ + pos_),
            static_cast<size_t>(n));
  pos_ += n;
  return Status::OK();
}

Status ByteReader::GetU64Vector(std::vector<uint64_t>* v) {
  uint64_t n = 0;
  VF2_RETURN_IF_ERROR(GetU64(&n));
  if (n > (len_ - pos_) / sizeof(uint64_t)) {
    return Status::Corruption("u64 vector length out of range");
  }
  v->resize(static_cast<size_t>(n));
  if (n > 0) {
    std::memcpy(v->data(), data_ + pos_, n * sizeof(uint64_t));
    pos_ += n * sizeof(uint64_t);
  }
  return Status::OK();
}

}  // namespace vf2boost

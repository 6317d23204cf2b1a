#include "fed/placement.h"

#include "common/logging.h"

namespace vf2boost {

Bitmap ComputePlacement(const BinnedMatrix& x,
                        const std::vector<uint32_t>& instances,
                        uint32_t feature, uint32_t bin, bool default_left) {
  Bitmap placement(instances.size());
  for (size_t k = 0; k < instances.size(); ++k) {
    if (x.GoesLeft(instances[k], feature, bin, default_left)) placement.Set(k);
  }
  return placement;
}

void ApplyPlacement(const std::vector<uint32_t>& instances,
                    const Bitmap& placement, std::vector<uint32_t>* left,
                    std::vector<uint32_t>* right) {
  VF2_CHECK(placement.size() == instances.size());
  left->clear();
  right->clear();
  for (size_t k = 0; k < instances.size(); ++k) {
    (placement.Get(k) ? left : right)->push_back(instances[k]);
  }
}

void SerializeBitmap(const Bitmap& bitmap, ByteWriter* w) {
  w->PutU64(bitmap.size());
  w->PutU64Vector(bitmap.words());
}

Status DeserializeBitmap(ByteReader* r, Bitmap* bitmap) {
  uint64_t bits = 0;
  VF2_RETURN_IF_ERROR(r->GetU64(&bits));
  std::vector<uint64_t> words;
  VF2_RETURN_IF_ERROR(r->GetU64Vector(&words));
  if (words.size() != (bits + 63) / 64) {
    return Status::Corruption("bitmap word count mismatch");
  }
  *bitmap = Bitmap::FromWords(bits, std::move(words));
  return Status::OK();
}

}  // namespace vf2boost

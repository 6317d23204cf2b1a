#ifndef VF2BOOST_FED_PLACEMENT_H_
#define VF2BOOST_FED_PLACEMENT_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/bitmap.h"
#include "common/bytes.h"
#include "data/binning.h"

namespace vf2boost {

/// Builds the instance-placement bitmap for a split owned by the local
/// party: bit k is set iff instances[k] goes to the LEFT child. The bitmap
/// is indexed by the node's instance order, which both parties keep
/// identical (paper §3.2: placements are exchanged as bitmaps).
Bitmap ComputePlacement(const BinnedMatrix& x,
                        const std::vector<uint32_t>& instances,
                        uint32_t feature, uint32_t bin, bool default_left);

/// Applies a placement bitmap, preserving the node's instance order within
/// each child (required so subsequent bitmaps stay aligned across parties).
void ApplyPlacement(const std::vector<uint32_t>& instances,
                    const Bitmap& placement, std::vector<uint32_t>* left,
                    std::vector<uint32_t>* right);

void SerializeBitmap(const Bitmap& bitmap, ByteWriter* w);
Status DeserializeBitmap(ByteReader* r, Bitmap* bitmap);

}  // namespace vf2boost

#endif  // VF2BOOST_FED_PLACEMENT_H_

#ifndef VF2BOOST_FED_CHECKPOINT_H_
#define VF2BOOST_FED_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "gbdt/trainer.h"
#include "gbdt/tree.h"

namespace vf2boost {

/// \brief Durable training state, written at tree boundaries.
///
/// The tree boundary is the protocol's natural consistency point: between
/// trees, the only state that matters is the completed ensemble and Party
/// B's running scores — everything inside a tree (histograms, placements,
/// optimistic speculation) is rebuilt from scratch anyway. So Party B
/// checkpoints {completed trees, scores, eval log} after each tree and a
/// restarted run resumes at the boundary. Party A keeps no checkpoint: its
/// cuts follow from its shard, it adopts B's key on every link generation,
/// and it rebuilds all per-tree state from B's gradient stream.
///
/// On-disk container (little-endian):
///   [magic u32 "VF2C"][version u8][payload_len u64][crc32 u32][payload]
/// The CRC covers the payload; loaders reject bad magic, unknown versions,
/// truncation, and checksum failures with Status::Corruption, and validate
/// the embedded FedConfig fingerprint against the resuming run's config.
inline constexpr uint32_t kCheckpointMagic = 0x43324656;  // "VF2C"
inline constexpr uint8_t kCheckpointVersion = 1;

/// Party B's durable state after `completed_trees` trees.
struct PartyBCheckpoint {
  uint64_t config_fingerprint = 0;
  uint32_t completed_trees = 0;
  double base_score = 0;
  std::vector<Tree> trees;
  /// Raw (pre-sigmoid) training scores — stored exactly so a resumed run's
  /// remaining trees are bit-identical to an uninterrupted one.
  std::vector<double> scores;
  std::vector<EvalRecord> log;
};

// Serialization (exposed separately from file IO so fuzz tests can feed the
// decoders hostile bytes directly).
std::vector<uint8_t> SerializePartyBCheckpoint(const PartyBCheckpoint& ckpt);
Status DeserializePartyBCheckpoint(const std::vector<uint8_t>& bytes,
                                   PartyBCheckpoint* out);

/// Checkpoint file location under a --checkpoint-dir.
std::string PartyBCheckpointPath(const std::string& dir);

/// Atomic save (write to a temp file in `dir`, then rename): a crash during
/// checkpointing leaves the previous checkpoint intact, never a torn file.
/// Creates `dir` if needed.
Status SavePartyBCheckpoint(const PartyBCheckpoint& ckpt,
                            const std::string& dir);

/// Loader. NotFound when no checkpoint file exists (callers treat that as
/// "fresh start"); Corruption on a damaged file.
Result<PartyBCheckpoint> LoadPartyBCheckpoint(const std::string& dir);

}  // namespace vf2boost

#endif  // VF2BOOST_FED_CHECKPOINT_H_

#include "fed/checkpoint.h"

#include <cstdio>
#include <filesystem>

#include "common/bytes.h"
#include "common/crc32.h"

namespace vf2boost {

namespace {

constexpr uint8_t kRoleB = 'B';
/// Serialized TreeNode size — the hostile-count guard for node arrays.
constexpr size_t kNodeBytes = 4 + 4 + 4 + 8 + 4 + 1 + 4 + 8 + 8;

void PutNode(ByteWriter* w, const TreeNode& n) {
  w->PutI32(n.left);
  w->PutI32(n.right);
  w->PutU32(n.feature);
  w->PutDouble(n.split_value);  // float -> double roundtrips exactly
  w->PutU32(n.split_bin);
  w->PutU8(n.default_left ? 1 : 0);
  w->PutI32(n.owner_party);
  w->PutDouble(n.weight);
  w->PutDouble(n.gain);
}

Status GetNode(ByteReader* r, TreeNode* n) {
  double split_value = 0, weight = 0, gain = 0;
  uint8_t default_left = 0;
  VF2_RETURN_IF_ERROR(r->GetI32(&n->left));
  VF2_RETURN_IF_ERROR(r->GetI32(&n->right));
  VF2_RETURN_IF_ERROR(r->GetU32(&n->feature));
  VF2_RETURN_IF_ERROR(r->GetDouble(&split_value));
  VF2_RETURN_IF_ERROR(r->GetU32(&n->split_bin));
  VF2_RETURN_IF_ERROR(r->GetU8(&default_left));
  VF2_RETURN_IF_ERROR(r->GetI32(&n->owner_party));
  VF2_RETURN_IF_ERROR(r->GetDouble(&weight));
  VF2_RETURN_IF_ERROR(r->GetDouble(&gain));
  n->split_value = static_cast<float>(split_value);
  n->default_left = default_left != 0;
  n->weight = weight;
  n->gain = gain;
  return Status::OK();
}

/// Wraps a serialized payload in the checksummed container.
std::vector<uint8_t> SealContainer(std::vector<uint8_t> payload) {
  ByteWriter w;
  w.PutU32(kCheckpointMagic);
  w.PutU8(kCheckpointVersion);
  w.PutU64(payload.size());
  w.PutU32(Crc32(payload.data(), payload.size()));
  std::vector<uint8_t> out = w.Release();
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

/// Verifies magic/version/length/CRC and returns a reader over the payload.
Status OpenContainer(const std::vector<uint8_t>& bytes, ByteReader* payload) {
  ByteReader r(bytes);
  uint32_t magic = 0;
  uint8_t version = 0;
  uint64_t payload_len = 0;
  uint32_t want_crc = 0;
  if (!r.GetU32(&magic).ok() || magic != kCheckpointMagic) {
    return Status::Corruption("not a VF2Boost checkpoint (bad magic)");
  }
  VF2_RETURN_IF_ERROR(r.GetU8(&version));
  if (version != kCheckpointVersion) {
    return Status::Corruption("unsupported checkpoint version " +
                              std::to_string(version) + " (expected " +
                              std::to_string(kCheckpointVersion) + ")");
  }
  VF2_RETURN_IF_ERROR(r.GetU64(&payload_len));
  VF2_RETURN_IF_ERROR(r.GetU32(&want_crc));
  if (payload_len != r.remaining()) {
    return Status::Corruption(
        "checkpoint truncated: header says " + std::to_string(payload_len) +
        " payload bytes, file carries " + std::to_string(r.remaining()));
  }
  const uint8_t* payload_start = bytes.data() + (bytes.size() - payload_len);
  const uint32_t got_crc = Crc32(payload_start, payload_len);
  if (got_crc != want_crc) {
    return Status::Corruption("checkpoint CRC mismatch (file damaged)");
  }
  *payload = ByteReader(payload_start, payload_len);
  return Status::OK();
}

Status WriteFileAtomic(const std::string& path,
                       const std::vector<uint8_t>& bytes) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return Status::IOError("cannot open " + tmp + " for writing");
  }
  const bool ok = std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  std::fclose(f);
  if (!ok) {
    std::remove(tmp.c_str());
    return Status::IOError("short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IOError("cannot rename " + tmp + " to " + path);
  }
  return Status::OK();
}

Result<std::vector<uint8_t>> ReadFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::NotFound("no checkpoint at " + path);
  }
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  std::vector<uint8_t> bytes(size > 0 ? static_cast<size_t>(size) : 0);
  const bool ok =
      std::fread(bytes.data(), 1, bytes.size(), f) == bytes.size();
  std::fclose(f);
  if (!ok) return Status::IOError("cannot read " + path);
  return bytes;
}

Status EnsureDir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::IOError("cannot create checkpoint dir " + dir + ": " +
                           ec.message());
  }
  return Status::OK();
}

}  // namespace

std::vector<uint8_t> SerializePartyBCheckpoint(const PartyBCheckpoint& ckpt) {
  ByteWriter w;
  w.PutU8(kRoleB);
  w.PutU64(ckpt.config_fingerprint);
  w.PutU32(ckpt.completed_trees);
  w.PutDouble(ckpt.base_score);
  w.PutU64(ckpt.scores.size());
  for (double s : ckpt.scores) w.PutDouble(s);
  w.PutU64(ckpt.log.size());
  for (const EvalRecord& e : ckpt.log) {
    w.PutU64(e.tree_index);
    w.PutDouble(e.train_loss);
    w.PutDouble(e.valid_loss);
    w.PutDouble(e.valid_auc);
    w.PutDouble(e.elapsed_seconds);
  }
  w.PutU64(ckpt.trees.size());
  for (const Tree& t : ckpt.trees) {
    w.PutU64(t.size());
    for (size_t i = 0; i < t.size(); ++i) {
      PutNode(&w, t.node(static_cast<int32_t>(i)));
    }
  }
  return SealContainer(w.Release());
}

Status DeserializePartyBCheckpoint(const std::vector<uint8_t>& bytes,
                                   PartyBCheckpoint* out) {
  ByteReader r(nullptr, 0);
  VF2_RETURN_IF_ERROR(OpenContainer(bytes, &r));
  uint8_t role = 0;
  VF2_RETURN_IF_ERROR(r.GetU8(&role));
  if (role != kRoleB) {
    return Status::Corruption("checkpoint role mismatch: expected party B");
  }
  VF2_RETURN_IF_ERROR(r.GetU64(&out->config_fingerprint));
  VF2_RETURN_IF_ERROR(r.GetU32(&out->completed_trees));
  VF2_RETURN_IF_ERROR(r.GetDouble(&out->base_score));
  uint64_t n_scores = 0;
  VF2_RETURN_IF_ERROR(r.GetU64(&n_scores));
  if (n_scores > r.remaining() / sizeof(double)) {
    return Status::Corruption("checkpoint score count exceeds payload");
  }
  out->scores.resize(n_scores);
  for (double& s : out->scores) VF2_RETURN_IF_ERROR(r.GetDouble(&s));
  uint64_t n_log = 0;
  VF2_RETURN_IF_ERROR(r.GetU64(&n_log));
  if (n_log > r.remaining() / 40) {
    return Status::Corruption("checkpoint eval-log count exceeds payload");
  }
  out->log.resize(n_log);
  for (EvalRecord& e : out->log) {
    uint64_t tree_index = 0;
    VF2_RETURN_IF_ERROR(r.GetU64(&tree_index));
    e.tree_index = tree_index;
    VF2_RETURN_IF_ERROR(r.GetDouble(&e.train_loss));
    VF2_RETURN_IF_ERROR(r.GetDouble(&e.valid_loss));
    VF2_RETURN_IF_ERROR(r.GetDouble(&e.valid_auc));
    VF2_RETURN_IF_ERROR(r.GetDouble(&e.elapsed_seconds));
  }
  uint64_t n_trees = 0;
  VF2_RETURN_IF_ERROR(r.GetU64(&n_trees));
  if (n_trees > r.remaining() / (8 + kNodeBytes)) {
    return Status::Corruption("checkpoint tree count exceeds payload");
  }
  if (n_trees != out->completed_trees) {
    return Status::Corruption(
        "checkpoint inconsistent: completed_trees says " +
        std::to_string(out->completed_trees) + ", file carries " +
        std::to_string(n_trees) + " trees");
  }
  out->trees.clear();
  out->trees.reserve(n_trees);
  for (uint64_t t = 0; t < n_trees; ++t) {
    uint64_t n_nodes = 0;
    VF2_RETURN_IF_ERROR(r.GetU64(&n_nodes));
    if (n_nodes == 0 || n_nodes > r.remaining() / kNodeBytes) {
      return Status::Corruption("checkpoint node count exceeds payload");
    }
    Tree tree;  // starts with the root node
    for (uint64_t i = 1; i < n_nodes; ++i) tree.AddNode();
    for (uint64_t i = 0; i < n_nodes; ++i) {
      VF2_RETURN_IF_ERROR(GetNode(&r, &tree.node(static_cast<int32_t>(i))));
    }
    out->trees.push_back(std::move(tree));
  }
  if (!r.AtEnd()) {
    return Status::Corruption("trailing bytes in party B checkpoint");
  }
  return Status::OK();
}

std::string PartyBCheckpointPath(const std::string& dir) {
  return dir + "/party_b.ckpt";
}

Status SavePartyBCheckpoint(const PartyBCheckpoint& ckpt,
                            const std::string& dir) {
  VF2_RETURN_IF_ERROR(EnsureDir(dir));
  return WriteFileAtomic(PartyBCheckpointPath(dir),
                         SerializePartyBCheckpoint(ckpt));
}

Result<PartyBCheckpoint> LoadPartyBCheckpoint(const std::string& dir) {
  VF2_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes,
                       ReadFile(PartyBCheckpointPath(dir)));
  PartyBCheckpoint ckpt;
  VF2_RETURN_IF_ERROR(DeserializePartyBCheckpoint(bytes, &ckpt));
  return ckpt;
}

}  // namespace vf2boost

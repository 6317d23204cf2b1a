#include "fed/protocol.h"

#include <cstring>

#include "common/bytes.h"
#include "fed/placement.h"

namespace vf2boost {

Status FedConfig::Validate() const {
  if (!mock_crypto && (paillier_bits < 64 || paillier_bits % 2 != 0)) {
    return Status::InvalidArgument(
        "paillier_bits must be even and >= 64, got " +
        std::to_string(paillier_bits));
  }
  // A power of two scales exactly, so B's derived histograms decode like
  // directly decrypted ones (DeriveSibling).
  if (codec_base < 2 || (codec_base & (codec_base - 1)) != 0) {
    return Status::InvalidArgument("codec base must be a power of two >= 2");
  }
  if (codec_num_exponents < 1) {
    return Status::InvalidArgument("codec needs at least one exponent");
  }
  if (codec_min_exponent < 0 || codec_min_exponent + codec_num_exponents > 16) {
    return Status::InvalidArgument(
        "codec exponent range must lie in [0, 16) to keep encodings in the "
        "64-bit mantissa");
  }
  if (gbdt.num_trees == 0) {
    return Status::InvalidArgument("num_trees must be >= 1");
  }
  if (gbdt.num_layers == 0) {
    return Status::InvalidArgument("num_layers must be >= 1");
  }
  if (gbdt.max_bins < 2 || gbdt.max_bins > 65535) {
    return Status::InvalidArgument("max_bins must be in [2, 65535]");
  }
  if (gbdt.learning_rate <= 0) {
    return Status::InvalidArgument("learning_rate must be positive");
  }
  // GbdtTrainer's sampling and early stopping have no federated
  // counterpart: neither party engine implements them.
  if (gbdt.row_subsample < 1) {
    return Status::InvalidArgument(
        "gbdt.row_subsample < 1 is not supported in federated training");
  }
  if (gbdt.col_subsample < 1) {
    return Status::InvalidArgument(
        "gbdt.col_subsample < 1 is not supported in federated training");
  }
  if (gbdt.early_stopping_rounds > 0) {
    return Status::InvalidArgument(
        "gbdt.early_stopping_rounds is not supported in federated training");
  }
  if (blaster && blaster_batch == 0) {
    return Status::InvalidArgument("blaster_batch must be >= 1");
  }
  if (workers_per_party == 0 || workers_per_party > 256) {
    return Status::InvalidArgument("workers_per_party must be in [1, 256]");
  }
  if (resume && checkpoint_dir.empty()) {
    return Status::InvalidArgument("resume requires a checkpoint_dir");
  }
  VF2_RETURN_IF_ERROR(network.Validate());
  for (const NetworkConfig& per_party : network_per_party) {
    VF2_RETURN_IF_ERROR(per_party.Validate());
  }
  return Status::OK();
}

uint64_t FedConfig::Fingerprint() const {
  uint64_t h = 1469598103934665603ULL;  // FNV offset basis
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;  // FNV prime
  };
  auto mix_double = [&mix](double d) {
    uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(d));
    std::memcpy(&bits, &d, sizeof(bits));
    mix(bits);
  };
  // Every knob that changes the trained model. Network shape, worker counts
  // and observability hooks are deliberately excluded: a resumed run may use
  // a different machine or link without invalidating the checkpoint.
  mix(paillier_bits);
  mix(codec_base);
  mix(static_cast<uint64_t>(codec_min_exponent));
  mix(static_cast<uint64_t>(codec_num_exponents));
  mix(mock_crypto ? 1 : 0);
  mix(blaster ? 1 : 0);
  mix(blaster ? blaster_batch : 0);
  mix(reordered ? 1 : 0);
  mix(optimistic ? 1 : 0);
  mix(packing ? 1 : 0);
  mix(packing ? min_pack_slots : 0);
  mix(gh_pack ? 1 : 0);
  mix(seed);
  mix(gbdt.num_trees);
  mix(gbdt.num_layers);
  mix(gbdt.max_bins);
  mix_double(gbdt.learning_rate);
  mix_double(gbdt.l2_reg);
  mix_double(gbdt.l1_reg);
  mix_double(gbdt.min_split_gain);
  mix_double(gbdt.min_child_weight);
  mix_double(gbdt.row_subsample);
  mix_double(gbdt.col_subsample);
  mix(gbdt.early_stopping_rounds);
  mix(gbdt.seed);
  for (char c : gbdt.objective) mix(static_cast<uint64_t>(c));
  return h;
}

namespace {

void PutPackedCipher(const PackedCipher& pc, ByteWriter* w) {
  w->PutI32(pc.exponent);
  w->PutU32(pc.slot_bits);
  w->PutU32(pc.num_slots);
  w->PutU64Vector(pc.data.limbs());
}

Status GetPackedCipher(ByteReader* r, PackedCipher* pc) {
  VF2_RETURN_IF_ERROR(r->GetI32(&pc->exponent));
  VF2_RETURN_IF_ERROR(r->GetU32(&pc->slot_bits));
  VF2_RETURN_IF_ERROR(r->GetU32(&pc->num_slots));
  std::vector<uint64_t> limbs;
  VF2_RETURN_IF_ERROR(r->GetU64Vector(&limbs));
  pc->data = BigInt::FromLimbs(std::move(limbs));
  return Status::OK();
}

void PutGhLayout(const GhPackLayout& layout, ByteWriter* w) {
  w->PutU32(layout.base);
  w->PutI32(layout.exponent);
  w->PutU32(layout.slot_bits);
  w->PutU32(layout.count_bits);
  w->PutU64(layout.offset);
  w->PutU64(layout.max_count);
  w->PutDouble(layout.value_bound);
}

Status GetGhLayout(ByteReader* r, GhPackLayout* layout) {
  VF2_RETURN_IF_ERROR(r->GetU32(&layout->base));
  VF2_RETURN_IF_ERROR(r->GetI32(&layout->exponent));
  VF2_RETURN_IF_ERROR(r->GetU32(&layout->slot_bits));
  VF2_RETURN_IF_ERROR(r->GetU32(&layout->count_bits));
  VF2_RETURN_IF_ERROR(r->GetU64(&layout->offset));
  VF2_RETURN_IF_ERROR(r->GetU64(&layout->max_count));
  VF2_RETURN_IF_ERROR(r->GetDouble(&layout->value_bound));
  return Status::OK();
}

constexpr uint8_t kGradFormatClassic = 0;
constexpr uint8_t kGradFormatGh = 1;

// NodeHistogram wire format byte: the original bool kept values 0/1.
constexpr uint8_t kHistFormatRaw = 0;
constexpr uint8_t kHistFormatPacked = 1;
constexpr uint8_t kHistFormatGhRaw = 2;
constexpr uint8_t kHistFormatGhPacked = 3;

void PutCipherVector(const std::vector<Cipher>& v, const CipherBackend& b,
                     ByteWriter* w) {
  w->PutU64(v.size());
  for (const Cipher& c : v) b.SerializeCipher(c, w);
}

Status GetCipherVector(ByteReader* r, const CipherBackend& b,
                       std::vector<Cipher>* v) {
  uint64_t n = 0;
  VF2_RETURN_IF_ERROR(r->GetU64(&n));
  // Each serialized cipher needs at least an exponent + limb count
  // (12 bytes); a hostile count must never drive the allocation.
  if (n > r->remaining() / 12) {
    return Status::Corruption("cipher vector count exceeds payload");
  }
  v->clear();
  v->reserve(static_cast<size_t>(n));
  for (uint64_t i = 0; i < n; ++i) {
    Cipher c;
    VF2_RETURN_IF_ERROR(b.DeserializeCipher(r, &c));
    v->push_back(std::move(c));
  }
  return Status::OK();
}

}  // namespace

Message EncodeGradBatch(const GradBatchPayload& p, const CipherBackend& b) {
  ByteWriter w;
  w.PutU32(p.tree);
  w.PutU64(p.start);
  w.PutU8(p.gh ? kGradFormatGh : kGradFormatClassic);
  if (p.gh) {
    PutGhLayout(p.gh_layout, &w);
    PutCipherVector(p.gh_ciphers, b, &w);
  } else {
    PutCipherVector(p.g, b, &w);
    PutCipherVector(p.h, b, &w);
  }
  return {MessageType::kGradBatch, w.Release()};
}

Status DecodeGradBatch(const Message& m, const CipherBackend& b,
                       GradBatchPayload* p) {
  ByteReader r(m.payload);
  VF2_RETURN_IF_ERROR(r.GetU32(&p->tree));
  VF2_RETURN_IF_ERROR(r.GetU64(&p->start));
  uint8_t format = 0;
  VF2_RETURN_IF_ERROR(r.GetU8(&format));
  if (format > kGradFormatGh) {
    return Status::Corruption("unknown grad batch format");
  }
  p->gh = format == kGradFormatGh;
  if (p->gh) {
    VF2_RETURN_IF_ERROR(GetGhLayout(&r, &p->gh_layout));
    // Fit against the receiver's key is the caller's job (it knows the
    // backend's modulus); the structural half is checked here so a corrupt
    // descriptor never reaches slot arithmetic.
    VF2_RETURN_IF_ERROR(
        ValidateGhPackLayout(p->gh_layout, b.plain_modulus().BitLength()));
    VF2_RETURN_IF_ERROR(GetCipherVector(&r, b, &p->gh_ciphers));
    for (const Cipher& c : p->gh_ciphers) {
      if (c.exponent != p->gh_layout.exponent) {
        return Status::ProtocolError(
            "gh cipher exponent " + std::to_string(c.exponent) +
            " differs from the layout's " +
            std::to_string(p->gh_layout.exponent));
      }
    }
  } else {
    VF2_RETURN_IF_ERROR(GetCipherVector(&r, b, &p->g));
    VF2_RETURN_IF_ERROR(GetCipherVector(&r, b, &p->h));
    if (p->g.size() != p->h.size()) {
      return Status::Corruption("grad batch g/h size mismatch");
    }
  }
  return r.ExpectEnd("GradBatch");
}

Message EncodeNodeHistogram(const NodeHistogramPayload& p,
                            const CipherBackend& b) {
  ByteWriter w;
  w.PutU32(p.tree);
  w.PutU32(p.layer);
  w.PutI32(p.node);
  w.PutU32(p.epoch);
  const uint8_t format =
      p.gh ? (p.packed ? kHistFormatGhPacked : kHistFormatGhRaw)
           : (p.packed ? kHistFormatPacked : kHistFormatRaw);
  w.PutU8(format);
  if (p.gh) {
    if (p.packed) {
      w.PutU64(p.gh_packs.size());
      for (const PackedCipher& pc : p.gh_packs) PutPackedCipher(pc, &w);
    } else {
      PutCipherVector(p.gh_bins, b, &w);
    }
  } else if (p.packed) {
    w.PutDouble(p.shift_g);
    w.PutDouble(p.shift_h);
    w.PutU64(p.g_packs.size());
    for (const PackedCipher& pc : p.g_packs) PutPackedCipher(pc, &w);
    w.PutU64(p.h_packs.size());
    for (const PackedCipher& pc : p.h_packs) PutPackedCipher(pc, &w);
  } else {
    PutCipherVector(p.g_bins, b, &w);
    PutCipherVector(p.h_bins, b, &w);
  }
  return {MessageType::kNodeHistogram, w.Release()};
}

Status DecodeNodeHistogram(const Message& m, const CipherBackend& b,
                           NodeHistogramPayload* p) {
  ByteReader r(m.payload);
  VF2_RETURN_IF_ERROR(r.GetU32(&p->tree));
  VF2_RETURN_IF_ERROR(r.GetU32(&p->layer));
  VF2_RETURN_IF_ERROR(r.GetI32(&p->node));
  VF2_RETURN_IF_ERROR(r.GetU32(&p->epoch));
  uint8_t format = 0;
  VF2_RETURN_IF_ERROR(r.GetU8(&format));
  if (format > kHistFormatGhPacked) {
    return Status::Corruption("unknown node histogram format");
  }
  p->gh = format == kHistFormatGhRaw || format == kHistFormatGhPacked;
  p->packed = format == kHistFormatPacked || format == kHistFormatGhPacked;
  auto get_packs = [&r](std::vector<PackedCipher>* packs) -> Status {
    uint64_t n = 0;
    VF2_RETURN_IF_ERROR(r.GetU64(&n));
    if (n > r.remaining() / 20) {  // min serialized PackedCipher size
      return Status::Corruption("pack count exceeds payload");
    }
    packs->clear();
    packs->reserve(static_cast<size_t>(n));
    for (uint64_t i = 0; i < n; ++i) {
      PackedCipher pc;
      VF2_RETURN_IF_ERROR(GetPackedCipher(&r, &pc));
      packs->push_back(std::move(pc));
    }
    return Status::OK();
  };
  if (p->gh) {
    if (p->packed) {
      VF2_RETURN_IF_ERROR(get_packs(&p->gh_packs));
    } else {
      VF2_RETURN_IF_ERROR(GetCipherVector(&r, b, &p->gh_bins));
    }
  } else if (p->packed) {
    VF2_RETURN_IF_ERROR(r.GetDouble(&p->shift_g));
    VF2_RETURN_IF_ERROR(r.GetDouble(&p->shift_h));
    VF2_RETURN_IF_ERROR(get_packs(&p->g_packs));
    VF2_RETURN_IF_ERROR(get_packs(&p->h_packs));
  } else {
    VF2_RETURN_IF_ERROR(GetCipherVector(&r, b, &p->g_bins));
    VF2_RETURN_IF_ERROR(GetCipherVector(&r, b, &p->h_bins));
    if (p->g_bins.size() != p->h_bins.size()) {
      return Status::Corruption("histogram g/h size mismatch");
    }
  }
  return r.ExpectEnd("NodeHistogram");
}

Message EncodeDecisions(const DecisionsPayload& p, MessageType type) {
  ByteWriter w;
  w.PutU32(p.tree);
  w.PutU32(p.layer);
  w.PutU64(p.decisions.size());
  for (const NodeDecision& d : p.decisions) {
    w.PutI32(d.node);
    w.PutU8(static_cast<uint8_t>(d.action));
    w.PutI32(d.left);
    w.PutI32(d.right);
    if (d.action == NodeAction::kSplitResolved) {
      SerializeBitmap(d.placement, &w);
    } else if (d.action == NodeAction::kSplitQuery) {
      w.PutU32(d.feature);
      w.PutU32(d.bin);
      w.PutU8(d.default_left ? 1 : 0);
    }
  }
  return {type, w.Release()};
}

Status DecodeDecisions(const Message& m, DecisionsPayload* p) {
  ByteReader r(m.payload);
  VF2_RETURN_IF_ERROR(r.GetU32(&p->tree));
  VF2_RETURN_IF_ERROR(r.GetU32(&p->layer));
  uint64_t n = 0;
  VF2_RETURN_IF_ERROR(r.GetU64(&n));
  if (n > r.remaining() / 13) {  // min serialized NodeDecision size
    return Status::Corruption("decision count exceeds payload");
  }
  p->decisions.clear();
  p->decisions.reserve(static_cast<size_t>(n));
  for (uint64_t i = 0; i < n; ++i) {
    NodeDecision d;
    VF2_RETURN_IF_ERROR(r.GetI32(&d.node));
    uint8_t action = 0;
    VF2_RETURN_IF_ERROR(r.GetU8(&action));
    if (action > 2) return Status::Corruption("bad node action");
    d.action = static_cast<NodeAction>(action);
    VF2_RETURN_IF_ERROR(r.GetI32(&d.left));
    VF2_RETURN_IF_ERROR(r.GetI32(&d.right));
    if (d.action == NodeAction::kSplitResolved) {
      VF2_RETURN_IF_ERROR(DeserializeBitmap(&r, &d.placement));
    } else if (d.action == NodeAction::kSplitQuery) {
      VF2_RETURN_IF_ERROR(r.GetU32(&d.feature));
      VF2_RETURN_IF_ERROR(r.GetU32(&d.bin));
      uint8_t dl = 0;
      VF2_RETURN_IF_ERROR(r.GetU8(&dl));
      d.default_left = dl != 0;
    }
    p->decisions.push_back(std::move(d));
  }
  return r.ExpectEnd("Decisions");
}

Message EncodePlacement(const PlacementPayload& p) {
  ByteWriter w;
  w.PutU32(p.tree);
  w.PutU32(p.layer);
  w.PutI32(p.node);
  SerializeBitmap(p.placement, &w);
  return {MessageType::kPlacement, w.Release()};
}

Status DecodePlacement(const Message& m, PlacementPayload* p) {
  ByteReader r(m.payload);
  VF2_RETURN_IF_ERROR(r.GetU32(&p->tree));
  VF2_RETURN_IF_ERROR(r.GetU32(&p->layer));
  VF2_RETURN_IF_ERROR(r.GetI32(&p->node));
  VF2_RETURN_IF_ERROR(DeserializeBitmap(&r, &p->placement));
  return r.ExpectEnd("Placement");
}

Message EncodeLayout(const LayoutPayload& p) {
  ByteWriter w;
  w.PutU64Vector(p.bins_per_feature);
  w.PutU64(p.cuts_digest);
  return {MessageType::kLayout, w.Release()};
}

Status DecodeLayout(const Message& m, LayoutPayload* p) {
  ByteReader r(m.payload);
  VF2_RETURN_IF_ERROR(r.GetU64Vector(&p->bins_per_feature));
  VF2_RETURN_IF_ERROR(r.GetU64(&p->cuts_digest));
  return r.ExpectEnd("Layout");
}

Message EncodeMetricsDelta(const MetricsDeltaPayload& p) {
  ByteWriter w;
  w.PutU32(p.party);
  w.PutU64(p.seq);
  w.PutU8(p.final_frame ? 1 : 0);
  w.PutU64(p.samples.size());
  for (const obs::MetricSample& s : p.samples) {
    w.PutString(s.name);
    w.PutU8(static_cast<uint8_t>(s.kind));
    w.PutString(s.unit);
    w.PutDouble(s.value);
    w.PutU64(s.count);
    w.PutDouble(s.sum);
    w.PutDouble(s.min);
    w.PutDouble(s.max);
    w.PutDouble(s.first_upper);
    w.PutDouble(s.growth);
    w.PutU64Vector(s.buckets);
  }
  return Message{MessageType::kMetricsDelta, w.Release()};
}

Status DecodeMetricsDelta(const Message& m, MetricsDeltaPayload* p) {
  if (m.type != MessageType::kMetricsDelta) {
    return Status::ProtocolError(std::string("expected MetricsDelta, got ") +
                                 MessageTypeName(m.type));
  }
  ByteReader r(m.payload);
  VF2_RETURN_IF_ERROR(r.GetU32(&p->party));
  VF2_RETURN_IF_ERROR(r.GetU64(&p->seq));
  uint8_t final_flag = 0;
  VF2_RETURN_IF_ERROR(r.GetU8(&final_flag));
  p->final_frame = final_flag != 0;
  uint64_t n = 0;
  VF2_RETURN_IF_ERROR(r.GetU64(&n));
  // A sample is dozens of bytes; a count the payload cannot possibly hold is
  // corruption, not a reason to try allocating it.
  if (n > r.remaining() / 8) {
    return Status::Corruption("MetricsDelta sample count " +
                              std::to_string(n) + " exceeds payload size");
  }
  p->samples.clear();
  p->samples.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    obs::MetricSample s;
    VF2_RETURN_IF_ERROR(r.GetString(&s.name));
    uint8_t kind = 0;
    VF2_RETURN_IF_ERROR(r.GetU8(&kind));
    if (kind > static_cast<uint8_t>(obs::MetricSample::Kind::kValue)) {
      return Status::Corruption("MetricsDelta sample kind " +
                                std::to_string(kind) + " unknown");
    }
    s.kind = static_cast<obs::MetricSample::Kind>(kind);
    VF2_RETURN_IF_ERROR(r.GetString(&s.unit));
    VF2_RETURN_IF_ERROR(r.GetDouble(&s.value));
    VF2_RETURN_IF_ERROR(r.GetU64(&s.count));
    VF2_RETURN_IF_ERROR(r.GetDouble(&s.sum));
    VF2_RETURN_IF_ERROR(r.GetDouble(&s.min));
    VF2_RETURN_IF_ERROR(r.GetDouble(&s.max));
    VF2_RETURN_IF_ERROR(r.GetDouble(&s.first_upper));
    VF2_RETURN_IF_ERROR(r.GetDouble(&s.growth));
    VF2_RETURN_IF_ERROR(r.GetU64Vector(&s.buckets));
    p->samples.push_back(std::move(s));
  }
  return r.ExpectEnd("MetricsDelta");
}

}  // namespace vf2boost

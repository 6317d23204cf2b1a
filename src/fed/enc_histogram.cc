#include "fed/enc_histogram.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <memory>

#include "bigint/modarith.h"
#include "common/logging.h"

namespace vf2boost {

namespace {

// Packs a stream of prefix ciphers into ceil(n / capacity) packs, as many
// as capacity-sized groups would need, but with slot counts that differ by
// at most one. Each pack is an independent Horner chain; ParallelFor hands
// every worker a contiguous run of packs, so a short trailing group would
// leave its worker idle while the others finish full chains.
Result<std::vector<PackedCipher>> PackPrefixes(
    const std::vector<Cipher>& prefix, size_t slot_bits, size_t capacity,
    const CipherBackend& backend, ThreadPool* pool) {
  if (prefix.empty()) return std::vector<PackedCipher>{};
  const size_t packs = (prefix.size() + capacity - 1) / capacity;
  const size_t base = prefix.size() / packs;
  const size_t longer = prefix.size() % packs;  // packs with base+1 slots
  std::vector<PackedCipher> out(packs);
  std::vector<Status> status(packs);
  auto pack = [&](size_t i) {
    const std::span<const Cipher> group =
        std::span<const Cipher>(prefix).subspan(
            i * base + std::min(i, longer), base + (i < longer ? 1 : 0));
    auto packed = PackCiphers(group, slot_bits, backend);
    if (packed.ok()) {
      out[i] = std::move(packed).value();
    } else {
      status[i] = packed.status();
    }
  };
  if (pool != nullptr) {
    pool->ParallelFor(packs, pack);
  } else {
    for (size_t i = 0; i < packs; ++i) pack(i);
  }
  for (const Status& s : status) VF2_RETURN_IF_ERROR(s);
  return out;
}

// Checks one received pack stream before anything is decrypted: pack
// shapes, one shared slot width and exponent, and exactly one slot per
// layout bin.
Status CheckPackStream(const std::vector<PackedCipher>& packs,
                       size_t slot_bits, int exponent, size_t total_bins,
                       const CipherBackend& backend) {
  const size_t modulus_bits = backend.plain_modulus().BitLength();
  size_t slots = 0;
  for (const PackedCipher& pc : packs) {
    if (pc.slot_bits != slot_bits) {
      return Status::ProtocolError("pack slot width " +
                                   std::to_string(pc.slot_bits) +
                                   " does not match " +
                                   std::to_string(slot_bits));
    }
    if (pc.exponent != exponent) {
      return Status::ProtocolError("pack exponent " +
                                   std::to_string(pc.exponent) +
                                   " does not match " +
                                   std::to_string(exponent));
    }
    VF2_RETURN_IF_ERROR(ValidatePackedShape(pc, modulus_bits));
    slots += pc.num_slots;
  }
  if (slots != total_bins) {
    return Status::ProtocolError(
        "packs carry " + std::to_string(slots) + " slots for " +
        std::to_string(total_bins) + " layout bins");
  }
  return Status::OK();
}

// a − b mod n for a, b in [0, n).
BigInt SubMod(const BigInt& a, const BigInt& b, const BigInt& n) {
  return a >= b ? a - b : n - (b - a);
}

// Decrypts the ciphers of every stream in one DecryptRawBatch, so the pool
// can spread all the CRT halves, and returns each stream's plaintexts at
// their ciphers' exponents.
std::vector<std::vector<PlainValue>> DecryptCipherStreams(
    const std::vector<const std::vector<Cipher>*>& streams,
    const CipherBackend& backend, size_t* decryptions, ThreadPool* pool) {
  std::vector<BigInt> raw;
  for (const auto* ciphers : streams) {
    for (const Cipher& c : *ciphers) raw.push_back(c.data);
  }
  std::vector<BigInt> plains = backend.DecryptRawBatch(raw, pool);
  if (decryptions != nullptr) *decryptions += raw.size();
  std::vector<std::vector<PlainValue>> out(streams.size());
  size_t next = 0;
  for (size_t s = 0; s < streams.size(); ++s) {
    for (const Cipher& c : *streams[s]) {
      out[s].push_back({std::move(plains[next++]), c.exponent});
    }
  }
  return out;
}

// The same for §5.2 packs: returns each stream's unpacked slots in order.
std::vector<std::vector<BigInt>> DecryptPackSlots(
    const std::vector<const std::vector<PackedCipher>*>& streams,
    const CipherBackend& backend, size_t* decryptions, ThreadPool* pool) {
  std::vector<BigInt> raw;
  for (const auto* packs : streams) {
    for (const PackedCipher& pc : *packs) raw.push_back(pc.data);
  }
  const std::vector<BigInt> plains = backend.DecryptRawBatch(raw, pool);
  if (decryptions != nullptr) *decryptions += raw.size();
  std::vector<std::vector<BigInt>> out(streams.size());
  size_t next = 0;
  for (size_t s = 0; s < streams.size(); ++s) {
    for (const PackedCipher& pc : *streams[s]) {
      std::vector<BigInt> slots =
          UnpackPlaintext(plains[next++], pc.slot_bits, pc.num_slots);
      out[s].insert(out[s].end(), std::make_move_iterator(slots.begin()),
                    std::make_move_iterator(slots.end()));
    }
  }
  return out;
}

// Differences one stream of per-feature prefix slots into per-bin values
// mod n at `exponent`; each feature's first prefix carries `shift`.
std::vector<PlainValue> PrefixesToBins(const std::vector<BigInt>& prefix,
                                       const BigInt& shift, int exponent,
                                       const FeatureLayout& layout,
                                       const BigInt& n) {
  std::vector<PlainValue> bins(layout.total_bins());
  for (uint32_t f = 0; f < layout.num_features(); ++f) {
    const BigInt* prev = &shift;
    for (size_t b = 0; b < layout.NumBins(f); ++b) {
      const size_t flat = layout.Flat(f, static_cast<uint32_t>(b));
      bins[flat].value = SubMod(prefix[flat], *prev, n);
      bins[flat].exponent = exponent;
      prev = &prefix[flat];
    }
  }
  return bins;
}

// The integer A added to every g (or h) prefix before packing: the codec's
// encoding of `shift` at the pack exponent. A legitimate shift is at most a
// quarter of a slot (PackHistogram sizes slots for twice the shift, plus a
// guard bit), so a larger one is refused before Encode would abort on it.
Result<BigInt> PackShift(double shift, int exponent, size_t slot_bits,
                         const CipherBackend& backend) {
  const FixedPointCodec& codec = backend.codec();
  const long double scaled =
      static_cast<long double>(shift) *
      powl(static_cast<long double>(codec.base()), exponent);
  if (!(scaled >= 0) || scaled > 1e36L ||
      scaled > ldexpl(1.0L, static_cast<int>(slot_bits) - 2)) {
    return Status::ProtocolError("pack shift " + std::to_string(shift) +
                                 " does not fit its " +
                                 std::to_string(slot_bits) + "-bit slots");
  }
  return codec.Encode(shift, exponent, backend.plain_modulus());
}

}  // namespace

IncrementalHistogramBuilder::IncrementalHistogramBuilder(
    const BinnedMatrix* x, const FeatureLayout* layout,
    const CipherBackend* backend, bool reordered,
    std::vector<const std::vector<Cipher>*> streams, ThreadPool* pool)
    : x_(x),
      layout_(layout),
      backend_(backend),
      reordered_(reordered),
      streams_(std::move(streams)),
      pool_(pool != nullptr && pool->num_threads() >= 2 ? pool : nullptr),
      shards_(pool_ != nullptr ? pool_->num_threads() : 1) {}

IncrementalHistogramBuilder::Accumulators& IncrementalHistogramBuilder::Shard(
    size_t s) {
  Accumulators& acc = shards_[s];
  if (acc.empty()) {
    acc.resize(streams_.size() * layout_->total_bins());
    for (auto& a : acc) {
      if (reordered_) {
        a = std::make_unique<ReorderedCipherAccumulator>(backend_);
      } else {
        a = std::make_unique<NaiveCipherAccumulator>(backend_);
      }
    }
  }
  return acc;
}

void IncrementalHistogramBuilder::AddToShard(size_t s,
                                             std::span<const uint32_t> rows) {
  Accumulators& acc = Shard(s);
  const size_t num_streams = streams_.size();
  for (uint32_t row : rows) {
    const auto cols = x_->RowColumns(row);
    const auto bins = x_->RowBins(row);
    for (size_t k = 0; k < cols.size(); ++k) {
      const size_t flat = layout_->Flat(cols[k], bins[k]);
      for (size_t st = 0; st < num_streams; ++st) {
        acc[flat * num_streams + st]->Add((*streams_[st])[row]);
      }
    }
  }
}

void IncrementalHistogramBuilder::Add(std::span<const uint32_t> rows) {
  // Below 64 rows the pool hand-off costs more than the HAdds it spreads.
  if (pool_ == nullptr || rows.size() < 64) {
    AddToShard(0, rows);
    return;
  }
  const size_t chunk = (rows.size() + shards_.size() - 1) / shards_.size();
  pool_->ParallelFor(shards_.size(), [&](size_t s) {
    const size_t begin = std::min(rows.size(), s * chunk);
    const size_t end = std::min(rows.size(), begin + chunk);
    if (begin < end) AddToShard(s, rows.subspan(begin, end - begin));
  });
}

EncryptedHistogram IncrementalHistogramBuilder::Finalize(
    AccumulatorStats* stats) {
  // Shard 0 always answers, so a builder that saw no rows still yields an
  // encryption of zero per bin.
  Shard(0);
  // Each worker finalizes its own shard (the §5.1 workspace merges run
  // there); the shards are then summed bin by bin, one HAdd per bin per
  // extra shard, exponents aligned on demand.
  std::vector<std::vector<Cipher>> partial(shards_.size());
  std::vector<AccumulatorStats> partial_stats(shards_.size());
  auto finalize = [&](size_t s) {
    partial[s].reserve(shards_[s].size());
    for (auto& acc : shards_[s]) {
      partial[s].push_back(acc->Finalize());
      partial_stats[s].hadds += acc->stats().hadds;
      partial_stats[s].scalings += acc->stats().scalings;
    }
  };
  // Shard 1 is empty exactly when every Add stayed below the pool cutoff.
  if (pool_ != nullptr && !shards_[1].empty()) {
    pool_->ParallelFor(shards_.size(), finalize);
  } else {
    finalize(0);
  }
  AccumulatorStats total_stats;
  for (const AccumulatorStats& ps : partial_stats) {
    total_stats.hadds += ps.hadds;
    total_stats.scalings += ps.scalings;
  }
  std::vector<Cipher>& sum = partial[0];
  for (size_t s = 1; s < partial.size(); ++s) {
    if (partial[s].empty()) continue;
    for (size_t i = 0; i < sum.size(); ++i) {
      sum[i] = backend_->HAdd(sum[i], partial[s][i], &total_stats.scalings);
      ++total_stats.hadds;
    }
  }
  if (stats != nullptr) {
    stats->hadds += total_stats.hadds;
    stats->scalings += total_stats.scalings;
  }
  shards_.clear();

  std::vector<std::vector<Cipher>> bins(streams_.size());
  for (size_t i = 0; i < sum.size(); ++i) {
    bins[i % streams_.size()].push_back(std::move(sum[i]));
  }
  EncryptedHistogram out;
  if (streams_.size() == 1) {
    out.gh_bins = std::move(bins[0]);
  } else {
    out.g_bins = std::move(bins[0]);
    out.h_bins = std::move(bins[1]);
  }
  return out;
}

EncryptedHistogram BuildEncryptedHistogramParallel(
    const BinnedMatrix& x, const FeatureLayout& layout,
    const std::vector<uint32_t>& instances, const std::vector<Cipher>& g,
    const std::vector<Cipher>& h, const CipherBackend& backend, bool reordered,
    AccumulatorStats* stats, ThreadPool* pool) {
  IncrementalHistogramBuilder builder(&x, &layout, &backend, reordered,
                                      {&g, &h}, pool);
  builder.Add(instances);
  return builder.Finalize(stats);
}

EncryptedHistogram BuildEncryptedHistogramGhParallel(
    const BinnedMatrix& x, const FeatureLayout& layout,
    const std::vector<uint32_t>& instances, const std::vector<Cipher>& gh,
    const CipherBackend& backend, bool reordered, AccumulatorStats* stats,
    ThreadPool* pool) {
  IncrementalHistogramBuilder builder(&x, &layout, &backend, reordered, {&gh},
                                      pool);
  builder.Add(instances);
  return builder.Finalize(stats);
}

Result<PackedHistogram> PackHistogram(const EncryptedHistogram& hist,
                                      const FeatureLayout& layout,
                                      size_t num_instances, double grad_bound,
                                      const CipherBackend& backend,
                                      AccumulatorStats* stats,
                                      size_t min_slots, ThreadPool* pool) {
  const FixedPointCodec& codec = backend.codec();
  const int exponent = codec.max_exponent();

  PackedHistogram out;
  out.shift_g = static_cast<double>(num_instances) * grad_bound;
  out.shift_h = 0;

  // Widest slot value: a g prefix shifted into [0, 2*N*bound], encoded at
  // the max exponent. One guard bit on top.
  const double max_slot_value =
      2.0 * out.shift_g *
          std::pow(static_cast<double>(codec.base()), exponent) +
      1.0;
  const size_t slot_bits =
      static_cast<size_t>(std::ceil(std::log2(max_slot_value))) + 1;
  const size_t capacity =
      MaxSlotsPerCipher(slot_bits, backend.plain_modulus().BitLength());
  if (capacity < std::max<size_t>(2, min_slots)) {
    return Status::InvalidArgument(
        "key too small for packing: slot needs " + std::to_string(slot_bits) +
        " bits, modulus has " +
        std::to_string(backend.plain_modulus().BitLength()) + ", capacity " +
        std::to_string(capacity) + " < " + std::to_string(min_slots));
  }
  out.slot_bits = static_cast<uint32_t>(slot_bits);

  // Per-feature prefix sums, exponent-aligned, g shifted nonnegative.
  const Cipher shift_cipher = backend.EncryptPublicAt(out.shift_g, exponent);
  std::vector<Cipher> g_prefix, h_prefix;
  g_prefix.reserve(layout.total_bins());
  h_prefix.reserve(layout.total_bins());
  size_t scalings = 0;
  for (uint32_t f = 0; f < layout.num_features(); ++f) {
    Cipher g_run, h_run;
    for (size_t b = 0; b < layout.NumBins(f); ++b) {
      const size_t flat = layout.Flat(f, static_cast<uint32_t>(b));
      Cipher g_bin = backend.ScaleTo(hist.g_bins[flat], exponent);
      if (g_bin.exponent != hist.g_bins[flat].exponent) ++scalings;
      Cipher h_bin = backend.ScaleTo(hist.h_bins[flat], exponent);
      if (h_bin.exponent != hist.h_bins[flat].exponent) ++scalings;
      if (b == 0) {
        // Shift once; every prefix then carries it (Fig. 9 step 1).
        g_run.exponent = exponent;
        g_run.data = backend.HAddRaw(g_bin.data, shift_cipher.data);
        h_run = h_bin;
      } else {
        g_run.data = backend.HAddRaw(g_run.data, g_bin.data);
        h_run.data = backend.HAddRaw(h_run.data, h_bin.data);
      }
      if (stats != nullptr) stats->hadds += 2;
      g_prefix.push_back(g_run);
      h_prefix.push_back(h_run);
    }
  }
  if (stats != nullptr) stats->scalings += scalings;

  VF2_ASSIGN_OR_RETURN(out.g_packs, PackPrefixes(g_prefix, slot_bits, capacity,
                                                 backend, pool));
  VF2_ASSIGN_OR_RETURN(out.h_packs, PackPrefixes(h_prefix, slot_bits, capacity,
                                                 backend, pool));
  return out;
}

Result<std::vector<PackedCipher>> PackGhHistogram(
    const EncryptedHistogram& hist, const FeatureLayout& layout,
    const GhPackLayout& gh_layout, const CipherBackend& backend,
    AccumulatorStats* stats, size_t min_slots, ThreadPool* pool) {
  if (hist.gh_bins.size() != layout.total_bins()) {
    return Status::InvalidArgument("gh histogram size does not match layout");
  }
  // A slot is one whole gh plaintext; the layout's accumulation bound is
  // already sized for a full node, so prefix sums cannot overflow a slot.
  const size_t slot_bits = gh_layout.total_bits();
  const size_t capacity =
      MaxSlotsPerCipher(slot_bits, backend.plain_modulus().BitLength());
  if (capacity < std::max<size_t>(2, min_slots)) {
    return Status::InvalidArgument(
        "key too small for gh packing: slot needs " +
        std::to_string(slot_bits) + " bits, modulus has " +
        std::to_string(backend.plain_modulus().BitLength()) + ", capacity " +
        std::to_string(capacity) + " < " + std::to_string(min_slots));
  }

  // Per-feature prefix sums. gh slots are offset-encoded nonnegative and the
  // count slot rides along, so no shift cipher and no scalings (one shared
  // exponent by construction).
  std::vector<Cipher> prefix;
  prefix.reserve(layout.total_bins());
  for (uint32_t f = 0; f < layout.num_features(); ++f) {
    Cipher run;
    for (size_t b = 0; b < layout.NumBins(f); ++b) {
      const size_t flat = layout.Flat(f, static_cast<uint32_t>(b));
      if (b == 0) {
        run = hist.gh_bins[flat];
      } else {
        run.data = backend.HAddRaw(run.data, hist.gh_bins[flat].data);
        if (stats != nullptr) ++stats->hadds;
      }
      prefix.push_back(run);
    }
  }
  return PackPrefixes(prefix, slot_bits, capacity, backend, pool);
}

Result<PlainHistogram> DecryptRawPlain(const std::vector<Cipher>& g_bins,
                                       const std::vector<Cipher>& h_bins,
                                       const FeatureLayout& layout,
                                       const CipherBackend& backend,
                                       size_t* decryptions, ThreadPool* pool) {
  if (g_bins.size() != layout.total_bins() || h_bins.size() != g_bins.size()) {
    return Status::ProtocolError("histogram size does not match layout");
  }
  if (!backend.can_decrypt()) {
    return Status::CryptoError("backend has no private key");
  }
  std::vector<std::vector<PlainValue>> plain =
      DecryptCipherStreams({&g_bins, &h_bins}, backend, decryptions, pool);
  PlainHistogram out;
  out.g = std::move(plain[0]);
  out.h = std::move(plain[1]);
  return out;
}

Result<PlainHistogram> DecryptPackedPlain(const PackedHistogram& packed,
                                          const FeatureLayout& layout,
                                          const CipherBackend& backend,
                                          size_t* decryptions,
                                          ThreadPool* pool) {
  if (!backend.can_decrypt()) {
    return Status::CryptoError("backend has no private key");
  }
  const size_t slot_bits =
      packed.slot_bits != 0 || packed.g_packs.empty()
          ? packed.slot_bits
          : packed.g_packs.front().slot_bits;
  const int exponent = backend.codec().max_exponent();
  VF2_RETURN_IF_ERROR(CheckPackStream(packed.g_packs, slot_bits, exponent,
                                      layout.total_bins(), backend));
  VF2_RETURN_IF_ERROR(CheckPackStream(packed.h_packs, slot_bits, exponent,
                                      layout.total_bins(), backend));
  PlainHistogram out;
  out.packed = true;
  // A party with no bins sends no packs, so no slot bounds its shifts.
  if (layout.total_bins() == 0) return out;
  VF2_ASSIGN_OR_RETURN(BigInt shift_g,
                       PackShift(packed.shift_g, exponent, slot_bits, backend));
  VF2_ASSIGN_OR_RETURN(BigInt shift_h,
                       PackShift(packed.shift_h, exponent, slot_bits, backend));
  const std::vector<std::vector<BigInt>> prefix = DecryptPackSlots(
      {&packed.g_packs, &packed.h_packs}, backend, decryptions, pool);
  const BigInt& n = backend.plain_modulus();
  out.g = PrefixesToBins(prefix[0], shift_g, exponent, layout, n);
  out.h = PrefixesToBins(prefix[1], shift_h, exponent, layout, n);
  return out;
}

Result<PlainHistogram> DecryptRawGhPlain(const std::vector<Cipher>& gh_bins,
                                         const FeatureLayout& layout,
                                         const CipherBackend& backend,
                                         size_t* decryptions,
                                         ThreadPool* pool) {
  if (gh_bins.size() != layout.total_bins()) {
    return Status::ProtocolError("gh histogram size does not match layout");
  }
  if (!backend.can_decrypt()) {
    return Status::CryptoError("backend has no private key");
  }
  PlainHistogram out;
  out.gh = true;
  out.g = std::move(
      DecryptCipherStreams({&gh_bins}, backend, decryptions, pool)[0]);
  return out;
}

Result<PlainHistogram> DecryptPackedGhPlain(
    const std::vector<PackedCipher>& gh_packs, const FeatureLayout& layout,
    const GhPackLayout& gh_layout, const CipherBackend& backend,
    size_t* decryptions, ThreadPool* pool) {
  if (!backend.can_decrypt()) {
    return Status::CryptoError("backend has no private key");
  }
  VF2_RETURN_IF_ERROR(CheckPackStream(gh_packs, gh_layout.total_bits(),
                                      gh_layout.exponent, layout.total_bins(),
                                      backend));
  // Each slot is one accumulated gh prefix; gh slots need no shift.
  const std::vector<std::vector<BigInt>> prefix =
      DecryptPackSlots({&gh_packs}, backend, decryptions, pool);
  PlainHistogram out;
  out.gh = true;
  out.g = PrefixesToBins(prefix[0], BigInt(0), gh_layout.exponent, layout,
                         backend.plain_modulus());
  return out;
}

Result<Histogram> DecodePlainHistogram(const PlainHistogram& plain,
                                       const GhPackLayout& gh_layout,
                                       const CipherBackend& backend) {
  Histogram hist(plain.g.size());
  if (plain.gh) {
    for (size_t i = 0; i < plain.g.size(); ++i) {
      VF2_ASSIGN_OR_RETURN(GhSlots slots,
                           DecodeGhSlots(gh_layout, plain.g[i].value));
      hist.bin(i).g = slots.g;
      hist.bin(i).h = slots.h;
    }
    return hist;
  }
  const FixedPointCodec& codec = backend.codec();
  const BigInt& n = backend.plain_modulus();
  for (size_t i = 0; i < plain.g.size(); ++i) {
    hist.bin(i).g = codec.Decode(plain.g[i].value, plain.g[i].exponent, n);
    hist.bin(i).h = codec.Decode(plain.h[i].value, plain.h[i].exponent, n);
  }
  return hist;
}

Result<PlainHistogram> DeriveSibling(const PlainHistogram& parent,
                                     const PlainHistogram& built,
                                     const CipherBackend& backend) {
  if (parent.gh != built.gh || parent.g.size() != built.g.size() ||
      parent.h.size() != built.h.size()) {
    return Status::ProtocolError(
        "built child histogram does not match its parent's form");
  }
  const BigInt& n = backend.plain_modulus();
  const FixedPointCodec& codec = backend.codec();
  PlainHistogram out;
  out.gh = parent.gh;
  auto derive = [&](const std::vector<PlainValue>& p,
                    const std::vector<PlainValue>& c,
                    std::vector<PlainValue>* o) -> Status {
    o->resize(p.size());
    for (size_t i = 0; i < p.size(); ++i) {
      if (parent.gh) {  // one fixed exponent: subtract the slots whole
        (*o)[i] = {SubMod(p[i].value, c[i].value, n), p[i].exponent};
        continue;
      }
      const int exponent = std::max(p[i].exponent, c[i].exponent);
      if (c[i].exponent > p[i].exponent && !built.packed) {
        return Status::ProtocolError(
            "built child bin exponent " + std::to_string(c[i].exponent) +
            " is above the parent's " + std::to_string(p[i].exponent));
      }
      auto aligned = [&](const PlainValue& v) {
        return v.exponent == exponent
                   ? v.value
                   : Mod(v.value * codec.ScaleFactor(exponent - v.exponent),
                         n);
      };
      (*o)[i] = {SubMod(aligned(p[i]), aligned(c[i]), n), exponent};
    }
    return Status::OK();
  };
  VF2_RETURN_IF_ERROR(derive(parent.g, built.g, &out.g));
  VF2_RETURN_IF_ERROR(derive(parent.h, built.h, &out.h));
  return out;
}

Result<Histogram> DecryptRawHistogram(const std::vector<Cipher>& g_bins,
                                      const std::vector<Cipher>& h_bins,
                                      const FeatureLayout& layout,
                                      const CipherBackend& backend,
                                      size_t* decryptions, ThreadPool* pool) {
  VF2_ASSIGN_OR_RETURN(
      PlainHistogram plain,
      DecryptRawPlain(g_bins, h_bins, layout, backend, decryptions, pool));
  return DecodePlainHistogram(plain, GhPackLayout{}, backend);
}

Result<Histogram> DecryptPackedHistogram(const PackedHistogram& packed,
                                         const FeatureLayout& layout,
                                         const CipherBackend& backend,
                                         size_t* decryptions,
                                         ThreadPool* pool) {
  VF2_ASSIGN_OR_RETURN(
      PlainHistogram plain,
      DecryptPackedPlain(packed, layout, backend, decryptions, pool));
  return DecodePlainHistogram(plain, GhPackLayout{}, backend);
}

Result<Histogram> DecryptRawGhHistogram(const std::vector<Cipher>& gh_bins,
                                        const FeatureLayout& layout,
                                        const GhPackLayout& gh_layout,
                                        const CipherBackend& backend,
                                        size_t* decryptions,
                                        ThreadPool* pool) {
  VF2_ASSIGN_OR_RETURN(
      PlainHistogram plain,
      DecryptRawGhPlain(gh_bins, layout, backend, decryptions, pool));
  return DecodePlainHistogram(plain, gh_layout, backend);
}

Result<Histogram> DecryptPackedGhHistogram(
    const std::vector<PackedCipher>& gh_packs, const FeatureLayout& layout,
    const GhPackLayout& gh_layout, const CipherBackend& backend,
    size_t* decryptions, ThreadPool* pool) {
  VF2_ASSIGN_OR_RETURN(PlainHistogram plain,
                       DecryptPackedGhPlain(gh_packs, layout, gh_layout,
                                            backend, decryptions, pool));
  return DecodePlainHistogram(plain, gh_layout, backend);
}

}  // namespace vf2boost

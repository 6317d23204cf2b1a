#include "fed/enc_histogram.h"

#include <cmath>
#include <memory>

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
// shapes, one shared slot width, and exactly one slot per layout bin.
Status CheckPackStream(const std::vector<PackedCipher>& packs,
                       size_t slot_bits, size_t total_bins,
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

}  // namespace

IncrementalHistogramBuilder::IncrementalHistogramBuilder(
    const BinnedMatrix* x, const FeatureLayout* layout,
    const CipherBackend* backend, bool reordered, bool gh)
    : x_(x), layout_(layout), gh_(gh) {
  const size_t total = layout->total_bins();
  g_acc_.resize(total);
  if (!gh_) h_acc_.resize(total);
  for (size_t i = 0; i < total; ++i) {
    if (reordered) {
      g_acc_[i] = std::make_unique<ReorderedCipherAccumulator>(backend);
      if (!gh_) h_acc_[i] = std::make_unique<ReorderedCipherAccumulator>(backend);
    } else {
      g_acc_[i] = std::make_unique<NaiveCipherAccumulator>(backend);
      if (!gh_) h_acc_[i] = std::make_unique<NaiveCipherAccumulator>(backend);
    }
  }
}

void IncrementalHistogramBuilder::AddRow(uint32_t row,
                                         const std::vector<Cipher>& g,
                                         const std::vector<Cipher>& h) {
  const auto cols = x_->RowColumns(row);
  const auto bins = x_->RowBins(row);
  for (size_t k = 0; k < cols.size(); ++k) {
    const size_t flat = layout_->Flat(cols[k], bins[k]);
    g_acc_[flat]->Add(g[row]);
    h_acc_[flat]->Add(h[row]);
  }
  ++rows_added_;
}

void IncrementalHistogramBuilder::AddRange(uint32_t begin, uint32_t end,
                                           const std::vector<Cipher>& g,
                                           const std::vector<Cipher>& h) {
  for (uint32_t i = begin; i < end; ++i) AddRow(i, g, h);
}

void IncrementalHistogramBuilder::AddRowGh(uint32_t row,
                                           const std::vector<Cipher>& gh) {
  VF2_CHECK(gh_) << "AddRowGh on a classic-mode builder";
  const auto cols = x_->RowColumns(row);
  const auto bins = x_->RowBins(row);
  for (size_t k = 0; k < cols.size(); ++k) {
    const size_t flat = layout_->Flat(cols[k], bins[k]);
    g_acc_[flat]->Add(gh[row]);
  }
  ++rows_added_;
}

void IncrementalHistogramBuilder::AddRangeGh(uint32_t begin, uint32_t end,
                                             const std::vector<Cipher>& gh) {
  for (uint32_t i = begin; i < end; ++i) AddRowGh(i, gh);
}

EncryptedHistogram IncrementalHistogramBuilder::Finalize(
    AccumulatorStats* stats) {
  const size_t total = g_acc_.size();
  EncryptedHistogram out;
  if (gh_) {
    out.gh_bins.reserve(total);
    for (size_t i = 0; i < total; ++i) {
      out.gh_bins.push_back(g_acc_[i]->Finalize());
      if (stats != nullptr) {
        stats->hadds += g_acc_[i]->stats().hadds;
        stats->scalings += g_acc_[i]->stats().scalings;
      }
    }
    return out;
  }
  out.g_bins.reserve(total);
  out.h_bins.reserve(total);
  for (size_t i = 0; i < total; ++i) {
    out.g_bins.push_back(g_acc_[i]->Finalize());
    out.h_bins.push_back(h_acc_[i]->Finalize());
    if (stats != nullptr) {
      stats->hadds += g_acc_[i]->stats().hadds + h_acc_[i]->stats().hadds;
      stats->scalings +=
          g_acc_[i]->stats().scalings + h_acc_[i]->stats().scalings;
    }
  }
  return out;
}

EncryptedHistogram BuildEncryptedHistogram(
    const BinnedMatrix& x, const FeatureLayout& layout,
    const std::vector<uint32_t>& instances, const std::vector<Cipher>& g,
    const std::vector<Cipher>& h, const CipherBackend& backend, bool reordered,
    AccumulatorStats* stats) {
  IncrementalHistogramBuilder builder(&x, &layout, &backend, reordered);
  for (uint32_t i : instances) builder.AddRow(i, g, h);
  return builder.Finalize(stats);
}

EncryptedHistogram BuildEncryptedHistogramParallel(
    const BinnedMatrix& x, const FeatureLayout& layout,
    const std::vector<uint32_t>& instances, const std::vector<Cipher>& g,
    const std::vector<Cipher>& h, const CipherBackend& backend, bool reordered,
    AccumulatorStats* stats, ThreadPool* pool) {
  if (pool == nullptr || pool->num_threads() < 2 || instances.size() < 64) {
    return BuildEncryptedHistogram(x, layout, instances, g, h, backend,
                                   reordered, stats);
  }
  const size_t shards = pool->num_threads();
  const size_t chunk = (instances.size() + shards - 1) / shards;
  std::vector<EncryptedHistogram> partial(shards);
  std::vector<AccumulatorStats> partial_stats(shards);
  pool->ParallelFor(shards, [&](size_t s) {
    const size_t begin = s * chunk;
    const size_t end = std::min(instances.size(), begin + chunk);
    if (begin >= end) return;
    const std::vector<uint32_t> shard(instances.begin() + begin,
                                      instances.begin() + end);
    partial[s] = BuildEncryptedHistogram(x, layout, shard, g, h, backend,
                                         reordered, &partial_stats[s]);
  });

  // Aggregate worker-local histograms into the global one (one HAdd per bin
  // per extra shard; exponents are aligned on demand).
  EncryptedHistogram out = std::move(partial[0]);
  size_t merge_scalings = 0;
  size_t merge_hadds = 0;
  for (size_t s = 1; s < shards; ++s) {
    if (partial[s].g_bins.empty()) continue;
    for (size_t i = 0; i < out.g_bins.size(); ++i) {
      out.g_bins[i] =
          backend.HAdd(out.g_bins[i], partial[s].g_bins[i], &merge_scalings);
      out.h_bins[i] =
          backend.HAdd(out.h_bins[i], partial[s].h_bins[i], &merge_scalings);
      merge_hadds += 2;
    }
  }
  if (stats != nullptr) {
    for (const AccumulatorStats& ps : partial_stats) {
      stats->hadds += ps.hadds;
      stats->scalings += ps.scalings;
    }
    stats->hadds += merge_hadds;
    stats->scalings += merge_scalings;
  }
  return out;
}

EncryptedHistogram BuildEncryptedHistogramGh(
    const BinnedMatrix& x, const FeatureLayout& layout,
    const std::vector<uint32_t>& instances, const std::vector<Cipher>& gh,
    const CipherBackend& backend, bool reordered, AccumulatorStats* stats) {
  IncrementalHistogramBuilder builder(&x, &layout, &backend, reordered,
                                      /*gh=*/true);
  for (uint32_t i : instances) builder.AddRowGh(i, gh);
  return builder.Finalize(stats);
}

EncryptedHistogram BuildEncryptedHistogramGhParallel(
    const BinnedMatrix& x, const FeatureLayout& layout,
    const std::vector<uint32_t>& instances, const std::vector<Cipher>& gh,
    const CipherBackend& backend, bool reordered, AccumulatorStats* stats,
    ThreadPool* pool) {
  if (pool == nullptr || pool->num_threads() < 2 || instances.size() < 64) {
    return BuildEncryptedHistogramGh(x, layout, instances, gh, backend,
                                     reordered, stats);
  }
  const size_t shards = pool->num_threads();
  const size_t chunk = (instances.size() + shards - 1) / shards;
  std::vector<EncryptedHistogram> partial(shards);
  std::vector<AccumulatorStats> partial_stats(shards);
  pool->ParallelFor(shards, [&](size_t s) {
    const size_t begin = s * chunk;
    const size_t end = std::min(instances.size(), begin + chunk);
    if (begin >= end) return;
    const std::vector<uint32_t> shard(instances.begin() + begin,
                                      instances.begin() + end);
    partial[s] = BuildEncryptedHistogramGh(x, layout, shard, gh, backend,
                                           reordered, &partial_stats[s]);
  });

  // Merge worker-local gh histograms; all gh ciphers share one exponent so
  // no scalings arise.
  EncryptedHistogram out = std::move(partial[0]);
  size_t merge_scalings = 0;
  size_t merge_hadds = 0;
  for (size_t s = 1; s < shards; ++s) {
    if (partial[s].gh_bins.empty()) continue;
    for (size_t i = 0; i < out.gh_bins.size(); ++i) {
      out.gh_bins[i] =
          backend.HAdd(out.gh_bins[i], partial[s].gh_bins[i], &merge_scalings);
      ++merge_hadds;
    }
  }
  if (stats != nullptr) {
    for (const AccumulatorStats& ps : partial_stats) {
      stats->hadds += ps.hadds;
      stats->scalings += ps.scalings;
    }
    stats->hadds += merge_hadds;
    stats->scalings += merge_scalings;
  }
  return out;
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

Result<Histogram> DecryptRawHistogram(const std::vector<Cipher>& g_bins,
                                      const std::vector<Cipher>& h_bins,
                                      const FeatureLayout& layout,
                                      const CipherBackend& backend,
                                      size_t* decryptions, ThreadPool* pool) {
  if (g_bins.size() != layout.total_bins() || h_bins.size() != g_bins.size()) {
    return Status::ProtocolError("histogram size does not match layout");
  }
  // One batch over g then h so the pool sees 4*total independent CRT halves.
  std::vector<Cipher> batch;
  batch.reserve(2 * g_bins.size());
  batch.insert(batch.end(), g_bins.begin(), g_bins.end());
  batch.insert(batch.end(), h_bins.begin(), h_bins.end());
  const std::vector<double> values = backend.DecryptBatch(batch, pool);
  Histogram hist(layout.total_bins());
  for (size_t i = 0; i < g_bins.size(); ++i) {
    hist.bin(i).g = values[i];
    hist.bin(i).h = values[g_bins.size() + i];
  }
  if (decryptions != nullptr) *decryptions += 2 * g_bins.size();
  return hist;
}

Result<Histogram> DecryptPackedHistogram(const PackedHistogram& packed,
                                         const FeatureLayout& layout,
                                         const CipherBackend& backend,
                                         size_t* decryptions, ThreadPool* pool) {
  if (!backend.can_decrypt()) {
    return Status::CryptoError("backend has no private key");
  }
  const size_t slot_bits =
      packed.slot_bits != 0 || packed.g_packs.empty()
          ? packed.slot_bits
          : packed.g_packs.front().slot_bits;
  VF2_RETURN_IF_ERROR(CheckPackStream(packed.g_packs, slot_bits,
                                      layout.total_bins(), backend));
  VF2_RETURN_IF_ERROR(CheckPackStream(packed.h_packs, slot_bits,
                                      layout.total_bins(), backend));
  // Batch-decrypt every pack (g and h together) in one DecryptRawBatch so the
  // pool can spread all the CRT halves, then decode serially (cheap).
  std::vector<BigInt> raw;
  raw.reserve(packed.g_packs.size() + packed.h_packs.size());
  for (const PackedCipher& pc : packed.g_packs) raw.push_back(pc.data);
  for (const PackedCipher& pc : packed.h_packs) raw.push_back(pc.data);
  const std::vector<BigInt> plains = backend.DecryptRawBatch(raw, pool);
  if (decryptions != nullptr) *decryptions += raw.size();

  size_t next = 0;
  auto unpack_all = [&](const std::vector<PackedCipher>& packs,
                        std::vector<double>* values) {
    for (const PackedCipher& pc : packs) {
      const std::vector<double> slots =
          DecodePackedPlain(pc, plains[next++], backend);
      values->insert(values->end(), slots.begin(), slots.end());
    }
  };
  std::vector<double> g_prefix, h_prefix;
  unpack_all(packed.g_packs, &g_prefix);
  unpack_all(packed.h_packs, &h_prefix);

  Histogram hist(layout.total_bins());
  for (uint32_t f = 0; f < layout.num_features(); ++f) {
    double prev_g = 0, prev_h = 0;
    for (size_t b = 0; b < layout.NumBins(f); ++b) {
      const size_t flat = layout.Flat(f, static_cast<uint32_t>(b));
      const double g = g_prefix[flat] - packed.shift_g;
      const double h = h_prefix[flat] - packed.shift_h;
      hist.bin(flat).g = g - prev_g;
      hist.bin(flat).h = h - prev_h;
      prev_g = g;
      prev_h = h;
    }
  }
  return hist;
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

Result<Histogram> DecryptRawGhHistogram(const std::vector<Cipher>& gh_bins,
                                        const FeatureLayout& layout,
                                        const GhPackLayout& gh_layout,
                                        const CipherBackend& backend,
                                        size_t* decryptions, ThreadPool* pool) {
  if (gh_bins.size() != layout.total_bins()) {
    return Status::ProtocolError("gh histogram size does not match layout");
  }
  if (!backend.can_decrypt()) {
    return Status::CryptoError("backend has no private key");
  }
  std::vector<BigInt> raw;
  raw.reserve(gh_bins.size());
  for (const Cipher& c : gh_bins) raw.push_back(c.data);
  const std::vector<BigInt> plains = backend.DecryptRawBatch(raw, pool);
  if (decryptions != nullptr) *decryptions += raw.size();

  Histogram hist(layout.total_bins());
  for (size_t i = 0; i < plains.size(); ++i) {
    auto slots = DecodeGhSlots(gh_layout, plains[i]);
    VF2_RETURN_IF_ERROR(slots.status());
    hist.bin(i).g = slots.value().g;
    hist.bin(i).h = slots.value().h;
  }
  return hist;
}

Result<Histogram> DecryptPackedGhHistogram(
    const std::vector<PackedCipher>& gh_packs, const FeatureLayout& layout,
    const GhPackLayout& gh_layout, const CipherBackend& backend,
    size_t* decryptions, ThreadPool* pool) {
  if (!backend.can_decrypt()) {
    return Status::CryptoError("backend has no private key");
  }
  VF2_RETURN_IF_ERROR(CheckPackStream(gh_packs, gh_layout.total_bits(),
                                      layout.total_bins(), backend));
  std::vector<BigInt> raw;
  raw.reserve(gh_packs.size());
  for (const PackedCipher& pc : gh_packs) raw.push_back(pc.data);
  const std::vector<BigInt> plains = backend.DecryptRawBatch(raw, pool);
  if (decryptions != nullptr) *decryptions += raw.size();

  // Each unpacked slot is one accumulated gh prefix; decode then prefix-diff.
  std::vector<GhSlots> prefix;
  prefix.reserve(layout.total_bins());
  for (size_t p = 0; p < gh_packs.size(); ++p) {
    const std::vector<BigInt> slots =
        UnpackPlaintext(plains[p], gh_packs[p].slot_bits,
                        gh_packs[p].num_slots);
    for (const BigInt& s : slots) {
      auto decoded = DecodeGhSlots(gh_layout, s);
      VF2_RETURN_IF_ERROR(decoded.status());
      prefix.push_back(decoded.value());
    }
  }

  Histogram hist(layout.total_bins());
  for (uint32_t f = 0; f < layout.num_features(); ++f) {
    double prev_g = 0, prev_h = 0;
    for (size_t b = 0; b < layout.NumBins(f); ++b) {
      const size_t flat = layout.Flat(f, static_cast<uint32_t>(b));
      hist.bin(flat).g = prefix[flat].g - prev_g;
      hist.bin(flat).h = prefix[flat].h - prev_h;
      prev_g = prefix[flat].g;
      prev_h = prefix[flat].h;
    }
  }
  return hist;
}

}  // namespace vf2boost

// Figure 7: throughputs (#operations per second) of the cryptography
// operations, one thread, values drawn from a normal distribution.
//
// The paper reports S = 2048. Our from-scratch bignum is slower than GMP in
// absolute terms, so the suite sweeps S in {256, 512, 1024}; the *relative*
// picture — re-ordered HAdd ~4x naive HAdd, packed decryption ~pack_slots x
// raw decryption — is the reproduced result.

// Run with `--json BENCH_crypto.json` to also write per-benchmark ops/s in
// the repo's flat JSON metric format (bench/bench_util.h) for regression
// tracking.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bigint/modarith.h"
#include "common/logging.h"
#include "crypto/accumulator.h"
#include "crypto/backend.h"
#include "crypto/encoding.h"
#include "crypto/packing.h"

namespace vf2boost {
namespace {

struct Setup {
  std::unique_ptr<PaillierBackend> backend;
  Rng rng{7};

  explicit Setup(size_t bits) {
    Rng krng(1234 + bits);
    auto kp = PaillierKeyPair::Generate(bits, &krng);
    VF2_CHECK(kp.ok());
    backend = std::make_unique<PaillierBackend>(kp->pub, FixedPointCodec());
    backend->SetPrivateKey(kp->priv);
  }
};

Setup& GetSetup(size_t bits) {
  static Setup s256(256), s512(512), s1024(1024);
  switch (bits) {
    case 256:
      return s256;
    case 512:
      return s512;
    default:
      return s1024;
  }
}

void BM_Encrypt(benchmark::State& state) {
  Setup& s = GetSetup(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.backend->Encrypt(s.rng.NextGaussian(), &s.rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Encrypt)->Arg(256)->Arg(512)->Arg(1024);

void BM_Decrypt(benchmark::State& state) {
  Setup& s = GetSetup(state.range(0));
  Cipher c = s.backend->Encrypt(s.rng.NextGaussian(), &s.rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.backend->Decrypt(c));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Decrypt)->Arg(256)->Arg(512)->Arg(1024);

// Naive streaming accumulation: random exponents force ~(E-1)/E scalings.
void BM_HAddNaive(benchmark::State& state) {
  Setup& s = GetSetup(state.range(0));
  std::vector<Cipher> stream;
  for (int i = 0; i < 64; ++i) {
    stream.push_back(s.backend->Encrypt(s.rng.NextGaussian(), &s.rng));
  }
  for (auto _ : state) {
    NaiveCipherAccumulator acc(s.backend.get());
    for (const Cipher& c : stream) acc.Add(c);
    benchmark::DoNotOptimize(acc.Finalize());
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_HAddNaive)->Arg(256)->Arg(512)->Arg(1024);

// Re-ordered accumulation (§5.1): per-exponent workspaces, E-1 scalings.
void BM_HAddReordered(benchmark::State& state) {
  Setup& s = GetSetup(state.range(0));
  std::vector<Cipher> stream;
  for (int i = 0; i < 64; ++i) {
    stream.push_back(s.backend->Encrypt(s.rng.NextGaussian(), &s.rng));
  }
  for (auto _ : state) {
    ReorderedCipherAccumulator acc(s.backend.get());
    for (const Cipher& c : stream) acc.Add(c);
    benchmark::DoNotOptimize(acc.Finalize());
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_HAddReordered)->Arg(256)->Arg(512)->Arg(1024);

void BM_SMul(benchmark::State& state) {
  Setup& s = GetSetup(state.range(0));
  Cipher c = s.backend->Encrypt(1.5, &s.rng);
  const BigInt k(123456789);
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.backend->SMulRaw(k, c.data));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SMul)->Arg(256)->Arg(512)->Arg(1024);

// Pack a full cipher group (capacity slots) then decrypt once; items = slots
// recovered per second — compare against BM_Decrypt for the ~t x claim.
void BM_PackAndDecrypt(benchmark::State& state) {
  Setup& s = GetSetup(state.range(0));
  const size_t slot_bits = 32;
  const size_t capacity = MaxSlotsPerCipher(
      slot_bits, s.backend->plain_modulus().BitLength());
  std::vector<Cipher> slots;
  for (size_t i = 0; i < capacity; ++i) {
    slots.push_back(s.backend->EncryptAt(1.0 + i, 8, &s.rng));
  }
  for (auto _ : state) {
    auto packed = PackCiphers(slots, slot_bits, *s.backend);
    benchmark::DoNotOptimize(DecryptPacked(packed.value(), *s.backend));
  }
  state.SetItemsProcessed(state.iterations() * capacity);
}
BENCHMARK(BM_PackAndDecrypt)->Arg(256)->Arg(512)->Arg(1024);

// Raw decryption of the same number of slots, for the direct comparison.
void BM_DecryptUnpacked(benchmark::State& state) {
  Setup& s = GetSetup(state.range(0));
  const size_t capacity = MaxSlotsPerCipher(
      32, s.backend->plain_modulus().BitLength());
  std::vector<Cipher> slots;
  for (size_t i = 0; i < capacity; ++i) {
    slots.push_back(s.backend->EncryptAt(1.0 + i, 8, &s.rng));
  }
  for (auto _ : state) {
    for (const Cipher& c : slots) {
      benchmark::DoNotOptimize(s.backend->Decrypt(c));
    }
  }
  state.SetItemsProcessed(state.iterations() * capacity);
}
BENCHMARK(BM_DecryptUnpacked)->Arg(256)->Arg(512)->Arg(1024);

// BM_Encrypt under the forced-scalar Montgomery kernel: the baseline the
// vector kernels are measured against. BM_Encrypt itself runs under kAuto
// dispatch, which picks the IFMA kernel from 768-bit rings up where the CPU
// has it, else the AVX2 kernel from 2048-bit rings up (the "mont_kernel/*"
// lines of the output name the kernel per key size). A nonce table keeps
// the form of the kernel it was built under, so this bench builds its own
// key and table under kScalar rather than reuse BM_Encrypt's.
void BM_EncryptScalar(benchmark::State& state) {
  const MontKernel saved = GetMontKernel();
  SetMontKernel(MontKernel::kScalar);
  static std::map<int64_t, std::unique_ptr<Setup>> setups;
  std::unique_ptr<Setup>& setup = setups[state.range(0)];
  if (setup == nullptr) {
    setup = std::make_unique<Setup>(state.range(0));
    setup->backend->Encrypt(0.0, &setup->rng);  // builds the nonce table
  }
  Setup& s = *setup;
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.backend->Encrypt(s.rng.NextGaussian(), &s.rng));
  }
  SetMontKernel(saved);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EncryptScalar)->Arg(256)->Arg(512)->Arg(1024);

GhPackLayout GhLayoutFor(const PaillierBackend& backend, uint64_t max_count) {
  FixedPointCodec codec(16, 8, 1);
  auto layout = MakeGhPackLayout(codec, max_count, /*value_bound=*/1.0,
                                 backend.plain_modulus().BitLength());
  VF2_CHECK(layout.ok());
  return layout.value();
}

// Decrypting one gh-packed bin recovers count, g and h in a single CRT
// decryption — compare the items/s against BM_Decrypt (one stat per op).
void BM_GhPackedDecrypt(benchmark::State& state) {
  Setup& s = GetSetup(state.range(0));
  const GhPackLayout layout = GhLayoutFor(*s.backend, 64);
  BigInt bin;
  for (int i = 0; i < 64; ++i) {
    const BigInt c = s.backend->EncryptRaw(
        EncodeGhPair(layout, s.rng.NextDouble() * 2 - 1,
                     s.rng.NextDouble() * 0.25),
        &s.rng);
    bin = (i == 0) ? c : s.backend->HAddRaw(bin, c);
  }
  for (auto _ : state) {
    auto slots = DecodeGhSlots(layout, s.backend->DecryptRaw(bin));
    VF2_CHECK(slots.ok());
    benchmark::DoNotOptimize(slots->g);
  }
  // Two statistics (g and h) recovered per decryption.
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_GhPackedDecrypt)->Arg(256)->Arg(512)->Arg(1024);

// The end-to-end gradient stream: B encrypts 64 instances, the ciphertexts
// cross the wire (serialization as the transfer proxy), A accumulates them
// into 8 bins, B decrypts the bins. The classic stream has two ciphers per
// instance, two accumulators and decryptions per bin; the gh-packed stream
// one of each. Both run in every iteration, in alternating order, each
// timed on its own, so a drift in host speed reaches both alike. The
// counters carry each stream's instances per second and the gh-packed
// speedup, the median over iterations of the paired time ratio; the
// reporter emits them as BM_GradStreamUnpacked/<bits>,
// BM_GradStreamGhPacked/<bits> and GradStreamSpeedup/<bits>.
void BM_GradStream(benchmark::State& state) {
  Setup& s = GetSetup(state.range(0));
  constexpr int kRows = 64, kBins = 8;
  const GhPackLayout layout = GhLayoutFor(*s.backend, kRows);
  auto unpacked = [&] {
    std::vector<BigInt> g_bins(kBins), h_bins(kBins);
    size_t bytes = 0;
    for (int i = 0; i < kRows; ++i) {
      const Cipher g =
          s.backend->EncryptAt(s.rng.NextDouble() * 2 - 1, 8, &s.rng);
      const Cipher h = s.backend->EncryptAt(s.rng.NextDouble() * 0.25, 8,
                                            &s.rng);
      bytes += g.data.ToBytes().size() + h.data.ToBytes().size();
      const int b = i % kBins;
      g_bins[b] = (i < kBins) ? g.data : s.backend->HAddRaw(g_bins[b], g.data);
      h_bins[b] = (i < kBins) ? h.data : s.backend->HAddRaw(h_bins[b], h.data);
    }
    benchmark::DoNotOptimize(bytes);
    for (int b = 0; b < kBins; ++b) {
      benchmark::DoNotOptimize(s.backend->DecryptRaw(g_bins[b]));
      benchmark::DoNotOptimize(s.backend->DecryptRaw(h_bins[b]));
    }
  };
  auto gh_packed = [&] {
    std::vector<BigInt> bins(kBins);
    size_t bytes = 0;
    for (int i = 0; i < kRows; ++i) {
      const BigInt c = s.backend->EncryptRaw(
          EncodeGhPair(layout, s.rng.NextDouble() * 2 - 1,
                       s.rng.NextDouble() * 0.25),
          &s.rng);
      bytes += c.ToBytes().size();
      const int b = i % kBins;
      bins[b] = (i < kBins) ? c : s.backend->HAddRaw(bins[b], c);
    }
    benchmark::DoNotOptimize(bytes);
    for (int b = 0; b < kBins; ++b) {
      auto slots = DecodeGhSlots(layout, s.backend->DecryptRaw(bins[b]));
      VF2_CHECK(slots.ok());
      benchmark::DoNotOptimize(slots->g);
    }
  };
  auto seconds = [](const auto& stream) {
    const auto start = std::chrono::steady_clock::now();
    stream();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  double unpacked_s = 0, gh_packed_s = 0;
  std::vector<double> ratios;
  for (auto _ : state) {
    double u, g;
    if (ratios.size() % 2 == 0) {
      u = seconds(unpacked);
      g = seconds(gh_packed);
    } else {
      g = seconds(gh_packed);
      u = seconds(unpacked);
    }
    unpacked_s += u;
    gh_packed_s += g;
    ratios.push_back(u / g);
  }
  std::nth_element(ratios.begin(), ratios.begin() + ratios.size() / 2,
                   ratios.end());
  const double instances = static_cast<double>(state.iterations() * kRows);
  state.counters["unpacked_per_s"] = instances / unpacked_s;
  state.counters["gh_packed_per_s"] = instances / gh_packed_s;
  state.counters["speedup"] = ratios[ratios.size() / 2];
}
BENCHMARK(BM_GradStream)->Arg(256)->Arg(512)->Arg(1024);

// Console reporter that also records each benchmark's throughput in the JSON
// metrics file, and BM_GradStream's counters as the two streams' throughputs
// and their speedup.
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  explicit CapturingReporter(bench::JsonWriter* json) : json_(json) {}

  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      const std::string name = run.benchmark_name();
      if (name.starts_with("BM_GradStream/")) {
        const std::string bits = name.substr(name.find('/') + 1);
        json_->Add("BM_GradStreamUnpacked/" + bits,
                   run.counters.at("unpacked_per_s").value, "ops/s");
        json_->Add("BM_GradStreamGhPacked/" + bits,
                   run.counters.at("gh_packed_per_s").value, "ops/s");
        json_->Add("GradStreamSpeedup/" + bits,
                   run.counters.at("speedup").value, "x");
        continue;
      }
      const auto items = run.counters.find("items_per_second");
      double ops = 0;
      if (items != run.counters.end()) {
        ops = items->second.value;
      } else if (run.real_accumulated_time > 0 && run.iterations > 0) {
        ops = static_cast<double>(run.iterations) / run.real_accumulated_time;
      } else {
        continue;
      }
      json_->Add(name, ops, "ops/s");
    }
    ConsoleReporter::ReportRuns(reports);
  }

 private:
  bench::JsonWriter* json_;
};

}  // namespace
}  // namespace vf2boost

int main(int argc, char** argv) {
  const std::string json_path =
      vf2boost::bench::TakeStringFlag(&argc, argv, "--json");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  // The kernel kAuto runs on each key size's ciphertext (n^2) and CRT
  // (p^2, q^2) rings, printed in the context header above the results.
  for (size_t bits : {256, 512, 1024}) {
    benchmark::AddCustomContext(
        "mont_kernel/" + std::to_string(bits),
        std::string("n^2 ") +
            vf2boost::MontKernelName(vf2boost::MontKernelFor(2 * bits / 64)) +
            ", crt " +
            vf2boost::MontKernelName(vf2boost::MontKernelFor(bits / 64)));
  }
  vf2boost::bench::JsonWriter json;
  vf2boost::CapturingReporter reporter(&json);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (!json_path.empty() && !json.WriteTo(json_path)) return 1;
  return 0;
}

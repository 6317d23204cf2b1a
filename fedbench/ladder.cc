// Per-layer ladder of the fedbench benchmark: times calls into each layer's
// public functions (bigint -> crypto -> hist -> proto -> net, plus data
// loading and binning) on inputs shaped like one workload, records a span
// around every timed batch, and prints one JSON object on stdout:
//
//   {"host": {...}, "metrics": {"bigint.montmul_ns": ..., ...}}
//
// The spans go to --trace-out as Chrome trace events. Nothing inside the
// library is instrumented; every number here comes from the outside.
//
//   fedbench_ladder --data train.libsvm --protocol vf2boost --key-bits 1024
//                   --parties 2 --workers 2 --bins 16 --seed 7
//   fedbench_ladder --host-only --key-bits 2048

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bigint/modarith.h"
#include "crypto/backend.h"
#include "crypto/paillier.h"
#include "data/binning.h"
#include "data/io.h"
#include "data/partition.h"
#include "fed/enc_histogram.h"
#include "fed/protocol.h"
#include "fed/tcp_transport.h"
#include "gbdt/loss.h"
#include "tools/flags.h"

#ifdef FEDBENCH_HAVE_GMP
#include <gmp.h>
#endif

namespace vf2boost {
namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// One timed batch of calls into a layer.
struct Span {
  std::string layer;
  std::string name;
  double start_us = 0;
  double dur_us = 0;
  size_t ops = 0;
};

class Ladder {
 public:
  explicit Ladder(double budget_s) : budget_s_(budget_s) {}

  // Runs `op` in batches of `batch` calls until the budget is spent (at
  // least `min_batches` batches) and returns the median seconds per call.
  double Time(const std::string& layer, const std::string& name, size_t batch,
              const std::function<void()>& op, size_t min_batches = 3,
              double budget_s = 0) {
    if (budget_s <= 0) budget_s = budget_s_;
    std::vector<double> per_op;
    const Clock::time_point begin = Clock::now();
    while (per_op.size() < min_batches ||
           Seconds(begin, Clock::now()) < budget_s) {
      const Clock::time_point t0 = Clock::now();
      for (size_t i = 0; i < batch; ++i) op();
      const Clock::time_point t1 = Clock::now();
      spans_.push_back({layer, name, Seconds(epoch_, t0) * 1e6,
                        Seconds(t0, t1) * 1e6, batch});
      per_op.push_back(Seconds(t0, t1) / static_cast<double>(batch));
      if (per_op.size() >= 1000) break;
    }
    std::sort(per_op.begin(), per_op.end());
    return per_op[per_op.size() / 2];
  }

  void Set(const std::string& name, double value) { metrics_[name] = value; }

  bool WriteTrace(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"traceEvents\": [\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                   "\"pid\": 0, \"tid\": \"%s\", \"ts\": %.3f, \"dur\": %.3f, "
                   "\"args\": {\"ops\": %zu}}\n",
                   i == 0 ? "" : ",", s.name.c_str(), s.layer.c_str(),
                   s.layer.c_str(), s.start_us, s.dur_us, s.ops);
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

  const std::map<std::string, double>& metrics() const { return metrics_; }

 private:
  double budget_s_;
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::map<std::string, double> metrics_;
};

// Keeps results alive so the timed calls cannot be optimised away.
size_t g_sink = 0;
void Sink(const BigInt& v) { g_sink += v.BitLength(); }

std::string KernelName(size_t n2_limbs) {
  // Mirrors MontgomeryContext's kAuto rule (AVX2 from 32 limbs up).
  const MontKernel k = GetMontKernel();
  if (k == MontKernel::kScalar || !CpuHasAvx2()) return "scalar";
  if (k == MontKernel::kAvx2 || n2_limbs >= 32) return "avx2";
  return "scalar";
}

void PrintHost(size_t key_bits) {
  const size_t n2_limbs = (2 * key_bits + 63) / 64;
  std::printf("\"host\": {\"cpu_has_avx2\": %s, \"mont_kernel\": \"%s\", "
              "\"mont_kernel_selection\": \"%s\", \"n2_limbs\": %zu, "
              "\"key_bits\": %zu, \"gmp\": %s}",
              CpuHasAvx2() ? "true" : "false", KernelName(n2_limbs).c_str(),
              GetMontKernel() == MontKernel::kAuto     ? "auto"
              : GetMontKernel() == MontKernel::kAvx2 ? "avx2"
                                                       : "scalar",
              n2_limbs, key_bits,
#ifdef FEDBENCH_HAVE_GMP
              "true"
#else
              "false"
#endif
  );
}

#ifdef FEDBENCH_HAVE_GMP
struct Mpz {
  Mpz() { mpz_init(v); }
  explicit Mpz(const BigInt& b) {
    mpz_init(v);
    mpz_set_str(v, b.ToHexString().c_str(), 16);
  }
  ~Mpz() { mpz_clear(v); }
  Mpz(const Mpz&) = delete;
  Mpz& operator=(const Mpz&) = delete;
  mpz_t v;
};
#endif

// bigint layer at the width of n^2, and the GMP ratios when GMP is linked.
void BigintRungs(Ladder* L, const BigInt& n, Rng* rng) {
  const BigInt n2 = n * n;
  const MontgomeryContext ctx(n2);
  const size_t k = ctx.num_limbs();
  const BigInt a = BigInt::RandomBelow(n2, rng);
  const BigInt b = BigInt::RandomBelow(n2, rng);
  std::vector<uint64_t> ra(k), rb(k);
  ctx.LoadRaw(a, ra.data());
  ctx.LoadRaw(b, rb.data());
  const double montmul = L->Time("bigint", "montmul", 2000, [&] {
    ctx.MulReduceRaw(ra.data(), rb.data(), ra.data());
  });
  g_sink += ra[0];
  const double mulmod =
      L->Time("bigint", "mulmod", 500, [&] { Sink(Mod(a * b, n2)); });
  const BigInt exp = BigInt::Random(n.BitLength(), rng);
  const double modexp = L->Time(
      "bigint", "modexp", 1, [&] { Sink(ModExp(a, exp, ctx)); }, 5);
  L->Set("bigint.montmul_ns", montmul * 1e9);
  L->Set("bigint.mulmod_ns", mulmod * 1e9);
  L->Set("bigint.modexp_us", modexp * 1e6);
#ifdef FEDBENCH_HAVE_GMP
  Mpz ga(a), gb(b), gm(n2), ge(exp), gr;
  const double gmp_mulmod = L->Time("bigint", "gmp_mulmod", 500, [&] {
    mpz_mul(gr.v, ga.v, gb.v);
    mpz_tdiv_r(gr.v, gr.v, gm.v);
  });
  const double gmp_modexp = L->Time(
      "bigint", "gmp_modexp", 1, [&] { mpz_powm(gr.v, ga.v, ge.v, gm.v); },
      5);
  g_sink += mpz_sizeinbase(gr.v, 2);
  // Repo Montgomery multiply against GMP's multiply-and-reduce (GMP exposes
  // no Montgomery product), and repo ModExp against mpz_powm.
  L->Set("bigint.montmul_gmp_ratio", montmul / gmp_mulmod);
  L->Set("bigint.modexp_gmp_ratio", modexp / gmp_modexp);
#endif
}

// Which histogram path the workload's Party A takes.
struct Shape {
  bool mock = false;
  bool gh = false;
  bool packing = false;
  bool reordered = false;
};

Shape ShapeFor(const std::string& protocol) {
  Shape s;
  if (protocol == "vf2boost") {
    s.gh = s.packing = s.reordered = true;
  } else if (protocol == "mock") {
    s.mock = true;
  } else if (protocol != "vfgbdt") {
    std::fprintf(stderr, "unknown --protocol %s\n", protocol.c_str());
    std::exit(1);
  }
  return s;
}

// One node-histogram frame over loopback TCP: A sends, B answers with a
// small frame; the median round trip is net.rtt_us.
double TcpRoundTrip(Ladder* L, const Message& frame) {
  NetworkConfig net;
  auto listener = TcpChannelFactory::Listen("127.0.0.1", 0, 1, net);
  if (!listener.ok()) return -1;
  auto dialer =
      TcpChannelFactory::Dial("127.0.0.1", (*listener)->port(), 0, net);
  if (!dialer.ok()) return -1;
  const auto deadline = ChannelEndpoint::Clock::now() + std::chrono::seconds(10);
  Result<std::unique_ptr<MessagePort>> a_port = Status::Internal("unset");
  std::thread dial([&] { a_port = (*dialer)->Reconnect(0, true, deadline); });
  auto b_port = (*listener)->Reconnect(0, false, deadline);
  dial.join();
  if (!a_port.ok() || !b_port.ok()) return -1;
  MessagePort* a = a_port->get();
  MessagePort* b = b_port->get();
  // Echoes until A closes its end.
  std::thread echo([&] {
    while (b->Receive().ok()) b->Send(EncodeLayout(LayoutPayload{}));
  });
  bool ok = true;
  const double rtt = L->Time("net", "tcp_node_hist_rtt", 4, [&] {
    a->Send(frame);
    ok = ok && a->Receive().ok();
  });
  a->Close(Status::OK());
  b->Close(Status::OK());
  echo.join();
  return ok ? rtt : -1;
}

int Main(int argc, char** argv) {
  tools::Flags flags(
      argc, argv,
      {{"data", "training LIBSVM file of the workload"},
       {"protocol", "vf2boost|vfgbdt|mock (default vf2boost)"},
       {"key-bits", "Paillier modulus bits (default 1024)"},
       {"parties", "total parties incl. B (default 2)"},
       {"workers", "workers per party (default 1)"},
       {"bins", "histogram bins (default 20)"},
       {"seed", "partition/crypto seed passed to vf2_fedtrain (default 42)"},
       {"budget", "seconds spent per timed rung (default 0.2)"},
       {"trace-out", "write the ladder's spans as Chrome trace JSON"},
       {"host-only", "print only the host/kernel record"}});
  const size_t key_bits = static_cast<size_t>(flags.GetInt("key-bits", 1024));
  if (flags.GetBool("host-only")) {
    std::printf("{");
    PrintHost(key_bits);
    std::printf("}\n");
    return 0;
  }
  flags.Require({"data"});
  const Shape shape = ShapeFor(flags.GetString("protocol", "vf2boost"));
  const size_t parties = static_cast<size_t>(flags.GetInt("parties", 2));
  const size_t workers = static_cast<size_t>(flags.GetInt("workers", 1));
  const size_t bins = static_cast<size_t>(flags.GetInt("bins", 20));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  Ladder L(flags.GetDouble("budget", 0.2));

  // --- data: load, partition exactly as vf2_fedtrain does, bin ------------
  Result<Dataset> train = Status::Internal("unset");
  const double load_s = L.Time(
      "data", "load_libsvm", 1,
      [&] { train = LoadLibsvm(flags.GetString("data")); }, 1);
  if (!train.ok()) {
    std::fprintf(stderr, "%s\n", train.status().ToString().c_str());
    return 1;
  }
  std::vector<double> fractions(parties - 1, 0.5 / (parties - 1));
  fractions.push_back(0.5);
  Rng split_rng(seed);
  const VerticalSplitSpec spec =
      SplitColumnsRandomly(train->columns(), fractions, &split_rng);
  auto shards = PartitionVertically(train.value(), spec, parties - 1);
  if (!shards.ok()) {
    std::fprintf(stderr, "%s\n", shards.status().ToString().c_str());
    return 1;
  }
  // Every party bins its own shard in parallel; the slowest gates setup.
  double bin_s = 0;
  for (const Dataset& shard : *shards) {
    bin_s = std::max(bin_s, L.Time("data", "bin_shard", 1, [&] {
      const BinCuts cuts = ComputeBinCuts(shard.features, bins);
      g_sink += BinnedMatrix::FromCsr(shard.features, cuts).rows();
    }, 1));
  }
  L.Set("data.load_s", load_s);
  L.Set("data.bin_s", bin_s);
  const Dataset& a0 = (*shards)[0];
  const BinCuts cuts = ComputeBinCuts(a0.features, bins);
  const BinnedMatrix binned = BinnedMatrix::FromCsr(a0.features, cuts);
  const FeatureLayout layout = FeatureLayout::FromCuts(cuts);
  const size_t rows = train->rows();

  // --- crypto: the same key Party B generates from this seed -------------
  FedConfig defaults;
  const FixedPointCodec codec(defaults.codec_base, defaults.codec_min_exponent,
                              defaults.codec_num_exponents);
  Result<PaillierKeyPair> kp = Status::Internal("unset");
  Rng key_rng(seed);
  const Clock::time_point kg0 = Clock::now();
  kp = PaillierKeyPair::Generate(key_bits, &key_rng);
  L.Set("crypto.keygen_s", Seconds(kg0, Clock::now()));
  if (!kp.ok()) {
    std::fprintf(stderr, "%s\n", kp.status().ToString().c_str());
    return 1;
  }
  const PaillierPublicKey& pub = kp->pub;
  Rng rng(seed ^ 0x6c6164646572ULL);  // "ladder"
  BigintRungs(&L, pub.n(), &rng);

  const BigInt m = BigInt::RandomBelow(pub.n(), &rng);
  const BigInt nonce = pub.MakeNonce(&rng);
  const BigInt c1 = pub.Encrypt(m, &rng);
  const BigInt c2 = pub.Encrypt(m, &rng);
  L.Set("crypto.nonce_us",
        1e6 * L.Time("crypto", "make_nonce", 4, [&] { Sink(pub.MakeNonce(&rng)); }));
  L.Set("crypto.enc_us", 1e6 * L.Time("crypto", "encrypt_with_nonce", 200, [&] {
          Sink(pub.EncryptWithNonce(m, nonce));
        }));
  L.Set("crypto.hadd_ns",
        1e9 * L.Time("crypto", "hadd", 500, [&] { Sink(pub.HAdd(c1, c2)); }));
  const MockBackend mock(codec);
  const BigInt mc1 = BigInt::RandomBelow(mock.plain_modulus(), &rng);
  const BigInt mc2 = BigInt::RandomBelow(mock.plain_modulus(), &rng);
  L.Set("crypto.mock_hadd_ns", 1e9 * L.Time("crypto", "mock_hadd", 2000, [&] {
          Sink(mock.HAddRaw(mc1, mc2));
        }));
  auto loss = MakeLoss(defaults.gbdt.objective);
  if (!loss.ok()) return 1;
  auto gh_layout = MakeGhPackLayout(
      codec, rows,
      std::max(loss.value()->GradientBound(), loss.value()->HessianBound()),
      pub.n().BitLength());
  // One packing step shifts by a whole gh slot (the width PackGhHistogram
  // uses); without gh packing, by 64 bits.
  const size_t slot = gh_layout.ok() ? gh_layout->total_bits() : 64;
  const BigInt shift = BigInt(1) << slot;
  L.Set("crypto.smul_pow2_us", 1e6 * L.Time("crypto", "smul_pow2", 20, [&] {
          Sink(pub.SMul(shift, c1));
        }));
  // A cipher scaling (ScaleTo) is one SMul by the codec base.
  const BigInt base(static_cast<uint64_t>(defaults.codec_base));
  L.Set("crypto.scale_us", 1e6 * L.Time("crypto", "smul_base", 50, [&] {
          Sink(pub.SMul(base, c1));
        }));
  L.Set("crypto.dec_us", 1e6 * L.Time("crypto", "decrypt", 10, [&] {
          Sink(kp->priv.Decrypt(c1));
        }));

  // --- hist: the workload's root node, built the way its Party A builds --
  std::unique_ptr<CipherBackend> backend;
  if (shape.mock) {
    backend = std::make_unique<MockBackend>(codec);
  } else {
    auto pb = std::make_unique<PaillierBackend>(pub, codec);
    pb->SetPrivateKey(kp->priv);
    backend = std::move(pb);
  }
  std::unique_ptr<ThreadPool> pool;
  if (workers > 1) pool = std::make_unique<ThreadPool>(workers);
  // HAdd cost does not depend on which cipher is added, so a small set of
  // distinct gradient ciphers is cycled over the rows.
  constexpr size_t kDistinct = 64;
  std::vector<Cipher> g(rows), h(rows), gh(rows);
  std::vector<Cipher> g_base, h_base, gh_base;
  for (size_t i = 0; i < kDistinct; ++i) {
    const float label = train->labels[i % rows];
    const double gi = 0.5 - label;  // logistic gradient at score 0
    if (shape.gh && gh_layout.ok()) {
      Cipher c;
      c.exponent = gh_layout->exponent;
      c.data = backend->EncryptRaw(EncodeGhPair(*gh_layout, gi, 0.25), &rng);
      gh_base.push_back(c);
    } else {
      g_base.push_back(backend->Encrypt(gi, &rng));
      h_base.push_back(backend->Encrypt(0.25, &rng));
    }
  }
  for (size_t i = 0; i < rows; ++i) {
    if (!gh_base.empty()) {
      gh[i] = gh_base[i % kDistinct];
    } else {
      g[i] = g_base[i % kDistinct];
      h[i] = h_base[i % kDistinct];
    }
  }
  std::vector<uint32_t> all(rows);
  for (size_t i = 0; i < rows; ++i) all[i] = static_cast<uint32_t>(i);
  EncryptedHistogram root;
  const bool use_gh = !gh_base.empty();
  L.Set("hist.build_root_s", L.Time("hist", "build_root", 1, [&] {
          AccumulatorStats st;
          root = use_gh ? BuildEncryptedHistogramGhParallel(
                              binned, layout, all, gh, *backend,
                              shape.reordered, &st, pool.get())
                        : BuildEncryptedHistogramParallel(
                              binned, layout, all, g, h, *backend,
                              shape.reordered, &st, pool.get());
        }, 1, 1.0));
  NodeHistogramPayload payload;
  payload.gh = use_gh;
  double pack_s = 0;
  if (shape.packing) {
    pack_s = L.Time("hist", "pack_node", 1, [&] {
      AccumulatorStats st;
      if (use_gh) {
        auto packed = PackGhHistogram(root, layout, *gh_layout, *backend, &st,
                                      defaults.min_pack_slots);
        payload.packed = packed.ok();
        if (packed.ok()) payload.gh_packs = std::move(packed).value();
      } else {
        auto packed = PackHistogram(root, layout, rows,
                                    loss.value()->GradientBound(), *backend,
                                    &st, defaults.min_pack_slots);
        payload.packed = packed.ok();
        if (packed.ok()) {
          payload.shift_g = packed->shift_g;
          payload.shift_h = packed->shift_h;
          payload.g_packs = std::move(packed->g_packs);
          payload.h_packs = std::move(packed->h_packs);
        }
      }
    }, 1, 1.0);
  }
  L.Set("hist.pack_node_s", pack_s);
  size_t packs = 0, slots = 0;
  for (const auto* v : {&payload.gh_packs, &payload.g_packs, &payload.h_packs}) {
    for (const PackedCipher& p : *v) slots += p.num_slots;
    packs += v->size();
  }
  L.Set("ladder.slots_per_pack",
        packs ? static_cast<double>(slots) / static_cast<double>(packs) : 0);
  if (!payload.packed) {
    payload.g_bins = root.g_bins;
    payload.h_bins = root.h_bins;
    payload.gh_bins = root.gh_bins;
  }
  bool decrypt_ok = true;
  L.Set("hist.decrypt_node_s", L.Time("hist", "decrypt_node", 1, [&] {
          size_t dec = 0;
          Result<Histogram> plain =
              use_gh ? (payload.packed
                            ? DecryptPackedGhHistogram(payload.gh_packs, layout,
                                                       *gh_layout, *backend,
                                                       &dec, pool.get())
                            : DecryptRawGhHistogram(payload.gh_bins, layout,
                                                    *gh_layout, *backend, &dec,
                                                    pool.get()))
                     : payload.packed
                         ? DecryptPackedHistogram(
                               PackedHistogram{payload.shift_g, payload.shift_h,
                                               0, payload.g_packs,
                                               payload.h_packs},
                               layout, *backend, &dec, pool.get())
                         : DecryptRawHistogram(payload.g_bins, payload.h_bins,
                                               layout, *backend, &dec,
                                               pool.get());
          decrypt_ok = decrypt_ok && plain.ok();
        }, 1, 1.0));
  if (!decrypt_ok) {
    std::fprintf(stderr, "ladder: root histogram failed to decrypt\n");
    return 1;
  }

  // --- proto: node-histogram codec; net: the same frame over TCP ----------
  const Message frame = EncodeNodeHistogram(payload, *backend);
  bool codec_ok = true;
  L.Set("proto.hist_codec_us", 1e6 * L.Time("proto", "node_hist_codec", 1, [&] {
          NodeHistogramPayload back;
          codec_ok = codec_ok &&
                     DecodeNodeHistogram(EncodeNodeHistogram(payload, *backend),
                                         *backend, &back)
                         .ok();
        }));
  const double rtt = TcpRoundTrip(&L, frame);
  if (!codec_ok || rtt < 0) {
    std::fprintf(stderr, "ladder: codec or loopback round trip failed\n");
    return 1;
  }
  L.Set("net.rtt_us", rtt * 1e6);
  L.Set("ladder.frame_bytes", static_cast<double>(frame.payload.size()));

  if (flags.Has("trace-out") && !L.WriteTrace(flags.GetString("trace-out"))) {
    std::fprintf(stderr, "cannot write %s\n",
                 flags.GetString("trace-out").c_str());
    return 1;
  }
  std::printf("{");
  PrintHost(key_bits);
  std::printf(", \"metrics\": {");
  bool first = true;
  for (const auto& [name, value] : L.metrics()) {
    std::printf("%s\"%s\": %.9g", first ? "" : ", ", name.c_str(), value);
    first = false;
  }
  std::printf("}, \"sink\": %zu}\n", g_sink);
  return 0;
}

}  // namespace
}  // namespace vf2boost

int main(int argc, char** argv) { return vf2boost::Main(argc, argv); }

#include "bigint/modarith.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/threadpool.h"

namespace vf2boost {
namespace {

// Restores the process-global kernel selection after each test so the rest
// of the suite keeps running under kAuto dispatch.
class KernelGuard {
 public:
  KernelGuard() : saved_(GetMontKernel()) {}
  ~KernelGuard() { SetMontKernel(saved_); }

 private:
  MontKernel saved_;
};

BigInt RandomOddModulus(size_t bits, Rng* rng) {
  BigInt n = BigInt::Random(bits - 1, rng);
  n += BigInt(1) << (bits - 1);  // force the top bit: exactly bits bits
  if (n.IsEven()) n += BigInt(1);
  return n;
}

using Limbs = std::vector<uint64_t>;

Limbs Load(const MontgomeryContext& ctx, const BigInt& v) {
  Limbs out(ctx.num_limbs());
  ctx.LoadRaw(v, out.data());
  return out;
}

Limbs MulRaw(const MontgomeryContext& ctx, const Limbs& a, const Limbs& b) {
  Limbs out(ctx.num_limbs());
  ctx.MulReduceRaw(a.data(), b.data(), out.data());
  return out;
}

// One vector kernel and the cpu features it needs.
struct VectorKernel {
  const char* name;
  MontKernel kernel;
  bool (*supported)();
  const char* features;
};

const VectorKernel kVectorKernels[] = {
    {"Avx2", MontKernel::kAvx2, CpuHasAvx2, "avx2"},
    {"Ifma", MontKernel::kIfma, CpuHasIfma, "avx512f+avx512ifma"},
};

// Every vector kernel must produce the scalar CIOS kernel's limbs exactly.
class ModArithKernelTest : public ::testing::TestWithParam<VectorKernel> {
 protected:
  void SetUp() override {
    if (!GetParam().supported()) {
      GTEST_SKIP() << "cpu lacks " << GetParam().features;
    }
  }

  // Runs `fn` under the kernel under test and asserts that kernel ran.
  template <typename Fn>
  auto Under(const MontgomeryContext& ctx, Fn fn) {
    SetMontKernel(GetParam().kernel);
    EXPECT_EQ(MontKernelFor(ctx.num_limbs()), GetParam().kernel)
        << ctx.num_limbs() << " limbs";
    return fn();
  }

  KernelGuard guard_;
};

TEST_P(ModArithKernelTest, RawLimbsMatchScalar) {
  Rng rng(20260808);
  // k = 1..65 limbs, odd and even, plus k = 13 (64k divisible by 52) and
  // k = 32 (the radix-2^52 digits fill whole 512-bit vectors) and k = 128
  // (the n^2 ring of a 4096-bit key).
  const size_t kBits[] = {64,   128,  256,  320,  512,  576,  768,
                          832,  1024, 1088, 2048, 2112, 3072, 4096,
                          4160, 8192};
  for (size_t bits : kBits) {
    const MontgomeryContext ctx(RandomOddModulus(bits, &rng));
    const BigInt& m = ctx.modulus();
    const std::vector<std::pair<BigInt, BigInt>> operands = {
        {BigInt(0), BigInt::RandomBelow(m, &rng)},
        {m - BigInt(1), m - BigInt(1)},
        {m - BigInt(1), BigInt(1)},
        {BigInt::RandomBelow(m, &rng), BigInt(0)},
        {BigInt::RandomBelow(m, &rng), BigInt::RandomBelow(m, &rng)},
        {BigInt::RandomBelow(m, &rng), BigInt::RandomBelow(m, &rng)},
        {BigInt::RandomBelow(m, &rng), BigInt::RandomBelow(m, &rng)},
    };
    for (size_t i = 0; i < operands.size(); ++i) {
      SCOPED_TRACE(std::to_string(bits) + " bits, operands " +
                   std::to_string(i));
      const Limbs a = Load(ctx, operands[i].first);
      const Limbs b = Load(ctx, operands[i].second);
      SetMontKernel(MontKernel::kScalar);
      const Limbs want_ab = MulRaw(ctx, a, b);
      const Limbs want_aa = MulRaw(ctx, a, a);

      EXPECT_EQ(Under(ctx, [&] { return MulRaw(ctx, a, b); }), want_ab);
      // The in-place forms Pow, HornerPow2 and FixedBasePowTable use.
      Limbs x = a;
      Under(ctx, [&] { ctx.MulReduceRaw(x.data(), x.data(), x.data()); });
      EXPECT_EQ(x, want_aa);
      x = a;
      Under(ctx, [&] { ctx.MulReduceRaw(x.data(), b.data(), x.data()); });
      EXPECT_EQ(x, want_ab);
      x = b;
      Under(ctx, [&] { ctx.MulReduceRaw(a.data(), x.data(), x.data()); });
      EXPECT_EQ(x, want_ab);

      // And the product is the true one: FromMont(ToMont(a) * ToMont(b)).
      const BigInt prod = Under(ctx, [&] {
        return ctx.FromMont(ctx.MontMul(ctx.ToMont(operands[i].first),
                                        ctx.ToMont(operands[i].second)));
      });
      EXPECT_EQ(prod, Mod(operands[i].first * operands[i].second, m));
    }
  }
}

TEST_P(ModArithKernelTest, PowMatchesScalar) {
  Rng rng(99);
  for (size_t bits : {1024u, 2048u, 4096u}) {
    const MontgomeryContext ctx(RandomOddModulus(bits, &rng));
    const BigInt base = BigInt::RandomBelow(ctx.modulus(), &rng);
    const BigInt exp = BigInt::Random(256, &rng);
    SetMontKernel(MontKernel::kScalar);
    const BigInt want = ctx.Pow(base, exp);
    EXPECT_EQ(Under(ctx, [&] { return ctx.Pow(base, exp); }), want) << bits;
  }
}

// A table keeps the chain form of the kernel it was built under: radix-2^52
// digits under IFMA, R-domain limbs under the others. So tables compare by
// the canonical residue of every entry: each kernel's table holds the same
// residues as the scalar one, and a table built under one kernel evaluates
// under another. Window 8 is the Paillier nonce table, on the n^2 rings of
// 1024- and 2048-bit keys.
TEST_P(ModArithKernelTest, FixedBaseTableIsSharedAcrossKernels) {
  Rng rng(4711);
  const std::pair<size_t, size_t> kShapes[] = {{2048, 4}, {2048, 8}, {4096, 8}};
  for (const auto& [bits, window] : kShapes) {
    SCOPED_TRACE(std::to_string(bits) + "-bit ring, window " +
                 std::to_string(window));
    auto ctx = std::make_shared<const MontgomeryContext>(
        RandomOddModulus(bits, &rng));
    const BigInt base = BigInt::RandomBelow(ctx->modulus(), &rng);
    SetMontKernel(MontKernel::kScalar);
    const FixedBasePowTable scalar_built(ctx, base, 256, window);
    const FixedBasePowTable kernel_built = Under(
        *ctx, [&] { return FixedBasePowTable(ctx, base, 256, window); });
    ASSERT_EQ(kernel_built.num_windows(), scalar_built.num_windows());
    size_t mismatches = 0;
    for (size_t i = 0; i < scalar_built.num_windows(); ++i) {
      for (size_t d = 1; d < (size_t{1} << window); ++d) {
        if (kernel_built.EntryResidue(i, d) !=
            scalar_built.EntryResidue(i, d)) {
          ADD_FAILURE_AT(__FILE__, __LINE__)
              << "entry (" << i << ", " << d << ") differs";
          if (++mismatches == 5) return;
        }
      }
    }
    for (int i = 0; i < 8; ++i) {
      const BigInt exp = BigInt::Random(1 + 36 * i, &rng);
      SetMontKernel(MontKernel::kScalar);
      const BigInt want = ctx->Pow(base, exp);
      EXPECT_EQ(kernel_built.Pow(exp), want) << i;
      EXPECT_EQ(Under(*ctx, [&] { return scalar_built.Pow(exp); }), want) << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, ModArithKernelTest, ::testing::ValuesIn(kVectorKernels),
    [](const ::testing::TestParamInfo<VectorKernel>& info) {
      return std::string(info.param.name);
    });

// Every kernel the host runs, scalar included.
std::vector<MontKernel> HostKernels() {
  std::vector<MontKernel> kernels = {MontKernel::kScalar};
  if (CpuHasAvx2()) kernels.push_back(MontKernel::kAvx2);
  if (CpuHasIfma()) kernels.push_back(MontKernel::kIfma);
  return kernels;
}

// Chains under every kernel: the pair step writes the same words as two
// single steps (in place too), and leaving gives the scalar kernel's
// canonical product. The widths cover the IFMA chain's digit boundaries:
// k = 13, 26 and 130 take one digit more (52L = 64k), k = 12..130 is the
// kAuto IFMA range (forced IFMA runs k = 1 and 2 too), 130 limbs needs a
// 21st vector, and the 8-lane vectors fill exactly at k = 32 and 64. Each
// width runs a random full-width modulus and 2^(64k) - 1, the largest one,
// where the lazy bound 4m <= R′ is tightest.
TEST(ModArithSimd, ChainStepsMatchScalar) {
  KernelGuard guard;
  Rng rng(20261019);
  for (size_t k :
       {1u, 2u, 12u, 13u, 16u, 26u, 31u, 32u, 33u, 64u, 65u, 129u, 130u}) {
    const BigInt top = BigInt(1) << (64 * k);
    for (const BigInt& m : {RandomOddModulus(64 * k, &rng), top - BigInt(1)}) {
      const MontgomeryContext ctx(m);
      ASSERT_EQ(ctx.num_limbs(), k);
      const std::vector<std::pair<BigInt, BigInt>> operands = {
          {BigInt(0), BigInt::RandomBelow(m, &rng)},
          {m - BigInt(1), m - BigInt(1)},
          {m - BigInt(1), BigInt(1)},
          {BigInt::RandomBelow(m, &rng), BigInt(0)},
          {BigInt::RandomBelow(m, &rng), BigInt::RandomBelow(m, &rng)},
      };
      const BigInt r = BigInt::RandomBelow(m, &rng);
      SetMontKernel(MontKernel::kScalar);
      const BigInt r_pow = ModExp(r, BigInt(1) << 300, m);  // r^(2^300)
      for (MontKernel kernel : HostKernels()) {
        SetMontKernel(kernel);
        ASSERT_EQ(MontKernelFor(k), kernel);
        const MontgomeryContext::Chain c = ctx.ChainForm();
        ASSERT_EQ(c.radix52, kernel == MontKernel::kIfma);
        auto enter = [&](const BigInt& x) {
          Limbs out(c.words);
          ctx.LoadRaw(x, out.data());
          ctx.ChainEnter(c, out.data(), out.data());
          return out;
        };
        for (size_t i = 0; i < operands.size(); ++i) {
          const size_t j = (i + 1) % operands.size();
          SCOPED_TRACE(std::string(MontKernelName(kernel)) + ", k = " +
                       std::to_string(k) + ", m = " +
                       (m == top - BigInt(1) ? "2^64k - 1" : "random") +
                       ", operands " + std::to_string(i));
          const auto& [x0, y0] = operands[i];
          const auto& [x1, y1] = operands[j];
          const Limbs a0 = enter(x0), b0 = enter(y0);
          const Limbs a1 = enter(x1), b1 = enter(y1);
          Limbs s0(c.words), s1(c.words);
          ctx.ChainMul(c, a0.data(), b0.data(), s0.data());
          ctx.ChainMul(c, a1.data(), b1.data(), s1.data());
          Limbs p0(c.words), p1(c.words);
          ctx.ChainMul2(c, a0.data(), b0.data(), p0.data(), a1.data(),
                        b1.data(), p1.data());
          EXPECT_EQ(p0, s0);
          EXPECT_EQ(p1, s1);
          // In place: each output aliasing its own product's operands.
          p0 = a0;
          p1 = b1;
          ctx.ChainMul2(c, p0.data(), b0.data(), p0.data(), a1.data(),
                        p1.data(), p1.data());
          EXPECT_EQ(p0, s0);
          EXPECT_EQ(p1, s1);
          Limbs q0 = a0, q1 = a1, sq0(c.words), sq1(c.words);
          ctx.ChainMul(c, a0.data(), a0.data(), sq0.data());
          ctx.ChainMul(c, a1.data(), a1.data(), sq1.data());
          ctx.ChainMul2(c, q0.data(), q0.data(), q0.data(), q1.data(),
                        q1.data(), q1.data());
          EXPECT_EQ(q0, sq0);
          EXPECT_EQ(q1, sq1);

          // Leaving gives the canonical product, the scalar kernel's.
          SetMontKernel(MontKernel::kScalar);
          const BigInt want0 =
              ctx.FromMont(ctx.MontMul(ctx.ToMont(x0), ctx.ToMont(y0)));
          const BigInt want1 =
              ctx.FromMont(ctx.MontMul(ctx.ToMont(x1), ctx.ToMont(y1)));
          SetMontKernel(kernel);
          EXPECT_EQ(want0, Mod(x0 * y0, m));
          EXPECT_EQ(ctx.ChainLeave(c, s0.data()), want0);
          EXPECT_EQ(ctx.ChainLeave(c, s1.data()), want1);
          EXPECT_EQ(ctx.ChainLeave(c, a0.data()), x0);
          EXPECT_EQ(ctx.ChainLeave(c, sq1.data()), Mod(x1 * x1, m));
        }
        // A long lazy chain stays below 2m: 300 squarings of m - 1 and of
        // a random residue, the pair step squaring both.
        Limbs u = enter(m - BigInt(1)), v = enter(r);
        for (int s = 0; s < 300; ++s) {
          ctx.ChainMul2(c, u.data(), u.data(), u.data(), v.data(), v.data(),
                        v.data());
        }
        EXPECT_EQ(ctx.ChainLeave(c, u.data()), BigInt(1))
            << MontKernelName(kernel) << ", k = " << k;
        EXPECT_EQ(ctx.ChainLeave(c, v.data()), r_pow)
            << MontKernelName(kernel) << ", k = " << k;
      }
    }
  }
}

// The table build walks each window's powers of two serially and then
// fills the windows independently, across a pool when it has two threads
// or more. Every kernel the host runs, windows 1, 4 and 8, and exponent
// widths at and around a whole number of windows: the pooled builds hold
// the serial build's residues entry by entry, and those are the powers
// they stand for.
TEST(ModArithSimd, PooledFixedBaseTableMatchesSerialBuild) {
  KernelGuard guard;
  Rng rng(20261020);
  auto ctx = std::make_shared<const MontgomeryContext>(
      RandomOddModulus(1024, &rng));
  const BigInt base = BigInt::RandomBelow(ctx->modulus(), &rng);
  std::vector<std::unique_ptr<ThreadPool>> pools;
  for (size_t threads : {1u, 2u, 3u}) {
    pools.push_back(std::make_unique<ThreadPool>(threads));
  }
  for (MontKernel kernel : HostKernels()) {
    SetMontKernel(kernel);
    for (size_t window : {1u, 4u, 8u}) {
      for (size_t exp_bits : {1u, 255u, 256u, 257u}) {
        SCOPED_TRACE(std::string(MontKernelName(kernel)) + ", window " +
                     std::to_string(window) + ", " + std::to_string(exp_bits) +
                     "-bit exponents");
        const FixedBasePowTable serial(ctx, base, exp_bits, window);
        // The last window ends the serial squaring chain through them all.
        const size_t digits = (size_t{1} << window) - 1;
        const size_t last = serial.num_windows() - 1;
        for (size_t i : std::set<size_t>{0, std::min<size_t>(1, last), last}) {
          for (size_t d : std::set<size_t>{1, std::min<size_t>(2, digits),
                                           digits}) {
            EXPECT_EQ(serial.EntryResidue(i, d),
                      ctx->Pow(base, BigInt(d) << (window * i)))
                << "entry (" << i << ", " << d << ")";
          }
        }
        const BigInt top = (BigInt(1) << exp_bits) - BigInt(1);
        EXPECT_EQ(serial.Pow(top), ctx->Pow(base, top));
        for (const auto& pool : pools) {
          const FixedBasePowTable pooled(ctx, base, exp_bits, window,
                                         pool.get());
          ASSERT_EQ(pooled.num_windows(), serial.num_windows());
          size_t mismatches = 0;
          for (size_t i = 0; i < serial.num_windows(); ++i) {
            for (size_t d = 1; d <= digits; ++d) {
              if (pooled.EntryResidue(i, d) != serial.EntryResidue(i, d)) {
                ADD_FAILURE() << pool->num_threads() << " threads: entry ("
                              << i << ", " << d << ") differs";
                if (++mismatches == 5) return;
              }
            }
          }
        }
      }
    }
  }
}

TEST(ModArithSimd, AutoDispatchMatchesScalarEverywhere) {
  // Whatever kAuto picks per size, results must equal the scalar kernel.
  KernelGuard guard;
  Rng rng(7);
  for (size_t bits : {256u, 512u, 768u, 1024u, 2048u, 4096u, 8192u}) {
    MontgomeryContext ctx(RandomOddModulus(bits, &rng));
    const BigInt a = BigInt::RandomBelow(ctx.modulus(), &rng);
    const BigInt b = BigInt::RandomBelow(ctx.modulus(), &rng);
    SetMontKernel(MontKernel::kScalar);
    const BigInt want = ctx.FromMont(ctx.MontMul(ctx.ToMont(a), ctx.ToMont(b)));
    SetMontKernel(MontKernel::kAuto);
    const BigInt got = ctx.FromMont(ctx.MontMul(ctx.ToMont(a), ctx.ToMont(b)));
    EXPECT_EQ(got.Compare(want), 0) << bits;
  }
}

// The AVX2-or-scalar rule kAuto followed before the IFMA kernel existed.
MontKernel AutoWithoutIfma(size_t limbs) {
  return CpuHasAvx2() && limbs >= 32 ? MontKernel::kAvx2 : MontKernel::kScalar;
}

TEST(ModArithSimd, MontKernelForOnlyAddsIfma) {
  KernelGuard guard;
  for (size_t limbs = 1; limbs <= 300; ++limbs) {
    SetMontKernel(MontKernel::kAuto);
    const MontKernel got = MontKernelFor(limbs);
    if (!CpuHasIfma()) {
      EXPECT_NE(got, MontKernel::kIfma) << limbs;
    }
    if (got != MontKernel::kIfma) {
      EXPECT_EQ(got, AutoWithoutIfma(limbs)) << limbs;
    }
    SetMontKernel(MontKernel::kScalar);
    EXPECT_EQ(MontKernelFor(limbs), MontKernel::kScalar) << limbs;
    SetMontKernel(MontKernel::kAvx2);
    EXPECT_EQ(MontKernelFor(limbs),
              CpuHasAvx2() ? MontKernel::kAvx2 : MontKernel::kScalar)
        << limbs;
    SetMontKernel(MontKernel::kIfma);
    const MontKernel forced = MontKernelFor(limbs);
    if (forced != MontKernel::kIfma) {
      EXPECT_EQ(forced, AutoWithoutIfma(limbs)) << limbs;
    }
  }
  if (CpuHasIfma()) {
    SetMontKernel(MontKernel::kAuto);
    EXPECT_EQ(MontKernelFor(4), MontKernel::kScalar);
    for (size_t limbs : {16u, 32u, 64u, 128u}) {
      EXPECT_EQ(MontKernelFor(limbs), MontKernel::kIfma) << limbs;
    }
  }
}

}  // namespace
}  // namespace vf2boost

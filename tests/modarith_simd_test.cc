#include "bigint/modarith.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/random.h"

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

// The table stores Montgomery residues under R = 2^(64k), which every
// kernel shares: every kernel builds the same table bytes, and a table built
// under one kernel evaluates under another. Window 8 is the Paillier nonce
// table, on the n^2 rings of 1024- and 2048-bit keys.
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
    EXPECT_EQ(kernel_built.entries(), scalar_built.entries());
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

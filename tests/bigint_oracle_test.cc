// Property tests cross-checking src/bigint, and the Paillier products built
// on it, against GMP. GMP is used ONLY here, as an independent oracle — the
// library itself never links it.

#include <gmp.h>
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "bigint/bigint.h"
#include "bigint/modarith.h"
#include "bigint/prime.h"
#include "common/random.h"
#include "crypto/paillier.h"

namespace vf2boost {
namespace {

// Converts via decimal strings, which independently exercises the string
// codecs too.
class Gmp {
 public:
  explicit Gmp(const BigInt& v) { mpz_init_set_str(z_, v.ToDecString().c_str(), 10); }
  Gmp() { mpz_init(z_); }
  ~Gmp() { mpz_clear(z_); }
  Gmp(const Gmp&) = delete;
  Gmp& operator=(const Gmp&) = delete;

  mpz_t& get() { return z_; }
  std::string Str() const {
    char* s = mpz_get_str(nullptr, 10, z_);
    std::string out(s);
    free(s);
    return out;
  }

 private:
  mutable mpz_t z_;
};

BigInt RandomSigned(size_t bits, Rng* rng) {
  BigInt v = BigInt::Random(bits, rng);
  return (rng->NextU64() & 1) ? -v : v;
}

TEST(BigIntOracle, AddSubMul) {
  Rng rng(1001);
  for (int i = 0; i < 400; ++i) {
    BigInt a = RandomSigned(1 + (i * 37) % 2000, &rng);
    BigInt b = RandomSigned(1 + (i * 53) % 2000, &rng);
    Gmp ga(a), gb(b), out;
    mpz_add(out.get(), ga.get(), gb.get());
    EXPECT_EQ((a + b).ToDecString(), out.Str());
    mpz_sub(out.get(), ga.get(), gb.get());
    EXPECT_EQ((a - b).ToDecString(), out.Str());
    mpz_mul(out.get(), ga.get(), gb.get());
    EXPECT_EQ((a * b).ToDecString(), out.Str());
  }
}

TEST(BigIntOracle, DivMod) {
  Rng rng(1003);
  for (int i = 0; i < 400; ++i) {
    BigInt a = RandomSigned(64 + (i * 41) % 1500, &rng);
    BigInt b = RandomSigned(1 + (i * 29) % 800, &rng);
    if (b.IsZero()) continue;
    Gmp ga(a), gb(b), q, r;
    mpz_tdiv_qr(q.get(), r.get(), ga.get(), gb.get());
    EXPECT_EQ((a / b).ToDecString(), q.Str());
    EXPECT_EQ((a % b).ToDecString(), r.Str());
  }
}

TEST(BigIntOracle, ModExpOddModuli) {
  Rng rng(1005);
  for (int i = 0; i < 40; ++i) {
    BigInt base = BigInt::Random(512, &rng);
    BigInt exp = BigInt::Random(256, &rng);
    BigInt m = BigInt::Random(512, &rng);
    if (m.IsEven()) m += BigInt(1);
    if (m.IsOne() || m.IsZero()) continue;
    Gmp gb(base), ge(exp), gm(m), out;
    mpz_powm(out.get(), gb.get(), ge.get(), gm.get());
    EXPECT_EQ(ModExp(base, exp, m).ToDecString(), out.Str());
  }
}

TEST(BigIntOracle, ModExpPaillierShapedOperands) {
  // The exact operand shape Paillier uses: 2S-bit odd modulus n^2, S-bit
  // exponent, 2S-bit base.
  Rng rng(1007);
  for (size_t s : {256u, 512u}) {
    BigInt p = GeneratePrime(s / 2, &rng);
    BigInt q = GeneratePrime(s / 2, &rng);
    BigInt n = p * q;
    BigInt n2 = n * n;
    MontgomeryContext ctx(n2);
    for (int i = 0; i < 10; ++i) {
      BigInt base = BigInt::RandomBelow(n2, &rng);
      Gmp gb(base), ge(n), gm(n2), out;
      mpz_powm(out.get(), gb.get(), ge.get(), gm.get());
      EXPECT_EQ(ctx.Pow(base, n).ToDecString(), out.Str());
    }
  }
}

TEST(BigIntOracle, FixedBasePowMatchesGmp) {
  // The fixed-base window table at window 4, on the operand shape of
  // Paillier nonces (odd 2S-bit modulus, fixed base, 256-bit exponents).
  Rng rng(1006);
  for (size_t s : {256u, 512u}) {
    BigInt p = GeneratePrime(s / 2, &rng);
    BigInt q = GeneratePrime(s / 2, &rng);
    BigInt n2 = p * q * p * q;
    auto ctx = std::make_shared<MontgomeryContext>(n2);
    BigInt base = BigInt::RandomBelow(n2, &rng);
    FixedBasePowTable table(ctx, base, 256, 4);
    for (int i = 0; i < 20; ++i) {
      // Sweep lengths, including degenerate exponents.
      BigInt exp = i == 0 ? BigInt(0) : BigInt::Random(1 + (i * 29) % 256, &rng);
      Gmp gb(base), ge(exp), gm(n2), out;
      mpz_powm(out.get(), gb.get(), ge.get(), gm.get());
      EXPECT_EQ(table.Pow(exp).ToDecString(), out.Str())
          << "bits=" << s << " i=" << i;
      EXPECT_EQ(table.Pow(exp), ctx->Pow(base, exp));
    }
  }
}

TEST(BigIntOracle, NonceWindowPowMatchesGmp) {
  // The table at the window Paillier nonces use, on the n^2 rings of 1024-
  // and 2048-bit keys (a random odd n stands in for pq): exponent 0, every
  // digit 0xFF, digits 0x00/0xFF alternating, the top bit alone, full
  // 256-bit exponents and shorter ones.
  const size_t window = PaillierPublicKey::kNonceWindowBits;
  const size_t exp_bits = PaillierPublicKey::kObfuscationExpBits;
  Rng rng(1009);
  for (size_t s : {1024u, 2048u}) {
    BigInt n = BigInt::Random(s - 1, &rng) + (BigInt(1) << (s - 1));
    if (n.IsEven()) n += BigInt(1);
    const BigInt n2 = n * n;
    auto ctx = std::make_shared<MontgomeryContext>(n2);
    const BigInt base = BigInt::RandomBelow(n2, &rng);
    const FixedBasePowTable table(ctx, base, exp_bits, window);
    const BigInt all_ones = (BigInt(1) << exp_bits) - BigInt(1);
    std::vector<BigInt> exps = {BigInt(0), BigInt(1), BigInt(0xFF), all_ones,
                                BigInt::FromLimbs(std::vector<uint64_t>(
                                    exp_bits / 64, 0xFF00FF00FF00FF00ULL)),
                                BigInt(1) << (exp_bits - 1)};
    for (int i = 0; i < 4; ++i) {
      exps.push_back(BigInt::Random(exp_bits - 1, &rng) +
                     (BigInt(1) << (exp_bits - 1)));
      exps.push_back(BigInt::Random(1 + 61 * i, &rng));
    }
    for (size_t i = 0; i < exps.size(); ++i) {
      Gmp gb(base), ge(exps[i]), gm(n2), out;
      mpz_powm(out.get(), gb.get(), ge.get(), gm.get());
      EXPECT_EQ(table.Pow(exps[i]).ToDecString(), out.Str())
          << s << "-bit key, exponent " << i;
      EXPECT_EQ(table.Pow(exps[i]), ctx->Pow(base, exps[i]))
          << s << "-bit key, exponent " << i;
    }
  }
}

// Every Montgomery kernel against GMP: Pow at the ring widths Paillier
// uses (CRT rings of 1024/2048-bit keys, n^2 of 2048-bit keys), forced
// kernel by kernel. A kernel the cpu lacks is skipped, naming the feature.
struct ForcedKernel {
  const char* name;
  MontKernel kernel;
  bool (*supported)();
  const char* features;
};

bool Always() { return true; }

class BigIntOracleKernel : public ::testing::TestWithParam<ForcedKernel> {};

TEST_P(BigIntOracleKernel, PowMatchesGmp) {
  if (!GetParam().supported()) {
    GTEST_SKIP() << "cpu lacks " << GetParam().features;
  }
  const MontKernel saved = GetMontKernel();
  SetMontKernel(GetParam().kernel);
  Rng rng(1013);
  for (size_t bits : {1024u, 2048u, 4096u}) {
    BigInt m = BigInt::Random(bits - 1, &rng) + (BigInt(1) << (bits - 1));
    if (m.IsEven()) m += BigInt(1);
    const MontgomeryContext ctx(m);
    EXPECT_EQ(MontKernelFor(ctx.num_limbs()), GetParam().kernel) << bits;
    for (int i = 0; i < 7; ++i) {
      // Random bases, then the edge bases 0, m - 1 and m + 5 (reduced
      // first), and a one-bit exponent.
      const BigInt base = i == 4   ? BigInt(0)
                          : i == 5 ? m - BigInt(1)
                          : i == 6 ? m + BigInt(5)
                                   : BigInt::RandomBelow(m, &rng);
      const BigInt exp =
          i == 6 ? BigInt(1) : BigInt::Random(i == 0 ? bits : 256, &rng);
      Gmp gb(base), ge(exp), gm(m), out;
      mpz_powm(out.get(), gb.get(), ge.get(), gm.get());
      EXPECT_EQ(ctx.Pow(base, exp).ToDecString(), out.Str())
          << bits << " bits, i=" << i;
    }
  }
  SetMontKernel(saved);
}

// The paired Pow2 against mpz_powm for both outputs, on the CRT rings of
// 1024/2048-bit keys, the 4096-bit ring and a 6144-bit ring: under IFMA the
// last one's 15-vector chain is too wide to interleave, so ChainMul2 runs
// it as two single products. Exponents 0, 1, a short and a full-width odd
// one; equal bases, unreduced bases, the edge bases 0 and m - 1; and
// outputs that alias the bases or the exponent.
TEST_P(BigIntOracleKernel, Pow2MatchesGmp) {
  if (!GetParam().supported()) {
    GTEST_SKIP() << "cpu lacks " << GetParam().features;
  }
  const MontKernel saved = GetMontKernel();
  SetMontKernel(GetParam().kernel);
  Rng rng(1021);
  for (size_t bits : {1024u, 2048u, 4096u, 6144u}) {
    BigInt m = BigInt::Random(bits - 1, &rng) + (BigInt(1) << (bits - 1));
    if (m.IsEven()) m += BigInt(1);
    const MontgomeryContext ctx(m);
    EXPECT_EQ(MontKernelFor(ctx.num_limbs()), GetParam().kernel) << bits;
    BigInt full = BigInt::Random(bits - 1, &rng) + (BigInt(1) << (bits - 1));
    if (full.IsEven()) full += BigInt(1);
    const BigInt r0 = BigInt::RandomBelow(m, &rng);
    const BigInt r1 = BigInt::RandomBelow(m, &rng);
    struct Case {
      BigInt b0, b1, exp;
    };
    const std::vector<Case> cases = {
        {r0, r1, BigInt(0)},
        {r0, r1, BigInt(1)},
        {r0, r1, BigInt::Random(256, &rng)},
        {r0, r1, full},
        {r0, r0, BigInt::Random(256, &rng)},           // equal bases
        {m + r1, m * BigInt(3), BigInt::Random(256, &rng)},  // bases >= m
        {BigInt(0), m - BigInt(1), BigInt::Random(256, &rng)},
        {m - BigInt(1), BigInt(0), BigInt(1)},
    };
    Gmp gm(m);
    for (size_t i = 0; i < cases.size(); ++i) {
      const Case& k = cases[i];
      Gmp gb0(k.b0), gb1(k.b1), ge(k.exp), want0, want1;
      mpz_powm(want0.get(), gb0.get(), ge.get(), gm.get());
      mpz_powm(want1.get(), gb1.get(), ge.get(), gm.get());
      BigInt out0, out1;
      ctx.Pow2(k.b0, k.b1, k.exp, &out0, &out1);
      EXPECT_EQ(out0.ToDecString(), want0.Str()) << bits << " bits, i=" << i;
      EXPECT_EQ(out1.ToDecString(), want1.Str()) << bits << " bits, i=" << i;

      // The outputs written over the bases, then over the exponent and a
      // base (short exponents only, to keep the widest rings cheap).
      if (k.exp.BitLength() > 256) continue;
      BigInt a0 = k.b0, a1 = k.b1;
      ctx.Pow2(a0, a1, k.exp, &a0, &a1);
      EXPECT_EQ(a0.ToDecString(), want0.Str()) << bits << " bits, i=" << i;
      EXPECT_EQ(a1.ToDecString(), want1.Str()) << bits << " bits, i=" << i;
      BigInt e = k.exp, c1 = k.b1;
      ctx.Pow2(k.b0, c1, e, &e, &c1);
      EXPECT_EQ(e.ToDecString(), want0.Str()) << bits << " bits, i=" << i;
      EXPECT_EQ(c1.ToDecString(), want1.Str()) << bits << " bits, i=" << i;
    }
  }
  SetMontKernel(saved);
}

// The Paillier products that run on those kernels, against mpz_mul +
// mpz_mod: HAdd (c1 * c2 mod n^2, including an unreduced wire cipher) and
// EncryptWithNonce ((1 + m*n) * nonce mod n^2). Neither needs n = pq, so a
// random odd n stands in for a key.
TEST_P(BigIntOracleKernel, PaillierProductsMatchGmp) {
  if (!GetParam().supported()) {
    GTEST_SKIP() << "cpu lacks " << GetParam().features;
  }
  const MontKernel saved = GetMontKernel();
  SetMontKernel(GetParam().kernel);
  Rng rng(1015);
  for (size_t bits : {1024u, 2048u}) {
    BigInt n = BigInt::Random(bits - 1, &rng) + (BigInt(1) << (bits - 1));
    if (n.IsEven()) n += BigInt(1);
    const PaillierPublicKey pub(n);
    const BigInt& n2 = pub.n_squared();
    EXPECT_EQ(MontKernelFor(MontgomeryContext(n2).num_limbs()),
              GetParam().kernel)
        << bits;
    Gmp gn(n), gn2(n2);
    for (int i = 0; i < 6; ++i) {
      BigInt c1 = BigInt::RandomBelow(n2, &rng);
      const BigInt c2 = BigInt::RandomBelow(n2, &rng);
      if (i == 0) c1 += n2;  // wire ciphers need not be reduced
      Gmp g1(c1), g2(c2), out;
      mpz_mul(out.get(), g1.get(), g2.get());
      mpz_mod(out.get(), out.get(), gn2.get());
      EXPECT_EQ(pub.HAdd(c1, c2).ToDecString(), out.Str())
          << bits << " bits, i=" << i;

      const BigInt m = i == 1 ? n - BigInt(1) : BigInt::RandomBelow(n, &rng);
      const BigInt nonce = BigInt::RandomBelow(n2, &rng);
      Gmp gm(m), gnonce(nonce), enc;
      mpz_mul(enc.get(), gm.get(), gn.get());
      mpz_add_ui(enc.get(), enc.get(), 1);
      mpz_mul(enc.get(), enc.get(), gnonce.get());
      mpz_mod(enc.get(), enc.get(), gn2.get());
      EXPECT_EQ(pub.EncryptWithNonce(m, nonce).ToDecString(), enc.Str())
          << bits << " bits, i=" << i;
    }
  }
  SetMontKernel(saved);
}

// The two-accumulator fixed-base Pow on the Paillier nonce table's shape
// (window 8, 256-bit exponents) at the 1024-, 2048- and 4096-bit rings:
// exponents with 0, 1, 2, 3, 31 and 32 nonzero windows, so both halves
// start, one half stays empty, and the pairs end with one factor left over
// or none; plus every digit 0xFF. Built and evaluated under the forced
// kernel, so scalar and AVX2 run the split too.
TEST_P(BigIntOracleKernel, FixedBasePowHalvesMatchGmp) {
  if (!GetParam().supported()) {
    GTEST_SKIP() << "cpu lacks " << GetParam().features;
  }
  const MontKernel saved = GetMontKernel();
  SetMontKernel(GetParam().kernel);
  constexpr size_t kWindow = 8, kExpBits = 256, kWindows = kExpBits / kWindow;
  Rng rng(1017);
  for (size_t bits : {1024u, 2048u, 4096u}) {
    BigInt m = BigInt::Random(bits - 1, &rng) + (BigInt(1) << (bits - 1));
    if (m.IsEven()) m += BigInt(1);
    auto ctx = std::make_shared<const MontgomeryContext>(m);
    EXPECT_EQ(MontKernelFor(ctx->num_limbs()), GetParam().kernel) << bits;
    const BigInt base = BigInt::RandomBelow(m, &rng);
    const FixedBasePowTable table(ctx, base, kExpBits, kWindow);
    std::vector<BigInt> exps;
    for (size_t nonzero : {0u, 1u, 2u, 3u, 31u, 32u}) {
      // `nonzero` windows spread over the 32, each a random digit 1..255.
      BigInt exp;
      for (size_t i = 0; i < nonzero; ++i) {
        const size_t window = (i * 7 + nonzero) % kWindows;
        const uint64_t digit = 1 + rng.NextU64() % 255;
        exp += BigInt(digit) << (window * kWindow);
      }
      exps.push_back(exp);
    }
    exps.push_back((BigInt(1) << kExpBits) - BigInt(1));  // every digit 0xFF
    for (size_t i = 0; i < exps.size(); ++i) {
      Gmp gb(base), ge(exps[i]), gm(m), out;
      mpz_powm(out.get(), gb.get(), ge.get(), gm.get());
      EXPECT_EQ(table.Pow(exps[i]).ToDecString(), out.Str())
          << bits << "-bit ring, exponent " << i;
    }
  }
  SetMontKernel(saved);
}

// HornerPow2 chains c_0 · (c_1 · (… c_{t-1})^(2^M))^(2^M) mod n^2 against
// mpz_powm + mpz_mul, on the n^2 rings of 512-, 1024- and 2048-bit keys
// (1024-, 2048- and 4096-bit rings), with one unreduced slot.
TEST_P(BigIntOracleKernel, HornerPow2MatchesGmp) {
  if (!GetParam().supported()) {
    GTEST_SKIP() << "cpu lacks " << GetParam().features;
  }
  const MontKernel saved = GetMontKernel();
  SetMontKernel(GetParam().kernel);
  Rng rng(1019);
  for (size_t bits : {512u, 1024u, 2048u}) {
    BigInt n = BigInt::Random(bits - 1, &rng) + (BigInt(1) << (bits - 1));
    if (n.IsEven()) n += BigInt(1);
    const PaillierPublicKey pub(n);
    const BigInt& n2 = pub.n_squared();
    EXPECT_EQ(MontKernelFor(MontgomeryContext(n2).num_limbs()),
              GetParam().kernel)
        << bits;
    Gmp gn2(n2);
    const std::pair<size_t, size_t> kChains[] = {{2, 1}, {3, 64}, {5, 129}};
    for (const auto& [slots, shift] : kChains) {
      std::vector<BigInt> cs;
      for (size_t i = 0; i < slots; ++i) {
        cs.push_back(BigInt::RandomBelow(n2, &rng));
      }
      cs[1] += n2;  // wire ciphers need not be reduced
      std::vector<const BigInt*> ptrs;
      for (const BigInt& c : cs) ptrs.push_back(&c);
      Gmp acc(cs.back()), pow2(BigInt(1) << shift);
      mpz_mod(acc.get(), acc.get(), gn2.get());
      for (size_t i = slots - 1; i-- > 0;) {
        Gmp c(cs[i]);
        mpz_powm(acc.get(), acc.get(), pow2.get(), gn2.get());
        mpz_mul(acc.get(), acc.get(), c.get());
        mpz_mod(acc.get(), acc.get(), gn2.get());
      }
      EXPECT_EQ(pub.HornerPow2(ptrs, shift).ToDecString(), acc.Str())
          << bits << "-bit key, " << slots << " slots, M = " << shift;
    }
  }
  SetMontKernel(saved);
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, BigIntOracleKernel,
    ::testing::Values(
        ForcedKernel{"Scalar", MontKernel::kScalar, Always, ""},
        ForcedKernel{"Avx2", MontKernel::kAvx2, CpuHasAvx2, "avx2"},
        ForcedKernel{"Ifma", MontKernel::kIfma, CpuHasIfma,
                     "avx512f+avx512ifma"}),
    [](const ::testing::TestParamInfo<ForcedKernel>& info) {
      return std::string(info.param.name);
    });

TEST(BigIntOracle, ModInverse) {
  Rng rng(1009);
  for (int i = 0; i < 60; ++i) {
    BigInt m = BigInt::Random(256, &rng);
    if (m.BitLength() < 2) continue;
    BigInt a = BigInt::RandomBelow(m, &rng);
    Gmp ga(a), gm(m), out;
    const int invertible = mpz_invert(out.get(), ga.get(), gm.get());
    auto mine = ModInverse(a, m);
    EXPECT_EQ(mine.ok(), invertible != 0);
    if (mine.ok()) {
      EXPECT_EQ(mine.value().ToDecString(), out.Str());
    }
  }
}

TEST(BigIntOracle, Gcd) {
  Rng rng(1011);
  for (int i = 0; i < 100; ++i) {
    BigInt a = BigInt::Random(300, &rng);
    BigInt b = BigInt::Random(200, &rng);
    Gmp ga(a), gb(b), out;
    mpz_gcd(out.get(), ga.get(), gb.get());
    EXPECT_EQ(Gcd(a, b).ToDecString(), out.Str());
  }
}

TEST(BigIntOracle, PrimalityAgreement) {
  Rng rng(1013);
  for (int i = 0; i < 60; ++i) {
    BigInt n = BigInt::Random(128, &rng);
    if (n.IsZero()) continue;
    Gmp gn(n);
    const bool gmp_prime = mpz_probab_prime_p(gn.get(), 30) > 0;
    EXPECT_EQ(IsProbablePrime(n, &rng), gmp_prime) << n.ToDecString();
  }
}

TEST(BigIntOracle, ShiftAgreement) {
  Rng rng(1015);
  for (int i = 0; i < 100; ++i) {
    BigInt a = BigInt::Random(1 + (i * 31) % 900, &rng);
    unsigned long s = rng.NextBounded(300);
    Gmp ga(a), out;
    mpz_mul_2exp(out.get(), ga.get(), s);
    EXPECT_EQ((a << s).ToDecString(), out.Str());
    mpz_fdiv_q_2exp(out.get(), ga.get(), s);
    EXPECT_EQ((a >> s).ToDecString(), out.Str());
  }
}

}  // namespace
}  // namespace vf2boost

#include "bigint/bigint.h"

#include <gtest/gtest.h>

#include "bigint/modarith.h"
#include "bigint/prime.h"
#include "common/random.h"
#include "common/threadpool.h"

namespace vf2boost {
namespace {

BigInt Dec(const std::string& s) {
  auto r = BigInt::FromDecString(s);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.value();
}

TEST(BigIntTest, ConstructionAndPredicates) {
  EXPECT_TRUE(BigInt().IsZero());
  EXPECT_TRUE(BigInt(1).IsOne());
  EXPECT_TRUE(BigInt(-5).IsNegative());
  EXPECT_TRUE(BigInt(3).IsOdd());
  EXPECT_TRUE(BigInt(4).IsEven());
  EXPECT_TRUE(BigInt(INT64_MIN).IsNegative());
  EXPECT_EQ(BigInt(INT64_MIN).ToU64(), 0x8000000000000000ULL);
}

TEST(BigIntTest, DecStringRoundTrip) {
  const char* cases[] = {"0",
                         "1",
                         "-1",
                         "18446744073709551615",
                         "18446744073709551616",
                         "340282366920938463463374607431768211456",
                         "-99999999999999999999999999999999999999"};
  for (const char* c : cases) {
    EXPECT_EQ(Dec(c).ToDecString(), c) << c;
  }
}

TEST(BigIntTest, HexStringRoundTrip) {
  auto r = BigInt::FromHexString("deadbeefcafebabe0123456789");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().ToHexString(), "deadbeefcafebabe0123456789");
  EXPECT_EQ(BigInt(0).ToHexString(), "0");
}

TEST(BigIntTest, ParseErrors) {
  EXPECT_FALSE(BigInt::FromDecString("").ok());
  EXPECT_FALSE(BigInt::FromDecString("12a").ok());
  EXPECT_FALSE(BigInt::FromHexString("xyz").ok());
  EXPECT_FALSE(BigInt::FromDecString("-").ok());
}

TEST(BigIntTest, BytesRoundTrip) {
  Rng rng(42);
  for (int i = 0; i < 50; ++i) {
    BigInt v = BigInt::Random(1 + i * 13, &rng);
    std::vector<uint8_t> bytes = v.ToBytes();
    EXPECT_EQ(BigInt::FromBytes(bytes.data(), bytes.size()), v);
  }
}

TEST(BigIntTest, AdditionCarryChain) {
  // 2^128 - 1 + 1 = 2^128.
  BigInt a = (BigInt(1) << 128) - BigInt(1);
  EXPECT_EQ(a + BigInt(1), BigInt(1) << 128);
}

TEST(BigIntTest, SignedArithmetic) {
  EXPECT_EQ(BigInt(5) + BigInt(-7), BigInt(-2));
  EXPECT_EQ(BigInt(-5) + BigInt(-7), BigInt(-12));
  EXPECT_EQ(BigInt(-5) - BigInt(-7), BigInt(2));
  EXPECT_EQ(BigInt(5) * BigInt(-7), BigInt(-35));
  EXPECT_EQ(BigInt(-5) * BigInt(-7), BigInt(35));
  EXPECT_EQ((BigInt(5) - BigInt(5)), BigInt(0));
  EXPECT_FALSE((BigInt(5) - BigInt(5)).IsNegative());
}

TEST(BigIntTest, TruncatedDivisionSemantics) {
  // C semantics: -7 / 2 == -3, -7 % 2 == -1.
  EXPECT_EQ(BigInt(-7) / BigInt(2), BigInt(-3));
  EXPECT_EQ(BigInt(-7) % BigInt(2), BigInt(-1));
  EXPECT_EQ(BigInt(7) / BigInt(-2), BigInt(-3));
  EXPECT_EQ(BigInt(7) % BigInt(-2), BigInt(1));
}

TEST(BigIntTest, DivModIdentityRandomized) {
  Rng rng(7);
  for (int i = 0; i < 300; ++i) {
    BigInt a = BigInt::Random(40 + (i * 7) % 700, &rng);
    BigInt b = BigInt::Random(8 + (i * 13) % 300, &rng);
    if (b.IsZero()) continue;
    BigInt q, r;
    BigInt::DivMod(a, b, &q, &r);
    EXPECT_EQ(q * b + r, a);
    EXPECT_LT(r.CompareMagnitude(b), 0);
  }
}

TEST(BigIntTest, KnuthDAddBackBranch) {
  // Crafted case known to exercise the rare add-back correction in
  // algorithm D: u = 2^128 - 1, v = 2^64 + 3.
  BigInt u = (BigInt(1) << 128) - BigInt(1);
  BigInt v = (BigInt(1) << 64) + BigInt(3);
  BigInt q, r;
  BigInt::DivMod(u, v, &q, &r);
  EXPECT_EQ(q * v + r, u);
}

TEST(BigIntTest, ShiftsInverse) {
  Rng rng(9);
  for (int i = 0; i < 100; ++i) {
    BigInt a = BigInt::Random(1 + i * 5, &rng);
    size_t s = rng.NextBounded(200);
    EXPECT_EQ((a << s) >> s, a);
  }
}

TEST(BigIntTest, BitLengthAndTestBit) {
  EXPECT_EQ(BigInt(0).BitLength(), 0u);
  EXPECT_EQ(BigInt(1).BitLength(), 1u);
  EXPECT_EQ(BigInt(255).BitLength(), 8u);
  EXPECT_EQ((BigInt(1) << 200).BitLength(), 201u);
  BigInt v = (BigInt(1) << 100) + BigInt(5);
  EXPECT_TRUE(v.TestBit(0));
  EXPECT_TRUE(v.TestBit(2));
  EXPECT_TRUE(v.TestBit(100));
  EXPECT_FALSE(v.TestBit(99));
  EXPECT_FALSE(v.TestBit(5000));
}

TEST(BigIntTest, CompareOrdering) {
  EXPECT_LT(BigInt(-10), BigInt(-9));
  EXPECT_LT(BigInt(-1), BigInt(0));
  EXPECT_LT(BigInt(0), BigInt(1));
  EXPECT_LT(BigInt(1), BigInt(1) << 64);
  EXPECT_GE(BigInt(3), BigInt(3));
}

TEST(BigIntTest, KaratsubaMatchesSchoolbookIdentity) {
  // Large operands trigger the Karatsuba path; verify via the algebraic
  // identity (a+b)^2 - (a-b)^2 == 4ab on 3000-bit operands.
  Rng rng(21);
  for (int i = 0; i < 10; ++i) {
    BigInt a = BigInt::Random(3000, &rng);
    BigInt b = BigInt::Random(2900, &rng);
    BigInt lhs = (a + b) * (a + b) - (a - b) * (a - b);
    BigInt rhs = BigInt(4) * a * b;
    EXPECT_EQ(lhs, rhs);
  }
}

TEST(BigIntTest, ToDoubleApproximation) {
  EXPECT_DOUBLE_EQ(BigInt(12345).ToDouble(), 12345.0);
  EXPECT_DOUBLE_EQ(BigInt(-12345).ToDouble(), -12345.0);
  const double big = (BigInt(1) << 100).ToDouble();
  EXPECT_NEAR(big, std::pow(2.0, 100), big * 1e-9);
}

TEST(BigIntTest, ToDoubleRoundsOnce) {
  // 2^64 + 2^63 + 2^11 + 1 lies just above the midpoint between its two
  // neighbouring doubles (spaced 2^12 apart). Rounding the low limb first
  // would drop the final +1 and round the then exact tie down to even.
  const BigInt x = BigInt::FromLimbs({(uint64_t{1} << 63) + 2049, 1});
  EXPECT_EQ(x.ToDouble(), std::ldexp(1.0, 64) + std::ldexp(1.0, 63) +
                              std::ldexp(1.0, 12));
  EXPECT_EQ((-x).ToDouble(), -x.ToDouble());
  // An exact tie still rounds to even.
  EXPECT_EQ(BigInt::FromLimbs({uint64_t{1} << 11, 1}).ToDouble(),
            std::ldexp(1.0, 64));
  EXPECT_EQ(BigInt::FromLimbs({3 * (uint64_t{1} << 11), 1}).ToDouble(),
            std::ldexp(1.0, 64) + std::ldexp(1.0, 13));
}

TEST(BigIntTest, ToDoubleCommutesWithPowerOfTwoScaling) {
  // What makes a derived histogram bin decode like a direct one: scaling
  // by 2^k before the conversion or after it gives the same double.
  Rng rng(77);
  for (int i = 0; i < 4000; ++i) {
    const BigInt x = BigInt::Random(54 + i % 60, &rng);
    const int k = 1 + i % 70;
    ASSERT_EQ((x << k).ToDouble(), std::ldexp(x.ToDouble(), k))
        << x.ToDecString() << " << " << k;
  }
}

TEST(BigIntTest, RandomBelowIsUniformish) {
  Rng rng(33);
  BigInt bound = Dec("1000");
  int low = 0;
  for (int i = 0; i < 2000; ++i) {
    BigInt v = BigInt::RandomBelow(bound, &rng);
    ASSERT_LT(v, bound);
    ASSERT_FALSE(v.IsNegative());
    if (v < Dec("500")) ++low;
  }
  EXPECT_NEAR(low / 2000.0, 0.5, 0.05);
}

TEST(ModArithTest, ModIsCanonical) {
  BigInt m(13);
  EXPECT_EQ(Mod(BigInt(-1), m), BigInt(12));
  EXPECT_EQ(Mod(BigInt(13), m), BigInt(0));
  EXPECT_EQ(Mod(BigInt(27), m), BigInt(1));
}

TEST(ModArithTest, ModExpSmallCases) {
  EXPECT_EQ(ModExp(BigInt(2), BigInt(10), BigInt(1000)), BigInt(24));
  EXPECT_EQ(ModExp(BigInt(5), BigInt(0), BigInt(7)), BigInt(1));
  EXPECT_EQ(ModExp(BigInt(0), BigInt(5), BigInt(7)), BigInt(0));
  // Even modulus fallback path.
  EXPECT_EQ(ModExp(BigInt(3), BigInt(4), BigInt(10)), BigInt(1));
}

TEST(ModArithTest, FermatLittleTheorem) {
  // a^(p-1) ≡ 1 mod p for prime p.
  BigInt p = Dec("1000000007");
  Rng rng(5);
  for (int i = 0; i < 20; ++i) {
    BigInt a = BigInt::RandomBelow(p - BigInt(2), &rng) + BigInt(1);
    EXPECT_EQ(ModExp(a, p - BigInt(1), p), BigInt(1));
  }
}

TEST(ModArithTest, ModInverseRoundTrip) {
  Rng rng(17);
  BigInt m = Dec("1000000007");
  for (int i = 0; i < 50; ++i) {
    BigInt a = BigInt::RandomBelow(m - BigInt(1), &rng) + BigInt(1);
    auto inv = ModInverse(a, m);
    ASSERT_TRUE(inv.ok());
    EXPECT_EQ(Mod(a * inv.value(), m), BigInt(1));
  }
}

TEST(ModArithTest, ModInverseOfNonCoprimeFails) {
  EXPECT_FALSE(ModInverse(BigInt(6), BigInt(9)).ok());
  EXPECT_FALSE(ModInverse(BigInt(0), BigInt(7)).ok());
}

TEST(ModArithTest, GcdLcm) {
  EXPECT_EQ(Gcd(BigInt(12), BigInt(18)), BigInt(6));
  EXPECT_EQ(Gcd(BigInt(-12), BigInt(18)), BigInt(6));
  EXPECT_EQ(Gcd(BigInt(0), BigInt(5)), BigInt(5));
  EXPECT_EQ(Lcm(BigInt(4), BigInt(6)), BigInt(12));
  EXPECT_EQ(Lcm(BigInt(0), BigInt(6)), BigInt(0));
}

TEST(MontgomeryTest, MatchesGenericModExp) {
  Rng rng(71);
  for (int trial = 0; trial < 10; ++trial) {
    BigInt m = BigInt::Random(256, &rng);
    if (m.IsEven()) m += BigInt(1);
    if (m.BitLength() < 2) continue;
    MontgomeryContext ctx(m);
    BigInt base = BigInt::RandomBelow(m, &rng);
    BigInt exp = BigInt::Random(128, &rng);
    // Reference: plain square-and-multiply with DivMod reduction.
    BigInt ref(1);
    BigInt b = Mod(base, m);
    for (size_t i = 0; i < exp.BitLength(); ++i) {
      if (exp.TestBit(i)) ref = Mod(ref * b, m);
      b = Mod(b * b, m);
    }
    EXPECT_EQ(ctx.Pow(base, exp), ref);
  }
}

TEST(MontgomeryTest, DomainRoundTrip) {
  Rng rng(73);
  BigInt m = Dec("170141183460469231731687303715884105727");  // 2^127 - 1
  MontgomeryContext ctx(m);
  for (int i = 0; i < 30; ++i) {
    BigInt a = BigInt::RandomBelow(m, &rng);
    EXPECT_EQ(ctx.FromMont(ctx.ToMont(a)), a);
  }
}

TEST(MontgomeryTest, MulMatchesModMul) {
  Rng rng(75);
  BigInt m = BigInt::Random(512, &rng);
  if (m.IsEven()) m += BigInt(1);
  MontgomeryContext ctx(m);
  for (int i = 0; i < 30; ++i) {
    BigInt a = BigInt::RandomBelow(m, &rng);
    BigInt b = BigInt::RandomBelow(m, &rng);
    BigInt prod = ctx.FromMont(ctx.MontMul(ctx.ToMont(a), ctx.ToMont(b)));
    EXPECT_EQ(prod, ModMul(a, b, m));
  }
}

TEST(PrimeTest, KnownPrimesAndComposites) {
  Rng rng(81);
  EXPECT_TRUE(IsProbablePrime(BigInt(2), &rng));
  EXPECT_TRUE(IsProbablePrime(BigInt(3), &rng));
  EXPECT_TRUE(IsProbablePrime(Dec("1000000007"), &rng));
  EXPECT_TRUE(IsProbablePrime(Dec("170141183460469231731687303715884105727"),
                              &rng));  // 2^127-1 (Mersenne)
  EXPECT_FALSE(IsProbablePrime(BigInt(1), &rng));
  EXPECT_FALSE(IsProbablePrime(BigInt(0), &rng));
  EXPECT_FALSE(IsProbablePrime(BigInt(561), &rng));   // Carmichael
  EXPECT_FALSE(IsProbablePrime(BigInt(41041), &rng)); // Carmichael
  EXPECT_FALSE(IsProbablePrime(Dec("1000000007000000006"), &rng));
}

TEST(PrimeTest, GeneratedPrimeHasExactBitsAndPassesTest) {
  Rng rng(83);
  for (size_t bits : {8u, 9u, 64u, 65u, 128u, 256u}) {
    for (int i = 0; i < 8; ++i) {
      BigInt p = GeneratePrime(bits, &rng);
      EXPECT_EQ(p.BitLength(), bits);
      // The top two bits are set: p >= 1.5 * 2^(bits-1).
      EXPECT_TRUE(p.TestBit(bits - 2)) << p.ToDecString();
      EXPECT_TRUE(p.IsOdd());
      EXPECT_TRUE(IsProbablePrime(p, &rng));
    }
  }
}

// The candidates of every search are shared out across the pool, and each
// search keeps its lowest candidate that passes: the primes depend on the
// seeds alone, and a search finds the same prime beside others or alone.
TEST(PrimeTest, GeneratedPrimesDoNotDependOnThePool) {
  const std::vector<uint64_t> seeds = {11, 12, 13};
  const std::vector<BigInt> want = GeneratePrimes(256, seeds);
  ASSERT_EQ(want.size(), seeds.size());
  for (size_t i = 0; i < seeds.size(); ++i) {
    EXPECT_EQ(want[i].BitLength(), 256u);
    EXPECT_TRUE(want[i].TestBit(254));
    EXPECT_TRUE(GeneratePrimes(256, {seeds[i]}).front() == want[i]) << i;
  }
  for (size_t threads : {1u, 2u, 3u, 4u}) {
    ThreadPool pool(threads);
    const std::vector<BigInt> got = GeneratePrimes(256, seeds, &pool);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_TRUE(got[i] == want[i]) << threads << " threads, search " << i;
    }
  }
}

}  // namespace
}  // namespace vf2boost

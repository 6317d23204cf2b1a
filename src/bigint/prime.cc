#include "bigint/prime.h"

#include <array>
#include <limits>
#include <mutex>

#include "bigint/modarith.h"
#include "common/logging.h"
#include "common/threadpool.h"

namespace vf2boost {

namespace {

// Primes below 256 for fast trial division.
constexpr std::array<uint64_t, 54> kSmallPrimes = {
    2,   3,   5,   7,   11,  13,  17,  19,  23,  29,  31,  37,  41,  43,
    47,  53,  59,  61,  67,  71,  73,  79,  83,  89,  97,  101, 103, 107,
    109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181,
    191, 193, 197, 199, 211, 223, 227, 229, 233, 239, 241, 251};

// n mod d for small d without building a BigInt divisor.
uint64_t ModSmall(const BigInt& n, uint64_t d) {
  unsigned __int128 rem = 0;
  const auto& limbs = n.limbs();
  for (size_t i = limbs.size(); i-- > 0;) {
    rem = ((rem << 64) | limbs[i]) % d;
  }
  return static_cast<uint64_t>(rem);
}

}  // namespace

bool IsProbablePrime(const BigInt& n, Rng* rng, int rounds) {
  if (n.IsNegative() || n.IsZero() || n.IsOne()) return false;
  for (uint64_t p : kSmallPrimes) {
    if (n == BigInt(p)) return true;
    if (ModSmall(n, p) == 0) return false;
  }

  // Write n-1 = d * 2^r with d odd.
  const BigInt n_minus_1 = n - BigInt(1);
  size_t r = 0;
  while (!n_minus_1.TestBit(r)) ++r;
  const BigInt d = n_minus_1 >> r;

  // One Montgomery context serves every witness of every round; the
  // squaring chain stays in the Montgomery domain (canonical residues, so
  // the n-1 comparison works on in-domain values directly).
  const MontgomeryContext ctx(n);
  const BigInt two(2);
  const BigInt n_minus_3 = n - BigInt(3);
  const BigInt minus_one_mont = ctx.ToMont(n_minus_1);
  // Witness a uniform in [2, n-2]; the witnesses are drawn in round order.
  auto witness = [&] { return BigInt::RandomBelow(n_minus_3, rng) + two; };
  // Whether x = a^d says "probably prime": x = ±1, or x^(2^i) = -1 for some
  // 0 < i < r.
  auto passes = [&](const BigInt& x) {
    if (x.IsOne() || x == n_minus_1) return true;
    BigInt xm = ctx.ToMont(x);
    for (size_t i = 0; i + 1 < r; ++i) {
      xm = ctx.MontMul(xm, xm);
      if (xm == minus_one_mont) return true;
    }
    return false;
  };
  // Round 1 runs alone: almost every composite fails it, and a pair would
  // charge that composite a second exponentiation. Every witness shares d,
  // so the later rounds run two at a time on one Pow2 chain, and an odd last
  // round alone.
  for (int done = 0; done < rounds;) {
    if (done == 0 || done + 1 == rounds) {
      if (!passes(ctx.Pow(witness(), d))) return false;
      done += 1;
    } else {
      const BigInt a0 = witness();
      const BigInt a1 = witness();
      BigInt x0, x1;
      ctx.Pow2(a0, a1, d, &x0, &x1);
      if (!passes(x0) || !passes(x1)) return false;
      done += 2;
    }
  }
  return true;
}

std::vector<BigInt> GeneratePrimes(size_t bits,
                                   const std::vector<uint64_t>& seeds,
                                   ThreadPool* pool, int rounds) {
  VF2_CHECK(bits >= 8) << "prime size too small: " << bits;
  // The top two bits are set, so the product of two such b-bit primes is at
  // least 2.25 * 2^(2b-2) and has exactly 2b bits.
  const BigInt top = BigInt(3) << (bits - 2);
  struct Search {
    uint64_t claimed = 0;  // candidates [0, claimed) are taken
    uint64_t found = std::numeric_limits<uint64_t>::max();  // lowest prime
    BigInt prime;
  };
  std::vector<Search> searches(seeds.size());
  std::mutex mu;
  // Each worker takes the next candidate of the open search with the fewest
  // taken; a search is open while its candidates below the lowest prime
  // found are not all taken. Candidate k of a search draws its value and its
  // witnesses from a stream of its own, so the search's prime, its lowest
  // candidate that passes, does not depend on who tests what.
  auto work = [&](size_t) {
    for (;;) {
      size_t s = searches.size();
      uint64_t k;
      {
        std::lock_guard<std::mutex> lock(mu);
        for (size_t i = 0; i < searches.size(); ++i) {
          const Search& open = searches[i];
          if (open.claimed < open.found &&
              (s == searches.size() || open.claimed < searches[s].claimed)) {
            s = i;
          }
        }
        if (s == searches.size()) return;
        k = searches[s].claimed++;
      }
      Rng stream(Rng(seeds[s] ^ (k * 0xd1b54a32d192ed03ULL)).NextU64());
      BigInt candidate = BigInt::Random(bits - 2, &stream) + top;
      if (candidate.IsEven()) candidate += BigInt(1);
      if (!IsProbablePrime(candidate, &stream, rounds)) continue;
      std::lock_guard<std::mutex> lock(mu);
      if (k < searches[s].found) {
        searches[s].found = k;
        searches[s].prime = std::move(candidate);
      }
    }
  };
  if (pool != nullptr && pool->num_threads() >= 2) {
    pool->ParallelFor(pool->num_threads(), work);
  } else {
    work(0);
  }
  std::vector<BigInt> primes;
  primes.reserve(searches.size());
  for (Search& search : searches) primes.push_back(std::move(search.prime));
  return primes;
}

BigInt GeneratePrime(size_t bits, Rng* rng, int rounds) {
  return GeneratePrimes(bits, {rng->NextU64()}, nullptr, rounds).front();
}

}  // namespace vf2boost

#ifndef VF2BOOST_BIGINT_PRIME_H_
#define VF2BOOST_BIGINT_PRIME_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "bigint/bigint.h"
#include "common/random.h"

namespace vf2boost {

class ThreadPool;

/// Probabilistic primality test: trial division by small primes followed by
/// `rounds` Miller-Rabin rounds, each with a fresh witness uniform in
/// [2, n-2]. Error probability <= 4^-rounds. The first round runs alone and
/// the rest two at a time on one paired exponentiation; the verdict is the
/// same as running them one by one.
bool IsProbablePrime(const BigInt& n, Rng* rng, int rounds = 24);

/// Finds one random probable prime per seed, each with exactly `bits` bits
/// and its top two bits set, i.e. in [1.5 * 2^(bits-1), 2^bits), so the
/// product of two such primes always has exactly 2 * `bits` bits. A search
/// draws candidates uniformly from that range, each on a stream of its own
/// derived from the seed and the candidate's index, and keeps the first
/// that passes IsProbablePrime. The candidates of all searches are tested
/// across `pool` when it has two threads or more and on the calling thread
/// otherwise; the primes depend only on the seeds. Used by Paillier key
/// generation; `bits` must be >= 8.
std::vector<BigInt> GeneratePrimes(size_t bits,
                                   const std::vector<uint64_t>& seeds,
                                   ThreadPool* pool = nullptr,
                                   int rounds = 24);

/// One GeneratePrimes search, on a seed drawn from `rng`.
BigInt GeneratePrime(size_t bits, Rng* rng, int rounds = 24);

}  // namespace vf2boost

#endif  // VF2BOOST_BIGINT_PRIME_H_

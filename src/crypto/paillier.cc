#include "crypto/paillier.h"

#include <algorithm>
#include <mutex>
#include <utility>

#include "bigint/prime.h"
#include "common/logging.h"

namespace vf2boost {

namespace {

// Deterministically derives the public obfuscation-base seed from the
// modulus, so every holder of the same public key builds the same
// h_s = (-y^2)^n mod n^2 without shipping y on the wire. y is public in the
// DJN scheme — short-exponent security rests on the subgroup assumption,
// not on hiding the base.
uint64_t ObfuscationSeed(const BigInt& n) {
  uint64_t seed = 0x766632626f6f7374ULL;  // "vf2boost"
  for (uint64_t limb : n.limbs()) {
    seed ^= limb + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2);
  }
  return seed;
}

}  // namespace

struct PaillierPublicKey::NonceTable {
  std::once_flag once;
  std::unique_ptr<const FixedBasePowTable> table;  // base h_s
};

PaillierPublicKey::PaillierPublicKey(BigInt n)
    : n_(std::move(n)),
      n2_(n_ * n_),
      mont_n2_(std::make_shared<MontgomeryContext>(n2_)),
      nonces_(std::make_shared<NonceTable>()) {
  // R^(2^i + 1) for every bit of a 64-bit fold count: entry 0 is R², and
  // each Montgomery square doubles the power of R it stands for.
  const size_t k = mont_n2_->num_limbs();
  auto r_pow2 = std::make_shared<std::vector<uint64_t>>(64 * k);
  std::copy(mont_n2_->r2_raw(), mont_n2_->r2_raw() + k, r_pow2->data());
  for (size_t i = 1; i < 64; ++i) {
    const uint64_t* prev = r_pow2->data() + (i - 1) * k;
    mont_n2_->MulReduceRaw(prev, prev, r_pow2->data() + i * k);
  }
  r_pow2_ = std::move(r_pow2);
}

const FixedBasePowTable& PaillierPublicKey::nonce_table(
    ThreadPool* pool) const {
  VF2_CHECK(nonces_ != nullptr) << "nonce drawn from an empty Paillier key";
  std::call_once(nonces_->once, [this, pool] {
    // h = -y^2 mod n for a public y in Z_n^*; h_s = h^n mod n^2. One full
    // S-bit exponentiation buys every later nonce the short fixed-base path.
    Rng rng(ObfuscationSeed(n_));
    BigInt y;
    do {
      y = BigInt::RandomBelow(n_ - BigInt(1), &rng) + BigInt(1);
    } while (!Gcd(y, n_).IsOne());
    const BigInt h = n_ - Mod(y * y, n_);  // -y^2 mod n, nonzero: y in Z_n^*
    nonces_->table = std::make_unique<const FixedBasePowTable>(
        mont_n2_, mont_n2_->Pow(h, n_), kObfuscationExpBits,
        kNonceWindowBits, pool);
  });
  return *nonces_->table;
}

void PaillierPublicKey::PrepareNonces(ThreadPool* pool) const {
  nonce_table(pool);
}

void PaillierPublicKey::LoadReduced(const BigInt& c, uint64_t* out) const {
  if (c.IsNegative() || c.Compare(n2_) >= 0) {
    mont_n2_->LoadRaw(Mod(c, n2_), out);
  } else {
    mont_n2_->LoadRaw(c, out);
  }
}

BigInt PaillierPublicKey::MulModN2(const BigInt& a, const BigInt& b) const {
  const MontgomeryContext& ctx = *mont_n2_;
  const size_t k = ctx.num_limbs();
  thread_local std::vector<uint64_t> scratch;
  if (scratch.size() < 2 * k) scratch.resize(2 * k);
  LoadReduced(a, scratch.data());
  LoadReduced(b, scratch.data() + k);
  std::vector<uint64_t> out(k);
  ctx.MulReduceRaw(scratch.data(), scratch.data() + k, out.data());
  ctx.MulReduceRaw(out.data(), ctx.r2_raw(), out.data());
  return BigInt::FromLimbs(std::move(out));
}

void PaillierPublicKey::FoldRaw(std::vector<uint64_t>* acc, size_t count,
                                const BigInt& c) const {
  const MontgomeryContext& ctx = *mont_n2_;
  const size_t k = ctx.num_limbs();
  if (count == 0) {
    acc->resize(k);
    LoadReduced(c, acc->data());
    return;
  }
  thread_local std::vector<uint64_t> scratch;
  if (scratch.size() < k) scratch.resize(k);
  LoadReduced(c, scratch.data());
  ctx.MulReduceRaw(acc->data(), scratch.data(), acc->data());
}

BigInt PaillierPublicKey::MaterializeRaw(const std::vector<uint64_t>& acc,
                                         size_t count) const {
  VF2_DCHECK(count >= 1);
  const MontgomeryContext& ctx = *mont_n2_;
  const size_t k = ctx.num_limbs();
  std::vector<uint64_t> out(acc.begin(), acc.end());
  // acc = ∏c·R^−(count−1); each set bit i of count−1 is paid back by one
  // multiply with R^(2^i + 1), which leaves R^(2^i) after the R⁻¹ of the
  // reduction.
  const uint64_t deficit = count - 1;
  for (size_t i = 0; i < 64; ++i) {
    if ((deficit >> i) & 1) {
      ctx.MulReduceRaw(out.data(), r_pow2_->data() + i * k, out.data());
    }
  }
  return BigInt::FromLimbs(std::move(out));
}

BigInt PaillierPublicKey::MakeNonce(Rng* rng) const {
  BigInt x;
  do {
    x = BigInt::Random(kObfuscationExpBits, rng);
  } while (x.IsZero());  // x = 0 would yield the unobfuscated nonce 1
  return nonce_table().Pow(x);
}

BigInt PaillierPublicKey::EncryptWithNonce(const BigInt& m,
                                           const BigInt& nonce) const {
  VF2_DCHECK(!m.IsNegative() && m.Compare(n_) < 0);
  // c = (1 + m*n) * nonce mod n^2, with g = n+1; 1 + m*n < n^2 for m < n.
  return MulModN2(BigInt(1) + m * n_, nonce);
}

BigInt PaillierPublicKey::Encrypt(const BigInt& m, Rng* rng) const {
  return EncryptWithNonce(m, MakeNonce(rng));
}

BigInt PaillierPublicKey::EncryptUnobfuscated(const BigInt& m) const {
  VF2_DCHECK(!m.IsNegative() && m.Compare(n_) < 0);
  return BigInt(1) + m * n_;  // below n^2 for m < n
}

BigInt PaillierPublicKey::HAdd(const BigInt& c1, const BigInt& c2) const {
  return MulModN2(c1, c2);
}

BigInt PaillierPublicKey::SMul(const BigInt& k, const BigInt& c) const {
  return mont_n2_->Pow(c, k);
}

BigInt PaillierPublicKey::HornerPow2(std::span<const BigInt* const> slots,
                                     size_t shift_bits) const {
  VF2_CHECK(!slots.empty()) << "empty Horner chain";
  // A one-slot chain performs no operation, so it returns the slot as is.
  if (slots.size() == 1) return *slots.front();
  const MontgomeryContext& ctx = *mont_n2_;
  const MontgomeryContext::Chain chain = ctx.ChainForm();
  const size_t w = chain.words;
  thread_local std::vector<uint64_t> scratch;
  if (scratch.size() < 2 * w) scratch.resize(2 * w);
  uint64_t* acc = scratch.data();
  uint64_t* slot = acc + w;
  auto enter = [&](const BigInt& c, uint64_t* out) {
    LoadReduced(c, out);
    ctx.ChainEnter(chain, out, out);
  };
  enter(*slots.back(), acc);
  for (size_t i = slots.size() - 1; i-- > 0;) {
    for (size_t s = 0; s < shift_bits; ++s) ctx.ChainMul(chain, acc, acc, acc);
    enter(*slots[i], slot);
    ctx.ChainMul(chain, acc, slot, acc);
  }
  return ctx.ChainLeave(chain, acc);
}

void PaillierPublicKey::Serialize(ByteWriter* w) const {
  w->PutU64Vector(n_.limbs());
}

Result<PaillierPublicKey> PaillierPublicKey::Deserialize(ByteReader* r) {
  std::vector<uint64_t> limbs;
  VF2_RETURN_IF_ERROR(r->GetU64Vector(&limbs));
  BigInt n = BigInt::FromLimbs(std::move(limbs));
  if (n.BitLength() < 16) {
    return Status::Corruption("Paillier modulus too small");
  }
  // n = pq is odd; an even n would abort building the Montgomery ring of n^2.
  if (n.IsEven()) return Status::Corruption("Paillier modulus is even");
  return PaillierPublicKey(std::move(n));
}

namespace {

// L(x) = (x - 1) / d, defined when x ≡ 1 (mod d).
BigInt LFunction(const BigInt& x, const BigInt& d) {
  return (x - BigInt(1)) / d;
}

}  // namespace

PaillierPrivateKey::CrtHalf PaillierPrivateKey::MakeHalf(const BigInt& prime,
                                                         const BigInt& g) {
  CrtHalf h;
  h.prime = prime;
  h.prime_minus_1 = prime - BigInt(1);
  h.sq = prime * prime;
  h.mont = std::make_shared<MontgomeryContext>(h.sq);
  auto hinv = ModInverse(LFunction(h.mont->Pow(g, h.prime_minus_1), prime),
                         prime);
  VF2_CHECK(hinv.ok()) << "degenerate Paillier key";
  h.hinv = std::move(hinv).value();
  return h;
}

PaillierPrivateKey::PaillierPrivateKey(const PaillierPublicKey& pub, BigInt p,
                                       BigInt q) {
  const BigInt g = pub.n() + BigInt(1);
  p_half_ = MakeHalf(p, g);
  q_half_ = MakeHalf(q, g);
  auto pinv = ModInverse(p, q);
  VF2_CHECK(pinv.ok()) << "p not invertible mod q";
  p_inv_mod_q_ = pinv.value();
}

BigInt PaillierPrivateKey::CrtHalf::Finish(const BigInt& x) const {
  return Mod(LFunction(x, prime) * hinv, prime);
}

// Pow and Pow2 reduce a cipher at or above r^2 themselves.
BigInt PaillierPrivateKey::DecryptHalf(const BigInt& c, const CrtHalf& h) {
  return h.Finish(h.mont->Pow(c, h.prime_minus_1));
}

void PaillierPrivateKey::DecryptHalf2(const BigInt& c0, const BigInt& c1,
                                      const CrtHalf& h, BigInt* m0,
                                      BigInt* m1) {
  h.mont->Pow2(c0, c1, h.prime_minus_1, m0, m1);
  *m0 = h.Finish(*m0);
  *m1 = h.Finish(*m1);
}

BigInt PaillierPrivateKey::CrtCombine(const BigInt& mp, const BigInt& mq) const {
  // CRT: m = mp + p * ((mq - mp) * p^{-1} mod q).
  const BigInt& p = p_half_.prime;
  const BigInt& q = q_half_.prime;
  const BigInt diff = Mod(mq - mp, q);
  return mp + p * Mod(diff * p_inv_mod_q_, q);
}

BigInt PaillierPrivateKey::Decrypt(const BigInt& c) const {
  return CrtCombine(DecryptHalf(c, p_half_), DecryptHalf(c, q_half_));
}

std::vector<BigInt> PaillierPrivateKey::DecryptBatch(
    const std::vector<BigInt>& cs, ThreadPool* pool) const {
  const size_t n = cs.size();
  std::vector<BigInt> mp(n), mq(n);
  // Task 2j runs the p-half of ciphers 2j and 2j+1 on one paired chain, task
  // 2j+1 their q-half; an odd last cipher runs alone. The cheap
  // recombination runs serially afterwards.
  auto task = [&](size_t t) {
    const bool q = (t & 1) != 0;
    const CrtHalf& h = q ? q_half_ : p_half_;
    std::vector<BigInt>& m = q ? mq : mp;
    const size_t i = t & ~size_t{1};
    if (i + 1 < n) {
      DecryptHalf2(cs[i], cs[i + 1], h, &m[i], &m[i + 1]);
    } else {
      m[i] = DecryptHalf(cs[i], h);
    }
  };
  const size_t tasks = 2 * ((n + 1) / 2);
  if (pool != nullptr && pool->num_threads() >= 2) {
    pool->ParallelFor(tasks, task);
  } else {
    for (size_t t = 0; t < tasks; ++t) task(t);
  }
  std::vector<BigInt> out(n);
  for (size_t i = 0; i < n; ++i) out[i] = CrtCombine(mp[i], mq[i]);
  return out;
}

Result<PaillierKeyPair> PaillierKeyPair::Generate(size_t key_bits, Rng* rng,
                                                  ThreadPool* pool) {
  if (key_bits < 64 || key_bits % 2 != 0) {
    return Status::InvalidArgument(
        "Paillier key size must be even and >= 64, got " +
        std::to_string(key_bits));
  }
  for (;;) {
    // p and q are searched from seeds of their own, across the pool; the
    // key does not depend on the pool.
    const std::vector<BigInt> primes = GeneratePrimes(
        key_bits / 2, {rng->NextU64(), rng->NextU64()}, pool);
    const BigInt& p = primes[0];
    const BigInt& q = primes[1];
    if (p == q) continue;
    // Both primes have their top two bits set, so n has exactly key_bits
    // bits. With equal-size primes gcd(n, (p-1)(q-1)) == 1 unless p | q-1 or
    // q | p-1, which cannot happen at equal bit lengths.
    PaillierKeyPair kp;
    kp.pub = PaillierPublicKey(p * q);
    kp.priv = PaillierPrivateKey(kp.pub, p, q);
    return kp;
  }
}

}  // namespace vf2boost

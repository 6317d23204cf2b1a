#include "fedlr/fed_lr.h"

#include <cmath>
#include <thread>

#include "common/logging.h"
#include "crypto/accumulator.h"
#include "crypto/packing.h"
#include "fed/fed_metrics.h"
#include "fed/inbox.h"

namespace vf2boost {

namespace {

// Fixed encoding exponent for the plaintext feature multipliers in
// x_ij (x) [[z_i]] — the product cipher then carries exponent
// e_z + kFeatureExponent.
constexpr int kFeatureExponent = 6;

// Statistical masking: masks are uniform in [bound, bound * (1 + 2^20)),
// hiding the true gradient to ~2^-20 while keeping slot values positive.
constexpr double kMaskRange = 1 << 20;

// Multiplies a cipher by a NONNEGATIVE plaintext scalar encoded at
// kFeatureExponent.
Cipher SMulFixed(const CipherBackend& backend, double k, const Cipher& c) {
  VF2_DCHECK(k >= 0);
  Cipher out;
  out.exponent = c.exponent + kFeatureExponent;
  const BigInt encoded =
      backend.codec().Encode(k, kFeatureExponent, backend.plain_modulus());
  out.data = backend.SMulRaw(encoded, c.data);
  return out;
}

// One party's gradient-request bundle: pos/neg part ciphers per feature
// (split by the sign of x to avoid per-entry homomorphic negation), the
// masks to subtract after the peer's decryption, and packing metadata.
struct GradRequest {
  std::vector<Cipher> ciphers;        // raw form (2 per feature: pos, neg)
  std::vector<PackedCipher> packs;    // packed form
  bool packed = false;
  std::vector<double> masks;          // one per cipher slot
};

Message EncodeGradRequest(const GradRequest& req, const CipherBackend& peer) {
  ByteWriter w;
  w.PutU8(req.packed ? 1 : 0);
  if (req.packed) {
    w.PutU64(req.packs.size());
    for (const PackedCipher& pc : req.packs) {
      w.PutI32(pc.exponent);
      w.PutU32(pc.slot_bits);
      w.PutU32(pc.num_slots);
      w.PutU64Vector(pc.data.limbs());
    }
  } else {
    PutCipherVector(req.ciphers, peer, &w);
  }
  return {MessageType::kLrGradRequest, w.Release()};
}

Status DecodeGradRequest(const Message& m, const CipherBackend& peer,
                         GradRequest* req) {
  ByteReader r(m.payload);
  uint8_t packed = 0;
  VF2_RETURN_IF_ERROR(r.GetU8(&packed));
  req->packed = packed != 0;
  if (req->packed) {
    uint64_t n = 0;
    VF2_RETURN_IF_ERROR(r.GetU64(&n));
    if (n > r.remaining() / 20) {
      return Status::Corruption("grad request pack count exceeds payload");
    }
    req->packs.clear();
    for (uint64_t i = 0; i < n; ++i) {
      PackedCipher pc;
      VF2_RETURN_IF_ERROR(r.GetI32(&pc.exponent));
      VF2_RETURN_IF_ERROR(r.GetU32(&pc.slot_bits));
      VF2_RETURN_IF_ERROR(r.GetU32(&pc.num_slots));
      std::vector<uint64_t> limbs;
      VF2_RETURN_IF_ERROR(r.GetU64Vector(&limbs));
      pc.data = BigInt::FromLimbs(std::move(limbs));
      req->packs.push_back(std::move(pc));
    }
    return Status::OK();
  }
  return GetCipherVector(&r, peer, &req->ciphers);
}

Message EncodeGradReply(const std::vector<double>& values) {
  ByteWriter w;
  w.PutU64(values.size());
  for (double v : values) w.PutDouble(v);
  return {MessageType::kLrGradReply, w.Release()};
}

Status DecodeGradReply(const Message& m, std::vector<double>* values) {
  ByteReader r(m.payload);
  uint64_t n = 0;
  VF2_RETURN_IF_ERROR(r.GetU64(&n));
  if (n > r.remaining() / 8) {
    return Status::Corruption("grad reply count exceeds payload");
  }
  values->resize(static_cast<size_t>(n));
  for (double& v : *values) {
    VF2_RETURN_IF_ERROR(r.GetDouble(&v));
  }
  return Status::OK();
}

/// One LR party. The two roles are symmetric except for who owns labels
/// (the label owner injects the -0.5*yhat term) and the bias column.
class LrPeer {
 public:
  /// Counts into `metrics` under "party_b" (label owner) or "party_a0".
  LrPeer(const FedLrConfig& config, const Dataset& data, bool is_label_owner,
         ChannelEndpoint* channel, uint64_t rng_salt,
         obs::MetricsRegistry* metrics)
      : config_(config),
        data_(data),
        is_label_owner_(is_label_owner),
        inbox_(channel),
        rng_(config.seed * 31337 + rng_salt),
        weights_(data.columns(), 0.0),
        m_(PartyMetrics::Create(metrics,
                                is_label_owner ? "party_b" : "party_a0")) {}

  Status Run();

  const std::vector<double>& weights() const { return weights_; }
  double bias() const { return bias_; }

 private:
  Status Setup();
  Status RunLoop();
  Status RunBatch(const std::vector<uint32_t>& batch);
  double PartialScore(uint32_t i) const;

  // Builds this party's masked-gradient request under the peer's key from
  // the completed residual ciphers `z` (aligned with `batch`).
  Status BuildGradRequest(const std::vector<uint32_t>& batch,
                          const std::vector<Cipher>& z, GradRequest* req);
  // Decrypts the peer's request with our own key.
  Status AnswerGradRequest(const GradRequest& req, std::vector<double>* out);
  // Applies the unmasked gradient.
  void ApplyUpdate(const GradRequest& req, const std::vector<double>& reply,
                   size_t batch_size);

  FedLrConfig config_;
  const Dataset& data_;
  bool is_label_owner_;
  Inbox inbox_;
  Rng rng_;

  std::unique_ptr<CipherBackend> own_;   // our key pair (can decrypt)
  std::unique_ptr<CipherBackend> peer_;  // peer's public key only
  std::vector<double> weights_;
  double bias_ = 0;
  PartyMetrics m_;
};

Status LrPeer::Setup() {
  const FixedPointCodec codec(config_.codec_base, config_.codec_min_exponent,
                              config_.codec_num_exponents);
  if (config_.mock_crypto) {
    own_ = std::make_unique<MockBackend>(codec);
    inbox_.Send(Message{MessageType::kPublicKey, {}});
    VF2_ASSIGN_OR_RETURN(Message msg,
                         inbox_.ReceiveType(MessageType::kPublicKey));
    (void)msg;
    peer_ = std::make_unique<MockBackend>(codec);
    return Status::OK();
  }
  auto kp = PaillierKeyPair::Generate(config_.paillier_bits, &rng_);
  VF2_RETURN_IF_ERROR(kp.status());
  auto own = std::make_unique<PaillierBackend>(kp->pub, codec);
  own->SetPrivateKey(kp->priv);
  own_ = std::move(own);

  ByteWriter w;
  kp->pub.Serialize(&w);
  inbox_.Send(Message{MessageType::kPublicKey, w.Release()});
  VF2_ASSIGN_OR_RETURN(Message msg,
                       inbox_.ReceiveType(MessageType::kPublicKey));
  ByteReader r(msg.payload);
  auto peer_pub = PaillierPublicKey::Deserialize(&r);
  VF2_RETURN_IF_ERROR(peer_pub.status());
  peer_ = std::make_unique<PaillierBackend>(std::move(peer_pub).value(),
                                            codec);
  return Status::OK();
}

double LrPeer::PartialScore(uint32_t i) const {
  double u = is_label_owner_ ? bias_ : 0.0;
  const auto cols = data_.features.RowColumns(i);
  const auto vals = data_.features.RowValues(i);
  for (size_t k = 0; k < cols.size(); ++k) {
    u += weights_[cols[k]] * vals[k];
  }
  return u;
}

Status LrPeer::BuildGradRequest(const std::vector<uint32_t>& batch,
                                const std::vector<Cipher>& z,
                                GradRequest* req) {
  // Two accumulators per feature (positive / negative x parts) plus, for
  // the label owner, the bias column (all-ones, positive part only).
  const size_t features = data_.columns();
  const size_t slots = 2 * features + (is_label_owner_ ? 1 : 0);

  // The product ciphers live at exponent e_z + kFeatureExponent; give the
  // accumulators a codec shifted accordingly.
  const FixedPointCodec shifted(config_.codec_base,
                                config_.codec_min_exponent + kFeatureExponent,
                                config_.codec_num_exponents);
  std::unique_ptr<CipherBackend> acc_backend;
  if (peer_->is_mock()) {
    acc_backend = std::make_unique<MockBackend>(shifted);
  } else {
    acc_backend = std::make_unique<PaillierBackend>(
        static_cast<const PaillierBackend*>(peer_.get())->public_key(),
        shifted);
  }

  std::vector<std::unique_ptr<CipherAccumulator>> acc(slots);
  for (auto& a : acc) {
    if (config_.reordered) {
      a = std::make_unique<ReorderedCipherAccumulator>(acc_backend.get());
    } else {
      a = std::make_unique<NaiveCipherAccumulator>(acc_backend.get());
    }
  }
  for (size_t k = 0; k < batch.size(); ++k) {
    const uint32_t i = batch[k];
    const auto cols = data_.features.RowColumns(i);
    const auto vals = data_.features.RowValues(i);
    for (size_t e = 0; e < cols.size(); ++e) {
      const double x = vals[e];
      const size_t slot = 2 * cols[e] + (x >= 0 ? 0 : 1);
      acc[slot]->Add(SMulFixed(*peer_, std::fabs(x), z[k]));
    }
    if (is_label_owner_) {
      // Bias column (all-ones); the x1.0 multiply lifts the cipher into the
      // shifted exponent range the accumulators expect.
      acc[2 * features]->Add(SMulFixed(*peer_, 1.0, z[k]));
    }
  }

  // Finalize to a uniform exponent, mask, and optionally pack.
  const int target_exponent =
      shifted.min_exponent() + shifted.num_exponents() - 1;
  req->ciphers.resize(slots);
  req->masks.resize(slots);
  double max_abs = 1.0;
  for (size_t s = 0; s < slots; ++s) {
    Cipher sum = acc[s]->Finalize();
    m_.hadds->Add(acc[s]->stats().hadds);
    m_.scalings->Add(acc[s]->stats().scalings);
    sum = acc_backend->ScaleTo(sum, target_exponent);
    // Mask: positive, statistically hiding, also serves as the nonneg shift.
    // Bound the slot value: |grad part| <= sum_i |x| * |z|; use a generous
    // protocol constant (documented in fed_lr.h).
    req->masks[s] = 1024.0 * (1.0 + rng_.NextDouble() * kMaskRange);
    const Cipher mask_cipher =
        acc_backend->EncryptAt(req->masks[s], target_exponent, &rng_);
    m_.encryptions->Add();
    sum.data = acc_backend->HAddRaw(sum.data, mask_cipher.data);
    req->ciphers[s] = std::move(sum);
    max_abs = std::max(max_abs, req->masks[s]);
  }

  req->packed = false;
  if (config_.packing) {
    // Slot width: masked values are in (0, 2 * max_mask) with overwhelming
    // probability (gradients are tiny next to the 2^20-range masks).
    const double max_value =
        2.0 * max_abs *
        std::pow(static_cast<double>(config_.codec_base), target_exponent);
    const size_t slot_bits =
        static_cast<size_t>(std::ceil(std::log2(max_value))) + 2;
    const size_t capacity = MaxSlotsPerCipher(
        slot_bits, acc_backend->plain_modulus().BitLength());
    if (capacity >= std::max<size_t>(2, config_.min_pack_slots)) {
      for (size_t begin = 0; begin < req->ciphers.size();
           begin += capacity) {
        const size_t end = std::min(req->ciphers.size(), begin + capacity);
        std::vector<Cipher> group(req->ciphers.begin() + begin,
                                  req->ciphers.begin() + end);
        auto packed = PackCiphers(group, slot_bits, *acc_backend);
        VF2_RETURN_IF_ERROR(packed.status());
        req->packs.push_back(std::move(packed).value());
        m_.packs->Add();
      }
      req->packed = true;
      req->ciphers.clear();
    }
  }
  return Status::OK();
}

Status LrPeer::AnswerGradRequest(const GradRequest& req,
                                 std::vector<double>* out) {
  out->clear();
  if (req.packed) {
    for (const PackedCipher& pc : req.packs) {
      auto slots = DecryptPacked(pc, *own_);
      VF2_RETURN_IF_ERROR(slots.status());
      out->insert(out->end(), slots->begin(), slots->end());
      m_.decryptions->Add();
    }
  } else {
    for (const Cipher& c : req.ciphers) {
      out->push_back(own_->Decrypt(c));
      m_.decryptions->Add();
    }
  }
  return Status::OK();
}

void LrPeer::ApplyUpdate(const GradRequest& req,
                         const std::vector<double>& reply,
                         size_t batch_size) {
  const size_t features = data_.columns();
  const double m = static_cast<double>(batch_size);
  for (size_t j = 0; j < features; ++j) {
    const double pos = reply[2 * j] - req.masks[2 * j];
    const double neg = reply[2 * j + 1] - req.masks[2 * j + 1];
    const double grad = pos - neg;
    weights_[j] -= config_.lr.learning_rate *
                   (grad / m + config_.lr.l2_reg * weights_[j]);
  }
  if (is_label_owner_) {
    const double grad_bias = reply[2 * features] - req.masks[2 * features];
    bias_ -= config_.lr.learning_rate * grad_bias / m;
  }
}

Status LrPeer::RunBatch(const std::vector<uint32_t>& batch) {
  // 1. Encrypt and exchange partial terms under our OWN key.
  std::vector<Cipher> own_partials;
  own_partials.reserve(batch.size());
  for (uint32_t i : batch) {
    const double u = PartialScore(i);
    double term = 0.25 * u;
    if (is_label_owner_) {
      const double yhat = data_.labels[i] > 0.5f ? 1.0 : -1.0;
      term -= 0.5 * yhat;
    }
    own_partials.push_back(own_->Encrypt(term, &rng_));
    m_.encryptions->Add();
  }
  {
    ByteWriter w;
    PutCipherVector(own_partials, *own_, &w);
    inbox_.Send(Message{MessageType::kLrPartial, w.Release()});
  }
  VF2_ASSIGN_OR_RETURN(Message msg,
                       inbox_.ReceiveType(MessageType::kLrPartial));
  std::vector<Cipher> peer_partials;
  {
    ByteReader r(msg.payload);
    VF2_RETURN_IF_ERROR(GetCipherVector(&r, *peer_, &peer_partials));
  }
  if (peer_partials.size() != batch.size()) {
    return Status::ProtocolError("LR partial batch size mismatch");
  }

  // 2. Complete the residual under the PEER's key: z_i = peer_term_i +
  //    our own plaintext term (encrypted under the peer's key).
  std::vector<Cipher> z;
  z.reserve(batch.size());
  for (size_t k = 0; k < batch.size(); ++k) {
    const uint32_t i = batch[k];
    double term = 0.25 * PartialScore(i);
    if (is_label_owner_) {
      const double yhat = data_.labels[i] > 0.5f ? 1.0 : -1.0;
      term -= 0.5 * yhat;
    }
    const Cipher mine = peer_->EncryptAt(term, peer_partials[k].exponent,
                                         &rng_);
    m_.encryptions->Add();
    Cipher zi;
    zi.exponent = peer_partials[k].exponent;
    zi.data = peer_->HAddRaw(peer_partials[k].data, mine.data);
    z.push_back(std::move(zi));
  }

  // 3. Masked gradient request under the peer's key; peer decrypts.
  GradRequest req;
  VF2_RETURN_IF_ERROR(BuildGradRequest(batch, z, &req));
  inbox_.Send(EncodeGradRequest(req, *peer_));

  VF2_ASSIGN_OR_RETURN(Message peer_req_msg,
                       inbox_.ReceiveType(MessageType::kLrGradRequest));
  GradRequest peer_req;
  VF2_RETURN_IF_ERROR(DecodeGradRequest(peer_req_msg, *own_, &peer_req));
  std::vector<double> answer;
  VF2_RETURN_IF_ERROR(AnswerGradRequest(peer_req, &answer));
  inbox_.Send(EncodeGradReply(answer));

  VF2_ASSIGN_OR_RETURN(Message reply_msg,
                       inbox_.ReceiveType(MessageType::kLrGradReply));
  std::vector<double> reply;
  VF2_RETURN_IF_ERROR(DecodeGradReply(reply_msg, &reply));
  const size_t expected =
      2 * data_.columns() + (is_label_owner_ ? 1 : 0);
  if (reply.size() < expected) {
    return Status::ProtocolError("LR grad reply too small");
  }
  ApplyUpdate(req, reply, batch.size());
  return Status::OK();
}

Status LrPeer::Run() {
  ChannelCloseGuard guard(
      inbox_.port(),
      std::string("LR party ") + (is_label_owner_ ? "B" : "A"));
  Status status = RunLoop();
  guard.SetStatus(status);
  return status;
}

Status LrPeer::RunLoop() {
  VF2_RETURN_IF_ERROR(Setup());
  const size_t n = data_.rows();
  for (size_t epoch = 0; epoch < config_.lr.epochs; ++epoch) {
    const size_t batches = LrBatchesPerEpoch(n, config_.lr);
    for (size_t b = 0; b < batches; ++b) {
      VF2_RETURN_IF_ERROR(
          RunBatch(LrBatchIndices(n, config_.lr, epoch, b)));
    }
  }
  inbox_.Send(Message{MessageType::kLrDone, {}});
  VF2_ASSIGN_OR_RETURN(Message msg, inbox_.ReceiveType(MessageType::kLrDone));
  (void)msg;
  m_.bytes_sent->Set(static_cast<double>(inbox_.port()->sent_stats().bytes));
  return Status::OK();
}

}  // namespace

Status FedLrConfig::Validate() const {
  if (!mock_crypto && (paillier_bits < 64 || paillier_bits % 2 != 0)) {
    return Status::InvalidArgument("paillier_bits must be even and >= 64");
  }
  if (lr.epochs == 0 || lr.batch_size == 0) {
    return Status::InvalidArgument("epochs and batch_size must be >= 1");
  }
  if (lr.learning_rate <= 0) {
    return Status::InvalidArgument("learning_rate must be positive");
  }
  if (codec_num_exponents < 1 || codec_min_exponent < 0 ||
      codec_min_exponent + codec_num_exponents + kFeatureExponent > 16) {
    return Status::InvalidArgument(
        "codec exponent range (plus the feature-multiplier exponent) must "
        "stay within the 64-bit mantissa");
  }
  VF2_RETURN_IF_ERROR(network.Validate());
  return Status::OK();
}

Result<LrModel> FedLrResult::ToJointModel(
    const VerticalSplitSpec& spec) const {
  if (spec.num_parties() != 2) {
    return Status::InvalidArgument("FedLr is two-party");
  }
  size_t total = 0;
  for (const auto& cols : spec.party_columns) total += cols.size();
  if (spec.party_columns[0].size() != weights_a.size() ||
      spec.party_columns[1].size() != weights_b.size()) {
    return Status::InvalidArgument("spec does not match weight shapes");
  }
  LrModel model;
  model.weights.assign(total, 0.0);
  model.bias = bias;
  for (size_t j = 0; j < weights_a.size(); ++j) {
    model.weights[spec.party_columns[0][j]] = weights_a[j];
  }
  for (size_t j = 0; j < weights_b.size(); ++j) {
    model.weights[spec.party_columns[1][j]] = weights_b[j];
  }
  return model;
}

Result<FedLrResult> FedLrTrainer::Train(const Dataset& party_a,
                                        const Dataset& party_b) const {
  VF2_RETURN_IF_ERROR(config_.Validate());
  if (!party_b.has_labels()) {
    return Status::InvalidArgument("party B must own the labels");
  }
  if (party_a.has_labels()) {
    return Status::InvalidArgument("party A must not carry labels");
  }
  if (party_a.rows() != party_b.rows() || party_b.rows() == 0) {
    return Status::InvalidArgument("parties must hold the same instances");
  }

  auto [a_end, b_end] = ChannelEndpoint::CreatePair(config_.network);
  obs::MetricsRegistry registry;
  LrPeer peer_a(config_, party_a, /*is_label_owner=*/false, a_end.get(),
                /*rng_salt=*/1, &registry);
  LrPeer peer_b(config_, party_b, /*is_label_owner=*/true, b_end.get(),
                /*rng_salt=*/2, &registry);

  Status a_status;
  std::thread a_thread([&] { a_status = peer_a.Run(); });
  Status b_status = peer_b.Run();
  a_thread.join();
  VF2_RETURN_IF_ERROR(b_status);
  VF2_RETURN_IF_ERROR(a_status);

  FedLrResult result;
  result.weights_a = peer_a.weights();
  result.weights_b = peer_b.weights();
  result.bias = peer_b.bias();
  result.metrics = registry.Snapshot();
  return result;
}

}  // namespace vf2boost

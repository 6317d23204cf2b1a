// Wire-format round-trip tests for every cross-party payload, plus
// FedConfig validation.

#include "fed/protocol.h"

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <tuple>
#include <vector>

#include "fed/fed_trainer.h"

namespace vf2boost {
namespace {

class PayloadRoundTripTest : public ::testing::Test {
 protected:
  MockBackend backend_;
  Rng rng_{9};
};

TEST_F(PayloadRoundTripTest, GradBatch) {
  GradBatchPayload payload;
  payload.tree = 7;
  payload.start = 4096;
  for (int i = 0; i < 10; ++i) {
    payload.g.push_back(backend_.Encrypt(0.1 * i - 0.5, &rng_));
    payload.h.push_back(backend_.Encrypt(0.02 * i, &rng_));
  }
  Message msg = EncodeGradBatch(payload, backend_);
  EXPECT_EQ(msg.type, MessageType::kGradBatch);

  GradBatchPayload out;
  ASSERT_TRUE(DecodeGradBatch(msg, backend_, &out).ok());
  EXPECT_EQ(out.tree, 7u);
  EXPECT_EQ(out.start, 4096u);
  ASSERT_EQ(out.g.size(), 10u);
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(out.g[i].data, payload.g[i].data);
    EXPECT_EQ(out.h[i].exponent, payload.h[i].exponent);
  }
}

TEST_F(PayloadRoundTripTest, NodeHistogramRaw) {
  NodeHistogramPayload payload;
  payload.tree = 1;
  payload.layer = 3;
  payload.node = 12;
  payload.epoch = 1;
  payload.packed = false;
  for (int i = 0; i < 6; ++i) {
    payload.g_bins.push_back(backend_.Encrypt(i * 1.0, &rng_));
    payload.h_bins.push_back(backend_.Encrypt(i * 0.25, &rng_));
  }
  Message msg = EncodeNodeHistogram(payload, backend_);
  NodeHistogramPayload out;
  ASSERT_TRUE(DecodeNodeHistogram(msg, backend_, &out).ok());
  EXPECT_EQ(out.node, 12);
  EXPECT_EQ(out.epoch, 1u);
  EXPECT_FALSE(out.packed);
  ASSERT_EQ(out.g_bins.size(), 6u);
  EXPECT_NEAR(backend_.Decrypt(out.g_bins[3]), 3.0, 1e-6);
}

TEST_F(PayloadRoundTripTest, NodeHistogramPacked) {
  NodeHistogramPayload payload;
  payload.tree = 2;
  payload.layer = 1;
  payload.node = 5;
  payload.packed = true;
  payload.shift_g = 1000.0;
  payload.shift_h = 0.0;
  PackedCipher pc;
  pc.data = BigInt(123456789);
  pc.exponent = 9;
  pc.slot_bits = 40;
  pc.num_slots = 3;
  payload.g_packs.push_back(pc);
  payload.h_packs.push_back(pc);
  payload.h_packs.push_back(pc);

  Message msg = EncodeNodeHistogram(payload, backend_);
  NodeHistogramPayload out;
  ASSERT_TRUE(DecodeNodeHistogram(msg, backend_, &out).ok());
  EXPECT_TRUE(out.packed);
  EXPECT_EQ(out.shift_g, 1000.0);
  ASSERT_EQ(out.g_packs.size(), 1u);
  ASSERT_EQ(out.h_packs.size(), 2u);
  EXPECT_EQ(out.g_packs[0].data, BigInt(123456789));
  EXPECT_EQ(out.g_packs[0].slot_bits, 40u);
  EXPECT_EQ(out.g_packs[0].num_slots, 3u);
}

TEST_F(PayloadRoundTripTest, DecisionsAllActionKinds) {
  DecisionsPayload payload;
  payload.tree = 4;
  payload.layer = 2;
  NodeDecision leaf;
  leaf.node = 1;
  leaf.action = NodeAction::kLeaf;
  NodeDecision resolved;
  resolved.node = 2;
  resolved.action = NodeAction::kSplitResolved;
  resolved.left = 5;
  resolved.right = 6;
  resolved.placement = Bitmap(10);
  resolved.placement.Set(3);
  NodeDecision query;
  query.node = 3;
  query.action = NodeAction::kSplitQuery;
  query.left = 7;
  query.right = 8;
  query.feature = 11;
  query.bin = 4;
  query.default_left = false;
  payload.decisions = {leaf, resolved, query};

  Message msg = EncodeDecisions(payload, MessageType::kDecisions);
  DecisionsPayload out;
  ASSERT_TRUE(DecodeDecisions(msg, &out).ok());
  ASSERT_EQ(out.decisions.size(), 3u);
  EXPECT_EQ(out.decisions[0].action, NodeAction::kLeaf);
  EXPECT_EQ(out.decisions[1].action, NodeAction::kSplitResolved);
  EXPECT_TRUE(out.decisions[1].placement.Get(3));
  EXPECT_FALSE(out.decisions[1].placement.Get(4));
  EXPECT_EQ(out.decisions[2].action, NodeAction::kSplitQuery);
  EXPECT_EQ(out.decisions[2].feature, 11u);
  EXPECT_EQ(out.decisions[2].bin, 4u);
  EXPECT_FALSE(out.decisions[2].default_left);
}

TEST_F(PayloadRoundTripTest, PlacementAndLayout) {
  PlacementPayload placement;
  placement.tree = 1;
  placement.layer = 2;
  placement.node = 3;
  placement.placement = Bitmap(130);
  placement.placement.Set(0);
  placement.placement.Set(129);
  Message msg = EncodePlacement(placement);
  PlacementPayload pout;
  ASSERT_TRUE(DecodePlacement(msg, &pout).ok());
  EXPECT_EQ(pout.node, 3);
  EXPECT_TRUE(pout.placement.Get(129));
  EXPECT_EQ(pout.placement.Count(), 2u);

  LayoutPayload layout;
  layout.bins_per_feature = {20, 20, 7, 1};
  Message lmsg = EncodeLayout(layout);
  LayoutPayload lout;
  ASSERT_TRUE(DecodeLayout(lmsg, &lout).ok());
  EXPECT_EQ(lout.bins_per_feature, layout.bins_per_feature);
}

// Every decoder finishes with one end-of-payload check: a payload one byte
// longer than its encoder wrote is Corruption, never decoded as if the byte
// were absent.
TEST_F(PayloadRoundTripTest, EveryDecoderRejectsOneTrailingByte) {
  GradBatchPayload grads;
  grads.g.push_back(backend_.Encrypt(0.5, &rng_));
  grads.h.push_back(backend_.Encrypt(0.25, &rng_));
  NodeHistogramPayload hist;
  hist.g_bins = grads.g;
  hist.h_bins = grads.h;
  DecisionsPayload decisions;
  NodeDecision leaf;
  leaf.node = 1;
  decisions.decisions.push_back(leaf);
  PlacementPayload placement;
  placement.placement = Bitmap(9);
  LayoutPayload layout;
  layout.bins_per_feature = {4, 4};
  MetricsDeltaPayload delta;

  using Decoder = std::function<Status(const Message&)>;
  const std::vector<std::tuple<const char*, Message, Decoder>> cases = {
      {"GradBatch", EncodeGradBatch(grads, backend_),
       [&](const Message& m) {
         GradBatchPayload out;
         return DecodeGradBatch(m, backend_, &out);
       }},
      {"NodeHistogram", EncodeNodeHistogram(hist, backend_),
       [&](const Message& m) {
         NodeHistogramPayload out;
         return DecodeNodeHistogram(m, backend_, &out);
       }},
      {"Decisions", EncodeDecisions(decisions, MessageType::kDecisions),
       [](const Message& m) {
         DecisionsPayload out;
         return DecodeDecisions(m, &out);
       }},
      {"Placement", EncodePlacement(placement),
       [](const Message& m) {
         PlacementPayload out;
         return DecodePlacement(m, &out);
       }},
      {"Layout", EncodeLayout(layout),
       [](const Message& m) {
         LayoutPayload out;
         return DecodeLayout(m, &out);
       }},
      {"MetricsDelta", EncodeMetricsDelta(delta),
       [](const Message& m) {
         MetricsDeltaPayload out;
         return DecodeMetricsDelta(m, &out);
       }},
  };
  for (const auto& [name, msg, decode] : cases) {
    SCOPED_TRACE(name);
    ASSERT_TRUE(decode(msg).ok());
    Message longer = msg;
    longer.payload.push_back(0);
    const Status st = decode(longer);
    EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();
    EXPECT_NE(st.message().find("trailing"), std::string::npos)
        << st.ToString();
  }
}

// A cipher's exponent is bounded to the codec's range where it is
// deserialized, so no accumulator workspace index and no exponent alignment
// ever sees a hostile one.
TEST_F(PayloadRoundTripTest, CipherExponentOutsideTheCodecIsCorruption) {
  const FixedPointCodec& codec = backend_.codec();
  for (int exponent : {codec.min_exponent() - 1, codec.max_exponent() + 1}) {
    SCOPED_TRACE(exponent);
    NodeHistogramPayload hist;
    for (int i = 0; i < 3; ++i) {
      hist.g_bins.push_back(backend_.Encrypt(i * 0.5, &rng_));
      hist.h_bins.push_back(backend_.Encrypt(i * 0.25, &rng_));
    }
    NodeHistogramPayload out;
    ASSERT_TRUE(
        DecodeNodeHistogram(EncodeNodeHistogram(hist, backend_), backend_, &out)
            .ok());
    hist.h_bins[1].exponent = exponent;
    Status st = DecodeNodeHistogram(EncodeNodeHistogram(hist, backend_),
                                    backend_, &out);
    EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();

    GradBatchPayload grads;
    grads.g = hist.g_bins;
    grads.h = hist.g_bins;
    grads.g[2].exponent = exponent;
    GradBatchPayload grads_out;
    st = DecodeGradBatch(EncodeGradBatch(grads, backend_), backend_,
                         &grads_out);
    EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();
  }
}

TEST(FedConfigTest, PresetsAreValid) {
  EXPECT_TRUE(FedConfig::VfGbdt().Validate().ok());
  EXPECT_TRUE(FedConfig::Vf2Boost().Validate().ok());
  EXPECT_TRUE(FedConfig::VfMock().Validate().ok());
}

TEST(FedConfigTest, ValidateRejectsBadSettings) {
  FedConfig c;
  c.paillier_bits = 63;
  EXPECT_FALSE(c.Validate().ok());
  c = FedConfig{};
  c.paillier_bits = 30;
  EXPECT_FALSE(c.Validate().ok());
  c = FedConfig{};
  c.mock_crypto = true;
  c.paillier_bits = 30;  // irrelevant under mock
  EXPECT_TRUE(c.Validate().ok());
  c = FedConfig{};
  c.codec_base = 10;  // not a power of two
  EXPECT_FALSE(c.Validate().ok());
  c.codec_base = 1;
  EXPECT_FALSE(c.Validate().ok());
  c.codec_base = 2;
  EXPECT_TRUE(c.Validate().ok());
  c = FedConfig{};
  c.codec_num_exponents = 0;
  EXPECT_FALSE(c.Validate().ok());
  c = FedConfig{};
  c.codec_min_exponent = 14;
  c.codec_num_exponents = 6;  // exceeds mantissa-safe range
  EXPECT_FALSE(c.Validate().ok());
  c = FedConfig{};
  c.gbdt.num_trees = 0;
  EXPECT_FALSE(c.Validate().ok());
  c = FedConfig{};
  c.gbdt.max_bins = 1;
  EXPECT_FALSE(c.Validate().ok());
  c = FedConfig{};
  c.gbdt.learning_rate = 0;
  EXPECT_FALSE(c.Validate().ok());
  c = FedConfig{};
  c.blaster = true;
  c.blaster_batch = 0;
  EXPECT_FALSE(c.Validate().ok());
  c = FedConfig{};
  c.workers_per_party = 0;
  EXPECT_FALSE(c.Validate().ok());
  // GbdtTrainer-only options: no party engine implements them.
  auto expect_names = [](const FedConfig& bad, const std::string& field) {
    const Status st = bad.Validate();
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << field;
    EXPECT_NE(st.message().find(field), std::string::npos) << st.ToString();
  };
  c = FedConfig{};
  c.gbdt.row_subsample = 0.5;
  expect_names(c, "gbdt.row_subsample");
  c = FedConfig{};
  c.gbdt.col_subsample = 0.5;
  expect_names(c, "gbdt.col_subsample");
  c = FedConfig{};
  c.gbdt.early_stopping_rounds = 3;
  expect_names(c, "gbdt.early_stopping_rounds");
}

TEST(FedConfigTest, TrainerRejectsInvalidConfig) {
  FedConfig c;
  c.gbdt.num_trees = 0;
  Dataset dummy;
  EXPECT_FALSE(FedTrainer(c).Train({dummy, dummy}).ok());
}

TEST(MessageTest, AllTypeNamesResolve) {
  const auto last = static_cast<uint8_t>(MessageType::kHeartbeat);
  for (uint8_t t = 1; t <= last; ++t) {
    EXPECT_EQ(std::string(MessageTypeName(static_cast<MessageType>(t))) ==
                  "Unknown",
              t == 7)
        << int{t};
  }
  // 7 and 20-23 are retired: no name, and no frame decodes to them.
  for (uint8_t t : {7, 20, 21, 22, 23}) {
    EXPECT_STREQ(MessageTypeName(static_cast<MessageType>(t)), "Unknown")
        << int{t};
    Message retired{static_cast<MessageType>(t), {}};
    Message out{};
    EXPECT_EQ(DecodeFrame(EncodeFrame(retired), &out).code(),
              StatusCode::kCorruption)
        << int{t};
  }
}

TEST(MessageTest, MetricsDeltaFramesRoundTripOnTheWire) {
  EXPECT_STREQ(MessageTypeName(MessageType::kMetricsDelta), "MetricsDelta");
  Message msg{MessageType::kMetricsDelta, {1, 2, 3}};
  Message out{};
  ASSERT_TRUE(DecodeFrame(EncodeFrame(msg), &out).ok());
  EXPECT_EQ(out.type, MessageType::kMetricsDelta);
  EXPECT_EQ(out.payload, msg.payload);
  // Heartbeats (19) are the last live type; the first slot past the
  // retired 20-23 stays an unknown wire type too.
  Message beat{MessageType::kHeartbeat, {}};
  ASSERT_TRUE(DecodeFrame(EncodeFrame(beat), &out).ok());
  EXPECT_EQ(out.type, MessageType::kHeartbeat);
  Message bogus{static_cast<MessageType>(24), {}};
  EXPECT_FALSE(DecodeFrame(EncodeFrame(bogus), &out).ok());
}

TEST_F(PayloadRoundTripTest, MetricsDelta) {
  MetricsDeltaPayload payload;
  payload.party = 3;
  payload.seq = 41;
  payload.final_frame = true;

  obs::MetricSample counter;
  counter.name = "party_a3/hadds";
  counter.kind = obs::MetricSample::Kind::kCounter;
  counter.unit = "count";
  counter.value = 12345;
  payload.samples.push_back(counter);

  obs::MetricSample gauge;
  gauge.name = "party_a3/features";
  gauge.kind = obs::MetricSample::Kind::kGauge;
  gauge.unit = "features";
  gauge.value = 6.5;
  payload.samples.push_back(gauge);

  obs::MetricSample hist;
  hist.name = "party_a3/phase/build_hist";
  hist.kind = obs::MetricSample::Kind::kHistogram;
  hist.unit = "s";
  hist.count = 9;
  hist.sum = 1.25;
  hist.min = 0.01;
  hist.max = 0.5;
  hist.first_upper = 1e-6;
  hist.growth = 2.0;
  hist.buckets = {0, 1, 2, 3, 3};
  payload.samples.push_back(hist);

  Message msg = EncodeMetricsDelta(payload);
  EXPECT_EQ(msg.type, MessageType::kMetricsDelta);

  MetricsDeltaPayload out;
  ASSERT_TRUE(DecodeMetricsDelta(msg, &out).ok());
  EXPECT_EQ(out.party, 3u);
  EXPECT_EQ(out.seq, 41u);
  EXPECT_TRUE(out.final_frame);
  ASSERT_EQ(out.samples.size(), 3u);
  EXPECT_EQ(out.samples[0].name, "party_a3/hadds");
  EXPECT_EQ(out.samples[0].kind, obs::MetricSample::Kind::kCounter);
  EXPECT_DOUBLE_EQ(out.samples[0].value, 12345);
  EXPECT_EQ(out.samples[1].unit, "features");
  EXPECT_DOUBLE_EQ(out.samples[1].value, 6.5);
  EXPECT_EQ(out.samples[2].kind, obs::MetricSample::Kind::kHistogram);
  EXPECT_EQ(out.samples[2].count, 9u);
  EXPECT_DOUBLE_EQ(out.samples[2].sum, 1.25);
  EXPECT_DOUBLE_EQ(out.samples[2].growth, 2.0);
  EXPECT_EQ(out.samples[2].buckets, (std::vector<uint64_t>{0, 1, 2, 3, 3}));
}

TEST_F(PayloadRoundTripTest, MetricsDeltaRejectsGarbage) {
  Message wrong{MessageType::kTreeDone, {}};
  MetricsDeltaPayload out;
  EXPECT_FALSE(DecodeMetricsDelta(wrong, &out).ok());
  // Truncated payload must fail cleanly, not crash or over-allocate.
  MetricsDeltaPayload payload;
  payload.party = 0;
  payload.seq = 1;
  obs::MetricSample s;
  s.name = "x";
  payload.samples.push_back(s);
  Message msg = EncodeMetricsDelta(payload);
  msg.payload.resize(msg.payload.size() / 2);
  EXPECT_FALSE(DecodeMetricsDelta(msg, &out).ok());
}

TEST_F(PayloadRoundTripTest, GradBatchGhPacked) {
  FixedPointCodec codec(16, 8, 1);
  auto layout = MakeGhPackLayout(codec, /*max_count=*/1000, /*value_bound=*/1.0,
                                 backend_.plain_modulus().BitLength());
  ASSERT_TRUE(layout.ok());
  GradBatchPayload payload;
  payload.tree = 3;
  payload.start = 128;
  payload.gh = true;
  payload.gh_layout = layout.value();
  for (int i = 0; i < 10; ++i) {
    Cipher c;
    c.exponent = layout->exponent;
    c.data = backend_.EncryptRaw(
        EncodeGhPair(*layout, 0.1 * i - 0.5, 0.02 * i), &rng_);
    payload.gh_ciphers.push_back(c);
  }
  Message msg = EncodeGradBatch(payload, backend_);

  GradBatchPayload out;
  ASSERT_TRUE(DecodeGradBatch(msg, backend_, &out).ok());
  EXPECT_TRUE(out.gh);
  EXPECT_EQ(out.gh_layout.slot_bits, layout->slot_bits);
  EXPECT_EQ(out.gh_layout.count_bits, layout->count_bits);
  EXPECT_EQ(out.gh_layout.offset, layout->offset);
  EXPECT_EQ(out.gh_layout.exponent, layout->exponent);
  ASSERT_EQ(out.gh_ciphers.size(), 10u);
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(out.gh_ciphers[i].data, payload.gh_ciphers[i].data);
  }
  // A hostile layout descriptor (slot width inconsistent with its own
  // bounds) must be rejected at decode, before any accumulation happens.
  GradBatchPayload evil = payload;
  evil.gh_layout.slot_bits = 4;
  GradBatchPayload evil_out;
  EXPECT_FALSE(
      DecodeGradBatch(EncodeGradBatch(evil, backend_), backend_, &evil_out)
          .ok());
}

TEST_F(PayloadRoundTripTest, NodeHistogramGhRawAndPacked) {
  NodeHistogramPayload raw;
  raw.tree = 2;
  raw.layer = 1;
  raw.node = 5;
  raw.epoch = 0;
  raw.gh = true;
  raw.packed = false;
  for (int i = 0; i < 4; ++i) {
    Cipher c;
    c.exponent = 8;
    c.data = BigInt(static_cast<uint64_t>(1000 + i));
    raw.gh_bins.push_back(c);
  }
  NodeHistogramPayload raw_out;
  ASSERT_TRUE(
      DecodeNodeHistogram(EncodeNodeHistogram(raw, backend_), backend_,
                          &raw_out)
          .ok());
  EXPECT_TRUE(raw_out.gh);
  EXPECT_FALSE(raw_out.packed);
  ASSERT_EQ(raw_out.gh_bins.size(), 4u);
  EXPECT_EQ(raw_out.gh_bins[2].data, raw.gh_bins[2].data);
  EXPECT_TRUE(raw_out.g_bins.empty());

  NodeHistogramPayload packed;
  packed.tree = 2;
  packed.layer = 1;
  packed.node = 5;
  packed.epoch = 1;
  packed.gh = true;
  packed.packed = true;
  PackedCipher pc;
  pc.data = BigInt(static_cast<uint64_t>(77777));
  pc.exponent = 8;
  pc.slot_bits = 96;
  pc.num_slots = 3;
  packed.gh_packs.push_back(pc);
  NodeHistogramPayload packed_out;
  ASSERT_TRUE(
      DecodeNodeHistogram(EncodeNodeHistogram(packed, backend_), backend_,
                          &packed_out)
          .ok());
  EXPECT_TRUE(packed_out.gh);
  EXPECT_TRUE(packed_out.packed);
  ASSERT_EQ(packed_out.gh_packs.size(), 1u);
  EXPECT_EQ(packed_out.gh_packs[0].num_slots, 3u);
  EXPECT_EQ(packed_out.gh_packs[0].slot_bits, 96u);
}

TEST(FedConfigTest, FingerprintCoversGhPack) {
  // gh packing fixes the encoding exponent, so a resumed run that silently
  // flipped the knob would train a different model: the fingerprint must
  // move with it.
  FedConfig base = FedConfig::Vf2Boost();
  FedConfig off = base;
  off.gh_pack = false;
  EXPECT_NE(base.Fingerprint(), off.Fingerprint());
}

TEST(FedConfigTest, FingerprintIgnoresObservabilityKnobs) {
  FedConfig base = FedConfig::Vf2Boost();
  const uint64_t fp = base.Fingerprint();
  FedConfig ops = base;
  ops.ops_port = 9100;
  ops.federate_metrics = true;
  // Ops settings must not invalidate checkpoints: a run resumed with live
  // endpoints enabled trains the same model.
  EXPECT_EQ(ops.Fingerprint(), fp);
  FedConfig other = base;
  other.gbdt.num_trees += 1;
  EXPECT_NE(other.Fingerprint(), fp);
}

}  // namespace
}  // namespace vf2boost

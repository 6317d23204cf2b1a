// Failure-injection tests: every cross-party decoder and the model parser
// must turn arbitrary or corrupted bytes into a clean Status — never UB,
// crashes, or huge allocations. (In a cross-enterprise deployment the wire
// is a trust boundary.)

#include <gtest/gtest.h>

#include "crypto/backend.h"
#include "fed/checkpoint.h"
#include "fed/placement.h"
#include "fed/protocol.h"
#include "gbdt/model_io.h"

namespace vf2boost {
namespace {

std::vector<uint8_t> RandomBytes(Rng* rng, size_t max_len) {
  std::vector<uint8_t> out(rng->NextBounded(max_len + 1));
  for (uint8_t& b : out) out[&b - out.data()] = static_cast<uint8_t>(rng->NextU64());
  return out;
}

TEST(DecoderFuzzTest, RandomPayloadsNeverCrash) {
  MockBackend backend;
  Rng rng(0xF00D);
  for (int trial = 0; trial < 3000; ++trial) {
    Message msg;
    msg.payload = RandomBytes(&rng, 200);

    msg.type = MessageType::kGradBatch;
    GradBatchPayload grads;
    (void)DecodeGradBatch(msg, backend, &grads);

    msg.type = MessageType::kNodeHistogram;
    NodeHistogramPayload hist;
    (void)DecodeNodeHistogram(msg, backend, &hist);

    msg.type = MessageType::kDecisions;
    DecisionsPayload decisions;
    (void)DecodeDecisions(msg, &decisions);

    msg.type = MessageType::kPlacement;
    PlacementPayload placement;
    (void)DecodePlacement(msg, &placement);

    msg.type = MessageType::kLayout;
    LayoutPayload layout;
    (void)DecodeLayout(msg, &layout);
  }
  SUCCEED();
}

TEST(DecoderFuzzTest, TruncatedValidMessagesReturnCorruption) {
  MockBackend backend;
  Rng rng(0xBEEF);
  // Build a valid grad batch, then decode every possible truncation.
  GradBatchPayload payload;
  payload.tree = 3;
  payload.start = 0;
  for (int i = 0; i < 4; ++i) {
    payload.g.push_back(backend.Encrypt(0.5, &rng));
    payload.h.push_back(backend.Encrypt(0.25, &rng));
  }
  Message full = EncodeGradBatch(payload, backend);
  for (size_t len = 0; len < full.payload.size(); ++len) {
    Message cut;
    cut.type = full.type;
    cut.payload.assign(full.payload.begin(), full.payload.begin() + len);
    GradBatchPayload out;
    Status s = DecodeGradBatch(cut, backend, &out);
    EXPECT_FALSE(s.ok()) << "truncation at " << len << " decoded";
  }
  // The untruncated message decodes.
  GradBatchPayload out;
  EXPECT_TRUE(DecodeGradBatch(full, backend, &out).ok());
  EXPECT_EQ(out.g.size(), 4u);
}

TEST(DecoderFuzzTest, BitFlippedDecisionsAreStatusNotCrash) {
  DecisionsPayload payload;
  payload.tree = 1;
  payload.layer = 2;
  NodeDecision d;
  d.node = 0;
  d.action = NodeAction::kSplitResolved;
  d.left = 1;
  d.right = 2;
  d.placement = Bitmap(100);
  payload.decisions.push_back(d);
  Message base = EncodeDecisions(payload, MessageType::kDecisions);

  Rng rng(0xAB);
  for (int trial = 0; trial < 2000; ++trial) {
    Message mutated = base;
    const size_t pos = rng.NextBounded(mutated.payload.size());
    mutated.payload[pos] ^= static_cast<uint8_t>(1 + rng.NextBounded(255));
    DecisionsPayload out;
    (void)DecodeDecisions(mutated, &out);  // any Status is fine; no crash
  }
  SUCCEED();
}

TEST(ModelFuzzTest, MutatedModelTextNeverCrashes) {
  // A real model, then random character mutations.
  const std::string base =
      "vf2boost-model-v1\nobjective logistic\nlearning_rate 0.1\n"
      "base_score 0\nnum_trees 1\ntree 3\n"
      "1 2 0 0.5 3 1 -1 0 1.25\n"
      "-1 -1 0 0 0 1 -1 0.7 0\n"
      "-1 -1 0 0 0 1 -1 -0.7 0\n";
  {
    auto ok = ModelFromString(base);
    ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  }
  Rng rng(0xCD);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string mutated = base;
    const size_t edits = 1 + rng.NextBounded(4);
    for (size_t e = 0; e < edits; ++e) {
      const size_t pos = rng.NextBounded(mutated.size());
      mutated[pos] = static_cast<char>(' ' + rng.NextBounded(95));
    }
    auto result = ModelFromString(mutated);
    if (result.ok()) {
      // If it parsed, it must be structurally safe to evaluate (joint
      // models only — federated skeletons are a documented precondition).
      bool joint = true;
      for (const Tree& tree : result->trees) {
        for (size_t i = 0; i < tree.size(); ++i) {
          joint &= tree.node(static_cast<int32_t>(i)).owner_party < 0;
        }
      }
      if (!joint) continue;
      auto m = CsrMatrix::FromRows({{{0, 1.0f}}}, 8);
      ASSERT_TRUE(m.ok());
      (void)result->PredictRaw(m.value());
    }
  }
  SUCCEED();
}

TEST(FrameFuzzTest, RandomFrameBytesNeverDecode) {
  Rng rng(0x11AA);
  Message out;
  for (int trial = 0; trial < 3000; ++trial) {
    // Random bytes have a ~2^-32 chance of passing the CRC; every decode
    // must return a clean Status either way.
    (void)DecodeFrame(RandomBytes(&rng, 64), &out);
  }
  SUCCEED();
}

TEST(FrameFuzzTest, EverySingleByteFlipOfAValidFrameIsRejected) {
  Message m;
  m.type = MessageType::kGradBatch;
  m.payload = {1, 2, 3, 4, 5, 6, 7, 8};
  const std::vector<uint8_t> good = EncodeFrame(m);
  for (size_t pos = 0; pos < good.size(); ++pos) {
    for (uint8_t bit = 0; bit < 8; ++bit) {
      std::vector<uint8_t> bad = good;
      bad[pos] ^= static_cast<uint8_t>(1u << bit);
      Message out;
      const Status st = DecodeFrame(bad, &out);
      EXPECT_FALSE(st.ok()) << "flip at byte " << pos << " bit " << int(bit)
                            << " decoded";
    }
  }
  // Truncations of the valid frame are also rejected.
  for (size_t len = 0; len < good.size(); ++len) {
    std::vector<uint8_t> cut(good.begin(), good.begin() + len);
    Message out;
    EXPECT_FALSE(DecodeFrame(cut, &out).ok()) << "truncation at " << len;
  }
}

TEST(FrameFuzzTest, HostileHelloPayloadsReturnStatus) {
  Rng rng(0x22BB);
  for (int trial = 0; trial < 2000; ++trial) {
    Message msg;
    msg.type = MessageType::kHello;
    msg.payload = RandomBytes(&rng, 48);
    HelloPayload out;
    (void)DecodeHello(msg, &out);  // any Status is fine; no crash
  }
  // A valid hello round-trips; every truncation is rejected.
  HelloPayload hello;
  hello.session_id = 0xabcdef01;
  hello.party = 2;
  hello.config_fingerprint = 0x1122334455667788ULL;
  hello.clock_micros = 17;
  Message full = EncodeHello(hello);
  HelloPayload back;
  ASSERT_TRUE(DecodeHello(full, &back).ok());
  EXPECT_EQ(back.session_id, hello.session_id);
  EXPECT_EQ(back.party, hello.party);
  EXPECT_EQ(back.config_fingerprint, hello.config_fingerprint);
  EXPECT_EQ(back.clock_micros, hello.clock_micros);
  for (size_t len = 0; len < full.payload.size(); ++len) {
    Message cut;
    cut.type = full.type;
    cut.payload.assign(full.payload.begin(), full.payload.begin() + len);
    EXPECT_FALSE(DecodeHello(cut, &back).ok()) << "truncation at " << len;
  }
}

TEST(CheckpointFuzzTest, RandomCheckpointBytesNeverCrashOrOverallocate) {
  Rng rng(0x33CC);
  for (int trial = 0; trial < 2000; ++trial) {
    const std::vector<uint8_t> bytes = RandomBytes(&rng, 256);
    PartyBCheckpoint b;
    (void)DeserializePartyBCheckpoint(bytes, &b);
  }
  SUCCEED();
}

TEST(CheckpointFuzzTest, BitFlippedCheckpointsAreRejected) {
  PartyBCheckpoint ckpt;
  ckpt.config_fingerprint = 42;
  ckpt.completed_trees = 1;
  ckpt.base_score = 0.5;
  Tree tree;
  tree.node(0).weight = 1.25;
  ckpt.trees.push_back(tree);
  ckpt.scores = {0.5, -0.25};
  const std::vector<uint8_t> good = SerializePartyBCheckpoint(ckpt);
  {
    PartyBCheckpoint out;
    ASSERT_TRUE(DeserializePartyBCheckpoint(good, &out).ok());
  }
  Rng rng(0x44DD);
  size_t rejected = 0;
  const int kTrials = 1000;
  for (int trial = 0; trial < kTrials; ++trial) {
    std::vector<uint8_t> bad = good;
    const size_t pos = rng.NextBounded(bad.size());
    bad[pos] ^= static_cast<uint8_t>(1 + rng.NextBounded(255));
    PartyBCheckpoint out;
    if (!DeserializePartyBCheckpoint(bad, &out).ok()) ++rejected;
  }
  // The container CRC covers the payload, so every payload flip and almost
  // every header flip must be caught.
  EXPECT_EQ(rejected, static_cast<size_t>(kTrials));
}

TEST(BitmapFuzzTest, HostileBitmapHeadersRejected) {
  Rng rng(0xEF);
  for (int trial = 0; trial < 1000; ++trial) {
    ByteWriter w;
    w.PutU64(rng.NextU64());  // arbitrary bit count
    w.PutU64(rng.NextBounded(4));
    for (int i = 0; i < 3; ++i) w.PutU64(rng.NextU64());
    ByteReader r(w.data());
    Bitmap bitmap;
    (void)DeserializeBitmap(&r, &bitmap);  // must not allocate absurdly
  }
  SUCCEED();
}

}  // namespace
}  // namespace vf2boost

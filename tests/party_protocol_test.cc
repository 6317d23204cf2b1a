// Scripted-peer tests of the party engines: one real engine talks to a test
// thread that plays the other party frame by frame, so hostile or
// inconsistent frames can be sent at exact points of the protocol.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <thread>

#include "common/bytes.h"
#include "data/synthetic.h"
#include "fed/channel.h"
#include "fed/party_a.h"
#include "fed/party_b.h"
#include "fed/placement.h"

namespace vf2boost {
namespace {

constexpr double kDeadlineSeconds = 10;

FedConfig MockConfig() {
  FedConfig config;
  config.mock_crypto = true;
  config.gbdt.num_trees = 1;
  config.gbdt.num_layers = 4;
  config.gbdt.max_bins = 8;
  return config;
}

Dataset SmallData(size_t rows, size_t cols) {
  SyntheticSpec spec;
  spec.rows = rows;
  spec.cols = cols;
  spec.density = 1.0;
  spec.seed = 5;
  return GenerateSynthetic(spec);
}

NetworkConfig WithDeadline() {
  NetworkConfig net;
  net.default_deadline_seconds = kDeadlineSeconds;
  return net;
}

// ---------------------------------------------------------------------------
// Party A against a scripted B
// ---------------------------------------------------------------------------

/// What the hostile frame carries, given the layout A announced, and
/// whether it comes after the tree's kTreeDone instead of inside the tree.
struct HostileCase {
  const char* name;
  MessageType type;
  std::function<Message(const LayoutPayload&)> frame;
  bool after_tree = false;
};

Message Decisions(MessageType type, NodeDecision d) {
  DecisionsPayload p;
  p.layer = 0;
  p.decisions.push_back(std::move(d));
  return EncodeDecisions(p, type);
}

NodeDecision Resolved(int32_t node) {
  NodeDecision d;
  d.node = node;
  d.action = NodeAction::kSplitResolved;
  d.left = 1;
  d.right = 2;
  return d;
}

NodeDecision Query(int32_t node, uint32_t feature, uint32_t bin) {
  NodeDecision d;
  d.node = node;
  d.action = NodeAction::kSplitQuery;
  d.left = 1;
  d.right = 2;
  d.feature = feature;
  d.bin = bin;
  return d;
}

uint32_t NumFeatures(const LayoutPayload& l) {
  return static_cast<uint32_t>(l.bins_per_feature.size());
}
uint32_t LastBin(const LayoutPayload& l) {
  return static_cast<uint32_t>(l.bins_per_feature[0] - 1);
}

class PartyAHostileFrameTest : public ::testing::TestWithParam<HostileCase> {};

TEST_P(PartyAHostileFrameTest, EndsWithProtocolError) {
  const FedConfig config = MockConfig();
  const Dataset data = SmallData(64, 4);
  auto [a_end, b_end] = ChannelEndpoint::CreatePair(WithDeadline());
  PartyAEngine engine(config, data, a_end.get(), /*party_index=*/0);
  Status a_status;
  std::thread a_thread([&] { a_status = engine.Run(); });

  // Scripted B: setup, one gradient batch, then the hostile frame once A
  // has sent the root histogram (and, for an after-tree case, once B has
  // ended the tree).
  b_end->Send(Message{MessageType::kPublicKey, {}});
  Result<Message> layout_msg = b_end->Receive();
  ASSERT_TRUE(layout_msg.ok()) << layout_msg.status().ToString();
  ASSERT_EQ(layout_msg->type, MessageType::kLayout);
  LayoutPayload layout;
  ASSERT_TRUE(DecodeLayout(*layout_msg, &layout).ok());
  ASSERT_GT(NumFeatures(layout), 0u);

  MockBackend backend(config.MakeCodec());
  Rng rng(1);
  GradBatchPayload grads;
  for (size_t i = 0; i < data.rows(); ++i) {
    grads.g.push_back(backend.Encrypt(0.25, &rng));
    grads.h.push_back(backend.Encrypt(0.5, &rng));
  }
  b_end->Send(EncodeGradBatch(grads, backend));
  Result<Message> hist = b_end->Receive();
  ASSERT_TRUE(hist.ok()) << hist.status().ToString();
  ASSERT_EQ(hist->type, MessageType::kNodeHistogram);
  if (GetParam().after_tree) b_end->Send(Message{MessageType::kTreeDone, {}});

  Message hostile = GetParam().frame(layout);
  ASSERT_EQ(hostile.type, GetParam().type);
  b_end->Send(std::move(hostile));
  a_thread.join();
  EXPECT_EQ(a_status.code(), StatusCode::kProtocolError)
      << a_status.ToString();
  // A replied to nothing: the next thing B sees is A's error close.
  Result<Message> after = b_end->Receive();
  EXPECT_FALSE(after.ok()) << MessageTypeName(after->type);
}

INSTANTIATE_TEST_SUITE_P(
    Frames, PartyAHostileFrameTest,
    ::testing::Values(
        HostileCase{"DecisionsUnknownNode", MessageType::kDecisions,
                    [](const LayoutPayload&) {
                      return Decisions(MessageType::kDecisions, Resolved(7));
                    }},
        HostileCase{"OptPlacementsUnknownNode", MessageType::kOptPlacements,
                    [](const LayoutPayload&) {
                      return Decisions(MessageType::kOptPlacements,
                                       Resolved(7));
                    }},
        HostileCase{"SplitQueriesUnknownNode", MessageType::kSplitQueries,
                    [](const LayoutPayload&) {
                      return Decisions(MessageType::kSplitQueries,
                                       Query(7, 0, 0));
                    }},
        HostileCase{"SplitQueriesFeatureOutOfRange",
                    MessageType::kSplitQueries,
                    [](const LayoutPayload& l) {
                      return Decisions(MessageType::kSplitQueries,
                                       Query(0, NumFeatures(l), 0));
                    }},
        HostileCase{"SplitQueriesBinOutOfRange", MessageType::kSplitQueries,
                    [](const LayoutPayload& l) {
                      return Decisions(MessageType::kSplitQueries,
                                       Query(0, 0, LastBin(l)));
                    }},
        HostileCase{"SplitQueriesMaxBin", MessageType::kSplitQueries,
                    [](const LayoutPayload&) {
                      return Decisions(MessageType::kSplitQueries,
                                       Query(0, 0, UINT32_MAX));
                    }},
        HostileCase{"QueryInsideOptPlacements", MessageType::kOptPlacements,
                    [](const LayoutPayload&) {
                      return Decisions(MessageType::kOptPlacements,
                                       Query(0, 0, 0));
                    }},
        HostileCase{"QueryInsideDecisions", MessageType::kDecisions,
                    [](const LayoutPayload&) {
                      return Decisions(MessageType::kDecisions,
                                       Query(0, 0, 0));
                    }},
        // 7 once carried optimistic verdicts; the value is retired.
        HostileCase{"RetiredType7", static_cast<MessageType>(7),
                    [](const LayoutPayload&) {
                      return Message{static_cast<MessageType>(7), {1, 2}};
                    }},
        // B's key opens a link generation; anywhere else it is hostile, be
        // it inside a tree or at a tree boundary on the same link.
        HostileCase{"PublicKeyMidTree", MessageType::kPublicKey,
                    [](const LayoutPayload&) {
                      return Message{MessageType::kPublicKey, {}};
                    }},
        HostileCase{"PublicKeyAtTreeBoundary", MessageType::kPublicKey,
                    [](const LayoutPayload&) {
                      return Message{MessageType::kPublicKey, {}};
                    },
                    /*after_tree=*/true}),
    [](const ::testing::TestParamInfo<HostileCase>& info) {
      return std::string(info.param.name);
    });

// Real crypto: A builds its backend from B's key bytes, so a malformed key
// must end A's run with an error rather than abort the process. (Mock crypto
// ignores the key payload.)
TEST(PartyAKeyTest, EvenPaillierModulusEndsRun) {
  FedConfig config = MockConfig();
  config.mock_crypto = false;
  const Dataset data = SmallData(64, 4);
  auto [a_end, b_end] = ChannelEndpoint::CreatePair(WithDeadline());
  PartyAEngine engine(config, data, a_end.get(), /*party_index=*/0);
  Status a_status;
  std::thread a_thread([&] { a_status = engine.Run(); });

  ByteWriter key;
  key.PutU64Vector({(uint64_t{1} << 36) | 0x2468});  // 37-bit even modulus
  b_end->Send(Message{MessageType::kPublicKey, key.data()});
  a_thread.join();
  EXPECT_EQ(a_status.code(), StatusCode::kCorruption) << a_status.ToString();
  // A sent no layout: the next thing B sees is A's error close.
  Result<Message> after = b_end->Receive();
  EXPECT_FALSE(after.ok()) << MessageTypeName(after->type);
}

/// A hostile gradient stream: the batches B sends for the first tree, and
/// the code A's run must end with.
struct GradStreamCase {
  const char* name;
  std::function<std::vector<GradBatchPayload>(const CipherBackend&, size_t)>
      batches;
  StatusCode expected = StatusCode::kProtocolError;
};

// Classic g/h batch of rows [start, start + count).
GradBatchPayload ClassicBatch(const CipherBackend& backend, size_t start,
                              size_t count) {
  Rng rng(start + 1);
  GradBatchPayload p;
  p.start = start;
  for (size_t i = 0; i < count; ++i) {
    p.g.push_back(backend.Encrypt(0.25, &rng));
    p.h.push_back(backend.Encrypt(0.5, &rng));
  }
  return p;
}

GradBatchPayload GhBatch(const CipherBackend& backend, size_t rows) {
  auto layout = MakeGhPackLayout(backend.codec(), rows, /*value_bound=*/1.0,
                                 backend.plain_modulus().BitLength());
  EXPECT_TRUE(layout.ok()) << layout.status().ToString();
  Rng rng(1);
  GradBatchPayload p;
  p.gh = true;
  p.gh_layout = layout.value();
  for (size_t i = 0; i < rows; ++i) {
    Cipher c;
    c.exponent = p.gh_layout.exponent;
    c.data = backend.EncryptRaw(EncodeGhPair(p.gh_layout, 0.25, 0.5), &rng);
    p.gh_ciphers.push_back(std::move(c));
  }
  return p;
}

class PartyAGradStreamTest : public ::testing::TestWithParam<GradStreamCase> {
};

TEST_P(PartyAGradStreamTest, EndsRunWithError) {
  FedConfig config = MockConfig();
  config.reordered = true;
  const Dataset data = SmallData(64, 4);
  auto [a_end, b_end] = ChannelEndpoint::CreatePair(WithDeadline());
  PartyAEngine engine(config, data, a_end.get(), /*party_index=*/0);
  Status a_status;
  std::thread a_thread([&] { a_status = engine.Run(); });

  b_end->Send(Message{MessageType::kPublicKey, {}});
  Result<Message> layout_msg = b_end->Receive();
  ASSERT_TRUE(layout_msg.ok()) << layout_msg.status().ToString();
  ASSERT_EQ(layout_msg->type, MessageType::kLayout);

  MockBackend backend(config.MakeCodec());
  for (const GradBatchPayload& batch : GetParam().batches(backend, 64)) {
    b_end->Send(EncodeGradBatch(batch, backend));
  }
  a_thread.join();
  EXPECT_EQ(a_status.code(), GetParam().expected) << a_status.ToString();
  // No root histogram: the next thing B sees is A's error close.
  Result<Message> after = b_end->Receive();
  EXPECT_FALSE(after.ok()) << MessageTypeName(after->type);
}

INSTANTIATE_TEST_SUITE_P(
    Streams, PartyAGradStreamTest,
    ::testing::Values(
        // Rows [0, 32) twice: as many rows as the tree has, half of them
        // never sent.
        GradStreamCase{"RepeatedBatch",
                       [](const CipherBackend& b, size_t) {
                         return std::vector<GradBatchPayload>{
                             ClassicBatch(b, 0, 32), ClassicBatch(b, 0, 32)};
                       }},
        GradStreamCase{"SkippedRows",
                       [](const CipherBackend& b, size_t) {
                         return std::vector<GradBatchPayload>{
                             ClassicBatch(b, 0, 16), ClassicBatch(b, 32, 32)};
                       }},
        // Outside the codec's range: DeserializeCipher refuses it.
        GradStreamCase{"ClassicExponentOutOfRange",
                       [](const CipherBackend& b, size_t rows) {
                         GradBatchPayload p = ClassicBatch(b, 0, rows);
                         p.g[5].exponent = b.codec().max_exponent() + 1;
                         return std::vector<GradBatchPayload>{p};
                       },
                       StatusCode::kCorruption},
        // Inside the codec's range, but not the layout's exponent.
        GradStreamCase{"GhExponentOffLayout",
                       [](const CipherBackend& b, size_t rows) {
                         GradBatchPayload p = GhBatch(b, rows);
                         p.gh_ciphers[5].exponent = p.gh_layout.exponent + 1;
                         return std::vector<GradBatchPayload>{p};
                       }}),
    [](const ::testing::TestParamInfo<GradStreamCase>& info) {
      return std::string(info.param.name);
    });

// ---------------------------------------------------------------------------
// Party B against a scripted, relaunched A
// ---------------------------------------------------------------------------

/// A resilient port over two prepared links: Reestablish moves to the second
/// one, where B runs the setup exchange again as on every new link. Used by
/// B's engine thread only.
class RelaunchPort : public MessagePort {
 public:
  RelaunchPort(ChannelEndpoint* first, ChannelEndpoint* second)
      : current_(first), next_(second) {}

  bool Send(Message msg) override { return current_->Send(std::move(msg)); }
  Result<Message> Receive() override { return current_->Receive(); }
  void Close(Status status) override { current_->Close(std::move(status)); }
  bool closed() const override { return current_->closed(); }
  ChannelStats sent_stats() const override { return current_->sent_stats(); }
  bool resilient() const override { return true; }
  Result<HelloPayload> Reestablish() override {
    if (next_ == nullptr) return Status::Unavailable("no second link");
    current_ = next_;
    next_ = nullptr;
    return HelloPayload{};
  }

 private:
  ChannelEndpoint* current_;
  ChannelEndpoint* next_;
};

constexpr uint64_t kCutsDigest = 0x5eed;

Message Layout(std::vector<uint64_t> bins,
               uint64_t cuts_digest = kCutsDigest) {
  LayoutPayload p;
  p.bins_per_feature = std::move(bins);
  p.cuts_digest = cuts_digest;
  return EncodeLayout(p);
}

// Plays A up to B's first gradient batch, kills that link, then answers B's
// setup exchange on the second link with `relaunch_bins` and
// `relaunch_digest`. Returns B's status.
Status RunBAgainstRelaunchedA(std::vector<uint64_t> relaunch_bins,
                              uint64_t relaunch_digest = kCutsDigest) {
  FedConfig config = MockConfig();
  const Dataset data = SmallData(64, 3);
  auto [a1, b1] = ChannelEndpoint::CreatePair(WithDeadline());
  auto [a2, b2] = ChannelEndpoint::CreatePair(WithDeadline());
  RelaunchPort port(b1.get(), b2.get());
  PartyBEngine engine(config, data, {&port});
  Status b_status;
  std::thread b_thread([&] { b_status = engine.Run().status(); });

  auto expect = [](ChannelEndpoint* end, MessageType type) {
    Result<Message> msg = end->Receive();
    EXPECT_TRUE(msg.ok()) << msg.status().ToString();
    if (msg.ok()) {
      EXPECT_EQ(msg->type, type) << MessageTypeName(msg->type);
    }
  };
  expect(a1.get(), MessageType::kPublicKey);
  a1->Send(Layout({4, 4}));
  expect(a1.get(), MessageType::kGradBatch);
  a1->Close(Status::Unavailable("link lost"));

  expect(a2.get(), MessageType::kPublicKey);  // the new link's setup
  a2->Send(Layout(std::move(relaunch_bins), relaunch_digest));
  // B either refuses the layout (and closes the link) or carries on with
  // the tree; end the run either way.
  Result<Message> next = a2->Receive();
  if (next.ok()) a2->Close(Status::Internal("B accepted the layout"));
  b_thread.join();
  return b_status;
}

TEST(PartyBRelaunchTest, RefusesSameFeatureCountWithDifferentBins) {
  // Same feature count and the same total bin count as the original {4, 4}.
  Status st = RunBAgainstRelaunchedA({3, 5});
  EXPECT_EQ(st.code(), StatusCode::kProtocolError) << st.ToString();
  EXPECT_NE(st.message().find("different feature layout"), std::string::npos)
      << st.ToString();
}

TEST(PartyBRelaunchTest, RefusesSameBinsWithDifferentCuts) {
  // Same bin counts as the original {4, 4}, but other cut values: another
  // shard that bins alike.
  Status st = RunBAgainstRelaunchedA({4, 4}, kCutsDigest + 1);
  EXPECT_EQ(st.code(), StatusCode::kProtocolError) << st.ToString();
  EXPECT_NE(st.message().find("different feature layout"), std::string::npos)
      << st.ToString();
}

TEST(PartyBRelaunchTest, RefusesOutOfRangeBinCount) {
  Status st = RunBAgainstRelaunchedA({0, 8});
  EXPECT_EQ(st.code(), StatusCode::kProtocolError) << st.ToString();
  EXPECT_NE(st.message().find("bad bin count"), std::string::npos)
      << st.ToString();
}

TEST(PartyBRelaunchTest, AcceptsTheOriginalLayout) {
  // Control: the replayed layout matches, so B goes on to stream the tree's
  // gradients and only fails when the scripted peer gives up.
  Status st = RunBAgainstRelaunchedA({4, 4});
  EXPECT_EQ(st.code(), StatusCode::kInternal) << st.ToString();
}


// ---------------------------------------------------------------------------
// Party B against a scripted A
// ---------------------------------------------------------------------------

/// A hostile frame from a scripted A. The script announces one feature with
/// two bins that splits the rows by label, so its split beats any of B's and
/// B asks it for the placement. A always answers with a classic raw root
/// histogram: on a gh-packed stream that histogram is the hostile frame.
struct BHostileCase {
  const char* name;
  bool gh_stream;  ///< B streams gh-packed gradients
  /// Edits the histogram before A sends it (null: send it as built).
  std::function<void(NodeHistogramPayload*)> hist;
  /// Edits A's placement reply to B's split query (null: B must fail before
  /// it queries).
  std::function<void(PlacementPayload*)> placement;
  const char* error;  ///< expected in B's status message
};

class PartyBHostileFrameTest : public ::testing::TestWithParam<BHostileCase> {
};

TEST_P(PartyBHostileFrameTest, EndsWithProtocolError) {
  const BHostileCase& c = GetParam();
  FedConfig config = MockConfig();
  config.gh_pack = c.gh_stream;
  const Dataset data = SmallData(64, 3);
  auto [a_end, b_end] = ChannelEndpoint::CreatePair(WithDeadline());
  PartyBEngine engine(config, data, {b_end.get()});
  Status b_status;
  std::thread b_thread([&] { b_status = engine.Run().status(); });

  Result<Message> key = a_end->Receive();
  ASSERT_TRUE(key.ok()) << key.status().ToString();
  ASSERT_EQ(key->type, MessageType::kPublicKey);
  a_end->Send(Layout({2}));
  Result<Message> grad_msg = a_end->Receive();
  ASSERT_TRUE(grad_msg.ok()) << grad_msg.status().ToString();
  ASSERT_EQ(grad_msg->type, MessageType::kGradBatch);
  MockBackend backend(config.MakeCodec());
  GradBatchPayload grads;
  ASSERT_TRUE(DecodeGradBatch(*grad_msg, backend, &grads).ok());
  ASSERT_EQ(grads.gh, c.gh_stream);

  // Bin 0 holds the positive rows, bin 1 the rest.
  double g[2] = {0, 0};
  double h[2] = {0, 0};
  Bitmap left(data.rows());
  for (size_t i = 0; i < data.rows(); ++i) {
    const size_t bin = data.labels[i] > 0.5 ? 0 : 1;
    if (bin == 0) left.Set(i);
    if (grads.gh) {
      Result<GhSlots> row = DecodeGhSlots(
          grads.gh_layout, backend.DecryptRaw(grads.gh_ciphers[i].data));
      ASSERT_TRUE(row.ok()) << row.status().ToString();
      g[bin] += row->g;
      h[bin] += row->h;
    } else {
      g[bin] += backend.Decrypt(grads.g[i]);
      h[bin] += backend.Decrypt(grads.h[i]);
    }
  }
  Rng rng(3);
  NodeHistogramPayload hist;
  for (size_t bin = 0; bin < 2; ++bin) {
    hist.g_bins.push_back(backend.Encrypt(g[bin], &rng));
    hist.h_bins.push_back(backend.Encrypt(h[bin], &rng));
  }
  if (c.hist) c.hist(&hist);
  a_end->Send(EncodeNodeHistogram(hist, backend));

  if (c.placement) {
    Result<Message> query = a_end->Receive();
    ASSERT_TRUE(query.ok()) << query.status().ToString();
    ASSERT_EQ(query->type, MessageType::kSplitQueries)
        << MessageTypeName(query->type);
    PlacementPayload reply;
    reply.placement = std::move(left);
    c.placement(&reply);
    a_end->Send(EncodePlacement(reply));
  }
  // B either refuses the frame (and closes the link) or carries on; end the
  // run either way.
  Result<Message> next = a_end->Receive();
  if (next.ok()) a_end->Close(Status::Internal("B accepted the frame"));
  b_thread.join();
  EXPECT_EQ(b_status.code(), StatusCode::kProtocolError)
      << b_status.ToString();
  EXPECT_NE(b_status.message().find(c.error), std::string::npos)
      << b_status.ToString();
}

INSTANTIATE_TEST_SUITE_P(
    Frames, PartyBHostileFrameTest,
    ::testing::Values(
        BHostileCase{"HistogramWrongLayer", false,
                     [](NodeHistogramPayload* h) { h->layer = 1; }, nullptr,
                     "wrong layer"},
        BHostileCase{"HistogramFromFutureEpoch", false,
                     [](NodeHistogramPayload* h) { h->epoch = 1; }, nullptr,
                     "from the future"},
        BHostileCase{"HistogramUnknownNode", false,
                     [](NodeHistogramPayload* h) { h->node = 7; }, nullptr,
                     "unknown node"},
        BHostileCase{"GhHistogramOnClassicStream", false,
                     [](NodeHistogramPayload* h) {
                       h->gh = true;
                       h->gh_bins = std::move(h->g_bins);
                       h->g_bins.clear();
                       h->h_bins.clear();
                     },
                     nullptr, "gh-packed histogram on an unpacked"},
        BHostileCase{"ClassicHistogramOnGhStream", true, nullptr, nullptr,
                     "classic histogram on a gh-packed"},
        BHostileCase{"PlacementWrongNode", false, nullptr,
                     [](PlacementPayload* p) { p->node = 5; },
                     "placement for wrong node"},
        BHostileCase{"PlacementWrongSize", false, nullptr,
                     [](PlacementPayload* p) {
                       p->placement = Bitmap(p->placement.size() - 1);
                     },
                     "placement size mismatch"}),
    [](const ::testing::TestParamInfo<BHostileCase>& info) {
      return std::string(info.param.name);
    });

// ---------------------------------------------------------------------------
// Party B's sibling subtraction against a scripted A
// ---------------------------------------------------------------------------

/// What the scripted A sends for the root's two children: the histogram of
/// the child B expects (`derived_node` false) or of the child B derives,
/// its bins `child_exponent_step` above the root's exponent.
struct ChildHistCase {
  const char* name;
  bool derived_node;
  int child_exponent_step;
  const char* error;  ///< expected in B's status message; null: B carries on
};

class PartyBChildHistogramTest
    : public ::testing::TestWithParam<ChildHistCase> {};

TEST_P(PartyBChildHistogramTest, OneHistogramPerSplit) {
  const ChildHistCase& c = GetParam();
  FedConfig config = MockConfig();
  const Dataset data = SmallData(64, 3);
  auto [a_end, b_end] = ChannelEndpoint::CreatePair(WithDeadline());
  PartyBEngine engine(config, data, {b_end.get()});
  Status b_status;
  std::thread b_thread([&] { b_status = engine.Run().status(); });

  auto receive = [&](MessageType type) -> Message {
    Result<Message> msg = a_end->Receive();
    EXPECT_TRUE(msg.ok()) << msg.status().ToString();
    if (!msg.ok()) return Message{MessageType::kTreeDone, {}};
    EXPECT_EQ(msg->type, type) << MessageTypeName(msg->type);
    return std::move(msg).value();
  };
  receive(MessageType::kPublicKey);
  a_end->Send(Layout({2}));
  MockBackend backend(config.MakeCodec());
  GradBatchPayload grads;
  ASSERT_TRUE(
      DecodeGradBatch(receive(MessageType::kGradBatch), backend, &grads).ok());

  // One feature, two bins: bin 0 holds the positive rows, so the feature
  // splits the rows by label, beats B's own splits, and its left child is
  // exactly bin 0. Every bin is encoded at one fixed exponent.
  const int root_exponent = backend.codec().min_exponent();
  double g[2] = {0, 0};
  double h[2] = {0, 0};
  Bitmap left(data.rows());
  for (size_t i = 0; i < data.rows(); ++i) {
    const size_t bin = data.labels[i] > 0.5 ? 0 : 1;
    if (bin == 0) left.Set(i);
    g[bin] += backend.Decrypt(grads.g[i]);
    h[bin] += backend.Decrypt(grads.h[i]);
  }
  auto histogram = [&](int32_t node, uint32_t layer, int exponent,
                       const double* gs, const double* hs) {
    Rng rng(static_cast<uint64_t>(node) + 3);
    NodeHistogramPayload p;
    p.layer = layer;
    p.node = node;
    for (size_t bin = 0; bin < 2; ++bin) {
      p.g_bins.push_back(backend.EncryptAt(gs[bin], exponent, &rng));
      p.h_bins.push_back(backend.EncryptAt(hs[bin], exponent, &rng));
    }
    return EncodeNodeHistogram(p, backend);
  };
  a_end->Send(histogram(0, 0, root_exponent, g, h));
  receive(MessageType::kSplitQueries);
  PlacementPayload reply;
  reply.placement = left;
  a_end->Send(EncodePlacement(reply));
  DecisionsPayload decisions;
  ASSERT_TRUE(
      DecodeDecisions(receive(MessageType::kDecisions), &decisions).ok());
  ASSERT_EQ(decisions.decisions.size(), 1u);
  const NodeDecision& d = decisions.decisions[0];

  const size_t left_rows = left.Count();
  const bool left_built =
      BuildsLeftChild(left_rows, data.rows() - left_rows);
  const bool send_left = left_built != c.derived_node;
  const double left_g[2] = {g[0], 0};
  const double left_h[2] = {h[0], 0};
  const double right_g[2] = {0, g[1]};
  const double right_h[2] = {0, h[1]};
  a_end->Send(histogram(send_left ? d.left : d.right, 1,
                        root_exponent + c.child_exponent_step,
                        send_left ? left_g : right_g,
                        send_left ? left_h : right_h));
  // B either refuses the frame (and closes the link) or goes on with the
  // next layer; end the run either way.
  Result<Message> next = a_end->Receive();
  if (next.ok()) a_end->Close(Status::Internal("B went on"));
  b_thread.join();
  if (c.error == nullptr) {
    // B derived the other child and went on: it finished the tree, or
    // stopped when the script hung up.
    EXPECT_TRUE(b_status.ok() || b_status.code() == StatusCode::kInternal)
        << b_status.ToString();
    return;
  }
  EXPECT_EQ(b_status.code(), StatusCode::kProtocolError)
      << b_status.ToString();
  EXPECT_NE(b_status.message().find(c.error), std::string::npos)
      << b_status.ToString();
}

INSTANTIATE_TEST_SUITE_P(
    Children, PartyBChildHistogramTest,
    ::testing::Values(
        // Control: the built child at the root's exponent.
        ChildHistCase{"BuiltChild", false, 0, nullptr},
        ChildHistCase{"DerivedChild", true, 0, "histogram for a derived node"},
        // An honest bin's exponent is the largest among its rows, so a
        // child's never exceeds its parent's.
        ChildHistCase{"BuiltChildExponentAboveParent", false, 1,
                      "above the parent's"}),
    [](const ::testing::TestParamInfo<ChildHistCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace vf2boost

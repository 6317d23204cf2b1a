#include "fed/party_b.h"

#include <algorithm>
#include <numeric>
#include <optional>
#include <string>

#include "bigint/modarith.h"
#include "common/logging.h"
#include "common/timer.h"
#include "fed/checkpoint.h"
#include "fed/enc_histogram.h"
#include "fed/placement.h"
#include "gbdt/split.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"

namespace vf2boost {
namespace {

// Decodes an A party's kLayout into bin offsets. Every feature must have
// between 1 and 65536 bins.
Result<FeatureLayout> DecodeALayout(const Message& msg) {
  LayoutPayload layout;
  VF2_RETURN_IF_ERROR(DecodeLayout(msg, &layout));
  FeatureLayout fl;
  fl.offsets.push_back(0);
  for (uint64_t bins : layout.bins_per_feature) {
    if (bins == 0 || bins > 65536) {
      return Status::ProtocolError("bad bin count in layout");
    }
    fl.offsets.push_back(fl.offsets.back() + static_cast<uint32_t>(bins));
  }
  return fl;
}

}  // namespace

PartyBEngine::PartyBEngine(const FedConfig& config, const Dataset& data,
                           std::vector<MessagePort*> channels)
    // The ops server reads remote_metrics_ only inside Run, so handing the
    // shell its address before the member is built is safe.
    : PartyRuntime(config,
                   PartyRole::B(static_cast<uint32_t>(channels.size()),
                                &remote_metrics_)),
      data_(data),
      party_b_index_(static_cast<uint32_t>(channels.size())),
      rng_(config.seed) {
  for (MessagePort* c : channels) inboxes_.emplace_back(c, kMaxInboxBuffered);
  for (size_t p = 0; p < inboxes_.size(); ++p) {
    // Metric deltas are sideband traffic: consumed at ingestion on whichever
    // thread receives, never buffered against the inbox cap.
    inboxes_[p].SetSideband(
        MessageType::kMetricsDelta, [this, p](Message msg) {
          MetricsDeltaPayload delta;
          if (Status st = DecodeMetricsDelta(msg, &delta); !st.ok()) {
            VF2_LOG(Warn) << "ignoring bad metrics delta from A" << p << ": "
                          << st.ToString();
            return;
          }
          remote_metrics_.Update("A" + std::to_string(p), delta.seq,
                                 std::move(delta.samples));
        });
    // Clock probes are answered at ingestion: t2 stamps arrival-at-handler,
    // t3 the reply send. Processing delay between a frame's socket arrival
    // and its handler inflates the measured RTT, which the A side's min-RTT
    // filter then discards — late answers are useless, never wrong.
    inboxes_[p].SetSideband(MessageType::kClockPing, [this, p](Message msg) {
      const int64_t t2 = obs::TraceNowMicros();
      ClockPingPayload ping;
      if (Status st = DecodeClockPing(msg, &ping); !st.ok()) {
        VF2_LOG(Warn) << "ignoring bad clock ping from A" << p << ": "
                      << st.ToString();
        return;
      }
      ClockPongPayload pong;
      pong.t1 = ping.t1;
      pong.t2 = t2;
      pong.t3 = obs::TraceNowMicros();
      inboxes_[p].Send(EncodeClockPong(pong));
    });
  }
}

Status PartyBEngine::Setup() {
  if (!data_.has_labels()) {
    return Status::InvalidArgument("party B data has no labels");
  }
  auto loss = MakeLoss(config_.gbdt.objective);
  VF2_RETURN_IF_ERROR(loss.status());
  loss_ = std::move(loss).value();

  cuts_ = ComputeBinCuts(data_.features, config_.gbdt.max_bins);
  binned_ = BinnedMatrix::FromCsr(data_.features, cuts_);
  layout_ = FeatureLayout::FromCuts(cuts_);
  m_.features->Set(static_cast<double>(layout_.num_features()));

  // Key generation and handshake.
  Message key_msg{MessageType::kPublicKey, {}};
  if (config_.mock_crypto) {
    backend_ = std::make_unique<MockBackend>(config_.MakeCodec());
  } else {
    VF2_TRACE_SPAN("crypto", "keygen");
    auto kp = PaillierKeyPair::Generate(config_.paillier_bits, &rng_);
    VF2_RETURN_IF_ERROR(kp.status());
    const auto kernel = [](const BigInt& ring) {
      const size_t limbs = ring.limbs().size();
      return std::string(MontKernelName(MontKernelFor(limbs))) + " (" +
             std::to_string(limbs) + " limbs)";
    };
    VF2_LOG(Info) << "Montgomery kernel: n^2 ring "
                  << kernel(kp->pub.n_squared()) << ", CRT rings "
                  << kernel(kp->priv.p_squared()) << " / "
                  << kernel(kp->priv.q_squared());
    auto pb =
        std::make_unique<PaillierBackend>(kp->pub, config_.MakeCodec());
    pb->SetPrivateKey(kp->priv);
    if (config_.noise_pool_capacity > 0) {
      // The pool's producer starts building the nonce table now, off the
      // thread that sends the key; the run's demand follows once the trees
      // left are known. No more than one tree's nonces are held.
      noise_pool_ = std::make_shared<NoisePool>(
          kp->pub, std::min(config_.noise_pool_capacity, NoncesPerTree()),
          config_.seed ^ 0x6e6f697365ULL);  // "noise"
      noise_pool_->SetFillGauge(m_.noise_pool_fill);
      pb->SetNoisePool(noise_pool_);
    }
    ByteWriter w;
    kp->pub.Serialize(&w);
    key_msg.payload = w.Release();
    backend_ = std::move(pb);
  }
  if (config_.gh_pack) {
    // Fail fast: a layout that cannot hold a worst-case node accumulation
    // (all rows in one node, every slot at its loss bound) is a config
    // error, surfaced here before any ciphertext leaves the process.
    auto gl = MakeGhPackLayout(
        config_.MakeCodec(), data_.rows(),
        std::max(loss_->GradientBound(), loss_->HessianBound()),
        backend_->plain_modulus().BitLength());
    VF2_RETURN_IF_ERROR(gl.status());
    gh_layout_ = std::move(gl).value();
  }
  setup_key_msg_ = std::move(key_msg);
  for (size_t p = 0; p < inboxes_.size(); ++p) {
    VF2_RETURN_IF_ERROR(ExchangeSetup(p));
  }
  return Status::OK();
}

Status PartyBEngine::ExchangeSetup(size_t p) {
  Inbox& inbox = inboxes_[p];
  inbox.Send(setup_key_msg_);
  PhaseClock wait(m_.phase_comm_wait, "comm_wait", m_.live);
  VF2_ASSIGN_OR_RETURN(Message msg, inbox.ReceiveType(MessageType::kLayout));
  wait.Stop();
  VF2_ASSIGN_OR_RETURN(FeatureLayout fl, DecodeALayout(msg));
  if (p == a_layouts_.size()) {  // this party's first setup: record it
    a_layouts_.push_back(std::move(fl));
    a_layout_payloads_.push_back(std::move(msg.payload));
    return Status::OK();
  }
  // Same data and config yield the same bins and cuts, byte for byte.
  if (msg.payload != a_layout_payloads_[p]) {
    return Status::ProtocolError(
        "peer A" + std::to_string(p) +
        " announced a different feature layout (bins or cut values) than "
        "at its first setup");
  }
  return Status::OK();
}

size_t PartyBEngine::NoncesPerTree() const {
  // One gh-packed cipher per row, or a g and an h cipher.
  return data_.rows() * (config_.gh_pack ? 1 : 2);
}

void PartyBEngine::Broadcast(const Message& msg) {
  for (Inbox& inbox : inboxes_) inbox.Send(msg);
}

GradPair PartyBEngine::SumGrads(const std::vector<uint32_t>& instances) const {
  GradPair total;
  for (uint32_t i : instances) total += grads_[i];
  return total;
}

void PartyBEngine::EncryptAndSendGradients(uint32_t tree_id) {
  const size_t n = data_.rows();
  // Blaster streams fixed-size slices, but at large n a small configured
  // batch degenerates into per-slice framing/wakeup overhead with no extra
  // overlap, so the effective batch is floored to keep the stream at no more
  // than kMaxBlasterBatchesPerTree slices per tree.
  constexpr size_t kMaxBlasterBatchesPerTree = 64;
  const size_t batch =
      config_.blaster
          ? std::max({static_cast<size_t>(1), config_.blaster_batch,
                      (n + kMaxBlasterBatchesPerTree - 1) /
                          kMaxBlasterBatchesPerTree})
          : n;
  // Encryption randomness (codec exponent sampling, Paillier obfuscation) is
  // drawn from a per-tree stream keyed on (seed, tree_id), not the engine's
  // long-lived rng: a tree retrained after a link death, or resumed from a
  // checkpoint, replays exactly the same stream, so the recovered model is
  // bit-identical to a fault-free run.
  Rng tree_rng(config_.seed ^ 0x67726164ULL ^
               (static_cast<uint64_t>(tree_id) * 0x9E3779B97F4A7C15ULL));
  for (size_t start = 0; start < n; start += batch) {
    const size_t end = std::min(n, start + batch);
    // One span + histogram sample per batch: under blaster streaming the
    // per-batch slices interleave with A's transfer/build in the timeline
    // (Fig-4 pipelining).
    Stopwatch timer;
    obs::TraceSpan span("phase", "encrypt");
    if (span.active()) {
      span.AddArg("tree", static_cast<int64_t>(tree_id));
      span.AddArg("start", static_cast<int64_t>(start));
      span.AddArg("count", static_cast<int64_t>(end - start));
    }
    GradBatchPayload payload;
    payload.tree = tree_id;
    payload.start = start;
    // gh packing: one plaintext, one encryption, one wire cipher per
    // instance, the (g, h) pair riding in a single gh-packed plaintext (the
    // decrypt-wall halving the unpacked path pays for twice). Classic: a g
    // then an h cipher per instance. Either way rows draw from `rng` in order.
    payload.gh = config_.gh_pack;
    if (payload.gh) {
      payload.gh_layout = gh_layout_;
      payload.gh_ciphers.resize(end - start);
    } else {
      payload.g.resize(end - start);
      payload.h.resize(end - start);
    }
    auto encrypt_rows = [&](size_t lo, size_t hi, Rng* rng) {
      for (size_t i = lo; i < hi; ++i) {
        if (payload.gh) {
          Cipher& c = payload.gh_ciphers[i - start];
          c.exponent = gh_layout_.exponent;
          c.data = backend_->EncryptRaw(
              EncodeGhPair(gh_layout_, grads_[i].g, grads_[i].h), rng);
        } else {
          payload.g[i - start] = backend_->Encrypt(grads_[i].g, rng);
          payload.h[i - start] = backend_->Encrypt(grads_[i].h, rng);
        }
      }
    };
    if (pool_ != nullptr) {
      // Workers encrypt instance shards concurrently, each with its own
      // deterministic nonce stream.
      const uint64_t batch_seed = tree_rng.NextU64();
      const size_t shards = pool_->num_threads();
      const size_t chunk = (end - start + shards - 1) / shards;
      pool_->ParallelFor(shards, [&](size_t s) {
        Rng worker_rng(batch_seed ^ (0x9e37u + s));
        const size_t lo = start + s * chunk;
        encrypt_rows(lo, std::min(end, lo + chunk), &worker_rng);
      });
    } else {
      encrypt_rows(start, end, &tree_rng);
    }
    const size_t ciphers = (end - start) * (payload.gh ? 1 : 2);
    m_.encryptions->Add(ciphers);
    m_.ciphers_sent->Add(ciphers);
    // The same ciphers go to every A party.
    Broadcast(EncodeGradBatch(payload, *backend_));
    m_.phase_encrypt->Observe(timer.ElapsedSeconds());
  }
  m_.gh_pack_ratio->Set(config_.gh_pack ? 2.0 : 1.0);
}

Status PartyBEngine::CollectHistograms(uint32_t layer,
                                       const std::vector<NodeState>& nodes,
                                       PartyHistograms* hists) {
  size_t built = 0;
  for (const NodeState& ns : nodes) built += ns.parent < 0 ? 1 : 0;
  // Only a layer whose children get histograms is anyone's parent.
  const bool parents_next = layer + 2 < config_.gbdt.num_layers;
  hists->assign(inboxes_.size(), {});
  std::vector<std::map<int32_t, PlainHistogram>> plain(inboxes_.size());
  for (size_t p = 0; p < inboxes_.size(); ++p) {
    while (plain[p].size() < built) {
      PhaseClock wait(m_.phase_comm_wait, "comm_wait", m_.live);
      VF2_ASSIGN_OR_RETURN(
          Message msg, inboxes_[p].ReceiveType(MessageType::kNodeHistogram));
      wait.Stop();
      NodeHistogramPayload payload;
      VF2_RETURN_IF_ERROR(DecodeNodeHistogram(msg, *backend_, &payload));
      if (payload.layer != layer) {
        return Status::ProtocolError("histogram for wrong layer");
      }
      const uint32_t expected = hist_epoch_[payload.node];
      if (payload.epoch < expected) continue;  // stale optimistic build
      if (payload.epoch > expected) {
        return Status::ProtocolError("histogram from the future");
      }
      const auto node = std::find_if(
          nodes.begin(), nodes.end(),
          [&](const NodeState& ns) { return ns.id == payload.node; });
      if (node == nodes.end()) {
        return Status::ProtocolError("histogram for unknown node");
      }
      if (node->parent >= 0) {
        return Status::ProtocolError("histogram for a derived node");
      }
      if (payload.gh != config_.gh_pack) {
        return Status::ProtocolError(
            payload.gh ? "gh-packed histogram on an unpacked gradient stream"
                       : "classic histogram on a gh-packed gradient stream");
      }

      Stopwatch dec_timer;
      obs::TraceSpan span("phase", "decrypt");
      if (span.active()) {
        span.AddArg("node", static_cast<int64_t>(payload.node));
        span.AddArg("party", static_cast<int64_t>(p));
        span.AddArg("packed", static_cast<int64_t>(payload.packed ? 1 : 0));
      }
      // The decrypt helpers bump this on the calling thread only (the pool
      // parallelizes CRT halves, not the counter), so a stack local is safe.
      size_t num_dec = 0;
      Result<PlainHistogram> exact = payload.gh
          ? (payload.packed
                 ? DecryptPackedGhPlain(payload.gh_packs, a_layouts_[p],
                                        gh_layout_, *backend_, &num_dec,
                                        pool_.get())
                 : DecryptRawGhPlain(payload.gh_bins, a_layouts_[p],
                                     *backend_, &num_dec, pool_.get()))
          : payload.packed
          ? DecryptPackedPlain(
                PackedHistogram{payload.shift_g, payload.shift_h, 0,
                                std::move(payload.g_packs),
                                std::move(payload.h_packs)},
                a_layouts_[p], *backend_, &num_dec, pool_.get())
          : DecryptRawPlain(payload.g_bins, payload.h_bins, a_layouts_[p],
                            *backend_, &num_dec, pool_.get());
      VF2_RETURN_IF_ERROR(exact.status());
      VF2_ASSIGN_OR_RETURN((*hists)[p][payload.node],
                           DecodePlainHistogram(*exact, gh_layout_, *backend_));
      plain[p][payload.node] = std::move(exact).value();
      m_.decryptions->Add(num_dec);
      m_.phase_decrypt->Observe(dec_timer.ElapsedSeconds());
    }
    if (built < nodes.size()) {
      // Sibling subtraction: the larger child of every split is the
      // parent's exact plaintexts minus the built child's, decoded once.
      Stopwatch derive_timer;
      for (const NodeState& ns : nodes) {
        if (ns.parent < 0) continue;
        VF2_ASSIGN_OR_RETURN(
            PlainHistogram derived,
            DeriveSibling(a_plain_[p].at(ns.parent),
                          plain[p].at(ns.built_sibling), *backend_));
        VF2_ASSIGN_OR_RETURN(
            (*hists)[p][ns.id],
            DecodePlainHistogram(derived, gh_layout_, *backend_));
        plain[p][ns.id] = std::move(derived);
      }
      a_plain_[p].clear();
      m_.phase_find_split->Observe(derive_timer.ElapsedSeconds());
    }
    if (!parents_next) plain[p].clear();
  }
  a_plain_ = std::move(plain);
  return Status::OK();
}

void PartyBEngine::FinalizeLeaf(const NodeState& node, Tree* tree) {
  const double w = LeafWeight(node.total, config_.gbdt);
  tree->node(node.id).weight = w;
  for (uint32_t i : node.instances) {
    scores_[i] += config_.gbdt.learning_rate * w;
  }
  m_.leaves->Add(1);
}

PartyBEngine::ASplit PartyBEngine::BestASplit(
    const NodeState& node, const PartyHistograms& hists) const {
  ASplit best;
  for (size_t p = 0; p < hists.size(); ++p) {
    SplitCandidate cand = FindBestSplit(hists[p].at(node.id), a_layouts_[p],
                                        node.total, config_.gbdt);
    if (cand.gain > best.split.gain) {
      best.split = cand;
      best.owner = static_cast<uint32_t>(p);
    }
  }
  return best;
}

void PartyBEngine::RecordSplit(const SplitCandidate& split, uint32_t owner,
                               int32_t node, int32_t left, int32_t right,
                               Tree* tree) const {
  TreeNode& tn = tree->node(node);
  tn.feature = split.feature;
  tn.split_value = owner == party_b_index_
                       ? cuts_.SplitValue(split.feature, split.bin)
                       : 0;  // only the owner party knows it
  tn.split_bin = split.bin;
  tn.default_left = split.default_left;
  tn.gain = split.gain;
  tn.owner_party = static_cast<int32_t>(owner);
  tn.left = left;
  tn.right = right;
}

NodeDecision PartyBEngine::SplitOnB(const NodeState& node, Tree* tree) {
  NodeDecision d;
  d.node = node.id;
  d.action = NodeAction::kSplitResolved;
  d.left = tree->AddNode();
  d.right = tree->AddNode();
  d.placement = ComputePlacement(binned_, node.instances, node.best_b.feature,
                                 node.best_b.bin, node.best_b.default_left);
  RecordSplit(node.best_b, party_b_index_, node.id, d.left, d.right, tree);
  return d;
}

void PartyBEngine::SplitChildren(const NodeState& node, int32_t left,
                                 int32_t right, const Bitmap& placement,
                                 std::vector<NodeState>* children) {
  NodeState l, r;
  l.id = left;
  r.id = right;
  l.layer = r.layer = node.layer + 1;
  ApplyPlacement(node.instances, placement, &l.instances, &r.instances);
  l.total = SumGrads(l.instances);
  r.total = SumGrads(r.instances);
  // Sibling subtraction: build the smaller child, derive the other from the
  // parent histogram (only worthwhile below the leaf layer). A builds the
  // same child's histograms, and B derives the other's in CollectHistograms.
  NodeState* small = &l;
  NodeState* big = &r;
  if (!BuildsLeftChild(l.instances.size(), r.instances.size())) {
    std::swap(small, big);
  }
  big->parent = node.id;
  big->built_sibling = small->id;
  if (node.layer + 2 < config_.gbdt.num_layers) {
    Stopwatch timer;
    small->own_hist =
        Histogram::Build(binned_, layout_, small->instances, grads_);
    big->own_hist = small->own_hist;
    big->own_hist.SubtractFrom(node.own_hist);
    l.has_hist = r.has_hist = true;
    m_.phase_find_split->Observe(timer.ElapsedSeconds());
  }
  children->push_back(std::move(l));
  children->push_back(std::move(r));
}

Result<Bitmap> PartyBEngine::ReceivePlacement(uint32_t owner,
                                              const NodeState& node) {
  PhaseClock wait(m_.phase_comm_wait, "comm_wait", m_.live);
  VF2_ASSIGN_OR_RETURN(Message msg,
                       inboxes_[owner].ReceiveType(MessageType::kPlacement));
  wait.Stop();
  PlacementPayload placement;
  VF2_RETURN_IF_ERROR(DecodePlacement(msg, &placement));
  if (placement.node != node.id) {
    return Status::ProtocolError("placement for wrong node");
  }
  if (placement.placement.size() != node.instances.size()) {
    return Status::ProtocolError("placement size mismatch");
  }
  return std::move(placement.placement);
}

Status PartyBEngine::TrainOneTree(uint32_t tree_id, Tree* tree) {
  obs::TraceSpan tree_span("phase", "tree");
  if (tree_span.active()) {
    tree_span.AddArg("tree", static_cast<int64_t>(tree_id));
  }
  live_.SetTree(static_cast<int64_t>(tree_id));
  const GbdtParams& params = config_.gbdt;
  loss_->Compute(scores_, data_.labels, &grads_);
  EncryptAndSendGradients(tree_id);

  hist_epoch_.clear();
  std::vector<NodeState> active(1);
  active[0].id = 0;
  active[0].layer = 0;
  active[0].instances.resize(data_.rows());
  std::iota(active[0].instances.begin(), active[0].instances.end(), 0);
  active[0].total = SumGrads(active[0].instances);

  for (uint32_t layer = 0; layer + 1 < params.num_layers && !active.empty();
       ++layer) {
    live_.SetLayer(static_cast<int64_t>(layer));
    // --- FindSplitB: own histograms + best own splits -----------------------
    {
      PhaseClock clock(m_.phase_find_split, "find_split", m_.live);
      for (NodeState& node : active) {
        if (!node.has_hist) {  // only the root reaches this; children are
                               // derived at split time (sibling subtraction)
          node.own_hist =
              Histogram::Build(binned_, layout_, node.instances, grads_);
          node.has_hist = true;
        }
        node.best_b = FindBestSplit(node.own_hist, layout_, node.total,
                                    params);
      }
    }

    std::vector<NodeState> children;
    if (config_.optimistic) {
      // --- optimistic pre-split by B's own best (§4.2) ----------------------
      obs::TraceSpan opt_span("phase", "opt_split");
      if (opt_span.active()) {
        opt_span.AddArg("layer", static_cast<int64_t>(layer));
        opt_span.AddArg("nodes", static_cast<int64_t>(active.size()));
      }
      DecisionsPayload opt;
      opt.tree = tree_id;
      opt.layer = layer;
      for (NodeState& node : active) {
        NodeDecision d;
        d.node = node.id;  // a leaf unless B's own split exists
        if (node.best_b.valid()) {
          d = SplitOnB(node, tree);
          SplitChildren(node, d.left, d.right, d.placement, &children);
          m_.optimistic_splits->Add(1);
        }
        opt.decisions.push_back(std::move(d));
      }
      if (layer + 2 < params.num_layers) {  // children need histograms
        Broadcast(EncodeDecisions(opt, MessageType::kOptPlacements));
      }
      opt_span.End();
    }

    // --- FindSplitA: the better of A's and B's best split wins -------------
    // The optimistic schedule already split (and announced) every node on
    // B's own split, so its decisions carry only the nodes an A split won
    // back; the sequential schedule decides every node here.
    PartyHistograms hists;
    VF2_RETURN_IF_ERROR(CollectHistograms(layer, active, &hists));
    DecisionsPayload decisions;
    decisions.tree = tree_id;
    decisions.layer = layer;
    std::vector<DecisionsPayload> queries(inboxes_.size());
    std::vector<PendingSplit> b_won, a_won;
    {
      PhaseClock clock(m_.phase_find_split, "find_split", m_.live);
      for (NodeState& node : active) {
        const ASplit a = BestASplit(node, hists);
        const bool a_wins = a.split.valid() && a.split.gain > node.best_b.gain;
        NodeDecision d;
        d.node = node.id;
        if (a_wins) {
          d.action = NodeAction::kSplitResolved;  // placement filled later
          if (config_.optimistic && node.best_b.valid()) {
            // Dirty: B split it early. Reuse the children ids; their
            // contents are redone.
            d.left = tree->node(node.id).left;
            d.right = tree->node(node.id).right;
            std::erase_if(children, [&](const NodeState& c) {
              return c.id == d.left || c.id == d.right;
            });
            ++hist_epoch_[d.left];
            ++hist_epoch_[d.right];
          } else {
            d.left = tree->AddNode();
            d.right = tree->AddNode();
          }
          RecordSplit(a.split, a.owner, node.id, d.left, d.right, tree);
          NodeDecision q = d;
          q.action = NodeAction::kSplitQuery;
          q.feature = a.split.feature;
          q.bin = a.split.bin;
          q.default_left = a.split.default_left;
          queries[a.owner].decisions.push_back(q);
          a_won.push_back({&node, a.owner, decisions.decisions.size()});
          m_.splits_a->Add(1);
          if (config_.optimistic) m_.dirty_nodes->Add(1);
        } else if (node.best_b.valid()) {
          if (!config_.optimistic) {
            d = SplitOnB(node, tree);
            b_won.push_back(
                {&node, party_b_index_, decisions.decisions.size()});
          }
          m_.splits_b->Add(1);
        } else {
          FinalizeLeaf(node, tree);
        }
        if (a_wins || !config_.optimistic) {
          decisions.decisions.push_back(std::move(d));
        }
      }
    }
    for (const PendingSplit& s : b_won) {
      const NodeDecision& d = decisions.decisions[s.decision];
      SplitChildren(*s.node, d.left, d.right, d.placement, &children);
    }

    // --- placements of A-won splits from their owners ----------------------
    for (size_t p = 0; p < inboxes_.size(); ++p) {
      if (queries[p].decisions.empty()) continue;
      queries[p].tree = tree_id;
      queries[p].layer = layer;
      inboxes_[p].Send(EncodeDecisions(queries[p], MessageType::kSplitQueries));
    }
    for (const PendingSplit& s : a_won) {
      // Optimistic: one "rollback" span per dirty node — wait for the
      // owner's real placement, then redo the split B guessed wrong.
      std::optional<obs::TraceSpan> rollback_span;
      if (config_.optimistic) {
        rollback_span.emplace("phase", "rollback");
        if (rollback_span->active()) {
          rollback_span->AddArg("node", static_cast<int64_t>(s.node->id));
          rollback_span->AddArg("owner", static_cast<int64_t>(s.owner));
        }
      }
      NodeDecision& d = decisions.decisions[s.decision];
      VF2_ASSIGN_OR_RETURN(d.placement, ReceivePlacement(s.owner, *s.node));
      SplitChildren(*s.node, d.left, d.right, d.placement, &children);
    }
    if (!decisions.decisions.empty()) {
      Broadcast(EncodeDecisions(decisions, MessageType::kDecisions));
    }
    active = std::move(children);
  }

  // Remaining nodes at the last layer become leaves.
  for (NodeState& node : active) FinalizeLeaf(node, tree);
  a_plain_.clear();

  Broadcast(Message{MessageType::kTreeDone, {}});
  m_.trees_finished->Add(1);
  return Status::OK();
}

Result<PartyBResult> PartyBEngine::Run() {
  PartyBResult result;
  VF2_RETURN_IF_ERROR(RunParty(inboxes_, [&]() -> Status {
    VF2_ASSIGN_OR_RETURN(result, RunInternal());
    return Status::OK();
  }));
  return result;
}

bool PartyBEngine::SessionsRecoverable() {
  if (inboxes_.empty()) return false;
  for (Inbox& inbox : inboxes_) {
    if (!inbox.port()->resilient()) return false;
  }
  return true;
}

Status PartyBEngine::LoadCheckpointIfResuming(PartyBResult* result,
                                              size_t* start_tree) {
  *start_tree = 0;
  if (!config_.resume || config_.checkpoint_dir.empty()) {
    return Status::OK();
  }
  Result<PartyBCheckpoint> loaded =
      LoadPartyBCheckpoint(config_.checkpoint_dir);
  if (!loaded.ok()) {
    if (loaded.status().code() == StatusCode::kNotFound) {
      VF2_LOG(Info) << "no checkpoint in '" << config_.checkpoint_dir
                    << "'; starting fresh";
      return Status::OK();
    }
    return loaded.status();
  }
  if (loaded->config_fingerprint != config_.Fingerprint()) {
    return Status::InvalidArgument(
        "checkpoint was written by a run with a different model-determining "
        "configuration (fingerprint mismatch); refusing to resume");
  }
  if (loaded->scores.size() != data_.rows()) {
    return Status::InvalidArgument(
        "checkpoint score vector covers " +
        std::to_string(loaded->scores.size()) + " rows but the dataset has " +
        std::to_string(data_.rows()));
  }
  result->model.base_score = loaded->base_score;
  result->model.trees = std::move(loaded->trees);
  result->log = std::move(loaded->log);
  scores_ = std::move(loaded->scores);
  *start_tree = loaded->completed_trees;
  m_.trees_resumed->Add(loaded->completed_trees);
  VF2_LOG(Info) << "resumed from checkpoint: " << loaded->completed_trees
                << " trees restored";
  return Status::OK();
}

Status PartyBEngine::MaybeWriteCheckpoint(const PartyBResult& result) {
  if (config_.checkpoint_dir.empty()) return Status::OK();
  PartyBCheckpoint ckpt;
  ckpt.config_fingerprint = config_.Fingerprint();
  ckpt.completed_trees = result.model.trees.size();
  ckpt.base_score = result.model.base_score;
  ckpt.trees = result.model.trees;
  ckpt.scores = scores_;
  ckpt.log = result.log;
  return SavePartyBCheckpoint(ckpt, config_.checkpoint_dir);
}

Status PartyBEngine::ResyncSessions() {
  obs::TraceSpan span("phase", "reconnect");
  live_.SetState(obs::LiveStatus::State::kReconnecting);
  hist_epoch_.clear();
  a_plain_.clear();
  for (size_t p = 0; p < inboxes_.size(); ++p) {
    // The peer may be a survivor of a link blip or a relaunched process;
    // both get the setup exchange. One that dies with its link is retried
    // on the next; the reconnect budget bounds it.
    for (;;) {
      inboxes_[p].Clear();
      VF2_RETURN_IF_ERROR(inboxes_[p].port()->Reestablish().status());
      m_.reconnects->Add(1);
      VF2_LOG(Info) << "peer A" << p << " re-established, replaying setup";
      Status st = ExchangeSetup(p);
      if (st.ok()) break;
      if (!IsTransientFault(st)) return st;
    }
  }
  live_.SetState(obs::LiveStatus::State::kTraining);
  return Status::OK();
}

void PartyBEngine::DrainFederatedMetrics() {
  for (size_t p = 0; p < inboxes_.size(); ++p) {
    // Each A party sends its final delta right before closing cleanly; keep
    // receiving (the sideband handler consumes deltas) until the close lands.
    for (;;) {
      Result<Message> msg = inboxes_[p].Receive();
      if (!msg.ok()) break;  // clean close surfaces after queued traffic
      VF2_LOG(Warn) << "unexpected " << MessageTypeName(msg->type)
                    << " from A" << p << " after kTrainDone; dropping";
    }
  }
}

Result<PartyBResult> PartyBEngine::RunInternal() {
  if (auto* rec = obs::TraceRecorder::Current(); rec != nullptr) {
    // B's clock is the merge reference: its trace timestamps are never
    // shifted, every A party's offset is expressed against it.
    obs::TraceRecorder::ClockSyncMeta meta;
    meta.reference = true;
    rec->SetClockSync(party_b_index_ + 1, meta);
  }
  VF2_RETURN_IF_ERROR(Setup());

  PartyBResult result;
  result.model.params = config_.gbdt;
  result.model.base_score = 0;
  scores_.assign(data_.rows(), result.model.base_score);

  size_t start_tree = 0;
  VF2_RETURN_IF_ERROR(LoadCheckpointIfResuming(&result, &start_tree));
  if (noise_pool_ != nullptr && start_tree < config_.gbdt.num_trees) {
    noise_pool_->AddDemand(NoncesPerTree() *
                           (config_.gbdt.num_trees - start_tree));
  }
  const bool recoverable = SessionsRecoverable();

  Stopwatch clock;
  for (size_t t = start_tree; t < config_.gbdt.num_trees; ++t) {
    // The tree boundary is the recovery consistency point: snapshot the
    // scores so a mid-tree link death can roll back partial leaf updates
    // before the tree is retrained from scratch.
    std::vector<double> boundary_scores;
    if (recoverable) boundary_scores = scores_;
    for (;;) {
      Tree tree;
      Status st = TrainOneTree(static_cast<uint32_t>(t), &tree);
      if (st.ok()) {
        result.model.trees.push_back(std::move(tree));
        break;
      }
      if (!recoverable || !IsTransientFault(st)) return st;
      VF2_LOG(Warn) << "tree " << t
                    << " failed on a transient fault, resyncing: "
                    << st.ToString();
      scores_ = boundary_scores;
      VF2_RETURN_IF_ERROR(ResyncSessions());
    }

    EvalRecord rec;
    rec.tree_index = t;
    rec.elapsed_seconds = clock.ElapsedSeconds();
    double total = 0;
    for (size_t i = 0; i < scores_.size(); ++i) {
      total += loss_->Value(scores_[i], data_.labels[i]);
    }
    rec.train_loss = total / static_cast<double>(scores_.size());
    result.log.push_back(rec);
    obs::FlightRecorder::RecordEvent(
        obs::FlightRecorder::Kind::kTreeBoundary, party_b_index_,
        static_cast<int64_t>(t), 0, "tree complete");
    VF2_RETURN_IF_ERROR(MaybeWriteCheckpoint(result));
    // Live progress, logged once the tree is checkpointed.
    VF2_LOG(Info) << "tree " << t + 1 << " complete";
  }
  Broadcast(Message{MessageType::kTrainDone, {}});
  // The final per-party metric frames ride behind kTrainDone; collect them
  // before Run() closes the ports so the ordering can't drop them.
  if (config_.federate_metrics) DrainFederatedMetrics();
  if (noise_pool_ != nullptr) {
    // Merge the pool's atomic counters into the registry exactly once, after
    // the last Encrypt (producers may still run, but consumers are done).
    const NoisePool::Stats ps = noise_pool_->stats();
    m_.noise_pool_hits->Add(ps.hits);
    m_.noise_pool_misses->Add(ps.misses);
    m_.noise_pool_produced->Add(ps.produced);
    m_.noise_pool_fill->Set(static_cast<double>(noise_pool_->fill()));
  }
  return result;
}

}  // namespace vf2boost

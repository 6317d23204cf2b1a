#include "fed/party_a.h"

#include <algorithm>
#include <numeric>
#include <optional>

#include "common/logging.h"
#include "common/timer.h"
#include "fed/placement.h"
#include "gbdt/loss.h"
#include "obs/flight_recorder.h"

namespace vf2boost {

PartyAEngine::PartyAEngine(const FedConfig& config, const Dataset& data,
                           MessagePort* channel, uint32_t party_index)
    : PartyRuntime(config, PartyRole::A(party_index)),
      data_(data),
      inbox_(channel, kMaxInboxBuffered),
      party_index_(party_index) {
  clock_sync_ = config_.clock_sync_state;
  if (clock_sync_ == nullptr) {
    owned_clock_sync_ = std::make_unique<obs::ClockSync>();
    clock_sync_ = owned_clock_sync_.get();
  }
  clock_sync_->BindMetrics(config_.metrics, role_.metric_prefix);
  // Pong ingestion is sideband traffic like kMetricsDelta on B: consumed at
  // whatever receive it arrives under, never buffered against the cap.
  inbox_.SetSideband(MessageType::kClockPong, [this](Message msg) {
    const int64_t t4 = obs::TraceNowMicros();
    ClockPongPayload pong;
    if (Status st = DecodeClockPong(msg, &pong); !st.ok()) {
      VF2_LOG(Warn) << "ignoring bad clock pong: " << st.ToString();
      return;
    }
    clock_sync_->AddSample(pong.t1, pong.t2, pong.t3, t4);
    if (auto* rec = obs::TraceRecorder::Current(); rec != nullptr) {
      rec->SetClockSync(party_index_ + 1, clock_sync_->ToMeta());
    }
  });
}

Status PartyAEngine::Setup() {
  cuts_ = ComputeBinCuts(data_.features, config_.gbdt.max_bins);
  binned_ = BinnedMatrix::FromCsr(data_.features, cuts_);
  layout_ = FeatureLayout::FromCuts(cuts_);
  m_.features->Set(static_cast<double>(layout_.num_features()));
  return ExchangeSetup();
}

Status PartyAEngine::ExchangeSetup() {
  PhaseClock wait(m_.phase_comm_wait, "comm_wait", m_.live);
  VF2_ASSIGN_OR_RETURN(Message key_msg, inbox_.Receive());
  wait.Stop();
  if (key_msg.type != MessageType::kPublicKey) {
    return Status::ProtocolError(
        std::string("party A expected PublicKey on a new link, got ") +
        MessageTypeName(key_msg.type));
  }
  // B's key is adopted afresh on every link generation: a relaunched B
  // brings its own, and the wire bytes are the authoritative copy.
  if (config_.mock_crypto) {
    backend_ = std::make_unique<MockBackend>(config_.MakeCodec());
  } else {
    ByteReader r(key_msg.payload);
    auto pub = PaillierPublicKey::Deserialize(&r);
    VF2_RETURN_IF_ERROR(pub.status());
    backend_ = std::make_unique<PaillierBackend>(std::move(pub).value(),
                                                 config_.MakeCodec());
  }
  LayoutPayload layout_msg;
  for (uint32_t f = 0; f < layout_.num_features(); ++f) {
    layout_msg.bins_per_feature.push_back(layout_.NumBins(f));
  }
  layout_msg.cuts_digest = HashCuts(cuts_);
  inbox_.Send(EncodeLayout(layout_msg));
  return Status::OK();
}

Status PartyAEngine::Run() {
  return RunParty(std::span(&inbox_, 1), [this] { return RunLoop(); });
}

Status PartyAEngine::RunLoop() {
  VF2_RETURN_IF_ERROR(Setup());
  // Burst of probes right after setup: the estimate is in place before the
  // first tree's spans are recorded. Refined at every tree boundary.
  SendClockPings(3);
  for (;;) {
    bool done = false;
    Status st = RunOnce(&done);
    if (st.ok()) {
      if (done) return Status::OK();
      continue;
    }
    // A transient link fault with a resilient port: re-establish and retry
    // from the tree boundary. Everything else stays fail-fast (PR 1).
    if (!CanRecover(st)) return st;
    VF2_RETURN_IF_ERROR(Recover(st));
  }
}

Status PartyAEngine::RunOnce(bool* done) {
  *done = false;
  PhaseClock wait(m_.phase_comm_wait, "comm_wait", m_.live);
  VF2_ASSIGN_OR_RETURN(Message msg, inbox_.Receive());
  wait.Stop();
  if (msg.type == MessageType::kTrainDone) {
    // Final snapshot before the channel closes: B drains it after
    // broadcasting kTrainDone, so its federated view ends exact.
    if (config_.federate_metrics) SendMetricsDelta(/*final_frame=*/true);
    *done = true;
    return Status::OK();
  }
  if (msg.type != MessageType::kGradBatch) {
    return Status::ProtocolError(
        std::string("party A expected GradBatch, got ") +
        MessageTypeName(msg.type));
  }
  VF2_RETURN_IF_ERROR(RunTree(std::move(msg)));
  obs::FlightRecorder::RecordEvent(
      obs::FlightRecorder::Kind::kTreeBoundary,
      static_cast<uint32_t>(party_index_), static_cast<int64_t>(current_tree_),
      0, "tree complete");
  if (config_.federate_metrics) SendMetricsDelta(/*final_frame=*/false);
  SendClockPings(1);
  return Status::OK();
}

void PartyAEngine::SendClockPings(int count) {
  if (!config_.clock_sync || obs::TraceRecorder::Current() == nullptr) return;
  for (int i = 0; i < count; ++i) {
    ClockPingPayload ping;
    ping.t1 = obs::TraceNowMicros();
    inbox_.Send(EncodeClockPing(ping));
  }
}

void PartyAEngine::SendMetricsDelta(bool final_frame) {
  MetricsDeltaPayload delta;
  delta.party = party_index_;
  delta.seq = ++metrics_seq_;
  delta.final_frame = final_frame;
  delta.samples = config_.metrics->Snapshot(role_.metric_prefix + "/");
  inbox_.Send(EncodeMetricsDelta(delta));
}

bool PartyAEngine::CanRecover(const Status& st) {
  return inbox_.port()->resilient() && IsTransientFault(st);
}

Status PartyAEngine::Recover(const Status& cause) {
  VF2_LOG(Warn) << "lost the link to party B (" << cause.ToString()
                << "), re-establishing at the tree boundary";
  // Partial-tree state belongs to the dead link's generation: B restarts
  // the interrupted tree from its gradients, so everything this side built
  // for it is rebuilt from the fresh stream.
  streams_.clear();
  root_builder_.reset();
  node_instances_.clear();
  hist_epoch_.clear();
  live_.SetState(obs::LiveStatus::State::kReconnecting);
  obs::TraceSpan span("phase", "reconnect");
  for (;;) {
    inbox_.Clear();
    VF2_RETURN_IF_ERROR(inbox_.port()->Reestablish().status());
    m_.reconnects->Add(1);
    // Every link generation starts with the setup exchange. One that dies
    // with its link is retried on the next; the reconnect budget bounds it.
    Status st = ExchangeSetup();
    if (st.ok()) break;
    if (!CanRecover(st)) return st;
  }
  VF2_LOG(Info) << "setup replayed on the new link";
  obs::FlightRecorder::RecordEvent(
      obs::FlightRecorder::Kind::kNote, static_cast<uint32_t>(party_index_),
      0, 0, "setup replayed");
  live_.SetState(obs::LiveStatus::State::kTraining);
  SendClockPings(2);  // fresh link, fresh path: re-estimate
  return Status::OK();
}

Status PartyAEngine::ReceiveGradients(Message first, uint32_t* tree_id) {
  VF2_TRACE_SPAN("phase", "recv_gradients");
  const size_t n = data_.rows();
  const std::vector<uint32_t>& root_rows = node_instances_.at(0);
  streams_.clear();
  // Each batch is folded into the root histogram as soon as it lands, so the
  // root build overlaps B's encryption of later batches (Fig. 4) instead of
  // serializing behind the full gradient transfer. Without blaster the
  // stream is one batch.
  root_builder_.reset();
  root_build_seconds_ = 0;
  size_t received = 0;
  Message msg = std::move(first);
  for (;;) {
    GradBatchPayload batch;
    VF2_RETURN_IF_ERROR(DecodeGradBatch(msg, *backend_, &batch));
    *tree_id = batch.tree;
    if (streams_.empty()) {
      // The stream's first batch decides the tree's mode (gh-packed vs
      // classic) and carries the slot layout; stores and the root builder
      // are shaped accordingly before any row lands.
      gh_mode_ = batch.gh;
      if (gh_mode_) gh_layout_ = batch.gh_layout;
      streams_.assign(gh_mode_ ? 1 : 2, std::vector<Cipher>(n));
      m_.gh_pack_ratio->Set(gh_mode_ ? 2.0 : 1.0);
      if (config_.gbdt.num_layers >= 2) root_builder_ = NewHistogramBuilder();
    } else if (batch.gh != gh_mode_) {
      return Status::ProtocolError("mixed gh/classic gradient stream");
    } else if (gh_mode_ &&
               (batch.gh_layout.slot_bits != gh_layout_.slot_bits ||
                batch.gh_layout.count_bits != gh_layout_.count_bits ||
                batch.gh_layout.offset != gh_layout_.offset ||
                batch.gh_layout.exponent != gh_layout_.exponent)) {
      return Status::ProtocolError("gh layout changed mid-stream");
    }
    std::vector<std::vector<Cipher>*> in = {&batch.g, &batch.h};
    if (gh_mode_) in = {&batch.gh_ciphers};
    const size_t count = in[0]->size();
    // Batches are contiguous and in order: a repeated, overlapping or
    // skipped range would leave rows counted twice or never filled.
    if (batch.start != received) {
      return Status::ProtocolError(
          "grad batch starts at row " + std::to_string(batch.start) +
          ", expected " + std::to_string(received));
    }
    if (count > n - received) {
      return Status::ProtocolError("grad batch out of range");
    }
    for (size_t st = 0; st < streams_.size(); ++st) {
      std::move(in[st]->begin(), in[st]->end(),
                streams_[st].begin() + static_cast<ptrdiff_t>(received));
    }
    if (root_builder_.has_value() && count > 0) {
      Stopwatch build_timer;
      obs::TraceSpan span("phase", "build_hist");
      if (span.active()) {
        span.AddArg("node", static_cast<int64_t>(0));
        span.AddArg("streamed", static_cast<int64_t>(count));
      }
      root_builder_->Add(std::span(root_rows).subspan(received, count));
      root_build_seconds_ += build_timer.ElapsedSeconds();
    }
    received += count;
    if (received == n) break;
    PhaseClock wait(m_.phase_comm_wait, "comm_wait", m_.live);
    VF2_ASSIGN_OR_RETURN(msg, inbox_.ReceiveType(MessageType::kGradBatch));
    wait.Stop();
  }
  return Status::OK();
}

IncrementalHistogramBuilder PartyAEngine::NewHistogramBuilder() {
  std::vector<const std::vector<Cipher>*> streams;
  for (const std::vector<Cipher>& s : streams_) streams.push_back(&s);
  return IncrementalHistogramBuilder(&binned_, &layout_, backend_.get(),
                                     config_.reordered, std::move(streams),
                                     pool_.get());
}

Status PartyAEngine::BuildAndSendHist(uint32_t tree, uint32_t layer,
                                      int32_t node) {
  const auto it = node_instances_.find(node);
  VF2_CHECK(it != node_instances_.end()) << "no instances for node " << node;

  live_.SetLayer(layer);
  Stopwatch timer;
  AccumulatorStats acc_stats;
  EncryptedHistogram hist;
  // The tree's first build is the root's, whose rows were all added while
  // the gradients streamed in; every later node adds its instance list here.
  const bool streamed = root_builder_.has_value();
  {
    obs::TraceSpan span("phase", "build_hist");
    if (span.active()) {
      span.AddArg("tree", static_cast<int64_t>(tree));
      span.AddArg("layer", static_cast<int64_t>(layer));
      span.AddArg("node", static_cast<int64_t>(node));
      span.AddArg("epoch", static_cast<int64_t>(hist_epoch_[node]));
      span.AddArg("instances", static_cast<int64_t>(it->second.size()));
    }
    IncrementalHistogramBuilder builder =
        streamed ? std::move(*root_builder_) : NewHistogramBuilder();
    root_builder_.reset();
    if (!streamed) builder.Add(it->second);
    hist = builder.Finalize(&acc_stats);
  }
  m_.hadds->Add(acc_stats.hadds);
  m_.scalings->Add(acc_stats.scalings);
  // Streamed accumulation time was clocked batch-by-batch in
  // ReceiveGradients; fold it back in so build_hist attribution covers the
  // whole root build.
  m_.phase_build_hist->Observe(timer.ElapsedSeconds() +
                               (streamed ? root_build_seconds_ : 0));
  if (streamed) root_build_seconds_ = 0;

  NodeHistogramPayload payload;
  payload.tree = tree;
  payload.layer = layer;
  payload.node = node;
  payload.epoch = hist_epoch_[node];

  if (gh_mode_) {
    payload.gh = true;
    bool packed_ok = false;
    if (config_.packing) {
      PhaseClock pack_clock(m_.phase_pack, "pack", m_.live);
      AccumulatorStats pack_stats;
      auto packed = PackGhHistogram(hist, layout_, gh_layout_, *backend_,
                                    &pack_stats, config_.min_pack_slots,
                                    pool_.get());
      if (packed.ok()) {
        packed_ok = true;
        payload.packed = true;
        payload.gh_packs = std::move(packed).value();
        m_.packs->Add(payload.gh_packs.size());
        m_.hadds->Add(pack_stats.hadds);
        m_.scalings->Add(pack_stats.scalings);
      }
    }
    if (!packed_ok) {
      // No packing, or key too small for the gh-wide slot: raw gh bins.
      payload.packed = false;
      payload.gh_bins = std::move(hist.gh_bins);
    }
  } else if (config_.packing) {
    PhaseClock pack_clock(m_.phase_pack, "pack", m_.live);
    AccumulatorStats pack_stats;
    auto loss = MakeLoss(config_.gbdt.objective);
    VF2_RETURN_IF_ERROR(loss.status());
    auto packed = PackHistogram(hist, layout_, data_.rows(),
                                loss.value()->GradientBound(), *backend_,
                                &pack_stats, config_.min_pack_slots,
                                pool_.get());
    if (packed.ok()) {
      payload.packed = true;
      payload.shift_g = packed->shift_g;
      payload.shift_h = packed->shift_h;
      payload.g_packs = std::move(packed->g_packs);
      payload.h_packs = std::move(packed->h_packs);
      m_.packs->Add(payload.g_packs.size() + payload.h_packs.size());
      m_.hadds->Add(pack_stats.hadds);
      m_.scalings->Add(pack_stats.scalings);
    } else {
      // Key too small for the required slot width: fall back to raw.
      payload.packed = false;
      payload.g_bins = std::move(hist.g_bins);
      payload.h_bins = std::move(hist.h_bins);
    }
  } else {
    payload.g_bins = std::move(hist.g_bins);
    payload.h_bins = std::move(hist.h_bins);
  }
  m_.ciphers_sent->Add(payload.g_bins.size() + payload.h_bins.size() +
                       payload.gh_bins.size() + payload.g_packs.size() +
                       payload.h_packs.size() + payload.gh_packs.size());
  inbox_.Send(EncodeNodeHistogram(payload, *backend_));
  return Status::OK();
}

Status PartyAEngine::SendPlacement(uint32_t tree, uint32_t layer,
                                   int32_t node, uint32_t feature,
                                   uint32_t bin, bool default_left) {
  const auto it = node_instances_.find(node);
  if (it == node_instances_.end()) {
    return Status::ProtocolError("placement requested for unknown node");
  }
  if (feature >= layout_.num_features() ||
      size_t{bin} + 1 >= layout_.NumBins(feature)) {
    return Status::ProtocolError("placement feature/bin out of range");
  }
  PlacementPayload reply;
  reply.tree = tree;
  reply.layer = layer;
  reply.node = node;
  {
    obs::TraceSpan span("phase", "placement");
    if (span.active()) span.AddArg("node", static_cast<int64_t>(node));
    reply.placement =
        ComputePlacement(binned_, it->second, feature, bin, default_left);
  }
  inbox_.Send(EncodePlacement(reply));
  return Status::OK();
}

Status PartyAEngine::HandleSplitQueries(const Message& msg) {
  DecisionsPayload queries;
  VF2_RETURN_IF_ERROR(DecodeDecisions(msg, &queries));
  for (const NodeDecision& q : queries.decisions) {
    if (q.action != NodeAction::kSplitQuery) {
      return Status::ProtocolError("non-query decision in SplitQueries");
    }
    VF2_RETURN_IF_ERROR(SendPlacement(queries.tree, queries.layer, q.node,
                                      q.feature, q.bin, q.default_left));
  }
  return Status::OK();
}

Status PartyAEngine::HandleDecisions(const Message& msg) {
  DecisionsPayload decisions;
  VF2_RETURN_IF_ERROR(DecodeDecisions(msg, &decisions));
  std::vector<std::pair<int32_t, bool>> built;  // (child id, is_redo)
  for (const NodeDecision& d : decisions.decisions) {
    if (d.action == NodeAction::kLeaf) continue;
    if (d.action != NodeAction::kSplitResolved) {
      return Status::ProtocolError(std::string("split query in ") +
                                   MessageTypeName(msg.type));
    }
    const auto it = node_instances_.find(d.node);
    if (it == node_instances_.end()) {
      return Status::ProtocolError("decision for unknown node");
    }
    // A correction replaces previously created optimistic children; the
    // children of an optimistic split or a sequential decision are new.
    const bool redo = node_instances_.count(d.left) > 0;
    if (redo) {
      ++hist_epoch_[d.left];
      ++hist_epoch_[d.right];
    }
    std::vector<uint32_t> left, right;
    ApplyPlacement(it->second, d.placement, &left, &right);
    // Only the smaller child is built; B derives the other's histograms.
    built.push_back(
        {BuildsLeftChild(left.size(), right.size()) ? d.left : d.right, redo});
    node_instances_[d.left] = std::move(left);
    node_instances_[d.right] = std::move(right);
  }
  if (!ChildrenNeedHists(decisions.layer)) return Status::OK();
  for (const auto& [child, redo] : built) {
    // The wasted-then-redone work the optimistic protocol pays for a dirty
    // node wraps the ordinary build, so the cost shows as one "redo_hist"
    // block in the timeline.
    std::optional<obs::TraceSpan> redo_span;
    if (redo) {
      m_.redone_hist_builds->Add(1);
      redo_span.emplace("phase", "redo_hist");
      if (redo_span->active()) {
        redo_span->AddArg("node", static_cast<int64_t>(child));
      }
    }
    VF2_RETURN_IF_ERROR(
        BuildAndSendHist(decisions.tree, decisions.layer + 1, child));
  }
  return Status::OK();
}

Status PartyAEngine::RunTree(Message first_grad_msg) {
  node_instances_.clear();
  hist_epoch_.clear();
  std::vector<uint32_t> all(data_.rows());
  std::iota(all.begin(), all.end(), 0);
  node_instances_[0] = std::move(all);

  uint32_t tree_id = 0;
  VF2_RETURN_IF_ERROR(ReceiveGradients(std::move(first_grad_msg), &tree_id));
  current_tree_ = tree_id;
  live_.SetTree(static_cast<int64_t>(tree_id));

  if (config_.gbdt.num_layers >= 2) {
    VF2_RETURN_IF_ERROR(BuildAndSendHist(tree_id, /*layer=*/0, /*node=*/0));
  }

  for (;;) {
    PhaseClock wait(m_.phase_comm_wait, "comm_wait", m_.live);
    VF2_ASSIGN_OR_RETURN(Message msg, inbox_.Receive());
    wait.Stop();
    switch (msg.type) {
      case MessageType::kTreeDone:
        return Status::OK();
      case MessageType::kSplitQueries:
        VF2_RETURN_IF_ERROR(HandleSplitQueries(msg));
        break;
      case MessageType::kDecisions:
      case MessageType::kOptPlacements:
        VF2_RETURN_IF_ERROR(HandleDecisions(msg));
        break;
      default:
        return Status::ProtocolError(
            std::string("party A unexpected message: ") +
            MessageTypeName(msg.type));
    }
  }
}

}  // namespace vf2boost

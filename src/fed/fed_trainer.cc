#include "fed/fed_trainer.h"

#include <string>
#include <thread>

#include "common/logging.h"
#include "fed/party_a.h"
#include "obs/trace.h"

namespace vf2boost {

Result<GbdtModel> FedTrainResult::ToJointModel(
    const VerticalSplitSpec& spec) const {
  if (spec.num_parties() != party_a_cuts.size() + 1) {
    return Status::InvalidArgument("spec party count mismatch");
  }
  GbdtModel joint = model;
  for (Tree& tree : joint.trees) {
    for (size_t i = 0; i < tree.size(); ++i) {
      TreeNode& n = tree.node(static_cast<int32_t>(i));
      if (n.is_leaf() || n.owner_party < 0) continue;
      const size_t p = static_cast<size_t>(n.owner_party);
      if (p >= spec.num_parties()) {
        return Status::Corruption("node owner out of range");
      }
      const auto& columns = spec.party_columns[p];
      if (n.feature >= columns.size()) {
        return Status::Corruption("node feature out of party range");
      }
      if (p < party_a_cuts.size()) {
        // A-owned: recover the real threshold from the owner's cuts.
        n.split_value = party_a_cuts[p].SplitValue(n.feature, n.split_bin);
      }
      n.feature = columns[n.feature];
      n.owner_party = -1;
    }
  }
  return joint;
}

FedTrainResult MakeFedTrainResult(PartyBResult b,
                                  const std::vector<Dataset>& parties,
                                  const FedConfig& config) {
  FedTrainResult out;
  out.model = std::move(b.model);
  out.log = std::move(b.log);
  for (size_t p = 0; p + 1 < parties.size(); ++p) {
    out.party_a_cuts.push_back(
        ComputeBinCuts(parties[p].features, config.gbdt.max_bins));
  }
  out.metrics = config.metrics->Snapshot();
  return out;
}

namespace {

// Brings up one side of channel `channel` (the A party's index): a session
// whose Open dials or accepts through `factory` and exchanges hellos.
Result<std::unique_ptr<MessagePort>> ConnectChannel(
    ChannelFactory* factory, const FedConfig& config, size_t num_a,
    size_t channel, bool a_side, double timeout_seconds) {
  const uint64_t fingerprint = config.Fingerprint();
  auto session = std::make_unique<SessionChannel>(
      factory, channel, a_side, fingerprint ^ (0x5e55ULL + channel),
      static_cast<uint32_t>(a_side ? channel : num_a), fingerprint,
      config.NetworkFor(channel), config.metrics);
  if (a_side) session->set_clock_sync(config.clock_sync_state);
  Result<HelloPayload> peer = session->Open(timeout_seconds);
  if (!peer.ok()) {
    // Wakes a peer still waiting on this link or on the factory.
    session->Close(peer.status());
    return peer.status();
  }
  return std::unique_ptr<MessagePort>(std::move(session));
}

}  // namespace

Status RunPartyA(ChannelFactory* factory, const FedConfig& config,
                 const Dataset& shard, size_t num_a, size_t index,
                 double timeout_seconds) {
  VF2_ASSIGN_OR_RETURN(auto port,
                       ConnectChannel(factory, config, num_a, index,
                                      /*a_side=*/true, timeout_seconds));
  return PartyAEngine(config, shard, port.get(), static_cast<uint32_t>(index))
      .Run();
}

Result<PartyBResult> RunPartyB(ChannelFactory* factory,
                               const FedConfig& config, const Dataset& shard,
                               size_t num_a, double timeout_seconds) {
  std::vector<std::unique_ptr<MessagePort>> ports;
  std::vector<MessagePort*> port_ptrs;
  for (size_t p = 0; p < num_a; ++p) {
    auto port = ConnectChannel(factory, config, num_a, p, /*a_side=*/false,
                               timeout_seconds);
    if (!port.ok()) {
      for (auto& up : ports) up->Close(port.status());
      return port.status();
    }
    port_ptrs.push_back(port->get());
    ports.push_back(std::move(port).value());
  }
  return PartyBEngine(config, shard, std::move(port_ptrs)).Run();
}

Result<FedTrainResult> FedTrainer::Train(
    const std::vector<Dataset>& parties) const {
  // The trainer thread is trace pid 0; engines rebind to pid = party + 1
  // while they run (B borrows this thread and restores it).
  obs::ThreadPartyScope trainer_scope(0, "trainer");
  VF2_TRACE_SPAN("phase", "fed_train");
  VF2_RETURN_IF_ERROR(config_.Validate());
  // All engines of a run share one registry; callers that want the metrics
  // afterwards pass their own via FedConfig::metrics, everyone else gets
  // this run-local one (outlives the engines: they join before we return).
  obs::MetricsRegistry local_registry;
  FedConfig config = config_;
  if (config.metrics == nullptr) config.metrics = &local_registry;
  if (parties.size() < 2) {
    return Status::InvalidArgument("need at least two parties");
  }
  const Dataset& party_b = parties.back();
  if (!party_b.has_labels()) {
    return Status::InvalidArgument("last party (B) must own the labels");
  }
  const size_t num_a = parties.size() - 1;
  for (size_t p = 0; p < num_a; ++p) {
    if (parties[p].rows() != party_b.rows()) {
      return Status::InvalidArgument(
          "party " + std::to_string(p) +
          " row count differs from party B (instances not aligned?)");
    }
    if (parties[p].has_labels()) {
      return Status::InvalidArgument(
          "party " + std::to_string(p) +
          " carries labels; only party B may (privacy violation)");
    }
  }

  // Every party brings its links up through the broker exactly as a TCP
  // process does through its TcpChannelFactory. Both sides are threads of
  // this process, so the rendezvous only waits for thread start-up; a side
  // that cannot come up shuts the broker down so its peers fail fast.
  constexpr double kRendezvousSeconds = 30;
  std::vector<NetworkConfig> nets;
  for (size_t p = 0; p < num_a; ++p) nets.push_back(config.NetworkFor(p));
  SessionBroker broker(std::move(nets));
  std::vector<Status> a_status(num_a);
  std::vector<std::thread> threads;
  for (size_t p = 0; p < num_a; ++p) {
    threads.emplace_back([&, p] {
      a_status[p] = RunPartyA(&broker, config, parties[p], num_a, p,
                              kRendezvousSeconds);
      if (!a_status[p].ok()) {
        VF2_LOG(Error) << "party A" << p
                       << " failed: " << a_status[p].ToString();
      }
    });
  }
  Result<PartyBResult> b_result =
      RunPartyB(&broker, config, party_b, num_a, kRendezvousSeconds);

  // Joining is always safe: every engine closes its channel on exit, so a
  // failure on either side wakes the peer's blocked receives — A threads
  // cannot outlive a failed B, and a dead A cannot hang B.
  for (auto& t : threads) t.join();

  bool any_a_failed = false;
  std::string failures;
  if (!b_result.ok()) {
    failures += "party B: " + b_result.status().ToString();
  }
  for (size_t p = 0; p < num_a; ++p) {
    if (a_status[p].ok()) continue;
    any_a_failed = true;
    if (!failures.empty()) failures += "; ";
    failures += "party A" + std::to_string(p) + ": " + a_status[p].ToString();
  }
  if (!b_result.ok() && !any_a_failed) return b_result.status();
  if (!failures.empty()) {
    return Status::Aborted("federated training failed: " + failures);
  }
  return MakeFedTrainResult(std::move(b_result).value(), parties, config);
}

}  // namespace vf2boost

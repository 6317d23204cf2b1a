#include "fed/fed_trainer.h"

#include <string>
#include <thread>

#include "common/logging.h"
#include "fed/party_a.h"
#include "fed/party_b.h"
#include "fed/session.h"
#include "obs/build_info.h"
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
  obs::RegisterBuildInfo(config.metrics);
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

  // One duplex channel per A party, with optional per-party network faults.
  // When any channel has a reconnect budget, a session broker is stood up
  // and every endpoint is wrapped in a SessionChannel so engines can
  // re-establish dead links at tree boundaries.
  std::vector<NetworkConfig> nets;
  bool any_resilient = false;
  for (size_t p = 0; p < num_a; ++p) {
    nets.push_back(p < config.network_per_party.size()
                       ? config.network_per_party[p]
                       : config.network);
    if (nets.back().reconnect_max_attempts > 0) any_resilient = true;
  }
  std::unique_ptr<SessionBroker> broker;
  if (any_resilient) broker = std::make_unique<SessionBroker>(nets);
  const uint64_t fingerprint = config.Fingerprint();
  std::vector<std::unique_ptr<MessagePort>> a_ends, b_ends;
  for (size_t p = 0; p < num_a; ++p) {
    auto [a, b] = ChannelEndpoint::CreatePair(nets[p]);
    if (any_resilient) {
      // Session ids only need to be stable across both sides of one run and
      // distinct across channels; resumed runs re-derive the same ids.
      const uint64_t session_id = fingerprint ^ (0x5e55ULL + p);
      a_ends.push_back(std::make_unique<SessionChannel>(
          broker.get(), p, /*a_side=*/true, session_id,
          static_cast<uint32_t>(p), fingerprint, nets[p], std::move(a),
          config.metrics));
      b_ends.push_back(std::make_unique<SessionChannel>(
          broker.get(), p, /*a_side=*/false, session_id,
          static_cast<uint32_t>(num_a), fingerprint, nets[p], std::move(b),
          config.metrics));
    } else {
      a_ends.push_back(std::move(a));
      b_ends.push_back(std::move(b));
    }
  }

  // Build every engine before spawning any thread: the vector must not
  // reallocate while worker threads hold references into it.
  std::vector<std::unique_ptr<PartyAEngine>> engines;
  for (size_t p = 0; p < num_a; ++p) {
    engines.push_back(std::make_unique<PartyAEngine>(
        config, parties[p], a_ends[p].get(), static_cast<uint32_t>(p)));
  }
  std::vector<Status> a_status(num_a);
  std::vector<std::thread> threads;
  for (size_t p = 0; p < num_a; ++p) {
    PartyAEngine* engine = engines[p].get();
    threads.emplace_back([&a_status, engine, p] {
      a_status[p] = engine->Run();
      if (!a_status[p].ok()) {
        VF2_LOG(Error) << "party A" << p
                       << " failed: " << a_status[p].ToString();
      }
    });
  }

  std::vector<MessagePort*> b_channel_ptrs;
  for (auto& e : b_ends) b_channel_ptrs.push_back(e.get());
  PartyBEngine party_b_engine(config, party_b, std::move(b_channel_ptrs));
  Result<PartyBResult> b_result = party_b_engine.Run();

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

  FedTrainResult out;
  out.model = std::move(b_result->model);
  out.log = std::move(b_result->log);
  for (const auto& engine : engines) out.party_a_cuts.push_back(engine->cuts());
  // Per-direction channel gauges (after join: stats are final). Sums over
  // every link generation when the session layer replaced endpoints.
  for (size_t p = 0; p < num_a; ++p) {
    const std::string chan = "channel/a" + std::to_string(p);
    auto export_direction = [&](const std::string& dir,
                                const ChannelStats& s) {
      auto set = [&](const char* name, const char* unit, size_t v) {
        config.metrics->GetGauge(chan + dir + name, unit)
            ->Set(static_cast<double>(v));
      };
      set("/bytes", "bytes", s.bytes);
      set("/messages", "messages", s.messages);
      set("/dropped", "messages", s.dropped);
    };
    export_direction("/to_b", a_ends[p]->sent_stats());
    export_direction("/from_b", b_ends[p]->sent_stats());
  }
  out.metrics = config.metrics->Snapshot();
  return out;
}

}  // namespace vf2boost

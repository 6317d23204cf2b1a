#include "fed/fed_metrics.h"

namespace vf2boost {

PartyMetrics PartyMetrics::Create(obs::MetricsRegistry* registry,
                                  const std::string& prefix) {
  PartyMetrics m;
  m.encryptions = registry->GetCounter(prefix + "/encryptions");
  m.decryptions = registry->GetCounter(prefix + "/decryptions");
  m.hadds = registry->GetCounter(prefix + "/hadds");
  m.scalings = registry->GetCounter(prefix + "/scalings");
  m.packs = registry->GetCounter(prefix + "/packs");
  m.splits_a = registry->GetCounter(prefix + "/splits_a");
  m.splits_b = registry->GetCounter(prefix + "/splits_b");
  m.leaves = registry->GetCounter(prefix + "/leaves");
  m.optimistic_splits = registry->GetCounter(prefix + "/optimistic_splits");
  m.dirty_nodes = registry->GetCounter(prefix + "/dirty_nodes");
  m.redone_hist_builds =
      registry->GetCounter(prefix + "/redone_hist_builds");
  m.inbox_high_water =
      registry->GetGauge(prefix + "/inbox_high_water", "messages");
  m.bytes_sent = registry->GetGauge(prefix + "/bytes_sent", "bytes");
  m.messages_sent = registry->GetGauge(prefix + "/messages_sent", "messages");
  m.messages_dropped =
      registry->GetGauge(prefix + "/messages_dropped", "messages");
  m.noise_pool_hits = registry->GetCounter(prefix + "/noise_pool/hits");
  m.noise_pool_misses = registry->GetCounter(prefix + "/noise_pool/misses");
  m.noise_pool_produced =
      registry->GetCounter(prefix + "/noise_pool/produced");
  m.noise_pool_fill =
      registry->GetGauge(prefix + "/noise_pool/fill", "nonces");
  m.pool_queue_high_water =
      registry->GetGauge(prefix + "/pool_queue_high_water", "tasks");
  m.pool_busy_workers =
      registry->GetGauge(prefix + "/pool/busy_workers", "workers");
  m.pool_size = registry->GetGauge(prefix + "/pool/size", "workers");
  m.reconnects = registry->GetCounter(prefix + "/session/reconnects");
  m.trees_resumed = registry->GetCounter(prefix + "/session/trees_resumed");
  m.features = registry->GetGauge(prefix + "/features", "features");
  m.ciphers_sent = registry->GetCounter(prefix + "/ciphers_sent");
  m.gh_pack_ratio =
      registry->GetGauge(prefix + "/gh_pack_ratio", "values/cipher");
  m.trees_finished = registry->GetCounter(prefix + "/trees_finished");
  m.phase_encrypt = registry->GetHistogram(prefix + "/phase/encrypt");
  m.phase_build_hist = registry->GetHistogram(prefix + "/phase/build_hist");
  m.phase_pack = registry->GetHistogram(prefix + "/phase/pack");
  m.phase_decrypt = registry->GetHistogram(prefix + "/phase/decrypt");
  m.phase_find_split = registry->GetHistogram(prefix + "/phase/find_split");
  m.phase_comm_wait = registry->GetHistogram(prefix + "/phase/comm_wait");
  return m;
}

}  // namespace vf2boost

#ifndef VF2BOOST_OBS_PROM_EXPORT_H_
#define VF2BOOST_OBS_PROM_EXPORT_H_

#include <string>
#include <vector>

#include "obs/metrics_registry.h"

namespace vf2boost {
namespace obs {

class RemoteMetrics;

/// Maps a registry metric name to its Prometheus name and (optional) party
/// label. The registry's party prefixes become labels instead of name parts:
///   "party_b/encryptions"      -> vf2_encryptions{party="B"}
///   "party_a0/phase/build_hist"-> vf2_phase_build_hist{party="A0"}
///   "transport/tcp/bytes_read" -> vf2_transport_tcp_bytes_read (no label)
/// Remaining '/'-separators and other non-[a-zA-Z0-9_:] characters become
/// '_'. Returns the Prometheus name; *party_label receives "" when the name
/// carries no party prefix.
std::string PromMetricName(const std::string& raw, std::string* party_label);

/// Renders Prometheus text exposition format 0.0.4 from a snapshot of
/// `registry` (filtered to names starting with `only_prefix`; "" = all),
/// merged with the latest remote snapshots in `remote` (may be null). A
/// remote sample with the same raw name as a local one wins, which dedups
/// the in-process simulation where all parties share one registry.
///
/// Histograms render as cumulative le-buckets plus _sum/_count. Every
/// exposition also self-identifies the binary:
///   vf2_build_info{version="...",git_sha="..."} 1
///   vf2_process_start_time_seconds / vf2_process_uptime_seconds
std::string RenderPrometheus(const MetricsRegistry& registry,
                             const std::string& only_prefix = "",
                             const RemoteMetrics* remote = nullptr);

/// Same, over an explicit local snapshot (for tests and custom exporters).
std::string RenderPrometheusSamples(const std::vector<MetricSample>& local,
                                    const RemoteMetrics* remote = nullptr);

}  // namespace obs
}  // namespace vf2boost

#endif  // VF2BOOST_OBS_PROM_EXPORT_H_

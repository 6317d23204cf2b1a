#include "obs/trace.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "data/partition.h"
#include "data/synthetic.h"
#include "fed/fed_trainer.h"
#include "obs/clock_sync.h"
#include "obs/flight_recorder.h"
#include "obs/live_status.h"
#include "obs/metrics_registry.h"
#include "obs/prom_export.h"
#include "obs/trace_check.h"
#include "obs/trace_gantt.h"
#include "obs/watchdog.h"

namespace vf2boost {
namespace {

using obs::Counter;
using obs::Gauge;
using obs::Histogram;
using obs::MetricsRegistry;
using obs::TraceRecorder;
using obs::TraceSpan;
using obs::TraceSummary;

// ---------------------------------------------------------------------------
// MetricsRegistry

TEST(MetricsRegistryTest, HandlesAreStableAndTyped) {
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("events");
  Gauge* g = reg.GetGauge("depth", "tasks");
  Histogram* h = reg.GetHistogram("latency");
  c->Add(3);
  g->Set(7.5);
  h->Observe(0.5);
  // Same name returns the same object, not a fresh one.
  EXPECT_EQ(c, reg.GetCounter("events"));
  EXPECT_EQ(g, reg.GetGauge("depth"));
  EXPECT_EQ(h, reg.GetHistogram("latency"));
  EXPECT_EQ(c->value(), 3u);
  EXPECT_DOUBLE_EQ(g->value(), 7.5);
  EXPECT_EQ(h->count(), 1u);
  EXPECT_FALSE(reg.empty());
  EXPECT_EQ(reg.size(), 3u);
}

TEST(MetricsRegistryTest, GaugeMaxIsHighWaterMark) {
  Gauge g;
  g.Max(4);
  g.Max(2);  // lower: ignored
  EXPECT_DOUBLE_EQ(g.value(), 4);
  g.Max(9);
  EXPECT_DOUBLE_EQ(g.value(), 9);
}

TEST(MetricsRegistryTest, HistogramStatsAndBuckets) {
  Histogram h;  // 1us first bucket, x2 growth
  h.Observe(0.5e-6);
  h.Observe(3e-6);
  h.Observe(1.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.min(), 0.5e-6);
  EXPECT_DOUBLE_EQ(h.max(), 1.0);
  EXPECT_NEAR(h.sum(), 1.0 + 3.5e-6, 1e-12);
  EXPECT_NEAR(h.mean(), h.sum() / 3, 1e-12);
  // 0.5us lands in bucket 0 (<= 1us); 3us in bucket 2 (<= 4us).
  EXPECT_EQ(h.BucketCount(0), 1u);
  EXPECT_EQ(h.BucketCount(2), 1u);
  EXPECT_DOUBLE_EQ(h.BucketUpper(0), 1e-6);
  EXPECT_DOUBLE_EQ(h.BucketUpper(2), 4e-6);
}

TEST(MetricsRegistryTest, EmptyHistogramMinIsZero) {
  Histogram h;
  EXPECT_DOUBLE_EQ(h.min(), 0);
  EXPECT_DOUBLE_EQ(h.mean(), 0);
}

TEST(MetricsRegistryTest, ExportsValidFlatJson) {
  MetricsRegistry reg;
  reg.GetCounter("enc")->Add(42);
  reg.GetGauge("fill", "ct")->Set(17);
  reg.GetHistogram("phase")->Observe(0.25);
  reg.SetValue("wall_time", 1.5, "s");
  reg.SetValue("wall_time", 2.5, "s");  // overwrite, not duplicate

  std::string error;
  std::vector<std::string> names;
  ASSERT_TRUE(obs::ValidateMetricsJson(reg.ToJson(), &error, &names)) << error;
  // Histogram exports 5 flat entries; the rest one each.
  EXPECT_EQ(names.size(), 3u + 5u);
  auto has = [&](const std::string& n) {
    for (const auto& name : names)
      if (name == n) return true;
    return false;
  };
  EXPECT_TRUE(has("enc"));
  EXPECT_TRUE(has("fill"));
  EXPECT_TRUE(has("wall_time"));
  EXPECT_TRUE(has("phase"));  // histogram sum exports under the bare name
  EXPECT_TRUE(has("phase/count"));
  EXPECT_TRUE(has("phase/mean"));
  EXPECT_TRUE(has("phase/min"));
  EXPECT_TRUE(has("phase/max"));
}

TEST(MetricsRegistryTest, ConcurrentHammer) {
  // The exact access pattern the trainer uses: handles resolved up front,
  // then hot-path atomics from many threads, plus concurrent first-use
  // registration of fresh names. Run under TSan in CI.
  MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kIters = 5000;
  Counter* shared = reg.GetCounter("shared");
  Gauge* high_water = reg.GetGauge("hw");
  Histogram* lat = reg.GetHistogram("lat");
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Counter* own = reg.GetCounter("own" + std::to_string(t));
      for (int i = 0; i < kIters; ++i) {
        shared->Add(1);
        own->Add(1);
        high_water->Max(t * kIters + i);
        lat->Observe(1e-6 * (i + 1));
        if (i % 512 == 0) {
          reg.SetValue("scratch" + std::to_string(t), i, "n");
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(shared->value(), uint64_t{kThreads} * kIters);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(reg.GetCounter("own" + std::to_string(t))->value(),
              uint64_t{kIters});
  }
  EXPECT_DOUBLE_EQ(high_water->value(), (kThreads - 1) * kIters + kIters - 1);
  EXPECT_EQ(lat->count(), uint64_t{kThreads} * kIters);
  std::string error;
  ASSERT_TRUE(obs::ValidateMetricsJson(reg.ToJson(), &error, nullptr))
      << error;
}

// ---------------------------------------------------------------------------
// TraceRecorder

TEST(TraceTest, DisabledSpansAreInert) {
  ASSERT_EQ(TraceRecorder::Current(), nullptr);
  TraceSpan span("phase", "nothing");
  EXPECT_FALSE(span.active());
  span.AddArg("k", int64_t{1});  // must not crash
  TraceRecorder::SetThreadParty(3, "ghost");
  VF2_TRACE_SPAN("phase", "also_nothing");
}

TEST(TraceTest, RecorderEmitsValidJson) {
  TraceRecorder rec;
  rec.Install();
  {
    obs::ThreadPartyScope party(1, "party A0");
    {
      TraceSpan span("phase", "build_hist");
      span.AddArg("node", int64_t{5});
      span.AddArg("note", std::string("quote\"me"));
    }
    rec.FlowStart("snd Hist", 7, "\"bytes\":128");
    rec.FlowEnd("rcv Hist", 7, "");
    rec.CounterValue("pool_fill", 42);
  }
  TraceRecorder::Uninstall();

  std::string error;
  TraceSummary summary;
  ASSERT_TRUE(obs::ValidateTraceJson(rec.ToJson(), &error, &summary)) << error;
  // 1 explicit span + 2 flow anchor spans; 1 s + 1 f; 1 counter sample.
  EXPECT_EQ(summary.complete_spans, 3u);
  EXPECT_EQ(summary.flow_starts, 1u);
  EXPECT_EQ(summary.flow_ends, 1u);
  EXPECT_EQ(summary.counters, 1u);
  EXPECT_EQ(summary.span_counts["build_hist"], 1u);
  const auto names = rec.ProcessNames();
  ASSERT_EQ(names.count(1), 1u);
  EXPECT_EQ(names.at(1), "party A0");
}

TEST(TraceTest, ThreadPartyScopeRestoresPreviousBinding) {
  TraceRecorder rec;
  rec.Install();
  {
    obs::ThreadPartyScope outer(2, "outer");
    { obs::ThreadPartyScope inner(5, "inner"); }
    TraceSpan span("phase", "after_inner");
  }
  TraceRecorder::Uninstall();
  const auto spans = rec.CompleteSpans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].pid, 2u) << "inner scope leaked its pid";
}

TEST(TraceTest, FlowMatchingIsOrderInsensitive) {
  // The recorder appends from many threads: the receiver's 'f' can land in
  // the event array before the sender's 's'. The validator must match flows
  // by id, not array order.
  TraceRecorder rec;
  rec.Install();
  rec.FlowEnd("rcv Msg", 99, "");
  rec.FlowStart("snd Msg", 99, "");
  // A dangling start is legal too: the message was dropped in flight.
  rec.FlowStart("snd Lost", 100, "");
  TraceRecorder::Uninstall();
  std::string error;
  TraceSummary summary;
  ASSERT_TRUE(obs::ValidateTraceJson(rec.ToJson(), &error, &summary)) << error;
  EXPECT_EQ(summary.flow_starts, 2u);
  EXPECT_EQ(summary.flow_ends, 1u);
}

TEST(TraceTest, ValidatorRejectsFabricatedDelivery) {
  TraceRecorder rec;
  rec.Install();
  rec.FlowEnd("rcv Msg", 123, "");  // no matching start anywhere
  TraceRecorder::Uninstall();
  std::string error;
  EXPECT_FALSE(obs::ValidateTraceJson(rec.ToJson(), &error, nullptr));
  EXPECT_NE(error.find("flow finish without start"), std::string::npos)
      << error;
}

TEST(TraceTest, ValidatorRejectsMalformedInput) {
  std::string error;
  EXPECT_FALSE(obs::ValidateTraceJson("not json", &error, nullptr));
  EXPECT_FALSE(obs::ValidateTraceJson("{}", &error, nullptr));
  EXPECT_FALSE(obs::ValidateTraceJson(R"({"traceEvents": 3})", &error,
                                      nullptr));
  // Events must carry ph/ts/pid/tid/name.
  EXPECT_FALSE(obs::ValidateTraceJson(
      R"({"traceEvents": [{"ph": "X", "name": "x"}]})", &error, nullptr));
  EXPECT_FALSE(obs::ValidateTraceJson(
      R"({"traceEvents": [{"ts": 1, "pid": 0, "tid": 0, "name": "x"}]})",
      &error, nullptr));
  // Complete spans need a nonnegative duration.
  EXPECT_FALSE(obs::ValidateTraceJson(
      R"({"traceEvents": [{"ph": "X", "ts": 1, "pid": 0, "tid": 0,)"
      R"( "name": "x", "dur": -5}]})",
      &error, nullptr));
  EXPECT_FALSE(obs::ValidateMetricsJson("[]", &error, nullptr));
  EXPECT_FALSE(obs::ValidateMetricsJson("{}", &error, nullptr));
}

TEST(TraceTest, ConcurrentEmission) {
  // Hammer one recorder from many party-bound threads; the resulting trace
  // must still be structurally valid with every flow matched. Run under
  // TSan in CI.
  TraceRecorder rec;
  rec.Install();
  constexpr int kThreads = 8;
  constexpr int kIters = 400;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      obs::ThreadPartyScope party(static_cast<uint32_t>(t),
                                  "party " + std::to_string(t));
      for (int i = 0; i < kIters; ++i) {
        const uint64_t id = static_cast<uint64_t>(t) * kIters + i;
        {
          TraceSpan span("phase", "work");
          span.AddArg("i", int64_t{i});
        }
        rec.FlowStart("snd", id, "");
        rec.FlowEnd("rcv", id, "");
        rec.CounterValue("progress", i);
      }
    });
  }
  for (auto& t : threads) t.join();
  TraceRecorder::Uninstall();

  std::string error;
  TraceSummary summary;
  ASSERT_TRUE(obs::ValidateTraceJson(rec.ToJson(), &error, &summary)) << error;
  EXPECT_EQ(summary.span_counts["work"], size_t{kThreads} * kIters);
  EXPECT_EQ(summary.flow_starts, size_t{kThreads} * kIters);
  EXPECT_EQ(summary.flow_ends, size_t{kThreads} * kIters);
  EXPECT_EQ(rec.ProcessNames().size(), size_t{kThreads});
}

// ---------------------------------------------------------------------------
// Snapshots, per-party artifact paths, Prometheus export

TEST(MetricsRegistryTest, SnapshotFiltersByPrefixAndCarriesBuckets) {
  MetricsRegistry reg;
  reg.GetCounter("party_a0/hadds")->Add(5);
  reg.GetCounter("party_b/decryptions")->Add(2);
  reg.GetHistogram("party_a0/phase/build_hist")->Observe(3e-6);

  // Trailing-slash prefix: "party_a0/" must not match "party_a00/...".
  reg.GetCounter("party_a00/hadds")->Add(99);
  const auto a0 = reg.Snapshot("party_a0/");
  ASSERT_EQ(a0.size(), 2u);
  EXPECT_EQ(a0[0].name, "party_a0/hadds");
  EXPECT_EQ(a0[0].kind, obs::MetricSample::Kind::kCounter);
  EXPECT_EQ(a0[0].unit, "count");
  EXPECT_DOUBLE_EQ(a0[0].value, 5);
  EXPECT_EQ(a0[1].kind, obs::MetricSample::Kind::kHistogram);
  EXPECT_EQ(a0[1].count, 1u);
  ASSERT_EQ(a0[1].buckets.size(), Histogram::kBuckets + 1);
  EXPECT_EQ(a0[1].buckets[2], 1u);  // 3us lands in (2us, 4us]

  EXPECT_EQ(reg.Snapshot("").size(), reg.size());
}

TEST(MetricsRegistryTest, PartySumSelectsPartiesByPrefix) {
  MetricsRegistry reg;
  reg.GetCounter("party_a0/hadds")->Add(5);
  reg.GetCounter("party_a1/hadds")->Add(7);
  reg.GetCounter("party_b/hadds")->Add(11);
  reg.GetGauge("party_a0/bytes_sent", "bytes")->Set(100);
  reg.GetGauge("party_b/bytes_sent", "bytes")->Set(30);
  reg.GetHistogram("party_a0/phase/encrypt")->Observe(0.25);
  reg.GetHistogram("party_a1/phase/encrypt")->Observe(0.5);
  reg.GetHistogram("party_b/phase/encrypt")->Observe(2.0);
  // Same leaf name outside a party, and names the exact match must skip.
  reg.GetCounter("transport/hadds")->Add(1000);
  reg.GetCounter("party_a0/hadds_extra")->Add(1000);
  reg.GetCounter("party_b/session/hadds")->Add(1000);
  const auto samples = reg.Snapshot();

  EXPECT_DOUBLE_EQ(obs::PartySum(samples, "party_", "hadds"), 23);
  EXPECT_DOUBLE_EQ(obs::PartySum(samples, "party_a", "hadds"), 12);
  EXPECT_DOUBLE_EQ(obs::PartySum(samples, "party_a1", "hadds"), 7);
  EXPECT_DOUBLE_EQ(obs::PartySum(samples, "party_b", "hadds"), 11);
  // Gauges contribute their value, histograms their sum.
  EXPECT_DOUBLE_EQ(obs::PartySum(samples, "party_", "bytes_sent"), 130);
  EXPECT_DOUBLE_EQ(obs::PartySum(samples, "party_a", "phase/encrypt"), 0.75);
  EXPECT_DOUBLE_EQ(obs::PartySum(samples, "party_b", "phase/encrypt"), 2.0);
  // The name after the first '/' must match exactly.
  EXPECT_DOUBLE_EQ(obs::PartySum(samples, "party_b", "session/hadds"), 1000);
  EXPECT_DOUBLE_EQ(obs::PartySum(samples, "party_", "phase"), 0);
  // Absent names and parties give 0.
  EXPECT_DOUBLE_EQ(obs::PartySum(samples, "party_", "scalings"), 0);
  EXPECT_DOUBLE_EQ(obs::PartySum(samples, "party_c", "hadds"), 0);
  EXPECT_DOUBLE_EQ(obs::PartySum({}, "party_", "hadds"), 0);
}

TEST(MetricsRegistryTest, PartyArtifactPathSplicesBeforeExtension) {
  EXPECT_EQ(obs::PartyArtifactPath("out/metrics.json", "party_b"),
            "out/metrics.party_b.json");
  EXPECT_EQ(obs::PartyArtifactPath("trace.json", "party_a0"),
            "trace.party_a0.json");
  // A dot in a directory name is not an extension.
  EXPECT_EQ(obs::PartyArtifactPath("run.1/metrics", "party_b"),
            "run.1/metrics.party_b");
  EXPECT_EQ(obs::PartyArtifactPath("metrics", "party_a1"),
            "metrics.party_a1");
}

TEST(PromExportTest, PartyPrefixesBecomeLabels) {
  std::string label;
  EXPECT_EQ(obs::PromMetricName("party_b/encryptions", &label),
            "vf2_encryptions");
  EXPECT_EQ(label, "B");
  EXPECT_EQ(obs::PromMetricName("party_a0/phase/build_hist", &label),
            "vf2_phase_build_hist");
  EXPECT_EQ(label, "A0");
  EXPECT_EQ(obs::PromMetricName("channel/a0/to_b/bytes", &label),
            "vf2_channel_a0_to_b_bytes");
  EXPECT_EQ(label, "");
  // "party_a" without digits is not a party prefix.
  EXPECT_EQ(obs::PromMetricName("party_about/x", &label),
            "vf2_party_about_x");
  EXPECT_EQ(label, "");
}

TEST(PromExportTest, RendersTypesBucketsAndBuildInfo) {
  MetricsRegistry reg;
  reg.GetCounter("party_b/decryptions")->Add(7);
  reg.GetGauge("party_b/features", "features")->Set(4);
  reg.GetHistogram("party_b/phase/decrypt")->Observe(0.5);
  const std::string text = obs::RenderPrometheus(reg);
  EXPECT_NE(text.find("vf2_build_info{version="), std::string::npos) << text;
  EXPECT_NE(text.find("# TYPE vf2_decryptions counter"), std::string::npos);
  EXPECT_NE(text.find("vf2_decryptions{party=\"B\"} 7"), std::string::npos);
  EXPECT_NE(text.find("# TYPE vf2_phase_decrypt histogram"),
            std::string::npos);
  EXPECT_NE(text.find("le=\"+Inf\"} 1"), std::string::npos) << text;
  EXPECT_NE(text.find("vf2_phase_decrypt_sum{party=\"B\"} 0.5"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("vf2_phase_decrypt_count{party=\"B\"} 1"),
            std::string::npos);
}

TEST(PromExportTest, OsGaugesCollapseCpuModesIntoOneFamily) {
  MetricsRegistry reg;
  reg.GetGauge("party_b/os/rss_bytes", "B")->Set(1048576);
  reg.GetGauge("party_b/os/cpu_seconds/user", "s")->Set(2.5);
  reg.GetGauge("party_b/os/cpu_seconds/sys", "s")->Set(0.5);
  const std::string text = obs::RenderPrometheus(reg);
  EXPECT_NE(text.find("vf2_os_rss_bytes{party=\"B\"} 1048576"),
            std::string::npos)
      << text;
  // user and sys become series of ONE family with a mode label — a single
  // # TYPE line, no vf2_os_cpu_seconds_user family.
  EXPECT_NE(text.find("# TYPE vf2_os_cpu_seconds gauge"), std::string::npos)
      << text;
  EXPECT_EQ(text.find("# TYPE vf2_os_cpu_seconds_user"), std::string::npos)
      << text;
  EXPECT_NE(text.find("vf2_os_cpu_seconds{party=\"B\",mode=\"user\"} 2.5"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("vf2_os_cpu_seconds{party=\"B\",mode=\"sys\"} 0.5"),
            std::string::npos)
      << text;
}

// ---------------------------------------------------------------------------
// Recent-span ring (/tracez source)

TEST(TraceTest, RecentSpansKeepLastNOldestFirst) {
  TraceRecorder rec;
  const size_t cap = TraceRecorder::kRecentSpanCapacity;
  for (size_t i = 0; i < cap + 10; ++i) {
    rec.CompleteSpan("s" + std::to_string(i), "phase",
                     static_cast<int64_t>(i), 1, "");
  }
  const auto recent = rec.RecentSpans();
  ASSERT_EQ(recent.size(), cap);
  EXPECT_EQ(recent.front().name, "s10");  // 10 oldest were overwritten
  EXPECT_EQ(recent.back().name, "s" + std::to_string(cap + 9));
}

// ---------------------------------------------------------------------------
// Gantt golden render

TEST(TraceGanttTest, GoldenSingleRowRender) {
  TraceRecorder rec;
  rec.Install();
  {
    obs::ThreadPartyScope scope(2, "party B");
    rec.CompleteSpan("encrypt", "phase", 0, 500, "");
    rec.CompleteSpan("build_hist", "phase", 500, 400, "");
    rec.CompleteSpan("decrypt", "phase", 900, 100, "");
  }
  TraceRecorder::Uninstall();

  // The thread id is a process-global counter, so read it back rather than
  // assuming an absolute value; everything else is pinned.
  const auto spans = rec.CompleteSpans();
  ASSERT_EQ(spans.size(), 3u);
  const std::string label = "party B/t" + std::to_string(spans[0].tid);

  // 10 cells over a 1000us makespan: encrypt 0-499us -> cells 0-4,
  // build_hist 500-899us -> cells 5-8, decrypt 900-999us -> cell 9.
  const std::string expected = label + " |EEEEEBBBBD|\n" +
                               std::string(label.size(), ' ') + "  0" +
                               std::string(9, ' ') + "0.001s\n" +
                               "  (B=build_hist D=decrypt E=encrypt)\n";
  EXPECT_EQ(obs::RenderTraceGantt(rec, 10), expected);
}

// ---------------------------------------------------------------------------
// End to end: a traced federated run

// A two-party mock VF2Boost run's shards and config, small enough for TSan.
Result<std::vector<Dataset>> SmallFedShards() {
  SyntheticSpec sspec;
  sspec.rows = 400;
  sspec.cols = 12;
  sspec.density = 0.6;
  sspec.seed = 51;
  Dataset all = GenerateSynthetic(sspec);
  Rng rng(52);
  VerticalSplitSpec spec = SplitColumnsRandomly(sspec.cols, {0.5, 0.5}, &rng);
  return PartitionVertically(all, spec, /*label_party=*/1);
}

FedConfig SmallFedConfig() {
  FedConfig config = FedConfig::Vf2Boost();
  config.mock_crypto = true;
  config.gbdt.num_trees = 2;
  config.gbdt.num_layers = 4;
  config.gbdt.max_bins = 8;
  return config;
}

TEST(TraceTest, TracedFedRunProducesBalancedTrace) {
  auto shards = SmallFedShards();
  ASSERT_TRUE(shards.ok());
  FedConfig config = SmallFedConfig();
  MetricsRegistry registry;
  config.metrics = &registry;

  TraceRecorder rec;
  rec.Install();
  auto result = FedTrainer(config).Train(*shards);
  TraceRecorder::Uninstall();
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  std::string error;
  TraceSummary summary;
  ASSERT_TRUE(obs::ValidateTraceJson(rec.ToJson(), &error, &summary)) << error;
  // Every delivered message links send to receive.
  EXPECT_EQ(summary.flow_starts, summary.flow_ends);
  EXPECT_GT(summary.flow_starts, 0u);
  // The protocol phases all show up as spans.
  for (const char* name : {"fed_train", "tree", "encrypt", "build_hist",
                           "decrypt", "find_split", "pack"}) {
    EXPECT_GT(summary.span_counts[name], 0u) << "missing span " << name;
  }
  // The result carries the shared registry's contents at the end of the run.
  const std::vector<obs::MetricSample> after = registry.Snapshot();
  ASSERT_EQ(result->metrics.size(), after.size());
  for (size_t i = 0; i < after.size(); ++i) {
    const obs::MetricSample& got = result->metrics[i];
    EXPECT_EQ(got.name, after[i].name);
    EXPECT_EQ(got.kind, after[i].kind) << got.name;
    EXPECT_EQ(got.value, after[i].value) << got.name;
    EXPECT_EQ(got.count, after[i].count) << got.name;
    EXPECT_EQ(got.sum, after[i].sum) << got.name;
  }
  EXPECT_GT(obs::PartySum(result->metrics, "party_b", "encryptions"), 0);
  EXPECT_GT(obs::PartySum(result->metrics, "party_b", "leaves"), 0);
  // The text gantt renders a row per traced thread.
  const std::string gantt = obs::RenderTraceGantt(rec, 60);
  EXPECT_NE(gantt.find("party B"), std::string::npos) << gantt;
  EXPECT_NE(gantt.find("party A0"), std::string::npos) << gantt;
}

// In-process links record their frames in the flight recorder, as TCP links
// do: the session layer over either transport records every frame.
TEST(FlightRecorderTest, InProcessFedRunRecordsFrames) {
  auto shards = SmallFedShards();
  ASSERT_TRUE(shards.ok());
  obs::FlightRecorder fr;
  fr.Install();
  auto result = FedTrainer(SmallFedConfig()).Train(*shards);
  obs::FlightRecorder::Uninstall();
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  size_t sent = 0, received = 0;
  for (const obs::FlightRecorder::Entry& e : fr.Snapshot()) {
    sent += e.kind == obs::FlightRecorder::Kind::kFrameSent;
    received += e.kind == obs::FlightRecorder::Kind::kFrameReceived;
  }
  EXPECT_GT(sent, 0u);
  EXPECT_GT(received, 0u);
  obs::JsonValue root;
  std::string error;
  ASSERT_TRUE(obs::ParseJson(fr.ToJson(), &root, &error)) << error;
  EXPECT_FALSE(root.Get("flightRecorder")->Get("last_frame")->string.empty());
}

// ---------------------------------------------------------------------------
// ClockSync

TEST(ClockSyncTest, NtpFormulasAndMinRttFiltering) {
  obs::ClockSync sync;
  EXPECT_FALSE(sync.has_estimate());

  // Peer clock runs ~4950us ahead; symmetric 100us round trip.
  sync.AddSample(/*t1=*/1000, /*t2=*/6000, /*t3=*/6100, /*t4=*/1200);
  EXPECT_TRUE(sync.has_estimate());
  EXPECT_EQ(sync.offset_us(), 4950);
  EXPECT_EQ(sync.rtt_us(), 100);
  EXPECT_EQ(sync.uncertainty_us(), 51);  // rtt/2 + 1
  EXPECT_EQ(sync.samples(), 1u);

  // A slower round (rtt 200) with a different apparent offset must NOT
  // displace the tighter estimate.
  sync.AddSample(2000, 9000, 9400, 2600);
  EXPECT_EQ(sync.offset_us(), 4950);
  EXPECT_EQ(sync.rtt_us(), 100);
  EXPECT_EQ(sync.samples(), 2u);

  // Negative rtt (t3-t2 exceeds t4-t1: clocks crossed a reconnect) is
  // rejected outright.
  sync.AddSample(0, 0, 1000, 500);
  EXPECT_EQ(sync.samples(), 2u);
}

TEST(ClockSyncTest, HelloSeedIsDisplacedByAnyRealRound) {
  obs::ClockSync sync;
  // Hello: peer stamp 51100 observed between local 1000 and 1200 — coarse
  // offset 50000 with the half-round-trip as uncertainty.
  sync.AddHelloSample(/*t1=*/1000, /*peer_us=*/51100, /*t4=*/1200);
  EXPECT_TRUE(sync.has_estimate());
  EXPECT_EQ(sync.offset_us(), 50000);
  EXPECT_EQ(sync.uncertainty_us(), 101);

  // A real ping round displaces the hello seed even with a WORSE rtt (450
  // vs the hello's 200): a real echo beats a degenerate one-way reading.
  sync.AddSample(2000, 52400, 52450, 2500);
  EXPECT_EQ(sync.offset_us(), 50175);
  EXPECT_EQ(sync.rtt_us(), 450);
}

TEST(ClockSyncTest, BindMetricsExportsGauges) {
  MetricsRegistry reg;
  obs::ClockSync sync;
  sync.BindMetrics(&reg, "party_a0");
  sync.AddSample(1000, 6000, 6100, 1200);
  EXPECT_DOUBLE_EQ(reg.GetGauge("party_a0/clock_sync/offset_us")->value(),
                   4950);
  EXPECT_DOUBLE_EQ(reg.GetGauge("party_a0/clock_sync/rtt_us")->value(), 100);
  EXPECT_DOUBLE_EQ(reg.GetGauge("party_a0/clock_sync/samples")->value(), 1);

  const TraceRecorder::ClockSyncMeta meta = sync.ToMeta();
  EXPECT_EQ(meta.offset_us, 4950);
  EXPECT_FALSE(meta.reference);
}

TEST(TraceTest, ClockSyncMetadataRoundTripsThroughJson) {
  TraceRecorder rec;
  rec.Install();
  TraceRecorder::ClockSyncMeta meta;
  meta.offset_us = -1234;
  meta.uncertainty_us = 57;
  meta.rtt_us = 112;
  meta.samples = 9;
  rec.SetClockSync(/*pid=*/1, meta);
  TraceRecorder::ClockSyncMeta ref;
  ref.reference = true;
  rec.SetClockSync(/*pid=*/2, ref);
  TraceRecorder::Uninstall();

  obs::JsonValue root;
  std::string error;
  ASSERT_TRUE(obs::ParseJson(rec.ToJson(), &root, &error)) << error;
  const obs::JsonValue* cs = root.Get("clockSync");
  ASSERT_NE(cs, nullptr);
  ASSERT_TRUE(cs->is_array());
  ASSERT_EQ(cs->array.size(), 2u);
  EXPECT_DOUBLE_EQ(cs->array[0].Get("pid")->number, 1);
  EXPECT_DOUBLE_EQ(cs->array[0].Get("offset_us")->number, -1234);
  EXPECT_DOUBLE_EQ(cs->array[0].Get("uncertainty_us")->number, 57);
  EXPECT_FALSE(cs->array[0].Get("reference")->boolean);
  EXPECT_TRUE(cs->array[1].Get("reference")->boolean);

  // The per-party filter keeps only that pid's clock entry.
  obs::JsonValue filtered;
  ASSERT_TRUE(obs::ParseJson(rec.ToJson(/*pid_filter=*/2), &filtered, &error))
      << error;
  ASSERT_EQ(filtered.Get("clockSync")->array.size(), 1u);
  EXPECT_TRUE(filtered.Get("clockSync")->array[0].Get("reference")->boolean);
}

TEST(TraceTest, ProcessNamespaceKeepsFlowIdsDisjointAndExact) {
  obs::SetProcessTraceNamespace(3);
  const uint64_t a = obs::NextTraceId();
  const uint64_t b = obs::NextTraceId();
  EXPECT_EQ(a >> 40, 3u);
  EXPECT_EQ(b >> 40, 3u);
  EXPECT_LT(a, b);
  EXPECT_EQ(obs::NamespacedFlowId(5), (uint64_t{3} << 40) | 5);
  // Ids stay below 2^48: bit-exact as the doubles trace JSON stores.
  EXPECT_LT(b, uint64_t{1} << 48);
  EXPECT_EQ(static_cast<uint64_t>(static_cast<double>(b)), b);
  obs::SetProcessTraceNamespace(0);
  EXPECT_EQ(obs::NamespacedFlowId(7), 7u);
}

// ---------------------------------------------------------------------------
// AuditTraceFlows

namespace {
std::string FlowTrace(const std::string& events) {
  return R"({"traceEvents":[)" + events + "]}";
}
std::string FlowEvent(const char* ph, double id, double ts,
                      const std::string& name) {
  return std::string("{\"ph\":\"") + ph + "\",\"id\":" + std::to_string(id) +
         ",\"ts\":" + std::to_string(ts) +
         ",\"pid\":0,\"tid\":0,\"name\":\"" + name + "\"}";
}
}  // namespace

TEST(FlowAuditTest, MatchedFlowsWithSaneTimesPass) {
  const std::string trace = FlowTrace(
      FlowEvent("s", 1, 100, "snd GradBatch") + "," +
      FlowEvent("f", 1, 250, "rcv GradBatch"));
  std::string error;
  obs::FlowAudit audit;
  EXPECT_TRUE(obs::AuditTraceFlows(trace, 0, {"GradBatch"}, &error, &audit))
      << error;
  EXPECT_EQ(audit.matched, 1u);
  EXPECT_EQ(audit.causality_violations, 0u);
}

TEST(FlowAuditTest, ReceiveBeforeSendBeyondSlackFails) {
  const std::string trace = FlowTrace(
      FlowEvent("s", 1, 1000, "snd GradBatch") + "," +
      FlowEvent("f", 1, 400, "rcv GradBatch"));
  std::string error;
  obs::FlowAudit audit;
  EXPECT_FALSE(obs::AuditTraceFlows(trace, 500, {}, &error, &audit));
  EXPECT_EQ(audit.causality_violations, 1u);
  EXPECT_NE(error.find("before it was sent"), std::string::npos) << error;
  // A slack >= the 600us skew tolerates the same trace.
  EXPECT_TRUE(obs::AuditTraceFlows(trace, 600, {}, &error, &audit)) << error;
}

TEST(FlowAuditTest, UnmatchedRequiredMessageFails) {
  const std::string trace = FlowTrace(
      FlowEvent("s", 1, 100, "snd NodeHistogram") + "," +
      FlowEvent("s", 2, 120, "snd ClockPing"));
  std::string error;
  obs::FlowAudit audit;
  // ClockPing is not required: its dangling start is tolerated...
  EXPECT_TRUE(obs::AuditTraceFlows(trace, 0, {"GradBatch"}, &error, &audit))
      << error;
  EXPECT_EQ(audit.unmatched_starts, 2u);
  // ...but a dangling required message is a lost training frame.
  EXPECT_FALSE(
      obs::AuditTraceFlows(trace, 0, {"NodeHistogram"}, &error, &audit));
  EXPECT_NE(error.find("NodeHistogram"), std::string::npos) << error;
}

// ---------------------------------------------------------------------------
// FlightRecorder

TEST(FlightRecorderTest, RecordsAndDumpsWithLastPhaseAndFrame) {
  obs::FlightRecorder fr;
  fr.Install();
  obs::FlightRecorder::RecordEvent(obs::FlightRecorder::Kind::kPhase, 0, 2, 1,
                                   "encrypt");
  obs::FlightRecorder::RecordEvent(obs::FlightRecorder::Kind::kFrameSent, 3,
                                   4096, 77, "GradBatch");
  obs::FlightRecorder::Uninstall();

  const auto entries = fr.Snapshot();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].kind, obs::FlightRecorder::Kind::kPhase);
  EXPECT_STREQ(entries[1].detail, "GradBatch");
  EXPECT_EQ(entries[1].b, 77);

  const std::string json = fr.ToJson();
  obs::JsonValue root;
  std::string error;
  ASSERT_TRUE(obs::ParseJson(json, &root, &error)) << error << "\n" << json;
  const obs::JsonValue* box = root.Get("flightRecorder");
  ASSERT_NE(box, nullptr);
  EXPECT_EQ(box->Get("last_phase")->string, "encrypt");
  EXPECT_EQ(box->Get("last_frame")->string, "GradBatch");
  EXPECT_DOUBLE_EQ(box->Get("events_recorded")->number, 2);
  ASSERT_EQ(box->Get("events")->array.size(), 2u);
  EXPECT_EQ(box->Get("events")->array[1].Get("kind")->string, "frame_sent");

  const std::string path = ::testing::TempDir() + "flight_dump_test.json";
  ASSERT_TRUE(fr.Dump(path));
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  obs::JsonValue reparsed;
  ASSERT_TRUE(obs::ParseJson(ss.str(), &reparsed, &error)) << error;
}

TEST(FlightRecorderTest, RingKeepsOnlyTheLastCapacityEvents) {
  obs::FlightRecorder fr;
  const size_t total = obs::FlightRecorder::kCapacity + 50;
  for (size_t i = 0; i < total; ++i) {
    fr.Record(obs::FlightRecorder::Kind::kNote, static_cast<uint32_t>(i), 0,
              0, "n");
  }
  const auto entries = fr.Snapshot();
  ASSERT_EQ(entries.size(), obs::FlightRecorder::kCapacity);
  EXPECT_EQ(entries.front().code, 50u);  // oldest surviving
  EXPECT_EQ(entries.back().code, total - 1);
  EXPECT_EQ(fr.events_recorded(), total);
}

// ---------------------------------------------------------------------------
// StallWatchdog

TEST(WatchdogTest, DeclaresStallThenRecoversOnProgress) {
  obs::LiveStatus live;
  live.SetState(obs::LiveStatus::State::kTraining);
  live.SetPhase("comm_wait");
  MetricsRegistry reg;
  std::atomic<int> stall_callbacks{0};

  obs::StallWatchdog wd;
  obs::StallWatchdog::Options options;
  options.budget_seconds = 0.05;
  options.poll_interval_seconds = 0.01;
  options.live = &live;
  options.registry = &reg;
  options.metric_prefix = "party_a0";
  options.on_stall = [&] { ++stall_callbacks; };
  wd.Start(std::move(options));

  const auto wait_for = [&](bool want_stalled) {
    for (int i = 0; i < 500 && wd.stalled() != want_stalled; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return wd.stalled() == want_stalled;
  };
  ASSERT_TRUE(wait_for(true)) << "watchdog never tripped";
  EXPECT_EQ(stall_callbacks.load(), 1);
  EXPECT_STREQ(wd.stalled_phase(), "comm_wait");
  EXPECT_GE(reg.GetCounter("party_a0/watchdog/stalls")->value(), 1u);

  live.SetTree(1);  // progress ends the episode
  ASSERT_TRUE(wait_for(false)) << "watchdog never recovered";
  EXPECT_EQ(stall_callbacks.load(), 1) << "on_stall must fire once/episode";
  wd.Stop();
}

TEST(WatchdogTest, IdleAndDoneStatesNeverStall) {
  obs::LiveStatus live;  // kIdle
  obs::StallWatchdog wd;
  obs::StallWatchdog::Options options;
  options.budget_seconds = 0.02;
  options.poll_interval_seconds = 0.005;
  options.live = &live;
  wd.Start(std::move(options));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(wd.stalled());
  live.SetState(obs::LiveStatus::State::kDone);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(wd.stalled());
  wd.Stop();
}

TEST(WatchdogTest, StopSamplesResourcesOnce) {
  // A run shorter than one poll tick still exports its resource gauges:
  // the watchdog samples once more when it stops.
  obs::LiveStatus live;
  MetricsRegistry reg;
  obs::StallWatchdog wd;
  obs::StallWatchdog::Options options;
  options.poll_interval_seconds = 3600;
  options.live = &live;
  options.registry = &reg;
  options.metric_prefix = "party_b";
  wd.Start(std::move(options));
  wd.Stop();
  EXPECT_GT(reg.GetGauge("party_b/os/peak_rss_bytes", "B")->value(), 0.0);
  EXPECT_GT(reg.GetGauge("party_b/os/rss_bytes", "B")->value(), 0.0);
}

}  // namespace
}  // namespace vf2boost

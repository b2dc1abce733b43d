// MetricsRegistry and the serve views over it: Prometheus exposition, `stats`
// JSON and shutdown-summary goldens, log2 histogram bucketing, and label
// escaping.
#include "src/service/metrics.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "src/format/json.h"

namespace concord {
namespace {

TEST(LatencyHistogramTest, BucketsArePowersOfTwo) {
  LatencyHistogram h;
  h.Record(0);        // Below 2^1: bucket 0.
  h.Record(1);        // Bucket 0 covers [0, 2).
  h.Record(2);        // Bucket 1 covers [2, 4).
  h.Record(3);        // Bucket 1.
  h.Record(4);        // Bucket 2.
  h.Record(1000000);  // 2^19 <= 1e6 < 2^20: bucket 19.
  EXPECT_EQ(h.count, 6u);
  EXPECT_EQ(h.sum_micros, 1000010u);
  EXPECT_EQ(h.max_micros, 1000000u);
  EXPECT_EQ(h.buckets[0], 2u);
  EXPECT_EQ(h.buckets[1], 2u);
  EXPECT_EQ(h.buckets[2], 1u);
  EXPECT_EQ(h.buckets[19], 1u);
}

TEST(LatencyHistogramTest, LastBucketAbsorbsOverflow) {
  LatencyHistogram h;
  h.Record(~uint64_t{0});  // Far beyond the final bucket's lower bound.
  EXPECT_EQ(h.buckets[LatencyHistogram::kNumBuckets - 1], 1u);
}

TEST(LatencyHistogramTest, PrometheusBucketsAreCumulativeAndEndAtInf) {
  LatencyHistogram h;
  h.Record(1);
  h.Record(3);
  h.Record(3);
  h.Record(100);
  std::string out;
  h.AppendPrometheus(&out, "lat", "verb=\"check\"");
  // Cumulative counts: le=2 sees 1, le=4 sees 3, le=128 (2^7) sees all 4.
  EXPECT_NE(out.find("lat_bucket{verb=\"check\",le=\"2\"} 1\n"), std::string::npos);
  EXPECT_NE(out.find("lat_bucket{verb=\"check\",le=\"4\"} 3\n"), std::string::npos);
  EXPECT_NE(out.find("lat_bucket{verb=\"check\",le=\"128\"} 4\n"),
            std::string::npos);
  EXPECT_NE(out.find("lat_bucket{verb=\"check\",le=\"+Inf\"} 4\n"),
            std::string::npos);
  EXPECT_NE(out.find("lat_sum{verb=\"check\"} 107\n"), std::string::npos);
  EXPECT_NE(out.find("lat_count{verb=\"check\"} 4\n"), std::string::npos);

  // Monotonicity across every rendered bucket, with +Inf equal to the count.
  uint64_t previous = 0;
  size_t pos = 0;
  while ((pos = out.find("le=\"", pos)) != std::string::npos) {
    size_t value_at = out.find("} ", pos);
    uint64_t value = std::stoull(out.substr(value_at + 2));
    EXPECT_GE(value, previous);
    previous = value;
    pos = value_at;
  }
  EXPECT_EQ(previous, h.count);
}

TEST(MetricsRegistryTest, ExpositionEscapesLabelValues) {
  MetricsRegistry registry;
  registry.Count("esc_total", "", {{"k", "plain"}});
  registry.Count("esc_total", "", {{"k", "a\"b"}});
  registry.Count("esc_total", "", {{"k", "a\\b"}});
  registry.Count("esc_total", "", {{"k", "a\nb"}});
  EXPECT_EQ(registry.PrometheusText(),
            "# TYPE esc_total counter\n"
            "esc_total{k=\"a\\\"b\"} 1\n"
            "esc_total{k=\"a\\\\b\"} 1\n"
            "esc_total{k=\"a\\nb\"} 1\n"
            "esc_total{k=\"plain\"} 1\n");
}

TEST(MetricsRegistryTest, ExpositionGolden) {
  MetricsRegistry registry;
  registry.Count("app_events_total", "Events seen.", {{"kind", "open"}});
  registry.Count("app_events_total", "Events seen.", {{"kind", "open"}});
  registry.Count("app_events_total", "Events seen.", {{"kind", "close"}}, 3);
  registry.SetGauge("app_queue_depth", "Queued work items.", {}, 7);
  // Families render in name order; cells in label order; one HELP/TYPE pair each.
  EXPECT_EQ(registry.PrometheusText(),
            "# HELP app_events_total Events seen.\n"
            "# TYPE app_events_total counter\n"
            "app_events_total{kind=\"close\"} 3\n"
            "app_events_total{kind=\"open\"} 2\n"
            "# HELP app_queue_depth Queued work items.\n"
            "# TYPE app_queue_depth gauge\n"
            "app_queue_depth 7\n");
  EXPECT_EQ(registry.CounterValue("app_events_total", {{"kind", "open"}}), 2u);
  EXPECT_EQ(registry.CounterValue("app_events_total", {{"kind", "gone"}}), 0u);
  EXPECT_EQ(registry.CounterValue("no_such_family", {}), 0u);
}

TEST(MetricsRegistryTest, HistogramFamilyRendersAsHistogram) {
  MetricsRegistry registry;
  registry.ObserveMicros("op_micros", "Operation latency.", {{"op", "learn"}}, 5);
  std::string out = registry.PrometheusText();
  EXPECT_NE(out.find("# TYPE op_micros histogram"), std::string::npos);
  EXPECT_NE(out.find("op_micros_bucket{op=\"learn\",le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(out.find("op_micros_sum{op=\"learn\"} 5"), std::string::npos);
  EXPECT_NE(out.find("op_micros_count{op=\"learn\"} 1"), std::string::npos);
}

TEST(MetricsRegistryTest, GaugeKeepsFractionsOnlyWhenPresent) {
  MetricsRegistry registry;
  registry.SetGauge("ratio", "", {}, 0.5);
  EXPECT_NE(registry.PrometheusText().find("ratio 0.5\n"), std::string::npos);
  registry.SetGauge("ratio", "", {}, 2.0);
  EXPECT_NE(registry.PrometheusText().find("ratio 2\n"), std::string::npos);
}

TEST(MetricsRegistryTest, ConcurrentCountsAreLossless) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kIncrements = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      for (int i = 0; i < kIncrements; ++i) {
        registry.Count("contended_total", "Contended counter.", {});
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(registry.CounterValue("contended_total", {}),
            static_cast<uint64_t>(kThreads) * kIncrements);
}

// The serve views read the registry cells. These goldens are the bytes the
// former dedicated Metrics class produced for the same records.
TEST(ServeMetricsTest, EmptyRegistryStatsAndSummaryGoldens) {
  MetricsRegistry registry;
  EXPECT_EQ(ServeStatsJson(registry).Serialize(0),
            R"({"requests":0,"errors":0,"verbs":{},"cache":{"hits":0,"misses":0,)"
            R"("hit_rate":0},"work":{"configs_checked":0,"contracts_evaluated":0,)"
            R"("violations_found":0}})");
  EXPECT_EQ(ServeSummaryText(registry),
            "concord serve summary\n"
            "  requests: 0 (0 errors)\n"
            "  config cache: 0 hits / 0 misses\n"
            "  checked: 0 configs, 0 contracts evaluated, 0 violations\n");
}

TEST(ServeMetricsTest, RecordedStatsAndSummaryGoldens) {
  MetricsRegistry registry;
  RecordServeRequest(registry, "check", /*ok=*/true, /*micros=*/10);
  RecordServeRequest(registry, "check", /*ok=*/false, /*micros=*/20);
  RecordServeRequest(registry, "stats", /*ok=*/true, /*micros=*/1);
  RecordServeRequest(registry, "learn", /*ok=*/true, /*micros=*/5000);
  RecordServeRequest(registry, "metrics", /*ok=*/true, /*micros=*/0);
  RecordServeRequest(registry, "invalid", /*ok=*/false, /*micros=*/3);
  RecordCacheProbe(registry, /*hits=*/5, /*misses=*/2);
  RecordCheckWork(registry, /*configs=*/6, /*contracts_evaluated=*/100,
                  /*violations=*/3);
  // Other families in the same registry do not leak into the serve views.
  registry.Count("custom_total", "Embedder counter.", {});

  EXPECT_EQ(
      ServeStatsJson(registry).Serialize(0),
      R"({"requests":6,"errors":2,"verbs":{)"
      R"("check":{"count":2,"errors":1,"latency":{"count":2,"sum_micros":30,)"
      R"("max_micros":20,"mean_micros":15,"buckets":[0,0,0,1,1]}},)"
      R"("invalid":{"count":1,"errors":1,"latency":{"count":1,"sum_micros":3,)"
      R"("max_micros":3,"mean_micros":3,"buckets":[0,1]}},)"
      R"("learn":{"count":1,"errors":0,"latency":{"count":1,"sum_micros":5000,)"
      R"("max_micros":5000,"mean_micros":5000,"buckets":[0,0,0,0,0,0,0,0,0,0,0,0,1]}},)"
      R"("metrics":{"count":1,"errors":0,"latency":{"count":1,"sum_micros":0,)"
      R"("max_micros":0,"mean_micros":0,"buckets":[1]}},)"
      R"("stats":{"count":1,"errors":0,"latency":{"count":1,"sum_micros":1,)"
      R"("max_micros":1,"mean_micros":1,"buckets":[1]}}},)"
      R"("cache":{"hits":5,"misses":2,"hit_rate":0.7142857142857143},)"
      R"("work":{"configs_checked":6,"contracts_evaluated":100,"violations_found":3}})");
  EXPECT_EQ(ServeSummaryText(registry),
            "concord serve summary\n"
            "  requests: 6 (2 errors)\n"
            "    check: 2 (mean 15us, max 20us)\n"
            "    invalid: 1 (mean 3us, max 3us)\n"
            "    learn: 1 (mean 5000us, max 5000us)\n"
            "    metrics: 1 (mean 0us, max 0us)\n"
            "    stats: 1 (mean 1us, max 1us)\n"
            "  config cache: 5 hits / 2 misses (71% hit rate)\n"
            "  checked: 6 configs, 100 contracts evaluated, 3 violations\n");

  // The exposition renders the same cells: every verb carries an ok and an
  // error row, and the single-cell families render without braces.
  std::string out = registry.PrometheusText();
  for (const char* line :
       {"concord_requests_total{verb=\"check\",status=\"error\"} 1\n",
        "concord_requests_total{verb=\"check\",status=\"ok\"} 1\n",
        "concord_requests_total{verb=\"learn\",status=\"error\"} 0\n",
        "concord_requests_total{verb=\"invalid\",status=\"ok\"} 0\n",
        "concord_request_latency_micros_count{verb=\"check\"} 2\n",
        "concord_request_latency_micros_sum{verb=\"learn\"} 5000\n",
        "concord_config_cache_probes_total{result=\"hit\"} 5\n",
        "concord_config_cache_probes_total{result=\"miss\"} 2\n",
        "concord_check_configs_total 6\n",
        "concord_check_contracts_evaluated_total 100\n",
        "concord_check_violations_total 3\n", "custom_total 1\n"}) {
    EXPECT_NE(out.find(line), std::string::npos) << line;
  }
}

TEST(MetricsRegistryTest, SetCounterOverwritesAndVisitFamilyWalksLabelOrder) {
  MetricsRegistry registry;
  registry.SetCounter("mirror_total", "Mirrored.", {{"k", "b"}}, 7);
  registry.SetCounter("mirror_total", "Mirrored.", {{"k", "a"}}, 3);
  registry.SetCounter("mirror_total", "Mirrored.", {{"k", "b"}}, 5);
  EXPECT_EQ(registry.PrometheusText(),
            "# HELP mirror_total Mirrored.\n"
            "# TYPE mirror_total counter\n"
            "mirror_total{k=\"a\"} 3\n"
            "mirror_total{k=\"b\"} 5\n");
  std::vector<std::string> seen;
  registry.VisitFamily("mirror_total", [&seen](const MetricsRegistry::Cell& cell) {
    seen.push_back(cell.labels[0].second + "=" + std::to_string(cell.counter));
  });
  EXPECT_EQ(seen, (std::vector<std::string>{"a=3", "b=5"}));
  registry.VisitFamily("no_such_family",
                       [](const MetricsRegistry::Cell&) { ADD_FAILURE(); });
}

}  // namespace
}  // namespace concord

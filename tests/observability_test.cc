// Tests for the observability stack: the MetricsRegistry (naming
// convention, Prometheus/JSON export, thread-safety), the span tracing
// API (disabled-context zero-op contract, Chrome export), the golden
// span-tree contract (structure and non-time attributes byte-identical
// across thread counts), the RuntimeOptions precedence rule, and the
// versioned NDJSON protocol (version stamping/rejection, stats formats,
// the metrics verb).

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/histogram.h"
#include "common/json.h"
#include "common/metrics.h"
#include "common/runtime_options.h"
#include "common/trace.h"
#include "datagen/testbed.h"
#include "engine/engine.h"
#include "rdf/triple.h"
#include "service/protocol.h"
#include "service/query_service.h"
#include "tests/test_util.h"

namespace rdfmr {
namespace {

using testing_util::MakeDfsWithBase;
using testing_util::RoomyCluster;
using testing_util::SmallDataset;

bool Contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

/// Restores (or re-clears) one environment variable on destruction so
/// precedence tests cannot leak state into other tests.
class EnvVarGuard {
 public:
  explicit EnvVarGuard(const char* name) : name_(name) {
    const char* old = std::getenv(name);
    had_ = old != nullptr;
    if (had_) saved_ = old;
    ::unsetenv(name);
  }
  ~EnvVarGuard() {
    if (had_) {
      ::setenv(name_, saved_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }
  EnvVarGuard(const EnvVarGuard&) = delete;
  EnvVarGuard& operator=(const EnvVarGuard&) = delete;

 private:
  const char* name_;
  bool had_ = false;
  std::string saved_;
};

// ---- Metric naming convention ----------------------------------------------

TEST(MetricNameTest, AcceptsConventionalNames) {
  EXPECT_TRUE(MetricsRegistry::IsValidMetricName("rdfmr_mr_map_micros"));
  EXPECT_TRUE(
      MetricsRegistry::IsValidMetricName("rdfmr_ntga_beta_unnest_calls"));
  EXPECT_TRUE(MetricsRegistry::IsValidMetricName(
      "rdfmr_service_result_cache_bytes"));
  EXPECT_TRUE(MetricsRegistry::IsValidMetricName("rdfmr_dfs_blocks_count"));
}

TEST(MetricNameTest, RejectsMalformedNames) {
  // Too few tokens (needs rdfmr + area + name + unit). Negative examples
  // are assembled at runtime so the source linter does not flag them.
  const std::string prefix = "rdfmr_";
  EXPECT_FALSE(MetricsRegistry::IsValidMetricName(prefix + "map_micros"));
  // Wrong root.
  EXPECT_FALSE(MetricsRegistry::IsValidMetricName("foo_mr_map_micros"));
  // Unknown unit suffix.
  EXPECT_FALSE(
      MetricsRegistry::IsValidMetricName(prefix + "mr_map_widgets"));
  // Uppercase token.
  EXPECT_FALSE(MetricsRegistry::IsValidMetricName(prefix + "mr_Map_micros"));
  // Empty token (double underscore).
  EXPECT_FALSE(MetricsRegistry::IsValidMetricName(prefix + "mr__micros"));
  EXPECT_FALSE(MetricsRegistry::IsValidMetricName(""));
}

// ---- MetricsRegistry -------------------------------------------------------

TEST(MetricsRegistryTest, CounterGaugeHistogramRoundTrip) {
  MetricsRegistry::Global().ResetForTesting();
  MetricsRegistry& registry = MetricsRegistry::Global();

  Counter* counter =
      registry.GetCounter("rdfmr_test_requests_total", "Requests seen.");
  counter->Increment();
  counter->Increment(4);
  EXPECT_EQ(counter->Value(), 5u);
  // Get-or-create returns the same instance for the same name.
  EXPECT_EQ(registry.GetCounter("rdfmr_test_requests_total"), counter);

  Gauge* gauge = registry.GetGauge("rdfmr_test_depth_count", "Depth.");
  gauge->Set(7);
  gauge->Add(-3);
  EXPECT_EQ(gauge->Value(), 4);

  HistogramMetric* histogram =
      registry.GetHistogram("rdfmr_test_latency_micros", "Latency.");
  histogram->Observe(10);
  histogram->Observe(20);
  EXPECT_EQ(histogram->Snapshot().count(), 2u);
  EXPECT_EQ(histogram->Snapshot().sum(), 30u);
}

TEST(MetricsRegistryTest, PrometheusTextExport) {
  MetricsRegistry::Global().ResetForTesting();
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.GetCounter("rdfmr_test_requests_total", "Requests seen.")
      ->Increment(3);
  registry.GetGauge("rdfmr_test_depth_count", "Current depth.")->Set(-2);
  registry.GetHistogram("rdfmr_test_latency_micros", "Latency.")
      ->Observe(5);

  const std::string text = registry.ToPrometheusText();
  EXPECT_TRUE(
      Contains(text, "# HELP rdfmr_test_requests_total Requests seen.\n"));
  EXPECT_TRUE(Contains(text, "# TYPE rdfmr_test_requests_total counter\n"));
  EXPECT_TRUE(Contains(text, "rdfmr_test_requests_total 3\n"));
  EXPECT_TRUE(Contains(text, "# TYPE rdfmr_test_depth_count gauge\n"));
  EXPECT_TRUE(Contains(text, "rdfmr_test_depth_count -2\n"));
  EXPECT_TRUE(Contains(text, "# TYPE rdfmr_test_latency_micros histogram\n"));
  const std::string histogram_name = "rdfmr_test_latency_micros";
  EXPECT_TRUE(Contains(text, histogram_name + "_bucket{le=\"+Inf\"} 1\n"));
  EXPECT_TRUE(Contains(text, histogram_name + "_sum 5\n"));
  EXPECT_TRUE(Contains(text, histogram_name + "_count 1\n"));
}

TEST(MetricsRegistryTest, HelpTextIsEscaped) {
  MetricsRegistry::Global().ResetForTesting();
  MetricsRegistry::Global().GetCounter("rdfmr_test_weird_total",
                                       "line1\nline2 back\\slash");
  const std::string text = MetricsRegistry::Global().ToPrometheusText();
  EXPECT_TRUE(Contains(
      text, "# HELP rdfmr_test_weird_total line1\\nline2 back\\\\slash\n"));
}

TEST(MetricsRegistryTest, JsonExportParses) {
  MetricsRegistry::Global().ResetForTesting();
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.GetCounter("rdfmr_test_requests_total")->Increment(9);
  registry.GetGauge("rdfmr_test_depth_count")->Set(2);
  registry.GetHistogram("rdfmr_test_latency_micros")->Observe(42);

  auto json = ParseJson(registry.ToJson());
  ASSERT_TRUE(json.ok());
  EXPECT_EQ(json->GetUint("rdfmr_test_requests_total"), 9u);
  EXPECT_EQ(json->GetUint("rdfmr_test_depth_count"), 2u);
  ASSERT_TRUE(json->Has("rdfmr_test_latency_micros"));
  EXPECT_TRUE(json->Get("rdfmr_test_latency_micros").is_object());
  EXPECT_EQ(json->Get("rdfmr_test_latency_micros").GetUint("count"), 1u);
}

TEST(MetricsRegistryTest, ResetDropsAllMetrics) {
  MetricsRegistry::Global().ResetForTesting();
  MetricsRegistry::Global().GetCounter("rdfmr_test_requests_total");
  EXPECT_TRUE(Contains(MetricsRegistry::Global().ToPrometheusText(),
                       "rdfmr_test_requests_total"));
  MetricsRegistry::Global().ResetForTesting();
  EXPECT_FALSE(Contains(MetricsRegistry::Global().ToPrometheusText(),
                        "rdfmr_test_requests_total"));
}

// Concurrent updates through one shared counter/gauge/histogram: exact
// totals prove no lost updates; TSan (when enabled) checks the locking.
TEST(MetricsRegistryTest, ConcurrentUpdatesAreLossless) {
  MetricsRegistry::Global().ResetForTesting();
  MetricsRegistry& registry = MetricsRegistry::Global();
  constexpr int kThreads = 8;
  constexpr int kIterations = 5000;

  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&registry] {
      // Get-or-create from every thread too: registration is part of the
      // concurrency contract, not just the updates.
      Counter* counter = registry.GetCounter("rdfmr_test_requests_total");
      Gauge* gauge = registry.GetGauge("rdfmr_test_depth_count");
      HistogramMetric* histogram =
          registry.GetHistogram("rdfmr_test_latency_micros");
      for (int i = 0; i < kIterations; ++i) {
        counter->Increment();
        gauge->Add(1);
        histogram->Observe(static_cast<uint64_t>(i % 17));
      }
    });
  }
  for (std::thread& worker : workers) worker.join();

  EXPECT_EQ(registry.GetCounter("rdfmr_test_requests_total")->Value(),
            static_cast<uint64_t>(kThreads) * kIterations);
  EXPECT_EQ(registry.GetGauge("rdfmr_test_depth_count")->Value(),
            static_cast<int64_t>(kThreads) * kIterations);
  EXPECT_EQ(
      registry.GetHistogram("rdfmr_test_latency_micros")->Snapshot().count(),
      static_cast<uint64_t>(kThreads) * kIterations);
}

TEST(PrometheusEscapeTest, LabelAndHelpEscaping) {
  EXPECT_EQ(PrometheusEscape("plain"), "plain");
  EXPECT_EQ(PrometheusEscape("a\\b\"c\nd"), "a\\\\b\\\"c\\nd");
  // HELP text escapes backslash and newline but NOT double quotes.
  EXPECT_EQ(PrometheusEscapeHelp("a\\b\"c\nd"), "a\\\\b\"c\\nd");
}

TEST(PrometheusHistogramTest, CumulativeBucketsSumAndCount) {
  Histogram h;
  for (uint64_t v : {0ull, 1ull, 5ull, 100ull}) h.Add(v);
  std::string out;
  AppendPrometheusHistogram("rdfmr_test_latency_micros", h, &out);
  const std::string name = "rdfmr_test_latency_micros";
  // Buckets are cumulative with power-of-two upper bounds: 0 lands in
  // le="0", 1 in le="1", 5 in le="7", 100 in le="127".
  EXPECT_TRUE(Contains(out, name + "_bucket{le=\"0\"} 1\n"));
  EXPECT_TRUE(Contains(out, name + "_bucket{le=\"1\"} 2\n"));
  EXPECT_TRUE(Contains(out, name + "_bucket{le=\"7\"} 3\n"));
  EXPECT_TRUE(Contains(out, name + "_bucket{le=\"127\"} 4\n"));
  EXPECT_TRUE(Contains(out, name + "_bucket{le=\"+Inf\"} 4\n"));
  EXPECT_TRUE(Contains(out, name + "_sum 106\n"));
  EXPECT_TRUE(Contains(out, name + "_count 4\n"));
}

TEST(PrometheusHistogramTest, EmptyHistogramHasOnlyInfBucket) {
  Histogram h;
  std::string out;
  AppendPrometheusHistogram("rdfmr_test_latency_micros", h, &out);
  EXPECT_EQ(out,
            "rdfmr_test_latency_micros_bucket{le=\"+Inf\"} 0\n"
            "rdfmr_test_latency_micros_sum 0\n"
            "rdfmr_test_latency_micros_count 0\n");
}

TEST(OperatorMetricsGateTest, DefaultsOffAndToggles) {
  EXPECT_FALSE(OperatorMetricsEnabled());
  EnableOperatorMetrics(true);
  EXPECT_TRUE(OperatorMetricsEnabled());
  EnableOperatorMetrics(false);
  EXPECT_FALSE(OperatorMetricsEnabled());
}

// ---- Span tracing ----------------------------------------------------------

TEST(TraceTest, DisabledContextIsInert) {
  RunContext disabled;
  EXPECT_FALSE(disabled.enabled());
  ScopedSpan span(disabled, "query");
  EXPECT_FALSE(span.enabled());
  span.Attr("key", "value");  // all no-ops
  span.Attr("n", uint64_t{7});
  EXPECT_FALSE(span.context().enabled());
}

TEST(TraceTest, BuildsNestedTreeWithOrderedAttrs) {
  Trace trace;
  RunContext ctx = RunContext::ForTrace(&trace);
  ASSERT_TRUE(ctx.enabled());
  {
    ScopedSpan query(ctx, "query");
    query.Attr("engine", "LazyUnnest");
    query.Attr("planned_cycles", uint64_t{2});
    {
      ScopedSpan cycle(query.context(), "mr_cycle");
      cycle.Attr("cycle", uint64_t{1});
    }
    {
      ScopedSpan cycle(query.context(), "mr_cycle");
      cycle.Attr("cycle", uint64_t{2});
    }
  }
  const TraceSpan& root = *trace.root();
  EXPECT_EQ(root.name, "trace");
  ASSERT_EQ(root.children.size(), 1u);
  const TraceSpan& query = *root.children[0];
  EXPECT_EQ(query.name, "query");
  ASSERT_EQ(query.attrs.size(), 2u);
  EXPECT_EQ(query.attrs[0].first, "engine");
  EXPECT_EQ(query.attrs[0].second, "LazyUnnest");
  EXPECT_EQ(query.attrs[1].first, "planned_cycles");
  EXPECT_EQ(query.attrs[1].second, "2");
  ASSERT_EQ(query.children.size(), 2u);
  EXPECT_EQ(query.children[0]->name, "mr_cycle");
  EXPECT_EQ(query.children[1]->name, "mr_cycle");
  // Closed spans have their duration stamped (zero is possible on a
  // coarse clock, negative is not).
  EXPECT_GE(query.duration_micros, 0);
}

TEST(TraceTest, ChromeJsonAndCanonicalJson) {
  Trace trace;
  RunContext ctx = RunContext::ForTrace(&trace);
  {
    ScopedSpan span(ctx, "query");
    span.Attr("status", "ok");
  }
  const std::string chrome = trace.ToChromeJson();
  EXPECT_TRUE(Contains(chrome, "\"traceEvents\""));
  EXPECT_TRUE(Contains(chrome, "\"ph\":\"X\""));
  EXPECT_TRUE(Contains(chrome, "\"ts\":"));
  EXPECT_TRUE(Contains(chrome, "\"dur\":"));
  EXPECT_TRUE(Contains(chrome, "\"name\":\"query\""));
  EXPECT_TRUE(Contains(chrome, "\"status\":\"ok\""));

  const std::string canonical = trace.ToCanonicalJson();
  EXPECT_FALSE(Contains(canonical, "\"ts\":"));
  EXPECT_FALSE(Contains(canonical, "\"dur\":"));
  EXPECT_TRUE(Contains(canonical, "\"name\":\"query\""));

  auto parsed = ParseJson(chrome);
  EXPECT_TRUE(parsed.ok());
}

// ---- Golden span tree ------------------------------------------------------

// The core tracing contract: span structure and every non-time attribute
// are byte-identical across thread counts. Runs the same unbound-property
// query at 1 and 4 host threads and byte-compares the canonical traces.
TEST(GoldenSpanTreeTest, CanonicalTraceIdenticalAcrossThreadCounts) {
  std::vector<Triple> triples = SmallDataset(DatasetFamily::kBsbm);
  auto query = GetTestbedQuery("B1");
  ASSERT_TRUE(query.ok());

  std::string golden;
  SolutionSet golden_answers;
  for (uint32_t threads : {1u, 4u}) {
    auto dfs = MakeDfsWithBase(triples);
    ASSERT_NE(dfs, nullptr);
    EngineOptions options;
    options.kind = EngineKind::kNtgaLazy;
    // Pin so ambient RDFMR_THREADS cannot override the sweep.
    options.runtime.num_threads = threads;
    options.runtime.cli_pinned = true;

    Trace trace;
    auto exec = Exec(dfs.get(), "base", ExecRequest::Single(*query), options,
                     RunContext::ForTrace(&trace));
    ASSERT_TRUE(exec.ok());
    ASSERT_TRUE(exec->stats.ok());

    const std::string canonical = trace.ToCanonicalJson();
    // Span taxonomy: query -> mr_cycle -> job -> phases -> operators.
    EXPECT_TRUE(Contains(canonical, "\"name\":\"query\""));
    EXPECT_TRUE(Contains(canonical, "\"name\":\"mr_cycle\""));
    EXPECT_TRUE(Contains(canonical, "\"name\":\"job\""));
    EXPECT_TRUE(Contains(canonical, "\"name\":\"map\""));
    EXPECT_TRUE(Contains(canonical, "\"name\":\"reduce\""));
    EXPECT_TRUE(Contains(canonical, "\"name\":\"write\""));
    // B1 has an unbound property pattern, so the grouping cycle runs the
    // σ^βγ operator and its span carries the deterministic cardinalities.
    EXPECT_TRUE(Contains(canonical, "\"name\":\"sigma_beta_gamma\""));

    if (golden.empty()) {
      golden = canonical;
      golden_answers = exec->answers;
    } else {
      EXPECT_EQ(canonical, golden);
      EXPECT_EQ(exec->answers, golden_answers);
    }
  }
}

TEST(GoldenSpanTreeTest, DisabledContextStillRunsAndAnswersMatch) {
  std::vector<Triple> triples = SmallDataset(DatasetFamily::kBsbm);
  auto query = GetTestbedQuery("B1");
  ASSERT_TRUE(query.ok());

  auto traced_dfs = MakeDfsWithBase(triples);
  auto plain_dfs = MakeDfsWithBase(triples);
  ASSERT_NE(traced_dfs, nullptr);
  ASSERT_NE(plain_dfs, nullptr);
  EngineOptions options;
  options.kind = EngineKind::kNtgaLazy;

  Trace trace;
  auto traced = Exec(traced_dfs.get(), "base", ExecRequest::Single(*query),
                     options, RunContext::ForTrace(&trace));
  auto plain =
      Exec(plain_dfs.get(), "base", ExecRequest::Single(*query), options);
  ASSERT_TRUE(traced.ok());
  ASSERT_TRUE(plain.ok());
  // Tracing observes the run without perturbing it.
  EXPECT_EQ(traced->answers, plain->answers);
  EXPECT_EQ(traced->stats.counters, plain->stats.counters);
  EXPECT_FALSE(trace.root()->children.empty());
}

// ---- RuntimeOptions precedence ---------------------------------------------

TEST(RuntimeOptionsTest, PrecedenceCliEnvOptionConfig) {
  EnvVarGuard threads_guard("RDFMR_THREADS");
  EnvVarGuard attempts_guard("RDFMR_MAX_ATTEMPTS");

  // Config default when everything is unset.
  EXPECT_EQ(ResolveNumThreads(RuntimeOptions{}, 6), 6u);
  EXPECT_EQ(ResolveMaxAttempts(RuntimeOptions{}, 3), 3u);

  // Programmatic option beats the config default.
  RuntimeOptions options;
  options.num_threads = 2;
  options.max_attempts = 5;
  EXPECT_EQ(ResolveNumThreads(options, 6), 2u);
  EXPECT_EQ(ResolveMaxAttempts(options, 3), 5u);

  // Environment beats the programmatic option.
  ::setenv("RDFMR_THREADS", "7", 1);
  ::setenv("RDFMR_MAX_ATTEMPTS", "9", 1);
  EXPECT_EQ(ResolveNumThreads(options, 6), 7u);
  EXPECT_EQ(ResolveMaxAttempts(options, 3), 9u);

  // A CLI-pinned option beats the environment.
  options.cli_pinned = true;
  EXPECT_EQ(ResolveNumThreads(options, 6), 2u);
  EXPECT_EQ(ResolveMaxAttempts(options, 3), 5u);

  // cli_pinned with an unset field still falls through to env.
  RuntimeOptions pinned_unset;
  pinned_unset.cli_pinned = true;
  EXPECT_EQ(ResolveNumThreads(pinned_unset, 6), 7u);
}

TEST(RuntimeOptionsTest, EnvParsingIgnoresGarbage) {
  EnvVarGuard guard("RDFMR_THREADS");
  EXPECT_EQ(EnvRuntimeValue("RDFMR_THREADS"), 0u);
  ::setenv("RDFMR_THREADS", "", 1);
  EXPECT_EQ(EnvRuntimeValue("RDFMR_THREADS"), 0u);
  ::setenv("RDFMR_THREADS", "abc", 1);
  EXPECT_EQ(EnvRuntimeValue("RDFMR_THREADS"), 0u);
  ::setenv("RDFMR_THREADS", "0", 1);
  EXPECT_EQ(EnvRuntimeValue("RDFMR_THREADS"), 0u);
  ::setenv("RDFMR_THREADS", "-4", 1);
  EXPECT_EQ(EnvRuntimeValue("RDFMR_THREADS"), 0u);
  ::setenv("RDFMR_THREADS", "12", 1);
  EXPECT_EQ(EnvRuntimeValue("RDFMR_THREADS"), 12u);
}

// ---- Versioned NDJSON protocol ---------------------------------------------

std::unique_ptr<service::QueryService> MakeService() {
  service::ServiceConfig config;
  config.cluster = RoomyCluster();
  config.max_concurrent = 2;
  return std::make_unique<service::QueryService>(config);
}

TEST(ProtocolVersionTest, EveryResponseCarriesVersion) {
  auto svc = MakeService();
  auto result =
      service::HandleRequestLine(svc.get(), R"({"verb":"ping","id":"p1"})");
  EXPECT_TRUE(result.response.GetBool("ok"));
  EXPECT_EQ(result.response.GetUint("v"), service::kProtocolVersion);
  EXPECT_EQ(result.response.GetString("id"), "p1");
}

TEST(ProtocolVersionTest, ExplicitCurrentVersionAccepted) {
  auto svc = MakeService();
  auto result =
      service::HandleRequestLine(svc.get(), R"({"verb":"ping","v":1})");
  EXPECT_TRUE(result.response.GetBool("ok"));
  EXPECT_EQ(result.response.GetUint("v"), 1u);
}

TEST(ProtocolVersionTest, UnknownMajorRejectedWithStructuredError) {
  auto svc = MakeService();
  auto result = service::HandleRequestLine(
      svc.get(), R"({"verb":"ping","v":2,"id":"r7"})");
  EXPECT_FALSE(result.response.GetBool("ok"));
  EXPECT_EQ(result.response.GetString("code"), "InvalidArgument");
  EXPECT_TRUE(Contains(result.response.GetString("error"),
                       "protocol version"));
  // The rejection itself still speaks version 1 and echoes the id.
  EXPECT_EQ(result.response.GetUint("v"), 1u);
  EXPECT_EQ(result.response.GetString("id"), "r7");
  EXPECT_FALSE(result.shutdown);
}

TEST(ProtocolVersionTest, NonNumericVersionRejected) {
  auto svc = MakeService();
  auto result =
      service::HandleRequestLine(svc.get(), R"({"verb":"ping","v":"1"})");
  EXPECT_FALSE(result.response.GetBool("ok"));
  EXPECT_EQ(result.response.GetString("code"), "InvalidArgument");
}

TEST(ProtocolVersionTest, ParseErrorResponseCarriesVersion) {
  auto svc = MakeService();
  auto result = service::HandleRequestLine(svc.get(), "{not json");
  EXPECT_FALSE(result.response.GetBool("ok"));
  EXPECT_EQ(result.response.GetUint("v"), service::kProtocolVersion);
}

TEST(ProtocolMetricsTest, StatsSupportsPrometheusFormat) {
  auto svc = MakeService();
  auto json_result =
      service::HandleRequestLine(svc.get(), R"({"verb":"stats"})");
  EXPECT_TRUE(json_result.response.GetBool("ok"));
  EXPECT_TRUE(json_result.response.Has("stats"));

  auto prom_result = service::HandleRequestLine(
      svc.get(), R"({"verb":"stats","format":"prometheus"})");
  EXPECT_TRUE(prom_result.response.GetBool("ok"));
  const std::string text = prom_result.response.GetString("prometheus");
  EXPECT_TRUE(Contains(text, "rdfmr_service_submitted_total"));
  EXPECT_TRUE(Contains(text, "rdfmr_service_exec_micros"));

  auto bad = service::HandleRequestLine(
      svc.get(), R"({"verb":"stats","format":"xml"})");
  EXPECT_FALSE(bad.response.GetBool("ok"));
}

TEST(ProtocolMetricsTest, MetricsVerbExportsRegistryAndService) {
  MetricsRegistry::Global().ResetForTesting();
  MetricsRegistry::Global()
      .GetCounter("rdfmr_test_requests_total", "From the test.")
      ->Increment(3);

  auto svc = MakeService();
  auto prom = service::HandleRequestLine(svc.get(), R"({"verb":"metrics"})");
  EXPECT_TRUE(prom.response.GetBool("ok"));
  const std::string text = prom.response.GetString("prometheus");
  EXPECT_TRUE(Contains(text, "rdfmr_test_requests_total 3\n"));
  EXPECT_TRUE(Contains(text, "rdfmr_service_submitted_total"));

  auto json = service::HandleRequestLine(
      svc.get(), R"({"verb":"metrics","format":"json"})");
  EXPECT_TRUE(json.response.GetBool("ok"));
  ASSERT_TRUE(json.response.Has("metrics"));
  EXPECT_TRUE(json.response.Get("metrics").is_object());
  EXPECT_EQ(json.response.Get("metrics").GetUint("rdfmr_test_requests_total"),
            3u);
  EXPECT_TRUE(json.response.Has("stats"));
  MetricsRegistry::Global().ResetForTesting();
}

TEST(ProtocolMetricsTest, UnknownVerbListsMetricsVerb) {
  auto svc = MakeService();
  auto result =
      service::HandleRequestLine(svc.get(), R"({"verb":"bogus"})");
  EXPECT_FALSE(result.response.GetBool("ok"));
  EXPECT_TRUE(Contains(result.response.GetString("error"), "metrics"));
}

}  // namespace
}  // namespace rdfmr

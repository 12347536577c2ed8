// dashboard and refresh: open-loop traffic over unix connections to an
// in-process ServiceServer. Requests follow a precomputed schedule (one
// arrival every 1/rate seconds, spread over the connections), each
// connection has one sender and one receiver thread, and every latency is
// measured from the request's due time, so a stall is charged to every
// request it delays. Queries are Zipf-skewed over the BSBM catalog by
// query_id; every response is checked against the oracle.
//
// dashboard warms the result cache during set-up and climbs a ladder of
// rates. refresh runs one rate while a reload thread periodically parses
// the next seeded generation (LoadNTriples), indexes it (WriteRdxFile) and
// re-issues `load`; the epoch bump purges the caches.

#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <thread>

#include "common/hash.h"
#include "common/metrics.h"
#include "common/strings.h"
#include "datagen/testbed.h"
#include "attribution.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/query_service.h"
#include "service/server.h"
#include "storage/rdx_writer.h"
#include "workloads.h"

namespace perfbench {

using rdfmr::JsonValue;
using rdfmr::Result;
using rdfmr::Status;
namespace service = rdfmr::service;

namespace {

/// Both workloads serve with 4 workers of one engine thread each and cap
/// answers at 8 per response.
constexpr uint32_t kMaxConcurrent = 4;
constexpr uint32_t kEngineThreads = 1;
static_assert(kEngineThreads * kMaxConcurrent <= 4, "sized for 4 cores");
constexpr uint64_t kMaxAnswers = 8;

/// dashboard: BSBM at 200 products; the ladder is climbed kRounds times per
/// run, and its lowest rung is the nominal rate that latencies report.
constexpr uint64_t kDashboardProducts = 200;
constexpr uint64_t kDashboardSmokeProducts = 40;
constexpr uint64_t kRounds = 6;
constexpr size_t kNominalRate = 0;

/// refresh: BSBM at 40 products, one rate, a reload every period (more
/// often in the traced run, whose halves each need reloads).
constexpr uint64_t kRefreshProducts = 40;
constexpr uint64_t kRefreshSmokeProducts = 20;
constexpr double kRefreshRateQps = 25000;
constexpr double kReloadPeriodSeconds = 10.0;
constexpr double kTracedReloadPeriodSeconds = 2.5;

struct ServeEnv {
  Dataset data;
  double register_ms = 0.0;
  std::string target;
  std::unique_ptr<service::QueryService> service;
  std::unique_ptr<service::ServiceServer> server;
  ~ServeEnv() {
    if (server) server->Stop();
  }
};

Result<std::unique_ptr<ServeEnv>> SetUpServing(const Options& options,
                                               uint64_t products) {
  auto env = std::make_unique<ServeEnv>();
  RDFMR_ASSIGN_OR_RETURN(
      env->data,
      PrepareDataset(options.run_dir, options.workload + "-g0",
                     GenerateBsbmData(products, options.seed), true));
  service::ServiceConfig service_config;
  service_config.cluster.num_nodes = 8;
  service_config.cluster.disk_per_node = 256ULL << 20;
  service_config.cluster.num_threads = kEngineThreads;
  service_config.max_concurrent = kMaxConcurrent;
  service_config.queue_bound = 1 << 16;
  service_config.result_cache_bytes = 64ULL << 20;
  env->service = std::make_unique<service::QueryService>(service_config);
  const Clock::time_point start = Clock::now();
  RDFMR_RETURN_NOT_OK(
      env->service->RegisterMappedDataset("bsbm", env->data.rdx_path)
          .status());
  env->register_ms = MillisSince(start);
  const std::string socket = options.run_dir + "/" + options.workload + ".sock";
  env->server =
      std::make_unique<service::ServiceServer>(env->service.get(), socket);
  RDFMR_RETURN_NOT_OK(env->server->Start());
  env->target = "unix:" + socket;
  return env;
}

/// The catalog queries and how often each is asked for.
struct QueryMix {
  std::vector<std::string> ids;
  std::vector<double> cdf;
  std::vector<std::shared_ptr<const rdfmr::GraphPatternQuery>> queries;

  uint32_t Draw(uint64_t* state) const {
    const double u = Uniform(state);
    return static_cast<uint32_t>(
        std::min<size_t>(std::upper_bound(cdf.begin(), cdf.end(), u) -
                             cdf.begin(),
                         cdf.size() - 1));
  }
};

/// Zipf exponent of query popularity.
constexpr double kZipfExponent = 1.0;

Result<QueryMix> MakeMix() {
  QueryMix mix;
  // Popularity follows catalog order, so every seed has the same hot
  // queries; the seed drives the data and the draw sequence.
  mix.ids = BsbmCatalogIds();
  double total = 0.0;
  for (size_t k = 0; k < mix.ids.size(); ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), kZipfExponent);
    mix.cdf.push_back(total);
  }
  for (double& c : mix.cdf) c /= total;
  for (const std::string& id : mix.ids) {
    RDFMR_ASSIGN_OR_RETURN(auto query, rdfmr::GetTestbedQuery(id));
    mix.queries.push_back(std::move(query));
  }
  return mix;
}

/// Terse request line for catalog query `id`, request number `n`.
std::string RequestLine(const std::string& id, uint64_t n) {
  return "{\"verb\":\"query\",\"dataset\":\"bsbm\",\"query_id\":\"" + id +
         "\",\"engine\":\"lazy\",\"threads\":" +
         std::to_string(kEngineThreads) +
         ",\"max_answers\":" + std::to_string(kMaxAnswers) +
         ",\"terse\":true,\"id\":" + std::to_string(n) + "}";
}

/// One open-loop window's raw outcome.
struct OpenLoop {
  double rate = 0.0;
  double wall_seconds = 0.0;  // first due time to last response
  std::vector<Clock::time_point> due;
  std::vector<uint32_t> query;
  std::vector<double> latency_ms;  // from due time; <0 = no response
  std::vector<double> lag_ms;      // send time - due time
  uint64_t bytes = 0;
  uint64_t failed = 0;
  uint64_t wrong = 0;

  std::vector<double> Completed() const {
    std::vector<double> out;
    for (double l : latency_ms) {
      if (l >= 0) out.push_back(l);
    }
    return out;
  }
  /// The backlog grew when the last quarter of the window waited much
  /// longer than the first quarter.
  bool BacklogGrew() const {
    const size_t q = latency_ms.size() / 4;
    if (q == 0) return false;
    std::vector<double> head(latency_ms.begin(), latency_ms.begin() + q);
    std::vector<double> tail(latency_ms.end() - q, latency_ms.end());
    return Median(tail) > 4.0 * Median(head) + 1.0;
  }
};

/// The p-th latency percentile of each slice [bounds[j], bounds[j+1]) of a
/// window (unanswered requests skipped).
std::vector<double> SlicePercentiles(const std::vector<double>& latency_ms,
                                     const std::vector<size_t>& bounds,
                                     double p) {
  std::vector<double> per_slice;
  for (size_t j = 0; j + 1 < bounds.size(); ++j) {
    std::vector<double> slice;
    for (size_t i = bounds[j]; i < bounds[j + 1]; ++i) {
      if (latency_ms[i] >= 0) slice.push_back(latency_ms[i]);
    }
    if (!slice.empty()) per_slice.push_back(Percentile(std::move(slice), p));
  }
  return per_slice;
}

/// Median over slices of each slice's percentile: a host stall confined to
/// one slice moves one slice's value, not the reported one.
double MedianOfSlices(const std::vector<double>& latency_ms,
                      const std::vector<size_t>& bounds, double p) {
  return Median(SlicePercentiles(latency_ms, bounds, p));
}

std::vector<size_t> EvenSlices(size_t n, size_t slices) {
  std::vector<size_t> bounds;
  for (size_t j = 0; j <= slices; ++j) bounds.push_back(n * j / slices);
  return bounds;
}

/// Sends one window of arrivals at `rate` for `seconds` over `connections`
/// fresh connections; `check(query, n, line)` validates the response to
/// request `n`, which asked for catalog query `query`.
OpenLoop RunOpenLoop(const std::string& target, uint32_t connections,
                     double rate, double seconds, const QueryMix& mix,
                     uint64_t* draw_state,
                     const std::function<std::string(uint32_t, uint64_t)>& line,
                     const std::function<bool(uint32_t, uint64_t,
                                              const std::string&)>& check) {
  OpenLoop loop;
  loop.rate = rate;
  const uint64_t n = std::max<uint64_t>(1, static_cast<uint64_t>(rate * seconds));
  loop.latency_ms.assign(n, -1.0);
  loop.lag_ms.assign(n, 0.0);
  for (uint64_t i = 0; i < n; ++i) loop.query.push_back(mix.Draw(draw_state));

  std::vector<service::ServiceClient> clients;
  for (uint32_t c = 0; c < connections; ++c) {
    Result<service::ServiceClient> client =
        service::ServiceClient::ConnectWithRetry(target, 5);
    if (!client.ok()) {
      loop.failed = n;
      return loop;
    }
    clients.push_back(std::move(*client));
  }
  const Clock::time_point start =
      Clock::now() + std::chrono::milliseconds(20);
  const auto period = std::chrono::duration<double>(1.0 / rate);
  for (uint64_t i = 0; i < n; ++i) {
    loop.due.push_back(start + std::chrono::duration_cast<Clock::duration>(
                                   period * static_cast<double>(i)));
  }

  std::atomic<uint64_t> failed{0}, wrong{0}, bytes{0};
  std::vector<std::thread> threads;
  for (uint32_t c = 0; c < connections; ++c) {
    service::ServiceClient* client = &clients[c];
    threads.emplace_back([&, client, c] {  // sender
      // Wake at the due time, not up to the default 50us timer slack
      // later: the slack would be charged to every request as latency.
      prctl(PR_SET_TIMERSLACK, 1UL);
      std::string batch;
      for (uint64_t i = c; i < n;) {
        std::this_thread::sleep_until(loop.due[i]);
        const Clock::time_point now = Clock::now();
        batch.clear();
        for (; i < n && loop.due[i] <= now; i += connections) {
          batch += line(loop.query[i], i);
          batch += '\n';
          loop.lag_ms[i] =
              std::chrono::duration<double, std::milli>(now - loop.due[i])
                  .count();
        }
        if (!client->SendRaw(batch).ok()) return;
      }
    });
    threads.emplace_back([&, client, c] {  // receiver
      uint64_t expected = 0;
      for (uint64_t i = c; i < n; i += connections) ++expected;
      for (uint64_t k = 0; k < expected; ++k) {
        Result<std::string> reply = client->ReceiveLine();
        const Clock::time_point now = Clock::now();
        if (!reply.ok()) {
          failed.fetch_add(expected - k);
          return;
        }
        const size_t at = reply->rfind("\"id\":");
        const uint64_t id =
            at == std::string::npos
                ? n
                : std::strtoull(reply->c_str() + at + 5, nullptr, 10);
        if (id >= n || reply->find("\"ok\":true") == std::string::npos) {
          failed.fetch_add(1);
          continue;
        }
        loop.latency_ms[id] =
            std::chrono::duration<double, std::milli>(now - loop.due[id])
                .count();
        bytes.fetch_add(reply->size() + 1);
        if (!check(loop.query[id], id, *reply)) wrong.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  loop.wall_seconds = MillisSince(start) / 1e3;
  loop.failed = failed.load();
  loop.wrong = wrong.load();
  loop.bytes = bytes.load();
  return loop;
}

/// Service counters over a window.
struct ServiceDelta {
  double queue_ms = 0.0;
  double exec_ms = 0.0;
  double result_hit_ratio = 0.0;
  double plan_hit_ratio = 0.0;
  double rejected = 0.0;
};

ServiceDelta Delta(const service::ServiceStatsSnapshot& a,
                   const service::ServiceStatsSnapshot& b) {
  auto mean_ms = [](const rdfmr::Histogram& x, const rdfmr::Histogram& y) {
    const uint64_t count = y.count() - x.count();
    return count > 0 ? static_cast<double>(y.sum() - x.sum()) /
                           static_cast<double>(count) / 1e3
                     : 0.0;
  };
  auto ratio = [](uint64_t hits, uint64_t lookups) {
    return lookups > 0 ? static_cast<double>(hits) / static_cast<double>(lookups)
                       : 0.0;
  };
  ServiceDelta d;
  d.queue_ms = mean_ms(a.queue_wait_micros, b.queue_wait_micros);
  d.exec_ms = mean_ms(a.exec_micros, b.exec_micros);
  d.result_hit_ratio = ratio(b.result_cache_hits - a.result_cache_hits,
                             b.result_cache_lookups - a.result_cache_lookups);
  d.plan_hit_ratio = ratio(b.plan_cache_hits - a.plan_cache_hits,
                           b.plan_cache_lookups - a.plan_cache_lookups);
  d.rejected = static_cast<double>(b.rejected - a.rejected);
  return d;
}

/// Serial pings over a fresh connection: the transport floor.
double PingRttUs(const std::string& target, Report* report) {
  Result<service::ServiceClient> client = service::ServiceClient::Connect(target);
  if (!client.ok()) {
    report->Wrong("ping connect: " + client.status().ToString());
    return 0.0;
  }
  std::vector<double> us;
  for (int i = 0; i < 1000; ++i) {
    const Clock::time_point start = Clock::now();
    if (!client->CallLine("{\"verb\":\"ping\"}").ok()) {
      report->Wrong("ping failed");
      return 0.0;
    }
    us.push_back(MillisSince(start) * 1e3);
  }
  return Median(us);
}

/// In-process dispatch overhead of one warm request: HandleRequestLine
/// minus QueryService::Query, each the median of many calls.
double DispatchUs(service::QueryService* query_service, const std::string& line,
                  const std::shared_ptr<const rdfmr::GraphPatternQuery>& query) {
  std::vector<double> handle_us, query_us;
  for (int i = 0; i < 2000; ++i) {
    Clock::time_point start = Clock::now();
    service::HandleRequestLine(query_service, line);
    handle_us.push_back(MillisSince(start) * 1e3);
    service::ServiceRequest request;
    request.dataset = "bsbm";
    request.query = query;
    request.options.kind = rdfmr::EngineKind::kNtgaLazy;
    request.options.runtime.num_threads = kEngineThreads;
    start = Clock::now();
    query_service->Query(std::move(request));
    query_us.push_back(MillisSince(start) * 1e3);
  }
  return std::max(0.0, Median(handle_us) - Median(query_us));
}

/// Slices per open-loop step for the sliced percentiles.
constexpr size_t kSlices = 10;

/// Pipelined unix connections of the open-loop generator, each with one
/// sender and one receiver thread.
constexpr uint32_t kConnections = 2;

double WarmUpSeconds(const Options& options) {
  return std::min(2.0, options.seconds / 10);
}

/// Set-up repeated as MoreSetUps asks (the median is setup_s); the last
/// environment is returned. `warm` runs inside the timed set-up.
std::unique_ptr<ServeEnv> RepeatedSetUp(
    const Options& options, uint64_t products, Report* report,
    const std::function<bool(ServeEnv*)>& warm) {
  std::vector<double> setup_s;
  std::unique_ptr<ServeEnv> env;
  while (MoreSetUps(setup_s)) {
    env.reset();
    const Clock::time_point start = Clock::now();
    Result<std::unique_ptr<ServeEnv>> made = SetUpServing(options, products);
    if (!made.ok()) {
      report->Wrong("set-up: " + made.status().ToString());
      return nullptr;
    }
    env = std::move(*made);
    if (!warm(env.get())) return nullptr;
    setup_s.push_back(MillisSince(start) / 1e3);
  }
  report->end_to_end["setup_s"] = {Median(setup_s), "s"};
  return env;
}

void EmitDatasetLayers(const ServeEnv& env, Report* report) {
  report->Layer("rdf.parse_ms", env.data.parse_ms);
  report->Layer("rdf.stats_ms", env.data.stats_ms);
  report->Layer("storage.index_build_ms", env.data.index_ms);
  report->Layer("storage.register_ms", env.register_ms);
  report->Layer("storage.bytes_per_triple",
                static_cast<double>(env.data.rdx_bytes) /
                    static_cast<double>(env.data.triples.size()));
}

void EmitServiceLayers(const ServiceDelta& delta, double dispatch_us,
                       double ping_us, const OpenLoop& loop,
                       Report* report) {
  report->Layer("service.queue_wait_ms", delta.queue_ms);
  report->Layer("service.exec_ms", delta.exec_ms);
  report->Layer("service.result_cache_hit_ratio", delta.result_hit_ratio);
  report->Layer("service.plan_cache_hit_ratio", delta.plan_hit_ratio);
  report->Layer("service.rejected", delta.rejected);
  report->Layer("service.dispatch_us", dispatch_us);
  report->Layer("net.ping_rtt_us", ping_us);
  const double p50_us = Median(loop.Completed()) * 1e3;
  const double server_us = (delta.queue_ms + delta.exec_ms) * 1e3 + dispatch_us;
  report->Layer("net.transport_us", std::max(0.0, p50_us - server_us));
  const double completed = static_cast<double>(loop.Completed().size());
  report->Layer("net.bytes_per_response",
                completed > 0 ? static_cast<double>(loop.bytes) / completed : 0);
  report->Layer("bench.generator_lag_ms", Mean(loop.lag_ms));
  report->Layer("bench.trace_coverage",
                p50_us > 0 ? std::min(1.0, server_us / p50_us) : 0.0);
}

/// Folds one open-loop window into the request counts.
void Account(const OpenLoop& loop, Report* report) {
  report->attempted += loop.latency_ms.size();
  const uint64_t answered = loop.Completed().size();
  report->failed += loop.latency_ms.size() - answered;
  if (loop.wrong > 0) {
    report->Wrong(std::to_string(loop.wrong) +
                  " responses differ from the oracle");
  }
}

void PrintStep(const OpenLoop& loop) {
  const std::vector<double> done = loop.Completed();
  std::printf("step rate_qps %.0f requests %zu p50_ms %.4f p99_ms %.4f "
              "lag_ms %.4f backlog_grew %d\n",
              loop.rate, done.size(), Percentile(done, 50),
              Percentile(done, 99), Mean(loop.lag_ms),
              loop.BacklogGrew() ? 1 : 0);
}

/// Runs `body` under a "window" span of `trace` (closed afterwards).
template <typename F>
auto InWindowSpan(rdfmr::Trace* trace, const std::string& label, F body) {
  rdfmr::ScopedSpan span(rdfmr::RunContext::ForTrace(trace), "window");
  span.Attr("window", label);
  return body();
}

}  // namespace

Report RunDashboard(const Options& options) {
  Report report;
  const uint64_t products =
      options.smoke ? kDashboardSmokeProducts : kDashboardProducts;
  Result<QueryMix> mix = MakeMix();
  if (!mix.ok()) {
    report.Wrong("set-up: " + mix.status().ToString());
    return report;
  }
  std::vector<Expected> expected;  // oracle per catalog query, not timed
  {
    const std::vector<rdfmr::Triple> triples =
        GenerateBsbmData(products, options.seed);
    for (const auto& query : mix->queries) {
      expected.push_back(Oracle(*query, triples, kMaxAnswers));
    }
  }
  auto line = [&](uint32_t q, uint64_t n) {
    return RequestLine(mix->ids[q], n);
  };
  std::unique_ptr<ServeEnv> env =
      RepeatedSetUp(options, products, &report, [&](ServeEnv* e) {
        // Warm the result cache with every catalog query, checking each.
        Result<service::ServiceClient> client =
            service::ServiceClient::Connect(e->target);
        if (!client.ok()) {
          report.Wrong("warm-up: " + client.status().ToString());
          return false;
        }
        for (uint32_t q = 0; q < mix->ids.size(); ++q) {
          Result<std::string> reply = client->CallLine(line(q, 0));
          if (!reply.ok() || !TerseResponseMatches(*reply, expected[q])) {
            report.Wrong("warm-up " + mix->ids[q] + ": answers differ");
          }
        }
        return true;
      });
  if (env == nullptr) return report;

  std::atomic<bool> plant{options.plant_wrong_answer};
  auto check = [&](uint32_t q, uint64_t, const std::string& reply) {
    if (plant.exchange(false)) {  // the drill: one response gains an answer
      std::string planted = reply;
      planted.insert(12, "\"planted\",");
      return TerseResponseMatches(planted, expected[q]);
    }
    return TerseResponseMatches(reply, expected[q]);
  };

  const std::vector<double>& rates = options.rates_qps;
  const size_t nominal = kNominalRate;
  const double slo_ms = options.slo_p99_ms;
  uint64_t draw_state = options.seed * 0x9e3779b97f4a7c15ULL + 3;
  auto run = [&](double rate, double seconds) {
    OpenLoop loop = RunOpenLoop(env->target, kConnections, rate, seconds,
                                *mix, &draw_state, line, check);
    Account(loop, &report);
    PrintStep(loop);
    return loop;
  };

  // Unmeasured warm-up: connections, allocator and socket buffers reach
  // steady state before the first measured step (the first seconds after
  // set-up otherwise show stalls of tens of milliseconds).
  Account(RunOpenLoop(env->target, kConnections, rates[nominal],
                      WarmUpSeconds(options), *mix, &draw_state, line, check),
          &report);

  if (!options.trace) {
    // The ladder is climbed `rounds` times, so each rate is measured at
    // several moments of the run and a burst of host noise hits only some
    // of its slices.
    const double step_seconds =
        options.seconds / static_cast<double>(rates.size() * kRounds);
    std::vector<std::vector<double>> p50(rates.size()), p90(rates.size()),
        p99(rates.size());
    std::vector<uint64_t> unhealthy(rates.size(), 0);
    uint64_t completed = 0;
    double wall_seconds = 0.0;
    const double cpu_start = CpuSeconds();
    for (uint64_t round = 0; round < kRounds; ++round) {
      for (size_t r = 0; r < rates.size(); ++r) {
        const OpenLoop loop = run(rates[r], step_seconds);
        const std::vector<size_t> slices =
            EvenSlices(loop.latency_ms.size(), kSlices);
        for (auto [p, out] : {std::pair{50.0, &p50[r]}, std::pair{90.0, &p90[r]},
                              std::pair{99.0, &p99[r]}}) {
          const std::vector<double> values =
              SlicePercentiles(loop.latency_ms, slices, p);
          out->insert(out->end(), values.begin(), values.end());
        }
        const size_t done = loop.Completed().size();
        if (done < loop.latency_ms.size() || loop.BacklogGrew()) {
          ++unhealthy[r];
        }
        completed += done;
        wall_seconds += loop.wall_seconds;
      }
    }
    const double cpu = CpuSeconds() - cpu_start;
    double max_qps_at_slo = 0.0;
    for (size_t r = 0; r < rates.size(); ++r) {
      // A rate meets the SLO when its sliced p99 does and its backlog did
      // not grow (nor a request fail) in most of its rounds.
      if (Median(p99[r]) <= slo_ms && 2 * unhealthy[r] < kRounds) {
        max_qps_at_slo = std::max(max_qps_at_slo, rates[r]);
      }
    }
    EmitRateMetrics(completed, wall_seconds, cpu, &report);
    report.end_to_end["latency_p50_ms"] = {Median(p50[nominal]), "ms"};
    report.extra["latency_p90_ms"] = {Median(p90[nominal]), "ms"};
    report.extra["latency_p99_ms"] = {Median(p99[nominal]), "ms"};
    report.extra["max_qps_at_slo"] = {max_qps_at_slo, "1/s"};
    return report;
  }

  // Traced run: the nominal rate untraced, then with operator metrics and
  // window spans on; the service counters cover the traced half.
  const double half = options.seconds / 2;
  const OpenLoop plain = run(rates[nominal], half);
  rdfmr::Trace trace;
  rdfmr::EnableOperatorMetrics(true);
  const service::ServiceStatsSnapshot before = env->service->SnapshotNow();
  const uint64_t stalls_before =
      env->server->transport_stats().backpressure_stalls;
  const OpenLoop traced = InWindowSpan(&trace, "nominal rate", [&] {
    return run(rates[nominal], half);
  });
  const ServiceDelta delta = Delta(before, env->service->SnapshotNow());
  report.Layer("net.backpressure_stalls",
               static_cast<double>(
                   env->server->transport_stats().backpressure_stalls -
                   stalls_before));
  rdfmr::EnableOperatorMetrics(false);
  const double dispatch_us =
      DispatchUs(env->service.get(), line(0, 0), mix->queries[0]);
  EmitDatasetLayers(*env, &report);
  EmitServiceLayers(delta, dispatch_us, PingRttUs(env->target, &report),
                    traced, &report);
  report.Layer("bench.trace_overhead_ratio",
               Median(traced.Completed()) / Median(plain.Completed()));
  WriteTraceOutputs(trace, options.run_dir + "/dashboard");
  return report;
}

Report RunRefresh(const Options& options) {
  Report report;
  const uint64_t products =
      options.smoke ? kRefreshSmokeProducts : kRefreshProducts;
  Result<QueryMix> mix = MakeMix();
  if (!mix.ok()) {
    report.Wrong("set-up: " + mix.status().ToString());
    return report;
  }
  const double rate = kRefreshRateQps;
  // The traced run reloads more often: its per-layer figures need reloads
  // in each half window, and it reports no latency.
  const double period = options.smoke   ? options.seconds / 3
                        : options.trace ? kTracedReloadPeriodSeconds
                                        : kReloadPeriodSeconds;

  // Every generation the run can reach, rendered as N-Triples, with its
  // oracle answers. Generation 0 is what set-up registers.
  struct Generation {
    std::vector<rdfmr::Triple> triples;
    std::string nt_text;
    std::vector<Expected> expected;
  };
  std::vector<Generation> generations;
  const size_t max_generations =
      static_cast<size_t>(options.seconds / period) + 2;
  for (size_t g = 0; g < max_generations; ++g) {
    Generation gen;
    gen.triples =
        GenerateBsbmData(products, options.seed + g * 1000003ULL);
    if (g > 0) {
      Result<Dataset> rendered =
          PrepareDataset(options.run_dir, "refresh-next", gen.triples, false);
      if (!rendered.ok()) {
        report.Wrong("set-up: " + rendered.status().ToString());
        return report;
      }
      gen.nt_text = std::move(rendered->nt_text);
    }
    for (const auto& query : mix->queries) {
      gen.expected.push_back(Oracle(*query, gen.triples, kMaxAnswers));
    }
    generations.push_back(std::move(gen));
  }

  auto line = [&](uint32_t q, uint64_t n) {
    return RequestLine(mix->ids[q], n);
  };
  std::unique_ptr<ServeEnv> env =
      RepeatedSetUp(options, products, &report, [&](ServeEnv* e) {
        Result<service::ServiceClient> client =
            service::ServiceClient::Connect(e->target);
        if (!client.ok()) {
          report.Wrong("warm-up: " + client.status().ToString());
          return false;
        }
        for (uint32_t q = 0; q < mix->ids.size(); ++q) {
          Result<std::string> reply = client->CallLine(line(q, 0));
          if (!reply.ok() ||
              !TerseResponseMatches(*reply, generations[0].expected[q])) {
            report.Wrong("warm-up " + mix->ids[q] + ": answers differ");
          }
        }
        return true;
      });
  if (env == nullptr) return report;

  // What each terse response said; checked once the window is over against
  // every generation that could have served it: generation g is live at
  // the earliest when its load is sent and at the latest until the next
  // load's response arrives.
  struct Seen {
    uint32_t query = 0;
    uint64_t num_answers = 0;
    uint64_t answers_hash = 0;  // of the "answers" array's JSON
  };
  struct Swap {
    size_t generation = 0;
    Clock::time_point sent;
    Clock::time_point answered;
  };
  std::vector<Swap> swaps;  // written by the reload thread, read after it
  size_t next_generation = 1;
  std::vector<double> reload_ms, parse_ms, index_ms, register_ms;
  uint64_t rdx_bytes = 0;
  size_t rdx_triples = 0;
  uint64_t draw_state = options.seed * 0x9e3779b97f4a7c15ULL + 5;

  // One window of traffic at `rate` while the reload thread swaps in a new
  // generation every `period` seconds.
  auto window = [&](double seconds, rdfmr::Trace* trace) {
    const size_t requests =
        std::max<size_t>(1, static_cast<size_t>(rate * seconds));
    std::vector<Seen> seen(requests);
    std::atomic<bool> plant{options.plant_wrong_answer};
    std::atomic<bool> done{false};
    std::thread reloader([&] {
      Result<service::ServiceClient> control =
          service::ServiceClient::Connect(env->target);
      if (!control.ok()) {
        report.Wrong("reload connect: " + control.status().ToString());
        return;
      }
      const Clock::time_point start = Clock::now();
      for (int k = 1;; ++k) {
        const Clock::time_point due =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(period * k));
        if (MillisSince(start) / 1e3 + period > seconds ||
            next_generation >= generations.size()) {
          break;
        }
        std::this_thread::sleep_until(due);
        if (done.load()) break;
        const size_t g = next_generation++;
        const int64_t span_start = trace ? trace->ElapsedMicros() : 0;
        const Clock::time_point parse_start = Clock::now();
        Result<std::vector<rdfmr::Triple>> parsed =
            ParseNt(generations[g].nt_text);
        parse_ms.push_back(MillisSince(parse_start));
        if (!parsed.ok() || *parsed != generations[g].triples) {
          report.Wrong("reload: N-Triples parse changed generation " +
                       std::to_string(g));
          return;
        }
        const std::string path = options.run_dir + "/refresh-g" +
                                 std::to_string(g) + ".rdx";
        const Clock::time_point index_start = Clock::now();
        Status written = rdfmr::storage::WriteRdxFile(path, *parsed);
        index_ms.push_back(MillisSince(index_start));
        const Clock::time_point load_start = Clock::now();
        Result<std::string> reply = control->CallLine(
            "{\"verb\":\"load\",\"dataset\":\"bsbm\",\"path\":\"" + path +
            "\"}");
        swaps.push_back(Swap{g, load_start, Clock::now()});
        register_ms.push_back(MillisSince(load_start));
        reload_ms.push_back(MillisSince(index_start));
        Result<JsonValue> response =
            reply.ok() ? rdfmr::ParseJson(*reply)
                       : Result<JsonValue>(reply.status());
        if (!written.ok() || !response.ok() || !response->GetBool("ok")) {
          report.Wrong("reload of generation " + std::to_string(g) +
                       " failed");
          return;
        }
        rdx_triples = parsed->size();
        rdx_bytes = static_cast<uint64_t>(
            response->Get("dataset").GetUint("mapped_bytes"));
        if (trace != nullptr) {
          rdfmr::TraceSpan* span =
              AddSpan(trace->root(), "reload", span_start,
                      static_cast<int64_t>((parse_ms.back() +
                                            reload_ms.back()) * 1e3));
          span->attrs.emplace_back("generation", std::to_string(g));
          const int64_t parse = static_cast<int64_t>(parse_ms.back() * 1e3);
          const int64_t index = static_cast<int64_t>(index_ms.back() * 1e3);
          AddSpan(span, "parse", span_start, parse);
          AddSpan(span, "index", span_start + parse, index);
          AddSpan(span, "register", span_start + parse + index,
                  static_cast<int64_t>(register_ms.back() * 1e3));
        }
      }
    });
    OpenLoop loop = RunOpenLoop(
        env->target, kConnections, rate, seconds, *mix, &draw_state,
        line, [&](uint32_t q, uint64_t n, const std::string& reply) {
          // Terse: {"answers":[...],"id":n,"num_answers":k,"ok":true,"v":1}
          const size_t begin = std::string("{\"answers\":").size();
          const size_t end = reply.find(",\"id\":", begin);
          const size_t count = reply.find("\"num_answers\":", begin);
          if (end == std::string::npos || count == std::string::npos) {
            return false;
          }
          Seen& s = seen[n];
          s.query = q;
          s.answers_hash = rdfmr::Fnv1a64(
              std::string_view(reply).substr(begin, end - begin));
          s.num_answers = std::strtoull(reply.c_str() + count + 14, nullptr, 10);
          if (plant.exchange(false)) s.num_answers += 1;  // the drill
          return true;
        });
    done.store(true);
    reloader.join();
    Account(loop, &report);
    PrintStep(loop);
    const size_t first = next_generation - swaps.size() - 1;
    for (size_t n = 0; n < seen.size(); ++n) {
      if (loop.latency_ms[n] < 0) continue;
      const Clock::time_point sent = loop.due[n];
      const Clock::time_point answered =
          sent + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double, std::milli>(
                         loop.latency_ms[n]));
      bool matched = false;
      for (size_t k = 0; k <= swaps.size() && !matched; ++k) {
        // Generation first + k: live from swap k-1's send (or before the
        // window) until swap k's response (or after it).
        if (k > 0 && swaps[k - 1].sent > answered) break;
        if (k < swaps.size() && swaps[k].answered < sent) continue;
        const size_t g = k == 0 ? first : swaps[k - 1].generation;
        const Expected& e = generations[g].expected[seen[n].query];
        matched = seen[n].num_answers == e.num_answers &&
                  seen[n].answers_hash == rdfmr::Fnv1a64(e.answers_json);
      }
      if (!matched) {
        report.Wrong(mix->ids[seen[n].query] +
                     ": answers match no live generation's oracle");
      }
    }
    return loop;
  };

  // Unmeasured warm-up at the same rate, before any reload.
  {
    std::atomic<bool> plant{options.plant_wrong_answer};
    Account(RunOpenLoop(env->target, kConnections, rate,
                        WarmUpSeconds(options), *mix, &draw_state, line,
                        [&](uint32_t q, uint64_t, const std::string& reply) {
                          return !plant.exchange(false) &&
                                 TerseResponseMatches(
                                     reply, generations[0].expected[q]);
                        }),
            &report);
  }

  if (!options.trace) {
    const double cpu_start = CpuSeconds();
    const OpenLoop loop = window(options.seconds, nullptr);
    const double cpu = CpuSeconds() - cpu_start;
    const std::vector<double> done = loop.Completed();
    // Even slices: a reload and its recovery fall into one or two of them;
    // the recovery shows in the (unsliced) p99 and in cpu_ms_per_query.
    const std::vector<size_t> cycles = EvenSlices(loop.due.size(), kSlices);
    EmitRateMetrics(done.size(), loop.wall_seconds, cpu, &report);
    report.end_to_end["latency_p50_ms"] = {
        MedianOfSlices(loop.latency_ms, cycles, 50), "ms"};
    report.extra["latency_p90_ms"] = {
        MedianOfSlices(loop.latency_ms, cycles, 90), "ms"};
    report.extra["latency_p99_ms"] = {Percentile(done, 99), "ms"};
    report.extra["reload_ms"] = {Median(reload_ms), "ms"};
    return report;
  }

  const double half = options.seconds / 2;
  const OpenLoop plain = window(half, nullptr);
  parse_ms.clear();
  index_ms.clear();
  register_ms.clear();
  reload_ms.clear();
  rdfmr::Trace trace;
  rdfmr::EnableOperatorMetrics(true);
  const service::ServiceStatsSnapshot before = env->service->SnapshotNow();
  const uint64_t stalls_before =
      env->server->transport_stats().backpressure_stalls;
  const OpenLoop traced = window(half, &trace);
  const ServiceDelta delta = Delta(before, env->service->SnapshotNow());
  report.Layer("net.backpressure_stalls",
               static_cast<double>(
                   env->server->transport_stats().backpressure_stalls -
                   stalls_before));
  rdfmr::EnableOperatorMetrics(false);
  const double dispatch_us = DispatchUs(
      env->service.get(), line(0, 0), mix->queries[0]);
  EmitServiceLayers(delta, dispatch_us, PingRttUs(env->target, &report),
                    traced, &report);
  report.Layer("rdf.parse_ms", Mean(parse_ms));
  report.Layer("rdf.stats_ms", env->data.stats_ms);
  report.Layer("storage.index_build_ms", Mean(index_ms));
  report.Layer("storage.register_ms", Mean(register_ms));
  report.Layer("storage.bytes_per_triple",
               rdx_triples > 0 ? static_cast<double>(rdx_bytes) /
                                     static_cast<double>(rdx_triples)
                               : 0.0);
  report.Layer("bench.trace_overhead_ratio",
               Median(traced.Completed()) / Median(plain.Completed()));
  WriteTraceOutputs(trace, options.run_dir + "/refresh");
  return report;
}

}  // namespace perfbench

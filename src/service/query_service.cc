#include "service/query_service.h"

#include <algorithm>
#include <chrono>
#include <future>
#include <utility>

#include "common/json.h"
#include "common/metrics.h"
#include "common/strings.h"

namespace rdfmr {
namespace service {

namespace {

using Clock = std::chrono::steady_clock;

uint64_t MicrosSince(Clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                            start)
          .count());
}

uint32_t DeriveMaxConcurrent(const ServiceConfig& config) {
  if (config.max_concurrent > 0) return config.max_concurrent;
  return config.cluster.num_threads > 0 ? config.cluster.num_threads : 1;
}

// ~2 stripes per worker so concurrent warm lookups rarely share a shard
// mutex, clamped so tiny services still stripe and huge worker counts
// don't shred the LRU working set.
uint32_t DeriveCacheShards(uint32_t max_concurrent) {
  const size_t derived =
      NextPowerOfTwo(2 * static_cast<size_t>(max_concurrent));
  return static_cast<uint32_t>(
      std::min<size_t>(64, std::max<size_t>(8, derived)));
}

/// The name Exec stamps on a single payload's stats.
std::string SingleQueryName(const ServiceRequest& request) {
  std::string name = request.query->name();
  if (request.aggregate.has_value()) name += "+count";
  return name;
}

/// The ExecRequest a ServiceRequest runs as on `dataset`, whose catalog
/// the plan chooser reads instead of rescanning the base.
ExecRequest ToExecRequest(const ServiceRequest& request,
                          const DatasetHandle& dataset) {
  ExecRequest exec;
  exec.stats = dataset.stats();
  if (request.query != nullptr) {
    exec.payload = ExecPayload::kSingle;
    exec.query = request.query;
    exec.aggregate = request.aggregate;
  } else {
    exec.payload = request.batch_mode == BatchMode::kUnion
                       ? ExecPayload::kUnion
                       : ExecPayload::kBatch;
    exec.queries = request.batch;
  }
  return exec;
}

Status CheckRequestShape(const ServiceRequest& request) {
  const bool single = request.query != nullptr;
  const bool batch = !request.batch.empty();
  if (single == batch) {
    return Status::InvalidArgument(
        "request must carry exactly one of a single query or a batch");
  }
  if (request.aggregate.has_value() && !single) {
    return Status::InvalidArgument(
        "aggregation applies to single queries only");
  }
  return Status::OK();
}

JsonValue HistogramJson(const Histogram& hist) {
  JsonValue o = JsonValue::MakeObject();
  o.Set("count", hist.count());
  o.Set("sum", hist.sum());
  o.Set("min", hist.min());
  o.Set("max", hist.max());
  o.Set("mean", hist.Mean());
  o.Set("p50", hist.Percentile(50));
  o.Set("p95", hist.Percentile(95));
  o.Set("p99", hist.Percentile(99));
  return o;
}

}  // namespace

uint64_t EstimateSetCharge(const SolutionSet& set) {
  uint64_t bytes = 32;
  const std::vector<std::string>& vars = set.variables();
  for (size_t row = 0; row < set.size(); ++row) {
    for (size_t slot = 0; slot < vars.size(); ++slot) {
      const SolutionSet::Handle h = set.handle(row, slot);
      if (h == SolutionSet::kUnbound) continue;
      bytes += vars[slot].size() + set.term(h).size() + 16;
    }
  }
  return bytes;
}

// ---- cache keys -------------------------------------------------------------

std::string EngineOptionsFingerprint(const EngineOptions& options) {
  // The thread count is excluded on purpose: it changes only host
  // wall-clock fields, never answers or deterministic stats. The retry
  // budget and the disk-pressure policy ARE included: retry accounting
  // and preflight refusals/degradations are part of the stats a cached
  // result replays. The budget is fingerprinted fully resolved (runtime
  // field, then RDFMR_MAX_ATTEMPTS env) so two requests that execute
  // differently never share an entry.
  return StringFormat(
      "kind=%s;phi=%u;grouping=%d;decode=%d;attempts=%u;pressure=%d;"
      "cost=%.17g,%.17g,%.17g,%.17g,%.17g",
      EngineKindToString(options.kind), options.phi_partitions,
      static_cast<int>(options.grouping), options.decode_answers ? 1 : 0,
      ResolveMaxAttempts(options.runtime, 0),
      static_cast<int>(options.disk_pressure), options.cost.hdfs_read_mbps,
      options.cost.hdfs_write_mbps, options.cost.shuffle_mbps,
      options.cost.sort_mbps, options.cost.job_startup_seconds);
}

std::string CanonicalQueryText(const ServiceRequest& request) {
  std::string out;
  auto append_query = [&out](const GraphPatternQuery& query) {
    for (const TriplePattern& tp : query.patterns()) {
      out += tp.ToString();
      out += '\n';
    }
  };
  if (request.query != nullptr) {
    append_query(*request.query);
    if (request.aggregate.has_value()) {
      const AggregateSpec& spec = *request.aggregate;
      out += "AGG group=";
      for (const std::string& var : spec.group_vars) {
        out += var;
        out += ',';
      }
      out += StringFormat(" counted=%s as=%s distinct=%d min=%llu\n",
                          spec.counted_var.c_str(), spec.count_var.c_str(),
                          spec.distinct ? 1 : 0,
                          static_cast<unsigned long long>(spec.min_count));
    }
  } else {
    out += request.batch_mode == BatchMode::kUnion ? "UNION\n" : "BATCH\n";
    for (const auto& query : request.batch) {
      out += "BRANCH\n";
      append_query(*query);
    }
  }
  return out;
}

std::string RequestCacheKey(const ServiceRequest& request, uint64_t epoch) {
  std::string key = request.dataset;
  key += '\x1f';
  key += std::to_string(epoch);
  key += '\x1f';
  key += EngineOptionsFingerprint(request.options);
  key += '\x1f';
  key += CanonicalQueryText(request);
  return key;
}

// ---- stats ------------------------------------------------------------------

std::string ServiceStatsSnapshot::ToJson() const {
  JsonValue o = JsonValue::MakeObject();
  o.Set("submitted", submitted);
  o.Set("served", served);
  o.Set("failed", failed);
  o.Set("rejected", rejected);
  o.Set("cancelled", cancelled);
  o.Set("deadline_expired", deadline_expired);
  o.Set("datasets", datasets);
  o.Set("queued", queued);
  o.Set("running", running);
  o.Set("cache_shards", cache_shards);
  JsonValue result = JsonValue::MakeObject();
  result.Set("hits", result_cache_hits);
  result.Set("misses", result_cache_misses);
  result.Set("lookups", result_cache_lookups);
  result.Set("entries", result_cache_entries);
  result.Set("bytes", result_cache_bytes);
  o.Set("result_cache", std::move(result));
  o.Set("queue_depth", HistogramJson(queue_depth));
  o.Set("queue_wait_micros", HistogramJson(queue_wait_micros));
  o.Set("exec_micros", HistogramJson(exec_micros));
  return o.Dump();
}

std::string ServiceStatsSnapshot::ToPrometheus() const {
  std::string out;
  auto counter = [&out](const char* name, const char* help,
                        uint64_t value) {
    AppendPrometheusScalar(name, help, "counter", std::to_string(value),
                           &out);
  };
  auto gauge = [&out](const char* name, const char* help, uint64_t value) {
    AppendPrometheusScalar(name, help, "gauge", std::to_string(value), &out);
  };
  auto histogram = [&out](const char* name, const char* help,
                          const Histogram& h) {
    AppendPrometheusHeader(name, help, "histogram", &out);
    AppendPrometheusHistogram(name, h, &out);
  };
  counter("rdfmr_service_submitted_total", "Requests admitted or rejected.",
          submitted);
  counter("rdfmr_service_served_total", "Requests answered with OK status.",
          served);
  counter("rdfmr_service_failed_total",
          "Infrastructure or bad-request errors.", failed);
  counter("rdfmr_service_rejected_total", "Queue-bound rejections.",
          rejected);
  counter("rdfmr_service_cancelled_total", "Cancelled queued requests.",
          cancelled);
  counter("rdfmr_service_deadline_expired_total",
          "Requests past their deadline.", deadline_expired);
  counter("rdfmr_service_result_cache_hits_total", "Result cache hits.",
          result_cache_hits);
  counter("rdfmr_service_result_cache_misses_total", "Result cache misses.",
          result_cache_misses);
  counter("rdfmr_service_result_cache_lookups_total",
          "Result cache lookups (hits + misses).", result_cache_lookups);
  gauge("rdfmr_service_cache_shards_count",
        "Lock stripes of the result cache.", cache_shards);
  gauge("rdfmr_service_result_cache_entries_count",
        "Result sets currently cached.", result_cache_entries);
  gauge("rdfmr_service_result_cache_bytes",
        "Approximate bytes held by the result cache.", result_cache_bytes);
  gauge("rdfmr_service_datasets_count", "Datasets currently registered.",
        datasets);
  gauge("rdfmr_service_queued_count", "Requests admitted but not running.",
        queued);
  gauge("rdfmr_service_running_count", "Requests currently executing.",
        running);
  histogram("rdfmr_service_queue_depth_count",
            "Queue depth sampled at each admission.", queue_depth);
  histogram("rdfmr_service_queue_wait_micros",
            "Queue wait per executed request.", queue_wait_micros);
  histogram("rdfmr_service_exec_micros",
            "Execution time per executed request.", exec_micros);
  return out;
}

// ---- service ---------------------------------------------------------------

struct QueryService::Pending {
  uint64_t ticket = 0;
  ServiceRequest request;
  std::function<void(ServiceResponse)> done;
  Clock::time_point submit_time;
  uint64_t deadline_ms = 0;
  bool cancelled = false;  // guarded by the service mutex
};

QueryService::QueryService(ServiceConfig config)
    : config_(std::move(config)),
      max_concurrent_(DeriveMaxConcurrent(config_)),
      cache_shards_(DeriveCacheShards(max_concurrent_)),
      registry_(config_.cluster),
      result_cache_(config_.result_cache_bytes, cache_shards_),
      // One extra slot because ThreadPool reserves the final slot for a
      // ParallelFor caller: max_concurrent_ + 1 spawns exactly
      // max_concurrent_ asynchronous workers for Submit tasks.
      pool_(std::make_unique<ThreadPool>(max_concurrent_ + 1)) {}

QueryService::~QueryService() {
  // ThreadPool's destructor drains every queued task before joining, so
  // all admitted requests get their callback; pool_ is declared last,
  // hence destroyed before any state those tasks touch.
}

Result<DatasetInfo> QueryService::LoadDataset(const std::string& name,
                                              std::vector<Triple> triples) {
  RDFMR_ASSIGN_OR_RETURN(DatasetInfo info,
                         registry_.Load(name, std::move(triples)));
  // Epoch-keyed entries of the replaced generation are already
  // unreachable; purge them eagerly so they stop occupying capacity. The
  // sharded purge sweeps every stripe (keys hash across all of them), one
  // shard lock at a time — no service-wide lock involved.
  result_cache_.EraseByPrefix(name + '\x1f');
  return info;
}

Result<DatasetInfo> QueryService::RegisterDataset(const std::string& name,
                                                  TripleLoader loader) {
  return registry_.Register(name, std::move(loader));
}

Result<DatasetInfo> QueryService::RegisterMappedDataset(
    const std::string& name, const std::string& path) {
  RDFMR_ASSIGN_OR_RETURN(DatasetInfo info,
                         registry_.RegisterMapped(name, path));
  result_cache_.EraseByPrefix(name + '\x1f');
  return info;
}

Status QueryService::DropDataset(const std::string& name) {
  RDFMR_RETURN_NOT_OK(registry_.Drop(name));
  result_cache_.EraseByPrefix(name + '\x1f');
  return Status::OK();
}

std::vector<DatasetInfo> QueryService::ListDatasets() const {
  return registry_.List();
}

uint64_t QueryService::Submit(ServiceRequest request,
                              std::function<void(ServiceResponse)> done) {
  auto pending = std::make_shared<Pending>();
  pending->request = std::move(request);
  pending->done = std::move(done);
  pending->submit_time = Clock::now();
  pending->deadline_ms = pending->request.deadline_ms > 0
                             ? pending->request.deadline_ms
                             : config_.default_deadline_ms;
  stats_.submitted.fetch_add(1, std::memory_order_relaxed);
  // Reserve a queue slot first, then publish: the fetch_add makes the
  // bound check exact under concurrent submitters without any lock.
  const uint64_t depth =
      stats_.queued.fetch_add(1, std::memory_order_relaxed) + 1;
  if (depth > config_.queue_bound) {
    stats_.queued.fetch_sub(1, std::memory_order_relaxed);
    stats_.rejected.fetch_add(1, std::memory_order_release);
    ServiceResponse response;
    response.status = Status::Unavailable(
        "admission queue full (bound " +
        std::to_string(config_.queue_bound) + ")");
    pending->done(std::move(response));
    return 0;
  }
  pending->ticket = next_ticket_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    pending_[pending->ticket] = pending;
  }
  stats_.queue_depth.Add(depth);
  pool_->Submit([this, pending] { RunPending(pending); });
  return pending->ticket;
}

ServiceResponse QueryService::Query(ServiceRequest request) {
  std::promise<ServiceResponse> promise;
  std::future<ServiceResponse> future = promise.get_future();
  Submit(std::move(request), [&promise](ServiceResponse response) {
    promise.set_value(std::move(response));
  });
  return future.get();
}

bool QueryService::Cancel(uint64_t ticket) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = pending_.find(ticket);
  if (it == pending_.end() || it->second->cancelled) return false;
  it->second->cancelled = true;
  return true;
}

void QueryService::RunPending(const std::shared_ptr<Pending>& pending) {
  const Clock::time_point start = Clock::now();
  const uint64_t queue_micros = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          start - pending->submit_time)
          .count());
  bool cancelled = false;
  {
    // mu_ covers only the pending-map removal and the cancelled flag; the
    // stats updates below are lock-free.
    std::lock_guard<std::mutex> lock(mu_);
    pending_.erase(pending->ticket);
    cancelled = pending->cancelled;
  }
  stats_.queued.fetch_sub(1, std::memory_order_relaxed);
  ServiceResponse early;
  bool has_early = false;
  if (cancelled) {
    stats_.cancelled.fetch_add(1, std::memory_order_release);
    early.status = Status::Cancelled("request cancelled while queued");
    has_early = true;
  } else if (pending->deadline_ms > 0 &&
             queue_micros >= pending->deadline_ms * 1000) {
    stats_.deadline_expired.fetch_add(1, std::memory_order_release);
    early.status =
        Status::DeadlineExceeded("deadline expired while queued");
    has_early = true;
  } else {
    stats_.running.fetch_add(1, std::memory_order_relaxed);
    stats_.queue_wait_micros.Add(queue_micros);
  }
  if (has_early) {
    early.queue_micros = queue_micros;
    pending->done(std::move(early));
    return;
  }

  ServiceResponse response = Execute(pending->request);
  const uint64_t exec_micros = MicrosSince(start);
  response.queue_micros = queue_micros;
  response.exec_micros = exec_micros;
  const bool expired =
      pending->deadline_ms > 0 &&
      queue_micros + exec_micros >= pending->deadline_ms * 1000;
  if (expired && response.ok()) {
    // The run completed (and warmed the result cache) but the caller's
    // deadline passed: report expiry, withhold the payload.
    response.status =
        Status::DeadlineExceeded("request completed past its deadline");
    response.answers.reset();
    response.batch_answers.reset();
  }
  stats_.running.fetch_sub(1, std::memory_order_relaxed);
  stats_.exec_micros.Add(exec_micros);
  if (response.ok()) {
    stats_.served.fetch_add(1, std::memory_order_release);
  } else if (response.status.code() == StatusCode::kDeadlineExceeded) {
    stats_.deadline_expired.fetch_add(1, std::memory_order_release);
  } else {
    stats_.failed.fetch_add(1, std::memory_order_release);
  }
  pending->done(std::move(response));
}

ServiceResponse QueryService::Execute(const ServiceRequest& request) {
  ServiceResponse response;
  Status shape = CheckRequestShape(request);
  if (!shape.ok()) {
    response.status = shape;
    return response;
  }
  auto handle = registry_.Acquire(request.dataset);
  if (!handle.ok()) {
    response.status = handle.status();
    return response;
  }
  return ExecuteOnDataset(request, **handle);
}

Result<PlanChoice> QueryService::Explain(const ServiceRequest& request) {
  RDFMR_RETURN_NOT_OK(CheckRequestShape(request));
  RDFMR_ASSIGN_OR_RETURN(std::shared_ptr<const DatasetHandle> handle,
                         registry_.Acquire(request.dataset));
  if (handle->dfs() == nullptr) {
    return Status::Unknown("dataset not loaded: " + handle->name());
  }
  return ChoosePlanOnDfs(handle->dfs(), DatasetHandle::kBasePath,
                         ToExecRequest(request, *handle), request.options);
}

ServiceResponse QueryService::ExecuteOnDataset(const ServiceRequest& request,
                                               const DatasetHandle& dataset) {
  ServiceResponse response;
  response.epoch = dataset.epoch();
  const std::string key = RequestCacheKey(request, dataset.epoch());

  // Shapes the response from an answer snapshot (fresh or cached). No deep
  // copy anywhere: the response aliases the snapshot's shared sets, so a
  // warm hit costs a refcount bump and an ExecStats copy regardless of
  // answer size. The key ignores query names, so a single query's stats
  // carry the request's own name.
  auto shape = [&request, &response](const CachedAnswers& value) {
    response.stats = value.stats;
    if (request.query != nullptr) {
      response.stats.query = SingleQueryName(request);
    }
    response.answers = value.answers;
    response.batch_answers = value.per_query;
    response.status = Status::OK();
  };

  if (request.use_result_cache) {
    // The warm hot path: one shard mutex inside Get, one relaxed
    // fetch_add — no service-wide lock.
    std::shared_ptr<const CachedAnswers> cached;
    if (result_cache_.Get(key, &cached)) {
      stats_.result_cache_hits.fetch_add(1, std::memory_order_relaxed);
      response.result_cache_hit = true;
      shape(*cached);
      return response;
    }
    stats_.result_cache_misses.fetch_add(1, std::memory_order_relaxed);
  }

  // A miss is an Exec call on the dataset's DFS with the request as sent:
  // Exec selects the engine (auto) and runs the disk-pressure preflight.
  auto exec = Exec(dataset.dfs(), DatasetHandle::kBasePath,
                   ToExecRequest(request, dataset), request.options);
  if (!exec.ok()) {
    response.status = exec.status();
    return response;
  }

  auto value = std::make_shared<CachedAnswers>();
  value->stats = std::move(exec->stats);
  uint64_t charge = 128;  // fixed overhead for the ExecStats copy
  if (request.query != nullptr || request.batch_mode == BatchMode::kUnion) {
    charge += EstimateSetCharge(exec->answers);
    value->answers = std::make_shared<SolutionSet>(std::move(exec->answers));
  } else {
    for (const SolutionSet& set : exec->per_query) {
      charge += EstimateSetCharge(set);
    }
    value->per_query = std::make_shared<std::vector<SolutionSet>>(
        std::move(exec->per_query));
  }

  // Cache only complete, decoded, successful runs: failed runs are cheap
  // to re-measure and undecoded runs carry no reusable payload.
  if (request.use_result_cache && value->stats.ok() &&
      request.options.decode_answers) {
    result_cache_.Put(key, value, charge);
  }
  shape(*value);
  return response;
}

ServiceStatsSnapshot QueryService::SnapshotNow() const {
  // One coherent relaxed load per counter: loads of a single atomic are
  // totally ordered, so successive snapshots are monotone per field, and
  // the derived lookup totals equal hits + misses exactly (lookups is
  // never stored, so it cannot tear against its addends).
  const auto load = [](const std::atomic<uint64_t>& cell) {
    return cell.load(std::memory_order_relaxed);
  };
  // Outcomes are counted with release after their request's admission, so
  // acquiring them before loading `submitted` keeps the outcome total
  // within the admissions the snapshot reports.
  const auto acquire = [](const std::atomic<uint64_t>& cell) {
    return cell.load(std::memory_order_acquire);
  };
  ServiceStatsSnapshot snapshot;
  snapshot.served = acquire(stats_.served);
  snapshot.failed = acquire(stats_.failed);
  snapshot.rejected = acquire(stats_.rejected);
  snapshot.cancelled = acquire(stats_.cancelled);
  snapshot.deadline_expired = acquire(stats_.deadline_expired);
  snapshot.submitted = load(stats_.submitted);
  snapshot.result_cache_hits = load(stats_.result_cache_hits);
  snapshot.result_cache_misses = load(stats_.result_cache_misses);
  snapshot.result_cache_lookups =
      snapshot.result_cache_hits + snapshot.result_cache_misses;
  snapshot.queued = load(stats_.queued);
  snapshot.running = load(stats_.running);
  snapshot.queue_depth = stats_.queue_depth.Snapshot();
  snapshot.queue_wait_micros = stats_.queue_wait_micros.Snapshot();
  snapshot.exec_micros = stats_.exec_micros.Snapshot();
  snapshot.cache_shards = cache_shards_;
  snapshot.result_cache_entries = result_cache_.size();
  snapshot.result_cache_bytes = result_cache_.used();
  snapshot.datasets = registry_.size();
  return snapshot;
}

}  // namespace service
}  // namespace rdfmr

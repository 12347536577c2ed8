// Long-lived concurrent query service over the simulated-cluster engines.
//
// A served request IS an ExecRequest (ServiceRequest derives from it) plus
// what serving adds: the dataset name, the engine options, a deadline and
// the result-cache opt-out. The service checks it with Exec's own
// CheckExecRequest before touching the dataset, names it with Exec's
// RunName, and a miss runs it through Exec unchanged. The result cache
// holds the run's ExecResult, so one request type and one result type
// span the wire to Exec.
//
// One QueryService owns:
//   * a DatasetRegistry (named datasets -> lazily-loaded shared SimDfs
//     bases — the load cost is paid once per dataset, not per query);
//   * a bounded result cache (LRU by answer bytes) whose keys embed the
//     dataset epoch — dropping or reloading a dataset makes its entries
//     unreachable immediately (and they are purged eagerly). A key is the
//     request as sent: engine=auto is keyed as auto, and the payload shape
//     (single, per-query batch, union) is part of it;
//   * an admission controller: a bounded submission queue feeding a fixed
//     worker pool, per-request deadlines checked at dequeue and at
//     completion, and explicit cancellation of queued requests;
//   * ServiceStats counters and histograms, exported as JSON.
//
// Concurrency design (the warm path must get cheaper per query as workers
// are added, not dearer):
//   * The result cache is a ShardedLruCache — power-of-two lock stripes
//     selected by key hash, so concurrent warm lookups only contend when
//     they land on the same shard. Prefix purges visit every shard, keeping
//     epoch/drop invalidation exact.
//   * Every stats counter/gauge is a relaxed std::atomic, and the latency
//     histograms are AtomicHistograms (the same relaxed-atomic discipline
//     as the operator-metrics gate): the execute path never takes a stats
//     lock. SnapshotNow() folds them into one consistent
//     ServiceStatsSnapshot only when the stats/metrics verbs ask.
//   * mu_ guards exactly the cancellation state: the pending-request map
//     and each Pending's cancelled flag. It is held only for O(1) map
//     operations — never across execution, cache access, or stats.
//   * Lock hierarchy: cache-shard mutexes < mu_; in fact no path ever
//     holds two of these locks at once (every critical section is a
//     leaf), so the ordering is vacuous by construction. The registry's
//     internal mutex is likewise independent.
// Net effect: a warm-result Query takes one cache-shard mutex plus two
// O(1) pending-map operations under mu_, and no other lock.
//
// Determinism contract (what the equivalence tests check): a served query's
// answers and all deterministic ExecStats fields are byte-identical to a
// direct Exec call with the same payload and options, at any worker count
// — a cache miss IS an Exec call with the request unchanged (engine
// selection and disk-pressure preflight included). A result-cache hit
// replays the producing run's stats verbatim (its *_seconds fields are the
// producer's wall times); for engine=auto that includes the chooser's
// decision, so a warm auto hit never runs the plan chooser.

#ifndef RDFMR_SERVICE_QUERY_SERVICE_H_
#define RDFMR_SERVICE_QUERY_SERVICE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/histogram.h"
#include "common/sharded_lru_cache.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "engine/engine.h"
#include "engine/plan_chooser.h"
#include "service/dataset_registry.h"

namespace rdfmr {
namespace service {

struct ServiceConfig {
  /// Cluster configuration for every dataset's SimDfs.
  ClusterConfig cluster;
  /// Maximum queries executing at once; 0 derives it from
  /// cluster.num_threads (at least 1).
  uint32_t max_concurrent = 0;
  /// Maximum requests admitted but not yet executing; submissions beyond
  /// it are rejected with kUnavailable.
  uint32_t queue_bound = 64;
  /// Result cache capacity in (approximate answer) bytes. The cache's lock
  /// stripes follow the worker count: the smallest power of two >= 2x
  /// max_concurrent, clamped to [8, 64] — enough stripes that 16 warm
  /// workers rarely collide. The charge budget stays global (an entry is
  /// refused only when it exceeds the whole capacity), so the stripe count
  /// never changes what is cacheable.
  uint64_t result_cache_bytes = 16ULL << 20;
  /// Deadline applied to requests that do not carry one; 0 = none.
  uint64_t default_deadline_ms = 0;
};

/// \brief One request: the ExecRequest Exec runs, plus what serving adds.
/// The payload (single, optionally aggregated; per-query batch; union) and
/// its checks are Exec's own (CheckExecRequest). The inherited `stats` is
/// always replaced by the dataset's catalog before Exec runs; what a caller
/// sets there is ignored.
struct ServiceRequest : ExecRequest {
  std::string dataset;
  EngineOptions options;
  /// 0 uses the service default; the deadline covers queue wait AND
  /// execution (a request finishing past it reports kDeadlineExceeded).
  uint64_t deadline_ms = 0;
  bool use_result_cache = true;
};

struct ServiceResponse {
  /// Infrastructure outcome: OK even when the *measured* run failed
  /// in-workflow (that failure lives in stats.status, mirroring Exec);
  /// non-OK for rejection, cancellation, deadline, bad request, unknown
  /// dataset.
  Status status;
  ExecStats stats;
  /// Single-query / union answers: an aliasing pointer into the run's
  /// immutable ExecResult, which the result cache holds. Warm hits cost an
  /// O(1) refcount bump, no deep copy, so concurrent warm responses point
  /// at the SAME set. Null for a per-query batch and when the response
  /// carries no answers.
  std::shared_ptr<const SolutionSet> answers;
  /// Per-query batch answers (ExecPayload::kBatch), aligned with the
  /// request's queries; null otherwise. Shared exactly like `answers`.
  std::shared_ptr<const std::vector<SolutionSet>> batch_answers;
  uint64_t epoch = 0;
  bool result_cache_hit = false;
  uint64_t queue_micros = 0;
  uint64_t exec_micros = 0;

  bool ok() const { return status.ok(); }

  /// \brief The single/union answer set (empty set when absent).
  const SolutionSet& answer_set() const {
    static const SolutionSet kEmpty;
    return answers ? *answers : kEmpty;
  }
  /// \brief The per-query batch answers (empty vector when absent).
  const std::vector<SolutionSet>& batch_answer_sets() const {
    static const std::vector<SolutionSet> kEmpty;
    return batch_answers ? *batch_answers : kEmpty;
  }
};

/// \brief Point-in-time service counters (all monotonically increasing
/// except the gauges) plus latency/queue-depth distributions.
///
/// Produced only by QueryService::SnapshotNow(): each
/// counter is one coherent atomic load, so any counter observed in one
/// snapshot is >= its value in every earlier snapshot, and the derived
/// `*_lookups` fields satisfy `hits + misses == lookups` exactly.
struct ServiceStatsSnapshot {
  uint64_t submitted = 0;
  uint64_t served = 0;            ///< responded with OK status
  uint64_t failed = 0;            ///< infrastructure / bad-request errors
  uint64_t rejected = 0;          ///< queue bound exceeded
  uint64_t cancelled = 0;
  uint64_t deadline_expired = 0;
  /// Always 0: there is no plan cache (every run compiles afresh). Kept
  /// for source compatibility of snapshot readers.
  uint64_t plan_cache_hits = 0;
  uint64_t plan_cache_lookups = 0;
  uint64_t result_cache_hits = 0;
  uint64_t result_cache_misses = 0;
  uint64_t result_cache_lookups = 0;  ///< derived: hits + misses
  uint64_t result_cache_entries = 0;
  uint64_t result_cache_bytes = 0;
  uint64_t cache_shards = 0;  ///< result-cache lock stripes (configuration)
  uint64_t datasets = 0;     ///< gauge
  uint64_t queued = 0;       ///< gauge
  uint64_t running = 0;      ///< gauge
  Histogram queue_depth;     ///< sampled at each admission
  Histogram queue_wait_micros;
  Histogram exec_micros;

  /// \brief Canonical JSON object (sorted keys; histograms nested).
  std::string ToJson() const;

  /// \brief Prometheus text exposition of the same snapshot under
  /// `rdfmr_service_*` metric names (convention
  /// `rdfmr_<area>_<name>_<unit>`; histograms as cumulative buckets).
  std::string ToPrometheus() const;
};

/// \brief The service. Thread-safe; one instance serves any number of
/// client threads / socket connections.
class QueryService {
 public:
  explicit QueryService(ServiceConfig config);

  /// \brief Drains every admitted request (their callbacks fire), then
  /// joins the workers.
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  const ServiceConfig& config() const { return config_; }
  uint32_t max_concurrent() const { return max_concurrent_; }

  // ---- datasets -----------------------------------------------------------

  Result<DatasetInfo> LoadDataset(const std::string& name,
                                  std::vector<Triple> triples);
  Result<DatasetInfo> RegisterDataset(const std::string& name,
                                      TripleLoader loader);
  /// \brief Registers `name` backed by a memory-mapped rdx file: the file
  /// is validated now (milliseconds) and the first query mounts the
  /// mapping for zero-materialization scans.
  Result<DatasetInfo> RegisterMappedDataset(const std::string& name,
                                            const std::string& path);
  Status DropDataset(const std::string& name);
  std::vector<DatasetInfo> ListDatasets() const;

  // ---- queries ------------------------------------------------------------

  /// \brief Admits `request`; `done` fires exactly once, possibly inline
  /// (rejection) or on a worker thread. Returns a ticket usable with
  /// Cancel until the request starts executing, or 0 when the request was
  /// rejected at admission (the callback has already fired).
  uint64_t Submit(ServiceRequest request,
                  std::function<void(ServiceResponse)> done);

  /// \brief Synchronous Submit: blocks until the response is ready.
  ServiceResponse Query(ServiceRequest request);

  /// \brief Scores every candidate engine for `request` against the
  /// dataset's stats catalog WITHOUT executing anything — the `explain`
  /// verb. Works for any request shape; the request's `options.kind` is
  /// ignored (the chooser always prices the full candidate table).
  Result<PlanChoice> Explain(const ServiceRequest& request);

  /// \brief Cancels a still-queued request; returns false when it already
  /// started (or finished). A cancelled request responds kCancelled.
  bool Cancel(uint64_t ticket);

  /// \brief Folds the lock-free counters, gauges, and atomic histograms
  /// into one ServiceStatsSnapshot (see the struct's consistency notes):
  /// the ONLY place the relaxed cells are read back.
  ServiceStatsSnapshot SnapshotNow() const;

 private:
  struct Pending;

  /// \brief Lock-free mirror of the snapshot's counters/gauges: relaxed
  /// atomics updated on the execute path, folded by SnapshotNow(). The
  /// result-cache lookup counters are the invariant-bearing pair — hits and
  /// misses are each a single fetch_add, lookups is derived at fold time,
  /// so `hits + misses == lookups` can never tear.
  struct StatsCells {
    std::atomic<uint64_t> submitted{0};
    std::atomic<uint64_t> served{0};
    std::atomic<uint64_t> failed{0};
    std::atomic<uint64_t> rejected{0};
    std::atomic<uint64_t> cancelled{0};
    std::atomic<uint64_t> deadline_expired{0};
    std::atomic<uint64_t> result_cache_hits{0};
    std::atomic<uint64_t> result_cache_misses{0};
    std::atomic<uint64_t> queued{0};   // gauge; also the admission bound
    std::atomic<uint64_t> running{0};  // gauge
    AtomicHistogram queue_depth;
    AtomicHistogram queue_wait_micros;
    AtomicHistogram exec_micros;
  };

  void RunPending(const std::shared_ptr<Pending>& pending);
  ServiceResponse Execute(const ServiceRequest& request);
  ServiceResponse ExecuteOnDataset(const ServiceRequest& request,
                                   const DatasetHandle& dataset);

  const ServiceConfig config_;
  const uint32_t max_concurrent_;
  const uint32_t cache_shards_;
  DatasetRegistry registry_;

  StatsCells stats_;  ///< lock-free; read back only by SnapshotNow()
  std::atomic<uint64_t> next_ticket_{1};

  /// Striped cache: internally synchronized, one mutex per shard. An
  /// entry is the producing run's immutable ExecResult; warm hits hand out
  /// aliasing pointers into it.
  ShardedLruCache<std::shared_ptr<const ExecResult>> result_cache_;

  /// Guards pending_ and each Pending's `cancelled` flag — nothing else.
  /// Held only for O(1) map operations; never while holding (or taking) a
  /// cache-shard mutex, executing, or updating stats.
  mutable std::mutex mu_;
  std::unordered_map<uint64_t, std::shared_ptr<Pending>> pending_;

  /// Declared last so it is destroyed first: the destructor drains queued
  /// request tasks, which touch the members above.
  std::unique_ptr<ThreadPool> pool_;
};

// ---- cache-key helpers (exposed for tests) ---------------------------------

/// \brief Deterministic fingerprint of every EngineOptions field that can
/// change a deterministic ExecStats field or the answers. Host parallelism
/// (num_threads) is deliberately excluded: it only moves wall-clock times.
std::string EngineOptionsFingerprint(const EngineOptions& options);

/// \brief Canonical text of a request's payload (patterns, optional
/// aggregate, batch composition + payload shape), independent of query
/// names.
std::string CanonicalQueryText(const ServiceRequest& request);

/// \brief Full result cache key: dataset, epoch, options fingerprint,
/// canonical query text.
std::string RequestCacheKey(const ServiceRequest& request, uint64_t epoch);

/// \brief Result-cache charge of an answer set: the bytes of every binding
/// plus a fixed per-binding overhead. The formula is the cache's admission
/// currency, so it stays as it was when answers were map-based:
/// re-pricing it would change which entries the result cache keeps.
uint64_t EstimateSetCharge(const SolutionSet& set);

}  // namespace service
}  // namespace rdfmr

#endif  // RDFMR_SERVICE_QUERY_SERVICE_H_

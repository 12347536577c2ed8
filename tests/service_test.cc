// Tests for the concurrent query service: the LRU cache and histogram
// primitives it is built on, the dataset registry's lazy-load / epoch
// semantics, cache keys, and — the core contract — that answers and all
// deterministic ExecStats fields served through QueryService are
// byte-identical to direct Exec calls at any worker count (disk-pressure
// preflight included), with result-cache hits, admission
// rejections, cancellation, and deadline expiry all observable.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <fstream>
#include <future>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/hash.h"
#include "common/histogram.h"
#include "common/json.h"
#include "common/lru_cache.h"
#include "common/random.h"
#include "common/sharded_lru_cache.h"
#include "query/matcher.h"
#include "query/sparql_parser.h"
#include "service/dataset_io.h"
#include "service/protocol.h"
#include "service/query_service.h"
#include "tests/test_util.h"

namespace rdfmr {
namespace service {
namespace {

using testing_util::MakeDfsWithBase;
using testing_util::RoomyCluster;
using testing_util::SmallDataset;

// ---- LRU cache -------------------------------------------------------------

// The result cache's admission currency read off the answer table equals
// the per-binding formula over the same solutions.
TEST(EstimateSetChargeTest, EqualsPerBindingFormula) {
  Rng rng(7);
  const std::vector<std::string> vars = {"g", "label", "x;y", "up"};
  for (int round = 0; round < 50; ++round) {
    std::vector<Solution> solutions;
    for (uint64_t i = rng.Uniform(30); i > 0; --i) {
      Solution s;
      for (const std::string& var : vars) {
        if (rng.Uniform(4) != 0) {
          s.Bind(var, std::string(rng.Uniform(12),
                                  static_cast<char>('a' + rng.Uniform(3))));
        }
      }
      solutions.push_back(std::move(s));
    }
    const std::set<Solution> distinct(solutions.begin(), solutions.end());
    uint64_t legacy = 32;
    for (const Solution& s : distinct) {
      for (const auto& [var, value] : s.bindings()) {
        legacy += var.size() + value.size() + 16;
      }
    }
    EXPECT_EQ(EstimateSetCharge(SolutionSet(solutions)), legacy);
  }
}

TEST(LruCacheTest, PutGetRecencyAndEviction) {
  LruCache<int> cache(10);
  EXPECT_TRUE(cache.Put("a", 1, 4));
  EXPECT_TRUE(cache.Put("b", 2, 4));
  ASSERT_NE(cache.Get("a"), nullptr);
  EXPECT_EQ(*cache.Get("a"), 1);
  EXPECT_EQ(cache.used(), 8u);

  // "a" was refreshed, so inserting "c" (charge 4) evicts "b".
  EXPECT_TRUE(cache.Put("c", 3, 4));
  EXPECT_EQ(cache.Get("b"), nullptr);
  ASSERT_NE(cache.Get("a"), nullptr);
  ASSERT_NE(cache.Get("c"), nullptr);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.used(), 8u);
}

TEST(LruCacheTest, ReplaceUpdatesCharge) {
  LruCache<int> cache(10);
  EXPECT_TRUE(cache.Put("a", 1, 8));
  EXPECT_TRUE(cache.Put("a", 2, 3));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.used(), 3u);
  EXPECT_EQ(*cache.Get("a"), 2);
}

TEST(LruCacheTest, OversizedEntryRefused) {
  LruCache<int> cache(4);
  EXPECT_FALSE(cache.Put("big", 1, 5));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.used(), 0u);
  // A refused Put still removes any previous entry under that key.
  EXPECT_TRUE(cache.Put("k", 1, 2));
  EXPECT_FALSE(cache.Put("k", 2, 9));
  EXPECT_EQ(cache.Get("k"), nullptr);
}

TEST(LruCacheTest, EraseAndEraseIf) {
  LruCache<int> cache(100);
  EXPECT_TRUE(cache.Put("x\x1f""1", 1, 1));
  EXPECT_TRUE(cache.Put("x\x1f""2", 2, 1));
  EXPECT_TRUE(cache.Put("y\x1f""1", 3, 1));
  EXPECT_TRUE(cache.Erase("x\x1f""1"));
  EXPECT_FALSE(cache.Erase("x\x1f""1"));
  EXPECT_EQ(cache.EraseIf([](const std::string& key) {
              return key.rfind("x\x1f", 0) == 0;
            }),
            1u);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.used(), 1u);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.used(), 0u);
}

// Charge accounting across overwrite: the old entry's charge must be
// released BEFORE the new charge lands, so eviction decisions never see a
// stale total. With capacity 10 and {a:4, b:4} resident, overwriting a
// with charge 6 totals 4+6=10 — nothing may be evicted. A stale total
// (4+4+6=14) would wrongly evict b.
TEST(LruCacheTest, OverwriteReleasesOldChargeBeforeEviction) {
  LruCache<int> cache(10);
  EXPECT_TRUE(cache.Put("a", 1, 4));
  EXPECT_TRUE(cache.Put("b", 2, 4));
  EXPECT_EQ(cache.used(), 8u);
  EXPECT_TRUE(cache.Put("a", 3, 6));
  EXPECT_EQ(cache.used(), 10u);
  EXPECT_EQ(cache.size(), 2u);
  ASSERT_NE(cache.Get("b"), nullptr) << "eviction ran on a stale total";
  ASSERT_NE(cache.Get("a"), nullptr);
  EXPECT_EQ(*cache.Get("a"), 3);

  // Growing past capacity evicts exactly the LRU entry, with the
  // post-release total: overwriting b (LRU after the Gets above refreshed
  // a... order: b then a, so b is MRU) — refresh a last, then overwrite
  // it to charge 8: total 8+4 > 10 evicts b alone.
  EXPECT_TRUE(cache.Put("a", 4, 8));
  EXPECT_EQ(cache.Get("b"), nullptr);
  EXPECT_EQ(cache.used(), 8u);
  EXPECT_EQ(cache.size(), 1u);
}

// ---- Sharded LRU cache -----------------------------------------------------

// Builds `count` keys that all land in `want_shard` (or, with
// `want_shard < 0`, one key per distinct shard).
std::vector<std::string> KeysInShard(
    const ShardedLruCache<int>& cache, size_t want_shard, size_t count) {
  std::vector<std::string> keys;
  for (int i = 0; keys.size() < count; ++i) {
    std::string key = "k" + std::to_string(i);
    if (cache.ShardOf(key) == want_shard) keys.push_back(key);
  }
  return keys;
}

TEST(ShardedLruCacheTest, RoundsShardsToPowerOfTwo) {
  ShardedLruCache<int> cache(64, 3);
  EXPECT_EQ(cache.num_shards(), 4u);
  EXPECT_EQ(cache.capacity(), 64u);
  ShardedLruCache<int> one(64, 0);
  EXPECT_EQ(one.num_shards(), 1u);
}

TEST(ShardedLruCacheTest, GetPutEraseAcrossShards) {
  ShardedLruCache<int> cache(1024, 8);
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(cache.Put("key" + std::to_string(i), i, 1));
  }
  EXPECT_EQ(cache.size(), 50u);
  EXPECT_EQ(cache.used(), 50u);
  int value = -1;
  ASSERT_TRUE(cache.Get("key7", &value));
  EXPECT_EQ(value, 7);
  EXPECT_FALSE(cache.Get("absent", &value));
  EXPECT_EQ(value, 7) << "miss must leave *out untouched";
  EXPECT_TRUE(cache.Erase("key7"));
  EXPECT_FALSE(cache.Erase("key7"));
  EXPECT_EQ(cache.size(), 49u);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.used(), 0u);
}

// The charge budget is global across shards: inserts past the capacity
// evict (approximately-LRU, round-robin over shards) until the total
// fits again, never skipping it, and the freshly inserted entry's shard
// is not the first victim.
TEST(ShardedLruCacheTest, GlobalBudgetEvictionAcrossShards) {
  ShardedLruCache<int> cache(32, 4);
  const std::vector<std::string> in_shard0 = KeysInShard(cache, 0, 5);
  const std::vector<std::string> in_shard1 = KeysInShard(cache, 1, 4);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(cache.Put(in_shard0[i], 1, 4));
    EXPECT_TRUE(cache.Put(in_shard1[i], 1, 4));
  }
  EXPECT_EQ(cache.used(), 32u);  // exactly at budget, nothing evicted
  EXPECT_EQ(cache.size(), 8u);

  // One more 4-charge insert into shard 0: the budget forces exactly one
  // eviction, taken from another shard — every shard-0 entry (including
  // the new one) survives.
  EXPECT_TRUE(cache.Put(in_shard0[4], 1, 4));
  EXPECT_EQ(cache.used(), 32u);
  EXPECT_EQ(cache.size(), 8u);
  int value = 0;
  for (const std::string& key : in_shard0) {
    EXPECT_TRUE(cache.Get(key, &value)) << key;
  }
}

// Admission matches the unsharded LruCache regardless of shard count: an
// entry is refused only when it exceeds the WHOLE budget (a refused Put
// still drops the previous entry under that key). A per-shard capacity
// slice would shrink as shards scale with workers and silently refuse
// large entries — the bug that made bench_service's biggest answer set
// uncacheable at 16 workers.
TEST(ShardedLruCacheTest, LargeEntriesAdmittedUpToWholeBudget) {
  ShardedLruCache<int> cache(32, 4);
  EXPECT_TRUE(cache.Put("big", 1, 30));  // far beyond a 32/4 slice
  int value = 0;
  ASSERT_TRUE(cache.Get("big", &value));
  EXPECT_EQ(value, 1);
  EXPECT_EQ(cache.used(), 30u);

  // A second large entry in some other shard displaces the first.
  std::string other = KeysInShard(cache, cache.ShardOf("big") ^ 1, 1)[0];
  EXPECT_TRUE(cache.Put(other, 2, 30));
  EXPECT_TRUE(cache.Get(other, &value));
  EXPECT_FALSE(cache.Get("big", &value));
  EXPECT_EQ(cache.used(), 30u);

  // Larger than the whole budget: refused, previous entry dropped.
  EXPECT_FALSE(cache.Put(other, 3, 33));
  EXPECT_FALSE(cache.Get(other, &value));
  EXPECT_EQ(cache.used(), 0u);
}

// Satellite regression: total used() is pinned across overwrite and
// prefix purge — the overwrite releases the old charge first, the purge
// releases exactly the purged keys' charges, shard by shard.
TEST(ShardedLruCacheTest, OverwriteAndPrefixPurgeChargeAccounting) {
  ShardedLruCache<int> cache(1 << 20, 8);
  for (int i = 0; i < 16; ++i) {
    EXPECT_TRUE(cache.Put("d\x1f" + std::to_string(i), i, 100));
  }
  for (int i = 0; i < 16; ++i) {
    EXPECT_TRUE(cache.Put("e\x1f" + std::to_string(i), i, 10));
  }
  EXPECT_EQ(cache.used(), 16u * 100 + 16u * 10);
  // Overwrite every d-entry with a smaller charge: totals shrink by
  // exactly the delta, entry count unchanged.
  for (int i = 0; i < 16; ++i) {
    EXPECT_TRUE(cache.Put("d\x1f" + std::to_string(i), i, 40));
  }
  EXPECT_EQ(cache.used(), 16u * 40 + 16u * 10);
  EXPECT_EQ(cache.size(), 32u);
  // Purge one dataset's prefix across all shards; the other dataset's
  // charges are untouched.
  EXPECT_EQ(cache.EraseByPrefix("d\x1f"), 16u);
  EXPECT_EQ(cache.used(), 16u * 10);
  EXPECT_EQ(cache.size(), 16u);
  EXPECT_EQ(cache.EraseByPrefix("d\x1f"), 0u);
}

TEST(ShardedLruCacheTest, EraseByPrefixSweepsEveryShard) {
  ShardedLruCache<int> cache(1 << 20, 16);
  // One entry per shard under the same dataset prefix: the purge must
  // visit all 16 shards to find them.
  std::vector<bool> covered(cache.num_shards(), false);
  size_t distinct = 0;
  for (int i = 0; distinct < cache.num_shards(); ++i) {
    std::string key = "ds\x1f" + std::to_string(i);
    if (!covered[cache.ShardOf(key)]) {
      covered[cache.ShardOf(key)] = true;
      ++distinct;
      EXPECT_TRUE(cache.Put(std::move(key), i, 1));
    }
  }
  EXPECT_EQ(cache.size(), cache.num_shards());
  EXPECT_EQ(cache.EraseByPrefix("ds\x1f"), cache.num_shards());
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.used(), 0u);
}

// ---- Histogram -------------------------------------------------------------

TEST(HistogramTest, CountsAndPercentiles) {
  Histogram h;
  EXPECT_EQ(h.Percentile(50), 0u);
  for (uint64_t v : {0ull, 1ull, 2ull, 3ull, 100ull}) h.Add(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 106u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 100u);
  EXPECT_DOUBLE_EQ(h.Mean(), 106.0 / 5.0);
  // Percentiles are bucket upper bounds, clamped to the observed max.
  EXPECT_EQ(h.Percentile(0), 0u);
  EXPECT_LE(h.Percentile(50), 3u);
  EXPECT_EQ(h.Percentile(100), 100u);

  auto json = ParseJson(h.ToJson());
  ASSERT_TRUE(json.ok());
  EXPECT_EQ(json->GetUint("count"), 5u);
  EXPECT_EQ(json->GetUint("sum"), 106u);
}

TEST(AtomicHistogramTest, LosslessUnderConcurrentAdds) {
  AtomicHistogram hist;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hist, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        hist.Add(static_cast<uint64_t>(t) * 1000 + (i % 7));
      }
    });
  }
  for (auto& thread : threads) thread.join();

  Histogram folded = hist.Snapshot();
  EXPECT_EQ(folded.count(), kThreads * kPerThread);
  EXPECT_EQ(folded.min(), 0u);
  EXPECT_EQ(folded.max(), 7006u);
  uint64_t expected_sum = 0;
  for (int t = 0; t < kThreads; ++t) {
    for (uint64_t i = 0; i < kPerThread; ++i) {
      expected_sum += static_cast<uint64_t>(t) * 1000 + (i % 7);
    }
  }
  EXPECT_EQ(folded.sum(), expected_sum);
}

// ---- Dataset registry ------------------------------------------------------

std::vector<Triple> TinyTriples() {
  return {{"a", "p", "b"}, {"a", "q", "c"}, {"b", "p", "c"}};
}

TEST(DatasetRegistryTest, LazyLoadRunsLoaderOnce) {
  DatasetRegistry registry(RoomyCluster());
  std::atomic<int> loads{0};
  auto info = registry.Register("d", [&]() -> Result<std::vector<Triple>> {
    ++loads;
    return TinyTriples();
  });
  ASSERT_TRUE(info.ok());
  EXPECT_FALSE(info->loaded);
  EXPECT_EQ(loads.load(), 0);

  auto first = registry.Acquire("d");
  ASSERT_TRUE(first.ok());
  auto second = registry.Acquire("d");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(loads.load(), 1);
  EXPECT_EQ((*first)->Info().num_triples, 3u);
  EXPECT_TRUE((*first)->Info().loaded);
  EXPECT_NE((*first)->dfs(), nullptr);
  // Both acquisitions share the one materialized base.
  EXPECT_EQ((*first)->dfs(), (*second)->dfs());
}

TEST(DatasetRegistryTest, EpochsAdvanceAcrossReloadAndRegistry) {
  DatasetRegistry registry(RoomyCluster());
  auto a = registry.Load("a", TinyTriples());
  ASSERT_TRUE(a.ok());
  auto b = registry.Load("b", TinyTriples());
  ASSERT_TRUE(b.ok());
  EXPECT_LT(a->epoch, b->epoch);

  auto a2 = registry.Load("a", TinyTriples());
  ASSERT_TRUE(a2.ok());
  EXPECT_LT(b->epoch, a2->epoch);
  EXPECT_EQ(registry.Epoch("a"), a2->epoch);
  EXPECT_EQ(registry.size(), 2u);
}

TEST(DatasetRegistryTest, DropKeepsAcquiredHandlesAlive) {
  DatasetRegistry registry(RoomyCluster());
  ASSERT_TRUE(registry.Load("d", TinyTriples()).ok());
  auto handle = registry.Acquire("d");
  ASSERT_TRUE(handle.ok());
  ASSERT_TRUE(registry.Drop("d").ok());
  EXPECT_EQ(registry.Drop("d").code(), StatusCode::kNotFound);
  EXPECT_EQ(registry.Acquire("d").status().code(), StatusCode::kNotFound);
  // The handle acquired before the drop still serves reads.
  EXPECT_EQ((*handle)->Info().num_triples, 3u);
  EXPECT_NE((*handle)->dfs(), nullptr);
}

TEST(DatasetRegistryTest, LoaderFailureIsCachedNotRetried) {
  DatasetRegistry registry(RoomyCluster());
  std::atomic<int> loads{0};
  ASSERT_TRUE(registry
                  .Register("bad",
                            [&]() -> Result<std::vector<Triple>> {
                              ++loads;
                              return Status::IoError("disk on fire");
                            })
                  .ok());
  EXPECT_FALSE(registry.Acquire("bad").ok());
  EXPECT_FALSE(registry.Acquire("bad").ok());
  EXPECT_EQ(loads.load(), 1);
}

// ---- Cache keys ------------------------------------------------------------

std::shared_ptr<const GraphPatternQuery> MakeQuery(
    const std::string& name, const std::string& text) {
  auto parsed = ParseSparql(name, text);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return std::make_shared<GraphPatternQuery>(parsed.MoveValueUnsafe());
}

TEST(CacheKeyTest, ThreadsExcludedOptionsAndEpochIncluded) {
  ServiceRequest request;
  request.dataset = "d";
  request.query = MakeQuery("q", "SELECT * WHERE { ?s ?p ?o . }");

  EngineOptions a = request.options;
  EngineOptions b = request.options;
  b.runtime.num_threads = 4;
  EXPECT_EQ(EngineOptionsFingerprint(a), EngineOptionsFingerprint(b));
  b.phi_partitions = a.phi_partitions + 1;
  EXPECT_NE(EngineOptionsFingerprint(a), EngineOptionsFingerprint(b));
  b = a;
  b.kind = EngineKind::kHive;
  EXPECT_NE(EngineOptionsFingerprint(a), EngineOptionsFingerprint(b));

  const std::string key_epoch1 = RequestCacheKey(request, 1);
  EXPECT_NE(key_epoch1, RequestCacheKey(request, 2));
  EXPECT_EQ(key_epoch1.rfind("d\x1f", 0), 0u);
}

TEST(CacheKeyTest, CanonicalTextIgnoresQueryNames) {
  ServiceRequest a;
  a.query = MakeQuery("first", "SELECT * WHERE { ?s <p> ?o . ?s ?q ?x . }");
  ServiceRequest b;
  b.query = MakeQuery("second", "SELECT * WHERE { ?s <p> ?o . ?s ?q ?x . }");
  EXPECT_EQ(CanonicalQueryText(a), CanonicalQueryText(b));

  ServiceRequest c;
  c.query = MakeQuery("third", "SELECT * WHERE { ?s <p> ?o . }");
  EXPECT_NE(CanonicalQueryText(a), CanonicalQueryText(c));

  // An aggregate changes the canonical text even over the same BGP.
  ServiceRequest d = a;
  AggregateSpec spec;
  spec.group_vars = {"s"};
  spec.counted_var = "q";
  d.aggregate = spec;
  EXPECT_NE(CanonicalQueryText(a), CanonicalQueryText(d));

  // The payload is part of the text: a per-query batch and a union over
  // the same queries run different payloads, so they never share an entry.
  ServiceRequest batch;
  batch.payload = ExecPayload::kBatch;
  batch.queries = {a.query, c.query};
  ServiceRequest renamed_batch;
  renamed_batch.payload = ExecPayload::kBatch;
  renamed_batch.queries = {b.query, c.query};
  EXPECT_EQ(CanonicalQueryText(batch), CanonicalQueryText(renamed_batch));
  ServiceRequest union_request = batch;
  union_request.payload = ExecPayload::kUnion;
  EXPECT_NE(CanonicalQueryText(batch), CanonicalQueryText(union_request));
}

// The exact bytes of the result-cache key of each payload shape: a
// single query, an aggregated single, a per-query batch and a union. A key
// is the dataset, the epoch, the options fingerprint and the canonical
// query text, each but the last closed by \x1f; a change to any of them
// re-keys every cached entry, so it must show here. The retry budget is
// pinned by the request (cli_pinned outranks RDFMR_MAX_ATTEMPTS), so the
// key does not read the environment.
TEST(CacheKeyTest, KeyBytesArePinned) {
  auto star = MakeQuery(
      "star", "SELECT * WHERE { ?s <http://ex/p> ?o . ?s ?x ?y . }");
  auto chain = MakeQuery(
      "chain", "SELECT * WHERE { ?a <http://ex/knows> ?b . ?b ?q ?c . }");
  ServiceRequest single;
  single.dataset = "bsbm";
  single.query = star;
  single.options.runtime.max_attempts = 3;
  single.options.runtime.cli_pinned = true;

  ServiceRequest aggregated = single;
  AggregateSpec spec;
  spec.group_vars = {"s"};
  spec.counted_var = "x";
  spec.min_count = 2;
  aggregated.aggregate = spec;

  ServiceRequest batch = single;
  batch.payload = ExecPayload::kBatch;
  batch.queries = {star, chain};
  batch.options.kind = EngineKind::kNtgaEager;

  ServiceRequest union_request = batch;
  union_request.payload = ExecPayload::kUnion;
  union_request.options.kind = EngineKind::kAuto;

  const std::string prefix = "bsbm\x1f" "7\x1f";
  const std::string options =
      ";phi=1024;grouping=0;decode=1;attempts=3;pressure=0;"
      "cost=80,50,40,120,15\x1f";
  const std::string star_text = "?s <http://ex/p> ?o .\n?s ?x ?y .\n";
  const std::string branches = "BRANCH\n" + star_text +
                               "BRANCH\n?a <http://ex/knows> ?b .\n"
                               "?b ?q ?c .\n";
  EXPECT_EQ(RequestCacheKey(single, 7),
            prefix + "kind=LazyUnnest" + options + star_text);
  EXPECT_EQ(RequestCacheKey(aggregated, 7),
            prefix + "kind=LazyUnnest" + options + star_text +
                "AGG group=s, counted=x as=count distinct=1 min=2\n");
  EXPECT_EQ(RequestCacheKey(batch, 7),
            prefix + "kind=EagerUnnest" + options + "BATCH\n" + branches);
  EXPECT_EQ(RequestCacheKey(union_request, 7),
            prefix + "kind=Auto" + options + "UNION\n" + branches);
}

// ---- Service equivalence ---------------------------------------------------

// Compares every deterministic field of two ExecStats (the *_seconds wall
// times are the documented exception).
void ExpectSameStats(const ExecStats& a, const ExecStats& b) {
  EXPECT_EQ(a.engine, b.engine);
  EXPECT_EQ(a.query, b.query);
  EXPECT_EQ(a.status.code(), b.status.code());
  EXPECT_EQ(a.failed_job_index, b.failed_job_index);
  EXPECT_EQ(a.mr_cycles, b.mr_cycles);
  EXPECT_EQ(a.planned_cycles, b.planned_cycles);
  EXPECT_EQ(a.full_scans, b.full_scans);
  EXPECT_EQ(a.hdfs_read_bytes, b.hdfs_read_bytes);
  EXPECT_EQ(a.hdfs_write_bytes, b.hdfs_write_bytes);
  EXPECT_EQ(a.hdfs_write_bytes_replicated, b.hdfs_write_bytes_replicated);
  EXPECT_EQ(a.shuffle_bytes, b.shuffle_bytes);
  EXPECT_EQ(a.star_phase_write_bytes, b.star_phase_write_bytes);
  EXPECT_EQ(a.intermediate_write_bytes, b.intermediate_write_bytes);
  EXPECT_EQ(a.final_output_bytes, b.final_output_bytes);
  EXPECT_EQ(a.peak_dfs_used_bytes, b.peak_dfs_used_bytes);
  EXPECT_DOUBLE_EQ(a.redundancy_factor, b.redundancy_factor);
  EXPECT_DOUBLE_EQ(a.final_redundancy_factor, b.final_redundancy_factor);
  EXPECT_DOUBLE_EQ(a.modeled_seconds, b.modeled_seconds);
  EXPECT_EQ(a.counters, b.counters);
  EXPECT_EQ(a.jobs.size(), b.jobs.size());
}

// Compares the plan chooser's annotations of two ExecStats: the chosen
// engine, the rationale and every field of every candidate row.
void ExpectSameChoice(const ExecStats& a, const ExecStats& b) {
  EXPECT_EQ(a.chosen_engine, b.chosen_engine);
  EXPECT_EQ(a.plan_rationale, b.plan_rationale);
  ASSERT_EQ(a.plan_candidates.size(), b.plan_candidates.size());
  for (size_t i = 0; i < a.plan_candidates.size(); ++i) {
    const PlanCandidate& x = a.plan_candidates[i];
    const PlanCandidate& y = b.plan_candidates[i];
    EXPECT_EQ(x.kind, y.kind);
    EXPECT_DOUBLE_EQ(x.modeled_seconds, y.modeled_seconds);
    EXPECT_EQ(x.planned_cycles, y.planned_cycles);
    EXPECT_EQ(x.star_bytes, y.star_bytes);
    EXPECT_EQ(x.peak_bytes, y.peak_bytes);
    EXPECT_EQ(x.fits, y.fits);
    EXPECT_EQ(x.feasible, y.feasible);
    EXPECT_EQ(x.chosen, y.chosen);
    EXPECT_EQ(x.note, y.note);
  }
}

std::unique_ptr<QueryService> MakeService(uint32_t max_concurrent = 2) {
  ServiceConfig config;
  config.cluster = RoomyCluster();
  config.max_concurrent = max_concurrent;
  return std::make_unique<QueryService>(config);
}

TEST(ServiceEquivalenceTest, SingleQueryMatchesDirectRun) {
  std::vector<Triple> triples = SmallDataset(DatasetFamily::kBsbm);
  auto query = GetTestbedQuery("B1");
  ASSERT_TRUE(query.ok());

  // kAuto is served as sent: the miss is an Exec call with kAuto, so the
  // chooser's annotations match a direct kAuto Exec too.
  for (EngineKind kind :
       {EngineKind::kNtgaLazy, EngineKind::kHive, EngineKind::kAuto}) {
    for (uint32_t threads : {1u, 4u}) {
      auto service = MakeService();
      ASSERT_TRUE(service->LoadDataset("bsbm", triples).ok());

      ServiceRequest request;
      request.dataset = "bsbm";
      request.query = *query;
      request.options.kind = kind;
      request.options.runtime.num_threads = threads;
      ServiceResponse response = service->Query(request);
      ASSERT_TRUE(response.ok()) << response.status.ToString();
      ASSERT_TRUE(response.stats.ok()) << response.stats.status.ToString();
      EXPECT_FALSE(response.result_cache_hit);
      EXPECT_GT(response.epoch, 0u);

      auto dfs = MakeDfsWithBase(triples);
      ASSERT_NE(dfs, nullptr);
      auto direct = Exec(dfs.get(), "base", ExecRequest::Single(*query),
                         request.options);
      ASSERT_TRUE(direct.ok());
      EXPECT_EQ(response.answer_set(), direct->answers)
          << EngineKindToString(kind) << " @" << threads << " threads";
      ExpectSameStats(response.stats, direct->stats);
      ExpectSameChoice(response.stats, direct->stats);
      EXPECT_EQ(response.stats.chosen_engine.empty(),
                kind != EngineKind::kAuto);
    }
  }
}

TEST(ServiceEquivalenceTest, AggregateMatchesDirectRun) {
  std::vector<Triple> triples = SmallDataset(DatasetFamily::kBsbm);
  auto query = MakeQuery("degree", "SELECT * WHERE { ?s ?p ?o . }");
  AggregateSpec spec;
  spec.group_vars = {"s"};
  spec.counted_var = "p";
  spec.count_var = "n";
  spec.min_count = 2;

  auto service = MakeService();
  ASSERT_TRUE(service->LoadDataset("bsbm", triples).ok());
  ServiceRequest request;
  request.dataset = "bsbm";
  request.query = query;
  request.aggregate = spec;
  request.options.kind = EngineKind::kNtgaLazy;
  ServiceResponse response = service->Query(request);
  ASSERT_TRUE(response.ok()) << response.status.ToString();
  ASSERT_TRUE(response.stats.ok());

  auto dfs = MakeDfsWithBase(triples);
  ASSERT_NE(dfs, nullptr);
  auto direct =
      Exec(dfs.get(), "base", ExecRequest::Single(query, spec),
           request.options);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(response.answer_set(), direct->answers);
  ExpectSameStats(response.stats, direct->stats);
  EXPECT_EQ(response.answer_set(),
            EvaluateAggregateInMemory(*query, spec, triples));
}

TEST(ServiceEquivalenceTest, BatchAndUnionMatchDirectRuns) {
  std::vector<Triple> triples = SmallDataset(DatasetFamily::kBsbm);
  std::vector<std::shared_ptr<const GraphPatternQuery>> queries;
  for (const char* id : {"B0", "B1", "B4"}) {
    auto q = GetTestbedQuery(id);
    ASSERT_TRUE(q.ok());
    queries.push_back(*q);
  }

  for (EngineKind kind : {EngineKind::kNtgaLazy, EngineKind::kAuto}) {
    for (uint32_t threads : {1u, 4u}) {
      auto service = MakeService();
      ASSERT_TRUE(service->LoadDataset("bsbm", triples).ok());

      ServiceRequest request;
      request.dataset = "bsbm";
      request.payload = ExecPayload::kBatch;
      request.queries = queries;
      request.options.kind = kind;
      request.options.runtime.num_threads = threads;
      ServiceResponse batched = service->Query(request);
      ASSERT_TRUE(batched.ok()) << batched.status.ToString();
      ASSERT_TRUE(batched.stats.ok());

      auto dfs = MakeDfsWithBase(triples);
      ASSERT_NE(dfs, nullptr);
      auto direct = Exec(dfs.get(), "base", ExecRequest::Batch(queries),
                         request.options);
      ASSERT_TRUE(direct.ok());
      ASSERT_EQ(batched.batch_answer_sets().size(), queries.size());
      EXPECT_EQ(batched.batch_answer_sets(), direct->per_query);
      ExpectSameStats(batched.stats, direct->stats);
      ExpectSameChoice(batched.stats, direct->stats);

      // The union is its own payload and its own cache entry: a miss.
      request.payload = ExecPayload::kUnion;
      ServiceResponse unioned = service->Query(request);
      ASSERT_TRUE(unioned.ok()) << unioned.status.ToString();
      ASSERT_TRUE(unioned.stats.ok());
      EXPECT_FALSE(unioned.result_cache_hit);
      auto direct_union = Exec(dfs.get(), "base", ExecRequest::Union(queries),
                               request.options);
      ASSERT_TRUE(direct_union.ok());
      EXPECT_EQ(unioned.answer_set(), direct_union->answers);
      ExpectSameStats(unioned.stats, direct_union->stats);
      ExpectSameChoice(unioned.stats, direct_union->stats);
      EXPECT_EQ(unioned.stats.chosen_engine.empty(),
                kind != EngineKind::kAuto);
    }
  }
}

// A served request passes the disk-pressure preflight exactly as Exec
// does: on an undersized cluster kFailFast refuses without burning a
// cycle, and kDegrade switches Eager to Lazy with the same annotation.
TEST(ServiceEquivalenceTest, ServedPreflightMatchesExec) {
  std::vector<Triple> triples = SmallDataset(DatasetFamily::kBsbm);
  auto query = GetTestbedQuery("B3");
  ASSERT_TRUE(query.ok());
  ServiceConfig config;
  config.cluster = testing_util::PressuredCluster(triples, **query);
  config.max_concurrent = 2;
  QueryService service(config);
  ASSERT_TRUE(service.LoadDataset("bsbm", triples).ok());

  for (DiskPressurePolicy policy :
       {DiskPressurePolicy::kFailFast, DiskPressurePolicy::kDegrade}) {
    ServiceRequest request;
    request.dataset = "bsbm";
    request.query = *query;
    request.options.kind = EngineKind::kNtgaEager;
    request.options.disk_pressure = policy;
    ServiceResponse response = service.Query(request);
    ASSERT_TRUE(response.ok()) << response.status.ToString();

    auto dfs = MakeDfsWithBase(triples, config.cluster);
    ASSERT_NE(dfs, nullptr);
    ExecRequest exec_request;
    exec_request.query = *query;
    auto direct = Exec(dfs.get(), "base", exec_request, request.options);
    ASSERT_TRUE(direct.ok()) << direct.status().ToString();
    ExpectSameStats(response.stats, direct->stats);
    EXPECT_EQ(response.stats.status.ToString(),
              direct->stats.status.ToString());
    EXPECT_EQ(response.stats.preflight, direct->stats.preflight);
    EXPECT_EQ(response.stats.degraded_from, direct->stats.degraded_from);
    EXPECT_EQ(response.answer_set(), direct->answers);
    if (policy == DiskPressurePolicy::kFailFast) {
      EXPECT_TRUE(response.stats.status.IsResourceExhausted())
          << response.stats.status.ToString();
      EXPECT_EQ(response.stats.mr_cycles, 0u);
    } else {
      EXPECT_TRUE(response.stats.ok()) << response.stats.status.ToString();
      EXPECT_EQ(response.stats.degraded_from, "EagerUnnest");
    }
    EXPECT_FALSE(response.stats.preflight.empty());
  }
}

// engine=auto under a disk-pressure policy on an undersized cluster: the
// service prices the request once, inside Exec, exactly as a direct call.
TEST(ServiceEquivalenceTest, AutoUnderPressureMatchesExecAuto) {
  std::vector<Triple> triples = SmallDataset(DatasetFamily::kBsbm);
  auto query = GetTestbedQuery("B3");
  ASSERT_TRUE(query.ok());
  ServiceConfig config;
  config.cluster = testing_util::PressuredCluster(triples, **query);
  config.max_concurrent = 2;
  QueryService service(config);
  ASSERT_TRUE(service.LoadDataset("bsbm", triples).ok());

  ServiceRequest request;
  request.dataset = "bsbm";
  request.query = *query;
  request.options.kind = EngineKind::kAuto;
  request.options.disk_pressure = DiskPressurePolicy::kDegrade;
  ServiceResponse response = service.Query(request);
  ASSERT_TRUE(response.ok()) << response.status.ToString();

  auto dfs = MakeDfsWithBase(triples, config.cluster);
  ASSERT_NE(dfs, nullptr);
  auto direct =
      Exec(dfs.get(), "base", ExecRequest::Single(*query), request.options);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  EXPECT_EQ(response.answer_set(), direct->answers);
  ExpectSameStats(response.stats, direct->stats);
  ExpectSameChoice(response.stats, direct->stats);
  EXPECT_EQ(response.stats.status.ToString(),
            direct->stats.status.ToString());
  EXPECT_EQ(response.stats.preflight, direct->stats.preflight);
  EXPECT_EQ(response.stats.degraded_from, direct->stats.degraded_from);
  EXPECT_FALSE(response.stats.preflight.empty());
  EXPECT_FALSE(response.stats.chosen_engine.empty());
}

// ---- Cache behavior --------------------------------------------------------

TEST(ServiceCacheTest, ResultCacheHitsObservable) {
  std::vector<Triple> triples = SmallDataset(DatasetFamily::kBsbm);
  auto service = MakeService();
  ASSERT_TRUE(service->LoadDataset("bsbm", triples).ok());
  auto query = GetTestbedQuery("B1");
  ASSERT_TRUE(query.ok());

  ServiceRequest request;
  request.dataset = "bsbm";
  request.query = *query;
  request.options.kind = EngineKind::kNtgaLazy;

  ServiceResponse cold = service->Query(request);
  ASSERT_TRUE(cold.ok());
  EXPECT_FALSE(cold.result_cache_hit);

  // Bypassing the result cache runs the query afresh, with the same
  // answers and stats.
  ServiceRequest no_results = request;
  no_results.use_result_cache = false;
  ServiceResponse rerun = service->Query(no_results);
  ASSERT_TRUE(rerun.ok());
  EXPECT_FALSE(rerun.result_cache_hit);
  EXPECT_EQ(rerun.answer_set(), cold.answer_set());
  ExpectSameStats(rerun.stats, cold.stats);

  ServiceResponse warm = service->Query(request);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm.result_cache_hit);
  EXPECT_EQ(warm.answer_set(), cold.answer_set());
  ExpectSameStats(warm.stats, cold.stats);

  // A renamed but structurally identical query shares the cache entry; its
  // stats still carry the request's own name.
  auto renamed = std::make_shared<GraphPatternQuery>(
      *GraphPatternQuery::Create("other-name", (*query)->patterns()));
  ServiceRequest alias = request;
  alias.query = renamed;
  ServiceResponse aliased = service->Query(alias);
  ASSERT_TRUE(aliased.ok());
  EXPECT_TRUE(aliased.result_cache_hit);
  EXPECT_EQ(aliased.answer_set(), cold.answer_set());
  EXPECT_EQ(aliased.stats.query, "other-name");

  ServiceStatsSnapshot stats = service->SnapshotNow();
  EXPECT_EQ(stats.plan_cache_hits, 0u);
  EXPECT_EQ(stats.plan_cache_lookups, 0u);
  EXPECT_GT(stats.result_cache_hits, 0u);
  EXPECT_GT(stats.result_cache_entries, 0u);
  EXPECT_GT(stats.result_cache_bytes, 0u);
  EXPECT_EQ(stats.served, 4u);
  EXPECT_EQ(stats.submitted, 4u);
}

TEST(ServiceCacheTest, ReloadBumpsEpochAndInvalidates) {
  auto service = MakeService();
  ASSERT_TRUE(service->LoadDataset("d", TinyTriples()).ok());
  auto query = MakeQuery("q", "SELECT * WHERE { ?s ?p ?o . }");

  ServiceRequest request;
  request.dataset = "d";
  request.query = query;
  request.options.kind = EngineKind::kNtgaLazy;
  ServiceResponse first = service->Query(request);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.answer_set().size(), 3u);

  // Reload with one extra triple: the epoch bumps, the old cached result
  // is unreachable, and the fresh answers see the new triple.
  std::vector<Triple> more = TinyTriples();
  more.emplace_back("c", "r", "d");
  ASSERT_TRUE(service->LoadDataset("d", more).ok());
  ServiceResponse second = service->Query(request);
  ASSERT_TRUE(second.ok());
  EXPECT_GT(second.epoch, first.epoch);
  EXPECT_FALSE(second.result_cache_hit);
  EXPECT_EQ(second.answer_set().size(), 4u);

  // Dropping purges eagerly; the dataset is gone for new requests.
  ASSERT_TRUE(service->DropDataset("d").ok());
  ServiceResponse gone = service->Query(request);
  EXPECT_EQ(gone.status.code(), StatusCode::kNotFound);
}

// ---- engine=auto and explain -----------------------------------------------

TEST(ServiceAutoTest, AutoReplaysItsOwnEntry) {
  std::vector<Triple> triples = SmallDataset(DatasetFamily::kBsbm);
  auto service = MakeService();
  ASSERT_TRUE(service->LoadDataset("bsbm", triples).ok());
  auto query = GetTestbedQuery("B1");
  ASSERT_TRUE(query.ok());

  ServiceRequest request;
  request.dataset = "bsbm";
  request.query = *query;
  request.options.kind = EngineKind::kAuto;
  ServiceResponse cold = service->Query(request);
  ASSERT_TRUE(cold.ok()) << cold.status.ToString();
  ASSERT_TRUE(cold.stats.ok());
  EXPECT_FALSE(cold.result_cache_hit);
  ASSERT_FALSE(cold.stats.chosen_engine.empty());
  EXPECT_EQ(cold.stats.chosen_engine, cold.stats.engine);
  EXPECT_EQ(cold.stats.plan_candidates.size(), 6u);
  EXPECT_FALSE(cold.stats.plan_rationale.empty());

  // An auto replay hits the auto entry and replays the producing run's
  // decision verbatim.
  ServiceResponse replay = service->Query(request);
  ASSERT_TRUE(replay.ok());
  EXPECT_TRUE(replay.result_cache_hit);
  EXPECT_EQ(replay.answer_set(), cold.answer_set());
  ExpectSameStats(replay.stats, cold.stats);
  ExpectSameChoice(replay.stats, cold.stats);

  // The chosen engine requested EXPLICITLY is keyed apart from auto: a
  // miss that runs to the same answers and stats, with no chooser
  // annotations — the decision belongs to the auto request only.
  EngineKind chosen = EngineKind::kAuto;
  for (const PlanCandidate& candidate : cold.stats.plan_candidates) {
    if (candidate.chosen) chosen = candidate.kind;
  }
  ASSERT_NE(chosen, EngineKind::kAuto);
  ServiceRequest explicit_request = request;
  explicit_request.options.kind = chosen;
  ServiceResponse explicit_run = service->Query(explicit_request);
  ASSERT_TRUE(explicit_run.ok());
  EXPECT_FALSE(explicit_run.result_cache_hit);
  EXPECT_EQ(explicit_run.answer_set(), cold.answer_set());
  ExpectSameStats(explicit_run.stats, cold.stats);
  EXPECT_TRUE(explicit_run.stats.chosen_engine.empty());
  EXPECT_TRUE(explicit_run.stats.plan_candidates.empty());
  EXPECT_TRUE(explicit_run.stats.plan_rationale.empty());
}

TEST(ServiceAutoTest, ExplainScoresWithoutExecuting) {
  std::vector<Triple> triples = SmallDataset(DatasetFamily::kBsbm);
  auto service = MakeService();
  ASSERT_TRUE(service->LoadDataset("bsbm", triples).ok());
  auto query = GetTestbedQuery("B1");
  ASSERT_TRUE(query.ok());

  ServiceRequest request;
  request.dataset = "bsbm";
  request.query = *query;
  request.options.kind = EngineKind::kAuto;
  auto choice = service->Explain(request);
  ASSERT_TRUE(choice.ok()) << choice.status().ToString();
  EXPECT_EQ(choice->candidates.size(), 6u);
  EXPECT_FALSE(choice->rationale.empty());
  EXPECT_NE(choice->kind, EngineKind::kAuto);

  // Explain must not have executed or cached anything: the first real
  // query is still a cold run.
  ServiceStatsSnapshot stats = service->SnapshotNow();
  EXPECT_EQ(stats.served, 0u);
  ServiceResponse cold = service->Query(request);
  ASSERT_TRUE(cold.ok());
  EXPECT_FALSE(cold.result_cache_hit);
  EXPECT_EQ(cold.stats.chosen_engine,
            std::string(EngineKindToString(choice->kind)));

  // Explain ignores options.kind: a concrete engine gets the same table.
  ServiceRequest explicit_request = request;
  explicit_request.options.kind = EngineKind::kPig;
  auto same = service->Explain(explicit_request);
  ASSERT_TRUE(same.ok());
  EXPECT_EQ(same->kind, choice->kind);
  EXPECT_EQ(same->rationale, choice->rationale);

  auto missing = request;
  missing.dataset = "nope";
  EXPECT_EQ(service->Explain(missing).status().code(),
            StatusCode::kNotFound);
}

// ---- Admission control -----------------------------------------------------

// A dataset loader the test can hold closed, pinning the single worker
// inside an executing request while more submissions arrive.
struct Gate {
  std::mutex mu;
  std::condition_variable cv;
  bool entered = false;
  bool release = false;

  TripleLoader Loader(std::vector<Triple> triples) {
    return [this, triples]() -> Result<std::vector<Triple>> {
      std::unique_lock<std::mutex> lock(mu);
      entered = true;
      cv.notify_all();
      cv.wait(lock, [this] { return release; });
      return triples;
    };
  }
  void WaitEntered() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [this] { return entered; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
    cv.notify_all();
  }
};

TEST(ServiceAdmissionTest, RejectsCancelsAndExpires) {
  // Gates outlive the service: its destructor drains queued requests,
  // whose loaders reference them.
  Gate gate;
  Gate gate2;
  ServiceConfig config;
  config.cluster = RoomyCluster();
  config.max_concurrent = 1;
  config.queue_bound = 1;
  QueryService service(config);

  ASSERT_TRUE(
      service.RegisterDataset("slow", gate.Loader(TinyTriples())).ok());
  auto query = MakeQuery("q", "SELECT * WHERE { ?s ?p ?o . }");
  ServiceRequest request;
  request.dataset = "slow";
  request.query = query;
  request.options.kind = EngineKind::kNtgaLazy;

  // First request occupies the only worker (blocked inside the loader).
  std::promise<ServiceResponse> blocked_promise;
  uint64_t blocked = service.Submit(request, [&](ServiceResponse r) {
    blocked_promise.set_value(std::move(r));
  });
  EXPECT_NE(blocked, 0u);
  gate.WaitEntered();

  // Second request fills the queue (bound 1).
  std::promise<ServiceResponse> queued_promise;
  uint64_t queued = service.Submit(request, [&](ServiceResponse r) {
    queued_promise.set_value(std::move(r));
  });
  EXPECT_NE(queued, 0u);

  // Third request exceeds the bound: rejected inline, ticket 0.
  std::promise<ServiceResponse> rejected_promise;
  uint64_t rejected = service.Submit(request, [&](ServiceResponse r) {
    rejected_promise.set_value(std::move(r));
  });
  EXPECT_EQ(rejected, 0u);
  ServiceResponse rejection = rejected_promise.get_future().get();
  EXPECT_EQ(rejection.status.code(), StatusCode::kUnavailable);

  // Cancel the queued request; its callback reports kCancelled.
  EXPECT_TRUE(service.Cancel(queued));
  EXPECT_FALSE(service.Cancel(queued));

  gate.Release();
  ServiceResponse first = blocked_promise.get_future().get();
  EXPECT_TRUE(first.ok()) << first.status.ToString();
  EXPECT_EQ(first.answer_set().size(), 3u);
  ServiceResponse cancelled = queued_promise.get_future().get();
  EXPECT_EQ(cancelled.status.code(), StatusCode::kCancelled);
  // The executing request was past the point of cancellation.
  EXPECT_FALSE(service.Cancel(blocked));

  // Deadline expiry: pin the worker again via a second gated dataset, and
  // let a 1ms-deadline request expire while it waits in the queue.
  ASSERT_TRUE(
      service.RegisterDataset("slow2", gate2.Loader(TinyTriples())).ok());
  ServiceRequest pin = request;
  pin.dataset = "slow2";
  std::promise<ServiceResponse> pin_promise;
  ASSERT_NE(service.Submit(pin,
                           [&](ServiceResponse r) {
                             pin_promise.set_value(std::move(r));
                           }),
            0u);
  gate2.WaitEntered();

  ServiceRequest hurried = request;  // "slow" is already loaded by now
  hurried.deadline_ms = 1;
  std::promise<ServiceResponse> late_promise;
  ASSERT_NE(service.Submit(hurried,
                           [&](ServiceResponse r) {
                             late_promise.set_value(std::move(r));
                           }),
            0u);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  gate2.Release();
  ServiceResponse pinned = pin_promise.get_future().get();
  EXPECT_TRUE(pinned.ok()) << pinned.status.ToString();
  ServiceResponse late = late_promise.get_future().get();
  EXPECT_EQ(late.status.code(), StatusCode::kDeadlineExceeded);

  ServiceStatsSnapshot stats = service.SnapshotNow();
  EXPECT_GE(stats.rejected, 1u);
  EXPECT_GE(stats.cancelled, 1u);
  EXPECT_GE(stats.deadline_expired, 1u);
  EXPECT_GE(stats.served, 2u);
  EXPECT_EQ(stats.submitted, 5u);
}

// ---- Request validation ----------------------------------------------------

// A malformed payload is rejected with exactly the Status Exec's own
// check returns (code and message), before the dataset is acquired: a
// lazily registered dataset stays unloaded. A request cannot carry both a
// single query and a batch: its payload names one shape.
TEST(ServiceValidationTest, RejectsMalformedRequests) {
  auto service = MakeService();
  std::atomic<int> loads{0};
  auto loader = [&loads]() -> Result<std::vector<Triple>> {
    ++loads;
    return TinyTriples();
  };
  ASSERT_TRUE(service->RegisterDataset("d", loader).ok());
  auto query = MakeQuery("q", "SELECT * WHERE { ?s ?p ?o . }");
  AggregateSpec spec;
  spec.group_vars = {"s"};
  spec.counted_var = "p";

  std::vector<ServiceRequest> malformed;
  malformed.emplace_back();  // single payload without a query
  for (ExecPayload payload : {ExecPayload::kBatch, ExecPayload::kUnion}) {
    ServiceRequest empty;  // batch/union payload without a member
    empty.payload = payload;
    malformed.push_back(empty);
    ServiceRequest aggregated = empty;  // aggregate on a batch/union
    aggregated.queries = {query};
    aggregated.aggregate = spec;
    malformed.push_back(aggregated);
    ServiceRequest null_member = empty;  // a member without a query
    null_member.queries = {query, nullptr};
    malformed.push_back(null_member);
  }
  ServiceRequest no_phi;  // φ_m needs at least one partition
  no_phi.query = query;
  no_phi.options.phi_partitions = 0;
  malformed.push_back(no_phi);

  for (ServiceRequest& request : malformed) {
    request.dataset = "d";
    const Status expected = CheckExecRequest(request, request.options);
    ASSERT_FALSE(expected.ok());
    const Status served = service->Query(request).status;
    EXPECT_EQ(served.code(), expected.code());
    EXPECT_EQ(served.message(), expected.message());
    const Status explained = service->Explain(request).status();
    EXPECT_EQ(explained.code(), expected.code());
    EXPECT_EQ(explained.message(), expected.message());
  }
  EXPECT_EQ(loads.load(), 0);
  const std::vector<DatasetInfo> datasets = service->ListDatasets();
  ASSERT_EQ(datasets.size(), 1u);
  EXPECT_FALSE(datasets[0].loaded);

  ServiceRequest unknown;
  unknown.dataset = "nope";
  unknown.query = query;
  EXPECT_EQ(service->Query(unknown).status.code(), StatusCode::kNotFound);
}

// ---- Stats JSON ------------------------------------------------------------

TEST(ServiceStatsTest, SnapshotJsonParses) {
  auto service = MakeService();
  ASSERT_TRUE(service->LoadDataset("d", TinyTriples()).ok());
  ServiceRequest request;
  request.dataset = "d";
  request.query = MakeQuery("q", "SELECT * WHERE { ?s ?p ?o . }");
  request.options.kind = EngineKind::kNtgaLazy;
  ASSERT_TRUE(service->Query(request).ok());
  ASSERT_TRUE(service->Query(request).ok());

  ServiceStatsSnapshot snapshot = service->SnapshotNow();
  auto json = ParseJson(snapshot.ToJson());
  ASSERT_TRUE(json.ok()) << json.status().ToString();
  EXPECT_EQ(json->GetUint("submitted"), 2u);
  EXPECT_EQ(json->GetUint("served"), 2u);
  EXPECT_EQ(json->GetUint("datasets"), 1u);
  EXPECT_EQ(json->Get("result_cache").GetUint("hits"), 1u);
  EXPECT_EQ(json->Get("result_cache").GetUint("misses"), 1u);
  EXPECT_EQ(json->Get("result_cache").GetUint("lookups"), 2u);
  EXPECT_FALSE(json->Has("plan_cache"));
  EXPECT_GE(json->GetUint("cache_shards"), 8u);
  EXPECT_EQ(json->Get("exec_micros").GetUint("count"), 2u);
  EXPECT_TRUE(json->Has("queue_wait_micros"));
  EXPECT_TRUE(json->Has("queue_depth"));
}

// ---- Protocol dispatch (no socket) -----------------------------------------

TEST(ProtocolTest, MalformedLinesYieldErrorResponses) {
  auto service = MakeService();

  HandleResult bad_json = HandleRequestLine(service.get(), "not json");
  EXPECT_FALSE(bad_json.response.GetBool("ok"));
  EXPECT_FALSE(bad_json.shutdown);

  HandleResult bad_verb =
      HandleRequestLine(service.get(), R"({"verb":"frobnicate"})");
  EXPECT_FALSE(bad_verb.response.GetBool("ok"));
  EXPECT_EQ(bad_verb.response.GetString("code"), "InvalidArgument");

  HandleResult ping = HandleRequestLine(service.get(),
                                        R"({"verb":"ping","id":"7"})");
  EXPECT_TRUE(ping.response.GetBool("ok"));
  EXPECT_EQ(ping.response.GetString("id"), "7");

  HandleResult shutdown =
      HandleRequestLine(service.get(), R"({"verb":"shutdown"})");
  EXPECT_TRUE(shutdown.response.GetBool("ok"));
  EXPECT_TRUE(shutdown.shutdown);
}

// Wire input that used to slip through: a zero or 2^32 "phi" (0 aborted
// the process in the partial β-unnest; 2^32 was truncated to 0) and a
// load row with a non-string term (which loaded an empty-string triple).
TEST(ProtocolTest, RejectsOutOfRangePhiAndNonStringTerms) {
  auto service = MakeService();
  ASSERT_TRUE(service->LoadDataset("d", TinyTriples()).ok());
  for (const char* phi : {"0", "4294967296", "-1", "1.5", "\"16\""}) {
    HandleResult query = HandleRequestLine(
        service.get(),
        std::string(R"({"verb":"query","dataset":"d","engine":"lazypartial",)"
                    R"("sparql":"SELECT * WHERE { ?s ?p ?o . }","phi":)") +
            phi + "}");
    EXPECT_FALSE(query.response.GetBool("ok")) << phi;
    EXPECT_EQ(query.response.GetString("code"), "InvalidArgument") << phi;
  }
  HandleResult in_range = HandleRequestLine(
      service.get(),
      R"({"verb":"query","dataset":"d","engine":"lazypartial",)"
      R"("sparql":"SELECT * WHERE { ?s ?p ?o . }","phi":4294967295})");
  EXPECT_TRUE(in_range.response.GetBool("ok")) << in_range.response.Dump();

  for (const char* rows : {"[[1,2,3]]", R"([["a","b",{}]])",
                           R"([["a",null,"c"]])"}) {
    HandleResult load = HandleRequestLine(
        service.get(),
        std::string(R"({"verb":"load","dataset":"e","triples":)") + rows +
            "}");
    EXPECT_FALSE(load.response.GetBool("ok")) << rows;
    EXPECT_EQ(load.response.GetString("code"), "InvalidArgument") << rows;
  }
  EXPECT_EQ(service->ListDatasets().size(), 1u);
}

// RDF has no empty subject or property, and the relational record grammar
// reads an all-empty column as an unmatched OPTIONAL: the load verb
// refuses a triple with either, naming its row, and registers nothing.
TEST(ProtocolTest, RejectsEmptySubjectOrProperty) {
  auto service = MakeService();
  const std::pair<const char*, const char*> cases[] = {
      {R"([["","",""],["a","p","b"]])", "load: triple 1: empty subject"},
      {R"([["a","p","b"],["a","","b"]])", "load: triple 2: empty property"},
  };
  for (const auto& [rows, error] : cases) {
    HandleResult load = HandleRequestLine(
        service.get(),
        std::string(R"({"verb":"load","dataset":"e","triples":)") + rows +
            "}");
    EXPECT_FALSE(load.response.GetBool("ok")) << rows;
    EXPECT_EQ(load.response.GetString("code"), "InvalidArgument") << rows;
    EXPECT_EQ(load.response.GetString("error"), error) << rows;
  }
  EXPECT_TRUE(service->ListDatasets().empty());
  HandleResult empty_object = HandleRequestLine(
      service.get(),
      R"({"verb":"load","dataset":"e","triples":[["a","p",""]]})");
  EXPECT_TRUE(empty_object.response.GetBool("ok"))
      << empty_object.response.Dump();
}

// A dataset file holding a triple with an empty subject or property is
// refused, naming the triple's position: a record line of three empty
// fields, or an .nt IRI that compacts to "".
TEST(DatasetFileTest, RejectsEmptySubjectOrProperty) {
  const std::string prefix = kIriPrefix;
  const std::pair<std::string, std::string> cases[] = {
      {"records.tsv", "a\tp\tb\n\n\t\t\n"},
      {"records_p.tsv", "a\t\tb\n"},
      {"iri.nt", "<" + prefix + "a> <" + prefix + "p> <" + prefix + "b> .\n<" +
                     prefix + "> <" + prefix + "p> <" + prefix + "b> .\n"},
  };
  const char* const errors[] = {": triple 2: empty subject",
                                ": triple 1: empty property",
                                ": triple 2: empty subject"};
  for (size_t i = 0; i < std::size(cases); ++i) {
    const std::string path =
        ::testing::TempDir() + "rdfmr_service_" + cases[i].first;
    {
      std::ofstream out(path);
      out << cases[i].second;
    }
    Result<std::vector<Triple>> read = ReadDatasetFile(path);
    ASSERT_FALSE(read.ok()) << path;
    EXPECT_TRUE(read.status().IsInvalidArgument()) << read.status().ToString();
    EXPECT_EQ(read.status().message(), path + errors[i]);
  }
}

// "threads" is an integer in [0, kMaxRequestThreads]. The service has no
// dataset, so a value that slipped past the check would fail NotFound
// instead, before any worker thread starts.
TEST(ProtocolTest, RejectsOutOfRangeThreads) {
  auto service = MakeService();
  auto query = [&service](const std::string& threads) {
    return HandleRequestLine(
               service.get(),
               R"({"verb":"query","dataset":"none","engine":"lazy",)"
               R"("sparql":"SELECT * WHERE { ?s ?p ?o . }","threads":)" +
                   threads + "}")
        .response.GetString("code");
  };
  for (const char* threads :
       {"100000", "4294967297", "1.5", "-1", "1e30", "\"4\"", "257"}) {
    EXPECT_EQ(query(threads), "InvalidArgument") << threads;
  }
  for (const char* threads : {"0", "4", "256"}) {
    EXPECT_EQ(query(threads), "NotFound") << threads;
  }
}

// Wire v1 keeps its plan-cache members: "no_plan_cache" is accepted and
// ignored, and "plan_cache_hit" is always false.
TEST(ProtocolTest, PlanCacheMembersStayWireCompatible) {
  auto service = MakeService();
  ASSERT_TRUE(service->LoadDataset("d", TinyTriples()).ok());
  for (int round = 0; round < 2; ++round) {
    HandleResult query = HandleRequestLine(
        service.get(),
        R"({"verb":"query","dataset":"d","engine":"lazy",)"
        R"("sparql":"SELECT * WHERE { ?s ?p ?o . }",)"
        R"("no_plan_cache":true,"no_result_cache":true})");
    ASSERT_TRUE(query.response.GetBool("ok")) << query.response.Dump();
    ASSERT_TRUE(query.response.Has("plan_cache_hit"));
    EXPECT_FALSE(query.response.GetBool("plan_cache_hit"));
  }
}

TEST(ProtocolTest, ExplainVerbReturnsScoredCandidates) {
  auto service = MakeService();
  ASSERT_TRUE(
      service->LoadDataset("bsbm", SmallDataset(DatasetFamily::kBsbm))
          .ok());

  HandleResult explain = HandleRequestLine(
      service.get(),
      R"({"verb":"explain","dataset":"bsbm","query_id":"B1"})");
  ASSERT_TRUE(explain.response.GetBool("ok"))
      << explain.response.Dump();
  EXPECT_FALSE(explain.response.GetString("chosen").empty());
  EXPECT_FALSE(explain.response.GetString("rationale").empty());
  const JsonValue& candidates = explain.response.Get("candidates");
  ASSERT_TRUE(candidates.is_array());
  EXPECT_EQ(candidates.AsArray().size(), 6u);
  size_t chosen = 0;
  for (const JsonValue& candidate : candidates.AsArray()) {
    EXPECT_FALSE(candidate.GetString("engine").empty());
    EXPECT_TRUE(candidate.GetBool("feasible"));
    if (candidate.GetBool("chosen")) ++chosen;
  }
  EXPECT_EQ(chosen, 1u);

  // engine=auto on the query verb: the response carries the decision and
  // the stats name the concrete engine that actually ran.
  HandleResult run = HandleRequestLine(
      service.get(),
      R"({"verb":"query","dataset":"bsbm","query_id":"B1",)"
      R"("engine":"auto"})");
  ASSERT_TRUE(run.response.GetBool("ok")) << run.response.Dump();
  const JsonValue& stats = run.response.Get("stats");
  EXPECT_EQ(stats.GetString("chosen_engine"),
            explain.response.GetString("chosen"));
  EXPECT_EQ(stats.GetString("engine"), stats.GetString("chosen_engine"));
  ASSERT_TRUE(stats.Get("plan_candidates").is_array());
  EXPECT_EQ(stats.Get("plan_candidates").AsArray().size(), 6u);

  HandleResult missing = HandleRequestLine(
      service.get(),
      R"({"verb":"explain","dataset":"nope","query_id":"B1"})");
  EXPECT_FALSE(missing.response.GetBool("ok"));
  EXPECT_EQ(missing.response.GetString("code"), "NotFound");
}

// The served answers array is wire output: its order and bytes were
// recorded from the map-based Solution and must not move with the
// in-memory representation of answers.
TEST(ProtocolTest, ServedAnswersOrderAndBytesArePinned) {
  auto service = MakeService();
  ASSERT_TRUE(
      service->LoadDataset("bsbm", SmallDataset(DatasetFamily::kBsbm))
          .ok());
  HandleResult run = HandleRequestLine(
      service.get(),
      R"({"verb":"query","dataset":"bsbm","query_id":"B1",)"
      R"("engine":"lazy","terse":true})");
  ASSERT_TRUE(run.response.GetBool("ok")) << run.response.Dump();
  EXPECT_EQ(run.response.GetUint("num_answers", 0), 423u);
  const std::string answers = run.response.Get("answers").Dump();
  const std::string head =
      R"(["fl=feature label 0;ft=ftype0;l=product 12 standard edition;)"
      R"(p=product12;t=ptype1;up=prodFeature;x=feature0",)"
      R"("fl=feature label 0;ft=ftype0;l=product 16 standard edition;)"
      R"(p=product16;t=ptype5;up=prodFeature;x=feature0",)";
  EXPECT_EQ(answers.substr(0, head.size()), head);
  EXPECT_EQ(Fnv1a64(answers), 0x8fbcb455fbac1603ULL);
}

}  // namespace
}  // namespace service
}  // namespace rdfmr

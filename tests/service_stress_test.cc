// Concurrency stress for the query service's lock-free stats and sharded
// caches. These tests are deliberately thread-dense (up to 16 client
// threads hammering the warm result cache) and carry the service_stress
// ctest label: tools/check.sh runs them under ThreadSanitizer even in
// --quick mode, so a data race on the warm hot path — the path the
// sharding/atomics redesign made lock-free — fails CI, not production.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "query/sparql_parser.h"
#include "service/query_service.h"
#include "tests/test_util.h"

namespace rdfmr {
namespace service {
namespace {

using testing_util::RoomyCluster;

std::shared_ptr<const GraphPatternQuery> MakeQuery(
    const std::string& name, const std::string& text) {
  auto parsed = ParseSparql(name, text);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return std::make_shared<GraphPatternQuery>(parsed.MoveValueUnsafe());
}

/// A dataset with one triple per distinct property p0..p(n-1), so each
/// single-property query has its own answers and its own cache key
/// (keys spread across cache shards by hash).
std::vector<Triple> FanoutTriples(int properties) {
  std::vector<Triple> triples;
  for (int i = 0; i < properties; ++i) {
    const std::string p = "p" + std::to_string(i);
    triples.push_back({"s" + std::to_string(i), p, "o" + std::to_string(i)});
    triples.push_back({"t" + std::to_string(i), p, "u" + std::to_string(i)});
  }
  return triples;
}

ServiceConfig StressConfig(uint32_t workers) {
  ServiceConfig config;
  config.cluster = RoomyCluster();
  config.max_concurrent = workers;
  // Plenty of queue so no stress request is ever rejected: the tests
  // below account for every submission.
  config.queue_bound = 4096;
  return config;
}

// Satellite: ServiceStatsSnapshot consistency. Eight threads hammer
// warm-result queries while the main thread snapshots concurrently; every
// snapshot must be internally consistent (result-cache hits + misses ==
// lookups) and monotone field-by-field against the previous one.
// Before the atomics split this was impossible to guarantee: SnapshotNow()
// copied the struct under the same mutex the hot path mutated it under,
// but histogram counts and counters could still diverge via the
// service's multi-step updates.
TEST(ServiceStressTest, SnapshotsStayConsistentWhileHammered) {
  auto service = std::make_unique<QueryService>(StressConfig(8));
  ASSERT_TRUE(service->LoadDataset("d", FanoutTriples(4)).ok());
  auto query = MakeQuery("q", "SELECT * WHERE { ?s <p0> ?o . }");

  ServiceRequest request;
  request.dataset = "d";
  request.query = query;
  request.options.kind = EngineKind::kNtgaLazy;
  // Prime the result cache so the hammer below is all warm hits.
  ASSERT_TRUE(service->Query(request).ok());

  constexpr int kThreads = 8;
  constexpr int kPerThread = 150;
  std::atomic<bool> done{false};
  std::atomic<uint64_t> ok_count{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&service, &request, &ok_count] {
      for (int i = 0; i < kPerThread; ++i) {
        ServiceResponse response = service->Query(request);
        if (response.ok() && response.result_cache_hit) {
          ok_count.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  ServiceStatsSnapshot prev = service->SnapshotNow();
  uint64_t snapshots = 0;
  while (!done.load(std::memory_order_relaxed)) {
    ServiceStatsSnapshot now = service->SnapshotNow();
    ++snapshots;
    // Internal consistency: the derived lookup totals can never tear.
    EXPECT_EQ(now.result_cache_hits + now.result_cache_misses,
              now.result_cache_lookups);
    // Monotonicity: every counter only grows between snapshots.
    EXPECT_GE(now.submitted, prev.submitted);
    EXPECT_GE(now.served, prev.served);
    EXPECT_GE(now.failed, prev.failed);
    EXPECT_GE(now.rejected, prev.rejected);
    EXPECT_GE(now.cancelled, prev.cancelled);
    EXPECT_GE(now.deadline_expired, prev.deadline_expired);
    EXPECT_GE(now.result_cache_hits, prev.result_cache_hits);
    EXPECT_GE(now.result_cache_misses, prev.result_cache_misses);
    EXPECT_GE(now.exec_micros.count(), prev.exec_micros.count());
    EXPECT_GE(now.queue_wait_micros.count(), prev.queue_wait_micros.count());
    // Progress accounting never exceeds admissions.
    EXPECT_LE(now.served + now.failed + now.rejected + now.cancelled +
                  now.deadline_expired,
              now.submitted);
    prev = now;
    if (prev.served >= 1 + kThreads * kPerThread) {
      done.store(true, std::memory_order_relaxed);
    }
  }
  for (auto& client : clients) client.join();
  EXPECT_GT(snapshots, 0u);

  ServiceStatsSnapshot final_stats = service->SnapshotNow();
  EXPECT_EQ(ok_count.load(), uint64_t{kThreads * kPerThread});
  EXPECT_EQ(final_stats.submitted, uint64_t{1 + kThreads * kPerThread});
  EXPECT_EQ(final_stats.served, uint64_t{1 + kThreads * kPerThread});
  EXPECT_EQ(final_stats.result_cache_hits, uint64_t{kThreads * kPerThread});
  EXPECT_EQ(final_stats.result_cache_misses, 1u);
  EXPECT_EQ(final_stats.failed, 0u);
  EXPECT_EQ(final_stats.queued, 0u);
  EXPECT_EQ(final_stats.running, 0u);
}

// Tentpole proof at the unit level: 16 client threads on a 16-worker
// service, all warm result-cache hits over keys spread across shards.
// Under TSan this pins the claim that the warm path is data-race free
// with no service-wide lock; the answers must also stay byte-identical
// to the priming run's.
TEST(ServiceStressTest, SixteenWarmClientsNoRacesIdenticalAnswers) {
  constexpr int kQueries = 8;
  auto service = std::make_unique<QueryService>(StressConfig(16));
  ASSERT_TRUE(service->LoadDataset("d", FanoutTriples(kQueries)).ok());

  std::vector<std::shared_ptr<const GraphPatternQuery>> queries;
  std::vector<SolutionSet> expected;
  for (int i = 0; i < kQueries; ++i) {
    auto query = MakeQuery(
        "q" + std::to_string(i),
        "SELECT * WHERE { ?s <p" + std::to_string(i) + "> ?o . }");
    queries.push_back(query);
    ServiceRequest prime;
    prime.dataset = "d";
    prime.query = query;
    prime.options.kind = EngineKind::kNtgaLazy;
    ServiceResponse primed = service->Query(prime);
    ASSERT_TRUE(primed.ok()) << primed.status.ToString();
    EXPECT_EQ(primed.answer_set().size(), 2u);
    expected.push_back(primed.answer_set());
  }

  constexpr int kThreads = 16;
  constexpr int kPerThread = 100;
  std::atomic<uint64_t> mismatches{0};
  std::atomic<uint64_t> misses{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const int qi = (t + i) % kQueries;
        ServiceRequest request;
        request.dataset = "d";
        request.query = queries[qi];
        request.options.kind = EngineKind::kNtgaLazy;
        ServiceResponse response = service->Query(request);
        if (!response.ok() || !response.result_cache_hit) {
          misses.fetch_add(1, std::memory_order_relaxed);
        }
        if (response.answer_set() != expected[qi]) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& client : clients) client.join();

  EXPECT_EQ(misses.load(), 0u);
  EXPECT_EQ(mismatches.load(), 0u);
  ServiceStatsSnapshot stats = service->SnapshotNow();
  EXPECT_EQ(stats.result_cache_hits, uint64_t{kThreads * kPerThread});
  EXPECT_EQ(stats.served, uint64_t{kQueries + kThreads * kPerThread});
  EXPECT_GE(stats.cache_shards, 16u);
}

// Warm hits must SHARE the cached answer snapshot, not deep-copy it into
// each response: 16 warm clients all receive a pointer to the SAME
// immutable SolutionSet (one O(1) refcount bump per hit), and each
// response serializes to byte-identical text. Before the shared_ptr
// snapshot, every warm hit copied the full answer set — O(answers) per
// client under the cache shard's lock.
TEST(ServiceStressTest, SixteenWarmClientsShareOneAnswerSnapshot) {
  auto service = std::make_unique<QueryService>(StressConfig(16));
  ASSERT_TRUE(service->LoadDataset("d", FanoutTriples(4)).ok());
  auto query = MakeQuery("q0", "SELECT * WHERE { ?s <p0> ?o . }");

  ServiceRequest request;
  request.dataset = "d";
  request.query = query;
  request.options.kind = EngineKind::kNtgaLazy;
  ServiceResponse primed = service->Query(request);
  ASSERT_TRUE(primed.ok()) << primed.status.ToString();
  ASSERT_NE(primed.answers, nullptr);
  ASSERT_EQ(primed.answer_set().size(), 2u);

  auto serialize = [](const SolutionSet& answers) {
    std::string out;
    for (const Solution& solution : answers) {
      out += solution.Serialize();
      out += '\n';
    }
    return out;
  };
  const std::string expected_bytes = serialize(primed.answer_set());

  constexpr int kThreads = 16;
  std::vector<std::shared_ptr<const SolutionSet>> seen(kThreads);
  std::vector<std::string> seen_bytes(kThreads);
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      ServiceResponse response = service->Query(request);
      if (response.ok() && response.result_cache_hit) {
        seen[t] = response.answers;
        seen_bytes[t] = serialize(response.answer_set());
      }
    });
  }
  for (auto& client : clients) client.join();

  for (int t = 0; t < kThreads; ++t) {
    ASSERT_NE(seen[t], nullptr) << "client " << t << " missed the cache";
    // Pointer equality IS the zero-copy claim: all 16 responses alias
    // the one cached set the priming run produced.
    EXPECT_EQ(seen[t].get(), primed.answers.get())
        << "client " << t << " received a deep copy";
    EXPECT_EQ(seen_bytes[t], expected_bytes) << "client " << t;
  }
}

// Epoch-bump invalidation must reach every shard: populate the result cache
// with keys that cover many shards, reload (epoch bump) and drop, and
// require the entry gauges to fall to zero each time — a shard skipped by
// the prefix purge would leave residents behind.
TEST(ServiceStressTest, ReloadAndDropPurgeEveryShard) {
  constexpr int kQueries = 24;
  auto service = std::make_unique<QueryService>(StressConfig(4));
  ASSERT_TRUE(service->LoadDataset("d", FanoutTriples(kQueries)).ok());

  auto populate = [&] {
    for (int i = 0; i < kQueries; ++i) {
      ServiceRequest request;
      request.dataset = "d";
      request.query = MakeQuery(
          "q" + std::to_string(i),
          "SELECT * WHERE { ?s <p" + std::to_string(i) + "> ?o . }");
      request.options.kind = EngineKind::kNtgaLazy;
      ASSERT_TRUE(service->Query(request).ok());
    }
  };
  populate();
  ServiceStatsSnapshot warm = service->SnapshotNow();
  EXPECT_EQ(warm.result_cache_entries, uint64_t{kQueries});
  EXPECT_GT(warm.result_cache_bytes, 0u);

  // Reload: epoch bumps, and the eager prefix purge must empty every
  // shard of the result cache.
  ASSERT_TRUE(service->LoadDataset("d", FanoutTriples(kQueries)).ok());
  ServiceStatsSnapshot reloaded = service->SnapshotNow();
  EXPECT_EQ(reloaded.result_cache_entries, 0u);
  EXPECT_EQ(reloaded.result_cache_bytes, 0u);

  // Re-populate under the new epoch, then drop: same full purge.
  populate();
  EXPECT_EQ(service->SnapshotNow().result_cache_entries, uint64_t{kQueries});
  ASSERT_TRUE(service->DropDataset("d").ok());
  ServiceStatsSnapshot dropped = service->SnapshotNow();
  EXPECT_EQ(dropped.result_cache_entries, 0u);
  EXPECT_EQ(dropped.result_cache_bytes, 0u);
}

}  // namespace
}  // namespace service
}  // namespace rdfmr

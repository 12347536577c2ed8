// Concurrency regression test (run under TSan by tools/check.sh): two
// threads querying one loaded dataset through the QueryService — sharing a
// single SimDfs base — must race-freely produce the same answers as a
// direct single-threaded Exec.

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "service/query_service.h"
#include "tests/test_util.h"

namespace rdfmr {
namespace {

using testing_util::RoomyCluster;
using testing_util::SmallDataset;

TEST(ConcurrentReadTest, TwoThreadsQueryOneLoadedDataset) {
  const std::vector<Triple> triples = SmallDataset(DatasetFamily::kBsbm);

  EngineOptions options;
  options.kind = EngineKind::kNtgaLazy;
  std::vector<std::shared_ptr<const GraphPatternQuery>> queries;
  std::vector<SolutionSet> expected;
  {
    auto dfs = testing_util::MakeDfsWithBase(triples);
    ASSERT_NE(dfs, nullptr);
    for (const char* id : {"B0", "B1"}) {
      auto query = GetTestbedQuery(id);
      ASSERT_TRUE(query.ok());
      auto direct =
          Exec(dfs.get(), "base", ExecRequest::Single(*query), options);
      ASSERT_TRUE(direct.ok());
      queries.push_back(*query);
      expected.push_back(direct->answers);
    }
  }

  service::ServiceConfig config;
  config.cluster = RoomyCluster();
  config.max_concurrent = 2;
  service::QueryService query_service(config);
  ASSERT_TRUE(query_service.LoadDataset("bsbm", triples).ok());

  // Both threads read the one shared base concurrently; bypassing the
  // result cache forces a real engine execution per iteration.
  constexpr int kIters = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t]() {
      for (int i = 0; i < kIters; ++i) {
        service::ServiceRequest request;
        request.dataset = "bsbm";
        request.query = queries[t];
        request.options = options;
        request.use_result_cache = false;
        service::ServiceResponse response = query_service.Query(request);
        ASSERT_TRUE(response.ok()) << response.status.ToString();
        ASSERT_TRUE(response.stats.ok());
        EXPECT_EQ(response.answer_set(), expected[t])
            << "thread " << t << " iteration " << i;
      }
    });
  }
  for (auto& thread : threads) thread.join();

  service::ServiceStatsSnapshot stats = query_service.SnapshotNow();
  EXPECT_EQ(stats.served, static_cast<uint64_t>(2 * kIters));
  EXPECT_EQ(stats.failed, 0u);
}

}  // namespace
}  // namespace rdfmr

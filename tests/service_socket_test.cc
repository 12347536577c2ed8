// End-to-end socket tests for `rdfmr serve`'s transport: many concurrent
// NDJSON clients against one loaded dataset must observe byte-identical
// answers to direct Exec calls, with result-cache hits
// visible in the stats verb, and admission rejections surfacing as
// Unavailable responses when the queue bound is exceeded.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "common/strings.h"
#include "service/client.h"
#include "service/query_service.h"
#include "service/server.h"
#include "tests/test_util.h"

namespace rdfmr {
namespace service {
namespace {

using testing_util::MakeDfsWithBase;
using testing_util::RoomyCluster;
using testing_util::SmallDataset;

std::string TestSocketPath(const char* tag) {
  return StringFormat("/tmp/rdfmr-%s-%d.sock", tag,
                      static_cast<int>(::getpid()));
}

std::vector<std::string> AnswerLines(const SolutionSet& answers) {
  std::vector<std::string> lines;
  lines.reserve(answers.size());
  for (const Solution& solution : answers) {
    lines.push_back(solution.Serialize());
  }
  return lines;
}

std::vector<std::string> AnswerLines(const JsonValue& array) {
  std::vector<std::string> lines;
  if (!array.is_array()) return lines;
  lines.reserve(array.AsArray().size());
  for (const JsonValue& line : array.AsArray()) {
    lines.push_back(line.AsString());
  }
  return lines;
}

TEST(ServiceSocketTest, EightConcurrentClientsMatchDirectRuns) {
  const std::vector<Triple> triples = SmallDataset(DatasetFamily::kBsbm);
  const std::vector<std::string> query_ids = {"B0", "B1", "B4"};

  // Ground truth: direct Exec per catalog query on a private DFS.
  EngineOptions options;
  options.kind = EngineKind::kNtgaLazy;
  std::map<std::string, std::vector<std::string>> expected;
  {
    auto dfs = MakeDfsWithBase(triples);
    ASSERT_NE(dfs, nullptr);
    for (const std::string& id : query_ids) {
      auto query = GetTestbedQuery(id);
      ASSERT_TRUE(query.ok());
      auto direct =
          Exec(dfs.get(), "base", ExecRequest::Single(*query), options);
      ASSERT_TRUE(direct.ok()) << direct.status().ToString();
      ASSERT_TRUE(direct->stats.ok());
      expected[id] = AnswerLines(direct->answers);
      ASSERT_FALSE(expected[id].empty()) << id;
    }
  }

  ServiceConfig config;
  config.cluster = RoomyCluster();
  config.max_concurrent = 4;
  QueryService query_service(config);
  ASSERT_TRUE(query_service.LoadDataset("bsbm", triples).ok());

  const std::string socket_path = TestSocketPath("socket-test");
  ServiceServer server(&query_service, socket_path);
  ASSERT_TRUE(server.Start().ok());

  constexpr int kClients = 8;
  constexpr int kRounds = 3;
  std::vector<std::vector<std::string>> errors(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c]() {
      auto fail = [&](const std::string& what) {
        errors[c].push_back(what);
      };
      auto client = ServiceClient::Connect(socket_path);
      if (!client.ok()) {
        fail("connect: " + client.status().ToString());
        return;
      }
      for (int round = 0; round < kRounds; ++round) {
        for (const std::string& id : query_ids) {
          JsonValue request = JsonValue::MakeObject();
          request.Set("verb", "query");
          request.Set("dataset", "bsbm");
          request.Set("query_id", id);
          request.Set("engine", "lazy");
          // The middle round bypasses the result cache, so every one of
          // its requests executes afresh.
          if (round == 1) request.Set("no_result_cache", true);
          auto response = client->Call(request);
          if (!response.ok()) {
            fail(id + ": " + response.status().ToString());
            continue;
          }
          if (!response->GetBool("ok") ||
              !response->Get("stats").GetBool("ok")) {
            fail(id + ": served run failed: " + response->Dump());
            continue;
          }
          if (AnswerLines(response->Get("answers")) != expected[id]) {
            fail(id + ": answers diverge from direct Exec");
          }
        }
      }
    });
  }
  for (auto& thread : clients) thread.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_TRUE(errors[c].empty())
        << "client " << c << ": " << errors[c].front();
  }

  // Counters: 8 clients x 3 rounds x 3 queries all served; with only 3
  // distinct (query, options) keys the result cache must have hit
  // repeatedly.
  auto stats_client = ServiceClient::Connect(socket_path);
  ASSERT_TRUE(stats_client.ok());
  JsonValue stats_request = JsonValue::MakeObject();
  stats_request.Set("verb", "stats");
  auto stats_response = stats_client->Call(stats_request);
  ASSERT_TRUE(stats_response.ok());
  ASSERT_TRUE(stats_response->GetBool("ok"));
  const JsonValue& stats = stats_response->Get("stats");
  EXPECT_EQ(stats.GetUint("served"),
            static_cast<uint64_t>(kClients * kRounds * 3));
  EXPECT_EQ(stats.GetUint("failed"), 0u);
  EXPECT_EQ(stats.GetUint("rejected"), 0u);
  EXPECT_GT(stats.Get("result_cache").GetUint("hits"), 0u);
  EXPECT_EQ(stats.Get("result_cache").GetUint("entries"), 3u);
  EXPECT_FALSE(stats.Has("plan_cache"));

  JsonValue shutdown = JsonValue::MakeObject();
  shutdown.Set("verb", "shutdown");
  auto bye = stats_client->Call(shutdown);
  ASSERT_TRUE(bye.ok());
  EXPECT_TRUE(bye->GetBool("ok"));
  server.Wait();
  server.Stop();
  EXPECT_TRUE(server.stopped());
}

TEST(ServiceSocketTest, QueueBoundRejectionsSurfaceAsUnavailable) {
  // A loader the test holds closed, pinning the single worker inside an
  // executing request while more submissions arrive over the socket.
  std::mutex mu;
  std::condition_variable cv;
  bool entered = false;
  bool release = false;

  ServiceConfig config;
  config.cluster = RoomyCluster();
  config.max_concurrent = 1;
  config.queue_bound = 1;
  QueryService query_service(config);
  ASSERT_TRUE(query_service
                  .RegisterDataset(
                      "slow",
                      [&]() -> Result<std::vector<Triple>> {
                        std::unique_lock<std::mutex> lock(mu);
                        entered = true;
                        cv.notify_all();
                        cv.wait(lock, [&] { return release; });
                        return std::vector<Triple>{{"a", "p", "b"},
                                                   {"b", "p", "c"}};
                      })
                  .ok());

  const std::string socket_path = TestSocketPath("socket-admission");
  ServiceServer server(&query_service, socket_path);
  ASSERT_TRUE(server.Start().ok());

  JsonValue request = JsonValue::MakeObject();
  request.Set("verb", "query");
  request.Set("dataset", "slow");
  request.Set("sparql", "SELECT * WHERE { ?s ?p ?o . }");
  request.Set("engine", "lazy");

  // One client occupies the worker (blocked inside the loader).
  std::thread blocked_client([&]() {
    auto client = ServiceClient::Connect(socket_path);
    ASSERT_TRUE(client.ok());
    auto response = client->Call(request);
    ASSERT_TRUE(response.ok());
    EXPECT_TRUE(response->GetBool("ok")) << response->Dump();
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return entered; });
  }

  // Five more concurrent clients: one fits the queue, the rest must be
  // rejected with Unavailable while the worker stays pinned.
  constexpr int kExtra = 5;
  std::atomic<int> rejected{0};
  std::atomic<int> accepted{0};
  std::vector<std::thread> extra;
  extra.reserve(kExtra);
  for (int i = 0; i < kExtra; ++i) {
    extra.emplace_back([&]() {
      auto client = ServiceClient::Connect(socket_path);
      ASSERT_TRUE(client.ok());
      auto response = client->Call(request);
      ASSERT_TRUE(response.ok());
      if (response->GetBool("ok")) {
        ++accepted;
      } else {
        EXPECT_EQ(response->GetString("code"), "Unavailable")
            << response->Dump();
        ++rejected;
      }
    });
  }
  // Rejections return immediately; the accepted request drains only after
  // the gate opens.
  std::thread releaser([&]() {
    while (rejected.load() + accepted.load() < kExtra - 1) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::lock_guard<std::mutex> lock(mu);
    release = true;
    cv.notify_all();
  });
  for (auto& thread : extra) thread.join();
  releaser.join();
  blocked_client.join();

  EXPECT_GE(rejected.load(), 1);
  EXPECT_EQ(rejected.load() + accepted.load(), kExtra);

  auto stats_client = ServiceClient::Connect(socket_path);
  ASSERT_TRUE(stats_client.ok());
  JsonValue stats_request = JsonValue::MakeObject();
  stats_request.Set("verb", "stats");
  auto stats_response = stats_client->Call(stats_request);
  ASSERT_TRUE(stats_response.ok());
  EXPECT_GE(stats_response->Get("stats").GetUint("rejected"),
            static_cast<uint64_t>(rejected.load()));

  server.Stop();
}

}  // namespace
}  // namespace service
}  // namespace rdfmr

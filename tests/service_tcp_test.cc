// TCP twin of service_socket_test: the query service served over
// tcp:127.0.0.1 must give byte-identical answers to direct Exec, a
// pipelined client with 8 requests in flight on one connection must get
// every answer (correlated by id; terse requests lose exactly the
// diagnostic members), requests fan out across AF_UNIX and
// TCP simultaneously, and — since the transport is one event loop, not a
// thread per connection — the process thread count must stay flat across
// many connect/disconnect cycles.

#include <gtest/gtest.h>

#include <dirent.h>
#include <unistd.h>

#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "common/strings.h"
#include "net/address.h"
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
  return StringFormat("/tmp/rdfmr-tcp-%s-%d.sock", tag,
                      static_cast<int>(::getpid()));
}

/// Live thread count of this process, straight from /proc/self/task.
int CountThreads() {
  DIR* dir = ::opendir("/proc/self/task");
  if (dir == nullptr) return -1;
  int count = 0;
  while (dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] != '.') ++count;
  }
  ::closedir(dir);
  return count;
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

/// Ground truth per catalog query id: direct Exec on a private DFS.
std::map<std::string, std::vector<std::string>> DirectAnswers(
    const std::vector<Triple>& triples,
    const std::vector<std::string>& query_ids) {
  EngineOptions options;
  options.kind = EngineKind::kNtgaLazy;
  std::map<std::string, std::vector<std::string>> expected;
  auto dfs = MakeDfsWithBase(triples);
  EXPECT_NE(dfs, nullptr);
  for (const std::string& id : query_ids) {
    auto query = GetTestbedQuery(id);
    EXPECT_TRUE(query.ok());
    auto direct =
        Exec(dfs.get(), "base", ExecRequest::Single(*query), options);
    EXPECT_TRUE(direct.ok()) << direct.status().ToString();
    expected[id] = AnswerLines(direct->answers);
    EXPECT_FALSE(expected[id].empty()) << id;
  }
  return expected;
}

JsonValue QueryRequest(const std::string& id) {
  JsonValue request = JsonValue::MakeObject();
  request.Set("verb", "query");
  request.Set("dataset", "bsbm");
  request.Set("query_id", id);
  request.Set("engine", "lazy");
  return request;
}

TEST(ServiceTcpTest, PipelinedTcpClientsMatchDirectRuns) {
  const std::vector<Triple> triples = SmallDataset(DatasetFamily::kBsbm);
  const std::vector<std::string> query_ids = {"B0", "B1", "B4"};
  const auto expected = DirectAnswers(triples, query_ids);

  ServiceConfig config;
  config.cluster = RoomyCluster();
  config.max_concurrent = 4;
  QueryService query_service(config);
  ASSERT_TRUE(query_service.LoadDataset("bsbm", triples).ok());

  ServerOptions server_options;
  server_options.listeners.push_back(net::Address::Tcp("127.0.0.1", 0));
  ServiceServer server(&query_service, std::move(server_options));
  ASSERT_TRUE(server.Start().ok());
  ASSERT_EQ(server.bound_addresses().size(), 1u);
  const std::string target = server.bound_addresses()[0].ToString();
  ASSERT_TRUE(StartsWith(target, "tcp:127.0.0.1:"));

  // 8 requests in flight on ONE connection; CallPipelined re-matches the
  // completion-ordered responses to request order by echoed id.
  auto client = ServiceClient::Connect(target);
  ASSERT_TRUE(client.ok());
  // Odd requests go terse: same answers, diagnostic members stripped.
  std::vector<JsonValue> requests;
  for (int i = 0; i < 8; ++i) {
    JsonValue request = QueryRequest(query_ids[i % query_ids.size()]);
    if (i % 2 == 1) request.Set("terse", true);
    requests.push_back(std::move(request));
  }
  auto responses = client->CallPipelined(std::move(requests));
  ASSERT_TRUE(responses.ok()) << responses.status().ToString();
  ASSERT_EQ(responses->size(), 8u);
  for (int i = 0; i < 8; ++i) {
    const JsonValue& response = (*responses)[i];
    ASSERT_TRUE(response.GetBool("ok")) << response.Dump();
    const std::string& id = query_ids[i % query_ids.size()];
    EXPECT_EQ(AnswerLines(response.Get("answers")), expected.at(id))
        << "pipelined response " << i << " (" << id
        << ") diverges from direct Exec";
    EXPECT_EQ(response.Has("stats"), i % 2 == 0) << response.Dump();
    EXPECT_EQ(response.Has("exec_micros"), i % 2 == 0);
    EXPECT_EQ(response.Has("result_cache_hit"), i % 2 == 0);
    EXPECT_TRUE(response.Has("num_answers"));
  }

  // Serial TCP clients on fresh connections agree too.
  for (const std::string& id : query_ids) {
    auto serial = ServiceClient::Connect(target);
    ASSERT_TRUE(serial.ok());
    auto response = serial->Call(QueryRequest(id));
    ASSERT_TRUE(response.ok());
    ASSERT_TRUE(response->GetBool("ok")) << response->Dump();
    EXPECT_EQ(AnswerLines(response->Get("answers")), expected.at(id));
  }
  server.Stop();
  EXPECT_TRUE(server.stopped());
}

TEST(ServiceTcpTest, UnixAndTcpServeIdenticalAnswersSimultaneously) {
  const std::vector<Triple> triples = SmallDataset(DatasetFamily::kBsbm);
  ServiceConfig config;
  config.cluster = RoomyCluster();
  config.max_concurrent = 2;
  QueryService query_service(config);
  ASSERT_TRUE(query_service.LoadDataset("bsbm", triples).ok());

  ServerOptions server_options;
  server_options.listeners.push_back(
      net::Address::Unix(TestSocketPath("dual")));
  server_options.listeners.push_back(net::Address::Tcp("127.0.0.1", 0));
  ServiceServer server(&query_service, std::move(server_options));
  ASSERT_TRUE(server.Start().ok());
  ASSERT_EQ(server.bound_addresses().size(), 2u);
  EXPECT_EQ(server.socket_path(), TestSocketPath("dual"));

  // Answers (and counts) must be byte-identical across the transports;
  // timings and cache-hit flags legitimately differ between the calls.
  std::vector<std::vector<std::string>> answers;
  for (const net::Address& address : server.bound_addresses()) {
    auto client = ServiceClient::Connect(address.ToString());
    ASSERT_TRUE(client.ok()) << address.ToString();
    auto response = client->Call(QueryRequest("B0"));
    ASSERT_TRUE(response.ok());
    ASSERT_TRUE(response->GetBool("ok")) << response->Dump();
    EXPECT_GT(response->GetUint("num_answers"), 0u);
    answers.push_back(AnswerLines(response->Get("answers")));
  }
  ASSERT_EQ(answers.size(), 2u);
  EXPECT_EQ(answers[0], answers[1]);
  server.Stop();
}

TEST(ServiceTcpTest, ThreadCountStaysFlatAcrossConnectionChurn) {
  ServiceConfig config;
  config.cluster = RoomyCluster();
  config.max_concurrent = 2;
  QueryService query_service(config);
  ASSERT_TRUE(
      query_service.LoadDataset("bsbm", SmallDataset(DatasetFamily::kBsbm))
          .ok());

  ServerOptions server_options;
  server_options.listeners.push_back(net::Address::Tcp("127.0.0.1", 0));
  ServiceServer server(&query_service, std::move(server_options));
  ASSERT_TRUE(server.Start().ok());
  const std::string target = server.bound_addresses()[0].ToString();

  // Warm up: the worker pool and event loop exist after the first query.
  {
    auto client = ServiceClient::Connect(target);
    ASSERT_TRUE(client.ok());
    auto response = client->Call(QueryRequest("B0"));
    ASSERT_TRUE(response.ok());
    ASSERT_TRUE(response->GetBool("ok"));
  }
  const int baseline = CountThreads();
  ASSERT_GT(baseline, 0);

  // 24 connect/query/disconnect cycles: a thread-per-connection design
  // leaks a joinable thread per cycle until Stop; the event loop must
  // hold the count exactly flat.
  for (int cycle = 0; cycle < 24; ++cycle) {
    auto client = ServiceClient::Connect(target);
    ASSERT_TRUE(client.ok());
    auto response = client->Call(QueryRequest("B0"));
    ASSERT_TRUE(response.ok());
    ASSERT_TRUE(response->GetBool("ok"));
  }
  EXPECT_EQ(CountThreads(), baseline);
  EXPECT_GE(server.transport_stats().accepted, 25u);
  server.Stop();
}

TEST(ServiceTcpTest, ConnectWithRetryWaitsForLateServer) {
  ServiceConfig config;
  config.cluster = RoomyCluster();
  QueryService query_service(config);

  const std::string socket_path = TestSocketPath("retry");
  ::unlink(socket_path.c_str());
  ServiceServer server(&query_service, socket_path);

  // Start the server only after the client has begun retrying.
  std::thread late_starter([&server] {
    std::this_thread::sleep_for(std::chrono::milliseconds(120));
    ASSERT_TRUE(server.Start().ok());
  });
  auto client = ServiceClient::ConnectWithRetry("unix:" + socket_path,
                                                /*attempts=*/8,
                                                /*backoff_ms=*/25);
  late_starter.join();
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  JsonValue ping = JsonValue::MakeObject();
  ping.Set("verb", "ping");
  auto response = client->Call(ping);
  ASSERT_TRUE(response.ok());
  EXPECT_TRUE(response->GetBool("ok"));

  // One attempt against a dead endpoint still fails fast.
  auto dead = ServiceClient::ConnectWithRetry(
      "unix:" + TestSocketPath("nobody"), /*attempts=*/1);
  EXPECT_FALSE(dead.ok());
  server.Stop();
}

}  // namespace
}  // namespace service
}  // namespace rdfmr

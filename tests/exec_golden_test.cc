// Golden pin of Exec against a checked-in fixture: B0–B6 × all six engines
// × {1, 4} threads on a small BSBM graph and on the same graph with every
// record separator and a backslash spliced into its terms; then, on the
// BSBM graph, a batch and a union payload on every NTGA engine and an
// aggregate (+count) payload on every engine, × {1, 4} threads; then the
// disk-pressure rows (B3, B4, B4+count × eager/lazy/pig/auto × both
// refusing policies × a pressured and a roomy cluster, 1 thread). Each run
// renders every deterministic ExecStats field (redundancy factors and
// modeled seconds as exact %a bits, per-job metrics, a digest of the
// counters) plus the answer count and an ordered FNV digest of the
// Serialize()d answers.
//
// rdfmr_fuzz and the determinism tests compare runs within one build; this
// test compares against bytes recorded before a change, so a serde or
// accounting rewrite cannot drift without failing it. On a mismatch the
// rendered pin is written to exec_pin.actual.txt in the working directory
// and the first differing line is reported. After an intended change to a
// simulated quantity, replace tests/golden/exec_pin.txt with that file and
// say so in the change.
//
// A second pin, tests/golden/selsj_pin.txt, renders the Fig. 3 case-study
// queries Q1a–Q3b under Hive's Sel-SJ-first grouping × {1, 4} threads, on
// each query's graph and on its separator graph, in the same line format
// (its actual render goes to selsj_pin.actual.txt).
//
// A further test asserts that on the separator graph every NTGA engine
// answers exactly what Pig answers (equal answer digests).

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/strings.h"
#include "datagen/testbed.h"
#include "engine/engine.h"
#include "tests/test_util.h"

#ifndef RDFMR_GOLDEN_DIR
#error "RDFMR_GOLDEN_DIR must point at tests/golden"
#endif

namespace rdfmr {
namespace {

using testing_util::SeparatorGraph;

std::string Hex(double value) { return StringFormat("%a", value); }

// Ordered FNV digest of a payload's Serialize()d answers.
uint64_t AnswersDigest(const SolutionSet& answers) {
  std::string text;
  for (const Solution& solution : answers) {
    text += solution.Serialize();
    text.push_back('\n');
  }
  return Fnv1a64(text);
}

uint64_t CountersDigest(const Counters& counters) {
  std::string text;
  for (const auto& [name, value] : counters) {
    text += name + "=" + std::to_string(value) + "\n";
  }
  return Fnv1a64(text);
}

// Renders one run. A batch run's answers are its per-query sets in
// request order, each followed by a "--" line.
std::string RenderRun(const std::string& graph, const std::string& query,
                      EngineKind kind, uint32_t threads,
                      const ExecResult& exec) {
  const ExecStats& s = exec.stats;
  std::string answers;
  size_t answer_count = 0;
  auto append = [&answers, &answer_count](const SolutionSet& set) {
    for (const Solution& solution : set) {
      answers += solution.Serialize();
      answers.push_back('\n');
    }
    answer_count += set.size();
  };
  append(exec.answers);
  for (const SolutionSet& set : exec.per_query) {
    append(set);
    answers += "--\n";
  }
  std::string out = StringFormat(
      "%s %s %s t%u | engine=%s query=%s status=%s failed_job=%d "
      "cycles=%zu/%zu scans=%u read=%llu write=%llu write_repl=%llu "
      "shuffle=%llu star=%llu intermediate=%llu final=%llu peak=%llu "
      "redundancy=%s final_redundancy=%s modeled=%s attempts=%llu "
      "retried=%llu wasted=%llu backoff=%s degraded_from='%s' "
      "preflight='%s' chosen='%s' counters=%016llx answers=%zu "
      "digest=%016llx\n",
      graph.c_str(), query.c_str(), EngineKindToString(kind), threads,
      s.engine.c_str(), s.query.c_str(), s.status.ToString().c_str(),
      s.failed_job_index, s.mr_cycles, s.planned_cycles, s.full_scans,
      static_cast<unsigned long long>(s.hdfs_read_bytes),
      static_cast<unsigned long long>(s.hdfs_write_bytes),
      static_cast<unsigned long long>(s.hdfs_write_bytes_replicated),
      static_cast<unsigned long long>(s.shuffle_bytes),
      static_cast<unsigned long long>(s.star_phase_write_bytes),
      static_cast<unsigned long long>(s.intermediate_write_bytes),
      static_cast<unsigned long long>(s.final_output_bytes),
      static_cast<unsigned long long>(s.peak_dfs_used_bytes),
      Hex(s.redundancy_factor).c_str(),
      Hex(s.final_redundancy_factor).c_str(),
      Hex(s.modeled_seconds).c_str(),
      static_cast<unsigned long long>(s.task_attempts),
      static_cast<unsigned long long>(s.tasks_retried),
      static_cast<unsigned long long>(s.wasted_bytes),
      Hex(s.retry_backoff_seconds).c_str(), s.degraded_from.c_str(),
      s.preflight.c_str(), s.chosen_engine.c_str(),
      static_cast<unsigned long long>(CountersDigest(s.counters)),
      answer_count, static_cast<unsigned long long>(Fnv1a64(answers)));
  for (const JobMetrics& j : s.jobs) {
    out += StringFormat(
        "  job %s in=%llu/%llu map_out=%llu/%llu direct=%llu/%llu "
        "groups=%llu out=%llu/%llu out_repl=%llu scans=%u "
        "counters=%016llx\n",
        j.job_name.c_str(), static_cast<unsigned long long>(j.input_records),
        static_cast<unsigned long long>(j.input_bytes),
        static_cast<unsigned long long>(j.map_output_records),
        static_cast<unsigned long long>(j.map_output_bytes),
        static_cast<unsigned long long>(j.map_direct_output_records),
        static_cast<unsigned long long>(j.map_direct_output_bytes),
        static_cast<unsigned long long>(j.reduce_input_groups),
        static_cast<unsigned long long>(j.output_records),
        static_cast<unsigned long long>(j.output_bytes),
        static_cast<unsigned long long>(j.output_bytes_replicated),
        j.full_scans_of_base,
        static_cast<unsigned long long>(CountersDigest(j.counters)));
  }
  return out;
}

bool IsNtga(EngineKind kind) {
  return kind != EngineKind::kPig && kind != EngineKind::kHive;
}

std::shared_ptr<const GraphPatternQuery> Query(const char* id) {
  auto query = GetTestbedQuery(id);
  EXPECT_TRUE(query.ok()) << id;
  return query.ok() ? *query : nullptr;
}

// Runs `request` on a fresh DFS holding `triples` for every engine that
// `applies` accepts, at 1 and 4 threads, and renders each run.
template <typename Applies>
std::string RenderPayload(const std::string& graph, const std::string& label,
                          const std::vector<Triple>& triples,
                          const ExecRequest& request, Applies applies) {
  std::string pin;
  for (EngineKind kind : testing_util::AllEngineKinds()) {
    if (!applies(kind)) continue;
    for (uint32_t threads : {1u, 4u}) {
      auto dfs = testing_util::MakeDfsWithBase(triples);
      EXPECT_NE(dfs, nullptr);
      if (dfs == nullptr) continue;
      EngineOptions options;
      options.kind = kind;
      options.runtime.num_threads = threads;
      auto exec = Exec(dfs.get(), "base", request, options);
      EXPECT_TRUE(exec.ok()) << exec.status().ToString();
      if (!exec.ok()) continue;
      pin += RenderRun(graph, label, kind, threads, *exec);
    }
  }
  return pin;
}

// B4 with a COUNT cycle: distinct unbound properties per product.
ExecRequest B4CountRequest() {
  ExecRequest request;
  request.query = Query("B4");
  AggregateSpec spec;
  spec.group_vars = {"p"};
  spec.counted_var = "up";
  spec.count_var = "n";
  request.aggregate = spec;
  return request;
}

// Disk-pressure rows: single payloads under each refusing policy, on a
// cluster whose capacity sits between B3's lazy and eager projected peaks
// and on a roomy one, at one thread. They pin the fits, degrade and refuse
// outcomes (notes included).
std::string RenderPreflightRows(const std::vector<Triple>& bsbm) {
  const std::vector<std::pair<std::string, ClusterConfig>> clusters = {
      {"pressured", testing_util::PressuredCluster(bsbm, *Query("B3"))},
      {"roomy", testing_util::RoomyCluster()}};
  std::vector<std::pair<std::string, ExecRequest>> requests = {
      {"B3", ExecRequest::Single(Query("B3"))},
      {"B4", ExecRequest::Single(Query("B4"))},
      {"B4+count", B4CountRequest()}};
  const std::pair<const char*, DiskPressurePolicy> policies[] = {
      {"degrade", DiskPressurePolicy::kDegrade},
      {"fail-fast", DiskPressurePolicy::kFailFast}};
  std::string pin;
  for (const auto& [cluster_name, cluster] : clusters) {
    for (const auto& [label, request] : requests) {
      for (EngineKind kind : {EngineKind::kNtgaEager, EngineKind::kNtgaLazy,
                              EngineKind::kPig, EngineKind::kAuto}) {
        for (const auto& [policy_name, policy] : policies) {
          auto dfs = testing_util::MakeDfsWithBase(bsbm, cluster);
          EXPECT_NE(dfs, nullptr);
          if (dfs == nullptr) continue;
          EngineOptions options;
          options.kind = kind;
          options.disk_pressure = policy;
          options.runtime.num_threads = 1;
          auto exec = Exec(dfs.get(), "base", request, options);
          EXPECT_TRUE(exec.ok()) << exec.status().ToString();
          if (!exec.ok()) continue;
          pin += RenderRun(cluster_name, label + "/" + policy_name, kind, 1,
                           *exec);
        }
      }
    }
  }
  return pin;
}

std::string RenderPin() {
  const std::vector<Triple> bsbm =
      testing_util::SmallDataset(DatasetFamily::kBsbm);
  const std::vector<std::pair<std::string, std::vector<Triple>>> graphs = {
      {"bsbm", bsbm}, {"separators", SeparatorGraph(bsbm)}};
  std::string pin;
  for (const auto& [graph, triples] : graphs) {
    for (const char* id : {"B0", "B1", "B2", "B3", "B4", "B5", "B6"}) {
      ExecRequest request;
      request.query = Query(id);
      if (request.query == nullptr) continue;
      pin += RenderPayload(graph, id, triples, request,
                           [](EngineKind) { return true; });
    }
  }

  ExecRequest batch;
  batch.payload = ExecPayload::kBatch;
  batch.queries = {Query("B0"), Query("B1"), Query("B4")};
  pin += RenderPayload("bsbm", "batch:B0,B1,B4", bsbm, batch, IsNtga);

  ExecRequest union_request;
  union_request.payload = ExecPayload::kUnion;
  union_request.queries = {Query("B4"), Query("B5")};
  pin += RenderPayload("bsbm", "union:B4,B5", bsbm, union_request, IsNtga);

  pin += RenderPayload("bsbm", "B4+count", bsbm, B4CountRequest(),
                       [](EngineKind) { return true; });
  return pin + RenderPreflightRows(bsbm);
}

// The Fig. 3 case-study queries under the Sel-SJ-first grouping on Hive,
// × {1, 4} threads, on each query's graph and on its separator graph.
std::string RenderSelSjFirstPin() {
  std::string pin;
  for (const char* id : {"Q1a", "Q1b", "Q2a", "Q2b", "Q3a", "Q3b"}) {
    auto entry = GetTestbedEntry(id);
    EXPECT_TRUE(entry.ok()) << id;
    if (!entry.ok()) continue;
    const std::vector<Triple> base =
        testing_util::SmallDataset(entry->dataset);
    for (const auto& [graph, triples] :
         std::vector<std::pair<std::string, std::vector<Triple>>>{
             {DatasetFamilyToString(entry->dataset), base},
             {"separators", SeparatorGraph(base)}}) {
      for (uint32_t threads : {1u, 4u}) {
        auto dfs = testing_util::MakeDfsWithBase(triples);
        EXPECT_NE(dfs, nullptr);
        if (dfs == nullptr) continue;
        EngineOptions options;
        options.kind = EngineKind::kHive;
        options.grouping = RelationalGrouping::kSelSJFirst;
        options.runtime.num_threads = threads;
        auto exec =
            Exec(dfs.get(), "base", ExecRequest::Single(Query(id)), options);
        EXPECT_TRUE(exec.ok()) << exec.status().ToString();
        if (!exec.ok()) continue;
        pin += RenderRun(graph, id, EngineKind::kHive, threads, *exec);
      }
    }
  }
  return pin;
}

// Compares `actual` with the fixture `name`; on a mismatch writes `actual`
// to `name` with ".actual.txt" for ".txt" in the working directory and
// reports the first differing line.
void ExpectMatchesFixture(const std::string& name, const std::string& actual) {
  const std::string path = std::string(RDFMR_GOLDEN_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing fixture " << path;
  std::stringstream expected;
  expected << in.rdbuf();

  if (actual == expected.str()) return;
  const std::string actual_path =
      name.substr(0, name.size() - 4) + ".actual.txt";
  std::ofstream(actual_path, std::ios::binary) << actual;
  std::vector<std::string> want = Split(expected.str(), '\n');
  std::vector<std::string> got = Split(actual, '\n');
  for (size_t i = 0; i < std::max(want.size(), got.size()); ++i) {
    const std::string w = i < want.size() ? want[i] : "<missing>";
    const std::string g = i < got.size() ? got[i] : "<missing>";
    if (w != g) {
      FAIL() << name << " differs at line " << i + 1 << "\n  expected: " << w
             << "\n  actual:   " << g << "\n(full render written to "
             << actual_path << ")";
    }
  }
}

TEST(ExecGoldenTest, MatchesRecordedPin) {
  ExpectMatchesFixture("exec_pin.txt", RenderPin());
}

TEST(ExecGoldenTest, SelSjFirstMatchesRecordedPin) {
  ExpectMatchesFixture("selsj_pin.txt", RenderSelSjFirstPin());
}

// Separators and backslashes in terms must survive the NTGA grouping
// cycle's records: each NTGA engine's answers equal Pig's.
TEST(ExecGoldenTest, SeparatorGraphNtgaAnswersMatchPig) {
  const std::vector<Triple> graph =
      SeparatorGraph(testing_util::SmallDataset(DatasetFamily::kBsbm));
  for (const char* id : {"B0", "B1", "B2", "B3", "B4", "B5", "B6"}) {
    uint64_t pig_digest = 0;
    for (EngineKind kind : testing_util::AllEngineKinds()) {
      if (kind == EngineKind::kHive) continue;
      auto dfs = testing_util::MakeDfsWithBase(graph);
      ASSERT_NE(dfs, nullptr);
      EngineOptions options;
      options.kind = kind;
      auto exec = Exec(dfs.get(), "base", ExecRequest::Single(Query(id)),
                       options);
      ASSERT_TRUE(exec.ok()) << exec.status().ToString();
      ASSERT_TRUE(exec->stats.ok()) << exec->stats.status.ToString();
      const uint64_t digest = AnswersDigest(exec->answers);
      if (kind == EngineKind::kPig) {
        EXPECT_FALSE(exec->answers.empty()) << id;
        pig_digest = digest;
      } else {
        EXPECT_EQ(digest, pig_digest) << id << " " << EngineKindToString(kind);
      }
    }
  }
}

}  // namespace
}  // namespace rdfmr

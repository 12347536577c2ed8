// Extension experiment: multi-query scan sharing.
//
// The paper's related work highlights MRShare's "sharing of map output
// data across grouping operations on a common input relation"; NTGA gets
// that sharing structurally — γ_S(T) does not depend on the query, so a
// *batch* of exploration queries can share one scan and one
// subject-grouping shuffle, with only the (cheap, filtered) join cycles
// run per query. This harness compares a shared batch against running the
// same queries one at a time.

#include <cstdio>

#include "bench/bench_util.h"

namespace rdfmr {
namespace bench {
namespace {

int Main() {
  std::vector<Triple> triples = BenchDataset(DatasetFamily::kBsbm);
  std::printf("Extension: multi-query scan sharing (%zu triples)\n\n",
              triples.size());

  const std::vector<std::string> ids = {"B0", "B1", "B2", "B4", "B1-4bnd"};
  std::vector<std::shared_ptr<const GraphPatternQuery>> queries;
  for (const std::string& id : ids) {
    auto q = GetTestbedQuery(id);
    if (!q.ok()) {
      std::fprintf(stderr, "%s\n", q.status().ToString().c_str());
      return 1;
    }
    queries.push_back(*q);
  }

  ClusterConfig cluster;
  cluster.num_nodes = 12;
  cluster.replication = 1;
  cluster.disk_per_node = 8ULL << 30;
  cluster.block_size = 1ULL << 20;
  cluster.num_reducers = 8;
  auto dfs = MakeDfs(triples, cluster);

  EngineOptions options;
  options.kind = EngineKind::kNtgaLazy;
  options.cost = BenchCostModel();

  // --- One at a time.
  uint64_t solo_reads = 0, solo_shuffle = 0, solo_writes = 0;
  uint32_t solo_scans = 0;
  size_t solo_cycles = 0;
  double solo_time = 0.0;
  std::vector<size_t> solo_answers;
  for (const auto& query : queries) {
    auto exec = Exec(dfs.get(), "base", ExecRequest::Single(query), options);
    if (!exec.ok() || !exec->stats.ok()) {
      std::fprintf(stderr, "solo run failed\n");
      return 1;
    }
    solo_reads += exec->stats.hdfs_read_bytes;
    solo_shuffle += exec->stats.shuffle_bytes;
    solo_writes += exec->stats.hdfs_write_bytes;
    solo_scans += exec->stats.full_scans;
    solo_cycles += exec->stats.mr_cycles;
    solo_time += exec->stats.modeled_seconds;
    solo_answers.push_back(exec->answers.size());
  }

  // --- As one shared batch.
  auto batch = Exec(dfs.get(), "base", ExecRequest::Batch(queries), options);
  if (!batch.ok() || !batch->stats.ok()) {
    std::fprintf(stderr, "batch failed\n");
    return 1;
  }

  std::printf("%-14s %4s %3s %12s %12s %12s %9s\n", "mode", "MR", "FS",
              "read", "shuffle", "write", "time(s)");
  std::printf("%-14s %4zu %3u %12s %12s %12s %9.1f\n", "one-at-a-time",
              solo_cycles, solo_scans, HumanBytes(solo_reads).c_str(),
              HumanBytes(solo_shuffle).c_str(),
              HumanBytes(solo_writes).c_str(), solo_time);
  std::printf("%-14s %4zu %3u %12s %12s %12s %9.1f\n", "shared batch",
              batch->stats.mr_cycles, batch->stats.full_scans,
              HumanBytes(batch->stats.hdfs_read_bytes).c_str(),
              HumanBytes(batch->stats.shuffle_bytes).c_str(),
              HumanBytes(batch->stats.hdfs_write_bytes).c_str(),
              batch->stats.modeled_seconds);

  ShapeChecks checks;
  checks.Check(StringFormat("batch scans the input once (vs %u solo scans)",
                            solo_scans),
               batch->stats.full_scans == 1);
  checks.Check(
      StringFormat("batch saves %zu grouping cycles",
                   solo_cycles - batch->stats.mr_cycles),
      batch->stats.mr_cycles == 1 + (solo_cycles - queries.size()));
  checks.Check(
      StringFormat("batch reads %.0f%% less",
                   100.0 * (1.0 - static_cast<double>(
                                      batch->stats.hdfs_read_bytes) /
                                      static_cast<double>(solo_reads))),
      batch->stats.hdfs_read_bytes < solo_reads);
  checks.Check(
      StringFormat("batch shuffles %.0f%% less (one grouping shuffle)",
                   100.0 * (1.0 - static_cast<double>(
                                      batch->stats.shuffle_bytes) /
                                      static_cast<double>(solo_shuffle))),
      batch->stats.shuffle_bytes < solo_shuffle);
  checks.Check("batch is faster end-to-end (modeled)",
               batch->stats.modeled_seconds < solo_time);
  bool same_answers = batch->per_query.size() == solo_answers.size();
  for (size_t q = 0; same_answers && q < solo_answers.size(); ++q) {
    same_answers = batch->per_query[q].size() == solo_answers[q];
  }
  checks.Check("per-query answers identical to solo runs", same_answers);
  return checks.Summarize();
}

}  // namespace
}  // namespace bench
}  // namespace rdfmr

int main() { return rdfmr::bench::Main(); }

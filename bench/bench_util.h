// Shared infrastructure for the per-figure experiment harnesses: bench-scale
// dataset construction, engine sweeps, table printing, and paper-shape
// checks. Each fig*_ binary prints the rows/series of one figure or table
// of the paper and verifies the qualitative relationships the paper reports.

#ifndef RDFMR_BENCH_BENCH_UTIL_H_
#define RDFMR_BENCH_BENCH_UTIL_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/strings.h"
#include "datagen/testbed.h"
#include "dfs/sim_dfs.h"
#include "engine/engine.h"
#include "rdf/triple.h"

namespace rdfmr {
namespace bench {

/// Bench-scale dataset for one family (larger than test scale so the
/// redundancy effects dominate fixed costs; still seconds per query).
std::vector<Triple> BenchDataset(DatasetFamily family);

/// BSBM-like dataset at an explicit product scale; `BenchDataset(kBsbm)`
/// is the "BSBM-2M" stand-in, half the scale is the "BSBM-1M" stand-in.
std::vector<Triple> BsbmAtScale(uint64_t num_products);

/// Serialized byte size of a triple set (to size cluster disks).
uint64_t DatasetBytes(const std::vector<Triple>& triples);

/// Builds a DFS holding `triples` at "base". The runs on it honour
/// RDFMR_THREADS through RunWorkflow's precedence rule
/// (common/runtime_options.h); results are byte-identical for any thread
/// count, only wall time moves.
std::unique_ptr<SimDfs> MakeDfs(const std::vector<Triple>& triples,
                                const ClusterConfig& config);

/// Runs one testbed query on one engine; aborts the process on
/// infrastructure errors (engine-level failures are data, not errors).
ExecStats RunOne(SimDfs* dfs, const std::string& query_id,
                 const EngineOptions& options);

/// One printable row of a result table.
struct Row {
  std::string query;
  std::string engine;
  ExecStats stats;
};

/// Prints a fixed set of columns for `rows` (failed runs render as 'X',
/// matching the paper's missing bars).
void PrintTable(const std::string& title, const std::vector<Row>& rows);

/// Records / prints a paper-shape check ("who wins / by how much").
class ShapeChecks {
 public:
  void Check(const std::string& description, bool passed);
  /// Prints the summary and returns the number of failed checks.
  int Summarize() const;

 private:
  struct Entry {
    std::string description;
    bool passed;
  };
  std::vector<Entry> entries_;
};

/// Convenience: the usual four engines of the paper's main figures.
std::vector<EngineKind> PaperEngines();  // Pig, Hive, Eager, Lazy

/// Cost model for bench runs. The bench datasets are ~1:1000 stand-ins for
/// the paper's BSBM-2M/Bio2RDF volumes, so per-node bandwidths shrink by
/// the same factor — preserving the paper's regime where I/O time
/// dominates fixed per-job overhead.
CostModelConfig BenchCostModel();

}  // namespace bench
}  // namespace rdfmr

#endif  // RDFMR_BENCH_BENCH_UTIL_H_

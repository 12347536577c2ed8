// Shared plumbing of the layered benchmark: options, the report every
// workload fills, sample statistics, process counters, the set-up pipeline
// that turns generated data into parsed, indexed datasets, and the oracle
// that every checked answer is compared with.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/result.h"
#include "query/pattern.h"
#include "query/solution.h"
#include "rdf/graph_stats.h"
#include "rdf/triple.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MillisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// \brief Whether to run another complete set-up, given the durations of
/// those done so far: at least 5, and more until 6 s are spent (at most
/// 15). setup_s is their median, so a short set-up is sampled across
/// several seconds of host noise rather than one moment of it.
bool MoreSetUps(const std::vector<double>& setup_s);

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Seconds-long scale used by the self-test: tiny data, short windows.
  bool smoke = false;
  /// Drill: corrupt one checked answer; the run must then fail.
  bool plant_wrong_answer = false;
  /// Scratch directory inside the checkout (sockets, .nt, .rdx, traces).
  std::string run_dir;
  /// dashboard's rate ladder and p99 limit (perfbench/config.json).
  std::vector<double> rates_qps;
  double slo_p99_ms = 0.0;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// \brief What one workload run produced. `end_to_end` carries the
/// metrics every workload reports; `extra` the workload-specific ones
/// (printed, not part of the result object); `layers` the traced run's
/// per-layer metrics.
struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> extra;
  std::map<std::string, Metric> layers;

  bool correct() const { return errors.empty(); }
  /// Records a wrong answer, a moved count or any other check failure.
  void Wrong(std::string what);
  void Layer(const std::string& name, double value);
};

/// \brief Names and units of every per-layer metric, in report order.
const std::vector<std::pair<std::string, std::string>>& LayerMetricUnits();

// ---- sample statistics ------------------------------------------------------

/// \brief Linear-interpolated percentile (p in [0,100]); 0 when empty.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);
/// \brief Mean of the values ranked within w = min(10, (100-p)/2)
/// percentage points of the p-th percentile. For the few dozen requests
/// of a closed-loop slice it keeps two neighbouring requests of very
/// different cost from flipping the figure when they swap ranks.
double SmoothedPercentile(std::vector<double> values, double p);
double Mean(const std::vector<double>& values);

/// \brief User+system CPU seconds of this process so far.
double CpuSeconds();
/// \brief Peak resident set size of this process, in MB.
double PeakRssMb();

/// \brief One slice of a closed-loop window: its requests' latencies, its
/// wall time and the process CPU time it used.
struct Slice {
  std::vector<double> latencies_ms;
  double wall_seconds = 0.0;
  double cpu_seconds = 0.0;
};

/// \brief Fills the end-to-end latency/throughput/cpu/rss metrics of a
/// closed loop as medians over slices: a host stall that hits one slice
/// moves that slice's figures, not the reported ones.
void EmitSlicedMetrics(const std::vector<Slice>& slices, Report* report);

/// \brief Fills throughput_qps and cpu_ms_per_query of an open loop from
/// its totals, and peak_rss_mb; the caller sets the latencies.
void EmitRateMetrics(uint64_t completed, double wall_seconds,
                     double cpu_seconds, Report* report);

// ---- data and set-up ----------------------------------------------------------

/// \brief The BSBM-like generator at a product scale (seeded).
std::vector<rdfmr::Triple> GenerateBsbmData(uint64_t products, uint64_t seed);
/// \brief The Bio2RDF-like generator at `genes` genes (seeded).
std::vector<rdfmr::Triple> GenerateBioData(uint64_t genes, uint64_t seed);

/// \brief A dataset after the set-up pipeline: generated triples rendered
/// as N-Triples, parsed back (rdf), profiled (rdf stats) and, when
/// indexed, written as an .rdx file (storage).
struct Dataset {
  std::vector<rdfmr::Triple> triples;
  std::string nt_text;
  std::shared_ptr<const rdfmr::GraphStats> stats;
  std::string rdx_path;
  uint64_t rdx_bytes = 0;
  double parse_ms = 0.0;
  double stats_ms = 0.0;
  double index_ms = 0.0;
};

/// \brief Renders `generated` to `<run_dir>/<name>.nt`, parses it back with
/// LoadNTriples (the parsed relation must equal the generated one),
/// computes GraphStats and, when `index` is set, writes
/// `<run_dir>/<name>.rdx`.
rdfmr::Result<Dataset> PrepareDataset(const std::string& run_dir,
                                      const std::string& name,
                                      const std::vector<rdfmr::Triple>& generated,
                                      bool index);

/// \brief Parses an N-Triples document the way the service does for .nt.
rdfmr::Result<std::vector<rdfmr::Triple>> ParseNt(const std::string& text);

// ---- oracle -------------------------------------------------------------------

/// \brief What a correct response to one query carries.
struct Expected {
  uint64_t num_answers = 0;
  /// FNV-1a over every answer's canonical line, in set order.
  uint64_t digest = 0;
  /// The protocol's rendering of the first `max_answers` answers.
  std::string answers_json;
};

uint64_t DigestAnswers(const rdfmr::SolutionSet& answers);
std::string AnswersJson(const rdfmr::SolutionSet& answers,
                        uint64_t max_answers);

/// \brief Evaluates `query` in memory over `triples` (the oracle).
Expected Oracle(const rdfmr::GraphPatternQuery& query,
                const std::vector<rdfmr::Triple>& triples,
                uint64_t max_answers);

/// \brief Checks a terse wire response line ({"answers":..,"id":..,
/// "num_answers":..,"ok":true,"v":1}) against `expected` without parsing
/// the whole line.
bool TerseResponseMatches(const std::string& line, const Expected& expected);

// ---- small utilities ---------------------------------------------------------

/// \brief splitmix64 step: the benchmark's only source of seeded draws.
uint64_t Mix(uint64_t* state);
/// \brief Uniform double in [0,1).
double Uniform(uint64_t* state);

/// \brief The BSBM queries of the testbed catalog (Q*, B*, B1-*bnd).
std::vector<std::string> BsbmCatalogIds();

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_

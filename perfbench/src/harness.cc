#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <numeric>
#include <sstream>

#include "common/hash.h"
#include "datagen/bio2rdf.h"
#include "datagen/bsbm.h"
#include "datagen/testbed.h"
#include "query/matcher.h"
#include "rdf/ntriples.h"
#include "service/dataset_io.h"
#include "storage/rdx_writer.h"

namespace perfbench {

using rdfmr::JsonValue;
using rdfmr::Result;
using rdfmr::Status;
using rdfmr::Triple;

bool MoreSetUps(const std::vector<double>& setup_s) {
  const double spent = std::accumulate(setup_s.begin(), setup_s.end(), 0.0);
  return setup_s.size() < 5 || (spent < 6.0 && setup_s.size() < 15);
}

void Report::Wrong(std::string what) {
  // Keep the first few reasons; the count is what gates.
  if (errors.size() < 20) {
    errors.push_back(std::move(what));
  } else if (errors.size() == 20) {
    errors.push_back("... further check failures omitted");
  }
}

void Report::Layer(const std::string& name, double value) {
  for (const auto& [known, unit] : LayerMetricUnits()) {
    if (known == name) {
      layers[name] = Metric{value, unit};
      return;
    }
  }
  Wrong("internal: unknown per-layer metric " + name);
}

const std::vector<std::pair<std::string, std::string>>& LayerMetricUnits() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"rdf.parse_ms", "ms"},
      {"rdf.stats_ms", "ms"},
      {"storage.index_build_ms", "ms"},
      {"storage.register_ms", "ms"},
      {"storage.bytes_per_triple", "bytes"},
      {"dfs.hdfs_read_bytes", "bytes"},
      {"dfs.hdfs_write_bytes", "bytes"},
      {"dfs.shuffle_bytes", "bytes"},
      {"dfs.mr_cycles", "count"},
      {"mapreduce.workflow_ms", "ms"},
      {"mapreduce.map_ms", "ms"},
      {"mapreduce.shuffle_ms", "ms"},
      {"mapreduce.sort_ms", "ms"},
      {"mapreduce.reduce_ms", "ms"},
      {"mapreduce.write_ms", "ms"},
      {"mapreduce.serial_share", "ratio"},
      {"mapreduce.records_in", "count"},
      {"mapreduce.records_shuffled", "count"},
      {"ntga.build_anntg_ms", "ms"},
      {"ntga.beta_unnest_ms", "ms"},
      {"ntga.partial_beta_unnest_ms", "ms"},
      {"ntga.expand_joined_tg_ms", "ms"},
      {"ntga.beta_unnest_outputs", "count"},
      {"relational.workflow_ms", "ms"},
      {"query.sparql_parse_us", "us"},
      {"query.decode_ms", "ms"},
      {"query.answers_per_query", "count"},
      {"engine.choose_ms", "ms"},
      {"engine.compile_ms", "ms"},
      {"engine.post_run_ms", "ms"},
      {"engine.post_run_share", "ratio"},
      {"engine.redundancy_ms", "ms"},
      {"service.queue_wait_ms", "ms"},
      {"service.exec_ms", "ms"},
      {"service.result_cache_hit_ratio", "ratio"},
      {"service.plan_cache_hit_ratio", "ratio"},
      {"service.rejected", "count"},
      {"service.dispatch_us", "us"},
      {"net.ping_rtt_us", "us"},
      {"net.transport_us", "us"},
      {"net.bytes_per_response", "bytes"},
      {"net.backpressure_stalls", "count"},
      {"bench.generator_lag_ms", "ms"},
      {"bench.trace_coverage", "ratio"},
      {"bench.trace_overhead_ratio", "ratio"},
  };
  return kMetrics;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}

double SmoothedPercentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double w = std::min(10.0, (100.0 - p) / 2);
  const double last = static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::ceil((p - w) / 100.0 * last));
  const size_t hi = static_cast<size_t>(std::floor((p + w) / 100.0 * last));
  if (hi < lo) return Percentile(std::move(values), p);
  double sum = 0.0;
  for (size_t i = lo; i <= hi; ++i) sum += values[i];
  return sum / static_cast<double>(hi - lo + 1);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KB
}

void EmitRateMetrics(uint64_t completed, double wall_seconds,
                     double cpu_seconds, Report* report) {
  const double n = static_cast<double>(completed);
  report->end_to_end["throughput_qps"] = {
      wall_seconds > 0 ? n / wall_seconds : 0.0, "1/s"};
  report->end_to_end["cpu_ms_per_query"] = {
      completed > 0 ? cpu_seconds * 1e3 / n : 0.0, "ms"};
  report->extra["peak_rss_mb"] = {PeakRssMb(), "MB"};
}

void EmitSlicedMetrics(const std::vector<Slice>& slices, Report* report) {
  std::vector<double> p50, p90, qps, cpu_ms;
  for (const Slice& slice : slices) {
    if (slice.latencies_ms.empty() || slice.wall_seconds <= 0) continue;
    const double n = static_cast<double>(slice.latencies_ms.size());
    p50.push_back(SmoothedPercentile(slice.latencies_ms, 50));
    p90.push_back(SmoothedPercentile(slice.latencies_ms, 90));
    qps.push_back(n / slice.wall_seconds);
    cpu_ms.push_back(slice.cpu_seconds * 1e3 / n);
  }
  report->end_to_end["latency_p50_ms"] = {Median(p50), "ms"};
  report->extra["latency_p90_ms"] = {Median(p90), "ms"};
  report->end_to_end["throughput_qps"] = {Median(qps), "1/s"};
  report->end_to_end["cpu_ms_per_query"] = {Median(cpu_ms), "ms"};
  report->extra["peak_rss_mb"] = {PeakRssMb(), "MB"};
}

// ---- data and set-up ----------------------------------------------------------

std::vector<Triple> GenerateBsbmData(uint64_t products, uint64_t seed) {
  rdfmr::BsbmConfig config;
  config.num_products = products;
  config.num_features = 300;
  config.offers_per_product = 2;
  config.reviews_per_product = 2;
  config.min_features_per_product = 4;
  config.max_features_per_product = 14;
  config.seed = seed;
  return rdfmr::GenerateBsbm(config);
}

std::vector<Triple> GenerateBioData(uint64_t genes, uint64_t seed) {
  rdfmr::Bio2RdfConfig config;
  config.num_genes = genes;
  config.num_go_terms = genes * 2 / 5;
  config.num_articles = genes * 8 / 15;
  config.max_multiplicity = 60;
  config.seed = seed;
  return rdfmr::GenerateBio2Rdf(config);
}

Result<std::vector<Triple>> ParseNt(const std::string& text) {
  rdfmr::IriCompactor compactor(std::vector<std::pair<std::string, std::string>>{
      {rdfmr::service::kIriPrefix, ""}});
  return rdfmr::LoadNTriples(text, compactor);
}

Result<Dataset> PrepareDataset(const std::string& run_dir,
                               const std::string& name,
                               const std::vector<Triple>& generated,
                               bool index) {
  Dataset dataset;
  const std::string nt_path = run_dir + "/" + name + ".nt";
  RDFMR_RETURN_NOT_OK(rdfmr::service::WriteDatasetFile(nt_path, generated));
  {
    std::ifstream in(nt_path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    dataset.nt_text = buffer.str();
  }
  Clock::time_point start = Clock::now();
  RDFMR_ASSIGN_OR_RETURN(dataset.triples, ParseNt(dataset.nt_text));
  dataset.parse_ms = MillisSince(start);
  if (dataset.triples != generated) {
    return Status::DataLoss("N-Triples round trip changed dataset " + name);
  }
  start = Clock::now();
  dataset.stats = std::make_shared<const rdfmr::GraphStats>(
      rdfmr::GraphStats::Compute(dataset.triples));
  dataset.stats_ms = MillisSince(start);
  if (index) {
    dataset.rdx_path = run_dir + "/" + name + ".rdx";
    start = Clock::now();
    RDFMR_RETURN_NOT_OK(
        rdfmr::storage::WriteRdxFile(dataset.rdx_path, dataset.triples));
    dataset.index_ms = MillisSince(start);
    std::ifstream in(dataset.rdx_path, std::ios::binary | std::ios::ate);
    dataset.rdx_bytes = static_cast<uint64_t>(in.tellg());
  }
  return dataset;
}

// ---- oracle -------------------------------------------------------------------

uint64_t DigestAnswers(const rdfmr::SolutionSet& answers) {
  uint64_t digest = rdfmr::Fnv1a64("");
  for (const rdfmr::Solution& solution : answers) {
    digest = rdfmr::HashCombine(digest, rdfmr::Fnv1a64(solution.Serialize()));
  }
  return digest;
}

std::string AnswersJson(const rdfmr::SolutionSet& answers,
                        uint64_t max_answers) {
  JsonValue array = JsonValue::MakeArray();
  uint64_t emitted = 0;
  for (const rdfmr::Solution& solution : answers) {
    if (max_answers > 0 && emitted >= max_answers) break;
    array.Append(solution.Serialize());
    ++emitted;
  }
  return array.Dump();
}

Expected Oracle(const rdfmr::GraphPatternQuery& query,
                const std::vector<Triple>& triples, uint64_t max_answers) {
  const rdfmr::SolutionSet answers =
      rdfmr::EvaluateQueryInMemory(query, triples);
  Expected expected;
  expected.num_answers = answers.size();
  expected.digest = DigestAnswers(answers);
  expected.answers_json = AnswersJson(answers, max_answers);
  return expected;
}

bool TerseResponseMatches(const std::string& line, const Expected& expected) {
  static const std::string kHead = "{\"answers\":";
  if (line.compare(0, kHead.size(), kHead) != 0) return false;
  if (line.compare(kHead.size(), expected.answers_json.size(),
                   expected.answers_json) != 0) {
    return false;
  }
  const std::string count =
      "\"num_answers\":" + std::to_string(expected.num_answers) + ",";
  return line.find(count, kHead.size() + expected.answers_json.size()) !=
             std::string::npos &&
         line.find("\"ok\":true") != std::string::npos;
}

// ---- small utilities ---------------------------------------------------------

uint64_t Mix(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Uniform(uint64_t* state) {
  return static_cast<double>(Mix(state) >> 11) * 0x1.0p-53;
}

std::vector<std::string> BsbmCatalogIds() {
  std::vector<std::string> ids;
  for (const rdfmr::TestbedEntry& entry : rdfmr::TestbedCatalog()) {
    if (entry.dataset == rdfmr::DatasetFamily::kBsbm) ids.push_back(entry.id);
  }
  return ids;
}

}  // namespace perfbench

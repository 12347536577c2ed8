#include "attribution.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>

#include "common/metrics.h"
#include "common/strings.h"

namespace perfbench {

using rdfmr::ExecRequest;
using rdfmr::ExecResult;
using rdfmr::Result;
using rdfmr::SimDfs;
using rdfmr::Status;
using rdfmr::TraceSpan;

namespace {

constexpr const char* kPhases[5] = {"map", "shuffle", "sort", "reduce",
                                    "write"};

uint64_t AttrUint(const TraceSpan& span, const std::string& key) {
  for (const auto& [name, value] : span.attrs) {
    if (name == key) return std::strtoull(value.c_str(), nullptr, 10);
  }
  return 0;
}

int64_t ChildMicros(const TraceSpan& span) {
  int64_t sum = 0;
  for (const auto& child : span.children) sum += child->duration_micros;
  return sum;
}

int64_t SelfMicros(const TraceSpan& span) {
  return std::max<int64_t>(0, span.duration_micros - ChildMicros(span));
}

void CollectPhases(const TraceSpan& span, ExecAttribution* out) {
  for (int i = 0; i < 5; ++i) {
    if (span.name == kPhases[i]) {
      out->phase_ms[i] += static_cast<double>(SelfMicros(span)) / 1e3;
    }
  }
  if (span.name == "map") out->records_in += AttrUint(span, "input_records");
  if (span.name == "shuffle") {
    out->records_shuffled += AttrUint(span, "shuffle_records");
  }
  for (const auto& child : span.children) CollectPhases(*child, out);
}

Status ReplayPlanBody(SimDfs* dfs, const std::string& base,
                      const ExecRequest& request,
                      const rdfmr::EngineOptions& options,
                      ExecAttribution* out);

// Re-runs the compiled plan the way Exec's tail does, outside any timed
// section, and times the post-run work Exec performs untraced: the
// redundancy scans over the star-phase and final outputs, and the answer
// decode.
Status ReplayPlan(SimDfs* dfs, const std::string& base,
                  const ExecRequest& request,
                  const rdfmr::EngineOptions& options, ExecAttribution* out) {
  // The replay is not a measured execution: keep it out of the operator
  // histograms the traced window reads.
  const bool operator_metrics = rdfmr::OperatorMetricsEnabled();
  rdfmr::EnableOperatorMetrics(false);
  Status status = ReplayPlanBody(dfs, base, request, options, out);
  rdfmr::EnableOperatorMetrics(operator_metrics);
  return status;
}

Status ReplayPlanBody(SimDfs* dfs, const std::string& base,
                      const ExecRequest& request,
                      const rdfmr::EngineOptions& options,
                      ExecAttribution* out) {
  Clock::time_point start = Clock::now();
  RDFMR_ASSIGN_OR_RETURN(
      rdfmr::CompiledPlan plan,
      rdfmr::CompileQueryPlanTemplate(request.query, base, request.aggregate,
                                      options));
  out->compile_ms = MillisSince(start);

  rdfmr::WorkflowSpec workflow = plan.workflow;
  const std::string final_path = workflow.final_output_path;
  workflow.intermediate_paths.clear();
  workflow.final_output_path.clear();
  workflow.cleanup_demuxed_on_failure = false;
  rdfmr::WorkflowRunOptions run_options;
  run_options.cost = options.cost;
  run_options.runtime = options.runtime;
  const rdfmr::WorkflowResult run =
      rdfmr::RunWorkflow(dfs, workflow, run_options);
  Status status = run.status;
  if (status.ok()) {
    start = Clock::now();
    std::vector<std::string> star_lines;
    for (const std::string& path : plan.star_phase_paths) {
      Result<std::vector<std::string>> lines = dfs->ReadFile(path);
      if (lines.ok()) {
        star_lines.insert(star_lines.end(), lines->begin(), lines->end());
      }
    }
    rdfmr::ComputeRedundancyFactor(star_lines);
    Result<std::vector<std::string>> final_lines = dfs->ReadFile(final_path);
    if (final_lines.ok()) rdfmr::ComputeRedundancyFactor(*final_lines);
    out->redundancy_ms = MillisSince(start);

    start = Clock::now();
    final_lines = dfs->ReadFile(final_path);
    if (final_lines.ok()) {
      Result<rdfmr::SolutionSet> answers = plan.decoder(*final_lines);
      if (!answers.ok()) status = answers.status();
    } else {
      status = final_lines.status();
    }
    out->decode_ms = MillisSince(start);
  }
  for (const std::string& path : dfs->ListFiles()) {
    if (rdfmr::StartsWith(path, rdfmr::kPlanTemplatePrefix)) {
      RDFMR_RETURN_NOT_OK(dfs->DeleteFile(path));
    }
  }
  dfs->ResetMetrics();
  out->replayed = status.ok();
  return status;
}

}  // namespace

TraceSpan* AddSpan(TraceSpan* parent, const std::string& name,
                   int64_t start_micros, int64_t duration_micros) {
  auto span = std::make_unique<TraceSpan>();
  span->name = name;
  span->start_micros = start_micros;
  span->duration_micros = std::max<int64_t>(0, duration_micros);
  parent->children.push_back(std::move(span));
  return parent->children.back().get();
}

Result<ExecResult> TracedExec(SimDfs* dfs, const std::string& base,
                              const ExecRequest& request,
                              const rdfmr::EngineOptions& options,
                              rdfmr::Trace* trace, const char* span_name,
                              bool replay, ExecAttribution* out) {
  *out = ExecAttribution{};
  out->relational = options.kind == rdfmr::EngineKind::kPig ||
                    options.kind == rdfmr::EngineKind::kHive;
  Result<ExecResult> result = Status::Unknown("not run");
  {
    rdfmr::ScopedSpan span(rdfmr::RunContext::ForTrace(trace), span_name);
    span.Attr("engine", rdfmr::EngineKindToString(options.kind));
    span.Attr("query", request.query ? request.query->name() : "");
    result = rdfmr::Exec(dfs, base, request, options, span.context());
  }
  TraceSpan* request_span = trace->root()->children.back().get();
  out->wall_ms = static_cast<double>(request_span->duration_micros) / 1e3;
  const TraceSpan* query_span = nullptr;
  for (const auto& child : request_span->children) {
    if (child->name == "query") query_span = child.get();
  }
  if (query_span != nullptr) {
    out->workflow_ms = static_cast<double>(query_span->duration_micros) / 1e3;
    CollectPhases(*query_span, out);
  }
  if (!result.ok()) return result;
  out->answers = result->answers.size();

  int64_t covered = query_span ? query_span->duration_micros : 0;
  if (replay && query_span != nullptr) {
    RDFMR_RETURN_NOT_OK(ReplayPlan(dfs, base, request, options, out));
    // Place the replayed estimates inside the gaps Exec left untraced:
    // compile before the `query` span, redundancy scans and decode after
    // it. Each estimate is clipped to the gap it explains.
    const int64_t begin = request_span->start_micros;
    const int64_t end = begin + request_span->duration_micros;
    const int64_t query_end =
        query_span->start_micros + query_span->duration_micros;
    const int64_t pre_gap = query_span->start_micros - begin;
    const int64_t compile =
        std::min<int64_t>(static_cast<int64_t>(out->compile_ms * 1e3), pre_gap);
    AddSpan(request_span, "compile", begin, compile)
        ->attrs.emplace_back("estimate", "replay");
    int64_t cursor = query_end;
    const int64_t redundancy = std::min<int64_t>(
        static_cast<int64_t>(out->redundancy_ms * 1e3), end - cursor);
    AddSpan(request_span, "redundancy", cursor, redundancy)
        ->attrs.emplace_back("estimate", "replay");
    cursor += redundancy;
    const int64_t decode = std::min<int64_t>(
        static_cast<int64_t>(out->decode_ms * 1e3), end - cursor);
    AddSpan(request_span, "decode", cursor, decode)
        ->attrs.emplace_back("estimate", "replay");
    covered += compile + redundancy + decode;
  }
  out->coverage = request_span->duration_micros > 0
                      ? static_cast<double>(covered) /
                            static_cast<double>(request_span->duration_micros)
                      : 1.0;
  return result;
}

void LayerAccounts::Add(const ExecAttribution& sample) {
  samples_.push_back(sample);
}

void LayerAccounts::Emit(Report* report) const {
  std::vector<double> workflow, relational, compile, decode, redundancy,
      post_run, coverage, answers, records_in, records_shuffled;
  std::vector<double> phases[5];
  double wall_sum = 0.0;
  double workflow_sum = 0.0;
  double serial_sum = 0.0;
  for (const ExecAttribution& s : samples_) {
    workflow.push_back(s.workflow_ms);
    if (s.relational) relational.push_back(s.workflow_ms);
    for (int i = 0; i < 5; ++i) phases[i].push_back(s.phase_ms[i]);
    records_in.push_back(static_cast<double>(s.records_in));
    records_shuffled.push_back(static_cast<double>(s.records_shuffled));
    post_run.push_back(s.wall_ms - s.workflow_ms);
    answers.push_back(static_cast<double>(s.answers));
    wall_sum += s.wall_ms;
    workflow_sum += s.workflow_ms;
    serial_sum += s.phase_ms[1] + s.phase_ms[4];
    if (s.replayed) {
      compile.push_back(s.compile_ms);
      decode.push_back(s.decode_ms);
      redundancy.push_back(s.redundancy_ms);
      coverage.push_back(s.coverage);
    }
  }
  report->Layer("mapreduce.workflow_ms", Mean(workflow));
  for (int i = 0; i < 5; ++i) {
    report->Layer(std::string("mapreduce.") + kPhases[i] + "_ms",
                  Mean(phases[i]));
  }
  report->Layer("mapreduce.serial_share",
                workflow_sum > 0 ? serial_sum / workflow_sum : 0.0);
  report->Layer("mapreduce.records_in", Mean(records_in));
  report->Layer("mapreduce.records_shuffled", Mean(records_shuffled));
  report->Layer("relational.workflow_ms", Mean(relational));
  report->Layer("engine.compile_ms", Mean(compile));
  report->Layer("engine.post_run_ms", Mean(post_run));
  report->Layer("engine.post_run_share",
                wall_sum > 0 ? (wall_sum - workflow_sum) / wall_sum : 0.0);
  report->Layer("engine.redundancy_ms", Mean(redundancy));
  report->Layer("query.decode_ms", Mean(decode));
  report->Layer("query.answers_per_query", Mean(answers));
  report->Layer("bench.trace_coverage", Mean(coverage));
}

namespace {

constexpr const char* kNtgaOps[] = {"build_anntg", "beta_unnest",
                                    "partial_beta_unnest", "expand_joined_tg"};

std::map<std::string, double> NtgaTotals() {
  rdfmr::MetricsRegistry& registry = rdfmr::MetricsRegistry::Global();
  std::map<std::string, double> totals;
  for (const char* op : kNtgaOps) {
    totals[op] = static_cast<double>(
        registry.GetHistogram(std::string("rdfmr_ntga_") + op + "_micros")
            ->Snapshot()
            .sum());
  }
  totals["outputs"] = static_cast<double>(
      registry.GetCounter("rdfmr_ntga_beta_unnest_output_groups")->Value());
  return totals;
}

}  // namespace

NtgaProbe::NtgaProbe() : start_(NtgaTotals()) {}

void NtgaProbe::Emit(uint64_t executions, Report* report) const {
  const std::map<std::string, double> now = NtgaTotals();
  const double n = executions > 0 ? static_cast<double>(executions) : 1.0;
  for (const char* op : kNtgaOps) {
    report->Layer(std::string("ntga.") + op + "_ms",
                  (now.at(op) - start_.at(op)) / 1e3 / n);
  }
  report->Layer("ntga.beta_unnest_outputs",
                (now.at("outputs") - start_.at("outputs")) / n);
}

namespace {

const char* LayerOfSpan(const std::string& name, const std::string& parent) {
  static const std::map<std::string, const char*> kLayers = {
      {"request", "bench"},      {"replay", "bench"},
      {"query", "mapreduce"},    {"mr_cycle", "mapreduce"},
      {"job", "mapreduce"},      {"map", "mapreduce"},
      {"shuffle", "mapreduce"},  {"sort", "mapreduce"},
      {"reduce", "mapreduce"},   {"write", "mapreduce"},
      {"compile", "engine"},     {"choose", "engine"},
      {"redundancy", "engine"},  {"decode", "query"},
      {"sparql_parse", "query"}, {"parse", "rdf"},
      {"stats", "rdf"},          {"index", "storage"},
      {"register", "storage"},   {"reload", "storage"},
      {"queue", "service"},      {"service_exec", "service"},
      {"transport", "net"},      {"window", "bench"},
  };
  auto it = kLayers.find(name);
  if (it != kLayers.end()) return it->second;
  // Operator spans sit beneath the phase spans.
  return kLayers.count(parent) > 0 ? "operator" : "other";
}

struct SpanTotals {
  std::string layer;
  uint64_t count = 0;
  int64_t total_micros = 0;
  int64_t self_micros = 0;
};

void Accumulate(const TraceSpan& span, const std::string& parent,
                std::map<std::string, SpanTotals>* totals) {
  SpanTotals& t = (*totals)[span.name];
  t.layer = LayerOfSpan(span.name, parent);
  t.count += 1;
  t.total_micros += span.duration_micros;
  t.self_micros += SelfMicros(span);
  for (const auto& child : span.children) {
    Accumulate(*child, span.name, totals);
  }
}

}  // namespace

void WriteTraceOutputs(const rdfmr::Trace& trace,
                       const std::string& path_stem) {
  {
    std::ofstream out(path_stem + ".trace.json");
    out << trace.ToChromeJson();
  }
  std::map<std::string, SpanTotals> totals;
  for (const auto& child : trace.root().children) {
    Accumulate(*child, "", &totals);
  }
  std::string table = rdfmr::StringFormat("%-10s %-24s %8s %12s %12s\n",
                                          "layer", "span", "count",
                                          "total_ms", "self_ms");
  for (const auto& [name, t] : totals) {
    table += rdfmr::StringFormat(
        "%-10s %-24s %8llu %12.3f %12.3f\n", t.layer.c_str(), name.c_str(),
        static_cast<unsigned long long>(t.count),
        static_cast<double>(t.total_micros) / 1e3,
        static_cast<double>(t.self_micros) / 1e3);
  }
  std::ofstream(path_stem + ".layers.txt") << table;
  std::fputs(table.c_str(), stdout);
}

}  // namespace perfbench

#include "engine/engine.h"

#include <algorithm>
#include <atomic>
#include <deque>
#include <functional>
#include <optional>
#include <string_view>
#include <unordered_set>

#include "common/strings.h"
#include "common/thread_pool.h"
#include "engine/plan_chooser.h"
#include "ntga/ntga_compiler.h"

namespace rdfmr {

const char* EngineKindToString(EngineKind kind) {
  switch (kind) {
    case EngineKind::kPig:
      return "Pig";
    case EngineKind::kHive:
      return "Hive";
    case EngineKind::kNtgaEager:
      return "EagerUnnest";
    case EngineKind::kNtgaLazyFull:
      return "LazyUnnest-full";
    case EngineKind::kNtgaLazyPartial:
      return "LazyUnnest-partial";
    case EngineKind::kNtgaLazy:
      return "LazyUnnest";
    case EngineKind::kAuto:
      return "Auto";
  }
  return "?";
}

Result<EngineKind> EngineKindFromString(const std::string& name) {
  if (name == "pig") return EngineKind::kPig;
  if (name == "hive") return EngineKind::kHive;
  if (name == "eager") return EngineKind::kNtgaEager;
  if (name == "lazyfull") return EngineKind::kNtgaLazyFull;
  if (name == "lazypartial") return EngineKind::kNtgaLazyPartial;
  if (name == "lazy") return EngineKind::kNtgaLazy;
  if (name == "auto") return EngineKind::kAuto;
  return Status::InvalidArgument(
      "unknown engine: " + name +
      " (want pig|hive|eager|lazyfull|lazypartial|lazy|auto)");
}

namespace {

using QueryList = std::vector<std::shared_ptr<const GraphPatternQuery>>;

// The unnesting strategy an NTGA engine kind runs; nullopt for the
// relational engines and kAuto.
std::optional<NtgaStrategy> NtgaStrategyOf(EngineKind kind) {
  switch (kind) {
    case EngineKind::kNtgaEager:
      return NtgaStrategy::kEager;
    case EngineKind::kNtgaLazyFull:
      return NtgaStrategy::kLazyFull;
    case EngineKind::kNtgaLazyPartial:
      return NtgaStrategy::kLazyPartial;
    case EngineKind::kNtgaLazy:
      return NtgaStrategy::kLazyAuto;
    default:
      return std::nullopt;
  }
}

uint64_t SafeFileSize(const SimDfs& dfs, const std::string& path) {
  Result<uint64_t> size = dfs.FileSize(path);
  return size.ok() ? *size : 0;
}

// The distinct strings of `values`, sorted, as views into them.
std::vector<std::string_view> SortedDistinct(
    std::span<const std::string> values) {
  std::vector<std::string_view> views(values.begin(), values.end());
  std::sort(views.begin(), views.end());
  views.erase(std::unique(views.begin(), views.end()), views.end());
  return views;
}

// Sets *out to the distinct rows `rows` holds, each once, in handle order.
void DistinctRows(const SolutionSet::Builder& rows,
                  std::vector<const SolutionSet::Handle*>* out) {
  const size_t width = rows.width();
  out->clear();
  for (size_t c = 0; width > 0 && c < rows.cells().size(); c += width) {
    out->push_back(rows.cells().data() + c);
  }
  const auto less = [width](const auto* a, const auto* b) {
    return std::lexicographical_compare(a, a + width, b, b + width);
  };
  std::sort(out->begin(), out->end(), less);
  out->erase(std::unique(out->begin(), out->end(),
                         [&less](auto* a, auto* b) { return !less(a, b); }),
             out->end());
}

// Appends the COUNT/GROUP BY/HAVING cycle to a compiled plan. The mapper
// appends each final-output record's rows through the plan's decoder into
// its task's builder, cleared per record, finishing no table; in DISTINCT
// mode only the counted value is shipped (duplicate-proof), otherwise the
// full solution's canonical line is shipped so the reducer can deduplicate
// rows before counting. The group key is the canonical line of the group
// variables' bindings. The reducer writes those and count_var, the fixed
// header of the plan's new decoder.
void AppendAggregationCycle(CompiledPlan* plan, const AggregateSpec& spec,
                            const std::string& tmp_prefix) {
  // The group variables as the key binds them, sorted and each once, then
  // the counted one.
  std::vector<std::string> wanted = spec.group_vars;
  std::sort(wanted.begin(), wanted.end());
  wanted.erase(std::unique(wanted.begin(), wanted.end()), wanted.end());
  std::vector<std::string> header = wanted;
  header.insert(std::upper_bound(header.begin(), header.end(), spec.count_var),
                spec.count_var);
  wanted.push_back(spec.counted_var);
  std::vector<size_t> slots;  // per wanted variable, or kNoSlot
  for (const std::string& var : wanted) {
    slots.push_back(SlotOf(plan->decoder.variables, var));
  }
  JobSpec job;
  job.name = "aggregate-count";
  MapInput aggregate_input;
  aggregate_input.path = plan->workflow.final_output_path;
  aggregate_input.map =
      [decoder = std::make_shared<const AnswerDecoder>(plan->decoder), wanted,
       slots, distinct = spec.distinct,
       rows = SolutionSet::Builder(plan->decoder.variables),
       distinct_rows = std::vector<const SolutionSet::Handle*>()](
          const std::string& record, const MapEmit& emit,
          Counters* counters) mutable {
    rows.Clear();
    if (!decoder->append({&record, 1}, &rows).ok()) {
      (*counters)["bad_records"] += 1;
      return;
    }
    // Each distinct row once, as Finish would keep it, but in handle order
    // rather than term order: the combiner and the reducer sort and
    // deduplicate their values (SortedDistinct), so no byte depends on it.
    DistinctRows(rows, &distinct_rows);
    for (const SolutionSet::Handle* row : distinct_rows) {
      if (std::any_of(slots.begin(), slots.end(), [row](size_t slot) {
            return slot == kNoSlot || row[slot] == SolutionSet::kUnbound;
          })) {
        (*counters)["incomplete_solutions"] += 1;
        continue;
      }
      std::string key, value;
      for (size_t k = 0; k + 1 < wanted.size(); ++k) {
        AppendBinding(&key, k == 0, wanted[k], rows.term(row[slots[k]]));
      }
      if (distinct) {
        value = rows.term(row[slots.back()]);
      } else {
        AppendRowLine(rows.variables(), row, rows, &value);
      }
      emit(std::move(key), std::move(value));
    }
  };
  job.inputs.push_back(std::move(aggregate_input));
  job.reduce = [count_var = spec.count_var, min_count = spec.min_count](
                   const std::string& key,
                   std::span<const std::string> values,
                   const RecordEmit& emit, Counters* counters) {
    // Both modes count distinct values: counted values, or solution rows
    // (set semantics).
    const uint64_t count = SortedDistinct(values).size();
    if (count < min_count) {
      (*counters)["groups_below_threshold"] += 1;
      return;
    }
    SolutionLineReader group;
    if (!group.Read(key).ok()) {
      (*counters)["bad_records"] += 1;
      return;
    }
    // The group's bindings with the count in its place; Validate keeps
    // count_var apart from every group variable.
    std::vector<SolutionLineReader::Binding> bindings = group.bindings();
    const std::string n = std::to_string(count);
    const SolutionLineReader::Binding counted(count_var, n);
    bindings.insert(
        std::upper_bound(bindings.begin(), bindings.end(), counted), counted);
    std::string line;
    for (const auto& [var, value] : bindings) {
      AppendBinding(&line, line.empty(), var, value);
    }
    emit(std::move(line));
  };
  // Both modes ultimately count distinct values per group, so per-task
  // deduplication is a correct combiner: it is idempotent and any
  // cross-task duplicates are re-deduplicated at the reducer.
  job.combine = [](const std::string& /*key*/,
                   std::span<const std::string> values,
                   Counters* counters) {
    const std::vector<std::string_view> distinct = SortedDistinct(values);
    (*counters)["combine_output_records"] += distinct.size();
    return std::vector<std::string>(distinct.begin(), distinct.end());
  };
  job.output_path = tmp_prefix + "/aggregate";

  plan->workflow.intermediate_paths.push_back(
      plan->workflow.final_output_path);
  plan->workflow.final_output_path = job.output_path;
  plan->final_output_paths = {job.output_path};
  plan->workflow.jobs.push_back(std::move(job));
  plan->decoder = SolutionLineDecoder(std::move(header));
}

// The redundancy of a flat relational representation is measured against
// the nested triplegroup footprint of the same content: per subject, the
// subject once plus each distinct (Property, Object) pair once. Relational
// outputs repeat the subject per column group and the whole bound
// component per combination — that repetition is the redundancy.
//
// Lines are added one at a time and must outlive the meter: distinct
// subjects and (subject, "property\tobject") pairs are hashed as views
// into them, and only lines holding escapes keep unescaped copies.
class RedundancyMeter {
 public:
  void Add(std::string_view line) {
    flat_bytes_ += line.size() + 1;
    fields_.clear();
    EscapedFieldReader reader(line, '\t');
    for (std::string_view field; reader.Next(&field);) {
      fields_.push_back(field);
    }
    if (fields_.size() < 3 || fields_.size() % 3 != 0) {
      concise_bytes_ += line.size() + 1;  // not a flat tuple; keep as-is
      return;
    }
    const bool escaped = line.find('\\') != std::string_view::npos;
    for (size_t i = 0; i < fields_.size(); i += 3) {
      std::string_view subject = fields_[i];
      // Without escapes "property\tobject" is the raw bytes from the
      // property through the object.
      std::string_view po(fields_[i + 1].data(),
                          fields_[i + 2].data() + fields_[i + 2].size() -
                              fields_[i + 1].data());
      if (escaped) {
        subject = owned_.emplace_back(UnescapeField(subject, '\t'));
        po = owned_.emplace_back(UnescapeField(fields_[i + 1], '\t') + "\t" +
                                 UnescapeField(fields_[i + 2], '\t'));
      }
      if (subjects_.insert(subject).second) {
        concise_bytes_ += subject.size() + 1;
      }
      if (pairs_.insert({subject, po}).second) {
        concise_bytes_ += po.size() + 1;
      }
    }
  }

  double Factor() const {
    if (flat_bytes_ == 0 || concise_bytes_ >= flat_bytes_) return 0.0;
    return 1.0 - static_cast<double>(concise_bytes_) /
                     static_cast<double>(flat_bytes_);
  }

 private:
  struct PairHash {
    size_t operator()(
        const std::pair<std::string_view, std::string_view>& p) const {
      return std::hash<std::string_view>()(p.first) * 31 +
             std::hash<std::string_view>()(p.second);
    }
  };

  uint64_t flat_bytes_ = 0;
  uint64_t concise_bytes_ = 0;
  std::vector<std::string_view> fields_;  // scratch for the current line
  std::unordered_set<std::string_view> subjects_;
  std::unordered_set<std::pair<std::string_view, std::string_view>, PairHash>
      pairs_;
  std::deque<std::string> owned_;  // unescaped fields of escaped lines
};

using LinesPtr = std::shared_ptr<const std::vector<std::string>>;

// Redundancy factor over every line of `files`; null entries (missing
// files) contribute nothing.
double FilesRedundancy(const std::vector<LinesPtr>& files) {
  RedundancyMeter meter;
  for (const LinesPtr& lines : files) {
    if (lines == nullptr) continue;
    for (const std::string& line : *lines) meter.Add(line);
  }
  return meter.Factor();
}

// Reads back what a finished run left on the DFS: both redundancy factors
// and, when `decode` is set and the run succeeded, the decoded answers —
// one table over every answer file of `plan` into `exec->answers`, or with
// `per_file` one table per file into `exec->per_query`. The two meters and
// the decode's chunks run concurrently on `pool`.
//
// Redundancy measures flat relational tuples against their nested
// triplegroup footprint. NTGA output (`flat` false) is that nested
// footprint, so both factors stay 0 without metering; metering it would
// misread a record whose terms carry tabs as a flat tuple.
Status ReadBack(const SimDfs& dfs, const CompiledPlan& plan, bool flat,
                bool decode, bool per_file, ThreadPool* pool,
                ExecResult* exec) {
  ExecStats* stats = &exec->stats;
  // The star-join phase outputs, read in place.
  std::vector<LinesPtr> star_files;
  if (flat) {
    for (const std::string& path : plan.star_phase_paths) {
      Result<LinesPtr> lines = dfs.ReadLines(path);
      if (lines.ok()) star_files.push_back(lines.MoveValueUnsafe());
    }
  }
  // One read of each answer file serves the final redundancy factor and
  // the answer decode (verification, uncharged).
  const bool read_finals = stats->ok() && (flat || decode);
  std::vector<LinesPtr> finals;
  std::vector<std::span<const std::string>> files;  // empty for a missing one
  for (size_t f = 0; read_finals && f < plan.final_output_paths.size(); ++f) {
    const std::string& path = plan.final_output_paths[f];
    LinesPtr& lines = finals.emplace_back();
    std::span<const std::string>& file = files.emplace_back();
    if (dfs.Exists(path)) {
      RDFMR_ASSIGN_OR_RETURN(lines, dfs.ReadLines(path));
      file = *lines;
    }
  }
  decode = decode && read_finals;
  if (!decode) files.clear();
  ChunkedDecode decoding(plan.decoder, files);
  // The meters first: each is one item, longer than a decode chunk.
  std::vector<std::function<void()>> work;
  if (flat) {
    work.push_back(
        [&] { stats->redundancy_factor = FilesRedundancy(star_files); });
  }
  if (flat && read_finals) {
    work.push_back(
        [&] { stats->final_redundancy_factor = FilesRedundancy(finals); });
  }
  for (size_t c = 0; c < decoding.size(); ++c) {
    work.push_back([&decoding, c] { decoding.Append(c); });
  }
  pool->ParallelFor(work.size(), [&work](size_t i) { work[i](); });
  if (!decode) return Status::OK();
  if (!per_file) {
    RDFMR_ASSIGN_OR_RETURN(exec->answers, decoding.Finish(0, files.size()));
    return Status::OK();
  }
  for (size_t f = 0; f < files.size(); ++f) {
    RDFMR_ASSIGN_OR_RETURN(exec->per_query.emplace_back(),
                           decoding.Finish(f, f + 1));
  }
  return Status::OK();
}

// Compiles `request` under the run's `tmp_prefix`, runs its workflow under
// the `query` span, fills ExecStats from the workflow result and the
// output sizes, reads the outputs back (a batch's answers per query into
// ExecResult::per_query, a single or union payload's one table into
// ExecResult::answers), and then scrubs every temporary of the run from
// the DFS (also when the read-back fails).
Result<ExecResult> Run(SimDfs* dfs, const std::string& base_path,
                       const ExecRequest& request,
                       const std::string& tmp_prefix,
                       const std::string& query_name,
                       const EngineOptions& options, RunContext ctx) {
  RDFMR_ASSIGN_OR_RETURN(
      CompiledPlan plan, CompilePlan(request, base_path, tmp_prefix, options));
  const size_t planned_cycles = plan.workflow.jobs.size();
  // Keep every output around for the read-back below; everything under
  // tmp_prefix is scrubbed at the end of this function anyway.
  WorkflowSpec& workflow = plan.workflow;
  workflow.intermediate_paths.clear();
  workflow.final_output_path.clear();
  workflow.cleanup_demuxed_on_failure = false;

  ScopedSpan query_span(ctx, "query");
  query_span.Attr("engine", EngineKindToString(options.kind));
  query_span.Attr("query", query_name);
  query_span.Attr("planned_cycles", static_cast<uint64_t>(planned_cycles));
  // One pool serves the workflow and the read-back after it.
  ThreadPool pool(
      ResolveNumThreads(options.runtime, dfs->config().num_threads));
  WorkflowRunOptions wf_options;
  wf_options.cost = options.cost;
  wf_options.runtime = options.runtime;
  wf_options.pool = &pool;
  wf_options.ctx = query_span.context();
  WorkflowResult result = RunWorkflow(dfs, workflow, wf_options);
  query_span.Attr("mr_cycles",
                  static_cast<uint64_t>(result.num_mr_cycles()));
  query_span.Attr("status", result.status.ok()
                                ? std::string("ok")
                                : result.status.ToString());
  query_span.Close();

  // Everything below is observation (stat sampling, answer decoding,
  // cleanup), not engine work: it must not consume the fault plan's op
  // ordinals or probabilistic draws, or the injected fault sequence — and
  // with it the retry accounting — would depend on how much we measure.
  SimDfs::ScopedFaultSuspension suspend_faults(dfs);

  ExecResult exec;
  ExecStats& stats = exec.stats;
  stats.engine = EngineKindToString(options.kind);
  stats.query = query_name;
  stats.status = result.status;
  stats.failed_job_index = result.failed_job_index;
  stats.mr_cycles = result.num_mr_cycles();
  stats.planned_cycles = planned_cycles;
  stats.full_scans = result.totals.full_scans_of_base;
  stats.hdfs_read_bytes = result.totals.input_bytes;
  stats.hdfs_write_bytes = result.totals.output_bytes;
  stats.hdfs_write_bytes_replicated = result.totals.output_bytes_replicated;
  stats.shuffle_bytes = result.totals.map_output_bytes;
  stats.peak_dfs_used_bytes = result.peak_dfs_used_bytes;
  stats.modeled_seconds = result.modeled_seconds;
  stats.map_seconds = result.totals.map_seconds;
  stats.shuffle_sort_seconds = result.totals.shuffle_sort_seconds;
  stats.reduce_seconds = result.totals.reduce_seconds;
  stats.task_attempts = result.totals.task_attempts;
  stats.tasks_retried = result.totals.tasks_retried;
  stats.wasted_bytes = result.totals.wasted_bytes;
  stats.retry_backoff_seconds = result.totals.retry_backoff_seconds;
  stats.counters = std::move(result.totals.counters);
  stats.jobs = std::move(result.job_metrics);
  for (const std::string& path : plan.star_phase_paths) {
    stats.star_phase_write_bytes += SafeFileSize(*dfs, path);
  }
  for (const std::string& path : plan.final_output_paths) {
    stats.final_output_bytes += SafeFileSize(*dfs, path);
  }
  stats.intermediate_write_bytes =
      stats.hdfs_write_bytes - stats.final_output_bytes;

  const Status read_status =
      ReadBack(*dfs, plan, !NtgaStrategyOf(options.kind).has_value(),
               options.decode_answers,
               request.payload == ExecPayload::kBatch, &pool, &exec);

  // The reads above (stat sampling + decode) are observation, not engine
  // work; rebuilding the metric from job totals keeps accounting honest.
  dfs->ResetMetrics();

  // Remove every temporary of this run so the DFS is reusable.
  const std::string run_dir = tmp_prefix + "/";
  for (const std::string& path : dfs->ListFiles()) {
    if (StartsWith(path, run_dir)) {
      RDFMR_RETURN_NOT_OK(dfs->DeleteFile(path));
    }
  }
  RDFMR_RETURN_NOT_OK(read_status);
  return exec;
}

std::string NextTmpPrefix() {
  static std::atomic<uint64_t> run_counter{0};
  return StringFormat("tmp/run%llu",
                      static_cast<unsigned long long>(run_counter++));
}

Status CheckBasePath(const std::string& base_path) {
  if (StartsWith(base_path, kPlanTemplatePrefix)) {
    return Status::InvalidArgument(
        "base relation must not live under the plan-template namespace: " +
        base_path);
  }
  return Status::OK();
}

// ---- disk-pressure policy ---------------------------------------------------

// The chooser's row for `kind`; null if the table has none.
const PlanCandidate* RowFor(const PlanChoice& choice, EngineKind kind) {
  for (const PlanCandidate& candidate : choice.candidates) {
    if (candidate.kind == kind) return &candidate;
  }
  return nullptr;
}

// The disk-pressure policy's reading of the chooser's row for the engine
// that will run: proceed when the projection fits; under kDegrade switch an
// Eager run to LazyUnnest when that row fits; otherwise refuse without
// burning a cycle. Fills stats->preflight, stats->degraded_from and, for a
// refusal, the measured failure the run records.
//
// Eager is the only strategy with a cheaper sibling that answers the same
// query with the same engine family: partial/lazy β-unnest. The relational
// engines have no such fallback (switching them to NTGA would change the
// system under test), and an over-capacity lazy projection has nowhere
// left to go.
void ReadDiskPressure(const PlanChoice& choice, const PlanCandidate& row,
                      const std::string& refused_name,
                      uint64_t capacity_bytes, EngineOptions* options,
                      ExecStats* stats) {
  const std::string peak = HumanBytes(row.peak_bytes);
  const std::string capacity = HumanBytes(capacity_bytes);
  if (row.fits) {
    stats->preflight = StringFormat("preflight: projected peak %s fits "
                                    "capacity %s",
                                    peak.c_str(), capacity.c_str());
    return;
  }
  const PlanCandidate* lazy = RowFor(choice, EngineKind::kNtgaLazy);
  if (options->disk_pressure == DiskPressurePolicy::kDegrade &&
      row.kind == EngineKind::kNtgaEager && lazy != nullptr && lazy->fits) {
    stats->degraded_from = EngineKindToString(row.kind);
    options->kind = EngineKind::kNtgaLazy;
    stats->preflight = StringFormat(
        "preflight: eager projection %s exceeds capacity %s; degraded "
        "to LazyUnnest (projected peak %s)",
        peak.c_str(), capacity.c_str(),
        HumanBytes(lazy->peak_bytes).c_str());
    return;
  }
  // The run never launches, so it burns zero MR cycles — unlike the
  // paper's mid-workflow deaths, which waste hours before the 'X'.
  stats->preflight = StringFormat(
      "preflight: projected peak %s exceeds capacity %s; refusing to "
      "launch",
      peak.c_str(), capacity.c_str());
  stats->status = Status::ResourceExhausted(StringFormat(
      "%s: projected intermediate footprint %s exceeds cluster capacity "
      "%s for engine %s",
      refused_name.c_str(), peak.c_str(), capacity.c_str(),
      EngineKindToString(row.kind)));
  stats->failed_job_index = 0;
  stats->planned_cycles = row.planned_cycles;
}

}  // namespace

double ComputeRedundancyFactor(const std::vector<std::string>& lines) {
  RedundancyMeter meter;
  for (const std::string& line : lines) meter.Add(line);
  return meter.Factor();
}

std::string RunName(const ExecRequest& request) {
  switch (request.payload) {
    case ExecPayload::kSingle:
      return request.aggregate.has_value() ? request.query->name() + "+count"
                                           : request.query->name();
    case ExecPayload::kBatch:
      return StringFormat("batch-of-%zu", request.queries.size());
    case ExecPayload::kUnion:
      return StringFormat("union-of-%zu", request.queries.size());
  }
  return "";
}

Status CheckExecRequest(const ExecRequest& request,
                        const EngineOptions& options) {
  // φ_m partitions the join keys of TG_OptUnbJoin; the partial β-unnest's
  // partition function needs at least one partition.
  if (options.phi_partitions == 0) {
    return Status::InvalidArgument("phi_partitions must be at least 1");
  }
  if (request.payload == ExecPayload::kSingle) {
    if (request.query == nullptr) {
      return Status::InvalidArgument("a single payload needs a query");
    }
    return Status::OK();
  }
  if (request.aggregate.has_value()) {
    return Status::InvalidArgument(
        "aggregate applies to the single payload only");
  }
  if (request.queries.empty()) {
    return Status::InvalidArgument(
        "a batch/union payload needs at least one query");
  }
  if (std::find(request.queries.begin(), request.queries.end(), nullptr) !=
      request.queries.end()) {
    return Status::InvalidArgument("a batch/union member is null");
  }
  return Status::OK();
}

Result<CompiledPlan> CompilePlan(const ExecRequest& request,
                                 const std::string& base_path,
                                 const std::string& tmp_prefix,
                                 const EngineOptions& options) {
  RDFMR_RETURN_NOT_OK(CheckExecRequest(request, options));
  if (request.aggregate.has_value()) {
    RDFMR_RETURN_NOT_OK(request.aggregate->Validate(*request.query));
  }
  const bool single = request.payload == ExecPayload::kSingle;
  CompiledPlan plan;
  if (options.kind == EngineKind::kPig || options.kind == EngineKind::kHive) {
    if (!single) {
      return Status::InvalidArgument(
          "a batch shares the NTGA grouping cycle; relational engines "
          "have nothing to share — run them per query");
    }
    RelationalOptions rel;
    rel.style = options.kind == EngineKind::kPig ? RelationalStyle::kPig
                                                 : RelationalStyle::kHive;
    rel.grouping = options.grouping;
    RDFMR_ASSIGN_OR_RETURN(
        plan,
        CompileRelationalPlan(request.query, base_path, tmp_prefix, rel));
  } else {
    const std::optional<NtgaStrategy> strategy =
        NtgaStrategyOf(options.kind);
    if (!strategy.has_value()) {
      return Status::InvalidArgument(
          "engine auto must be resolved by the plan chooser before "
          "compilation");
    }
    NtgaOptions ntga;
    ntga.phi_partitions = options.phi_partitions;
    ntga.strategy = *strategy;
    RDFMR_ASSIGN_OR_RETURN(
        plan, CompileNtgaPlan(single ? QueryList{request.query}
                                     : request.queries,
                              base_path, tmp_prefix, ntga));
  }
  if (request.aggregate.has_value()) {
    AppendAggregationCycle(&plan, *request.aggregate, tmp_prefix);
  }
  return plan;
}

Result<CompiledPlan> CompileQueryPlanTemplate(
    std::shared_ptr<const GraphPatternQuery> query,
    const std::string& base_path,
    const std::optional<AggregateSpec>& aggregate,
    const EngineOptions& options) {
  RDFMR_RETURN_NOT_OK(CheckBasePath(base_path));
  return CompilePlan(ExecRequest::Single(std::move(query), aggregate),
                     base_path, kPlanTemplatePrefix, options);
}

Result<ExecResult> Exec(SimDfs* dfs, const std::string& base_path,
                        const ExecRequest& request,
                        const EngineOptions& options, RunContext ctx) {
  if (dfs == nullptr) {
    return Status::InvalidArgument("Exec needs a dfs");
  }
  RDFMR_RETURN_NOT_OK(CheckExecRequest(request, options));
  if (!dfs->Exists(base_path)) {
    return Status::NotFound("base triple relation missing: " + base_path);
  }

  // Selection: kAuto takes the chooser's pick, and a disk-pressure policy
  // reads the row of the engine that will run. Everything downstream
  // (including ExecStats.engine) sees the selected kind, so an auto or
  // degraded run is byte-identical to running that engine explicitly.
  const std::string run_name = RunName(request);
  EngineOptions effective = options;
  ExecStats selection;  // the chooser's and the policy's annotations
  if (options.kind == EngineKind::kAuto ||
      options.disk_pressure != DiskPressurePolicy::kNone) {
    Result<PlanChoice> choice =
        ChoosePlanOnDfs(dfs, base_path, request, options);
    // ChoosePlan fails with InvalidArgument only when no candidate
    // compiles; an explicit engine then fails to compile below with its
    // own error.
    if (!choice.ok() && (options.kind == EngineKind::kAuto ||
                         !choice.status().IsInvalidArgument())) {
      return choice.status();
    }
    if (options.kind == EngineKind::kAuto) effective.kind = choice->kind;
    const PlanCandidate* row =
        choice.ok() ? RowFor(*choice, effective.kind) : nullptr;
    if (options.disk_pressure != DiskPressurePolicy::kNone &&
        row != nullptr && row->feasible) {
      const std::string refused_name =
          request.payload == ExecPayload::kSingle ? request.query->name()
                                                  : run_name;
      ReadDiskPressure(*choice, *row, refused_name,
                       dfs->config().TotalCapacity(), &effective,
                       &selection);
    }
    if (options.kind == EngineKind::kAuto) {
      selection.chosen_engine = EngineKindToString(choice->kind);
      selection.plan_candidates = std::move(choice->candidates);
      selection.plan_rationale = std::move(choice->rationale);
    }
  }

  const std::string tmp_prefix = NextTmpPrefix();
  ExecResult result;
  if (!selection.status.ok()) {
    result.stats = std::move(selection);
    result.stats.engine = EngineKindToString(effective.kind);
    result.stats.query = run_name;
    return result;
  }
  RDFMR_ASSIGN_OR_RETURN(result, Run(dfs, base_path, request, tmp_prefix,
                                     run_name, effective, ctx));
  result.stats.degraded_from = std::move(selection.degraded_from);
  result.stats.preflight = std::move(selection.preflight);
  result.stats.chosen_engine = std::move(selection.chosen_engine);
  result.stats.plan_candidates = std::move(selection.plan_candidates);
  result.stats.plan_rationale = std::move(selection.plan_rationale);
  return result;
}

}  // namespace rdfmr

#include "testing/differential.h"

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <fstream>
#include <set>
#include <sstream>

#include "common/strings.h"
#include "common/trace.h"
#include "dfs/fault_plan.h"
#include "query/matcher.h"
#include "testing/invariants.h"

namespace rdfmr {
namespace fuzz {

namespace {

bool IsNtga(EngineKind kind) {
  return kind == EngineKind::kNtgaEager ||
         kind == EngineKind::kNtgaLazyFull ||
         kind == EngineKind::kNtgaLazyPartial ||
         kind == EngineKind::kNtgaLazy;
}

const char* EngineKindCppName(EngineKind kind) {
  switch (kind) {
    case EngineKind::kPig:
      return "EngineKind::kPig";
    case EngineKind::kHive:
      return "EngineKind::kHive";
    case EngineKind::kNtgaEager:
      return "EngineKind::kNtgaEager";
    case EngineKind::kNtgaLazyFull:
      return "EngineKind::kNtgaLazyFull";
    case EngineKind::kNtgaLazyPartial:
      return "EngineKind::kNtgaLazyPartial";
    case EngineKind::kNtgaLazy:
      return "EngineKind::kNtgaLazy";
    case EngineKind::kAuto:
      return "EngineKind::kAuto";
  }
  return "EngineKind::kNtgaLazy";
}

std::vector<EngineKind> AllKinds() {
  return {EngineKind::kPig,          EngineKind::kHive,
          EngineKind::kNtgaEager,    EngineKind::kNtgaLazyFull,
          EngineKind::kNtgaLazyPartial, EngineKind::kNtgaLazy};
}

// C++ string literal with quote/backslash escaping (fuzz terms are plain
// ASCII identifiers and literals, but a repro must round-trip anything).
std::string CppStr(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '\\' || c == '"') out += '\\';
    out += c;
  }
  out += '"';
  return out;
}

std::string DescribeAnswerDiff(const SolutionSet& expected,
                               const SolutionSet& got) {
  std::string out = StringFormat("expected %zu answers, got %zu",
                                 expected.size(), got.size());
  // Both tables are in canonical order: one merge walk finds the rows
  // only one side holds.
  size_t i = 0, j = 0, missing = 0, spurious = 0;
  std::string missing_text, spurious_text;
  while (i < expected.size() || j < got.size()) {
    if (j == got.size() ||
        (i < expected.size() && expected.Row(i) < got.Row(j))) {
      if (missing++ < 3) {
        missing_text += "; missing {";
        expected.AppendSerialized(i, &missing_text);
        missing_text += "}";
      }
      ++i;
    } else if (i == expected.size() || got.Row(j) < expected.Row(i)) {
      if (spurious++ < 3) {
        spurious_text += "; spurious {";
        got.AppendSerialized(j, &spurious_text);
        spurious_text += "}";
      }
      ++j;
    } else {
      ++i;
      ++j;
    }
  }
  return out + missing_text + spurious_text;
}

// FNV-1a over the cell identity: every case x engine x thread cell gets
// its own independent fault stream, so one seed covers many distinct
// fault schedules without coupling cells to each other.
uint64_t FaultSeedFor(uint64_t base_seed, const std::string& case_name,
                      EngineKind kind, uint32_t threads) {
  uint64_t h = 14695981039346656037ULL ^ base_seed;
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  for (char c : case_name) mix(static_cast<unsigned char>(c));
  mix(static_cast<uint64_t>(kind) + 1);
  mix(threads);
  return h;
}

bool IsTransientFailure(const Status& status) {
  return status.code() == StatusCode::kIoError ||
         status.code() == StatusCode::kUnavailable;
}

Result<std::shared_ptr<const GraphPatternQuery>> BuildQuery(
    const FuzzCase& fuzz_case) {
  RDFMR_ASSIGN_OR_RETURN(
      GraphPatternQuery query,
      GraphPatternQuery::Create(fuzz_case.name, fuzz_case.patterns));
  return std::make_shared<const GraphPatternQuery>(std::move(query));
}

}  // namespace

DifferentialConfig::DifferentialConfig() {
  cluster.num_nodes = 8;
  cluster.disk_per_node = 64ULL << 20;
  cluster.replication = 1;
  // Small blocks so fuzz-sized inputs still decompose into several map
  // tasks — multi-threaded runs then genuinely interleave, making the
  // byte-identical-stats check meaningful.
  cluster.block_size = 2048;
  cluster.num_reducers = 3;
}

CaseOutcome RunCase(const FuzzCase& fuzz_case,
                    const DifferentialConfig& config) {
  CaseOutcome outcome;
  Result<std::shared_ptr<const GraphPatternQuery>> query =
      BuildQuery(fuzz_case);
  if (!query.ok()) {
    outcome.query_invalid = true;
    return outcome;
  }

  SolutionSet expected =
      fuzz_case.aggregate.has_value()
          ? EvaluateAggregateInMemory(**query, *fuzz_case.aggregate,
                                      fuzz_case.triples)
          : EvaluateQueryInMemory(**query, fuzz_case.triples);
  outcome.expected_answers = expected.size();

  std::vector<std::string> base_lines = SerializeTriples(fuzz_case.triples);
  const std::vector<EngineKind> engines =
      config.engines.empty() ? AllKinds() : config.engines;

  for (EngineKind kind : engines) {
    std::optional<ExecStats> reference_stats;
    std::optional<SolutionSet> reference_answers;
    for (uint32_t threads : config.thread_counts) {
      const std::string tag = StringFormat(
          "[%s t=%u] ", EngineKindToString(kind), (unsigned)threads);
      SimDfs dfs(config.cluster);
      Status load = dfs.WriteFile("base", base_lines);
      if (!load.ok()) {
        outcome.violations.push_back(tag + "loading base relation: " +
                                     load.ToString());
        continue;
      }
      InvariantContext ctx;
      Result<uint64_t> base_size = dfs.FileSize("base");
      ctx.base_bytes_replicated =
          (base_size.ok() ? *base_size : 0) * config.cluster.replication;
      ctx.replication = config.cluster.replication;
      ctx.ntga_engine = IsNtga(kind);

      EngineOptions options;
      options.kind = kind;
      options.phi_partitions = config.phi_partitions;
      options.runtime.num_threads = threads;
      Trace trace;
      RunContext run_ctx;
      if (!config.trace_dir.empty()) run_ctx = RunContext::ForTrace(&trace);
      const ExecRequest request =
          ExecRequest::Single(*query, fuzz_case.aggregate);
      Result<ExecResult> exec = Exec(&dfs, "base", request, options, run_ctx);
      if (!config.trace_dir.empty()) {
        const std::string path = StringFormat(
            "%s/%s-%s-t%u.json", config.trace_dir.c_str(),
            fuzz_case.name.c_str(), EngineKindToString(kind),
            (unsigned)threads);
        std::ofstream out(path);
        if (out) {
          out << trace.ToChromeJson();
        } else {
          outcome.violations.push_back(tag + "cannot write trace file: " +
                                       path);
        }
      }
      if (!exec.ok()) {
        outcome.violations.push_back(tag + "infrastructure error: " +
                                     exec.status().ToString());
        continue;
      }
      if (!exec->stats.ok()) {
        outcome.violations.push_back(
            tag + StringFormat("engine failed at job %d: ",
                               exec->stats.failed_job_index) +
            exec->stats.status.ToString());
        continue;
      }
      if (exec->answers != expected) {
        outcome.violations.push_back(
            tag + "answer mismatch vs oracle: " +
            DescribeAnswerDiff(expected, exec->answers));
      }
      for (const std::string& violation :
           CheckStatsInvariants(exec->stats, ctx)) {
        outcome.violations.push_back(tag + violation);
      }
      if (!reference_stats.has_value()) {
        reference_stats = exec->stats;
        reference_answers = exec->answers;
      } else {
        for (const std::string& violation :
             CompareStatsIgnoringWallTimes(*reference_stats, exec->stats)) {
          outcome.violations.push_back(tag + violation);
        }
        if (*reference_answers != exec->answers) {
          outcome.violations.push_back(
              tag + "answers differ across thread counts");
        }
      }

      if (!config.inject_faults) continue;
      // Same cell again, on a fresh DFS, under a seeded probabilistic
      // fault plan with retry enabled. Survival is optional (retry
      // exhaustion is a legitimate outcome at these probabilities), but a
      // survivor must match the fault-free run byte-for-byte on answers
      // and every deterministic stat.
      outcome.faulty_runs += 1;
      const std::string fault_tag = tag + "[faults] ";
      SimDfs faulty_dfs(config.cluster);
      Status fault_load = faulty_dfs.WriteFile("base", base_lines);
      if (!fault_load.ok()) {
        outcome.violations.push_back(fault_tag + "loading base relation: " +
                                     fault_load.ToString());
        continue;
      }
      FaultPlan plan;
      plan.seed = FaultSeedFor(config.fault_seed, fuzz_case.name, kind,
                               threads);
      plan.read_failure_prob = config.fault_read_prob;
      plan.write_failure_prob = config.fault_write_prob;
      Status armed = faulty_dfs.SetFaultPlan(plan);
      if (!armed.ok()) {
        outcome.violations.push_back(fault_tag + "installing fault plan: " +
                                     armed.ToString());
        continue;
      }
      EngineOptions faulty_options = options;
      faulty_options.runtime.max_attempts = config.fault_max_attempts;
      Result<ExecResult> faulty =
          Exec(&faulty_dfs, "base", request, faulty_options);
      if (!faulty.ok()) {
        outcome.violations.push_back(fault_tag + "infrastructure error: " +
                                     faulty.status().ToString());
        continue;
      }
      if (!faulty->stats.ok()) {
        if (IsTransientFailure(faulty->stats.status)) {
          outcome.faulty_exhausted += 1;  // ran out of attempts: skip
        } else {
          outcome.violations.push_back(
              fault_tag + "non-transient failure under injected faults: " +
              faulty->stats.status.ToString());
        }
        continue;
      }
      outcome.faulty_survived += 1;
      outcome.faulty_retried_ops += faulty->stats.tasks_retried;
      if (faulty->answers != expected) {
        outcome.violations.push_back(
            fault_tag + "answer mismatch vs oracle: " +
            DescribeAnswerDiff(expected, faulty->answers));
      }
      for (const std::string& violation :
           CompareStatsIgnoringWallTimes(exec->stats, faulty->stats)) {
        outcome.violations.push_back(fault_tag + violation);
      }
    }
  }
  return outcome;
}

namespace {

bool StillFails(const FuzzCase& fuzz_case, const DifferentialConfig& config) {
  CaseOutcome outcome = RunCase(fuzz_case, config);
  return !outcome.query_invalid && !outcome.ok();
}

// One sweep removing `chunk`-sized slices of triples; returns true if
// anything was removed.
bool SweepTriples(FuzzCase* current, const DifferentialConfig& config,
                  size_t chunk) {
  bool removed = false;
  size_t start = 0;
  while (start < current->triples.size()) {
    FuzzCase candidate = *current;
    size_t len = std::min(chunk, candidate.triples.size() - start);
    candidate.triples.erase(
        candidate.triples.begin() + static_cast<ptrdiff_t>(start),
        candidate.triples.begin() + static_cast<ptrdiff_t>(start + len));
    if (StillFails(candidate, config)) {
      *current = std::move(candidate);
      removed = true;  // same start now covers the next slice
    } else {
      start += chunk;
    }
  }
  return removed;
}

}  // namespace

FuzzCase ShrinkCase(const FuzzCase& fuzz_case,
                    const DifferentialConfig& config) {
  FuzzCase current = fuzz_case;
  if (!StillFails(current, config)) return current;  // flaky; keep as-is

  // Pass 1: triples — halving chunk sizes, then single-triple sweeps until
  // a fixpoint.
  for (size_t chunk = std::max<size_t>(current.triples.size() / 2, 1);;) {
    bool removed = SweepTriples(&current, config, chunk);
    if (chunk > 1) {
      chunk /= 2;
    } else if (!removed) {
      break;
    }
  }

  // Pass 2: triple patterns, last to first, until a fixpoint. Removals
  // that break the query (disconnected join graph, all-OPTIONAL star) are
  // rejected by StillFails via query_invalid.
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t i = current.patterns.size(); i-- > 0;) {
      if (current.patterns.size() <= 1) break;
      FuzzCase candidate = current;
      candidate.patterns.erase(candidate.patterns.begin() +
                               static_cast<ptrdiff_t>(i));
      if (StillFails(candidate, config)) {
        current = std::move(candidate);
        changed = true;
      }
    }
  }

  // Pass 3: the aggregate, if the BGP alone reproduces the failure.
  if (current.aggregate.has_value()) {
    FuzzCase candidate = current;
    candidate.aggregate.reset();
    if (StillFails(candidate, config)) current = std::move(candidate);
  }

  // Pass 4: dropping patterns may have freed more triples.
  while (SweepTriples(&current, config, 1)) {
  }
  return current;
}

std::string ReproTestBody(const FuzzCase& fuzz_case,
                          const CaseOutcome& outcome) {
  std::ostringstream out;
  std::string test_name;
  for (char c : fuzz_case.name) {
    test_name += (std::isalnum(static_cast<unsigned char>(c)) != 0) ? c : '_';
  }
  out << "// Shrunk differential-fuzz repro: " << fuzz_case.name << "\n";
  size_t shown = 0;
  for (const std::string& violation : outcome.violations) {
    if (shown++ == 5) {
      out << "//   ... " << (outcome.violations.size() - 5) << " more\n";
      break;
    }
    out << "//   - " << violation << "\n";
  }
  out << "TEST(FuzzRepro, " << test_name << ") {\n";
  out << "  const std::vector<Triple> triples = {\n";
  for (const Triple& t : fuzz_case.triples) {
    out << "      {" << CppStr(t.subject) << ", " << CppStr(t.property)
        << ", " << CppStr(t.object) << "},\n";
  }
  out << "  };\n";
  out << "  std::vector<TriplePattern> patterns;\n";
  for (const TriplePattern& tp : fuzz_case.patterns) {
    out << "  {\n    TriplePattern tp;\n";
    out << "    tp.subject = NodePattern::Var(" << CppStr(tp.subject.value)
        << ");\n";
    if (tp.property_bound) {
      out << "    tp.property = " << CppStr(tp.property) << ";\n";
    } else {
      out << "    tp.property_bound = false;\n";
      out << "    tp.property = " << CppStr(tp.property) << ";\n";
    }
    if (tp.object.is_constant()) {
      out << "    tp.object = NodePattern::Const(" << CppStr(tp.object.value)
          << ");\n";
    } else if (!tp.object.contains_filter.empty()) {
      out << "    tp.object = NodePattern::Var(" << CppStr(tp.object.value)
          << ", " << CppStr(tp.object.contains_filter) << ");\n";
    } else {
      out << "    tp.object = NodePattern::Var(" << CppStr(tp.object.value)
          << ");\n";
    }
    if (tp.optional) out << "    tp.optional = true;\n";
    out << "    patterns.push_back(std::move(tp));\n  }\n";
  }
  out << "  auto built = GraphPatternQuery::Create(\"repro\", patterns);\n";
  out << "  ASSERT_TRUE(built.ok()) << built.status().ToString();\n";
  out << "  auto query = std::make_shared<const GraphPatternQuery>(\n"
         "      built.MoveValueUnsafe());\n";
  if (fuzz_case.aggregate.has_value()) {
    const AggregateSpec& spec = *fuzz_case.aggregate;
    out << "  AggregateSpec spec;\n";
    out << "  spec.group_vars = {";
    for (size_t i = 0; i < spec.group_vars.size(); ++i) {
      out << (i > 0 ? ", " : "") << CppStr(spec.group_vars[i]);
    }
    out << "};\n";
    out << "  spec.counted_var = " << CppStr(spec.counted_var) << ";\n";
    out << "  spec.count_var = " << CppStr(spec.count_var) << ";\n";
    out << "  spec.distinct = " << (spec.distinct ? "true" : "false")
        << ";\n";
    out << "  spec.min_count = " << spec.min_count << ";\n";
    out << "  const SolutionSet expected =\n"
           "      EvaluateAggregateInMemory(*query, spec, triples);\n";
    out << "  const ExecRequest request = ExecRequest::Single(query, spec);\n";
  } else {
    out << "  const SolutionSet expected = "
           "EvaluateQueryInMemory(*query, triples);\n";
    out << "  const ExecRequest request = ExecRequest::Single(query);\n";
  }
  out << "  for (EngineKind kind :\n       {";
  std::vector<EngineKind> engines = AllKinds();
  for (size_t i = 0; i < engines.size(); ++i) {
    out << (i > 0 ? ", " : "") << EngineKindCppName(engines[i]);
    if (i == 2) out << "\n        ";
  }
  out << "}) {\n";
  out << "    ClusterConfig cluster;\n"
         "    cluster.block_size = 2048;\n"
         "    cluster.num_reducers = 3;\n"
         "    SimDfs dfs(cluster);\n"
         "    ASSERT_TRUE(dfs.WriteFile(\"base\", "
         "SerializeTriples(triples)).ok());\n"
         "    EngineOptions options;\n"
         "    options.kind = kind;\n"
         "    options.phi_partitions = 16;\n"
         "    auto exec = Exec(&dfs, \"base\", request, options);\n";
  out << "    ASSERT_TRUE(exec.ok()) << exec.status().ToString();\n"
         "    ASSERT_TRUE(exec->stats.ok()) << "
         "exec->stats.status.ToString();\n"
         "    EXPECT_TRUE(exec->answers == expected)\n"
         "        << \"answer mismatch on \" << "
         "EngineKindToString(kind);\n"
         "  }\n"
         "}\n";
  return out.str();
}

FuzzCase MakeCase(const FuzzOptions& options, uint64_t index) {
  // Per-case independent stream: replaying case i never depends on the
  // cases before it.
  Rng rng(options.seed ^ (0x9E3779B97F4A7C15ULL * (index + 1)));
  FuzzCase fuzz_case;
  fuzz_case.name = StringFormat("fuzz-s%llu-c%llu",
                                (unsigned long long)options.seed,
                                (unsigned long long)index);
  fuzz_case.triples = GenerateGraph(options.graph, &rng);
  GraphVocabulary vocab = VocabularyOf(options.graph);
  GeneratedQuery generated = GenerateQuery(options.query, vocab, &rng);
  fuzz_case.patterns = std::move(generated.patterns);
  fuzz_case.aggregate = std::move(generated.aggregate);
  return fuzz_case;
}

std::string FuzzReport::Summary() const {
  std::string summary = StringFormat(
      "%llu cases: %llu with unbound patterns, %llu with OPTIONAL, "
      "%llu with aggregates, %llu multi-star, %llu with non-empty ground "
      "truth; %zu failure(s)",
      (unsigned long long)cases_run, (unsigned long long)with_unbound,
      (unsigned long long)with_optional, (unsigned long long)with_aggregate,
      (unsigned long long)multi_star,
      (unsigned long long)nonempty_ground_truth, failures.size());
  if (faulty_runs > 0) {
    summary += StringFormat(
        "; faults: %llu run(s), %llu survived, %llu exhausted retries, "
        "%llu op(s) retried",
        (unsigned long long)faulty_runs, (unsigned long long)faulty_survived,
        (unsigned long long)faulty_exhausted,
        (unsigned long long)faulty_retried_ops);
  }
  return summary;
}

FuzzReport RunFuzz(const FuzzOptions& options, std::ostream* log) {
  FuzzReport report;
  for (uint64_t i = 0; i < options.cases; ++i) {
    FuzzCase fuzz_case = MakeCase(options, i);
    report.cases_run += 1;

    std::set<std::string> subjects;
    bool unbound = false, optional = false;
    for (const TriplePattern& tp : fuzz_case.patterns) {
      subjects.insert(tp.subject.value);
      unbound = unbound || tp.unbound_property();
      optional = optional || tp.optional;
    }
    if (unbound) report.with_unbound += 1;
    if (optional) report.with_optional += 1;
    if (fuzz_case.aggregate.has_value()) report.with_aggregate += 1;
    if (subjects.size() > 1) report.multi_star += 1;

    CaseOutcome outcome = RunCase(fuzz_case, options.diff);
    if (outcome.expected_answers > 0) report.nonempty_ground_truth += 1;
    report.faulty_runs += outcome.faulty_runs;
    report.faulty_survived += outcome.faulty_survived;
    report.faulty_exhausted += outcome.faulty_exhausted;
    report.faulty_retried_ops += outcome.faulty_retried_ops;
    if (outcome.ok()) {
      if (log != nullptr && (i + 1) % 50 == 0) {
        *log << "  ... " << (i + 1) << "/" << options.cases
             << " cases clean\n";
      }
      continue;
    }

    FuzzFailure failure;
    failure.case_index = i;
    failure.shrunk =
        options.shrink ? ShrinkCase(fuzz_case, options.diff) : fuzz_case;
    failure.outcome = RunCase(failure.shrunk, options.diff);
    if (failure.outcome.ok()) failure.outcome = outcome;  // flaky shrink
    failure.repro = ReproTestBody(failure.shrunk, failure.outcome);
    if (log != nullptr) {
      *log << "FAILURE in case " << i << " (" << fuzz_case.name << "): "
           << failure.outcome.violations.size() << " violation(s)\n";
      for (const std::string& violation : failure.outcome.violations) {
        *log << "  " << violation << "\n";
      }
      *log << "shrunk to " << failure.shrunk.triples.size()
           << " triple(s), " << failure.shrunk.patterns.size()
           << " pattern(s); repro test body:\n\n"
           << failure.repro << "\n";
    }
    report.failures.push_back(std::move(failure));
    if (options.max_failures > 0 &&
        report.failures.size() >= options.max_failures) {
      break;
    }
  }
  if (log != nullptr) *log << report.Summary() << "\n";
  return report;
}

}  // namespace fuzz
}  // namespace rdfmr

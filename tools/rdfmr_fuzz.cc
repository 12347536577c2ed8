// rdfmr_fuzz — cross-engine differential fuzzing driver.
//
//   rdfmr_fuzz --seed N --cases M
//       Run M seeded-random (graph, query) cases through every engine kind
//       x {1, 4} host threads, comparing answers against the in-memory
//       oracle and checking the metrics-invariant catalog. Failing cases
//       are shrunk and printed as ready-to-paste C++ test bodies. Exit 0
//       iff every case is clean.
//
//   Options:
//     --seed N          PRNG stream (default 1); every case replays
//                       standalone from (seed, index).
//     --cases M         number of cases (default 100)
//     --min-unbound K   force at least K unbound-property patterns per query
//     --max-failures K  stop after K failures (default 1; 0 = run all)
//     --no-shrink       report failures raw, without minimization
//     --quiet           suppress per-case progress lines
//     --faults          re-run every engine x thread cell under a seeded
//                       probabilistic FaultPlan with task retry enabled:
//                       a faulty run that survives must match the
//                       fault-free run byte-for-byte on answers and
//                       deterministic stats; retry exhaustion is skipped.
//     --inject-bug      self-test: flip the β group-filter's unbound-pattern
//                       verdict (a seeded NTGA defect) and require the
//                       harness to catch it AND shrink it to <= 10 triples;
//                       exit 0 iff it does.
//     --service         replay every case through a live `rdfmr serve`
//                       socket (spun up in-process) instead of the direct
//                       engine calls, comparing the served answers against
//                       the in-memory oracle and requiring an immediate
//                       byte-identical result-cache replay, for engines
//                       lazy, hive and auto. Exercises the whole protocol
//                       stack: load (epoch bump per case), query with
//                       inline patterns, caches, shutdown.
//     --format          storage-format differential: each case is indexed
//                       into a temporary .rdx file, memory-mapped back,
//                       and required to reproduce the exact input relation
//                       (vector equality), a correct per-property index, a
//                       deterministic image, and oracle-identical answers
//                       evaluated over the decoded triples. Every case then
//                       runs one engine kind (rotating through all six)
//                       twice — once over a DFS holding the decoded triple
//                       vector, once over a DFS with the .rdx mapping
//                       MOUNTED (the zero-materialization scan path) — and
//                       requires byte-identical answers against the oracle
//                       and byte-identical deterministic ExecStats between
//                       the two paths.
//     --auto            plan-chooser differential: every case runs once
//                       with engine=auto and once with the engine the
//                       chooser reports having picked, on separate fresh
//                       DFS instances. Both runs must match the in-memory
//                       oracle, and the auto run's deterministic stats
//                       must be byte-identical to the explicit run's.
//                       Vacuity gate: a sweep that never picks at least
//                       two distinct engine kinds fails loudly (the
//                       chooser would be a constant, not a cost model).
//     --trace-dir DIR   write one Chrome trace-event JSON file per
//                       fault-free engine x thread run into DIR
//                       (<case>-<engine>-t<threads>.json); DIR must exist.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/strings.h"
#include "engine/engine.h"
#include "ntga/operators.h"
#include "query/matcher.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/query_service.h"
#include "service/server.h"
#include "storage/mapped_dataset.h"
#include "storage/rdx_reader.h"
#include "storage/rdx_writer.h"
#include "testing/differential.h"
#include "testing/invariants.h"

namespace rdfmr {
namespace {

class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (StartsWith(arg, "--")) {
        std::string key = arg.substr(2);
        if (i + 1 < argc && !StartsWith(argv[i + 1], "--")) {
          values_[key] = argv[++i];
        } else {
          values_[key] = "";
        }
      } else {
        std::fprintf(stderr, "unexpected argument: %s\n", arg.c_str());
        ok_ = false;
      }
    }
  }

  bool ok() const { return ok_; }
  bool Has(const std::string& key) const { return values_.count(key) > 0; }
  std::string Get(const std::string& key, std::string fallback = "") const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  uint64_t GetInt(const std::string& key, uint64_t fallback) const {
    auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    try {
      return std::stoull(it->second);
    } catch (...) {
      std::fprintf(stderr, "bad integer for --%s: %s\n", key.c_str(),
                   it->second.c_str());
      return fallback;
    }
  }

 private:
  std::map<std::string, std::string> values_;
  bool ok_ = true;
};

/// Serializes a solution set into the sorted line vector the protocol
/// emits for "answers".
std::vector<std::string> AnswerLines(const SolutionSet& answers) {
  std::vector<std::string> lines(answers.size());
  for (size_t row = 0; row < answers.size(); ++row) {
    answers.AppendSerialized(row, &lines[row]);
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

/// Replays `cases` through a live socket server against the oracle.
/// Every case loads a fresh epoch of the "fuzz" dataset, queries it with
/// engines lazy, hive and auto, and immediately re-queries expecting a
/// byte-identical result-cache replay (for auto, with the same chooser
/// decision).
int RunServiceMode(const fuzz::FuzzOptions& options, std::ostream* log) {
  service::ServiceConfig config;
  config.cluster = options.diff.cluster;
  config.max_concurrent = 2;
  service::QueryService query_service(config);
  const std::string socket_path =
      StringFormat("/tmp/rdfmr-fuzz-%d.sock", static_cast<int>(::getpid()));
  service::ServiceServer server(&query_service, socket_path);
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "%s\n", started.ToString().c_str());
    return 1;
  }
  auto client = service::ServiceClient::Connect(socket_path);
  if (!client.ok()) {
    std::fprintf(stderr, "%s\n", client.status().ToString().c_str());
    return 1;
  }

  const std::vector<std::string> engines = {"lazy", "hive", "auto"};
  uint64_t failures = 0;
  auto fail = [&failures, log](uint64_t index, const std::string& what) {
    ++failures;
    if (log != nullptr) {
      *log << "case " << index << " FAILED: " << what << "\n";
    } else {
      std::fprintf(stderr, "case %llu FAILED: %s\n",
                   (unsigned long long)index, what.c_str());
    }
  };

  uint64_t index = 0;
  for (; index < options.cases; ++index) {
    fuzz::FuzzCase fuzz_case = fuzz::MakeCase(options, index);
    auto query = GraphPatternQuery::Create(fuzz_case.name,
                                           fuzz_case.patterns);
    if (!query.ok()) continue;  // generator produced a degenerate case

    JsonValue load = JsonValue::MakeObject();
    load.Set("verb", "load");
    load.Set("dataset", "fuzz");
    JsonValue rows = JsonValue::MakeArray();
    for (const Triple& t : fuzz_case.triples) {
      JsonValue row = JsonValue::MakeArray();
      row.Append(t.subject);
      row.Append(t.property);
      row.Append(t.object);
      rows.Append(std::move(row));
    }
    load.Set("triples", std::move(rows));
    auto loaded = client->Call(load);
    if (!loaded.ok() || !loaded->GetBool("ok")) {
      fail(index, "load verb rejected: " +
                      (loaded.ok() ? loaded->Dump()
                                   : loaded.status().ToString()));
      break;
    }

    SolutionSet oracle =
        fuzz_case.aggregate.has_value()
            ? EvaluateAggregateInMemory(*query, *fuzz_case.aggregate,
                                        fuzz_case.triples)
            : EvaluateQueryInMemory(*query, fuzz_case.triples);
    const std::vector<std::string> expected = AnswerLines(oracle);

    for (const std::string& engine_name : engines) {
      JsonValue request = JsonValue::MakeObject();
      request.Set("verb", "query");
      request.Set("dataset", "fuzz");
      request.Set("name", fuzz_case.name);
      JsonValue patterns = JsonValue::MakeArray();
      for (const TriplePattern& tp : fuzz_case.patterns) {
        patterns.Append(service::PatternToJson(tp));
      }
      request.Set("patterns", std::move(patterns));
      if (fuzz_case.aggregate.has_value()) {
        request.Set("aggregate",
                    service::AggregateToJson(*fuzz_case.aggregate));
      }
      request.Set("engine", engine_name);
      request.Set("phi",
                  static_cast<uint64_t>(options.diff.phi_partitions));
      auto response = client->Call(request);
      if (!response.ok()) {
        fail(index, engine_name + ": " + response.status().ToString());
        break;
      }
      if (!response->GetBool("ok") || !response->Get("stats").GetBool("ok")) {
        fail(index, engine_name + ": served run failed: " +
                        response->Dump());
        break;
      }
      if (AnswerLines(response->Get("answers")) != expected) {
        fail(index,
             engine_name + ": served answers diverge from the oracle (" +
                 std::to_string(response->GetUint("num_answers")) + " vs " +
                 std::to_string(expected.size()) + ")");
        break;
      }
      // Replay: must be a result-cache hit with byte-identical answers.
      auto replay = client->Call(request);
      if (!replay.ok() || !replay->GetBool("ok") ||
          !replay->GetBool("result_cache_hit") ||
          AnswerLines(replay->Get("answers")) != expected ||
          replay->Get("stats").GetString("chosen_engine") !=
              response->Get("stats").GetString("chosen_engine")) {
        fail(index, engine_name + ": result-cache replay diverged");
        break;
      }
    }
    if (options.max_failures > 0 && failures >= options.max_failures) break;
    if (log != nullptr && (index + 1) % 10 == 0) {
      *log << "service: " << (index + 1) << "/" << options.cases
           << " cases clean\n";
    }
  }

  JsonValue shutdown = JsonValue::MakeObject();
  shutdown.Set("verb", "shutdown");
  (void)client->Call(shutdown);
  server.Wait();
  server.Stop();
  std::printf("service mode: %llu case(s), %llu failure(s)\n",
              (unsigned long long)std::min(index + 1, options.cases),
              (unsigned long long)failures);
  return failures == 0 ? 0 : 1;
}

/// Storage-format differential: index -> mmap-load -> compare with the
/// in-memory oracle. Catches any writer/reader disagreement the seeded
/// generator can produce (odd characters in terms, empty relations,
/// skewed property multiplicities, ...).
int RunFormatMode(const fuzz::FuzzOptions& options, std::ostream* log) {
  const std::string path = StringFormat("/tmp/rdfmr-fuzz-format-%d.rdx",
                                        static_cast<int>(::getpid()));
  uint64_t failures = 0;
  auto fail = [&failures, log](uint64_t index, const std::string& what) {
    ++failures;
    if (log != nullptr) {
      *log << "case " << index << " FAILED: " << what << "\n";
    } else {
      std::fprintf(stderr, "case %llu FAILED: %s\n",
                   (unsigned long long)index, what.c_str());
    }
  };

  // One engine kind per case, rotating so a full default run (100 cases)
  // covers every kind many times over on both scan paths.
  const std::vector<EngineKind> engine_ring = {
      EngineKind::kPig,          EngineKind::kHive,
      EngineKind::kNtgaEager,    EngineKind::kNtgaLazyFull,
      EngineKind::kNtgaLazyPartial, EngineKind::kNtgaLazy};

  uint64_t index = 0;
  for (; index < options.cases; ++index) {
    fuzz::FuzzCase fuzz_case = fuzz::MakeCase(options, index);
    auto built =
        GraphPatternQuery::Create(fuzz_case.name, fuzz_case.patterns);
    if (!built.ok()) continue;  // generator produced a degenerate case
    auto query =
        std::make_shared<const GraphPatternQuery>(std::move(*built));

    auto image = storage::BuildRdxImage(fuzz_case.triples);
    if (!image.ok()) {
      fail(index, "BuildRdxImage: " + image.status().ToString());
      break;
    }
    auto again = storage::BuildRdxImage(fuzz_case.triples);
    if (!again.ok() || *again != *image) {
      fail(index, "indexing is not deterministic");
      break;
    }
    Status written = storage::WriteRdxFile(path, fuzz_case.triples);
    if (!written.ok()) {
      fail(index, "WriteRdxFile: " + written.ToString());
      break;
    }
    auto reader = storage::RdxReader::Open(path);
    if (!reader.ok()) {
      fail(index, "Open: " + reader.status().ToString());
      break;
    }

    const std::vector<Triple> decoded = (*reader)->Triples();
    if (decoded != fuzz_case.triples) {
      fail(index, StringFormat(
                      "decoded relation diverges: %zu vs %zu triple(s)",
                      decoded.size(), fuzz_case.triples.size()));
      break;
    }
    // The per-property index must be exactly the vertical partition.
    size_t indexed_rows = 0;
    bool index_ok = true;
    for (std::string_view property : (*reader)->Properties()) {
      std::vector<uint32_t> expected_rows;
      for (size_t i = 0; i < fuzz_case.triples.size(); ++i) {
        if (fuzz_case.triples[i].property == property) {
          expected_rows.push_back(static_cast<uint32_t>(i));
        }
      }
      if ((*reader)->PropertyPostings(property) != expected_rows) {
        fail(index, "property index diverges for '" +
                        std::string(property) + "'");
        index_ok = false;
        break;
      }
      indexed_rows += expected_rows.size();
    }
    if (!index_ok) break;
    if (indexed_rows != fuzz_case.triples.size()) {
      fail(index, "property index does not cover the relation");
      break;
    }

    // Oracle differential over the DECODED triples: mapped data answers
    // queries exactly like the original in-memory relation.
    SolutionSet oracle =
        fuzz_case.aggregate.has_value()
            ? EvaluateAggregateInMemory(*query, *fuzz_case.aggregate,
                                        fuzz_case.triples)
            : EvaluateQueryInMemory(*query, fuzz_case.triples);
    SolutionSet mapped =
        fuzz_case.aggregate.has_value()
            ? EvaluateAggregateInMemory(*query, *fuzz_case.aggregate,
                                        decoded)
            : EvaluateQueryInMemory(*query, decoded);
    if (AnswerLines(mapped) != AnswerLines(oracle)) {
      fail(index, "answers over the mapped relation diverge from oracle");
      break;
    }

    // Zero-materialization scan differential: the same engine must produce
    // byte-identical answers (vs the oracle) and byte-identical
    // deterministic ExecStats whether the base relation is a decoded
    // triple vector written into the DFS or the .rdx mapping mounted
    // directly (records decoded lazily out of the mapped postings).
    const EngineKind kind = engine_ring[index % engine_ring.size()];
    const std::string tag =
        std::string(EngineKindToString(kind)) + ": ";
    EngineOptions engine_options;
    engine_options.kind = kind;
    engine_options.phi_partitions = options.diff.phi_partitions;
    engine_options.runtime.num_threads = 1;

    SimDfs decoded_dfs(options.diff.cluster);
    Status wrote = decoded_dfs.WriteFile("base", SerializeTriples(decoded));
    SimDfs mapped_dfs(options.diff.cluster);
    Status mounted = mapped_dfs.MountMapped(
        "base", std::make_shared<const storage::MappedDataset>(*reader));
    if (!wrote.ok() || !mounted.ok()) {
      fail(index, tag + "loading base relations: " +
                      (wrote.ok() ? mounted : wrote).ToString());
      break;
    }
    auto run = [&](SimDfs* dfs) {
      return Exec(dfs, "base",
                  ExecRequest::Single(query, fuzz_case.aggregate),
                  engine_options);
    };
    Result<ExecResult> decoded_exec = run(&decoded_dfs);
    Result<ExecResult> mapped_exec = run(&mapped_dfs);
    if (!decoded_exec.ok() || !decoded_exec->stats.ok()) {
      fail(index, tag + "decoded-path run failed: " +
                      (decoded_exec.ok()
                           ? decoded_exec->stats.status.ToString()
                           : decoded_exec.status().ToString()));
      break;
    }
    if (!mapped_exec.ok() || !mapped_exec->stats.ok()) {
      fail(index, tag + "mapped-scan run failed: " +
                      (mapped_exec.ok()
                           ? mapped_exec->stats.status.ToString()
                           : mapped_exec.status().ToString()));
      break;
    }
    if (AnswerLines(decoded_exec->answers) != AnswerLines(oracle)) {
      fail(index, tag + "decoded-path answers diverge from oracle");
      break;
    }
    if (AnswerLines(mapped_exec->answers) != AnswerLines(oracle)) {
      fail(index, tag + "mapped-scan answers diverge from oracle");
      break;
    }
    std::vector<std::string> stat_diffs = fuzz::CompareStatsIgnoringWallTimes(
        decoded_exec->stats, mapped_exec->stats);
    if (!stat_diffs.empty()) {
      fail(index, tag + "mapped-scan stats diverge from decoded path: " +
                      Join(stat_diffs, ';'));
      break;
    }

    if (options.max_failures > 0 && failures >= options.max_failures) break;
    if (log != nullptr && (index + 1) % 10 == 0) {
      *log << "format: " << (index + 1) << "/" << options.cases
           << " cases clean\n";
    }
  }
  std::remove(path.c_str());
  std::printf("format mode: %llu case(s), %llu failure(s)\n",
              (unsigned long long)std::min(index + 1, options.cases),
              (unsigned long long)failures);
  return failures == 0 ? 0 : 1;
}

/// Maps an ExecStats engine display name ("EagerUnnest", ...) back to its
/// EngineKind, for re-running the chooser's pick explicitly.
Result<EngineKind> KindFromDisplayName(const std::string& name) {
  for (EngineKind kind :
       {EngineKind::kPig, EngineKind::kHive, EngineKind::kNtgaEager,
        EngineKind::kNtgaLazyFull, EngineKind::kNtgaLazyPartial,
        EngineKind::kNtgaLazy}) {
    if (EngineKindToString(kind) == name) return kind;
  }
  return Status::InvalidArgument("not a concrete engine name: " + name);
}

/// Plan-chooser differential: engine=auto must produce the oracle's
/// answers AND byte-identical deterministic stats to explicitly running
/// the engine it reports having chosen.
int RunAutoMode(const fuzz::FuzzOptions& options, std::ostream* log) {
  uint64_t failures = 0;
  auto fail = [&failures, log](uint64_t index, const std::string& what) {
    ++failures;
    if (log != nullptr) {
      *log << "case " << index << " FAILED: " << what << "\n";
    } else {
      std::fprintf(stderr, "case %llu FAILED: %s\n",
                   (unsigned long long)index, what.c_str());
    }
  };

  std::set<std::string> chosen_kinds;
  uint64_t auto_runs = 0;
  uint64_t index = 0;
  for (; index < options.cases; ++index) {
    fuzz::FuzzCase fuzz_case = fuzz::MakeCase(options, index);
    auto built =
        GraphPatternQuery::Create(fuzz_case.name, fuzz_case.patterns);
    if (!built.ok()) continue;  // generator produced a degenerate case
    auto query =
        std::make_shared<const GraphPatternQuery>(std::move(*built));
    SolutionSet oracle =
        fuzz_case.aggregate.has_value()
            ? EvaluateAggregateInMemory(*query, *fuzz_case.aggregate,
                                        fuzz_case.triples)
            : EvaluateQueryInMemory(*query, fuzz_case.triples);

    ExecRequest request;
    request.payload = ExecPayload::kSingle;
    request.query = query;
    request.aggregate = fuzz_case.aggregate;

    EngineOptions auto_options;
    auto_options.kind = EngineKind::kAuto;
    auto_options.phi_partitions = options.diff.phi_partitions;
    auto_options.runtime.num_threads = 1;

    SimDfs auto_dfs(options.diff.cluster);
    Status wrote =
        auto_dfs.WriteFile("base", SerializeTriples(fuzz_case.triples));
    if (!wrote.ok()) {
      fail(index, "loading base relation: " + wrote.ToString());
      break;
    }
    Result<ExecResult> auto_exec =
        Exec(&auto_dfs, "base", request, auto_options);
    if (!auto_exec.ok() || !auto_exec->stats.ok()) {
      fail(index, "auto run failed: " +
                      (auto_exec.ok() ? auto_exec->stats.status.ToString()
                                      : auto_exec.status().ToString()));
      break;
    }
    ++auto_runs;
    const ExecStats& auto_stats = auto_exec->stats;
    if (auto_stats.chosen_engine.empty() ||
        auto_stats.plan_candidates.empty()) {
      fail(index, "auto run did not record a plan choice");
      break;
    }
    if (auto_stats.chosen_engine != auto_stats.engine) {
      fail(index, "auto ran '" + auto_stats.engine +
                      "' but recorded choosing '" +
                      auto_stats.chosen_engine + "'");
      break;
    }
    Result<EngineKind> chosen =
        KindFromDisplayName(auto_stats.chosen_engine);
    if (!chosen.ok()) {
      fail(index, chosen.status().ToString());
      break;
    }
    chosen_kinds.insert(auto_stats.chosen_engine);
    const std::string tag = auto_stats.chosen_engine + ": ";
    if (AnswerLines(auto_exec->answers) != AnswerLines(oracle)) {
      fail(index, tag + "auto answers diverge from oracle");
      break;
    }

    // The chooser must never pick a candidate it marked non-fitting
    // while a fitting one exists.
    bool any_fits = false;
    bool chosen_fits = false;
    for (const PlanCandidate& candidate : auto_stats.plan_candidates) {
      if (candidate.feasible && candidate.fits) any_fits = true;
      if (candidate.chosen) chosen_fits = candidate.fits;
    }
    if (any_fits && !chosen_fits) {
      fail(index,
           tag + "chose a non-fitting plan over a fitting candidate");
      break;
    }

    // Explicit re-run of the chosen engine on a fresh DFS: answers and
    // deterministic stats must be byte-identical.
    EngineOptions explicit_options = auto_options;
    explicit_options.kind = *chosen;
    SimDfs explicit_dfs(options.diff.cluster);
    wrote = explicit_dfs.WriteFile("base",
                                   SerializeTriples(fuzz_case.triples));
    if (!wrote.ok()) {
      fail(index, "loading base relation: " + wrote.ToString());
      break;
    }
    Result<ExecResult> explicit_exec =
        Exec(&explicit_dfs, "base", request, explicit_options);
    if (!explicit_exec.ok() || !explicit_exec->stats.ok()) {
      fail(index, tag + "explicit run failed: " +
                      (explicit_exec.ok()
                           ? explicit_exec->stats.status.ToString()
                           : explicit_exec.status().ToString()));
      break;
    }
    if (AnswerLines(explicit_exec->answers) != AnswerLines(oracle)) {
      fail(index, tag + "explicit answers diverge from oracle");
      break;
    }
    std::vector<std::string> stat_diffs =
        fuzz::CompareStatsIgnoringWallTimes(auto_exec->stats,
                                            explicit_exec->stats);
    if (!stat_diffs.empty()) {
      fail(index, tag + "auto stats diverge from the explicit run: " +
                      Join(stat_diffs, ';'));
      break;
    }

    if (options.max_failures > 0 && failures >= options.max_failures) break;
    if (log != nullptr && (index + 1) % 10 == 0) {
      *log << "auto: " << (index + 1) << "/" << options.cases
           << " cases clean (" << chosen_kinds.size()
           << " distinct engine(s) chosen)\n";
    }
  }

  std::printf("auto mode: %llu case(s), %llu failure(s), %zu distinct "
              "engine(s) chosen\n",
              (unsigned long long)std::min(index + 1, options.cases),
              (unsigned long long)failures, chosen_kinds.size());
  // Vacuity gate: a healthy sweep exercises the cost model enough that at
  // least two different engines win somewhere; a constant chooser means
  // the scoring is degenerate (or the plumbing ignores it).
  if (failures == 0 && auto_runs >= 10 && chosen_kinds.size() < 2) {
    std::fprintf(stderr,
                 "FAIL: --auto chose the same engine in all %llu run(s) — "
                 "the cost model looks degenerate\n",
                 (unsigned long long)auto_runs);
    return 1;
  }
  return failures == 0 ? 0 : 1;
}

int FuzzMain(int argc, char** argv) {
  Flags flags(argc, argv);
  if (!flags.ok()) return 2;

  fuzz::FuzzOptions options;
  options.seed = flags.GetInt("seed", 1);
  options.cases = flags.GetInt("cases", 100);
  options.query.min_unbound = flags.GetInt("min-unbound", 0);
  options.max_failures = flags.GetInt("max-failures", 1);
  options.shrink = !flags.Has("no-shrink");
  if (flags.Has("faults")) {
    options.diff.inject_faults = true;
    options.diff.fault_seed = options.seed;
  }
  if (flags.Has("trace-dir")) {
    options.diff.trace_dir = flags.Get("trace-dir");
    if (options.diff.trace_dir.empty()) {
      std::fprintf(stderr, "--trace-dir needs a directory path\n");
      return 2;
    }
  }
  const bool inject_bug = flags.Has("inject-bug");
  std::ostream* log = flags.Has("quiet") ? nullptr : &std::cout;

  int modes = 0;
  for (const char* mode : {"service", "format", "auto"}) {
    if (flags.Has(mode)) ++modes;
  }
  if (modes > 1 || (modes == 1 && inject_bug)) {
    std::fprintf(stderr,
                 "--service, --format, --auto, and --inject-bug are "
                 "mutually exclusive\n");
    return 2;
  }

  if (flags.Has("service")) return RunServiceMode(options, log);
  if (flags.Has("format")) return RunFormatMode(options, log);
  if (flags.Has("auto")) return RunAutoMode(options, log);

  if (inject_bug) {
    // Every case must route through the β group-filter's unbound branch
    // for the seeded defect to be reachable.
    if (options.query.min_unbound == 0) options.query.min_unbound = 1;
    SetBetaGroupFilterFlipForTesting(true);
  }
  fuzz::FuzzReport report = fuzz::RunFuzz(options, log);
  SetBetaGroupFilterFlipForTesting(false);

  if (inject_bug) {
    if (report.failures.empty()) {
      std::fprintf(stderr,
                   "FAIL: injected beta group-filter bug went undetected "
                   "over %llu case(s)\n",
                   (unsigned long long)report.cases_run);
      return 1;
    }
    const fuzz::FuzzFailure& failure = report.failures.front();
    if (options.shrink && failure.shrunk.triples.size() > 10) {
      std::fprintf(stderr,
                   "FAIL: injected bug caught but shrunk only to %zu "
                   "triples (want <= 10)\n",
                   failure.shrunk.triples.size());
      return 1;
    }
    std::printf("OK: injected bug caught in case %llu, shrunk to %zu "
                "triple(s) / %zu pattern(s)\n",
                (unsigned long long)failure.case_index,
                failure.shrunk.triples.size(),
                failure.shrunk.patterns.size());
    return 0;
  }

  if (log == nullptr) std::printf("%s\n", report.Summary().c_str());
  // Vacuity gate for --faults: at these probabilities, thousands of DFS
  // ops with zero retried operations means injection is not actually
  // armed — fail loudly instead of green-lighting a no-op sweep.
  if (options.diff.inject_faults && report.faulty_runs > 0 &&
      report.faulty_retried_ops == 0) {
    std::fprintf(stderr,
                 "FAIL: --faults ran %llu faulty run(s) without a single "
                 "retried operation — fault injection looks disarmed\n",
                 (unsigned long long)report.faulty_runs);
    return 1;
  }
  return report.ok() ? 0 : 1;
}

}  // namespace
}  // namespace rdfmr

int main(int argc, char** argv) { return rdfmr::FuzzMain(argc, argv); }

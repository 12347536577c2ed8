// Operator-level microbenchmarks (google-benchmark): serialization costs
// and the NTGA operators' throughput as a function of candidate-set size
// and φ_m — the knobs that drive the macro results.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <memory>
#include <set>

#include "common/hash.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "dfs/sim_dfs.h"
#include "engine/engine.h"
#include "mapreduce/job_runner.h"
#include "ntga/ntga_compiler.h"
#include "ntga/operators.h"
#include "ntga/triplegroup.h"
#include "query/matcher.h"
#include "query/sparql_parser.h"
#include "rdf/ntriples.h"
#include "rdf/triple.h"
#include "relational/rel_compiler.h"
#include "relational/rel_tuple.h"

namespace rdfmr {
namespace {

Triple MakeTriple(int i) {
  return Triple("subject" + std::to_string(i % 100),
                "property" + std::to_string(i % 10),
                "object_value_" + std::to_string(i));
}

// A star with two bound patterns and one unbound pattern.
StarPattern TestStar() {
  StarPattern star;
  star.subject_var = "s";
  star.patterns.push_back(TriplePattern::Bound(
      NodePattern::Var("s"), "property0", NodePattern::Var("o0")));
  star.patterns.push_back(TriplePattern::Bound(
      NodePattern::Var("s"), "property1", NodePattern::Var("o1")));
  star.patterns.push_back(TriplePattern::Unbound(
      NodePattern::Var("s"), "up", NodePattern::Var("x")));
  return star;
}

// The subject's sorted pairs: the two bound properties' objects and
// `num_candidates` more over eight other properties. `views` views
// `values`, so a TestPairs is not copied.
struct TestPairs {
  explicit TestPairs(int num_candidates) {
    std::set<std::pair<std::string, std::string>> pairs = {
        {"property0", "bound_object_a"}, {"property1", "bound_object_b"}};
    for (int i = 0; i < num_candidates; ++i) {
      pairs.emplace("property" + std::to_string(2 + i % 8),
                    "candidate_object_" + std::to_string(i));
    }
    values.assign(pairs.begin(), pairs.end());
    for (const auto& [property, object] : values) {
      views.push_back(PropObj{property, object});
    }
  }
  TestPairs(const TestPairs&) = delete;

  std::vector<std::pair<std::string, std::string>> values;
  std::vector<PropObj> views;
};

// TestStar's group of TestPairs, as the grouping cycle writes it.
std::string TestGroup(int num_candidates) {
  std::string record;
  if (!BuildAnnTg(TestStar(), 0, "subject42",
                  TestPairs(num_candidates).views, &record)) {
    std::abort();
  }
  return record;
}

// A relational tuple's record: its triples' lines side by side.
std::string TupleRecord(const std::vector<Triple>& triples) {
  std::string out;
  for (const Triple& t : triples) {
    if (!out.empty()) out.push_back('\t');
    out += t.Serialize();
  }
  return out;
}

void BM_TripleSerde(benchmark::State& state) {
  Triple t = MakeTriple(7);
  for (auto _ : state) {
    std::string line = t.Serialize();
    auto back = Triple::Deserialize(line);
    benchmark::DoNotOptimize(back);
  }
}
BENCHMARK(BM_TripleSerde);

void BM_NTriplesParseLine(benchmark::State& state) {
  const std::string line =
      "<http://example.org/gene9> <http://example.org/xGO> "
      "\"transcription factor\"@en .";
  for (auto _ : state) {
    auto st = ParseNTriplesLine(line);
    benchmark::DoNotOptimize(st);
  }
}
BENCHMARK(BM_NTriplesParseLine);

// Reads a group's record into views.
void BM_TgRecordRead(benchmark::State& state) {
  const std::string record = TestGroup(static_cast<int>(state.range(0)));
  TgRecordReader reader;
  for (auto _ : state) {
    if (!reader.Read(record).ok()) std::abort();
    benchmark::DoNotOptimize(reader.leaves().data());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_TgRecordRead)->Arg(4)->Arg(32)->Arg(256);

// σ^βγ: a subject's sorted pairs in, the group's record out.
void BM_BuildAnnTg(benchmark::State& state) {
  StarPattern star = TestStar();
  const TestPairs pairs(static_cast<int>(state.range(0)));
  std::string record;
  for (auto _ : state) {
    record.clear();
    if (!BuildAnnTg(star, 0, "subject42", pairs.views, &record)) {
      std::abort();
    }
    benchmark::DoNotOptimize(record.data());
    benchmark::ClobberMemory();
  }
  state.counters["groups_out"] = 1;
}
BENCHMARK(BM_BuildAnnTg)->Arg(8)->Arg(64)->Arg(512);

// μ^β of every unbound pattern (Eager's): a group's record in, one
// serialized perfect group per candidate out.
void BM_BetaUnnest(benchmark::State& state) {
  const BetaUnnester unnester(TestStar());
  const std::string record = TestGroup(static_cast<int>(state.range(0)));
  TgRecordReader reader;
  size_t outputs = 0;
  for (auto _ : state) {
    if (!reader.Read(record).ok()) std::abort();
    outputs = unnester.BetaUnnest(
        reader, reader.components()[0], {},
        [](std::string_view, std::string_view out) {
          std::string owned(out);
          benchmark::DoNotOptimize(owned.data());
        });
    benchmark::ClobberMemory();
  }
  state.counters["tgs_out"] = static_cast<double>(outputs);
}
BENCHMARK(BM_BetaUnnest)->Arg(4)->Arg(32)->Arg(256);

// μ^β_φm of the unbound pattern over 128 candidates: a group's record in,
// one serialized group per φ_m partition out.
void BM_PartialBetaUnnest(benchmark::State& state) {
  const BetaUnnester unnester(TestStar());
  const std::string record = TestGroup(128);
  const uint32_t m = static_cast<uint32_t>(state.range(0));
  TgRecordReader reader;
  size_t outputs = 0;
  for (auto _ : state) {
    if (!reader.Read(record).ok()) std::abort();
    outputs = unnester.PartialBetaUnnest(
        reader, reader.components()[0], 2, m,
        [](uint32_t, std::string_view out) {
          std::string owned(out);
          benchmark::DoNotOptimize(owned.data());
        });
    benchmark::ClobberMemory();
  }
  state.counters["tgs_out"] = static_cast<double>(outputs);
}
BENCHMARK(BM_PartialBetaUnnest)->Arg(4)->Arg(64)->Arg(1024);

// The compiled LazyFull join mapper at an unbound site (TG_UnbJoin's map:
// μ^β pins the joining pattern in place): one group's record with N
// candidates in, N + 2 tagged records out.
void BM_UnboundSiteJoinMap(benchmark::State& state) {
  auto query = ParseSparql("unbound-site",
                           "SELECT * WHERE { ?s <property0> ?o0 . ?s "
                           "<property1> ?o1 . ?s ?up ?x . ?x <label> ?l . }");
  if (!query.ok()) std::abort();
  NtgaOptions options;
  options.strategy = NtgaStrategy::kLazyFull;
  auto plan = CompileNtgaPlan(
      {std::make_shared<const GraphPatternQuery>(std::move(*query))}, "base",
      "tmp", options);
  if (!plan.ok() || plan->workflow.jobs.size() != 2) std::abort();
  const MapFn map = plan->workflow.jobs[1].inputs[0].map;
  const std::string record = TestGroup(static_cast<int>(state.range(0)));
  size_t outputs = 0;
  const MapEmit emit = [&outputs](std::string key, std::string value) {
    benchmark::DoNotOptimize(key.data());
    benchmark::DoNotOptimize(value.data());
    ++outputs;
  };
  for (auto _ : state) {
    Counters counters;
    map(record, emit, &counters);
  }
  state.counters["records_out_per_call"] =
      static_cast<double>(outputs) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_UnboundSiteJoinMap)->Arg(4)->Arg(32)->Arg(256);

// Appends one group's record's rows to a fresh builder, as the
// aggregation mapper does.
void BM_ExpandTgRecord(benchmark::State& state) {
  const AnswerDecoder decoder = JoinedTgAnswerDecoder({TestStar()});
  const std::string record = TestGroup(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    SolutionSet::Builder rows(decoder.variables);
    if (!decoder.append({&record, 1}, &rows).ok()) std::abort();
    benchmark::DoNotOptimize(rows.cells().data());
  }
  state.counters["solutions_out"] =
      static_cast<double>(decoder({&record, 1})->size());
}
BENCHMARK(BM_ExpandTgRecord)->Arg(4)->Arg(32)->Arg(256);

// The compiled aggregation mapper (COUNT(DISTINCT ?up) per subject) over
// one final-output record: for an NTGA engine, one group's record with N
// candidates in, N + 2 (group, counted value) pairs out (the two bound
// pairs are candidates too); for a relational engine, one TestStar tuple
// in, one pair out.
void BM_AggregateMap(benchmark::State& state, EngineKind kind) {
  auto parsed = ParseSparqlQuery(
      "aggregate", "SELECT ?s (COUNT(DISTINCT ?up) AS ?n) WHERE { ?s "
                   "<property0> ?o0 . ?s <property1> ?o1 . ?s ?up ?x . } "
                   "GROUP BY ?s");
  if (!parsed.ok()) std::abort();
  EngineOptions options;
  options.kind = kind;
  auto plan = CompilePlan(
      ExecRequest::Single(
          std::make_shared<const GraphPatternQuery>(std::move(parsed->query)),
          parsed->aggregate),
      "base", "tmp", options);
  if (!plan.ok()) std::abort();
  const MapFn map = plan->workflow.jobs.back().inputs[0].map;
  const bool ntga = kind != EngineKind::kHive;
  const size_t expected = ntga ? static_cast<size_t>(state.range(0)) + 2 : 1;
  const std::string record =
      ntga ? TestGroup(static_cast<int>(state.range(0)))
           : TupleRecord({Triple("subject42", "property0", "bound_object_a"),
                          Triple("subject42", "property1", "bound_object_b"),
                          Triple("subject42", "property2", "candidate")});
  size_t outputs = 0;
  const MapEmit emit = [&outputs](std::string key, std::string value) {
    benchmark::DoNotOptimize(key.data());
    benchmark::DoNotOptimize(value.data());
    ++outputs;
  };
  for (auto _ : state) {
    Counters counters;
    map(record, emit, &counters);
  }
  if (outputs != expected * state.iterations()) std::abort();
  state.counters["records_out_per_call"] = static_cast<double>(expected);
}
BENCHMARK_CAPTURE(BM_AggregateMap, ntga, EngineKind::kNtgaLazyFull)
    ->Arg(4)
    ->Arg(32)
    ->Arg(256);
BENCHMARK_CAPTURE(BM_AggregateMap, hive, EngineKind::kHive)->Arg(1);

// The TG_Join reducer (B0's all-bound join cycle) over 4 left and 4 right
// groups of N pairs each: 16 joined records per call.
void BM_TgJoinReduce(benchmark::State& state) {
  auto query = ParseSparql("join",
                           "SELECT * WHERE { ?p <label> ?l . ?p <feature> ?f "
                           ". ?f <featureLabel> ?fl . }");
  if (!query.ok()) std::abort();
  auto plan = CompileNtgaPlan(
      {std::make_shared<const GraphPatternQuery>(std::move(*query))}, "base",
      "tmp", NtgaOptions{});
  if (!plan.ok() || plan->workflow.jobs.size() != 2) std::abort();
  const ReduceFn reduce = plan->workflow.jobs[1].reduce;
  const int num_pairs = static_cast<int>(state.range(0));
  std::vector<std::string> values;
  for (int side = 0; side < 2; ++side) {
    for (int g = 0; g < 4; ++g) {
      std::set<std::pair<std::string, std::string>> pairs;
      for (int i = 0; i < num_pairs; ++i) {
        pairs.emplace("property" + std::to_string(i % 8),
                      "object value " + std::to_string(i));
      }
      std::string record = side == 0 ? "L|" : "R|";
      TgWriter writer(&record, "http://bsbm.example/Group" + std::to_string(g),
                      static_cast<uint32_t>(side));
      for (auto it = pairs.begin(); it != pairs.end(); ++it) {
        if (it == pairs.begin() || it->first != std::prev(it)->first) {
          writer.Property(it->first);
        }
        writer.Object(it->second);
      }
      writer.EndPairs();
      values.push_back(std::move(record));
    }
  }
  size_t outputs = 0;
  const RecordEmit emit = [&outputs](std::string record) {
    benchmark::DoNotOptimize(record);
    ++outputs;
  };
  for (auto _ : state) {
    Counters counters;
    reduce("k", values, emit, &counters);
  }
  state.counters["records_out_per_call"] =
      static_cast<double>(outputs) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_TgJoinReduce)->Arg(4)->Arg(32)->Arg(256);

// The Hive join reducer of a two-star query (a product star joined to a
// feature star on ?f) over N tuples per side that share the join key: N*N
// joined records per call.
void BM_RelJoinReduce(benchmark::State& state) {
  auto query = ParseSparql("join",
                           "SELECT * WHERE { ?p <label> ?l . ?p <feature> ?f "
                           ". ?f <featureLabel> ?fl . ?f <type> ?t . }");
  if (!query.ok()) std::abort();
  RelationalOptions options;
  options.style = RelationalStyle::kHive;
  auto plan = CompileRelationalPlan(
      std::make_shared<const GraphPatternQuery>(std::move(*query)), "base",
      "tmp", options);
  if (!plan.ok() || plan->workflow.jobs.size() != 3) std::abort();
  const ReduceFn reduce = plan->workflow.jobs[2].reduce;
  const std::string feature = "http://bsbm.example/Feature7";
  std::vector<std::string> values;
  for (int i = 0; i < state.range(0); ++i) {
    const std::string product =
        "http://bsbm.example/Product" + std::to_string(i);
    values.push_back(
        "L|" + TupleRecord({Triple(product, "label",
                                   "label of product " + std::to_string(i)),
                            Triple(product, "feature", feature)}));
    values.push_back(
        "R|" + TupleRecord({Triple(feature, "featureLabel",
                                   "feature label " + std::to_string(i)),
                            Triple(feature, "type",
                                   "http://bsbm.example/Type" +
                                       std::to_string(i % 5))}));
  }
  size_t outputs = 0;
  const RecordEmit emit = [&outputs](std::string record) {
    benchmark::DoNotOptimize(record);
    ++outputs;
  };
  for (auto _ : state) {
    Counters counters;
    reduce(feature, values, emit, &counters);
  }
  state.counters["records_out_per_call"] =
      static_cast<double>(outputs) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_RelJoinReduce)->Arg(4)->Arg(32)->Arg(256);

void BM_MatchStarDetailed(benchmark::State& state) {
  StarPattern star = TestStar();
  std::vector<Triple> triples;
  triples.emplace_back("s", "property0", "a");
  triples.emplace_back("s", "property1", "b");
  for (int i = 0; i < state.range(0); ++i) {
    triples.emplace_back("s", "property" + std::to_string(2 + i % 8),
                         "object" + std::to_string(i));
  }
  for (auto _ : state) {
    auto out = MatchStarDetailed(star, triples);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_MatchStarDetailed)->Arg(4)->Arg(32)->Arg(256);

// TestStar's query, whose one star is TestStar.
std::shared_ptr<const GraphPatternQuery> TestStarQuery() {
  auto query = ParseSparql("star",
                           "SELECT * WHERE { ?s <property0> ?o0 . ?s "
                           "<property1> ?o1 . ?s ?up ?x . }");
  if (!query.ok()) std::abort();
  return std::make_shared<const GraphPatternQuery>(std::move(*query));
}

// The compiled Hive star-join reducer over one subject's triple lines
// (BM_MatchStarDetailed's triples): N + 2 matches written per call.
void BM_RelStarReduce(benchmark::State& state) {
  RelationalOptions options;
  options.style = RelationalStyle::kHive;
  auto plan = CompileRelationalPlan(TestStarQuery(), "base", "tmp", options);
  if (!plan.ok() || plan->workflow.jobs.size() != 1) std::abort();
  const ReduceFn reduce = plan->workflow.jobs[0].reduce;
  std::vector<std::string> values = {Triple("s", "property0", "a").Serialize(),
                                     Triple("s", "property1", "b").Serialize()};
  for (int i = 0; i < state.range(0); ++i) {
    values.push_back(Triple("s", "property" + std::to_string(2 + i % 8),
                            "object" + std::to_string(i))
                         .Serialize());
  }
  size_t outputs = 0;
  const RecordEmit emit = [&outputs](std::string record) {
    benchmark::DoNotOptimize(record);
    ++outputs;
  };
  for (auto _ : state) {
    Counters counters;
    reduce("s", values, emit, &counters);
  }
  if (outputs != (values.size()) * state.iterations()) std::abort();
  state.counters["records_out_per_call"] = static_cast<double>(values.size());
}
BENCHMARK(BM_RelStarReduce)->Arg(4)->Arg(32)->Arg(256);

// A base scan's mapper over one matching line, plain or with escapes: the
// compiled Hive star scan (the line matches two of TestStar's patterns)
// and the NTGA group scan (emitted once).
void BM_ScanMap(benchmark::State& state, bool ntga, bool escaped) {
  MapFn map;
  if (ntga) {
    auto plan = CompileNtgaPlan({TestStarQuery()}, "base", "tmp",
                                NtgaOptions{});
    if (!plan.ok()) std::abort();
    map = plan->workflow.jobs[0].inputs[0].map;
  } else {
    RelationalOptions options;
    options.style = RelationalStyle::kHive;
    auto plan =
        CompileRelationalPlan(TestStarQuery(), "base", "tmp", options);
    if (!plan.ok()) std::abort();
    map = plan->workflow.jobs[0].inputs[0].map;
  }
  const std::string line =
      escaped ? Triple("http://bsbm.example/Product\t7", "property0",
                       "a label with a \\ backslash")
                    .Serialize()
              : Triple("http://bsbm.example/Product7", "property0",
                       "a label without escapes")
                    .Serialize();
  size_t outputs = 0;
  const MapEmit emit = [&outputs](std::string key, std::string value) {
    benchmark::DoNotOptimize(key.data());
    benchmark::DoNotOptimize(value.data());
    ++outputs;
  };
  for (auto _ : state) {
    Counters counters;
    map(line, emit, &counters);
  }
  const size_t expected = ntga ? 1 : 2;
  if (outputs != expected * state.iterations()) std::abort();
  state.counters["records_out_per_call"] = static_cast<double>(expected);
}
BENCHMARK_CAPTURE(BM_ScanMap, hive/plain, false, false);
BENCHMARK_CAPTURE(BM_ScanMap, hive/escaped, false, true);
BENCHMARK_CAPTURE(BM_ScanMap, ntga/plain, true, false);
BENCHMARK_CAPTURE(BM_ScanMap, ntga/escaped, true, true);

// A shuffle-heavy identity job through RunJob: 60000 records over about
// 60 block-sized map tasks, 1000 keys repeated across every task, four
// reducers. The combining variant runs an identity combiner, so both
// variants shuffle the same records. Arg = pool threads (0 = no pool).
void BM_RunJob(benchmark::State& state, bool combine) {
  ClusterConfig config;
  config.num_nodes = 4;
  config.disk_per_node = 256ULL << 20;
  config.replication = 1;
  config.block_size = 16 << 10;
  config.num_reducers = 4;
  SimDfs dfs(config);
  std::vector<std::string> input;
  for (int i = 0; i < 60000; ++i) {
    input.push_back("key" + std::to_string(i % 1000) + " value_" +
                    std::to_string(i));
  }
  if (!dfs.WriteFile("in", std::move(input)).ok()) std::abort();

  JobSpec spec;
  spec.name = "identity";
  spec.inputs.push_back(MapInput{
      "in",
      [](const std::string& record, const MapEmit& emit, Counters*) {
        const size_t space = record.find(' ');
        emit(record.substr(0, space), record.substr(space + 1));
      },
      nullptr});
  spec.reduce = [](const std::string& key, const auto& values,
                   const RecordEmit& emit, Counters*) {
    for (const std::string& value : values) emit(key + "=" + value);
  };
  if (combine) {
    spec.combine = [](const std::string&, const auto& values, Counters*) {
      return std::vector<std::string>(values.begin(), values.end());
    };
  }
  spec.output_path = "out";

  std::unique_ptr<ThreadPool> pool;
  if (state.range(0) > 0) {
    pool = std::make_unique<ThreadPool>(static_cast<uint32_t>(state.range(0)));
  }
  JobRunOptions options;
  options.pool = pool.get();
  uint64_t shuffled = 0;
  for (auto _ : state) {
    JobRunResult run = RunJob(&dfs, spec, options);
    if (!run.ok()) std::abort();
    shuffled = run.metrics.map_output_records;
    state.PauseTiming();
    if (!dfs.DeleteFile("out").ok()) std::abort();
    state.ResumeTiming();
  }
  state.counters["records_shuffled"] = static_cast<double>(shuffled);
}
BENCHMARK_CAPTURE(BM_RunJob, plain, false)
    ->Arg(0)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_RunJob, combine, true)
    ->Arg(0)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

void BM_Fnv1a(benchmark::State& state) {
  std::string value = "some_join_key_value_of_typical_length";
  for (auto _ : state) {
    benchmark::DoNotOptimize(Fnv1a64(value));
  }
}
BENCHMARK(BM_Fnv1a);

void BM_SparqlParse(benchmark::State& state) {
  const std::string text = R"(SELECT * WHERE {
    ?p <label> ?l . ?p <type> ?t . ?p ?up ?x .
    FILTER(CONTAINS(STR(?x), "feature"))
    ?o <product> ?p . ?o <vendor> ?v . })";
  for (auto _ : state) {
    auto query = ParseSparql("bench", text);
    benchmark::DoNotOptimize(query);
  }
}
BENCHMARK(BM_SparqlParse);

// ---- Answer decoding --------------------------------------------------------
//
// Final output files shaped like BSBM B3's: a product star (label, a
// CONTAINS-filtered unbound pattern, a free unbound pattern) joined to an
// offer star (product, vendor, price). Arg = answers the file decodes to.

const char kB3[] = R"(SELECT * WHERE {
    ?p <label> ?l . ?p ?up1 ?x1 . FILTER(CONTAINS(STR(?x1), "producer"))
    ?p ?up2 ?x2 .
    ?o <product> ?p . ?o <vendor> ?v . ?o <price> ?pr . })";

std::vector<StarPattern> B3Stars() {
  auto query = ParseSparql("B3", kB3);
  if (!query.ok()) std::abort();
  return query->stars();
}

std::string ProductIri(int i) {
  return "http://bsbm.example/Product" + std::to_string(i / 4);
}

// One flat tuple per answer: the schema is the product star's patterns
// then the offer star's.
void BM_DecodeRelationalAnswers(benchmark::State& state) {
  const std::vector<StarPattern> stars = B3Stars();
  RelSchema schema = stars[0].patterns;
  schema.insert(schema.end(), stars[1].patterns.begin(),
                stars[1].patterns.end());
  const AnswerDecoder decoder = RelationalAnswerDecoder(schema);
  std::vector<std::string> lines;
  for (int i = 0; i < state.range(0); ++i) {
    const std::string p = ProductIri(i);
    const std::string o = "http://bsbm.example/Offer" + std::to_string(i);
    lines.push_back(TupleRecord(
        {Triple(p, "label", "label of product " + std::to_string(i / 4)),
         Triple(p, "producer", "producer" + std::to_string(i % 13)),
         Triple(p, "feature", "feature" + std::to_string(i % 57)),
         Triple(o, "product", p),
         Triple(o, "vendor", "vendor" + std::to_string(i % 7)),
         Triple(o, "price", std::to_string(100 + i % 900) + ".99")}));
  }
  for (auto _ : state) {
    auto answers = decoder(lines);
    if (!answers.ok()) std::abort();
    benchmark::DoNotOptimize(answers);
  }
  state.counters["answers"] = static_cast<double>(decoder(lines)->size());
}
BENCHMARK(BM_DecodeRelationalAnswers)->Arg(1000)->Arg(10000);

// One joined record per offer; its product group holds a label, a
// producer and two features, so each record expands to four answers.
void BM_DecodeJoinedTgAnswers(benchmark::State& state) {
  const AnswerDecoder decoder = JoinedTgAnswerDecoder(B3Stars());
  std::vector<std::string> lines;
  for (int i = 0; i < state.range(0); i += 4) {
    std::string product;
    TgWriter product_writer(&product, ProductIri(i), 0);
    product_writer.Property("feature");
    product_writer.Object("feature" + std::to_string(i % 57));
    product_writer.Object("feature" + std::to_string(i % 57 + 1));
    product_writer.Property("label");
    product_writer.Object("label of product " + std::to_string(i / 4));
    product_writer.Property("producer");
    product_writer.Object("producer" + std::to_string(i % 13));
    product_writer.EndPairs();
    std::string offer;
    TgWriter offer_writer(&offer,
                          "http://bsbm.example/Offer" + std::to_string(i), 1);
    offer_writer.Property("price");
    offer_writer.Object(std::to_string(100 + i % 900) + ".99");
    offer_writer.Property("product");
    offer_writer.Object(ProductIri(i));
    offer_writer.Property("vendor");
    offer_writer.Object("vendor" + std::to_string(i % 7));
    offer_writer.EndPairs();
    lines.push_back(JoinRecords(product, offer));
  }
  for (auto _ : state) {
    auto answers = decoder(lines);
    if (!answers.ok()) std::abort();
    benchmark::DoNotOptimize(answers);
  }
  state.counters["answers"] = static_cast<double>(decoder(lines)->size());
}
BENCHMARK(BM_DecodeJoinedTgAnswers)->Arg(1000)->Arg(10000);

// Exercises the σ^βγ/μ^β operators once more with the global
// operator-metric gate ON and dumps the registry: the per-operator
// `rdfmr_ntga_*` timing histograms and cardinality counters end up on
// stderr without perturbing the timed loops above (which run with the
// gate off, i.e. the production null-sink fast path).
void RunInstrumentedOperatorPass() {
  EnableOperatorMetrics(true);
  StarPattern star = TestStar();
  const BetaUnnester unnester(star);
  const TestPairs pairs(64);
  const AnswerDecoder decoder = JoinedTgAnswerDecoder({star});
  const std::string group = TestGroup(32);
  TgRecordReader reader;
  const auto sink = [](auto, std::string_view out) {
    benchmark::DoNotOptimize(out.data());
  };
  for (int i = 0; i < 1000; ++i) {
    std::string record;
    BuildAnnTg(star, 0, "subject42", pairs.views, &record);
    benchmark::DoNotOptimize(record.data());
    if (!reader.Read(group).ok()) std::abort();
    unnester.BetaUnnest(reader, reader.components()[0], {}, sink);
    unnester.PartialBetaUnnest(reader, reader.components()[0], 2, 16, sink);
    auto solutions = decoder({&group, 1});
    benchmark::DoNotOptimize(solutions);
  }
  EnableOperatorMetrics(false);
  std::fprintf(stderr, "-- operator metrics (Prometheus text) --\n%s",
               MetricsRegistry::Global().ToPrometheusText().c_str());
}

}  // namespace
}  // namespace rdfmr

int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  rdfmr::RunInstrumentedOperatorPass();
  return 0;
}

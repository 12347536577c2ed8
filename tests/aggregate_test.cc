// Tests for the aggregation-constraint extension (the paper's future
// direction): spec validation, in-memory semantics, the SPARQL syntax, and
// cross-engine equivalence of the appended aggregation MR cycle.

#include <gtest/gtest.h>

#include "common/strings.h"
#include "query/aggregate.h"
#include "query/matcher.h"
#include "query/sparql_parser.h"
#include "tests/test_util.h"

namespace rdfmr {
namespace {

using testing_util::AllEngineKinds;
using testing_util::MakeDfsWithBase;
using testing_util::SmallDataset;

GraphPatternQuery DegreeQuery() {
  auto q = ParseSparql("degree", R"(SELECT * WHERE {
    ?g <label> ?l . ?g ?p ?x .
  })");
  EXPECT_TRUE(q.ok());
  return q.MoveValueUnsafe();
}

AggregateSpec DegreeSpec(uint64_t min_count = 0, bool distinct = true) {
  AggregateSpec spec;
  spec.group_vars = {"g"};
  spec.counted_var = "p";
  spec.count_var = "n";
  spec.distinct = distinct;
  spec.min_count = min_count;
  return spec;
}

// ---- Spec validation -----------------------------------------------------------

TEST(AggregateSpecTest, ValidatesAgainstQueryVariables) {
  GraphPatternQuery q = DegreeQuery();
  EXPECT_TRUE(DegreeSpec().Validate(q).ok());

  AggregateSpec bad_group = DegreeSpec();
  bad_group.group_vars = {"nope"};
  EXPECT_FALSE(bad_group.Validate(q).ok());

  AggregateSpec no_group = DegreeSpec();
  no_group.group_vars.clear();
  EXPECT_FALSE(no_group.Validate(q).ok());

  AggregateSpec bad_counted = DegreeSpec();
  bad_counted.counted_var = "nope";
  EXPECT_FALSE(bad_counted.Validate(q).ok());

  AggregateSpec colliding = DegreeSpec();
  colliding.count_var = "x";  // already a pattern variable
  EXPECT_FALSE(colliding.Validate(q).ok());
}

// ---- In-memory semantics --------------------------------------------------------

TEST(AggregateTest, CountsDistinctEdgeLabels) {
  std::vector<Triple> triples = {
      {"g1", "label", "a"}, {"g1", "xGO", "t1"}, {"g1", "xGO", "t2"},
      {"g1", "xRef", "r1"}, {"g2", "label", "b"}, {"g2", "xGO", "t1"},
  };
  GraphPatternQuery q = DegreeQuery();
  // COUNT(DISTINCT ?p): g1 has {label, xGO, xRef} = 3; g2 has 2.
  SolutionSet result =
      EvaluateAggregateInMemory(q, DegreeSpec(/*min_count=*/0), triples);
  ASSERT_EQ(result.size(), 2u);
  for (const Solution& s : result) {
    if (*s.Get("g") == "g1") {
      EXPECT_EQ(*s.Get("n"), "3");
    } else {
      EXPECT_EQ(*s.Get("n"), "2");
    }
  }
}

TEST(AggregateTest, HavingFiltersGroups) {
  std::vector<Triple> triples = {
      {"g1", "label", "a"}, {"g1", "xGO", "t1"}, {"g1", "xRef", "r1"},
      {"g2", "label", "b"},
  };
  GraphPatternQuery q = DegreeQuery();
  SolutionSet result =
      EvaluateAggregateInMemory(q, DegreeSpec(/*min_count=*/3), triples);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(*result.begin()->Get("g"), "g1");
}

TEST(AggregateTest, NonDistinctCountsSolutionRows) {
  std::vector<Triple> triples = {
      {"g1", "label", "a"}, {"g1", "xGO", "t1"}, {"g1", "xGO", "t2"},
  };
  GraphPatternQuery q = DegreeQuery();
  // Solutions for g1: (label,a), (xGO,t1), (xGO,t2) -> 3 rows, but only 2
  // distinct properties.
  SolutionSet rows = EvaluateAggregateInMemory(
      q, DegreeSpec(0, /*distinct=*/false), triples);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(*rows.begin()->Get("n"), "3");
  SolutionSet distinct = EvaluateAggregateInMemory(
      q, DegreeSpec(0, /*distinct=*/true), triples);
  EXPECT_EQ(*distinct.begin()->Get("n"), "2");
}

TEST(AggregateTest, MultipleGroupVars) {
  std::vector<Triple> triples = {
      {"g1", "label", "a"}, {"g1", "xGO", "t1"}, {"g1", "xGO", "t2"},
  };
  GraphPatternQuery q = DegreeQuery();
  AggregateSpec spec;
  spec.group_vars = {"g", "l"};
  spec.counted_var = "x";
  spec.count_var = "n";
  SolutionSet result = EvaluateAggregateInMemory(q, spec, triples);
  ASSERT_EQ(result.size(), 1u);
  const Solution& s = *result.begin();
  EXPECT_EQ(*s.Get("g"), "g1");
  EXPECT_EQ(*s.Get("l"), "a");
  EXPECT_EQ(*s.Get("n"), "3");  // objects a, t1, t2
}

// ---- SPARQL syntax ---------------------------------------------------------------

TEST(AggregateParseTest, FullSyntax) {
  auto parsed = ParseSparqlQuery("agg", R"(
      SELECT ?g (COUNT(DISTINCT ?p) AS ?n)
      WHERE { ?g <label> ?l . ?g ?p ?x . }
      GROUP BY ?g
      HAVING (COUNT(DISTINCT ?p) >= 3))");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_TRUE(parsed->aggregate.has_value());
  const AggregateSpec& spec = *parsed->aggregate;
  EXPECT_EQ(spec.group_vars, (std::vector<std::string>{"g"}));
  EXPECT_EQ(spec.counted_var, "p");
  EXPECT_EQ(spec.count_var, "n");
  EXPECT_TRUE(spec.distinct);
  EXPECT_EQ(spec.min_count, 3u);
}

TEST(AggregateParseTest, ProjectionDefaultsGroupBy) {
  auto parsed = ParseSparqlQuery("agg", R"(
      SELECT ?g ?l (COUNT(?x) AS ?n)
      WHERE { ?g <label> ?l . ?g ?p ?x . })");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_TRUE(parsed->aggregate.has_value());
  EXPECT_EQ(parsed->aggregate->group_vars,
            (std::vector<std::string>{"g", "l"}));
  EXPECT_FALSE(parsed->aggregate->distinct);
  EXPECT_EQ(parsed->aggregate->min_count, 0u);
}

TEST(AggregateParseTest, Errors) {
  // GROUP BY without COUNT.
  EXPECT_FALSE(ParseSparqlQuery("e", R"(
      SELECT ?g WHERE { ?g <p> ?x . } GROUP BY ?g)")
                   .ok());
  // HAVING with a different expression than projected.
  EXPECT_FALSE(ParseSparqlQuery("e", R"(
      SELECT ?g (COUNT(DISTINCT ?p) AS ?n)
      WHERE { ?g ?p ?x . ?g <label> ?l . }
      HAVING (COUNT(?x) >= 2))")
                   .ok());
  // Unknown counted variable.
  EXPECT_FALSE(ParseSparqlQuery("e", R"(
      SELECT ?g (COUNT(?zzz) AS ?n) WHERE { ?g <p> ?x . })")
                   .ok());
  // ParseSparql rejects aggregates politely.
  EXPECT_FALSE(ParseSparql("e", R"(
      SELECT ?g (COUNT(?x) AS ?n) WHERE { ?g <p> ?x . })")
                   .ok());
}

// ---- Cross-engine equivalence ------------------------------------------------------

struct AggCase {
  std::string bgp_id;  // testbed BGP to aggregate over
  EngineKind engine;
};

std::string AggCaseName(const ::testing::TestParamInfo<AggCase>& info) {
  std::string name =
      info.param.bgp_id + "_" + EngineKindToString(info.param.engine);
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name;
}

class AggregateEngineTest : public ::testing::TestWithParam<AggCase> {};

TEST_P(AggregateEngineTest, MatchesOracle) {
  const AggCase& param = GetParam();
  auto entry = GetTestbedEntry(param.bgp_id);
  ASSERT_TRUE(entry.ok());
  auto query = GetTestbedQuery(param.bgp_id);
  ASSERT_TRUE(query.ok());

  // Group by every star subject; count the first unbound property's
  // matches (distinct), with a mild HAVING threshold.
  AggregateSpec spec;
  for (const StarPattern& star : (*query)->stars()) {
    spec.group_vars.push_back(star.subject_var);
  }
  ASSERT_TRUE((*query)->HasUnbound());
  for (const StarPattern& star : (*query)->stars()) {
    std::vector<size_t> unbound = star.UnboundIndexes();
    if (!unbound.empty()) {
      spec.counted_var = star.patterns[unbound[0]].property;
      break;
    }
  }
  spec.count_var = "n";
  spec.distinct = true;
  spec.min_count = 2;

  std::vector<Triple> triples = SmallDataset(entry->dataset);
  SolutionSet oracle = EvaluateAggregateInMemory(**query, spec, triples);

  auto dfs = MakeDfsWithBase(triples);
  ASSERT_NE(dfs, nullptr);
  EngineOptions options;
  options.kind = param.engine;
  options.phi_partitions = 16;
  auto exec =
      Exec(dfs.get(), "base", ExecRequest::Single(*query, spec), options);
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  ASSERT_TRUE(exec->stats.ok()) << exec->stats.status.ToString();
  EXPECT_TRUE(exec->answers == oracle)
      << param.bgp_id << " on " << EngineKindToString(param.engine)
      << ": got " << exec->answers.size() << ", oracle "
      << oracle.size();
  // The aggregation adds exactly one MR cycle.
  EngineOptions plain = options;
  auto base_exec = Exec(dfs.get(), "base", ExecRequest::Single(*query), plain);
  ASSERT_TRUE(base_exec.ok());
  EXPECT_EQ(exec->stats.mr_cycles, base_exec->stats.mr_cycles + 1);
}

std::vector<AggCase> AggCases() {
  std::vector<AggCase> cases;
  for (const char* id : {"B1", "B4", "A1", "A3", "C1", "C4"}) {
    for (EngineKind kind : AllEngineKinds()) {
      cases.push_back(AggCase{id, kind});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Testbed, AggregateEngineTest,
                         ::testing::ValuesIn(AggCases()), AggCaseName);

TEST(AggregateEngineTest, CombinerCutsShuffleWithoutChangingAnswers) {
  std::vector<Triple> triples = SmallDataset(DatasetFamily::kBio2Rdf);
  auto query = GetTestbedQuery("A1");
  ASSERT_TRUE(query.ok());
  AggregateSpec spec;
  spec.group_vars = {"g"};
  spec.counted_var = "up";
  spec.count_var = "n";
  spec.min_count = 1;

  auto dfs = MakeDfsWithBase(triples);
  ASSERT_NE(dfs, nullptr);
  EngineOptions options;
  options.kind = EngineKind::kNtgaLazy;
  auto exec =
      Exec(dfs.get(), "base", ExecRequest::Single(*query, spec), options);
  ASSERT_TRUE(exec.ok());
  ASSERT_TRUE(exec->stats.ok());
  EXPECT_EQ(exec->answers, EvaluateAggregateInMemory(**query, spec, triples));
  const JobMetrics& aggregate = exec->stats.jobs.back();
  ASSERT_EQ(aggregate.job_name, "aggregate-count");
  EXPECT_GT(aggregate.counters.at("combine_input_records"),
            aggregate.map_output_records)
      << "map-side dedup must shrink the aggregation shuffle";
}

// The aggregation cycle over the escape-heavy graph (record separators,
// '=', ';', a backslash and a newline inside the terms) on every engine at
// 1 and 4 threads: COUNT(DISTINCT ?up) and COUNT(?x) per (?l, ?p), with
// the count named to sort before, between and after the group variables.
TEST(AggregateEngineTest, EscapeHeavyGraphMatchesOracle) {
  const std::vector<Triple> triples =
      testing_util::SeparatorGraph(SmallDataset(DatasetFamily::kBsbm));
  auto query = GetTestbedQuery("B4");
  ASSERT_TRUE(query.ok());
  auto dfs = MakeDfsWithBase(triples);
  ASSERT_NE(dfs, nullptr);
  for (bool distinct : {true, false}) {
    for (const char* count_var : {"a", "n", "z"}) {
      AggregateSpec spec;
      spec.group_vars = {"p", "l"};
      spec.counted_var = distinct ? "up" : "x";
      spec.count_var = count_var;
      spec.distinct = distinct;
      ASSERT_TRUE(spec.Validate(**query).ok());
      const SolutionSet oracle =
          EvaluateAggregateInMemory(**query, spec, triples);
      ASSERT_FALSE(oracle.empty());
      for (EngineKind kind : AllEngineKinds()) {
        for (uint32_t threads : {1u, 4u}) {
          EngineOptions options;
          options.kind = kind;
          options.runtime.num_threads = threads;
          auto exec = Exec(dfs.get(), "base",
                           ExecRequest::Single(*query, spec), options);
          const std::string context =
              StringFormat("%s distinct=%d count_var=%s threads=%u",
                           EngineKindToString(kind), distinct, count_var,
                           threads);
          ASSERT_TRUE(exec.ok()) << context << ": "
                                 << exec.status().ToString();
          ASSERT_TRUE(exec->stats.ok())
              << context << ": " << exec->stats.status.ToString();
          EXPECT_TRUE(exec->answers == oracle)
              << context << ": got " << exec->answers.size() << ", oracle "
              << oracle.size();
        }
      }
    }
  }
}

// The cycle's reducer writes the group's canonical line with the count in
// its sorted place, whatever the group variables' order in the spec.
TEST(AggregateEngineTest, ReducerWritesTheCountInItsPlace) {
  auto query = GetTestbedQuery("B4");
  ASSERT_TRUE(query.ok());
  Solution group;
  group.Bind("l", "label=1;\\");
  group.Bind("p", "product\n7");
  for (const char* count_var : {"a", "n", "z"}) {
    AggregateSpec spec;
    spec.group_vars = {"p", "l"};
    spec.counted_var = "up";
    spec.count_var = count_var;
    auto plan = CompilePlan(ExecRequest::Single(*query, spec), "base", "tmp",
                            EngineOptions{});
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    std::vector<std::string> out;
    Counters counters;
    plan->workflow.jobs.back().reduce(
        group.Serialize(), std::vector<std::string>{"type1", "type2", "type1"},
        [&out](std::string line) { out.push_back(std::move(line)); },
        &counters);
    Solution counted = group;
    counted.Bind(count_var, "2");
    EXPECT_EQ(out, std::vector<std::string>{counted.Serialize()})
        << count_var;
  }
}

// The aggregated plan's decoder reads the group variables plus count_var
// only: the reducer's lines decode, a line binding any other variable is
// an IoError naming it, and an answer with no rows has an empty header.
TEST(AggregateEngineTest, AggregatedDecoderHasAFixedHeader) {
  auto query = GetTestbedQuery("B4");
  ASSERT_TRUE(query.ok());
  AggregateSpec spec;
  spec.group_vars = {"p", "l", "p"};
  spec.counted_var = "up";
  spec.count_var = "n";
  for (EngineKind kind : {EngineKind::kHive, EngineKind::kNtgaLazy}) {
    EngineOptions options;
    options.kind = kind;
    auto plan = CompilePlan(ExecRequest::Single(*query, spec), "base", "tmp",
                            options);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    const AnswerDecoder& decoder = plan->decoder;
    EXPECT_EQ(decoder.variables, (std::vector<std::string>{"l", "n", "p"}));
    Solution counted;
    counted.Bind("l", "label=1;\\");
    counted.Bind("n", "3");
    counted.Bind("p", "product\n7");
    auto table = decoder(std::vector<std::string>{counted.Serialize()});
    ASSERT_TRUE(table.ok()) << table.status().ToString();
    EXPECT_EQ(*table, SolutionSet({counted}));
    Solution stray = counted;
    stray.Bind("up", "type1");
    const Status status =
        decoder(std::vector<std::string>{counted.Serialize(),
                                         stray.Serialize()})
            .status();
    EXPECT_TRUE(status.IsIoError()) << status.ToString();
    EXPECT_NE(status.message().find("?up"), std::string::npos)
        << status.ToString();
    auto none = decoder(std::vector<std::string>{});
    ASSERT_TRUE(none.ok()) << none.status().ToString();
    EXPECT_TRUE(none->variables().empty());
    EXPECT_EQ(*none, SolutionSet());
  }
}

// The mapper ships each distinct row of a record once, as a finished
// table keeps it: a record whose pair repeats an object expands to a
// repeated row, which counts and ships once.
TEST(AggregateEngineTest, MapperShipsEachDistinctRowOnce) {
  auto parsed = ParseSparqlQuery(
      "labels", "SELECT ?g (COUNT(?l) AS ?n) WHERE { ?g <label> ?l . } "
                "GROUP BY ?g");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EngineOptions options;
  options.kind = EngineKind::kNtgaLazy;
  auto plan = CompilePlan(
      ExecRequest::Single(
          std::make_shared<const GraphPatternQuery>(std::move(parsed->query)),
          parsed->aggregate),
      "base", "tmp", options);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const std::string record = "g1\x1F" "0\x1F" "label,l1,l1,l2\x1F";
  std::vector<std::string> values;
  Counters counters;
  plan->workflow.jobs.back().inputs[0].map(
      record,
      [&values](std::string key, std::string value) {
        EXPECT_EQ(key, "g=g1");
        values.push_back(std::move(value));
      },
      &counters);
  std::sort(values.begin(), values.end());
  EXPECT_EQ(values, (std::vector<std::string>{"g=g1;l=l1", "g=g1;l=l2"}));
  EXPECT_EQ(counters["bad_records"], 0u);
}

TEST(AggregateEngineTest, NtgaReadsLessIntoTheAggregationCycle) {
  // The aggregation cycle consumes the engine's final output; NTGA's
  // nested representation makes that input much smaller.
  std::vector<Triple> triples = SmallDataset(DatasetFamily::kBio2Rdf);
  auto query = GetTestbedQuery("A1");
  ASSERT_TRUE(query.ok());
  AggregateSpec spec;
  spec.group_vars = {"g"};
  spec.counted_var = "up";
  spec.count_var = "n";
  spec.min_count = 2;

  auto dfs = MakeDfsWithBase(triples);
  ASSERT_NE(dfs, nullptr);
  EngineOptions hive;
  hive.kind = EngineKind::kHive;
  EngineOptions lazy;
  lazy.kind = EngineKind::kNtgaLazy;
  auto hive_exec =
      Exec(dfs.get(), "base", ExecRequest::Single(*query, spec), hive);
  auto lazy_exec =
      Exec(dfs.get(), "base", ExecRequest::Single(*query, spec), lazy);
  ASSERT_TRUE(hive_exec.ok() && lazy_exec.ok());
  ASSERT_TRUE(hive_exec->stats.ok() && lazy_exec->stats.ok());
  EXPECT_EQ(hive_exec->answers, lazy_exec->answers);
  const JobMetrics& hive_agg = hive_exec->stats.jobs.back();
  const JobMetrics& lazy_agg = lazy_exec->stats.jobs.back();
  EXPECT_LT(lazy_agg.input_bytes, hive_agg.input_bytes)
      << "nested triplegroups feed the count without materializing "
         "combinations";
}

}  // namespace
}  // namespace rdfmr

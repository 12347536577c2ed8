// Tests for the relational layer: n-tuple records and their one reader,
// the compiled star join against the oracle's star enumerator, answer
// decoding, the join cycles' handling of bad inputs, and the Pig/Hive plan
// compilers' structural properties
// (cycle counts, scan counts, compress jobs, inlined single-pattern stars,
// Sel-SJ-first shapes).

#include <gtest/gtest.h>

#include <map>

#include "common/random.h"
#include "common/strings.h"
#include "datagen/testbed.h"
#include "query/matcher.h"
#include "query/sparql_parser.h"
#include "relational/rel_compiler.h"
#include "relational/rel_tuple.h"
#include "tests/test_util.h"

namespace rdfmr {
namespace {

using Lines = std::vector<std::string>;
using testing_util::TupleLine;

RelSchema TwoPatternSchema() {
  return {
      TriplePattern::Bound(NodePattern::Var("g"), "label",
                           NodePattern::Var("l")),
      TriplePattern::Unbound(NodePattern::Var("g"), "up",
                             NodePattern::Var("x")),
  };
}

std::vector<Triple> MakeTuple() {
  std::vector<Triple> t;
  t.emplace_back("gene9", "label", "retinoid");
  t.emplace_back("gene9", "xGO", "go1");
  return t;
}

// The reader's bindings of `line` under `schema`, as a Solution.
Result<Solution> ReadBindings(const RelSchema& schema, std::string_view line) {
  RelRecordReader reader(schema);
  RDFMR_RETURN_NOT_OK(reader.Read(line));
  Solution out;
  for (size_t k = 0; k < reader.variables().size(); ++k) {
    if (reader.bound(k)) out.Bind(reader.variables()[k], reader.value(k));
  }
  return out;
}

// Records are canonical: a join emits its input records side by side,
// which must equal serializing the concatenated tuple.
TEST(TupleRecordTest, SideBySideEqualsSerializingTheConcatenation) {
  static const std::string kAlphabet =
      std::string("ab\\sn\t\n,|\x1E\x1F") + '\0';
  Rng rng(20261017);
  auto term = [&rng] {
    std::string out;
    for (size_t i = rng.Uniform(5); i > 0; --i) {
      out.push_back(kAlphabet[rng.Uniform(kAlphabet.size())]);
    }
    return out;
  };
  auto tuple = [&rng, &term] {
    std::vector<Triple> t;
    for (size_t i = 1 + rng.Uniform(3); i > 0; --i) {
      // A null triple stands for an unmatched OPTIONAL pattern.
      t.push_back(rng.Chance(0.2) ? Triple() : Triple(term(), term(), term()));
    }
    return t;
  };
  for (int round = 0; round < 500; ++round) {
    const std::vector<Triple> a = tuple();
    const std::vector<Triple> b = tuple();
    std::vector<Triple> ab = a;
    ab.insert(ab.end(), b.begin(), b.end());
    EXPECT_EQ(TupleLine(a) + '\t' + TupleLine(b), TupleLine(ab))
        << "round " << round;
    EXPECT_EQ(JoinTupleRecords(TupleLine(a), TupleLine(b)), TupleLine(ab))
        << "round " << round;
  }
}

TEST(RelRecordReaderTest, ChecksArity) {
  RelSchema three = TwoPatternSchema();
  three.push_back(three[0]);
  EXPECT_TRUE(ReadBindings(three, TupleLine(MakeTuple()))
                  .status()
                  .IsIoError());
  EXPECT_TRUE(ReadBindings({TwoPatternSchema()[0]}, "a\tb")
                  .status()
                  .IsIoError());
}

TEST(RelRecordReaderTest, BindsAllVariables) {
  auto sol = ReadBindings(TwoPatternSchema(), TupleLine(MakeTuple()));
  ASSERT_TRUE(sol.ok());
  EXPECT_EQ(*sol->Get("g"), "gene9");
  EXPECT_EQ(*sol->Get("l"), "retinoid");
  EXPECT_EQ(*sol->Get("up"), "xGO");
  EXPECT_EQ(*sol->Get("x"), "go1");
}

TEST(RelRecordReaderTest, RejectsMismatchedColumn) {
  std::vector<Triple> t = MakeTuple();
  t[0].property = "wrongProperty";
  EXPECT_TRUE(ReadBindings(TwoPatternSchema(), TupleLine(t))
                  .status()
                  .IsInvalidArgument());
}

TEST(RelRecordReaderTest, RejectsInconsistentSharedVariable) {
  RelSchema schema = {
      TriplePattern::Bound(NodePattern::Var("g"), "p1",
                           NodePattern::Var("v")),
      TriplePattern::Bound(NodePattern::Var("g"), "p2",
                           NodePattern::Var("v")),
  };
  std::vector<Triple> t;
  t.emplace_back("s", "p1", "same");
  t.emplace_back("s", "p2", "different");
  EXPECT_TRUE(ReadBindings(schema, TupleLine(t)).status().IsInvalidArgument());
}

// A join key is the reader's slot of the join variable.
TEST(RelRecordReaderTest, SlotsHoldJoinKeys) {
  RelRecordReader reader(TwoPatternSchema());
  const std::string line = TupleLine(MakeTuple());  // the views' backing
  ASSERT_TRUE(reader.Read(line).ok());
  const size_t g = reader.SlotOf("g");
  ASSERT_NE(g, RelRecordReader::kNoSlot);
  EXPECT_EQ(reader.value(g), "gene9");
  const size_t x = reader.SlotOf("x");
  ASSERT_NE(x, RelRecordReader::kNoSlot);
  EXPECT_EQ(reader.value(x), "go1");
  EXPECT_EQ(reader.SlotOf("nope"), RelRecordReader::kNoSlot);
}

// The reference the reader must agree with: split the line, rebuild each
// column's triple and bind it with BindTriplePattern, column by column.
Result<Solution> ReferenceBindings(const RelSchema& schema,
                                   std::string_view line) {
  const std::vector<std::string> fields = SplitEscaped(line, '\t');
  if (fields.size() != 3 * schema.size()) {
    return Status::IoError("wrong field count");
  }
  Solution out;
  for (size_t i = 0; i < schema.size(); ++i) {
    const Triple t(fields[3 * i], fields[3 * i + 1], fields[3 * i + 2]);
    if (t.subject.empty() && t.property.empty() && t.object.empty()) {
      if (schema[i].optional) continue;
      return Status::InvalidArgument("null triple at a mandatory column");
    }
    if (!BindTriplePattern(schema[i], t, &out)) {
      return Status::InvalidArgument("column does not bind");
    }
  }
  return out;
}

// Random schemas and tuples: variables shared across columns (also between
// property and node positions), constant and CONTAINS-filtered objects,
// unbound properties, OPTIONAL columns holding null triples, wrong field
// counts, and terms full of tabs, backslashes and newlines. The reader's
// acceptance, Status code and bindings must equal the reference's.
TEST(RelRecordReaderTest, AgreesWithBindTriplePatternReference) {
  static const std::vector<std::string> kTerms = {
      "a", "ab", "", "t\tab", "back\\slash", "new\nline", "\\t", "a\\"};
  static const std::vector<std::string> kVars = {"v", "w", "x", "y"};
  static const std::vector<std::string> kProperties = {"p", "q\t", "r\\"};
  Rng rng(20261018);
  auto pick = [&rng](const std::vector<std::string>& from) {
    return from[rng.Uniform(from.size())];
  };
  size_t accepted = 0;
  for (int round = 0; round < 500; ++round) {
    RelSchema schema;
    for (size_t i = 1 + rng.Uniform(4); i > 0; --i) {
      const NodePattern subject = NodePattern::Var(pick(kVars));
      const NodePattern object =
          rng.Chance(0.2) ? NodePattern::Const(pick(kTerms))
                          : NodePattern::Var(pick(kVars),
                                             rng.Chance(0.2) ? "a" : "");
      TriplePattern tp =
          rng.Chance(0.4)
              ? TriplePattern::Unbound(subject, pick(kVars), object)
              : TriplePattern::Bound(subject, pick(kProperties), object);
      tp.optional = rng.Chance(0.3);
      schema.push_back(std::move(tp));
    }
    // Mostly a match under one assignment of the variables, then noise.
    std::map<std::string, std::string> value;
    for (const std::string& var : kVars) value[var] = pick(kTerms);
    std::vector<Triple> tuple;
    for (const TriplePattern& tp : schema) {
      if (rng.Chance(0.15)) {
        tuple.emplace_back();
        continue;
      }
      Triple t(value[tp.subject.value],
               tp.property_bound ? tp.property : value[tp.property],
               tp.object.is_variable() ? value[tp.object.value]
                                       : tp.object.value);
      if (rng.Chance(0.1)) t.subject = pick(kTerms);
      if (rng.Chance(0.1)) t.property = pick(kProperties);
      if (rng.Chance(0.1)) t.object = pick(kTerms);
      tuple.push_back(std::move(t));
    }
    std::string line = TupleLine(tuple);
    if (rng.Chance(0.05)) line += "\textra";
    if (rng.Chance(0.05)) line.erase(line.rfind('\t'));

    const Result<Solution> expected = ReferenceBindings(schema, line);
    const Result<Solution> actual = ReadBindings(schema, line);
    ASSERT_EQ(actual.status().code(), expected.status().code())
        << "round " << round << ": " << actual.status().ToString();
    if (!expected.ok()) continue;
    ++accepted;
    EXPECT_EQ(*actual, *expected) << "round " << round;
  }
  EXPECT_GT(accepted, 100u) << "too few tuples accepted to cover bindings";
  EXPECT_LT(accepted, 400u) << "too few tuples rejected to cover rejections";
}

TEST(TupleRecordTest, DecodeAnswersDeduplicates) {
  std::vector<Triple> t = MakeTuple();
  auto set = RelationalAnswerDecoder(TwoPatternSchema())(
      Lines{TupleLine(t), TupleLine(t)});
  ASSERT_TRUE(set.ok());
  EXPECT_EQ(set->size(), 1u);
}

// The table decoder keeps every rejection of the per-tuple path, with its
// Status code: field count (IoError), a null triple at a mandatory column,
// a column that does not match its pattern, and a repeated variable that
// disagrees across columns or within one (InvalidArgument).
TEST(TupleRecordTest, DecodeAnswersRejectionsKeepTheirCodes) {
  const RelSchema schema = TwoPatternSchema();
  auto decode = [](const RelSchema& s, const std::vector<Triple>& t) {
    return RelationalAnswerDecoder(s)(Lines{TupleLine(t)}).status();
  };
  const AnswerDecoder decoder = RelationalAnswerDecoder(schema);
  EXPECT_TRUE(
      decoder(Lines{"gene9\tlabel\tretinoid"}).status().IsIoError());
  const std::string extra_field = TupleLine(MakeTuple()) + "\textra";
  EXPECT_TRUE(decoder({&extra_field, 1}).status().IsIoError());

  std::vector<Triple> null_column = MakeTuple();
  null_column[1] = Triple("", "", "");
  EXPECT_TRUE(decode(schema, null_column).IsInvalidArgument());
  RelSchema optional_schema = schema;
  optional_schema[1].optional = true;
  auto unmatched =
      RelationalAnswerDecoder(optional_schema)(Lines{TupleLine(null_column)});
  ASSERT_TRUE(unmatched.ok()) << unmatched.status().ToString();
  ASSERT_EQ(unmatched->size(), 1u);
  EXPECT_FALSE(unmatched->Row(0).Has("x")) << "the OPTIONAL slot is unbound";

  std::vector<Triple> wrong_property = MakeTuple();
  wrong_property[0].property = "wrongProperty";
  EXPECT_TRUE(decode(schema, wrong_property).IsInvalidArgument());

  const RelSchema shared = {
      TriplePattern::Bound(NodePattern::Var("g"), "p1",
                           NodePattern::Var("v")),
      TriplePattern::Bound(NodePattern::Var("g"), "p2",
                           NodePattern::Var("v")),
  };
  std::vector<Triple> disagree;
  disagree = {Triple("s", "p1", "same"), Triple("s", "p2", "other")};
  EXPECT_TRUE(decode(shared, disagree).IsInvalidArgument());
  std::vector<Triple> subjects_disagree;
  subjects_disagree = {Triple("s", "p1", "v"), Triple("t", "p2", "v")};
  EXPECT_TRUE(decode(shared, subjects_disagree).IsInvalidArgument());
  const RelSchema self_loop = {TriplePattern::Bound(
      NodePattern::Var("s"), "loop", NodePattern::Var("s"))};
  std::vector<Triple> not_a_loop;
  not_a_loop = {Triple("a", "loop", "b")};
  EXPECT_TRUE(decode(self_loop, not_a_loop).IsInvalidArgument());
}

// The read-back's chunked decode of an answer file several chunks long
// equals the serial decoder's table, unmatched OPTIONAL columns included;
// with rejected lines in two chunks it returns the serial decoder's
// error, the earlier line's.
TEST(TupleRecordTest, ChunkedDecodeMatchesTheSerialDecoder) {
  RelSchema schema = TwoPatternSchema();
  schema[1].optional = true;
  const AnswerDecoder decoder = RelationalAnswerDecoder(schema);
  Lines lines;
  for (size_t i = 0; i < 3 * ChunkedDecode::kLines + 17; ++i) {
    const std::string gene = "gene" + std::to_string(i % 251);
    lines.push_back(TupleLine(
        {Triple(gene, "label", "l" + std::to_string(i % 13)),
         i % 5 == 0 ? Triple()
                    : Triple(gene, "p" + std::to_string(i % 7),
                             "o" + std::to_string(i % 101))}));
  }
  Result<SolutionSet> serial = decoder(lines);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  EXPECT_GT(serial->size(), ChunkedDecode::kLines);
  for (uint32_t threads : {1u, 4u}) {
    Result<SolutionSet> pooled =
        testing_util::DecodeOnPool(decoder, lines, threads);
    ASSERT_TRUE(pooled.ok()) << pooled.status().ToString();
    EXPECT_TRUE(*pooled == *serial);
  }

  std::vector<Triple> wrong_property = MakeTuple();
  wrong_property[0].property = "wrongProperty";
  lines[ChunkedDecode::kLines + 5] = "gene9\tlabel\tretinoid";
  lines[2 * ChunkedDecode::kLines + 3] = TupleLine(wrong_property);
  serial = decoder(lines);
  ASSERT_TRUE(serial.status().IsIoError()) << serial.status().ToString();
  const Result<SolutionSet> later =
      decoder({&lines[2 * ChunkedDecode::kLines + 3], 1});
  ASSERT_NE(later.status().ToString(), serial.status().ToString());
  const Result<SolutionSet> pooled = testing_util::DecodeOnPool(decoder, lines);
  EXPECT_EQ(pooled.status().code(), serial.status().code());
  EXPECT_EQ(pooled.status().message(), serial.status().message());
}

// ---- Star join ----------------------------------------------------------------

// The star-join reducer a Hive plan compiles for a one-star query.
ReduceFn CompiledStarReducer(std::vector<TriplePattern> patterns) {
  auto query = GraphPatternQuery::Create("star", std::move(patterns));
  EXPECT_TRUE(query.ok()) << query.status().ToString();
  if (!query.ok()) return nullptr;
  RelationalOptions options;
  options.style = RelationalStyle::kHive;
  auto plan = CompileRelationalPlan(
      std::make_shared<const GraphPatternQuery>(std::move(*query)), "base",
      "tmp", options);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  if (!plan.ok()) return nullptr;
  EXPECT_EQ(plan->workflow.jobs.size(), 1u);
  return plan->workflow.jobs[0].reduce;
}

// A line Triple::Deserialize reads as `t` but that Serialize() would not
// write: some bytes escaped needlessly, some newlines left raw.
std::string Respelled(const Triple& t, Rng* rng) {
  std::string out;
  for (const std::string* field : {&t.subject, &t.property, &t.object}) {
    if (field != &t.subject) out.push_back('\t');
    for (char c : *field) {
      if (c == '\\') {
        out += "\\\\";
      } else if (c == '\t') {
        out += "\\s";
      } else if (c == '\n') {
        out += rng->Chance(0.5) ? "\n" : "\\n";
      } else if (c != 's' && c != 'n' && rng->Chance(0.3)) {
        out.push_back('\\');
        out.push_back(c);
      } else {
        out.push_back(c);
      }
    }
  }
  return out;
}

// The compiled star join writes, in order, what the oracle's star
// enumerator matches over the subject's distinct triples: each match's
// triples' lines side by side. Random stars mix bound and unbound
// properties, constant objects, OPTIONAL patterns, a variable repeated
// within a pattern (?s p ?s) and across patterns (an object or property
// variable shared by two patterns); random groups repeat values, carry
// leaves with tabs, backslashes and newlines, and spell some lines in a
// form Serialize() would not write.
TEST(StarJoinTest, RecordsAreTheOracleMatchesLines) {
  static const std::vector<std::string> kLeaves = {
      "a", "b", "a\tb", "x\\", "\\s", "l\nm", "", "sub\tj"};
  static const std::vector<std::string> kProperties = {"p", "q", "r\t"};
  Rng rng(20261019);
  auto pick = [&rng](const std::vector<std::string>& from) {
    return from[rng.Uniform(from.size())];
  };
  size_t compared = 0;
  size_t with_matches = 0;
  for (int round = 0; round < 500; ++round) {
    std::vector<TriplePattern> patterns;
    const size_t k = 1 + rng.Uniform(4);
    for (size_t i = 0; i < k; ++i) {
      const bool optional = i > 0 && rng.Chance(0.25);
      // An OPTIONAL pattern's variables must be fresh.
      const std::string fresh = std::to_string(i);
      NodePattern object =
          rng.Chance(0.2)   ? NodePattern::Const(pick(kLeaves))
          : optional        ? NodePattern::Var("f" + fresh)
          : rng.Chance(0.2) ? NodePattern::Var("s")
                            : NodePattern::Var(rng.Chance(0.5) ? "o" : "u");
      TriplePattern tp =
          rng.Chance(0.4)
              ? TriplePattern::Unbound(NodePattern::Var("s"),
                                       optional ? "fp" + fresh
                                       : rng.Chance(0.5) ? "v"
                                                         : "w",
                                       std::move(object))
              : TriplePattern::Bound(NodePattern::Var("s"),
                                     pick(kProperties), std::move(object));
      tp.optional = optional;
      patterns.push_back(std::move(tp));
    }
    const ReduceFn reduce = CompiledStarReducer(patterns);
    ASSERT_NE(reduce, nullptr) << "round " << round;
    StarPattern star;
    star.subject_var = "s";
    star.patterns = patterns;

    const std::string subject = rng.Chance(0.5) ? "sub\tj" : "a";
    std::vector<std::string> values;
    std::vector<Triple> triples;
    for (size_t n = rng.Uniform(9); n > 0; --n) {
      Triple t(subject, pick(kProperties),
               rng.Chance(0.15) ? subject : pick(kLeaves));
      for (size_t copies = rng.Chance(0.3) ? 2 : 1; copies > 0; --copies) {
        values.push_back(rng.Chance(0.3) ? Respelled(t, &rng) : t.Serialize());
        triples.push_back(t);
      }
    }
    std::sort(triples.begin(), triples.end());
    triples.erase(std::unique(triples.begin(), triples.end()),
                  triples.end());

    std::vector<std::string> expected;
    for (const StarMatch& m : MatchStarDetailed(star, triples)) {
      expected.push_back(TupleLine(m.matched));
    }
    std::vector<std::string> actual;
    Counters counters;
    reduce(subject, values,
           [&actual](std::string record) {
             actual.push_back(std::move(record));
           },
           &counters);
    EXPECT_EQ(actual, expected) << "round " << round << ": "
                                << star.ToString();
    EXPECT_EQ(counters["op.star_join.output_records"], expected.size());
    EXPECT_EQ(counters["op.star_join.input_groups"], 1u);
    EXPECT_EQ(counters.count("bad_records"), 0u);
    ++compared;
    if (!expected.empty()) ++with_matches;
  }
  EXPECT_EQ(compared, 500u);
  EXPECT_GT(with_matches, 100u) << "too few groups match to cover the writer";
}

// A value the triple reader rejects is counted; the group's other triples
// still match.
TEST(StarJoinTest, CountsRejectedLines) {
  const ReduceFn reduce = CompiledStarReducer(
      {TriplePattern::Bound(NodePattern::Var("s"), "p",
                            NodePattern::Var("o"))});
  ASSERT_NE(reduce, nullptr);
  std::vector<std::string> records;
  Counters counters;
  reduce("s",
         std::vector<std::string>{"s\tp", Triple("s", "p", "o").Serialize(),
                                  "s\tp\to\tx"},
         [&records](std::string record) {
           records.push_back(std::move(record));
         },
         &counters);
  EXPECT_EQ(records, std::vector<std::string>{"s\tp\to"});
  EXPECT_EQ(counters["bad_records"], 2u);
  EXPECT_EQ(counters["op.star_join.output_records"], 1u);
}

// ---- Plan compiler structure ---------------------------------------------------

CompiledPlan CompileFor(const std::string& query_id, RelationalStyle style,
                        RelationalGrouping grouping =
                            RelationalGrouping::kStarPerCycle) {
  auto query = GetTestbedQuery(query_id);
  EXPECT_TRUE(query.ok());
  RelationalOptions options;
  options.style = style;
  options.grouping = grouping;
  auto plan = CompileRelationalPlan(*query, "base", "tmp", options);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  return std::move(*plan);
}

uint32_t TotalFullScans(const CompiledPlan& plan) {
  uint32_t scans = 0;
  for (const JobSpec& job : plan.workflow.jobs) {
    scans += job.full_scans_of_base;
  }
  return scans;
}

TEST(RelCompilerTest, HiveTwoStarPlanShape) {
  CompiledPlan plan = CompileFor("B0", RelationalStyle::kHive);
  // 2 star cycles + 1 join cycle.
  ASSERT_EQ(plan.workflow.jobs.size(), 3u);
  EXPECT_EQ(TotalFullScans(plan), 2u) << "Hive shares scans per cycle";
  EXPECT_EQ(plan.star_phase_paths.size(), 2u);
  EXPECT_FALSE(plan.workflow.final_output_path.empty());
}

TEST(RelCompilerTest, PigScansOncePerOperand) {
  CompiledPlan plan = CompileFor("B0", RelationalStyle::kPig);
  // B0: star1 has 3 patterns, star2 has 3 patterns -> 6 operand scans.
  EXPECT_EQ(TotalFullScans(plan), 6u);
}

TEST(RelCompilerTest, PigAddsCompressJobForUnboundMultiStar) {
  CompiledPlan plan = CompileFor("B1", RelationalStyle::kPig);
  ASSERT_FALSE(plan.workflow.jobs.empty());
  EXPECT_EQ(plan.workflow.jobs[0].name, "pig-filter-compress");
  // After compressing, later cycles scan the compressed copy, so the base
  // is scanned exactly once.
  EXPECT_EQ(TotalFullScans(plan), 1u);
  // Hive runs the same query without the extra job.
  CompiledPlan hive = CompileFor("B1", RelationalStyle::kHive);
  EXPECT_EQ(hive.workflow.jobs.size() + 1, plan.workflow.jobs.size());
}

TEST(RelCompilerTest, SingleStarQueryIsOneCycle) {
  CompiledPlan plan = CompileFor("A1", RelationalStyle::kHive);
  EXPECT_EQ(plan.workflow.jobs.size(), 1u);
  EXPECT_EQ(plan.workflow.final_output_path,
            plan.star_phase_paths.at(0));
}

TEST(RelCompilerTest, SinglePatternStarInlinedIntoJoinCycle) {
  // A5's second star is a lone label edge: Hive folds it into the join
  // cycle (2 jobs total, both scanning the base), mirroring the paper.
  CompiledPlan plan = CompileFor("A5", RelationalStyle::kHive);
  EXPECT_EQ(plan.workflow.jobs.size(), 2u);
  EXPECT_EQ(TotalFullScans(plan), 2u);
}

TEST(RelCompilerTest, SelSjFirstFoldsObjectSubjectJoin) {
  CompiledPlan plan = CompileFor("Q1a", RelationalStyle::kHive,
                                 RelationalGrouping::kSelSJFirst);
  EXPECT_EQ(plan.workflow.jobs.size(), 2u);
  EXPECT_EQ(TotalFullScans(plan), 2u);
}

TEST(RelCompilerTest, SelSjFirstObjectObjectStaysThreeCycles) {
  CompiledPlan plan = CompileFor("Q3a", RelationalStyle::kHive,
                                 RelationalGrouping::kSelSJFirst);
  EXPECT_EQ(plan.workflow.jobs.size(), 3u);
  EXPECT_EQ(TotalFullScans(plan), 3u)
      << "the case study's O-O join rescans the base in the join cycle";
}

TEST(RelCompilerTest, ThreeStarQueryChainsJoins) {
  CompiledPlan plan = CompileFor("B5", RelationalStyle::kHive);
  // B5: product star + offer star get cycles; the single-pattern feature
  // star is inlined; then 2 join cycles.
  EXPECT_EQ(plan.workflow.jobs.size(), 4u);
}

TEST(RelCompilerTest, NullQueryRejected) {
  RelationalOptions options;
  EXPECT_FALSE(
      CompileRelationalPlan(nullptr, "base", "tmp", options).ok());
}

TEST(RelCompilerTest, SelSjFirstRequiresTwoStars) {
  auto query = GetTestbedQuery("A1");  // single star
  ASSERT_TRUE(query.ok());
  RelationalOptions options;
  options.grouping = RelationalGrouping::kSelSJFirst;
  auto plan = CompileRelationalPlan(*query, "base", "tmp", options);
  EXPECT_EQ(plan.status().code(), StatusCode::kNotImplemented);
}

TEST(RelCompilerTest, IntermediatePathsExcludeFinalOutput) {
  CompiledPlan plan = CompileFor("B0", RelationalStyle::kHive);
  for (const std::string& path : plan.workflow.intermediate_paths) {
    EXPECT_NE(path, plan.workflow.final_output_path);
  }
}


// A Hive join cycle's closures, called directly, on the inputs the
// pipeline never produces: an untagged value, a record of the wrong arity
// and a record inconsistent with its schema. Each is dropped; all but the
// untagged value count as bad_records; the good pair still joins.
TEST(RelCompilerTest, JoinCycleDropsBadInputs) {
  auto query = ParseSparql(
      "two-stars", "SELECT * WHERE { ?p <label> ?l . ?p <feature> ?f . "
                   "?f <featureLabel> ?fl . ?f <type> ?t . }");
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  RelationalOptions options;
  options.style = RelationalStyle::kHive;
  auto plan = CompileRelationalPlan(
      std::make_shared<const GraphPatternQuery>(std::move(*query)), "base",
      "tmp", options);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ(plan->workflow.jobs.size(), 3u);
  const JobSpec& join = plan->workflow.jobs[2];
  ASSERT_EQ(join.inputs.size(), 2u);

  std::vector<Triple> left;
  left = {Triple("p1", "label", "L1"), Triple("p1", "feature", "f1")};
  std::vector<Triple> right;
  right = {Triple("f1", "featureLabel", "F1"),
                   Triple("f1", "type", "T")};
  std::vector<Triple> inconsistent = left;  // ?p differs between the two columns
  inconsistent[1].subject = "p2";
  const std::string wrong_arity = right[0].Serialize();

  auto map = [&join](size_t side, const std::string& record,
                     Counters* counters) {
    std::vector<std::pair<std::string, std::string>> out;
    join.inputs[side].map(
        record,
        [&out](std::string key, std::string value) {
          out.emplace_back(std::move(key), std::move(value));
        },
        counters);
    return out;
  };
  Counters map_counters;
  auto keyed = map(0, TupleLine(left), &map_counters);
  ASSERT_EQ(keyed.size(), 1u);
  EXPECT_EQ(keyed[0].first, "f1");
  EXPECT_EQ(keyed[0].second, "L|" + TupleLine(left));
  EXPECT_TRUE(map(1, wrong_arity, &map_counters).empty());
  EXPECT_EQ(map_counters["bad_records"], 1u);
  // Changed: the mapper used to key and ship an inconsistent tuple.
  EXPECT_TRUE(map(0, TupleLine(inconsistent), &map_counters).empty());
  EXPECT_EQ(map_counters["bad_records"], 2u);

  std::vector<std::string> joined;
  Counters reduce_counters;
  join.reduce("f1",
              std::vector<std::string>{
                  "L|" + TupleLine(left), TupleLine(left), "L|" + wrong_arity,
                  "L|" + TupleLine(inconsistent), "R|" + TupleLine(right)},
              [&joined](std::string record) {
                joined.push_back(std::move(record));
              },
              &reduce_counters);
  EXPECT_EQ(joined, std::vector<std::string>{
                        JoinTupleRecords(TupleLine(left), TupleLine(right))});
  // The untagged value is a bad record too.
  EXPECT_EQ(reduce_counters["bad_records"], 3u);
  EXPECT_EQ(reduce_counters["op.rel_join.input_records"], 2u);
  EXPECT_EQ(reduce_counters["op.rel_join.output_records"], 1u);
}


// Sel-SJ-first's join reducer counts a left tuple its reader rejects
// (it used to drop one silently); an untagged value is still ignored.
TEST(RelCompilerTest, SelSjFirstJoinCountsBadLeftTuples) {
  CompiledPlan plan = CompileFor("Q1a", RelationalStyle::kHive,
                                 RelationalGrouping::kSelSJFirst);
  ASSERT_EQ(plan.workflow.jobs.size(), 2u);
  Counters counters;
  size_t outputs = 0;
  plan.workflow.jobs[1].reduce(
      "k", std::vector<std::string>{"untagged", "L|wrong\tarity"},
      [&outputs](std::string) { ++outputs; }, &counters);
  EXPECT_EQ(outputs, 0u);
  // Both the untagged value and the wrong arity are bad records.
  EXPECT_EQ(counters["bad_records"], 2u);
}


// The join mapper of an inlined single-pattern star scans the triple
// relation: it keys a matching triple by the join variable, skips any other
// triple uncounted (which is what makes its scan hint sound) and counts a
// record that is not a triple.
TEST(RelCompilerTest, InlinedScanSkipsNonMatchingTriples) {
  CompiledPlan plan = CompileFor("A5", RelationalStyle::kHive);
  ASSERT_EQ(plan.workflow.jobs.size(), 2u);
  const MapFn& scan = plan.workflow.jobs[1].inputs.at(1).map;
  std::vector<std::pair<std::string, std::string>> out;
  const MapEmit emit = [&out](std::string key, std::string value) {
    out.emplace_back(std::move(key), std::move(value));
  };
  Counters counters;
  const std::string label = Triple("a\t1", "label", "A one").Serialize();
  scan(label, emit, &counters);
  scan(Triple("a1", "other", "x").Serialize(), emit, &counters);
  scan("a1\tlabel", emit, &counters);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].first, "a\t1");
  EXPECT_EQ(out[0].second, "R|" + label);
  EXPECT_EQ(counters["bad_records"], 1u);
  EXPECT_EQ(counters.size(), 1u);
}

}  // namespace
}  // namespace rdfmr

// Unit tests for the query model: node/triple/star patterns, star
// decomposition and join-graph derivation, solutions, and the SPARQL
// subset parser.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>

#include "query/pattern.h"
#include "query/solution.h"
#include "query/sparql_parser.h"
#include "tests/test_util.h"

namespace rdfmr {
namespace {

// ---- NodePattern ------------------------------------------------------------

TEST(NodePatternTest, ConstantMatchesExactly) {
  NodePattern n = NodePattern::Const("go1");
  EXPECT_TRUE(n.Matches("go1"));
  EXPECT_FALSE(n.Matches("go11"));
  EXPECT_TRUE(n.is_constant());
  EXPECT_FALSE(n.partially_bound());
}

TEST(NodePatternTest, VariableMatchesEverything) {
  NodePattern n = NodePattern::Var("x");
  EXPECT_TRUE(n.Matches("anything"));
  EXPECT_TRUE(n.Matches(""));
}

TEST(NodePatternTest, ContainsFilterIsSubstring) {
  NodePattern n = NodePattern::Var("x", "hexo");
  EXPECT_TRUE(n.partially_bound());
  EXPECT_TRUE(n.Matches("hexokinase gene"));
  EXPECT_TRUE(n.Matches("prefix hexo"));
  EXPECT_FALSE(n.Matches("HEXOKINASE"));
  EXPECT_FALSE(n.Matches("hex o"));
}

// ---- TriplePattern / StarPattern ---------------------------------------------

TEST(TriplePatternTest, VariablesCollectsAllPositions) {
  TriplePattern tp = TriplePattern::Unbound(NodePattern::Var("s"), "p",
                                            NodePattern::Var("o"));
  EXPECT_EQ(tp.Variables(), (std::vector<std::string>{"s", "p", "o"}));
  TriplePattern bound = TriplePattern::Bound(
      NodePattern::Var("s"), "label", NodePattern::Const("x"));
  EXPECT_EQ(bound.Variables(), (std::vector<std::string>{"s"}));
}

TEST(StarPatternTest, BoundAndUnboundBookkeeping) {
  StarPattern star;
  star.subject_var = "g";
  star.patterns.push_back(TriplePattern::Bound(
      NodePattern::Var("g"), "label", NodePattern::Var("l")));
  star.patterns.push_back(TriplePattern::Bound(
      NodePattern::Var("g"), "xGO", NodePattern::Var("go")));
  star.patterns.push_back(TriplePattern::Unbound(
      NodePattern::Var("g"), "up", NodePattern::Var("x")));
  EXPECT_EQ(star.BoundProperties(),
            (std::set<std::string>{"label", "xGO"}));
  EXPECT_EQ(star.UnboundIndexes(), (std::vector<size_t>{2}));
  EXPECT_TRUE(star.HasUnbound());
  EXPECT_EQ(star.NumUnbound(), 1u);
  EXPECT_EQ(star.Arity(), 3u);
}

// ---- GraphPatternQuery decomposition -----------------------------------------

std::vector<TriplePattern> TwoStarPatterns() {
  return {
      TriplePattern::Bound(NodePattern::Var("p"), "label",
                           NodePattern::Var("l")),
      TriplePattern::Unbound(NodePattern::Var("p"), "up",
                             NodePattern::Var("x")),
      TriplePattern::Bound(NodePattern::Var("o"), "product",
                           NodePattern::Var("p")),
      TriplePattern::Bound(NodePattern::Var("o"), "price",
                           NodePattern::Var("pr")),
  };
}

TEST(QueryTest, DecomposesIntoStarsInFirstAppearanceOrder) {
  auto q = GraphPatternQuery::Create("q", TwoStarPatterns());
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q->stars().size(), 2u);
  EXPECT_EQ(q->stars()[0].subject_var, "p");
  EXPECT_EQ(q->stars()[1].subject_var, "o");
  EXPECT_EQ(q->stars()[0].Arity(), 2u);
  EXPECT_EQ(q->stars()[1].Arity(), 2u);
  EXPECT_TRUE(q->HasUnbound());
  EXPECT_EQ(q->NumUnbound(), 1u);
}

TEST(QueryTest, DerivesObjectSubjectJoin) {
  auto q = GraphPatternQuery::Create("q", TwoStarPatterns());
  ASSERT_TRUE(q.ok());
  ASSERT_EQ(q->joins().size(), 1u);
  const StarJoin& join = q->joins()[0];
  EXPECT_EQ(join.variable, "p");
  EXPECT_EQ(join.kind, StarJoinKind::kObjectSubject);
  // Normalized: the left side carries the object position.
  EXPECT_EQ(join.left_star, 1u);
  EXPECT_EQ(join.right_star, 0u);
  EXPECT_EQ(join.left_pattern_index, 0);
  EXPECT_EQ(join.right_pattern_index, -1);
  EXPECT_FALSE(q->stars()[join.left_star]
                   .patterns[static_cast<size_t>(join.left_pattern_index)]
                   .unbound_property());
}

TEST(QueryTest, DerivesObjectObjectJoin) {
  std::vector<TriplePattern> patterns = {
      TriplePattern::Bound(NodePattern::Var("a"), "product",
                           NodePattern::Var("p")),
      TriplePattern::Bound(NodePattern::Var("b"), "reviewFor",
                           NodePattern::Var("p")),
  };
  auto q = GraphPatternQuery::Create("oo", std::move(patterns));
  ASSERT_TRUE(q.ok());
  ASSERT_EQ(q->joins().size(), 1u);
  EXPECT_EQ(q->joins()[0].kind, StarJoinKind::kObjectObject);
}

TEST(QueryTest, JoinOnUnboundObjectIsFlagged) {
  std::vector<TriplePattern> patterns = {
      TriplePattern::Bound(NodePattern::Var("p"), "label",
                           NodePattern::Var("l")),
      TriplePattern::Unbound(NodePattern::Var("p"), "up",
                             NodePattern::Var("x")),
      TriplePattern::Bound(NodePattern::Var("x"), "featureLabel",
                           NodePattern::Var("fl")),
  };
  auto q = GraphPatternQuery::Create("b1", std::move(patterns));
  ASSERT_TRUE(q.ok());
  ASSERT_EQ(q->joins().size(), 1u);
  const StarJoin& join = q->joins()[0];
  EXPECT_EQ(join.kind, StarJoinKind::kObjectSubject);
  ASSERT_GE(join.left_pattern_index, 0);
  EXPECT_TRUE(q->stars()[join.left_star]
                  .patterns[static_cast<size_t>(join.left_pattern_index)]
                  .unbound_property());
}

TEST(QueryTest, RejectsEmptyQuery) {
  EXPECT_FALSE(GraphPatternQuery::Create("empty", {}).ok());
}

TEST(QueryTest, RejectsDisconnectedStars) {
  std::vector<TriplePattern> patterns = {
      TriplePattern::Bound(NodePattern::Var("a"), "p1",
                           NodePattern::Var("x")),
      TriplePattern::Bound(NodePattern::Var("b"), "p2",
                           NodePattern::Var("y")),
  };
  auto q = GraphPatternQuery::Create("disc", std::move(patterns));
  EXPECT_TRUE(q.status().IsInvalidArgument());
}

TEST(QueryTest, RejectsConstantSubject) {
  std::vector<TriplePattern> patterns = {
      TriplePattern::Bound(NodePattern::Const("gene9"), "label",
                           NodePattern::Var("l")),
  };
  EXPECT_FALSE(GraphPatternQuery::Create("cs", std::move(patterns)).ok());
}

TEST(QueryTest, RejectsPropertyVariableInNodePosition) {
  std::vector<TriplePattern> patterns = {
      TriplePattern::Unbound(NodePattern::Var("s"), "p",
                             NodePattern::Var("o")),
      TriplePattern::Bound(NodePattern::Var("s"), "label",
                           NodePattern::Var("p")),  // reuses ?p as object
  };
  auto q = GraphPatternQuery::Create("pv", std::move(patterns));
  EXPECT_EQ(q.status().code(), StatusCode::kNotImplemented);
}

TEST(QueryTest, VariablesAreSortedAndComplete) {
  auto q = GraphPatternQuery::Create("q", TwoStarPatterns());
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->variables(),
            (std::vector<std::string>{"l", "o", "p", "pr", "up", "x"}));
}

TEST(QueryTest, ToStringMentionsStarsAndJoins) {
  auto q = GraphPatternQuery::Create("pretty", TwoStarPatterns());
  ASSERT_TRUE(q.ok());
  std::string s = q->ToString();
  EXPECT_NE(s.find("Star(?p)"), std::string::npos);
  EXPECT_NE(s.find("Object-Subject"), std::string::npos);
}

// ---- Solutions ---------------------------------------------------------------

TEST(SolutionTest, BindAndConflict) {
  Solution s;
  EXPECT_TRUE(s.Bind("x", "1"));
  EXPECT_TRUE(s.Bind("x", "1"));   // re-binding same value is fine
  EXPECT_FALSE(s.Bind("x", "2"));  // conflicting value rejected
  EXPECT_EQ(*s.Get("x"), "1");
  EXPECT_EQ(s.Get("y"), nullptr);
}

TEST(SolutionTest, MergeConsistency) {
  Solution a, b, c;
  a.Bind("x", "1");
  b.Bind("y", "2");
  c.Bind("x", "other");
  EXPECT_TRUE(a.CompatibleWith(b));
  EXPECT_FALSE(a.CompatibleWith(c));
  Solution ab = a;
  ASSERT_TRUE(ab.MergeInto(b));
  EXPECT_EQ(ab.size(), 2u);
  Solution before = ab;
  EXPECT_FALSE(ab.MergeInto(c));
  EXPECT_EQ(ab, before) << "a rejected merge leaves the solution unchanged";
}

TEST(SolutionTest, MergeIntoKeepsVariablesSorted) {
  Solution a, b;
  a.Bind("b", "2");
  a.Bind("d", "4");
  b.Bind("a", "1");
  b.Bind("b", "2");
  b.Bind("c", "3");
  b.Bind("e", "5");
  ASSERT_TRUE(a.MergeInto(b));
  std::vector<std::string> vars;
  for (const auto& [var, value] : a.bindings()) vars.push_back(var + value);
  EXPECT_EQ(vars, (std::vector<std::string>{"a1", "b2", "c3", "d4", "e5"}));
  EXPECT_EQ(a.Serialize(), "a=1;b=2;c=3;d=4;e=5");
}

// The bindings SolutionLineReader reads from `line`, as owned pairs.
Result<std::vector<Solution::Binding>> ReadLine(std::string_view line) {
  SolutionLineReader reader;
  RDFMR_RETURN_NOT_OK(reader.Read(line));
  std::vector<Solution::Binding> out;
  for (const auto& [var, value] : reader.bindings()) {
    out.emplace_back(var, value);
  }
  return out;
}

TEST(SolutionTest, SerdeRoundtripWithNastyValues) {
  Solution s;
  s.Bind("var1", "value with = and ; and \\ chars");
  s.Bind("var2", "");
  s.Bind("a=b", "tricky var name");
  auto back = ReadLine(s.Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, s.bindings());
}

TEST(SolutionTest, EmptySolutionSerde) {
  Solution s;
  auto back = ReadLine(s.Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->empty());
}

TEST(SolutionTest, SolutionLineDecoderDeduplicates) {
  Solution s;
  s.Bind("x", "1");
  const std::vector<std::string> lines = {s.Serialize(), s.Serialize()};
  auto set = SolutionLineDecoder({"x", "y"})(lines);
  ASSERT_TRUE(set.ok());
  EXPECT_EQ(set->size(), 1u);
  EXPECT_EQ(*set, SolutionSet({s}));
}

// The header is fixed: a line binding a variable outside it fails with
// IoError naming the variable, and an answer of no rows has no header.
TEST(SolutionTest, SolutionLineDecoderKeepsItsHeader) {
  const AnswerDecoder decoder = SolutionLineDecoder({"n", "s"});
  const std::vector<std::string> outside = {"n=2;s=a", "n=1;s=b;x=c"};
  const Status status = decoder(outside).status();
  EXPECT_TRUE(status.IsIoError()) << status.ToString();
  EXPECT_NE(status.message().find("?x"), std::string::npos)
      << status.ToString();
  auto none = decoder(std::vector<std::string>{});
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());
  EXPECT_TRUE(none->variables().empty());
  EXPECT_EQ(*none, SolutionSet());
}

// The reader sorts a line's bindings by variable and keeps a variable
// repeated with its value once, as Solution::Bind would.
TEST(SolutionLineReaderTest, SortsAndMergesRepeats) {
  auto back = ReadLine("b=2;a=1;b=2");
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(*back, (std::vector<Solution::Binding>{{"a", "1"}, {"b", "2"}}));
}

// Every malformed entry fails the line with IoError: no '=', two '=', a
// variable bound to two values, and an escape cut short at either level of
// the nested escaping.
TEST(SolutionLineReaderTest, RejectsMalformedLines) {
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"a=1;b", "malformed solution field: b"},
      {"a=1=2", "malformed solution field: a=1=2"},
      {"a=1;b=2;a=3", "duplicate inconsistent var in: a=1;b=2;a=3"},
      {"a=1\\", "malformed solution field: a=1\\"},
      {"a=1\\\\", "malformed solution field: a=1\\"},
  };
  SolutionLineReader reader;
  for (const auto& [line, message] : cases) {
    const Status status = reader.Read(line);
    EXPECT_TRUE(status.IsIoError()) << line;
    EXPECT_EQ(status.message(), message) << line;
    const std::vector<std::string> lines = {"x=1", line};
    EXPECT_TRUE(
        SolutionLineDecoder({"a", "b", "x"})(lines).status().IsIoError())
        << line;
  }
}

// ---- SolutionSet ------------------------------------------------------------

// Random solutions over `vars`: each binds a random subset (so OPTIONAL
// slots go unbound, sometimes all of them) to terms that carry every
// separator the canonical line and the record formats escape. Small pools
// make duplicates common.
std::vector<Solution> RandomSolutions(std::mt19937* rng,
                                      const std::vector<std::string>& vars,
                                      size_t count) {
  static const std::vector<std::string> kTerms = {
      "", "=", ";", "\\", "\t", "\x1E", "\n", "a=b;c\\d", "plain", "z"};
  std::vector<Solution> out;
  for (size_t i = 0; i < count; ++i) {
    Solution s;
    for (const std::string& var : vars) {
      if ((*rng)() % 3 != 0) s.Bind(var, kTerms[(*rng)() % kTerms.size()]);
    }
    out.push_back(std::move(s));
  }
  return out;
}

// The table's rows, order, size and lines against the std::set<Solution>
// of the same solutions.
void ExpectSameAsSet(const SolutionSet& table,
                     const std::set<Solution>& reference) {
  ASSERT_EQ(table.size(), reference.size());
  size_t row = 0;
  for (const Solution& expected : reference) {
    EXPECT_EQ(table.Row(row), expected) << "row " << row;
    std::string line;
    table.AppendSerialized(row, &line);
    EXPECT_EQ(line, expected.Serialize()) << "row " << row;
    ++row;
  }
  std::vector<Solution> iterated(table.begin(), table.end());
  EXPECT_TRUE(std::equal(iterated.begin(), iterated.end(), reference.begin(),
                         reference.end()));
}

TEST(SolutionSetTest, MatchesStdSetOfSolutions) {
  std::mt19937 rng(2015);
  const std::vector<std::string> left_vars = {"a", "b", "c=d", "x;y"};
  const std::vector<std::string> right_vars = {"b", "e", "x;y"};
  for (int round = 0; round < 200; ++round) {
    std::vector<Solution> left = RandomSolutions(&rng, left_vars, rng() % 40);
    std::vector<Solution> right =
        RandomSolutions(&rng, right_vars, rng() % 40);
    const std::set<Solution> left_ref(left.begin(), left.end());
    const std::set<Solution> right_ref(right.begin(), right.end());
    const SolutionSet left_table(left);
    ExpectSameAsSet(left_table, left_ref);

    // Row order does not depend on input order.
    std::shuffle(left.begin(), left.end(), rng);
    EXPECT_TRUE(SolutionSet(left) == left_table);

    // Union across different headers.
    std::set<Solution> union_ref = left_ref;
    union_ref.insert(right_ref.begin(), right_ref.end());
    std::vector<Solution> both = left;
    both.insert(both.end(), right.begin(), right.end());
    ExpectSameAsSet(SolutionSet(both), union_ref);

    // operator== is set equality.
    const SolutionSet right_table(right);
    EXPECT_EQ(left_table == right_table, left_ref == right_ref);
    if (!left_ref.empty()) {
      std::vector<Solution> fewer(left_ref.begin(), left_ref.end());
      fewer.erase(fewer.begin() + rng() % fewer.size());
      EXPECT_FALSE(SolutionSet(fewer) == left_table);
    }
  }
}

TEST(SolutionSetTest, BuilderDropsUnusedSlotsAndTerms) {
  SolutionSet::Builder builder({"a", "never", "z"});
  const SolutionSet::Handle unused = builder.Intern("unused term");
  (void)unused;
  const SolutionSet::Handle one = builder.Intern("1");
  const SolutionSet::Handle two = builder.Intern("2");
  EXPECT_EQ(builder.Intern("1"), one) << "equal terms share a handle";
  const SolutionSet::Handle u = SolutionSet::kUnbound;
  const std::vector<std::vector<SolutionSet::Handle>> rows = {
      {two, u, one}, {one, u, u}, {two, u, one}, {u, u, two}};
  for (const auto& row : rows) builder.AddRow(row.data());
  const SolutionSet table = builder.Finish();
  EXPECT_EQ(table.variables(), (std::vector<std::string>{"a", "z"}));
  Solution a1, a2z1, z2;
  a1.Bind("a", "1");
  a2z1.Bind("a", "2");
  a2z1.Bind("z", "1");
  z2.Bind("z", "2");
  EXPECT_TRUE(table == SolutionSet({a1, a2z1, z2}));
  ExpectSameAsSet(table, {a1, a2z1, z2});
}

// Absorb appends another builder's rows: its terms, shared or new, are
// re-interned and its cells, unbound ones included, remapped. An empty
// builder on either side changes nothing else.
TEST(SolutionSetTest, BuilderAbsorbsAnotherBuildersRows) {
  const SolutionSet::Handle u = SolutionSet::kUnbound;
  const std::vector<std::string> header = {"a", "b"};
  SolutionSet::Builder left(header);
  const SolutionSet::Handle l1 = left.Intern("1");
  const SolutionSet::Handle l2 = left.Intern("2");
  left.AddRow(std::vector<SolutionSet::Handle>{l1, l2}.data());
  left.AddRow(std::vector<SolutionSet::Handle>{l2, u}.data());
  SolutionSet::Builder right(header);
  const SolutionSet::Handle r3 = right.Intern("3");
  const SolutionSet::Handle r1 = right.Intern("1");  // shared with left
  right.AddRow(std::vector<SolutionSet::Handle>{r3, r1}.data());
  right.AddRow(std::vector<SolutionSet::Handle>{u, r3}.data());
  right.AddRow(std::vector<SolutionSet::Handle>{r1, r1}.data());

  Solution a1b2, a2, a3b1, b3, a1b1;
  a1b2.Bind("a", "1");
  a1b2.Bind("b", "2");
  a2.Bind("a", "2");
  a3b1.Bind("a", "3");
  a3b1.Bind("b", "1");
  b3.Bind("b", "3");
  a1b1.Bind("a", "1");
  a1b1.Bind("b", "1");
  const SolutionSet expected({a1b2, a2, a3b1, b3, a1b1});

  left.Absorb(right);
  EXPECT_EQ(left.cells().size(), 10u);
  EXPECT_EQ(left.term(left.cells()[4]), "3");
  EXPECT_EQ(left.cells()[5], l1) << "a shared term keeps its handle";
  EXPECT_EQ(left.cells()[6], u);
  EXPECT_TRUE(left.Finish() == expected);

  // An empty builder on either side.
  SolutionSet::Builder rows(header);
  rows.AddRow(std::vector<SolutionSet::Handle>{rows.Intern("x"), u}.data());
  SolutionSet::Builder empty(header);
  rows.Absorb(empty);
  Solution ax;
  ax.Bind("a", "x");
  EXPECT_TRUE(rows.Finish() == SolutionSet({ax}));
  SolutionSet::Builder into(header);
  SolutionSet::Builder from(header);
  from.AddRow(std::vector<SolutionSet::Handle>{from.Intern("x"), u}.data());
  into.Absorb(from);
  EXPECT_TRUE(into.Finish() == SolutionSet({ax}));
  SolutionSet::Builder none(header);
  none.Absorb(SolutionSet::Builder(header));
  EXPECT_TRUE(none.Finish() == SolutionSet());
}

// The read-back's chunked decode of canonical lines several chunks long
// equals the serial decoder's table; with rejected lines in two chunks it
// returns the serial decoder's error, the earlier line's.
TEST(SolutionTest, ChunkedDecodeMatchesTheSerialDecoder) {
  const AnswerDecoder decoder = SolutionLineDecoder({"n", "s", "x"});
  std::vector<std::string> lines;
  for (size_t i = 0; i < 3 * ChunkedDecode::kLines + 17; ++i) {
    Solution s;
    s.Bind("n", std::to_string(i % 389));
    if (i % 3 != 0) s.Bind("s", "s=" + std::to_string(i % 7));
    s.Bind("x", "x;" + std::to_string(i % 13));
    lines.push_back(s.Serialize());
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

  lines[ChunkedDecode::kLines + 5] = "n=1;y=2";         // outside the header
  lines[2 * ChunkedDecode::kLines + 3] = "n=1;s";       // malformed entry
  serial = decoder(lines);
  ASSERT_TRUE(serial.status().IsIoError()) << serial.status().ToString();
  ASSERT_NE(decoder({&lines[2 * ChunkedDecode::kLines + 3], 1})
                .status()
                .ToString(),
            serial.status().ToString());
  const Result<SolutionSet> pooled = testing_util::DecodeOnPool(decoder, lines);
  EXPECT_EQ(pooled.status().code(), serial.status().code());
  EXPECT_EQ(pooled.status().message(), serial.status().message());
}

// ---- SPARQL parser -------------------------------------------------------------

TEST(SparqlTest, ParsesBoundAndUnboundPatterns) {
  auto q = ParseSparql("t", R"(SELECT * WHERE {
    ?g <label> ?l .
    ?g ?up ?x .
  })");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q->stars().size(), 1u);
  EXPECT_TRUE(q->stars()[0].patterns[0].property_bound);
  EXPECT_FALSE(q->stars()[0].patterns[1].property_bound);
  EXPECT_EQ(q->stars()[0].patterns[1].property, "up");
}

TEST(SparqlTest, ContainsFilterBecomesPartiallyBoundObject) {
  auto q = ParseSparql("t", R"(SELECT * WHERE {
    ?g <label> ?l . ?g ?up ?x .
    FILTER(CONTAINS(STR(?x), "go_"))
  })");
  ASSERT_TRUE(q.ok());
  const NodePattern& obj = q->stars()[0].patterns[1].object;
  EXPECT_TRUE(obj.partially_bound());
  EXPECT_EQ(obj.contains_filter, "go_");
}

TEST(SparqlTest, EqualityFilterPinsConstant) {
  auto q = ParseSparql("t", R"(SELECT * WHERE {
    ?g <label> ?l . FILTER(?l = "nur77")
    ?g <xGO> ?go .
  })");
  ASSERT_TRUE(q.ok());
  EXPECT_TRUE(q->stars()[0].patterns[0].object.is_constant());
  EXPECT_EQ(q->stars()[0].patterns[0].object.value, "nur77");
}

TEST(SparqlTest, EqualityFilterOnPropertyVariableBindsProperty) {
  auto q = ParseSparql("t", R"(SELECT * WHERE {
    ?g ?p ?o . FILTER(?p = <xGO>)
    ?g <label> ?l .
  })");
  ASSERT_TRUE(q.ok());
  EXPECT_TRUE(q->stars()[0].patterns[0].property_bound);
  EXPECT_EQ(q->stars()[0].patterns[0].property, "xGO");
}

TEST(SparqlTest, IriObjectIsConstant) {
  auto q = ParseSparql("t",
                       "SELECT * WHERE { ?s <type> <Scientist> . ?s ?p ?o }");
  ASSERT_TRUE(q.ok());
  EXPECT_TRUE(q->stars()[0].patterns[0].object.is_constant());
  EXPECT_EQ(q->stars()[0].patterns[0].object.value, "Scientist");
}

TEST(SparqlTest, ProjectionListAccepted) {
  auto q = ParseSparql(
      "t", "SELECT ?s ?o WHERE { ?s <p> ?o . ?s ?up ?x . }");
  EXPECT_TRUE(q.ok());
}

TEST(SparqlTest, CommentsIgnored) {
  auto q = ParseSparql("t", R"(# leading comment
  SELECT * WHERE {
    ?s <p> ?o . # trailing comment
  })");
  EXPECT_TRUE(q.ok());
}

TEST(SparqlTest, ParseErrors) {
  EXPECT_FALSE(ParseSparql("t", "").ok());
  EXPECT_FALSE(ParseSparql("t", "SELECT * { ?s <p> ?o }").ok());
  EXPECT_FALSE(ParseSparql("t", "SELECT * WHERE { }").ok());
  EXPECT_FALSE(ParseSparql("t", "SELECT * WHERE { ?s <p> }").ok());
  EXPECT_FALSE(
      ParseSparql("t", "SELECT * WHERE { ?s \"lit\" ?o }").ok());
  EXPECT_FALSE(ParseSparql(
                   "t", "SELECT * WHERE { ?s <p> ?o FILTER(BOGUS(?o)) }")
                   .ok());
  EXPECT_FALSE(ParseSparql("t", "SELECT * WHERE { ?s <unterminated ?o }")
                   .ok());
}

TEST(SparqlTest, ComplexThreeStarQueryParses) {
  // The full catalog is covered in datagen_test; this is the most complex
  // single shape: three stars, two unbound patterns, one filtered.
  auto q = ParseSparql("b6", R"(SELECT * WHERE {
    ?p <label> ?l . ?p ?up1 ?x .
    ?x <featureLabel> ?fl .
    ?o <product> ?p . ?o ?up2 ?y .
    FILTER(CONTAINS(STR(?y), "vendor"))
    ?o <price> ?pr . })");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->stars().size(), 3u);
  EXPECT_EQ(q->NumUnbound(), 2u);
}

}  // namespace
}  // namespace rdfmr

// Unit tests for the RDF layer: terms, triples, N-Triples parsing and
// writing, IRI compaction, the dictionary, and graph statistics.

#include <gtest/gtest.h>

#include <algorithm>

#include "rdf/graph_stats.h"
#include "rdf/ntriples.h"
#include "rdf/term.h"
#include "rdf/triple.h"

namespace rdfmr {
namespace {

// ---- Term ------------------------------------------------------------------

TEST(TermTest, IriRoundtrip) {
  Term t = Term::Iri("http://example.org/gene9");
  EXPECT_EQ(t.ToNTriples(), "<http://example.org/gene9>");
  auto back = Term::FromNTriples(t.ToNTriples());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, t);
}

TEST(TermTest, PlainLiteralRoundtrip) {
  Term t = Term::Literal("retinoid receptor");
  EXPECT_EQ(t.ToNTriples(), "\"retinoid receptor\"");
  auto back = Term::FromNTriples(t.ToNTriples());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, t);
}

TEST(TermTest, LanguageLiteralRoundtrip) {
  Term t = Term::Literal("Gen", "", "de");
  EXPECT_EQ(t.ToNTriples(), "\"Gen\"@de");
  auto back = Term::FromNTriples(t.ToNTriples());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->language(), "de");
}

TEST(TermTest, TypedLiteralRoundtrip) {
  Term t = Term::Literal("42", "http://www.w3.org/2001/XMLSchema#int");
  EXPECT_EQ(t.ToNTriples(),
            "\"42\"^^<http://www.w3.org/2001/XMLSchema#int>");
  auto back = Term::FromNTriples(t.ToNTriples());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->datatype(), "http://www.w3.org/2001/XMLSchema#int");
}

TEST(TermTest, BlankNodeRoundtrip) {
  Term t = Term::Blank("b17");
  EXPECT_EQ(t.ToNTriples(), "_:b17");
  auto back = Term::FromNTriples("_:b17");
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->is_blank());
  EXPECT_EQ(back->value(), "b17");
}

TEST(TermTest, LiteralEscapesRoundtrip) {
  Term t = Term::Literal("line1\nline2\t\"quoted\" back\\slash");
  auto back = Term::FromNTriples(t.ToNTriples());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->value(), t.value());
}

TEST(TermTest, ParseErrors) {
  EXPECT_FALSE(Term::FromNTriples("").ok());
  EXPECT_FALSE(Term::FromNTriples("<unterminated").ok());
  EXPECT_FALSE(Term::FromNTriples("\"unterminated").ok());
  EXPECT_FALSE(Term::FromNTriples("bareword").ok());
  EXPECT_FALSE(Term::FromNTriples("\"lit\"^^garbage").ok());
}

TEST(TermTest, Ordering) {
  EXPECT_LT(Term::Iri("a"), Term::Literal("a"));
  EXPECT_LT(Term::Iri("a"), Term::Iri("b"));
}

// ---- Triple ----------------------------------------------------------------

TEST(TripleTest, SerdeRoundtrip) {
  Triple t("gene9", "xGO", "go1");
  auto back = Triple::Deserialize(t.Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, t);
}

TEST(TripleTest, SerdeWithEmbeddedSeparators) {
  Triple t("s with\ttab", "p\\with\\backslash", "o\nwith newline");
  auto back = Triple::Deserialize(t.Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, t);
}

TEST(TripleTest, DeserializeRejectsWrongArity) {
  EXPECT_FALSE(Triple::Deserialize("only\ttwo").ok());
  EXPECT_FALSE(Triple::Deserialize("a\tb\tc\td").ok());
}

// The view reader rejects exactly what Deserialize rejects, views a line
// without escapes in place, and unescapes a line with escapes.
TEST(TripleReaderTest, ReadsWhatDeserializeReads) {
  const std::vector<std::string> lines = {
      "s\tp\to", "only\ttwo", "a\tb\tc\td", "", "\t\t", "s\tp\to\\",
      "s\\\tp\to", "a\\sb\tp\\\\\tl\\nm", "a\\xb\tp\to"};
  TripleReader reader;
  for (const std::string& line : lines) {
    const Result<Triple> expected = Triple::Deserialize(line);
    const Status read = reader.Read(line);
    ASSERT_EQ(read.ok(), expected.ok()) << line;
    if (!read.ok()) {
      EXPECT_TRUE(read.IsIoError());
      EXPECT_EQ(read.ToString(), expected.status().ToString());
      continue;
    }
    const TripleView& view = reader.view();
    EXPECT_EQ(view.subject, expected->subject) << line;
    EXPECT_EQ(view.property, expected->property) << line;
    EXPECT_EQ(view.object, expected->object) << line;
    EXPECT_EQ(reader.escaped(), line.find('\\') != std::string::npos);
    if (!reader.escaped()) {
      EXPECT_EQ(view.subject.data(), line.data()) << "viewed in place";
    }
    std::string written;
    view.AppendLine(&written);
    EXPECT_EQ(written, expected->Serialize()) << line;
  }
}

// A group's views outlive the reader's next line, and SortDistinct leaves
// what a std::set<Triple> of the lines holds.
TEST(TripleReaderTest, ViewsSortDistinctAcrossLines) {
  const std::vector<std::string> lines = {
      "b\tp\to", "a\\sz\tp\to", "b\tp\to", "a\\sz\tp\\q\to",
      "a\tp\to", "bad"};
  TripleViews views;
  std::vector<Triple> expected;
  for (const std::string& line : lines) {
    const Result<Triple> t = Triple::Deserialize(line);
    EXPECT_EQ(views.Add(line).ok(), t.ok()) << line;
    if (t.ok()) expected.push_back(*t);
  }
  std::sort(expected.begin(), expected.end());
  expected.erase(std::unique(expected.begin(), expected.end()),
                 expected.end());
  views.SortDistinct();
  std::vector<Triple> actual;
  for (const TripleView& v : views.views()) {
    actual.emplace_back(std::string(v.subject), std::string(v.property),
                        std::string(v.object));
  }
  EXPECT_EQ(actual, expected);
}

TEST(TripleTest, ByteSizeCountsFields) {
  Triple t("ab", "c", "defg");
  EXPECT_EQ(t.ByteSize(), 2u + 1u + 4u + 3u);
}

// ---- N-Triples -------------------------------------------------------------

TEST(NTriplesTest, ParseSimpleLine) {
  auto st = ParseNTriplesLine(
      "<http://x/s> <http://x/p> \"object value\" .");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->subject.value(), "http://x/s");
  EXPECT_EQ(st->predicate.value(), "http://x/p");
  EXPECT_EQ(st->object.value(), "object value");
}

TEST(NTriplesTest, ParseIriObject) {
  auto st = ParseNTriplesLine("<http://x/s> <http://x/p> <http://x/o> .");
  ASSERT_TRUE(st.ok());
  EXPECT_TRUE(st->object.is_iri());
}

TEST(NTriplesTest, RejectsMissingDot) {
  EXPECT_FALSE(ParseNTriplesLine("<s> <p> <o>").ok());
}

TEST(NTriplesTest, RejectsLiteralSubject) {
  EXPECT_FALSE(ParseNTriplesLine("\"lit\" <p> <o> .").ok());
}

TEST(NTriplesTest, RejectsNonIriPredicate) {
  EXPECT_FALSE(ParseNTriplesLine("<s> _:b <o> .").ok());
  EXPECT_FALSE(ParseNTriplesLine("<s> \"p\" <o> .").ok());
}

TEST(NTriplesTest, DocumentRoundtripWithCommentsAndBlanks) {
  std::string text =
      "# a comment line\n"
      "<http://x/s1> <http://x/p> <http://x/o1> .\n"
      "\n"
      "<http://x/s2> <http://x/p> \"lit \\\"x\\\"\"@en .\n";
  auto statements = ParseNTriples(text);
  ASSERT_TRUE(statements.ok());
  ASSERT_EQ(statements->size(), 2u);
  std::string rewritten = WriteNTriples(*statements);
  auto reparsed = ParseNTriples(rewritten);
  ASSERT_TRUE(reparsed.ok());
  ASSERT_EQ(reparsed->size(), 2u);
  EXPECT_EQ((*reparsed)[1].object.language(), "en");
}

TEST(NTriplesTest, CompactorLongestPrefixWins) {
  IriCompactor compactor({{"http://bio2rdf.org/", "bio:"},
                          {"http://bio2rdf.org/ns/", ""}});
  EXPECT_EQ(compactor.Identifier(Term::Iri("http://bio2rdf.org/ns/xGO")),
            "xGO");
  EXPECT_EQ(compactor.Identifier(Term::Iri("http://bio2rdf.org/gene9")),
            "bio:gene9");
  EXPECT_EQ(compactor.Identifier(Term::Iri("http://other.org/x")),
            "http://other.org/x");
  EXPECT_EQ(compactor.Identifier(Term::Literal("plain")), "plain");
  EXPECT_EQ(compactor.Identifier(Term::Blank("b1")), "_:b1");
}

TEST(NTriplesTest, LoadToEngineTriples) {
  IriCompactor compactor(
      std::vector<std::pair<std::string, std::string>>{{"http://x/", ""}});
  auto triples = LoadNTriples(
      "<http://x/gene9> <http://x/xGO> <http://x/go1> .\n"
      "<http://x/gene9> <http://x/label> \"retinoid\" .\n",
      compactor);
  ASSERT_TRUE(triples.ok());
  ASSERT_EQ(triples->size(), 2u);
  EXPECT_EQ((*triples)[0], Triple("gene9", "xGO", "go1"));
  EXPECT_EQ((*triples)[1], Triple("gene9", "label", "retinoid"));
}

// ---- GraphStats ------------------------------------------------------------

TEST(GraphStatsTest, CountsAndMultiplicity) {
  std::vector<Triple> triples = {
      {"g1", "xGO", "go1"}, {"g1", "xGO", "go2"}, {"g1", "label", "a"},
      {"g2", "xGO", "go1"}, {"g2", "label", "b"},
  };
  GraphStats stats = GraphStats::Compute(triples);
  EXPECT_EQ(stats.triple_count(), 5u);
  EXPECT_EQ(stats.distinct_subjects(), 2u);
  EXPECT_EQ(stats.distinct_properties(), 2u);

  PropertyStats xgo = stats.ForProperty("xGO");
  EXPECT_EQ(xgo.triple_count, 3u);
  EXPECT_EQ(xgo.subject_count, 2u);
  EXPECT_EQ(xgo.max_multiplicity, 2u);
  EXPECT_DOUBLE_EQ(xgo.avg_multiplicity, 1.5);
  EXPECT_TRUE(xgo.multi_valued());

  PropertyStats label = stats.ForProperty("label");
  EXPECT_FALSE(label.multi_valued());
  EXPECT_EQ(stats.ForProperty("absent").triple_count, 0u);

  EXPECT_DOUBLE_EQ(stats.MultiValuedFraction(), 0.5);
  EXPECT_DOUBLE_EQ(stats.AvgTriplesPerSubject(), 2.5);
  EXPECT_FALSE(stats.Summary().empty());
}

TEST(GraphStatsTest, EmptyGraph) {
  GraphStats stats = GraphStats::Compute({});
  EXPECT_EQ(stats.triple_count(), 0u);
  EXPECT_DOUBLE_EQ(stats.MultiValuedFraction(), 0.0);
  EXPECT_DOUBLE_EQ(stats.AvgTriplesPerSubject(), 0.0);
}

}  // namespace
}  // namespace rdfmr

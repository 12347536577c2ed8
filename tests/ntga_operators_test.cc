// Tests for the NTGA operators — the paper's Definitions 1-3 — including
// the property-style invariants:
//   * σ^βγ keeps exactly the groups whose bound properties are satisfied;
//   * μ^β yields exactly one perfect triplegroup per candidate combination;
//   * μ^β_φm produces <= m groups whose candidates partition the full set,
//     and completing the unnest is transparent (same expansion);
//   * expansion of a built group equals the reference matcher (Lemma 1 at
//     the operator level), exercised over randomized graphs.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <set>

#include "common/random.h"
#include "common/strings.h"
#include "ntga/operators.h"
#include "query/matcher.h"
#include "tests/test_util.h"

namespace rdfmr {
namespace {

// An owning (Property, Object) pair; BuildAnnTg reads views of them.
struct Pair {
  std::string property;
  std::string object;

  auto operator<=>(const Pair&) const = default;
};

// Views of `pairs`, for BuildAnnTg.
std::vector<PropObj> Views(const std::vector<Pair>& pairs) {
  std::vector<PropObj> views;
  for (const Pair& po : pairs) views.push_back(PropObj{po.property, po.object});
  return views;
}

StarPattern BioStar() {
  StarPattern star;
  star.subject_var = "g";
  star.patterns.push_back(TriplePattern::Bound(
      NodePattern::Var("g"), "label", NodePattern::Var("l")));
  star.patterns.push_back(TriplePattern::Bound(
      NodePattern::Var("g"), "xGO", NodePattern::Var("go")));
  star.patterns.push_back(TriplePattern::Unbound(
      NodePattern::Var("g"), "up", NodePattern::Var("x")));
  return star;
}

std::vector<Pair> BioPairs() {
  return {
      {"label", "retinoid"}, {"synonym", "RCoR-1"}, {"xGO", "go1"},
      {"xGO", "go9"},        {"xRef", "ref7"},
  };
}

// σ^βγ over `pairs` (sorted and deduplicated first, as the grouping cycle
// hands them over): the group's one-component record, if it passes.
std::optional<std::string> Group(const StarPattern& star,
                                 const std::string& subject,
                                 std::vector<Pair> pairs) {
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  std::string out;
  if (!BuildAnnTg(star, 0, subject, Views(pairs), &out)) return std::nullopt;
  return out;
}

// `record` with the overrides entry `tp_index` -> `pinned` added to its
// first component (which must have no overrides yet).
std::string WithOverride(const std::string& record, uint32_t tp_index,
                         const std::vector<Pair>& pinned) {
  std::string out = record;
  TgRecordReader reader;
  EXPECT_TRUE(reader.Read(record).ok());
  EXPECT_TRUE(reader.components()[0].overrides_begin ==
              reader.components()[0].overrides_end);
  out.resize(reader.components()[0].raw.size());
  out += std::to_string(tp_index);
  for (const Pair& po : pinned) out += "," + po.property + "," + po.object;
  return out + record.substr(reader.components()[0].raw.size());
}

// The properties a record's first component keeps in its pairs, and the
// (Property, Object) pairs of its overrides.
struct Parts {
  std::set<std::string> properties;
  std::map<uint32_t, std::vector<Pair>> overrides;
};

Parts Read(const std::string& record) {
  TgRecordReader reader;
  EXPECT_TRUE(reader.Read(record).ok());
  const TgRecordReader::Component& c = reader.components()[0];
  const std::vector<std::string_view>& leaves = reader.leaves();
  Parts parts;
  for (uint32_t p = c.pairs_begin; p < c.pairs_end; ++p) {
    parts.properties.emplace(leaves[reader.pairs()[p].begin]);
  }
  for (uint32_t o = c.overrides_begin; o < c.overrides_end; ++o) {
    const TgRecordReader::Entry& e = reader.overrides()[o];
    std::vector<Pair>& pinned = parts.overrides[e.tp_index];
    for (uint32_t j = e.begin; j < e.end; j += 2) {
      pinned.push_back(
          Pair{std::string(leaves[j]), std::string(leaves[j + 1])});
    }
  }
  return parts;
}

// μ^β of component `site` of `record`.
std::vector<std::string> Unnest(const StarPattern& star,
                                const std::string& record,
                                std::vector<size_t> tp_indexes = {},
                                size_t site = 0) {
  TgRecordReader reader;
  EXPECT_TRUE(reader.Read(record).ok());
  std::vector<std::string> out;
  BetaUnnester(star).BetaUnnest(
      reader, reader.components()[site], tp_indexes,
      [&out](std::string_view, std::string_view r) { out.emplace_back(r); });
  return out;
}

// μ^β_φm of component `site` of `record`.
std::vector<std::pair<uint32_t, std::string>> Partition(
    const StarPattern& star, const std::string& record, size_t tp_index,
    uint32_t m, size_t site = 0) {
  TgRecordReader reader;
  EXPECT_TRUE(reader.Read(record).ok());
  std::vector<std::pair<uint32_t, std::string>> out;
  BetaUnnester(star).PartialBetaUnnest(
      reader, reader.components()[site], tp_index, m,
      [&out](uint32_t partition, std::string_view r) {
        out.emplace_back(partition, std::string(r));
      });
  return out;
}

// The distinct solutions of all of `records` for `stars`.
SolutionSet ExpandAll(const std::vector<StarPattern>& stars,
                      const std::vector<std::string>& records) {
  Result<SolutionSet> out = JoinedTgAnswerDecoder(stars)(records);
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  return out.ok() ? *out : SolutionSet();
}

// The solutions a record represents for `stars`.
SolutionSet Expand(const std::vector<StarPattern>& stars,
                   const std::string& record) {
  return ExpandAll(stars, {record});
}

// ---- PhiPartition -----------------------------------------------------------

TEST(PhiPartitionTest, InRangeAndDeterministic) {
  for (uint32_t m : {1u, 2u, 16u, 1024u}) {
    for (int i = 0; i < 50; ++i) {
      std::string v = "value" + std::to_string(i);
      uint32_t p = PhiPartition(v, m);
      EXPECT_LT(p, m);
      EXPECT_EQ(p, PhiPartition(v, m));
    }
  }
}

// ---- BuildAnnTg (σ^γ / σ^βγ) ------------------------------------------------

TEST(BuildAnnTgTest, AcceptsGroupWithAllBoundProperties) {
  auto tg = Group(BioStar(), "gene9", BioPairs());
  ASSERT_TRUE(tg.has_value());
  EXPECT_EQ(*PeekStarId(*tg), 0u);
  // Candidates for the unbound pattern are retained.
  EXPECT_EQ(Read(*tg).properties,
            (std::set<std::string>{"label", "synonym", "xGO", "xRef"}));
}

TEST(BuildAnnTgTest, WritesSortedPairsNestedPerProperty) {
  std::string out = "kept";
  ASSERT_TRUE(BuildAnnTg(BioStar(), 4, "gene9", Views(BioPairs()), &out));
  EXPECT_EQ(out,
            "keptgene9\x1F"
            "4\x1Flabel,retinoid\x1Dsynonym,RCoR-1\x1DxGO,go1,go9\x1DxRef,"
            "ref7\x1F");
  // A failing group appends nothing.
  const std::string before = out;
  EXPECT_FALSE(
      BuildAnnTg(BioStar(), 4, "g", Views({{"xGO", "go1"}}), &out));
  EXPECT_EQ(out, before);
}

TEST(BuildAnnTgTest, RejectsGroupMissingBoundProperty) {
  EXPECT_FALSE(
      Group(BioStar(), "g", {{"xGO", "go1"}, {"synonym", "s"}}).has_value())
      << "missing 'label' must fail the β group-filter (ftg2 in Fig. 5)";
}

TEST(BuildAnnTgTest, BoundObjectConstraintValidated) {
  StarPattern star;
  star.subject_var = "g";
  star.patterns.push_back(TriplePattern::Bound(
      NodePattern::Var("g"), "label", NodePattern::Var("l", "hexo")));
  EXPECT_FALSE(Group(star, "g", {{"label", "regulator gene"}}).has_value());
  EXPECT_TRUE(Group(star, "g", {{"label", "hexokinase gene"}}).has_value());
}

TEST(BuildAnnTgTest, UnboundPatternNeedsAtLeastOneCandidate) {
  StarPattern star;
  star.subject_var = "g";
  star.patterns.push_back(TriplePattern::Bound(
      NodePattern::Var("g"), "label", NodePattern::Var("l")));
  star.patterns.push_back(TriplePattern::Unbound(
      NodePattern::Var("g"), "up", NodePattern::Var("x", "nur77")));
  std::vector<Pair> pairs = {{"label", "a"}, {"xGO", "go1"}};
  EXPECT_FALSE(Group(star, "g", pairs).has_value());
  pairs.push_back({"interactsWith", "gene_nur77"});
  EXPECT_TRUE(Group(star, "g", pairs).has_value());
}

TEST(BuildAnnTgTest, IrrelevantPairsDropped) {
  StarPattern star;
  star.subject_var = "g";
  star.patterns.push_back(TriplePattern::Bound(
      NodePattern::Var("g"), "label", NodePattern::Var("l")));
  star.patterns.push_back(TriplePattern::Unbound(
      NodePattern::Var("g"), "up", NodePattern::Var("x", "go_")));
  auto tg = Group(star, "g",
                  {{"label", "a"}, {"xGO", "go_1"}, {"xRef", "ref_1"}});
  ASSERT_TRUE(tg.has_value());
  EXPECT_EQ(Read(*tg).properties, (std::set<std::string>{"label", "xGO"}))
      << "pairs failing every pattern's constraint are dead weight";
}

// ---- BetaUnnester::BetaUnnest (μ^β) -----------------------------------------

TEST(BetaUnnestTest, OnePerfectGroupPerCandidate) {
  StarPattern star = BioStar();
  auto tg = Group(star, "gene9", BioPairs());
  ASSERT_TRUE(tg.has_value());
  std::vector<std::string> perfect = Unnest(star, *tg);
  EXPECT_EQ(perfect.size(), 5u)
      << "Definition 2: u candidates -> u groups; bound-property pairs "
         "also serve as unbound candidates";
  std::vector<Pair> pinned;
  for (const std::string& p : perfect) {
    const Parts parts = Read(p);
    ASSERT_EQ(parts.overrides.count(2), 1u);
    ASSERT_EQ(parts.overrides.at(2).size(), 1u);
    pinned.push_back(parts.overrides.at(2)[0]);
    // Perfect groups keep the nested bound component and shed the rest.
    EXPECT_EQ(parts.properties, (std::set<std::string>{"label", "xGO"}));
  }
  std::vector<Pair> expected = BioPairs();
  EXPECT_EQ(pinned, expected) << "candidates in pairs order";
}

TEST(BetaUnnestTest, MultipleUnboundPatternsMultiply) {
  StarPattern star;
  star.subject_var = "g";
  star.patterns.push_back(TriplePattern::Bound(
      NodePattern::Var("g"), "label", NodePattern::Var("l")));
  star.patterns.push_back(TriplePattern::Unbound(
      NodePattern::Var("g"), "up1", NodePattern::Var("x1")));
  star.patterns.push_back(TriplePattern::Unbound(
      NodePattern::Var("g"), "up2", NodePattern::Var("x2")));
  auto tg = Group(star, "g", {{"label", "a"}, {"p1", "1"}, {"p2", "2"}});
  ASSERT_TRUE(tg.has_value());
  std::vector<std::string> out = Unnest(star, *tg);
  ASSERT_EQ(out.size(), 9u) << "3 candidates x 3";
  // The first pattern turns slowest.
  EXPECT_EQ(Read(out[0]).overrides.at(1)[0].property, "label");
  EXPECT_EQ(Read(out[1]).overrides.at(1)[0].property, "label");
  EXPECT_EQ(Read(out[1]).overrides.at(2)[0].property, "p1");
  EXPECT_EQ(Read(out[3]).overrides.at(1)[0].property, "p1");
}

TEST(BetaUnnestTest, OverrideIsTheCandidateSet) {
  StarPattern star = BioStar();
  auto tg = Group(star, "gene9", BioPairs());
  ASSERT_TRUE(tg.has_value());
  const std::string pinned = WithOverride(*tg, 2, {{"xRef", "ref7"}});
  std::vector<std::string> out = Unnest(star, pinned, {2});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(Read(out[0]).overrides.at(2)[0].property, "xRef");
  // Eager's μ^β leaves a single-pair override as it is.
  ASSERT_EQ(Unnest(star, pinned).size(), 1u);
  EXPECT_EQ(Read(Unnest(star, pinned)[0]).overrides.at(2).size(), 1u);
  // A many-pair override is unnested into its pairs.
  EXPECT_EQ(
      Unnest(star, WithOverride(*tg, 2, {{"a", "1"}, {"b", "2"}})).size(),
      2u);
}

// The one candidate rule (Definition 2): an override's pair that fails its
// pattern's filter is no candidate, for μ^β and μ^β_φm as for expansion,
// so their outputs expand to exactly the record (Lemma 1 at record level).
TEST(BetaUnnestTest, OverridePairFailingTheFilterIsNoCandidate) {
  StarPattern star = BioStar();
  star.patterns[2].object = NodePattern::Var("x", "go");
  auto tg = Group(star, "gene9", BioPairs());
  ASSERT_TRUE(tg.has_value());
  const std::string record =
      WithOverride(*tg, 2, {{"xGO", "go1"}, {"xGO", "go9"}, {"xRef", "ref7"}});
  const SolutionSet expanded = Expand({star}, record);
  EXPECT_EQ(expanded.size(), 4u) << "l x go(2) x x(go1, go9)";

  for (const std::vector<size_t>& tp_indexes : {std::vector<size_t>{},
                                                std::vector<size_t>{2}}) {
    const std::vector<std::string> pinned = Unnest(star, record, tp_indexes);
    std::vector<std::string> objects;
    for (const std::string& out : pinned) {
      const Parts parts = Read(out);
      for (const Pair& po : parts.overrides.at(2)) {
        objects.push_back(po.object);
      }
    }
    EXPECT_EQ(objects, (std::vector<std::string>{"go1", "go9"}));
    EXPECT_EQ(ExpandAll({star}, pinned), expanded);
  }
  for (uint32_t m : {1u, 2u, 7u}) {
    std::vector<std::string> outputs, objects;
    for (const auto& [partition, out] : Partition(star, record, 2, m)) {
      outputs.push_back(out);
      const Parts parts = Read(out);
      for (const Pair& po : parts.overrides.at(2)) {
        objects.push_back(po.object);
      }
    }
    std::sort(objects.begin(), objects.end());
    EXPECT_EQ(objects, (std::vector<std::string>{"go1", "go9"})) << m;
    EXPECT_EQ(ExpandAll({star}, outputs), expanded) << m;
  }
}

TEST(BetaUnnestTest, PinningOneKeepsTheOpenPatternsCandidates) {
  // Star with TWO unbound patterns, the second filtered; pin the first.
  StarPattern star;
  star.subject_var = "g";
  star.patterns.push_back(TriplePattern::Bound(
      NodePattern::Var("g"), "subType", NodePattern::Var("st")));
  star.patterns.push_back(TriplePattern::Unbound(
      NodePattern::Var("g"), "up1", NodePattern::Var("a")));
  star.patterns.push_back(TriplePattern::Unbound(
      NodePattern::Var("g"), "up2", NodePattern::Var("o", "nur77")));
  auto tg = Group(star, "g",
                  {{"subType", "protein"},
                   {"interactsWith", "gene_nur77"},
                   {"xGO", "go1"}});
  ASSERT_TRUE(tg.has_value());
  std::vector<std::string> out = Unnest(star, *tg, {1});
  ASSERT_EQ(out.size(), 3u);
  for (const std::string& record : out) {
    EXPECT_EQ(Read(record).properties,
              (std::set<std::string>{"interactsWith", "subType"}))
        << "the bound pair stays, a candidate of the filtered open pattern "
           "stays, and xGO cannot satisfy its 'nur77' filter";
  }
  // Unfiltered, the open pattern keeps every pair.
  star.patterns[2].object = NodePattern::Var("o");
  for (const std::string& record : Unnest(star, *tg, {1})) {
    EXPECT_EQ(Read(record).properties.size(), 3u);
  }
}

// ---- BetaUnnester::PartialBetaUnnest (μ^β_φm) -------------------------------

TEST(PartialBetaUnnestTest, AtMostMGroupsPartitioningCandidates) {
  StarPattern star = BioStar();
  auto tg = Group(star, "gene9", BioPairs());
  ASSERT_TRUE(tg.has_value());
  for (uint32_t m : {1u, 2u, 3u, 64u}) {
    auto partitions = Partition(star, *tg, 2, m);
    EXPECT_LE(partitions.size(), static_cast<size_t>(m));
    // The union of all partitions' candidates is the full candidate set.
    std::vector<Pair> collected;
    for (size_t k = 0; k < partitions.size(); ++k) {
      const auto& [partition, restricted] = partitions[k];
      EXPECT_LT(partition, m);
      if (k > 0) {
        EXPECT_LT(partitions[k - 1].first, partition);
      }
      const Parts parts = Read(restricted);
      for (const Pair& po : parts.overrides.at(2)) {
        EXPECT_EQ(PhiPartition(po.object, m), partition)
            << "candidate must live in its φ partition";
        collected.push_back(po);
      }
    }
    std::vector<Pair> full = BioPairs();
    std::sort(collected.begin(), collected.end());
    EXPECT_EQ(collected, full);
  }
}

TEST(PartialBetaUnnestTest, SinglePartitionKeepsGroupWhole) {
  StarPattern star = BioStar();
  auto tg = Group(star, "gene9", BioPairs());
  ASSERT_TRUE(tg.has_value());
  auto partitions = Partition(star, *tg, 2, 1);
  ASSERT_EQ(partitions.size(), 1u);
  EXPECT_EQ(Read(partitions[0].second).overrides.at(2).size(), 5u);
}

TEST(PartialBetaUnnestTest, ExpansionIsPartitionTransparent) {
  // Completing the unnest per partition yields exactly the expansion of the
  // original group.
  StarPattern star = BioStar();
  auto tg = Group(star, "gene9", BioPairs());
  ASSERT_TRUE(tg.has_value());
  std::vector<std::string> restricted;
  for (const auto& [_, record] : Partition(star, *tg, 2, 3)) {
    restricted.push_back(record);
  }
  EXPECT_EQ(Expand({star}, *tg), ExpandAll({star}, restricted));
}

// ---- Expansion equivalence (Lemma 1, operator level) ------------------------

TEST(ExpandTest, MatchesReferenceMatcherOnExample) {
  StarPattern star = BioStar();
  std::vector<Triple> triples;
  for (const Pair& po : BioPairs()) {
    triples.emplace_back("gene9", po.property, po.object);
  }
  auto tg = Group(star, "gene9", BioPairs());
  ASSERT_TRUE(tg.has_value());
  EXPECT_EQ(Expand({star}, *tg), SolutionSet(MatchStar(star, triples)));
}

TEST(ExpandTest, BetaUnnestPreservesExpansion) {
  StarPattern star = BioStar();
  auto tg = Group(star, "gene9", BioPairs());
  ASSERT_TRUE(tg.has_value());
  EXPECT_EQ(Expand({star}, *tg), ExpandAll({star}, Unnest(star, *tg)));
}

// Randomized operator-level equivalence sweep: σ^βγ builds a subject's
// group and its expansion equals the reference matcher's solutions over the
// subject's distinct triples (as sets, including empty results). Random
// stars mix bound and unbound properties, constant objects, CONTAINS
// filters, OPTIONAL patterns, a variable repeated within a pattern
// (?s p ?s) and across patterns (an object or property variable shared by
// two patterns); random groups repeat values and carry leaves with tabs,
// backslashes and newlines.
TEST(RandomizedExpandTest, BuildPlusExpandEqualsMatcher) {
  static const std::vector<std::string> kLeaves = {
      "a", "b", "a\tb", "x\\", "\\s", "l\nm", "", "sub\tj", "tok_a"};
  static const std::vector<std::string> kProperties = {"p", "q", "r\t"};
  Rng rng(20261020);
  auto pick = [&rng](const std::vector<std::string>& from) {
    return from[rng.Uniform(from.size())];
  };
  size_t with_matches = 0;
  for (int round = 0; round < 600; ++round) {
    StarPattern star;
    star.subject_var = "s";
    const size_t k = 1 + rng.Uniform(4);
    for (size_t i = 0; i < k; ++i) {
      const bool optional = i > 0 && rng.Chance(0.25);
      // An OPTIONAL pattern's variables must be fresh.
      const std::string fresh = std::to_string(i);
      const std::string filter = rng.Chance(0.2) ? "tok" : "";
      NodePattern object =
          rng.Chance(0.2)   ? NodePattern::Const(pick(kLeaves))
          : optional        ? NodePattern::Var("f" + fresh, filter)
          : rng.Chance(0.2) ? NodePattern::Var("s")
                            : NodePattern::Var(rng.Chance(0.5) ? "o" : "u",
                                               filter);
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
      star.patterns.push_back(std::move(tp));
    }

    const std::string subject = rng.Chance(0.5) ? "sub\tj" : "a";
    std::vector<Pair> pairs;
    std::vector<Triple> triples;
    for (size_t n = rng.Uniform(9); n > 0; --n) {
      Pair po{pick(kProperties), rng.Chance(0.15) ? subject : pick(kLeaves)};
      for (size_t copies = rng.Chance(0.3) ? 2 : 1; copies > 0; --copies) {
        pairs.push_back(po);
      }
      triples.emplace_back(subject, po.property, po.object);
    }
    std::sort(triples.begin(), triples.end());
    triples.erase(std::unique(triples.begin(), triples.end()),
                  triples.end());

    const SolutionSet expected(MatchStar(star, triples));
    auto tg = Group(star, subject, pairs);
    EXPECT_EQ(tg.has_value() ? Expand({star}, *tg) : SolutionSet(), expected)
        << "round " << round << ": " << star.ToString()
        << ": operator pipeline must agree with the reference matcher";
    if (expected.size() > 0) ++with_matches;
  }
  EXPECT_GT(with_matches, 150u) << "too few groups match to cover expansion";
}

// ---- μ^β / μ^β_φm properties over escape-heavy records ----------------------

// Leaves drawn from every byte the grammar escapes or splits on.
std::string NastyLeaf(Rng* rng) {
  static const std::string kAlphabet = "ab\\,\x1D\x1E\x1F\n";
  std::string out;
  const size_t size = rng->Uniform(4);
  for (size_t i = 0; i < size; ++i) {
    out.push_back(kAlphabet[rng->Uniform(kAlphabet.size())]);
  }
  return out;
}

// Object filters that escape-heavy leaves sometimes pass.
const char* const kFilters[] = {"", "a", "\\", "\n", ","};

// One round: a star with 0-2 bound and 1-3 unbound patterns (some
// optional, some object-filtered); a group over escape-heavy leaves whose
// unbound patterns sometimes already carry overrides; the group as one
// component of a record with another star's component on either side.
struct Round {
  std::vector<StarPattern> stars;  // [0] the unnested star, [1] the other
  std::string record;
  size_t site = 0;
  std::vector<std::vector<Pair>> candidates;  // per pattern of stars[0]
};

Round RandomRound(Rng* rng) {
  Round r;
  StarPattern star;
  star.subject_var = "s";
  std::vector<std::string> properties;
  for (size_t i = 0; i < 4; ++i) properties.push_back(NastyLeaf(rng));
  const size_t num_bound = rng->Uniform(3);
  for (size_t i = 0; i < num_bound; ++i) {
    star.patterns.push_back(TriplePattern::Bound(
        NodePattern::Var("s"), properties[rng->Uniform(4)],
        NodePattern::Var("b" + std::to_string(i))));
    star.patterns.back().optional = rng->Chance(0.2);
  }
  const size_t num_unbound = 1 + rng->Uniform(3);
  for (size_t i = 0; i < num_unbound; ++i) {
    star.patterns.push_back(TriplePattern::Unbound(
        NodePattern::Var("s"), "p" + std::to_string(i),
        NodePattern::Var("u" + std::to_string(i),
                         kFilters[rng->Uniform(5)])));
    star.patterns.back().optional = rng->Chance(0.25);
  }
  std::map<std::string, std::set<std::string>> pairs;
  const size_t num_pairs = rng->Uniform(7);
  for (size_t i = 0; i < num_pairs; ++i) {
    pairs[properties[rng->Uniform(4)]].insert(NastyLeaf(rng));
  }
  std::map<uint32_t, std::vector<Pair>> overrides;
  for (size_t i = num_bound; i < star.patterns.size(); ++i) {
    if (!rng->Chance(0.3)) continue;
    std::vector<Pair>& pinned = overrides[static_cast<uint32_t>(i)];
    const size_t size = std::vector<size_t>{0, 1, 1, 3}[rng->Uniform(4)];
    for (size_t j = 0; j < size; ++j) {
      pinned.push_back(Pair{NastyLeaf(rng), NastyLeaf(rng)});
    }
  }

  std::string group;
  TgWriter writer(&group, NastyLeaf(rng), 0);
  for (const auto& [property, objects] : pairs) {
    writer.Property(property);
    for (const std::string& o : objects) writer.Object(o);
  }
  writer.EndPairs();
  for (const auto& [tp_index, pinned] : overrides) {
    writer.Override(tp_index);
    for (const Pair& po : pinned) writer.Pinned(po.property, po.object);
  }
  // An unbound pattern's candidates: its override's pairs if it has one,
  // else the record's pairs, either way only those passing its filter.
  r.candidates.resize(star.patterns.size());
  for (size_t i = num_bound; i < star.patterns.size(); ++i) {
    auto it = overrides.find(static_cast<uint32_t>(i));
    if (it != overrides.end()) {
      for (const Pair& po : it->second) {
        if (star.patterns[i].object.Matches(po.object)) {
          r.candidates[i].push_back(po);
        }
      }
      continue;
    }
    for (const auto& [property, objects] : pairs) {
      for (const std::string& o : objects) {
        if (star.patterns[i].object.Matches(o)) {
          r.candidates[i].push_back(Pair{property, o});
        }
      }
    }
  }

  StarPattern other;
  other.subject_var = "t";
  other.patterns.push_back(TriplePattern::Bound(
      NodePattern::Var("t"), "q", NodePattern::Var("v")));
  std::string neighbour;
  TgWriter other_writer(&neighbour, NastyLeaf(rng), 1);
  other_writer.Property("q");
  other_writer.Object(NastyLeaf(rng));
  other_writer.EndPairs();
  r.stars = {star, other};
  switch (rng->Uniform(3)) {
    case 0:
      r.record = group;
      break;
    case 1:
      r.record = JoinRecords(group, neighbour);
      break;
    default:
      r.record = JoinRecords(neighbour, group);
      r.site = 1;
  }
  return r;
}

// Every component of every output, read and written again, gives the
// output's bytes.
void ExpectCanonical(const std::vector<std::string>& outputs,
                     const std::string& context) {
  TgRecordReader reader;
  for (const std::string& out : outputs) {
    ASSERT_TRUE(reader.Read(out).ok()) << context;
    std::string rewritten;
    for (const TgRecordReader::Component& c : reader.components()) {
      if (!rewritten.empty() || &c != &reader.components().front()) {
        rewritten.push_back('\x1E');
      }
      rewritten += testing_util::RewriteComponent(reader, c);
    }
    EXPECT_EQ(rewritten, out) << context;
  }
}

TEST(BetaUnnesterPropertyTest, RandomEscapeHeavyGroups) {
  Rng rng(20261018);
  for (int round = 0; round < 500; ++round) {
    const Round r = RandomRound(&rng);
    const StarPattern& star = r.stars[0];
    const std::string context = "round " + std::to_string(round);
    const SolutionSet expanded = Expand(r.stars, r.record);

    // μ^β over Eager's patterns: the product of their candidate counts,
    // and Lemma 1.
    size_t product = 1;
    TgRecordReader reader;
    ASSERT_TRUE(reader.Read(r.record).ok()) << context;
    for (size_t idx : star.UnboundIndexes()) {
      if (star.patterns[idx].optional) continue;
      const TgRecordReader::Component& c = reader.components()[r.site];
      bool single = false;
      for (uint32_t o = c.overrides_begin; o < c.overrides_end; ++o) {
        const TgRecordReader::Entry& e = reader.overrides()[o];
        if (e.tp_index == idx) single = e.end - e.begin <= 2;
      }
      if (!single) product *= r.candidates[idx].size();
    }
    const std::vector<std::string> eager = Unnest(star, r.record, {}, r.site);
    EXPECT_EQ(eager.size(), product) << context;
    ExpectCanonical(eager, context);
    EXPECT_EQ(ExpandAll(r.stars, eager), expanded) << context;

    // μ^β and μ^β_φm of one mandatory unbound pattern, as a join site
    // pins or partitions it.
    std::vector<size_t> mandatory;
    for (size_t idx : star.UnboundIndexes()) {
      if (!star.patterns[idx].optional) mandatory.push_back(idx);
    }
    if (mandatory.empty()) continue;
    const size_t tp = mandatory[rng.Uniform(mandatory.size())];
    const std::vector<Pair>& candidates = r.candidates[tp];
    const std::vector<std::string> pinned =
        Unnest(star, r.record, {tp}, r.site);
    EXPECT_EQ(pinned.size(), candidates.size()) << context;
    ExpectCanonical(pinned, context);
    EXPECT_EQ(ExpandAll(r.stars, pinned), expanded) << context;

    for (uint32_t m : {1u, 2u, 7u}) {
      const auto partitions = Partition(star, r.record, tp, m, r.site);
      EXPECT_LE(partitions.size(), m) << context;
      std::vector<std::string> outputs;
      std::vector<Pair> collected;
      for (size_t k = 0; k < partitions.size(); ++k) {
        const auto& [partition, out] = partitions[k];
        if (k > 0) {
          EXPECT_LT(partitions[k - 1].first, partition) << context;
        }
        outputs.push_back(out);
        TgRecordReader part;
        ASSERT_TRUE(part.Read(out).ok()) << context;
        const TgRecordReader::Component& c = part.components()[r.site];
        for (uint32_t o = c.overrides_begin; o < c.overrides_end; ++o) {
          const TgRecordReader::Entry& e = part.overrides()[o];
          if (e.tp_index != tp) continue;
          for (uint32_t j = e.begin; j < e.end; j += 2) {
            const std::string object(part.leaves()[j + 1]);
            EXPECT_EQ(PhiPartition(object, m), partition) << context;
            collected.push_back(
                Pair{std::string(part.leaves()[j]), object});
          }
        }
      }
      std::vector<Pair> expected = candidates;
      std::stable_sort(expected.begin(), expected.end(),
                       [m](const Pair& a, const Pair& b) {
                         return PhiPartition(a.object, m) <
                                PhiPartition(b.object, m);
                       });
      EXPECT_EQ(collected, expected) << context << " m=" << m;
      ExpectCanonical(outputs, context);
      EXPECT_EQ(ExpandAll(r.stars, outputs), expanded) << context;
    }
  }
}

// The view-based record reader keeps every rejection of the record
// grammar, with its Status code, for answer decoding and for any other
// reader alike.
TEST(JoinedTgAnswerDecoderTest, RejectionsKeepTheirCodes) {
  const AnswerDecoder decode = JoinedTgAnswerDecoder({BioStar()});
  const std::string f = "\x1F";  // field separator
  const std::vector<std::string> bad_records = {
      "g1" + f + "0",                                  // field count
      "g1" + f + "zero" + f + "label,l1" + f,          // bad star id
      "g1" + f + "0" + f + "label,l1\x1D" + f,         // empty pair entry
      "g1" + f + "0" + f + "label" + f,                // pair without objects
      "g1" + f + "0" + f + "label,l1" + f + "two,p,o",  // bad override index
      "g1" + f + "0" + f + "label,l1" + f + "2,p",      // cut-short override
  };
  TgRecordReader reader;
  for (const std::string& record : bad_records) {
    EXPECT_TRUE(decode({&record, 1}).status().IsIoError())
        << EscapeField(record, '\x1F');
    EXPECT_TRUE(reader.Read(record).IsIoError())
        << EscapeField(record, '\x1F');
  }
  // A bad component after a good one fails the whole joined record.
  const std::string good = "g1" + f + "0" + f + "label,l1" + f;
  using Lines = std::vector<std::string>;
  EXPECT_TRUE(
      decode(Lines{good + "\x1E" + bad_records[1]})
          .status()
          .IsIoError());
  // A well-formed component naming a star the plan does not have, alone
  // or after a good one.
  const std::string unknown_star = "g1" + f + "5" + f + "label,l1" + f;
  EXPECT_TRUE(
      decode(Lines{unknown_star}).status().IsIoError());
  EXPECT_TRUE(
      decode(Lines{good + "\x1E" + unknown_star})
          .status()
          .IsIoError());
}

// The read-back's chunked decode of an answer file several chunks long
// equals the serial decoder's table; with rejected records in two chunks
// it returns the serial decoder's error, the earlier record's.
TEST(JoinedTgAnswerDecoderTest, ChunkedDecodeMatchesTheSerialDecoder) {
  const StarPattern star = BioStar();
  const AnswerDecoder decode = JoinedTgAnswerDecoder({star});
  std::vector<std::string> records;
  for (size_t i = 0; records.size() < 3 * ChunkedDecode::kLines + 17; ++i) {
    std::vector<Pair> pairs = {
        {"label", "l" + std::to_string(i % 11)},
        {"xGO", "go" + std::to_string(i % 17)},
        {"xGO", "go" + std::to_string(i % 5)},
        {"xRef", "ref" + std::to_string(i % 23)},
    };
    std::optional<std::string> record =
        Group(star, "gene" + std::to_string(i % 997), pairs);
    ASSERT_TRUE(record.has_value());
    records.push_back(*record);
  }
  Result<SolutionSet> serial = decode(records);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  EXPECT_GT(serial->size(), ChunkedDecode::kLines);
  for (uint32_t threads : {1u, 4u}) {
    Result<SolutionSet> pooled =
        testing_util::DecodeOnPool(decode, records, threads);
    ASSERT_TRUE(pooled.ok()) << pooled.status().ToString();
    EXPECT_TRUE(*pooled == *serial);
  }

  const std::string f = "\x1F";
  records[ChunkedDecode::kLines + 5] = "g1" + f + "0";  // field count
  records[2 * ChunkedDecode::kLines + 3] =
      "g1" + f + "zero" + f + "label,l1" + f;  // bad star id
  serial = decode(records);
  ASSERT_TRUE(serial.status().IsIoError()) << serial.status().ToString();
  ASSERT_NE(decode({&records[2 * ChunkedDecode::kLines + 3], 1})
                .status()
                .ToString(),
            serial.status().ToString());
  const Result<SolutionSet> pooled = testing_util::DecodeOnPool(decode, records);
  EXPECT_EQ(pooled.status().code(), serial.status().code());
  EXPECT_EQ(pooled.status().message(), serial.status().message());
}

}  // namespace
}  // namespace rdfmr

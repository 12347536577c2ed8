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

#include "common/random.h"
#include "common/strings.h"
#include "ntga/operators.h"
#include "query/matcher.h"

namespace rdfmr {
namespace {

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

// The solutions one triplegroup represents for `star`, expanded from its
// one-component record.
std::vector<Solution> Expand(const StarPattern& star, const AnnTg& tg) {
  Result<std::vector<Solution>> out = ExpandJoinedTg({star}, tg.Serialize());
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  return out.ok() ? *out : std::vector<Solution>{};
}

std::vector<PropObj> BioPairs() {
  return {
      {"label", "retinoid"}, {"xGO", "go1"},   {"xGO", "go9"},
      {"synonym", "RCoR-1"}, {"xRef", "ref7"},
  };
}

// ---- PhiPartition ------------------------------------------------------------

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

// ---- BuildAnnTg (σ^γ / σ^βγ) ---------------------------------------------------

TEST(BuildAnnTgTest, AcceptsGroupWithAllBoundProperties) {
  auto tg = BuildAnnTg(BioStar(), 0, "gene9", BioPairs());
  ASSERT_TRUE(tg.has_value());
  EXPECT_EQ(tg->subject, "gene9");
  EXPECT_EQ(tg->star_id, 0u);
  EXPECT_TRUE(tg->HasProperty("label"));
  EXPECT_TRUE(tg->HasProperty("xGO"));
  // Candidates for the unbound pattern are retained.
  EXPECT_TRUE(tg->HasProperty("synonym"));
  EXPECT_TRUE(tg->HasProperty("xRef"));
}

TEST(BuildAnnTgTest, RejectsGroupMissingBoundProperty) {
  std::vector<PropObj> pairs = {{"xGO", "go1"}, {"synonym", "s"}};
  EXPECT_FALSE(BuildAnnTg(BioStar(), 0, "g", pairs).has_value())
      << "missing 'label' must fail the β group-filter (ftg2 in Fig. 5)";
}

TEST(BuildAnnTgTest, BoundObjectConstraintValidated) {
  StarPattern star;
  star.subject_var = "g";
  star.patterns.push_back(TriplePattern::Bound(
      NodePattern::Var("g"), "label", NodePattern::Var("l", "hexo")));
  std::vector<PropObj> pairs = {{"label", "regulator gene"}};
  EXPECT_FALSE(BuildAnnTg(star, 0, "g", pairs).has_value());
  pairs = {{"label", "hexokinase gene"}};
  EXPECT_TRUE(BuildAnnTg(star, 0, "g", pairs).has_value());
}

TEST(BuildAnnTgTest, UnboundPatternNeedsAtLeastOneCandidate) {
  StarPattern star;
  star.subject_var = "g";
  star.patterns.push_back(TriplePattern::Bound(
      NodePattern::Var("g"), "label", NodePattern::Var("l")));
  star.patterns.push_back(TriplePattern::Unbound(
      NodePattern::Var("g"), "up", NodePattern::Var("x", "nur77")));
  std::vector<PropObj> pairs = {{"label", "a"}, {"xGO", "go1"}};
  EXPECT_FALSE(BuildAnnTg(star, 0, "g", pairs).has_value());
  pairs.push_back({"interactsWith", "gene_nur77"});
  EXPECT_TRUE(BuildAnnTg(star, 0, "g", pairs).has_value());
}

TEST(BuildAnnTgTest, IrrelevantPairsDropped) {
  StarPattern star;
  star.subject_var = "g";
  star.patterns.push_back(TriplePattern::Bound(
      NodePattern::Var("g"), "label", NodePattern::Var("l")));
  star.patterns.push_back(TriplePattern::Unbound(
      NodePattern::Var("g"), "up", NodePattern::Var("x", "go_")));
  std::vector<PropObj> pairs = {
      {"label", "a"}, {"xGO", "go_1"}, {"xRef", "ref_1"}};
  auto tg = BuildAnnTg(star, 0, "g", pairs);
  ASSERT_TRUE(tg.has_value());
  EXPECT_FALSE(tg->HasProperty("xRef"))
      << "pairs failing every pattern's constraint are dead weight";
}

// ---- UnboundCandidates ---------------------------------------------------------

TEST(UnboundCandidatesTest, ImplicitSetIsAllMatchingPairs) {
  auto tg = BuildAnnTg(BioStar(), 0, "gene9", BioPairs());
  ASSERT_TRUE(tg.has_value());
  std::vector<PropObj> cands = UnboundCandidates(BioStar(), *tg, 2);
  EXPECT_EQ(cands.size(), 5u)
      << "bound-property pairs also serve as unbound candidates";
}

TEST(UnboundCandidatesTest, OverrideWins) {
  auto tg = BuildAnnTg(BioStar(), 0, "gene9", BioPairs());
  ASSERT_TRUE(tg.has_value());
  tg->overrides[2] = {PropObj{"xRef", "ref7"}};
  std::vector<PropObj> cands = UnboundCandidates(BioStar(), *tg, 2);
  ASSERT_EQ(cands.size(), 1u);
  EXPECT_EQ(cands[0].property, "xRef");
}

// ---- BetaUnnest (μ^β) -----------------------------------------------------------

TEST(BetaUnnestTest, OnePerfectGroupPerCandidate) {
  StarPattern star = BioStar();
  auto tg = BuildAnnTg(star, 0, "gene9", BioPairs());
  ASSERT_TRUE(tg.has_value());
  std::vector<AnnTg> perfect = BetaUnnest(star, *tg);
  EXPECT_EQ(perfect.size(), 5u) << "Definition 2: u candidates -> u groups";
  for (const AnnTg& p : perfect) {
    ASSERT_EQ(p.overrides.count(2), 1u);
    EXPECT_EQ(p.overrides.at(2).size(), 1u);
    // Perfect groups keep the nested bound component and shed the rest.
    EXPECT_TRUE(p.HasProperty("label"));
    EXPECT_TRUE(p.HasProperty("xGO"));
    EXPECT_FALSE(p.HasProperty("synonym"));
  }
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
  std::vector<PropObj> pairs = {
      {"label", "a"}, {"p1", "1"}, {"p2", "2"}};
  auto tg = BuildAnnTg(star, 0, "g", pairs);
  ASSERT_TRUE(tg.has_value());
  EXPECT_EQ(BetaUnnest(star, *tg).size(), 9u) << "3 candidates x 3";
}

TEST(BetaUnnestTest, AlreadyPinnedPatternNotReexpanded) {
  StarPattern star = BioStar();
  auto tg = BuildAnnTg(star, 0, "gene9", BioPairs());
  ASSERT_TRUE(tg.has_value());
  tg->overrides[2] = {PropObj{"xRef", "ref7"}};
  std::vector<AnnTg> out = BetaUnnest(star, *tg);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].overrides.at(2)[0].property, "xRef");
}

// ---- PartialBetaUnnest (μ^β_φm) ---------------------------------------------------

TEST(PartialBetaUnnestTest, AtMostMGroupsPartitioningCandidates) {
  StarPattern star = BioStar();
  auto tg = BuildAnnTg(star, 0, "gene9", BioPairs());
  ASSERT_TRUE(tg.has_value());
  for (uint32_t m : {1u, 2u, 3u, 64u}) {
    auto partitions = PartialBetaUnnest(star, *tg, 2, m);
    EXPECT_LE(partitions.size(), static_cast<size_t>(m));
    // The union of all partitions' candidates is the full candidate set.
    std::vector<PropObj> collected;
    for (const auto& [partition, restricted] : partitions) {
      EXPECT_LT(partition, m);
      const auto& cands = restricted.overrides.at(2);
      for (const PropObj& po : cands) {
        EXPECT_EQ(PhiPartition(po.object, m), partition)
            << "candidate must live in its φ partition";
        collected.push_back(po);
      }
    }
    std::vector<PropObj> full = UnboundCandidates(star, *tg, 2);
    std::sort(collected.begin(), collected.end());
    std::sort(full.begin(), full.end());
    EXPECT_EQ(collected, full);
  }
}

TEST(PartialBetaUnnestTest, SinglePartitionKeepsGroupWhole) {
  StarPattern star = BioStar();
  auto tg = BuildAnnTg(star, 0, "gene9", BioPairs());
  ASSERT_TRUE(tg.has_value());
  auto partitions = PartialBetaUnnest(star, *tg, 2, 1);
  ASSERT_EQ(partitions.size(), 1u);
  EXPECT_EQ(partitions[0].second.overrides.at(2).size(), 5u);
}

TEST(PartialBetaUnnestTest, ExpansionIsPartitionTransparent) {
  // Completing the unnest per partition yields exactly the expansion of the
  // original group.
  StarPattern star = BioStar();
  auto tg = BuildAnnTg(star, 0, "gene9", BioPairs());
  ASSERT_TRUE(tg.has_value());
  std::vector<Solution> direct = Expand(star, *tg);
  std::vector<Solution> via_partitions;
  for (const auto& [_, restricted] : PartialBetaUnnest(star, *tg, 2, 3)) {
    std::vector<Solution> part = Expand(star, restricted);
    via_partitions.insert(via_partitions.end(), part.begin(), part.end());
  }
  std::sort(direct.begin(), direct.end());
  std::sort(via_partitions.begin(), via_partitions.end());
  EXPECT_EQ(direct, via_partitions);
}

// ---- Expansion equivalence (Lemma 1, operator level) ------------------------------

TEST(ExpandTest, MatchesReferenceMatcherOnExample) {
  StarPattern star = BioStar();
  std::vector<Triple> triples;
  for (const PropObj& po : BioPairs()) {
    triples.emplace_back("gene9", po.property, po.object);
  }
  auto tg = BuildAnnTg(star, 0, "gene9", BioPairs());
  ASSERT_TRUE(tg.has_value());
  std::vector<Solution> expanded = Expand(star, *tg);
  std::vector<Solution> reference = MatchStar(star, triples);
  std::sort(expanded.begin(), expanded.end());
  std::sort(reference.begin(), reference.end());
  EXPECT_EQ(expanded, reference);
}

TEST(ExpandTest, BetaUnnestPreservesExpansion) {
  StarPattern star = BioStar();
  auto tg = BuildAnnTg(star, 0, "gene9", BioPairs());
  ASSERT_TRUE(tg.has_value());
  std::vector<Solution> nested = Expand(star, *tg);
  std::vector<Solution> unnested;
  for (const AnnTg& p : BetaUnnest(star, *tg)) {
    std::vector<Solution> each = Expand(star, p);
    unnested.insert(unnested.end(), each.begin(), each.end());
  }
  std::sort(nested.begin(), nested.end());
  std::sort(unnested.begin(), unnested.end());
  EXPECT_EQ(nested, unnested);
}

// Randomized operator-level equivalence sweep.
class RandomizedExpandTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomizedExpandTest, BuildPlusExpandEqualsMatcher) {
  Rng rng(GetParam());
  // Random star: 1-2 bound patterns, 1-2 unbound (possibly filtered).
  StarPattern star;
  star.subject_var = "s";
  size_t num_bound = 1 + rng.Uniform(2);
  size_t num_unbound = 1 + rng.Uniform(2);
  for (size_t i = 0; i < num_bound; ++i) {
    star.patterns.push_back(TriplePattern::Bound(
        NodePattern::Var("s"),
        "bp" + std::to_string(rng.Uniform(3)),
        NodePattern::Var("bo" + std::to_string(i))));
  }
  for (size_t i = 0; i < num_unbound; ++i) {
    std::string filter = rng.Chance(0.5) ? "tok" : "";
    star.patterns.push_back(TriplePattern::Unbound(
        NodePattern::Var("s"), "up" + std::to_string(i),
        NodePattern::Var("uo" + std::to_string(i), filter)));
  }
  // Random subject pairs over a small vocabulary.
  std::vector<PropObj> pairs;
  std::vector<Triple> triples;
  size_t num_pairs = 2 + rng.Uniform(8);
  for (size_t i = 0; i < num_pairs; ++i) {
    std::string p = "bp" + std::to_string(rng.Uniform(5));
    std::string o = StringFormat("%sobj%llu", rng.Chance(0.4) ? "tok_" : "",
                                 static_cast<unsigned long long>(
                                     rng.Uniform(6)));
    pairs.push_back(PropObj{p, o});
    triples.emplace_back("s", p, o);
  }
  std::sort(triples.begin(), triples.end());
  triples.erase(std::unique(triples.begin(), triples.end()), triples.end());

  std::vector<Solution> reference = MatchStar(star, triples);
  auto tg = BuildAnnTg(star, 0, "s", pairs);
  std::vector<Solution> expanded;
  if (tg.has_value()) {
    expanded = Expand(star, *tg);
  }
  std::sort(reference.begin(), reference.end());
  std::sort(expanded.begin(), expanded.end());
  EXPECT_EQ(expanded, reference)
      << "seed " << GetParam() << ": operator pipeline must agree with the "
      << "reference matcher (including empty results)";
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomizedExpandTest,
                         ::testing::Range<uint64_t>(0, 40));

// The view-based record reader keeps every rejection of the record
// grammar, with its Status code, for answer decoding and for
// AnnTg::Deserialize alike.
TEST(DecodeJoinedTgAnswersTest, RejectionsKeepTheirCodes) {
  const std::vector<StarPattern> stars = {BioStar()};
  const std::string f = "\x1F";  // field separator
  const std::vector<std::string> bad_records = {
      "g1" + f + "0",                                  // field count
      "g1" + f + "zero" + f + "label,l1" + f,          // bad star id
      "g1" + f + "0" + f + "label,l1\x1D" + f,         // empty pair entry
      "g1" + f + "0" + f + "label" + f,                // pair without objects
      "g1" + f + "0" + f + "label,l1" + f + "two,p,o",  // bad override index
      "g1" + f + "0" + f + "label,l1" + f + "2,p",      // cut-short override
  };
  for (const std::string& record : bad_records) {
    EXPECT_TRUE(DecodeJoinedTgAnswers(stars, {record}).status().IsIoError())
        << EscapeField(record, '\x1F');
    EXPECT_TRUE(AnnTg::Deserialize(record).status().IsIoError())
        << EscapeField(record, '\x1F');
  }
  // A bad component after a good one fails the whole joined record.
  AnnTg good;
  good.subject = "g1";
  good.AddPair("label", "l1");
  EXPECT_TRUE(DecodeJoinedTgAnswers(
                  stars, {good.Serialize() + "\x1E" + bad_records[1]})
                  .status()
                  .IsIoError());
  // A well-formed component naming a star the plan does not have.
  const std::string unknown_star = "g1" + f + "5" + f + "label,l1" + f;
  EXPECT_TRUE(
      DecodeJoinedTgAnswers(stars, {unknown_star}).status().IsIoError());
  EXPECT_TRUE(ExpandJoinedTg(stars, unknown_star).status().IsIoError());
  EXPECT_TRUE(ExpandJoinedTg(stars, good.Serialize() + "\x1E" + unknown_star)
                  .status()
                  .IsIoError());
}

}  // namespace
}  // namespace rdfmr

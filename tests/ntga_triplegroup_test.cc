// Unit tests for the TripleGroup data model: nested pair storage,
// compaction rules, serialization (with adversarial strings), and the
// record grammar (components side by side, read and spliced as views).

#include <gtest/gtest.h>

#include "common/random.h"
#include "ntga/triplegroup.h"

namespace rdfmr {
namespace {

StarPattern StarWithUnbound() {
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

TEST(AnnTgTest, AddPairDeduplicatesAndSorts) {
  AnnTg tg;
  tg.AddPair("xGO", "go9");
  tg.AddPair("xGO", "go1");
  tg.AddPair("xGO", "go9");
  ASSERT_EQ(tg.pairs.at("xGO"),
            (std::vector<std::string>{"go1", "go9"}));
  EXPECT_EQ(tg.PairCount(), 2u);
}

TEST(AnnTgTest, AllPairsFlattensInOrder) {
  AnnTg tg;
  tg.AddPair("b", "2");
  tg.AddPair("a", "1");
  std::vector<PropObj> pairs = tg.AllPairs();
  ASSERT_EQ(pairs.size(), 2u);
  EXPECT_EQ(pairs[0].property, "a");
  EXPECT_EQ(pairs[1].property, "b");
}

TEST(AnnTgTest, ToTriplesIncludesOverrides) {
  AnnTg tg;
  tg.subject = "gene9";
  tg.AddPair("label", "retinoid");
  tg.overrides[2] = {PropObj{"xRef", "ref1"}};
  std::vector<Triple> triples = tg.ToTriples();
  ASSERT_EQ(triples.size(), 2u);
  EXPECT_EQ(triples[0], Triple("gene9", "label", "retinoid"));
  EXPECT_EQ(triples[1], Triple("gene9", "xRef", "ref1"));
}

TEST(AnnTgTest, CompactKeepsBoundAndOpenUnboundCandidates) {
  StarPattern star = StarWithUnbound();
  AnnTg tg;
  tg.subject = "g";
  tg.AddPair("label", "l1");
  tg.AddPair("xGO", "go1");
  tg.AddPair("synonym", "s1");  // only an unbound candidate
  tg.Compact(star);
  // The unbound pattern is unrestricted and not overridden: all pairs stay.
  EXPECT_TRUE(tg.HasProperty("synonym"));
  EXPECT_TRUE(tg.HasProperty("label"));
}

TEST(AnnTgTest, CompactDropsCandidatesOncePinned) {
  StarPattern star = StarWithUnbound();
  AnnTg tg;
  tg.subject = "g";
  tg.AddPair("label", "l1");
  tg.AddPair("xGO", "go1");
  tg.AddPair("synonym", "s1");
  tg.overrides[2] = {PropObj{"synonym", "s1"}};  // pin the unbound pattern
  tg.Compact(star);
  EXPECT_FALSE(tg.HasProperty("synonym"))
      << "a pinned pattern's candidates must be shed";
  EXPECT_TRUE(tg.HasProperty("label"));
  EXPECT_TRUE(tg.HasProperty("xGO"));
}

TEST(AnnTgTest, CompactRespectsOpenPatternsObjectFilter) {
  // Star with TWO unbound patterns, the second filtered; pin the first.
  StarPattern star;
  star.subject_var = "g";
  star.patterns.push_back(TriplePattern::Bound(
      NodePattern::Var("g"), "subType", NodePattern::Var("st")));
  star.patterns.push_back(TriplePattern::Unbound(
      NodePattern::Var("g"), "up1", NodePattern::Var("a")));
  star.patterns.push_back(TriplePattern::Unbound(
      NodePattern::Var("g"), "up2", NodePattern::Var("o", "nur77")));
  AnnTg tg;
  tg.subject = "g";
  tg.AddPair("subType", "protein");
  tg.AddPair("interactsWith", "gene_nur77");
  tg.AddPair("xGO", "go1");
  tg.overrides[1] = {PropObj{"xGO", "go1"}};  // pin up1
  tg.Compact(star);
  EXPECT_TRUE(tg.HasProperty("subType")) << "bound pair stays";
  EXPECT_TRUE(tg.HasProperty("interactsWith"))
      << "still a candidate for the filtered open pattern";
  EXPECT_FALSE(tg.HasProperty("xGO"))
      << "cannot satisfy the open pattern's 'nur77' filter";
}

TEST(AnnTgTest, SerdeRoundtripBasic) {
  AnnTg tg;
  tg.subject = "gene9";
  tg.star_id = 3;
  tg.AddPair("label", "retinoid receptor");
  tg.AddPair("xGO", "go1");
  tg.AddPair("xGO", "go9");
  tg.overrides[2] = {PropObj{"xRef", "ref1"}, PropObj{"xRef", "ref2"}};
  auto back = AnnTg::Deserialize(tg.Serialize());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(*back, tg);
}

class AnnTgSerdeParamTest : public ::testing::TestWithParam<std::string> {};

TEST_P(AnnTgSerdeParamTest, RoundtripsWithAdversarialStrings) {
  const std::string& nasty = GetParam();
  AnnTg tg;
  tg.subject = nasty;
  tg.star_id = 7;
  tg.AddPair(nasty + "_p", nasty + "_o");
  tg.AddPair("normal", nasty);
  tg.overrides[0] = {PropObj{nasty, nasty}};
  auto back = AnnTg::Deserialize(tg.Serialize());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(*back, tg);
}

INSTANTIATE_TEST_SUITE_P(
    Nasty, AnnTgSerdeParamTest,
    ::testing::Values("plain", "with,comma", "with\ttab",
                      std::string("\x1F\x1D\x1E"), "back\\slash\\",
                      "new\nline", "=;|,", ""));

TEST(AnnTgTest, PeekStarIdMatchesFull) {
  AnnTg tg;
  tg.subject = "s";
  tg.star_id = 42;
  tg.AddPair("p", "o");
  auto peeked = AnnTg::PeekStarId(tg.Serialize());
  ASSERT_TRUE(peeked.ok());
  EXPECT_EQ(*peeked, 42u);
}

TEST(AnnTgTest, DeserializeRejectsGarbage) {
  EXPECT_FALSE(AnnTg::Deserialize("").ok());
  EXPECT_FALSE(AnnTg::Deserialize("no separators at all").ok());
  EXPECT_FALSE(AnnTg::PeekStarId("nope").ok());
}

TEST(AnnTgTest, EmptyGroupSerde) {
  AnnTg tg;
  tg.subject = "lonely";
  tg.star_id = 0;
  auto back = AnnTg::Deserialize(tg.Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, tg);
}

// ---- Records ----------------------------------------------------------------

TEST(TgRecordTest, ComponentsSideBySideReadBack) {
  AnnTg a;
  a.subject = "gene9";
  a.star_id = 0;
  a.AddPair("label", "retinoid");
  AnnTg b;
  b.subject = "go1";
  b.star_id = 1;
  b.AddPair("goLabel", "molecular function");
  b.overrides[1] = {PropObj{"goSyn", "mf"}};
  const std::string line = JoinRecords(a.Serialize(), b.Serialize());
  EXPECT_EQ(line, a.Serialize() + "\x1E" + b.Serialize());
  TgRecordReader record;
  ASSERT_TRUE(record.Read(line).ok());
  ASSERT_EQ(record.components().size(), 2u);
  EXPECT_EQ(record.ToAnnTg(record.components()[0]), a);
  EXPECT_EQ(record.ToAnnTg(record.components()[1]), b);
  EXPECT_FALSE(AnnTg::Deserialize(line).ok()) << "two components";
}

TEST(TgRecordTest, OneComponentRecordIsTheSerializedGroup) {
  AnnTg a;
  a.subject = "s";
  a.star_id = 5;
  a.AddPair("p", "o");
  const std::string line = a.Serialize();
  TgRecordReader record;
  ASSERT_TRUE(record.Read(line).ok());
  ASSERT_EQ(record.components().size(), 1u);
  EXPECT_EQ(record.ToAnnTg(record.components()[0]), a);
  EXPECT_EQ(record.components()[0].raw, line);
}

// Leaves drawn from every byte the grammar escapes or splits on.
std::string RandomLeaf(Rng* rng) {
  static const std::string kAlphabet =
      std::string("ab\\sn,\x1D\x1E\x1F\n\t=;|") + '\0';
  std::string out;
  const size_t size = rng->Uniform(6);
  for (size_t i = 0; i < size; ++i) {
    out.push_back(kAlphabet[rng->Uniform(kAlphabet.size())]);
  }
  return out;
}

AnnTg RandomTg(Rng* rng) {
  AnnTg tg;
  tg.subject = RandomLeaf(rng);
  tg.star_id = static_cast<uint32_t>(rng->Uniform(1000));
  const size_t num_pairs = rng->Uniform(4);  // 0: an empty group
  for (size_t i = 0; i < num_pairs; ++i) {
    tg.AddPair(RandomLeaf(rng), RandomLeaf(rng));
  }
  const size_t num_overrides = rng->Uniform(3);
  for (size_t i = 0; i < num_overrides; ++i) {
    // 0, 1 or many pinned pairs.
    std::vector<PropObj>& pinned =
        tg.overrides[static_cast<uint32_t>(rng->Uniform(5))];
    pinned.clear();
    const size_t num_pinned = std::vector<size_t>{0, 1, 4}[rng->Uniform(3)];
    for (size_t j = 0; j < num_pinned; ++j) {
      pinned.push_back(PropObj{RandomLeaf(rng), RandomLeaf(rng)});
    }
  }
  return tg;
}

// The record of joining `tgs` left to right.
std::string JoinComponents(const std::vector<AnnTg>& tgs) {
  std::string out = tgs.front().Serialize();
  for (size_t k = 1; k < tgs.size(); ++k) {
    out = JoinRecords(out, tgs[k].Serialize());
  }
  return out;
}

// Records are canonical: reading a record's components and serializing
// them again gives its bytes back, so a join may pass components through
// as bytes and splice a rebuilt one in place of its raw span.
TEST(TgRecordTest, SplicingEqualsReserializing) {
  Rng rng(20261017);
  TgRecordReader record;
  for (int round = 0; round < 500; ++round) {
    std::vector<AnnTg> tgs(1 + rng.Uniform(4));
    for (AnnTg& tg : tgs) tg = RandomTg(&rng);
    const std::string line = JoinComponents(tgs);
    ASSERT_TRUE(record.Read(line).ok()) << "round " << round;
    ASSERT_EQ(record.components().size(), tgs.size()) << "round " << round;
    for (size_t k = 0; k < tgs.size(); ++k) {
      const TgRecordReader::Component& c = record.components()[k];
      EXPECT_EQ(record.ToAnnTg(c), tgs[k]) << "round " << round;
      EXPECT_EQ(c.raw, tgs[k].Serialize()) << "round " << round;
    }
    const size_t k = rng.Uniform(tgs.size());
    const AnnTg replacement = RandomTg(&rng);
    std::string spliced;
    AppendSpliced(&spliced, line, record.components()[k].raw, replacement);
    tgs[k] = replacement;
    EXPECT_EQ(spliced, JoinComponents(tgs)) << "round " << round;
  }
}

}  // namespace
}  // namespace rdfmr

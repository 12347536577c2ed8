// Unit tests for the TripleGroup record grammar: the one writer
// (TgWriter), the one reader (TgRecordReader), adversarial leaves, and
// records as components side by side.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <utility>

#include "common/random.h"
#include "ntga/triplegroup.h"
#include "tests/test_util.h"

namespace rdfmr {
namespace {

using testing_util::RewriteComponent;

// The leaves of one read component, as plain strings.
struct ReadBack {
  std::string subject;
  uint32_t star_id = 0;
  std::vector<std::vector<std::string>> pairs;
  std::vector<std::pair<uint32_t, std::vector<std::string>>> overrides;

  bool operator==(const ReadBack& o) const {
    return subject == o.subject && star_id == o.star_id &&
           pairs == o.pairs && overrides == o.overrides;
  }
};

ReadBack Leaves(const TgRecordReader& reader,
                const TgRecordReader::Component& c) {
  const std::vector<std::string_view>& leaves = reader.leaves();
  ReadBack out;
  out.subject = std::string(leaves[c.subject]);
  out.star_id = c.star_id;
  for (uint32_t p = c.pairs_begin; p < c.pairs_end; ++p) {
    const TgRecordReader::Entry& e = reader.pairs()[p];
    out.pairs.emplace_back(leaves.begin() + e.begin, leaves.begin() + e.end);
  }
  for (uint32_t o = c.overrides_begin; o < c.overrides_end; ++o) {
    const TgRecordReader::Entry& e = reader.overrides()[o];
    out.overrides.emplace_back(
        e.tp_index, std::vector<std::string>(leaves.begin() + e.begin,
                                             leaves.begin() + e.end));
  }
  return out;
}

// Writes `tg` through the one writer.
std::string Write(const ReadBack& tg) {
  std::string out;
  TgWriter writer(&out, tg.subject, tg.star_id);
  for (const std::vector<std::string>& entry : tg.pairs) {
    writer.Property(entry[0]);
    for (size_t j = 1; j < entry.size(); ++j) writer.Object(entry[j]);
  }
  writer.EndPairs();
  for (const auto& [tp_index, pinned] : tg.overrides) {
    writer.Override(tp_index);
    for (size_t j = 0; j < pinned.size(); j += 2) {
      writer.Pinned(pinned[j], pinned[j + 1]);
    }
  }
  return out;
}

TEST(TgWriterTest, WritesTheGrammar) {
  ReadBack tg;
  tg.subject = "gene9";
  tg.star_id = 3;
  tg.pairs = {{"label", "retinoid receptor"}, {"xGO", "go1", "go9"}};
  tg.overrides = {{2, {"xRef", "ref1", "xRef", "ref2"}}};
  const std::string line = Write(tg);
  EXPECT_EQ(line,
            "gene9\x1F"
            "3\x1Flabel,retinoid receptor\x1DxGO,go1,go9\x1F"
            "2,xRef,ref1,xRef,ref2");
  TgRecordReader record;
  ASSERT_TRUE(record.Read(line).ok());
  ASSERT_EQ(record.components().size(), 1u);
  EXPECT_EQ(Leaves(record, record.components()[0]), tg);
}

class TgWriterParamTest : public ::testing::TestWithParam<std::string> {};

TEST_P(TgWriterParamTest, RoundtripsWithAdversarialStrings) {
  const std::string& nasty = GetParam();
  ReadBack tg;
  tg.subject = nasty;
  tg.star_id = 7;
  tg.pairs = {{nasty + "_p", nasty + "_o"}, {"normal", nasty}};
  tg.overrides = {{0, {nasty, nasty}}};
  const std::string line = Write(tg);
  TgRecordReader record;
  ASSERT_TRUE(record.Read(line).ok());
  ASSERT_EQ(record.components().size(), 1u);
  EXPECT_EQ(Leaves(record, record.components()[0]), tg);
  EXPECT_EQ(RewriteComponent(record, record.components()[0]), line);
}

INSTANTIATE_TEST_SUITE_P(
    Nasty, TgWriterParamTest,
    ::testing::Values("plain", "with,comma", "with\ttab",
                      std::string("\x1F\x1D\x1E"), "back\\slash\\",
                      "new\nline", "=;|,", ""));

TEST(TgWriterTest, PeekStarIdMatchesReader) {
  ReadBack tg;
  tg.subject = "s";
  tg.star_id = 42;
  tg.pairs = {{"p", "o"}};
  auto peeked = PeekStarId(Write(tg));
  ASSERT_TRUE(peeked.ok());
  EXPECT_EQ(*peeked, 42u);
}

TEST(TgWriterTest, ReaderRejectsGarbage) {
  TgRecordReader record;
  EXPECT_FALSE(record.Read("").ok());
  EXPECT_FALSE(record.Read("no separators at all").ok());
  EXPECT_FALSE(PeekStarId("nope").ok());
}

TEST(TgWriterTest, EmptyGroupRoundtrips) {
  ReadBack tg;
  tg.subject = "lonely";
  const std::string line = Write(tg);
  EXPECT_EQ(line, "lonely\x1F"
                  "0\x1F\x1F");
  TgRecordReader record;
  ASSERT_TRUE(record.Read(line).ok());
  EXPECT_EQ(Leaves(record, record.components()[0]), tg);
}

// ---- Records ----------------------------------------------------------------

TEST(TgRecordTest, ComponentsSideBySideReadBack) {
  ReadBack a;
  a.subject = "gene9";
  a.pairs = {{"label", "retinoid"}};
  ReadBack b;
  b.subject = "go1";
  b.star_id = 1;
  b.pairs = {{"goLabel", "molecular function"}};
  b.overrides = {{1, {"goSyn", "mf"}}};
  const std::string line = JoinRecords(Write(a), Write(b));
  EXPECT_EQ(line, Write(a) + "\x1E" + Write(b));
  TgRecordReader record;
  ASSERT_TRUE(record.Read(line).ok());
  ASSERT_EQ(record.components().size(), 2u);
  EXPECT_EQ(Leaves(record, record.components()[0]), a);
  EXPECT_EQ(Leaves(record, record.components()[1]), b);
  EXPECT_EQ(record.line(), line);
}

TEST(TgRecordTest, OneComponentRecordIsTheWrittenGroup) {
  ReadBack a;
  a.subject = "s";
  a.star_id = 5;
  a.pairs = {{"p", "o"}};
  const std::string line = Write(a);
  TgRecordReader record;
  ASSERT_TRUE(record.Read(line).ok());
  ASSERT_EQ(record.components().size(), 1u);
  EXPECT_EQ(Leaves(record, record.components()[0]), a);
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

// A canonical group: properties in byte order, each with its sorted
// distinct objects; overrides in index order with 0, 1 or many pairs.
ReadBack RandomTg(Rng* rng) {
  ReadBack tg;
  tg.subject = RandomLeaf(rng);
  tg.star_id = static_cast<uint32_t>(rng->Uniform(1000));
  std::map<std::string, std::set<std::string>> pairs;
  const size_t num_pairs = rng->Uniform(4);  // 0: an empty group
  for (size_t i = 0; i < num_pairs; ++i) {
    pairs[RandomLeaf(rng)].insert(RandomLeaf(rng));
  }
  for (const auto& [property, objects] : pairs) {
    tg.pairs.emplace_back(1, property);
    tg.pairs.back().insert(tg.pairs.back().end(), objects.begin(),
                           objects.end());
  }
  std::map<uint32_t, std::vector<std::string>> overrides;
  const size_t num_overrides = rng->Uniform(3);
  for (size_t i = 0; i < num_overrides; ++i) {
    std::vector<std::string>& pinned =
        overrides[static_cast<uint32_t>(rng->Uniform(5))];
    pinned.clear();
    const size_t num_pinned = std::vector<size_t>{0, 1, 4}[rng->Uniform(3)];
    for (size_t j = 0; j < 2 * num_pinned; ++j) {
      pinned.push_back(RandomLeaf(rng));
    }
  }
  tg.overrides.assign(overrides.begin(), overrides.end());
  return tg;
}

// The record of joining `tgs` left to right.
std::string JoinComponents(const std::vector<ReadBack>& tgs) {
  std::string out = Write(tgs.front());
  for (size_t k = 1; k < tgs.size(); ++k) {
    out = JoinRecords(out, Write(tgs[k]));
  }
  return out;
}

// Records are canonical: reading a record's components and writing them
// again gives its bytes back, and each component's raw span is exactly
// its written bytes, so a join may pass components through as bytes and
// write a rewritten one in place of its raw span.
TEST(TgRecordTest, ReadingAndWritingAgainGivesTheBytes) {
  Rng rng(20261017);
  TgRecordReader record;
  for (int round = 0; round < 500; ++round) {
    std::vector<ReadBack> tgs(1 + rng.Uniform(4));
    for (ReadBack& tg : tgs) tg = RandomTg(&rng);
    const std::string line = JoinComponents(tgs);
    ASSERT_TRUE(record.Read(line).ok()) << "round " << round;
    ASSERT_EQ(record.components().size(), tgs.size()) << "round " << round;
    for (size_t k = 0; k < tgs.size(); ++k) {
      const TgRecordReader::Component& c = record.components()[k];
      EXPECT_EQ(Leaves(record, c), tgs[k]) << "round " << round;
      EXPECT_EQ(c.raw, Write(tgs[k])) << "round " << round;
      EXPECT_EQ(RewriteComponent(record, c), c.raw) << "round " << round;
    }
    const size_t k = rng.Uniform(tgs.size());
    const std::string_view raw = record.components()[k].raw;
    tgs[k] = RandomTg(&rng);
    const size_t begin = static_cast<size_t>(raw.data() - line.data());
    const std::string spliced = line.substr(0, begin) + Write(tgs[k]) +
                                line.substr(begin + raw.size());
    EXPECT_EQ(spliced, JoinComponents(tgs)) << "round " << round;
  }
}

}  // namespace
}  // namespace rdfmr

// Unit tests for the common layer: Status/Result, string helpers (with
// escaping roundtrip properties), deterministic RNG, and stable hashing.

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/json.h"
#include "common/thread_pool.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
#include "common/strings.h"
#include "ntga/operators.h"
#include "ntga/triplegroup.h"
#include "query/solution.h"
#include "relational/rel_tuple.h"
#include "tests/test_util.h"

namespace rdfmr {
namespace {

// ---- Status / Result --------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.message(), "");
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::OutOfSpace("disk full");
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsOutOfSpace());
  EXPECT_EQ(st.message(), "disk full");
  EXPECT_EQ(st.ToString(), "OutOfSpace: disk full");
}

TEST(StatusTest, AllConstructorsSetMatchingCode) {
  EXPECT_EQ(Status::InvalidArgument("x").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::IoError("x").code(), StatusCode::kIoError);
  EXPECT_EQ(Status::ExecutionError("x").code(),
            StatusCode::kExecutionError);
  EXPECT_EQ(Status::NotImplemented("x").code(),
            StatusCode::kNotImplemented);
  EXPECT_EQ(Status::Unknown("x").code(), StatusCode::kUnknown);
}

TEST(StatusTest, WithContextPrepends) {
  Status st = Status::NotFound("file f").WithContext("loading base");
  EXPECT_EQ(st.message(), "loading base: file f");
  EXPECT_TRUE(st.IsNotFound());
  EXPECT_TRUE(Status::OK().WithContext("anything").ok());
}

TEST(StatusTest, CopySharesState) {
  Status a = Status::IoError("oops");
  Status b = a;
  EXPECT_EQ(b.ToString(), a.ToString());
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("gone");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
}

TEST(ResultTest, MoveValueUnsafe) {
  Result<std::string> r = std::string("payload");
  std::string v = r.MoveValueUnsafe();
  EXPECT_EQ(v, "payload");
}

Result<int> HalveEven(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> QuarterEven(int x) {
  RDFMR_ASSIGN_OR_RETURN(int half, HalveEven(x));
  return HalveEven(half);
}

TEST(ResultTest, AssignOrReturnMacroPropagates) {
  Result<int> ok = QuarterEven(8);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 2);
  Result<int> bad = QuarterEven(6);  // 6/2 = 3, odd at the second step
  EXPECT_FALSE(bad.ok());
  EXPECT_TRUE(bad.status().IsInvalidArgument());
}

// ---- Strings ---------------------------------------------------------------

TEST(StringsTest, SplitBasics) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(Split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(StringsTest, SplitNLimitsFields) {
  EXPECT_EQ(SplitN("a|b|c", '|', 2),
            (std::vector<std::string>{"a", "b|c"}));
  EXPECT_EQ(SplitN("a|b|c", '|', 5),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(SplitN("abc", '|', 2), (std::vector<std::string>{"abc"}));
}

TEST(StringsTest, JoinInvertsSplit) {
  std::vector<std::string> parts = {"x", "", "yz"};
  EXPECT_EQ(Split(Join(parts, ';'), ';'), parts);
}

TEST(StringsTest, Trim) {
  EXPECT_EQ(Trim("  a b \t\n"), "a b");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim(" \t "), "");
  EXPECT_EQ(Trim("x"), "x");
}

TEST(StringsTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("hello", "he"));
  EXPECT_FALSE(StartsWith("he", "hello"));
  EXPECT_TRUE(EndsWith("hello", "llo"));
  EXPECT_FALSE(EndsWith("llo", "hello"));
  EXPECT_TRUE(StartsWith("x", ""));
  EXPECT_TRUE(EndsWith("x", ""));
}

class EscapeRoundtripTest
    : public ::testing::TestWithParam<std::string> {};

TEST_P(EscapeRoundtripTest, FieldRoundtrips) {
  const std::string& input = GetParam();
  for (char sep : {'\t', ',', ';', '\x1F', '\x1D'}) {
    std::string escaped = EscapeField(input, sep);
    EXPECT_EQ(escaped.find(sep), std::string::npos)
        << "escaped field may not contain the separator";
    EXPECT_EQ(UnescapeField(escaped, sep), input);
  }
}

TEST_P(EscapeRoundtripTest, JoinSplitRoundtrips) {
  const std::string& input = GetParam();
  std::vector<std::string> fields = {input, "plain", input + input, ""};
  for (char sep : {'\t', ',', '\x1F'}) {
    EXPECT_EQ(SplitEscaped(JoinEscaped(fields, sep), sep), fields);
  }
}

INSTANTIATE_TEST_SUITE_P(
    NastyStrings, EscapeRoundtripTest,
    ::testing::Values("", "simple", "with\ttab", "with,comma",
                      "back\\slash", "\\", "\\\\", "trailing\\",
                      "new\nline", "\x1F\x1D\x1E", "a\tb\\c,d;e",
                      "unicode \xE2\x8B\x88 join"));

// ---- Serde reference -------------------------------------------------------
//
// The byte-at-a-time escape helpers as they were before the single-pass
// rewrite, kept verbatim as the reference the production helpers must
// match byte for byte.
namespace reference {

std::string EscapeField(std::string_view field, char sep) {
  std::string out;
  out.reserve(field.size());
  for (char c : field) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == sep) {
      out.push_back('\\');
      out.push_back('s');
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

std::string UnescapeField(std::string_view field, char sep) {
  std::string out;
  out.reserve(field.size());
  for (size_t i = 0; i < field.size(); ++i) {
    if (field[i] == '\\' && i + 1 < field.size()) {
      char n = field[++i];
      if (n == '\\') {
        out.push_back('\\');
      } else if (n == 's') {
        out.push_back(sep);
      } else if (n == 'n') {
        out.push_back('\n');
      } else {
        out.push_back(n);
      }
    } else {
      out.push_back(field[i]);
    }
  }
  return out;
}

std::vector<std::string> SplitEscaped(std::string_view input, char sep) {
  std::vector<std::string> out;
  std::string cur;
  for (size_t i = 0; i < input.size(); ++i) {
    char c = input[i];
    if (c == '\\' && i + 1 < input.size()) {
      cur.push_back(c);
      cur.push_back(input[++i]);
    } else if (c == sep) {
      out.push_back(UnescapeField(cur, sep));
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  out.push_back(UnescapeField(cur, sep));
  return out;
}

std::string JoinEscaped(const std::vector<std::string>& fields, char sep) {
  std::string out;
  for (size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out.push_back(sep);
    out += EscapeField(fields[i], sep);
  }
  return out;
}

}  // namespace reference

// Every separator of the record formats, the escape byte and the letters
// it pairs with, so random strings are dense in escapes, lone trailing
// backslashes and empty fields.
constexpr char kSerdeAlphabet[] = {'\\', '\\', '\t', '\n', ',', '=', ';',
                                   '\x1D', '\x1E', '\x1F', 's', 'n', 'a'};
constexpr char kSerdeSeps[] = {'\t', ',', '=', ';', '\x1D', '\x1E', '\x1F'};

std::string RandomSerdeString(Rng* rng) {
  std::string out(rng->Uniform(9), ' ');
  for (char& c : out) c = kSerdeAlphabet[rng->Uniform(sizeof(kSerdeAlphabet))];
  return out;
}

TEST(SerdeReferenceTest, SinglePassHelpersMatchReference) {
  Rng rng(20261016);
  for (int round = 0; round < 20000; ++round) {
    const std::string input = RandomSerdeString(&rng);
    const char sep = kSerdeSeps[rng.Uniform(sizeof(kSerdeSeps))];
    SCOPED_TRACE(::testing::PrintToString(input) + " sep " +
                 std::to_string(static_cast<int>(sep)));
    ASSERT_EQ(EscapeField(input, sep), reference::EscapeField(input, sep));
    ASSERT_EQ(UnescapeField(input, sep),
              reference::UnescapeField(input, sep));
    ASSERT_EQ(SplitEscaped(input, sep), reference::SplitEscaped(input, sep));

    std::string scratch;
    ASSERT_EQ(std::string(UnescapedView(input, sep, &scratch)),
              reference::UnescapeField(input, sep));
    std::vector<std::string> from_views;
    EscapedFieldReader reader(input, sep);
    for (std::string_view raw; reader.Next(&raw);) {
      from_views.push_back(UnescapeField(raw, sep));
    }
    ASSERT_EQ(from_views, reference::SplitEscaped(input, sep));

    std::vector<std::string> fields(rng.Uniform(4));
    for (std::string& field : fields) field = RandomSerdeString(&rng);
    ASSERT_EQ(JoinEscaped(fields, sep), reference::JoinEscaped(fields, sep));

    // Nested escaping equals escaping once per level, innermost first.
    std::string seps;
    for (size_t level = rng.Uniform(4) + 1; level > 0; --level) {
      seps.push_back(kSerdeSeps[rng.Uniform(sizeof(kSerdeSeps))]);
    }
    std::string nested = "prefix";
    AppendEscapedNested(&nested, input, seps);
    std::string expected = input;
    for (char level_sep : seps) {
      expected = reference::EscapeField(expected, level_sep);
    }
    ASSERT_EQ(nested, "prefix" + expected);
  }
}

TEST(SerdeReferenceTest, EdgeCasesMatchReference) {
  for (const std::string& input : std::vector<std::string>{
           "", "\\", "a\\", "\\\\", ",", ",,", "\\,", "a,\\", "\\s",
           "\\n", "\\x", std::string(1, '\0')}) {
    for (char sep : kSerdeSeps) {
      EXPECT_EQ(SplitEscaped(input, sep), reference::SplitEscaped(input, sep))
          << ::testing::PrintToString(input);
      EXPECT_EQ(UnescapeField(input, sep),
                reference::UnescapeField(input, sep))
          << ::testing::PrintToString(input);
    }
  }
}

// Serializations recorded before the single-pass rewrite: the on-wire
// record bytes are the paper's metric and must not move.
constexpr char kGoldenAnnTgPlain[] =
    "product7\x1F""1\x1F""label,product 7 gold edition\x1D""prodFeature"
    ",feature11,feature3\x1F""2,producer,producer4";
constexpr char kGoldenJoined[] =
    "s\\\\\\\\1,\\\\s;\\\\n\x1F""12\x1F""\\\\\\\\\\\\\\\\\\\\\\\\\\\\\\"
    "\\,\\\\\\\\\\\\\\\\\\\\\\\\\\\\\\\\s\\\\\\\\\\\\\\\\\\\\\\\\\\\\\\"
    "\\n\x1D""p\\\\\\\\\\\\\\\\s1,o\x09""=,o\\\\\\\\s\\s\\\\\\\\\\\\\\"
    "\\\\\\\\\\\\\\\\\\\x1D""q\\\\s,\x1F""0,p\\s,o\\\\\\\\\\\\\\\\\\\\"
    "\\\\\\\\\\\\,\\\\\\\\\\\\\\\\s,\\\\\\\\s\x1D""3\x1E""product7\x1F"""
    "1\x1F""label,product 7 gold edition\x1D""prodFeature,feature11,fea"
    "ture3\x1F""2,producer,producer4";
constexpr char kGoldenTuple[] =
    "s\\s1\x09""p\\\\\x09""o\\n\x1F"",\x09""\x09""\x09""\x09""a\x09""b"
    "\x09""c";
constexpr char kGoldenSolution[] =
    "a\\\\sb=\\\\\\\\;n\\\\n=t\x09""\x1E"";x=v\\\\s1\\s2;z=";

// Outputs of μ^β and μ^β_φm recorded before the operators ran on record
// views: pattern 1 of KernelGoldenStar pinned at a LazyFull join site (the
// first candidate), and its φ_2 partition 1, each spliced into the record
// KernelGoldenRecord.
constexpr char kGoldenBetaUnnest[] =
"product7\x1F""1\x1Flabel,product 7 gold edition\x1F\x1Es\\\\\\\\1,"
    "\\\\s;\\\\n\x1F""0\x1F\\\\\\\\\\\\\\\\\\\\\\\\\\\\\\\\,\\\\\\\\\\"
    "\\\\\\\\\\\\\\\\\\\\\\s\\\\\\\\\\\\\\\\n\x1Dp\\\\\\\\\\\\\\\\s1,o"
    "\x09=,o\\\\\\\\s\\s\\\\\\\\\\\\\\\\\\\\\\\\\\\\\\\\\x1F""1,\\\\\\"
    "\\\\\\\\\\\\\\\\\\\\\\\\\\,\\\\\\\\\\\\\\\\\\\\\\\\\\\\\\\\s\\\\\\"
    "\\\\\\\\\\n\x1D""2,p\\s,o\\\\\\\\\\\\\\\\\\\\\\\\\\\\\\\\,\\\\\\\\"
    "\\\\\\\\s,\\\\\\\\s";
constexpr char kGoldenPartialBetaUnnest[] =
    "product7\x1F""1\x1Flabel,product 7 gold edition\x1F\x1Es\\\\\\\\1,"
    "\\\\s;\\\\n\x1F""0\x1F\\\\\\\\\\\\\\\\\\\\\\\\\\\\\\\\,\\\\\\\\\\"
    "\\\\\\\\\\\\\\\\\\\\\\s\\\\\\\\\\\\\\\\n\x1Dp\\\\\\\\\\\\\\\\s1,o"
    "\x09=,o\\\\\\\\s\\s\\\\\\\\\\\\\\\\\\\\\\\\\\\\\\\\\x1F""1,p\\\\\\"
    "\\\\\\\\\\s1,o\\\\\\\\s\\s\\\\\\\\\\\\\\\\\\\\\\\\\\\\\\\\,q\\\\s,"
    "\x1D""2,p\\s,o\\\\\\\\\\\\\\\\\\\\\\\\\\\\\\\\,\\\\\\\\\\\\\\\\s,"
    "\\\\\\\\s";

std::string GoldenPlainTg() {
  std::string out;
  TgWriter writer(&out, "product7", 1);
  writer.Property("label");
  writer.Object("product 7 gold edition");
  writer.Property("prodFeature");
  writer.Object("feature11");
  writer.Object("feature3");
  writer.EndPairs();
  writer.Override(2);
  writer.Pinned("producer", "producer4");
  return out;
}

std::string GoldenNastyTg() {
  std::string out;
  TgWriter writer(&out, "s\\1,\x1F;\n", 12);
  writer.Property("\\");
  writer.Object("\\s\\n");
  writer.Property("p,1");
  writer.Object("o\t=");
  writer.Object("o\x1D\x1E\\");
  writer.Property("q\x1F");
  writer.Object("");
  writer.EndPairs();
  writer.Override(0);
  writer.Pinned("p\x1E", "o\\");
  writer.Pinned(",", "\x1D");
  writer.Override(3);
  return out;
}

TEST(SerdeGoldenTest, TriplegroupRecordBytesArePinned) {
  const std::string plain = GoldenPlainTg();
  const std::string nasty = GoldenNastyTg();
  EXPECT_EQ(plain, kGoldenAnnTgPlain);
  // A record is its components side by side.
  EXPECT_EQ(JoinRecords(nasty, plain), kGoldenJoined);

  // Read through the one reader and written again through the one writer.
  TgRecordReader record;
  ASSERT_TRUE(record.Read(kGoldenAnnTgPlain).ok());
  ASSERT_EQ(record.components().size(), 1u);
  EXPECT_EQ(testing_util::RewriteComponent(record, record.components()[0]),
            kGoldenAnnTgPlain);
  ASSERT_TRUE(record.Read(kGoldenJoined).ok());
  ASSERT_EQ(record.components().size(), 2u);
  EXPECT_EQ(testing_util::RewriteComponent(record, record.components()[0]),
            nasty);
  EXPECT_EQ(testing_util::RewriteComponent(record, record.components()[1]),
            plain);
  EXPECT_EQ(*PeekStarId(kGoldenJoined), 12u);
}

// A bound pattern, the unbound pattern a join pins, one already carrying a
// two-pair override and one whose filter keeps a pair open.
StarPattern KernelGoldenStar() {
  StarPattern star;
  star.subject_var = "s";
  star.patterns.push_back(TriplePattern::Bound(
      NodePattern::Var("s"), "p,1", NodePattern::Var("o")));
  star.patterns.push_back(TriplePattern::Unbound(
      NodePattern::Var("s"), "up", NodePattern::Var("x")));
  star.patterns.push_back(TriplePattern::Unbound(
      NodePattern::Var("s"), "up2", NodePattern::Var("y", "\\")));
  star.patterns.push_back(TriplePattern::Unbound(
      NodePattern::Var("s"), "up3", NodePattern::Var("z", "\n")));
  return star;
}

// A plain group, then an escape-heavy group of KernelGoldenStar.
std::string KernelGoldenRecord() {
  std::string plain;
  TgWriter plain_writer(&plain, "product7", 1);
  plain_writer.Property("label");
  plain_writer.Object("product 7 gold edition");
  plain_writer.EndPairs();
  std::string nasty;
  TgWriter writer(&nasty, "s\\1,\x1F;\n", 0);
  writer.Property("\\");
  writer.Object("\\s\n");
  writer.Property("p,1");
  writer.Object("o\t=");
  writer.Object("o\x1D\x1E\\");
  writer.Property("q\x1F");
  writer.Object("");
  writer.EndPairs();
  writer.Override(2);
  writer.Pinned("p\x1E", "o\\");
  writer.Pinned(",", "\x1D");
  return JoinRecords(plain, nasty);
}

TEST(SerdeGoldenTest, UnnestedTriplegroupBytesArePinned) {
  const std::string line = KernelGoldenRecord();
  TgRecordReader record;
  ASSERT_TRUE(record.Read(line).ok());
  ASSERT_EQ(record.components().size(), 2u);
  const BetaUnnester unnester(KernelGoldenStar());
  std::vector<std::string> pinned;
  unnester.BetaUnnest(record, record.components()[1], {1},
                      [&pinned](std::string_view, std::string_view out) {
                        pinned.emplace_back(out);
                      });
  ASSERT_EQ(pinned.size(), 4u);
  EXPECT_EQ(pinned[0], kGoldenBetaUnnest);
  std::vector<std::string> partitions;
  unnester.PartialBetaUnnest(
      record, record.components()[1], 1, 2,
      [&partitions](uint32_t, std::string_view out) {
        partitions.emplace_back(out);
      });
  ASSERT_EQ(partitions.size(), 2u);
  EXPECT_EQ(partitions[1], kGoldenPartialBetaUnnest);
}

TEST(SerdeGoldenTest, TupleAndSolutionBytesArePinned) {
  EXPECT_EQ(testing_util::TupleLine({Triple("s\t1", "p\\", "o\n\x1F,"),
                                     Triple(), Triple("a", "b", "c")}),
            kGoldenTuple);
  TriplePattern optional = TriplePattern::Bound(NodePattern::Var("s2"), "q",
                                                NodePattern::Var("o2"));
  optional.optional = true;
  RelRecordReader reader(
      {TriplePattern::Unbound(NodePattern::Var("s"), "p",
                              NodePattern::Var("o")),
       optional,
       TriplePattern::Bound(NodePattern::Var("a"), "b",
                            NodePattern::Const("c"))});
  const Status read = reader.Read(kGoldenTuple);
  ASSERT_TRUE(read.ok()) << read.ToString();
  const std::vector<std::string> vars = {"a", "o", "o2", "p", "s", "s2"};
  ASSERT_EQ(reader.variables(), vars);
  const std::vector<std::string> values = {"a", "o\n\x1F,", "", "p\\",
                                           "s\t1", ""};
  for (size_t k = 0; k < vars.size(); ++k) {
    const bool in_optional = vars[k] == "o2" || vars[k] == "s2";
    EXPECT_EQ(reader.bound(k), !in_optional) << vars[k];
    if (!in_optional) {
      EXPECT_EQ(reader.value(k), values[k]) << vars[k];
    }
  }

  Solution solution;
  solution.Bind("x", "v=1;2");
  solution.Bind("a=b", "\\");
  solution.Bind("z", "");
  solution.Bind("n\n", "t\t\x1E");
  EXPECT_EQ(solution.Serialize(), kGoldenSolution);
  SolutionLineReader line_reader;
  const Status line_read = line_reader.Read(kGoldenSolution);
  ASSERT_TRUE(line_read.ok()) << line_read.ToString();
  std::vector<Solution::Binding> bindings;
  std::string rewritten;
  for (const auto& [var, value] : line_reader.bindings()) {
    bindings.emplace_back(var, value);
    AppendBinding(&rewritten, rewritten.empty(), var, value);
  }
  EXPECT_EQ(bindings, solution.bindings());
  EXPECT_EQ(rewritten, kGoldenSolution);
}

// AsUint falls back outside [0, 2^64), where the cast would be undefined.
TEST(JsonValueTest, AsUintFallsBackOutOfRange) {
  EXPECT_EQ(JsonValue(42.9).AsUint(7), 42u);
  EXPECT_EQ(JsonValue(18446744073709549568.0).AsUint(7),
            18446744073709549568ULL);
  EXPECT_EQ(JsonValue(1e30).AsUint(7), 7u);
  EXPECT_EQ(JsonValue(18446744073709551616.0).AsUint(7), 7u);
  EXPECT_EQ(JsonValue(-1.0).AsUint(7), 7u);
  auto parsed = ParseJson(R"({"big":1e30,"edge":18446744073709551616})");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->GetUint("big", 7), 7u);
  EXPECT_EQ(parsed->GetUint("edge", 7), 7u);
}

TEST(StringsTest, HumanBytes) {
  EXPECT_EQ(HumanBytes(0), "0 B");
  EXPECT_EQ(HumanBytes(512), "512 B");
  EXPECT_EQ(HumanBytes(2048), "2.00 KB");
  EXPECT_EQ(HumanBytes(3ULL << 20), "3.00 MB");
  EXPECT_EQ(HumanBytes(5ULL << 30), "5.00 GB");
}

TEST(StringsTest, StringFormat) {
  EXPECT_EQ(StringFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StringFormat("%.2f", 1.005), "1.00");
  EXPECT_EQ(StringFormat("empty"), "empty");
}

// ---- Random ----------------------------------------------------------------

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  bool differs = false;
  for (int i = 0; i < 10; ++i) {
    if (a.Next() != b.Next()) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(RngTest, UniformInBounds) {
  Rng rng(99);
  for (uint64_t bound : {1ULL, 2ULL, 7ULL, 1000ULL}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.Uniform(bound), bound);
    }
  }
}

TEST(RngTest, UniformRangeInclusive) {
  Rng rng(5);
  std::set<int64_t> seen;
  for (int i = 0; i < 300; ++i) {
    int64_t v = rng.UniformRange(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u) << "all 5 values should appear in 300 draws";
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(77);
  for (int i = 0; i < 500; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ChanceExtremes) {
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.Chance(0.0));
    EXPECT_TRUE(rng.Chance(1.0));
  }
}

TEST(ZipfTest, SamplesInRange) {
  ZipfSampler zipf(50, 1.1);
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(zipf.Sample(&rng), 50u);
  }
}

TEST(ZipfTest, HeadIsHot) {
  ZipfSampler zipf(100, 1.2);
  Rng rng(13);
  int head = 0, tail = 0;
  for (int i = 0; i < 5000; ++i) {
    uint64_t v = zipf.Sample(&rng);
    if (v < 10) ++head;
    if (v >= 90) ++tail;
  }
  EXPECT_GT(head, 4 * tail)
      << "the first decile must be far more probable than the last";
}

TEST(ZipfTest, SingleElement) {
  ZipfSampler zipf(1, 1.0);
  Rng rng(17);
  EXPECT_EQ(zipf.Sample(&rng), 0u);
}

// ---- Hash ------------------------------------------------------------------

TEST(HashTest, Fnv1aGoldenValues) {
  // Stable across platforms and runs — the MR partitioner depends on it.
  EXPECT_EQ(Fnv1a64(""), 0xCBF29CE484222325ULL);
  EXPECT_EQ(Fnv1a64("a"), 0xAF63DC4C8601EC8CULL);
  EXPECT_EQ(Fnv1a64("foobar"), 0x85944171F73967E8ULL);
}

TEST(HashTest, DifferentInputsDiffer) {
  EXPECT_NE(Fnv1a64("gene9"), Fnv1a64("gene10"));
  EXPECT_NE(HashCombine(1, 2), HashCombine(2, 1));
}

// ---- ThreadPool ------------------------------------------------------------

TEST(ThreadPoolTest, ParallelForVisitsEveryIndexExactlyOnce) {
  for (uint32_t threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.num_threads(), threads);
    std::vector<std::atomic<int>> visits(1000);
    pool.ParallelFor(visits.size(),
                     [&](size_t i) { visits[i].fetch_add(1); });
    for (size_t i = 0; i < visits.size(); ++i) {
      EXPECT_EQ(visits[i].load(), 1) << "index " << i;
    }
  }
}

TEST(ThreadPoolTest, ParallelForHandlesEmptyAndTinyRanges) {
  ThreadPool pool(4);
  pool.ParallelFor(0, [](size_t) { FAIL() << "must not be called"; });
  std::atomic<int> calls{0};
  pool.ParallelFor(1, [&](size_t i) {
    EXPECT_EQ(i, 0u);
    calls.fetch_add(1);
  });
  EXPECT_EQ(calls.load(), 1);
}

TEST(ThreadPoolTest, SubmittedTasksAllRunBeforeDestruction) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(3);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&ran] { ran.fetch_add(1); });
    }
  }  // destructor drains the queue and joins
  EXPECT_EQ(ran.load(), 50);
}

TEST(ThreadPoolTest, PerIndexSlotsMergeDeterministically) {
  // The runtime's pattern: each index writes its own slot; the merged
  // result is identical for any thread count.
  auto run = [](uint32_t threads) {
    ThreadPool pool(threads);
    std::vector<uint64_t> slots(500);
    pool.ParallelFor(slots.size(),
                     [&](size_t i) { slots[i] = Fnv1a64(std::to_string(i)); });
    return slots;
  };
  std::vector<uint64_t> sequential = run(1);
  EXPECT_EQ(run(2), sequential);
  EXPECT_EQ(run(8), sequential);
}

// ---- Logging ---------------------------------------------------------------

TEST(LoggingTest, LevelRoundtrip) {
  LogLevel prev = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  RDFMR_LOG(Info) << "suppressed message";  // must not crash
  SetLogLevel(prev);
}

}  // namespace
}  // namespace rdfmr

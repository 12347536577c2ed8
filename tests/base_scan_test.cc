// Every scan of the base triple relation, fed well-formed, malformed and
// edge-case lines: for each compiled scan input, its vertical-partition
// hint and, per line, what it emits and counts. The NTGA group scan, Pig's
// filter-compress and VP scans, Hive's shared star scan, an inlined
// single-pattern star's join scan, Sel-SJ-first's star and folded scans
// and its O-O rescan are all covered. The expected table was recorded
// before the scans shared one scan mapper and must hold unchanged.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/strings.h"
#include "ntga/ntga_compiler.h"
#include "query/sparql_parser.h"
#include "relational/rel_compiler.h"

namespace rdfmr {
namespace {

using QueryPtr = std::shared_ptr<const GraphPatternQuery>;

QueryPtr Parse(const std::string& name, const std::string& text) {
  auto query = ParseSparql(name, text);
  EXPECT_TRUE(query.ok()) << query.status().ToString();
  return query.ok()
             ? std::make_shared<const GraphPatternQuery>(std::move(*query))
             : nullptr;
}

// Makes tabs, newlines and backslashes visible.
std::string Show(std::string_view bytes) {
  std::string out;
  for (char c : bytes) {
    if (c == '\t') {
      out += "\\t";
    } else if (c == '\n') {
      out += "\\n";
    } else if (c == '\\') {
      out += "\\\\";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

const std::vector<std::string>& Lines() {
  static const std::vector<std::string> lines = {
      "s\tp\to",           // well-formed, property p
      "s\tr\to",           // well-formed, property r
      "o\tp\to",           // subject equals object
      "s\tzz\to",          // a property no bound pattern names
      "a\\sb\tp\tc\\\\d",  // escaped tab in the subject, backslash object
      "s\tp",              // 2 fields
      "s\tp\to\tx",        // 4 fields
      "\t\t",              // three empty fields
      "s\tp\to\\",         // truncated escape at the end: a literal byte
      "s\\\tp\to",         // an escape swallowing a separator: 2 fields
      "",                  // no field at all but one empty one
  };
  return lines;
}

// The hint and, per line, the emissions and counters of one scan input.
std::string RenderScan(const std::string& name, const MapInput& input) {
  std::string out = name;
  if (input.scan_properties == nullptr) {
    out.append(" hint=*\n");
  } else {
    out.append(" hint={")
        .append(Join(*input.scan_properties, ','))
        .append("}\n");
  }
  for (const std::string& line : Lines()) {
    Counters counters;
    std::string emitted;
    input.map(
        line,
        [&emitted](std::string key, std::string value) {
          emitted.append(" [")
              .append(Show(key))
              .append(" => ")
              .append(Show(value))
              .append("]");
        },
        &counters);
    out.append("  ").append(Show(line)).append(" ->").append(emitted);
    for (const auto& [counter, value] : counters) {
      out += StringFormat(" %s=%llu", counter.c_str(),
                          static_cast<unsigned long long>(value));
    }
    out += "\n";
  }
  return out;
}

// Renders every scan input (an input whose path is the base relation or
// Pig's compressed copy of it) of `plan`.
std::string RenderPlanScans(const std::string& label,
                            const CompiledPlan& plan) {
  std::string out;
  for (const JobSpec& job : plan.workflow.jobs) {
    for (size_t i = 0; i < job.inputs.size(); ++i) {
      const MapInput& input = job.inputs[i];
      if (input.path != "base" && input.path != "tmp/compressed") continue;
      out += RenderScan(
          StringFormat("%s %s#%zu", label.c_str(), job.name.c_str(), i),
          input);
    }
  }
  return out;
}

std::string RenderAll() {
  // Two stars joined object-subject: a bound and an unbound pattern, then
  // a lone unbound edge (inlined into the join cycle by Pig and Hive).
  QueryPtr unbound = Parse(
      "unbound", "SELECT * WHERE { ?x <p> ?y . ?x ?q ?w . ?y ?r ?z . }");
  // A bound star and a lone bound edge.
  QueryPtr bound = Parse(
      "bound", "SELECT * WHERE { ?x <p> ?y . ?x <t> ?c . ?y <r> ?z . }");
  // A repeated variable within a pattern, plus a CONTAINS filter.
  QueryPtr loop = Parse("loop",
                        "SELECT * WHERE { ?x <p> ?x . ?x ?q ?w . "
                        "FILTER(CONTAINS(?w, \"o\")) }");
  // Two lone edges joined object-object (Sel-SJ-first's rescan).
  QueryPtr oo =
      Parse("oo", "SELECT * WHERE { ?x <p> ?o . ?y <r> ?o . ?y <t> ?c . }");
  if (!unbound || !bound || !loop || !oo) return "";

  std::string out;
  for (const auto& [label, query] :
       std::vector<std::pair<std::string, QueryPtr>>{
           {"unbound", unbound}, {"bound", bound}, {"loop", loop},
           {"oo", oo}}) {
    auto ntga = CompileNtgaPlan({query}, "base", "tmp", NtgaOptions{});
    EXPECT_TRUE(ntga.ok()) << ntga.status().ToString();
    if (ntga.ok()) out += RenderPlanScans(label + "/ntga", *ntga);
    for (RelationalStyle style : {RelationalStyle::kPig,
                                  RelationalStyle::kHive}) {
      RelationalOptions options;
      options.style = style;
      auto plan = CompileRelationalPlan(query, "base", "tmp", options);
      EXPECT_TRUE(plan.ok()) << plan.status().ToString();
      if (plan.ok()) {
        out += RenderPlanScans(
            label + (style == RelationalStyle::kPig ? "/pig" : "/hive"),
            *plan);
      }
    }
    if (query->stars().size() == 2) {
      RelationalOptions options;
      options.grouping = RelationalGrouping::kSelSJFirst;
      auto plan = CompileRelationalPlan(query, "base", "tmp", options);
      EXPECT_TRUE(plan.ok()) << plan.status().ToString();
      if (plan.ok()) out += RenderPlanScans(label + "/selsj", *plan);
    }
  }
  return out;
}

constexpr char kExpected[] = R"(unbound/ntga tg-group-filter#0 hint=*
  s\tp\to -> [s => s\tp\to]
  s\tr\to -> [s => s\tr\to]
  o\tp\to -> [o => o\tp\to]
  s\tzz\to -> [s => s\tzz\to]
  a\\sb\tp\tc\\\\d -> [a\tb => a\\sb\tp\tc\\\\d]
  s\tp -> bad_records=1
  s\tp\to\tx -> bad_records=1
  \t\t -> [ => \t\t]
  s\tp\to\\ -> [s => s\tp\to\\]
  s\\\tp\to -> bad_records=1
   -> bad_records=1
unbound/pig pig-filter-compress#0 hint=*
  s\tp\to -> [ => s\tp\to]
  s\tr\to -> [ => s\tr\to]
  o\tp\to -> [ => o\tp\to]
  s\tzz\to -> [ => s\tzz\to]
  a\\sb\tp\tc\\\\d -> [ => a\\sb\tp\tc\\\\d]
  s\tp -> bad_records=1
  s\tp\to\tx -> bad_records=1
  \t\t -> [ => \t\t]
  s\tp\to\\ -> [ => s\tp\to\\]
  s\\\tp\to -> bad_records=1
   -> bad_records=1
unbound/pig star-join-0#0 hint={p}
  s\tp\to -> [s => s\tp\to] op.vp_scan.output_records=1
  s\tr\to ->
  o\tp\to -> [o => o\tp\to] op.vp_scan.output_records=1
  s\tzz\to ->
  a\\sb\tp\tc\\\\d -> [a\tb => a\\sb\tp\tc\\\\d] op.vp_scan.output_records=1
  s\tp -> bad_records=1
  s\tp\to\tx -> bad_records=1
  \t\t ->
  s\tp\to\\ -> [s => s\tp\to\\] op.vp_scan.output_records=1
  s\\\tp\to -> bad_records=1
   -> bad_records=1
unbound/pig star-join-0#1 hint=*
  s\tp\to -> [s => s\tp\to] op.vp_scan.output_records=1
  s\tr\to -> [s => s\tr\to] op.vp_scan.output_records=1
  o\tp\to -> [o => o\tp\to] op.vp_scan.output_records=1
  s\tzz\to -> [s => s\tzz\to] op.vp_scan.output_records=1
  a\\sb\tp\tc\\\\d -> [a\tb => a\\sb\tp\tc\\\\d] op.vp_scan.output_records=1
  s\tp -> bad_records=1
  s\tp\to\tx -> bad_records=1
  \t\t -> [ => \t\t] op.vp_scan.output_records=1
  s\tp\to\\ -> [s => s\tp\to\\] op.vp_scan.output_records=1
  s\\\tp\to -> bad_records=1
   -> bad_records=1
unbound/pig join-0-on-y#1 hint=*
  s\tp\to -> [s => R|s\tp\to]
  s\tr\to -> [s => R|s\tr\to]
  o\tp\to -> [o => R|o\tp\to]
  s\tzz\to -> [s => R|s\tzz\to]
  a\\sb\tp\tc\\\\d -> [a\tb => R|a\\sb\tp\tc\\\\d]
  s\tp -> bad_records=1
  s\tp\to\tx -> bad_records=1
  \t\t ->
  s\tp\to\\ -> [s => R|s\tp\to\\]
  s\\\tp\to -> bad_records=1
   -> bad_records=1
unbound/hive star-join-0#0 hint=*
  s\tp\to -> [s => s\tp\to] [s => s\tp\to] op.vp_scan.output_records=2
  s\tr\to -> [s => s\tr\to] op.vp_scan.output_records=1
  o\tp\to -> [o => o\tp\to] [o => o\tp\to] op.vp_scan.output_records=2
  s\tzz\to -> [s => s\tzz\to] op.vp_scan.output_records=1
  a\\sb\tp\tc\\\\d -> [a\tb => a\\sb\tp\tc\\\\d] [a\tb => a\\sb\tp\tc\\\\d] op.vp_scan.output_records=2
  s\tp -> bad_records=1
  s\tp\to\tx -> bad_records=1
  \t\t -> [ => \t\t] op.vp_scan.output_records=1
  s\tp\to\\ -> [s => s\tp\to\\] [s => s\tp\to\\] op.vp_scan.output_records=2
  s\\\tp\to -> bad_records=1
   -> bad_records=1
unbound/hive join-0-on-y#1 hint=*
  s\tp\to -> [s => R|s\tp\to]
  s\tr\to -> [s => R|s\tr\to]
  o\tp\to -> [o => R|o\tp\to]
  s\tzz\to -> [s => R|s\tzz\to]
  a\\sb\tp\tc\\\\d -> [a\tb => R|a\\sb\tp\tc\\\\d]
  s\tp -> bad_records=1
  s\tp\to\tx -> bad_records=1
  \t\t ->
  s\tp\to\\ -> [s => R|s\tp\to\\]
  s\\\tp\to -> bad_records=1
   -> bad_records=1
unbound/selsj selsj-star-0#0 hint=*
  s\tp\to -> [s => s\tp\to] [s => s\tp\to] op.vp_scan.output_records=2
  s\tr\to -> [s => s\tr\to] op.vp_scan.output_records=1
  o\tp\to -> [o => o\tp\to] [o => o\tp\to] op.vp_scan.output_records=2
  s\tzz\to -> [s => s\tzz\to] op.vp_scan.output_records=1
  a\\sb\tp\tc\\\\d -> [a\tb => a\\sb\tp\tc\\\\d] [a\tb => a\\sb\tp\tc\\\\d] op.vp_scan.output_records=2
  s\tp -> bad_records=1
  s\tp\to\tx -> bad_records=1
  \t\t -> [ => \t\t] op.vp_scan.output_records=1
  s\tp\to\\ -> [s => s\tp\to\\] [s => s\tp\to\\] op.vp_scan.output_records=2
  s\\\tp\to -> bad_records=1
   -> bad_records=1
unbound/selsj selsj-join#1 hint=*
  s\tp\to -> [s => B|s\tp\to]
  s\tr\to -> [s => B|s\tr\to]
  o\tp\to -> [o => B|o\tp\to]
  s\tzz\to -> [s => B|s\tzz\to]
  a\\sb\tp\tc\\\\d -> [a\tb => B|a\\sb\tp\tc\\\\d]
  s\tp -> bad_records=1
  s\tp\to\tx -> bad_records=1
  \t\t -> [ => B|\t\t]
  s\tp\to\\ -> [s => B|s\tp\to\\]
  s\\\tp\to -> bad_records=1
   -> bad_records=1
bound/ntga tg-group-filter#0 hint={p,t,r}
  s\tp\to -> [s => s\tp\to]
  s\tr\to -> [s => s\tr\to]
  o\tp\to -> [o => o\tp\to]
  s\tzz\to ->
  a\\sb\tp\tc\\\\d -> [a\tb => a\\sb\tp\tc\\\\d]
  s\tp -> bad_records=1
  s\tp\to\tx -> bad_records=1
  \t\t ->
  s\tp\to\\ -> [s => s\tp\to\\]
  s\\\tp\to -> bad_records=1
   -> bad_records=1
bound/pig star-join-0#0 hint={p}
  s\tp\to -> [s => s\tp\to] op.vp_scan.output_records=1
  s\tr\to ->
  o\tp\to -> [o => o\tp\to] op.vp_scan.output_records=1
  s\tzz\to ->
  a\\sb\tp\tc\\\\d -> [a\tb => a\\sb\tp\tc\\\\d] op.vp_scan.output_records=1
  s\tp -> bad_records=1
  s\tp\to\tx -> bad_records=1
  \t\t ->
  s\tp\to\\ -> [s => s\tp\to\\] op.vp_scan.output_records=1
  s\\\tp\to -> bad_records=1
   -> bad_records=1
bound/pig star-join-0#1 hint={t}
  s\tp\to ->
  s\tr\to ->
  o\tp\to ->
  s\tzz\to ->
  a\\sb\tp\tc\\\\d ->
  s\tp -> bad_records=1
  s\tp\to\tx -> bad_records=1
  \t\t ->
  s\tp\to\\ ->
  s\\\tp\to -> bad_records=1
   -> bad_records=1
bound/pig join-0-on-y#1 hint={r}
  s\tp\to ->
  s\tr\to -> [s => R|s\tr\to]
  o\tp\to ->
  s\tzz\to ->
  a\\sb\tp\tc\\\\d ->
  s\tp -> bad_records=1
  s\tp\to\tx -> bad_records=1
  \t\t ->
  s\tp\to\\ ->
  s\\\tp\to -> bad_records=1
   -> bad_records=1
bound/hive star-join-0#0 hint={p,t}
  s\tp\to -> [s => s\tp\to] op.vp_scan.output_records=1
  s\tr\to ->
  o\tp\to -> [o => o\tp\to] op.vp_scan.output_records=1
  s\tzz\to ->
  a\\sb\tp\tc\\\\d -> [a\tb => a\\sb\tp\tc\\\\d] op.vp_scan.output_records=1
  s\tp -> bad_records=1
  s\tp\to\tx -> bad_records=1
  \t\t ->
  s\tp\to\\ -> [s => s\tp\to\\] op.vp_scan.output_records=1
  s\\\tp\to -> bad_records=1
   -> bad_records=1
bound/hive join-0-on-y#1 hint={r}
  s\tp\to ->
  s\tr\to -> [s => R|s\tr\to]
  o\tp\to ->
  s\tzz\to ->
  a\\sb\tp\tc\\\\d ->
  s\tp -> bad_records=1
  s\tp\to\tx -> bad_records=1
  \t\t ->
  s\tp\to\\ ->
  s\\\tp\to -> bad_records=1
   -> bad_records=1
bound/selsj selsj-star-0#0 hint={p,t}
  s\tp\to -> [s => s\tp\to] op.vp_scan.output_records=1
  s\tr\to ->
  o\tp\to -> [o => o\tp\to] op.vp_scan.output_records=1
  s\tzz\to ->
  a\\sb\tp\tc\\\\d -> [a\tb => a\\sb\tp\tc\\\\d] op.vp_scan.output_records=1
  s\tp -> bad_records=1
  s\tp\to\tx -> bad_records=1
  \t\t ->
  s\tp\to\\ -> [s => s\tp\to\\] op.vp_scan.output_records=1
  s\\\tp\to -> bad_records=1
   -> bad_records=1
bound/selsj selsj-join#1 hint={r}
  s\tp\to ->
  s\tr\to -> [s => B|s\tr\to]
  o\tp\to ->
  s\tzz\to ->
  a\\sb\tp\tc\\\\d ->
  s\tp -> bad_records=1
  s\tp\to\tx -> bad_records=1
  \t\t ->
  s\tp\to\\ ->
  s\\\tp\to -> bad_records=1
   -> bad_records=1
loop/ntga tg-group-filter#0 hint=*
  s\tp\to -> [s => s\tp\to]
  s\tr\to -> [s => s\tr\to]
  o\tp\to -> [o => o\tp\to]
  s\tzz\to -> [s => s\tzz\to]
  a\\sb\tp\tc\\\\d -> [a\tb => a\\sb\tp\tc\\\\d]
  s\tp -> bad_records=1
  s\tp\to\tx -> bad_records=1
  \t\t ->
  s\tp\to\\ -> [s => s\tp\to\\]
  s\\\tp\to -> bad_records=1
   -> bad_records=1
loop/pig star-join-0#0 hint={p}
  s\tp\to ->
  s\tr\to ->
  o\tp\to -> [o => o\tp\to] op.vp_scan.output_records=1
  s\tzz\to ->
  a\\sb\tp\tc\\\\d ->
  s\tp -> bad_records=1
  s\tp\to\tx -> bad_records=1
  \t\t ->
  s\tp\to\\ ->
  s\\\tp\to -> bad_records=1
   -> bad_records=1
loop/pig star-join-0#1 hint=*
  s\tp\to -> [s => s\tp\to] op.vp_scan.output_records=1
  s\tr\to -> [s => s\tr\to] op.vp_scan.output_records=1
  o\tp\to -> [o => o\tp\to] op.vp_scan.output_records=1
  s\tzz\to -> [s => s\tzz\to] op.vp_scan.output_records=1
  a\\sb\tp\tc\\\\d ->
  s\tp -> bad_records=1
  s\tp\to\tx -> bad_records=1
  \t\t ->
  s\tp\to\\ -> [s => s\tp\to\\] op.vp_scan.output_records=1
  s\\\tp\to -> bad_records=1
   -> bad_records=1
loop/hive star-join-0#0 hint=*
  s\tp\to -> [s => s\tp\to] op.vp_scan.output_records=1
  s\tr\to -> [s => s\tr\to] op.vp_scan.output_records=1
  o\tp\to -> [o => o\tp\to] [o => o\tp\to] op.vp_scan.output_records=2
  s\tzz\to -> [s => s\tzz\to] op.vp_scan.output_records=1
  a\\sb\tp\tc\\\\d ->
  s\tp -> bad_records=1
  s\tp\to\tx -> bad_records=1
  \t\t ->
  s\tp\to\\ -> [s => s\tp\to\\] op.vp_scan.output_records=1
  s\\\tp\to -> bad_records=1
   -> bad_records=1
oo/ntga tg-group-filter#0 hint={p,r,t}
  s\tp\to -> [s => s\tp\to]
  s\tr\to -> [s => s\tr\to]
  o\tp\to -> [o => o\tp\to]
  s\tzz\to ->
  a\\sb\tp\tc\\\\d -> [a\tb => a\\sb\tp\tc\\\\d]
  s\tp -> bad_records=1
  s\tp\to\tx -> bad_records=1
  \t\t ->
  s\tp\to\\ -> [s => s\tp\to\\]
  s\\\tp\to -> bad_records=1
   -> bad_records=1
oo/pig star-join-1#0 hint={r}
  s\tp\to ->
  s\tr\to -> [s => s\tr\to] op.vp_scan.output_records=1
  o\tp\to ->
  s\tzz\to ->
  a\\sb\tp\tc\\\\d ->
  s\tp -> bad_records=1
  s\tp\to\tx -> bad_records=1
  \t\t ->
  s\tp\to\\ ->
  s\\\tp\to -> bad_records=1
   -> bad_records=1
oo/pig star-join-1#1 hint={t}
  s\tp\to ->
  s\tr\to ->
  o\tp\to ->
  s\tzz\to ->
  a\\sb\tp\tc\\\\d ->
  s\tp -> bad_records=1
  s\tp\to\tx -> bad_records=1
  \t\t ->
  s\tp\to\\ ->
  s\\\tp\to -> bad_records=1
   -> bad_records=1
oo/pig join-0-on-o#0 hint={p}
  s\tp\to -> [o => L|s\tp\to]
  s\tr\to ->
  o\tp\to -> [o => L|o\tp\to]
  s\tzz\to ->
  a\\sb\tp\tc\\\\d -> [c\\d => L|a\\sb\tp\tc\\\\d]
  s\tp -> bad_records=1
  s\tp\to\tx -> bad_records=1
  \t\t ->
  s\tp\to\\ -> [o\\ => L|s\tp\to\\]
  s\\\tp\to -> bad_records=1
   -> bad_records=1
oo/hive star-join-1#0 hint={r,t}
  s\tp\to ->
  s\tr\to -> [s => s\tr\to] op.vp_scan.output_records=1
  o\tp\to ->
  s\tzz\to ->
  a\\sb\tp\tc\\\\d ->
  s\tp -> bad_records=1
  s\tp\to\tx -> bad_records=1
  \t\t ->
  s\tp\to\\ ->
  s\\\tp\to -> bad_records=1
   -> bad_records=1
oo/hive join-0-on-o#0 hint={p}
  s\tp\to -> [o => L|s\tp\to]
  s\tr\to ->
  o\tp\to -> [o => L|o\tp\to]
  s\tzz\to ->
  a\\sb\tp\tc\\\\d -> [c\\d => L|a\\sb\tp\tc\\\\d]
  s\tp -> bad_records=1
  s\tp\to\tx -> bad_records=1
  \t\t ->
  s\tp\to\\ -> [o\\ => L|s\tp\to\\]
  s\\\tp\to -> bad_records=1
   -> bad_records=1
oo/selsj star-join-1#0 hint={r,t}
  s\tp\to ->
  s\tr\to -> [s => s\tr\to] op.vp_scan.output_records=1
  o\tp\to ->
  s\tzz\to ->
  a\\sb\tp\tc\\\\d ->
  s\tp -> bad_records=1
  s\tp\to\tx -> bad_records=1
  \t\t ->
  s\tp\to\\ ->
  s\\\tp\to -> bad_records=1
   -> bad_records=1
oo/selsj join-0-on-o#0 hint={p}
  s\tp\to -> [o => L|s\tp\to]
  s\tr\to ->
  o\tp\to -> [o => L|o\tp\to]
  s\tzz\to ->
  a\\sb\tp\tc\\\\d -> [c\\d => L|a\\sb\tp\tc\\\\d]
  s\tp -> bad_records=1
  s\tp\to\tx -> bad_records=1
  \t\t ->
  s\tp\to\\ -> [o\\ => L|s\tp\to\\]
  s\\\tp\to -> bad_records=1
   -> bad_records=1
oo/selsj join-0-on-o#2 hint={}
  s\tp\to ->
  s\tr\to ->
  o\tp\to ->
  s\tzz\to ->
  a\\sb\tp\tc\\\\d ->
  s\tp ->
  s\tp\to\tx ->
  \t\t ->
  s\tp\to\\ ->
  s\\\tp\to ->
   ->
)";

TEST(BaseScanTest, EveryScanVariantKeepsItsRecordedTable) {
  const std::string actual = RenderAll();
  EXPECT_EQ(actual, kExpected) << actual;
}

}  // namespace
}  // namespace rdfmr

#include "relational/rel_tuple.h"

#include <algorithm>

#include "common/strings.h"
#include "query/matcher.h"

namespace rdfmr {

std::string RelTuple::Serialize() const {
  size_t bytes = 0;
  for (const Triple& t : triples) bytes += t.ByteSize();
  std::string out;
  out.reserve(bytes);
  bool first = true;
  for (const Triple& t : triples) {
    for (const std::string* field : {&t.subject, &t.property, &t.object}) {
      if (!first) out.push_back('\t');
      first = false;
      AppendEscaped(&out, *field, '\t');
    }
  }
  return out;
}

std::string JoinTupleRecords(std::string_view left, std::string_view right) {
  std::string out;
  out.reserve(left.size() + 1 + right.size());
  out.append(left);
  out.push_back('\t');
  out.append(right);
  return out;
}

Result<RelTuple> RelTuple::Deserialize(std::string_view line,
                                       size_t arity) {
  RelTuple tuple;
  tuple.triples.resize(arity);
  size_t num_fields = 0;
  EscapedFieldReader reader(line, '\t');
  for (std::string_view raw; reader.Next(&raw); ++num_fields) {
    if (num_fields >= arity * 3) continue;
    Triple& t = tuple.triples[num_fields / 3];
    std::string& field = num_fields % 3 == 0   ? t.subject
                         : num_fields % 3 == 1 ? t.property
                                               : t.object;
    field = UnescapeField(raw, '\t');
  }
  if (num_fields != arity * 3) {
    return Status::IoError(StringFormat(
        "relational tuple needs %zu fields, got %zu", arity * 3,
        num_fields));
  }
  return tuple;
}

namespace {
// The SPARQL "unbound" placeholder at optional positions: all-empty triple.
bool IsNullTriple(const Triple& t) {
  return t.subject.empty() && t.property.empty() && t.object.empty();
}
}  // namespace

Result<Solution> RelTuple::ToSolution(const RelSchema& schema) const {
  if (schema.size() != triples.size()) {
    return Status::InvalidArgument("tuple arity does not match schema");
  }
  Solution out;
  out.Reserve(3 * schema.size());
  for (size_t i = 0; i < schema.size(); ++i) {
    if (IsNullTriple(triples[i])) {
      if (schema[i].optional) continue;  // unmatched optional pattern
      return Status::InvalidArgument(
          "null triple at mandatory column " + std::to_string(i));
    }
    if (!BindTriplePattern(schema[i], triples[i], &out)) {
      return Status::InvalidArgument(
          "tuple column " + std::to_string(i) +
          " does not match its pattern or the columns before it");
    }
  }
  return out;
}

Result<SolutionSet> DecodeRelationalAnswers(
    const RelSchema& schema, const std::vector<std::string>& lines) {
  // The column -> slot plan: field 3i+j (j: subject, property, object of
  // pattern i) binds slot field_slot[3i+j], or nothing.
  constexpr size_t kNoSlot = static_cast<size_t>(-1);
  std::vector<std::string> vars;
  for (const TriplePattern& tp : schema) {
    for (std::string& var : tp.Variables()) vars.push_back(std::move(var));
  }
  std::sort(vars.begin(), vars.end());
  vars.erase(std::unique(vars.begin(), vars.end()), vars.end());
  auto slot_of = [&vars](const std::string& var) {
    return static_cast<size_t>(
        std::lower_bound(vars.begin(), vars.end(), var) - vars.begin());
  };
  const size_t num_fields = 3 * schema.size();
  std::vector<size_t> field_slot(num_fields, kNoSlot);
  for (size_t i = 0; i < schema.size(); ++i) {
    const TriplePattern& tp = schema[i];
    size_t* slots = &field_slot[3 * i];
    if (tp.subject.is_variable()) slots[0] = slot_of(tp.subject.value);
    if (!tp.property_bound) slots[1] = slot_of(tp.property);
    if (tp.object.is_variable()) slots[2] = slot_of(tp.object.value);
  }

  SolutionSet::Builder builder(vars);
  const size_t width = vars.size();
  std::vector<std::string_view> fields(num_fields);
  std::vector<std::string> scratch(num_fields);  // fields that hold escapes
  std::vector<std::string_view> values(width);
  std::vector<bool> bound(width);
  std::vector<SolutionSet::Handle> row(width);
  for (const std::string& line : lines) {
    size_t n = 0;
    const bool escapes = line.find('\\') != std::string::npos;
    EscapedFieldReader reader(line, '\t', escapes);
    for (std::string_view raw; reader.Next(&raw); ++n) {
      if (n >= num_fields) continue;
      fields[n] = escapes ? UnescapedView(raw, '\t', &scratch[n]) : raw;
    }
    if (n != num_fields) {
      return Status::IoError(StringFormat(
          "relational tuple needs %zu fields, got %zu", num_fields, n));
    }
    bound.assign(width, false);
    for (size_t i = 0; i < schema.size(); ++i) {
      const std::string_view* triple = &fields[3 * i];
      if (triple[0].empty() && triple[1].empty() && triple[2].empty()) {
        if (schema[i].optional) continue;  // unmatched optional pattern
        return Status::InvalidArgument(
            "null triple at mandatory column " + std::to_string(i));
      }
      bool match =
          MatchesTriplePattern(schema[i], triple[0], triple[1], triple[2]);
      for (size_t j = 0; match && j < 3; ++j) {
        const size_t slot = field_slot[3 * i + j];
        if (slot == kNoSlot) continue;
        if (!bound[slot]) {
          bound[slot] = true;
          values[slot] = triple[j];
        } else {
          match = values[slot] == triple[j];
        }
      }
      if (!match) {
        return Status::InvalidArgument(
            "tuple column " + std::to_string(i) +
            " does not match its pattern or the columns before it");
      }
    }
    for (size_t k = 0; k < width; ++k) {
      row[k] = bound[k] ? builder.Intern(values[k]) : SolutionSet::kUnbound;
    }
    builder.AddRow(row.data());
  }
  return builder.Finish();
}

Result<std::string> ExtractJoinKey(const RelSchema& schema,
                                   const RelTuple& tuple,
                                   const std::string& var) {
  for (size_t i = 0; i < schema.size(); ++i) {
    const TriplePattern& tp = schema[i];
    if (IsNullTriple(tuple.triples[i])) continue;  // unmatched optional
    if (tp.subject.is_variable() && tp.subject.value == var) {
      return tuple.triples[i].subject;
    }
    if (tp.object.is_variable() && tp.object.value == var) {
      return tuple.triples[i].object;
    }
  }
  return Status::NotFound("variable ?" + var + " not in schema");
}

}  // namespace rdfmr

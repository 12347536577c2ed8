#include "relational/rel_tuple.h"

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
  std::vector<Solution> solutions;
  solutions.reserve(lines.size());
  for (const std::string& line : lines) {
    RDFMR_ASSIGN_OR_RETURN(RelTuple tuple,
                           RelTuple::Deserialize(line, schema.size()));
    RDFMR_ASSIGN_OR_RETURN(Solution s, tuple.ToSolution(schema));
    solutions.push_back(std::move(s));
  }
  return ToSolutionSet(&solutions);
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

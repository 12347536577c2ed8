#include "relational/rel_tuple.h"

#include "common/strings.h"
#include "query/matcher.h"

namespace rdfmr {

std::string JoinTupleRecords(std::string_view left, std::string_view right) {
  std::string out;
  out.reserve(left.size() + 1 + right.size());
  out.append(left);
  out.push_back('\t');
  out.append(right);
  return out;
}

RelRecordReader::RelRecordReader(const RelSchema& schema)
    : plan_(std::make_shared<const SlotPlan>(schema)) {}

Status RelRecordReader::Read(std::string_view line) {
  line_ = line;
  const RelSchema& schema = plan_->patterns();
  const size_t num_fields = 3 * schema.size();
  fields_.resize(num_fields);
  size_t n = 0;
  const bool escapes = line.find('\\') != std::string_view::npos;
  if (escapes) scratch_.resize(num_fields);
  EscapedFieldReader reader(line, '\t', escapes);
  for (std::string_view raw; reader.Next(&raw); ++n) {
    if (n >= num_fields) continue;
    fields_[n] = escapes ? UnescapedView(raw, '\t', &scratch_[n]) : raw;
  }
  if (n != num_fields) {
    return Status::IoError(StringFormat(
        "relational tuple needs %zu fields, got %zu", num_fields, n));
  }
  const size_t width = plan_->width();
  values_.resize(width);
  bound_.assign(width, false);
  for (size_t i = 0; i < schema.size(); ++i) {
    const std::string_view* triple = &fields_[3 * i];
    if (triple[0].empty() && triple[1].empty() && triple[2].empty()) {
      if (schema[i].optional) continue;  // unmatched optional pattern
      return Status::InvalidArgument(
          "null triple at mandatory column " + std::to_string(i));
    }
    bool match =
        MatchesTriplePattern(schema[i], triple[0], triple[1], triple[2]);
    for (size_t j = 0; match && j < 3; ++j) {
      const size_t slot = plan_->slots(i)[j];
      if (slot == kNoSlot) continue;
      if (!bound_[slot]) {
        bound_[slot] = true;
        values_[slot] = triple[j];
      } else {
        match = values_[slot] == triple[j];
      }
    }
    if (!match) {
      return Status::InvalidArgument(
          "tuple column " + std::to_string(i) +
          " does not match its pattern or the columns before it");
    }
  }
  return Status::OK();
}

AnswerDecoder RelationalAnswerDecoder(const RelSchema& schema) {
  const RelRecordReader reader(schema);
  return {reader.variables(),
          [reader](std::span<const std::string> lines,
                   SolutionSet::Builder* builder) {
            RelRecordReader line_reader = reader;  // this call's buffers
            std::vector<SolutionSet::Handle> row(builder->width());
            for (const std::string& line : lines) {
              RDFMR_RETURN_NOT_OK(line_reader.Read(line));
              for (size_t k = 0; k < row.size(); ++k) {
                row[k] = line_reader.bound(k)
                             ? builder->Intern(line_reader.value(k))
                             : SolutionSet::kUnbound;
              }
              builder->AddRow(row.data());
            }
            return Status::OK();
          }};
}

}  // namespace rdfmr

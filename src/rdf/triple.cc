#include "rdf/triple.h"

#include "common/strings.h"

namespace rdfmr {

std::string Triple::Serialize() const {
  std::string out;
  out.reserve(ByteSize());
  AppendEscaped(&out, subject, '\t');
  out.push_back('\t');
  AppendEscaped(&out, property, '\t');
  out.push_back('\t');
  AppendEscaped(&out, object, '\t');
  return out;
}

Result<Triple> Triple::Deserialize(std::string_view line) {
  Triple t;
  std::string* const fields[3] = {&t.subject, &t.property, &t.object};
  size_t num_fields = 0;
  EscapedFieldReader reader(line, '\t');
  for (std::string_view raw; reader.Next(&raw); ++num_fields) {
    if (num_fields < 3) *fields[num_fields] = UnescapeField(raw, '\t');
  }
  if (num_fields != 3) {
    return Status::IoError("triple record must have 3 fields, got " +
                           std::to_string(num_fields) + ": " +
                           std::string(line));
  }
  return t;
}

std::vector<std::string> SerializeTriples(const std::vector<Triple>& triples) {
  std::vector<std::string> out;
  out.reserve(triples.size());
  for (const Triple& t : triples) out.push_back(t.Serialize());
  return out;
}

Result<std::vector<Triple>> DeserializeTriples(
    const std::vector<std::string>& lines) {
  std::vector<Triple> out;
  out.reserve(lines.size());
  for (const std::string& line : lines) {
    RDFMR_ASSIGN_OR_RETURN(Triple t, Triple::Deserialize(line));
    out.push_back(std::move(t));
  }
  return out;
}

}  // namespace rdfmr

#include "rdf/triple.h"

#include <algorithm>

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
  TripleReader reader;
  RDFMR_RETURN_NOT_OK(reader.Read(line));
  const TripleView& t = reader.view();
  return Triple(std::string(t.subject), std::string(t.property),
                std::string(t.object));
}

void TripleView::AppendLine(std::string* out) const {
  if (line.find('\\') == std::string_view::npos &&
      line.find('\n') == std::string_view::npos) {
    out->append(line);
    return;
  }
  AppendEscaped(out, subject, '\t');
  out->push_back('\t');
  AppendEscaped(out, property, '\t');
  out->push_back('\t');
  AppendEscaped(out, object, '\t');
}

Status TripleReader::Read(std::string_view line) {
  std::string_view* const fields[3] = {&view_.subject, &view_.property,
                                       &view_.object};
  view_.line = line;
  escaped_ = line.find('\\') != std::string_view::npos;
  size_t num_fields = 0;
  EscapedFieldReader reader(line, '\t', escaped_);
  for (std::string_view raw; reader.Next(&raw); ++num_fields) {
    if (num_fields >= 3) continue;
    *fields[num_fields] =
        escaped_ ? UnescapedView(raw, '\t', &scratch_[num_fields]) : raw;
  }
  if (num_fields != 3) {
    return Status::IoError("triple record must have 3 fields, got " +
                           std::to_string(num_fields) + ": " +
                           std::string(line));
  }
  return Status::OK();
}

Status TripleViews::Add(std::string_view line) {
  RDFMR_RETURN_NOT_OK(reader_.Read(line));
  TripleView view = reader_.view();
  if (reader_.escaped()) {
    std::string& fields = unescaped_.emplace_back();
    fields.append(view.subject).append(view.property).append(view.object);
    const std::string_view all = fields;
    view.subject = all.substr(0, view.subject.size());
    view.property = all.substr(view.subject.size(), view.property.size());
    view.object = all.substr(view.subject.size() + view.property.size());
  }
  views_.push_back(view);
  return Status::OK();
}

void TripleViews::SortDistinct() {
  std::sort(views_.begin(), views_.end());
  views_.erase(std::unique(views_.begin(), views_.end()), views_.end());
}

void TripleViews::Clear() {
  views_.clear();
  unescaped_.clear();
}

std::vector<std::string> SerializeTriples(const std::vector<Triple>& triples) {
  std::vector<std::string> out;
  out.reserve(triples.size());
  for (const Triple& t : triples) out.push_back(t.Serialize());
  return out;
}

}  // namespace rdfmr

#include "ntga/triplegroup.h"

#include <charconv>

#include "common/strings.h"

namespace rdfmr {

namespace {
// Nested separators for the record format; escaped via EscapeField.
constexpr char kFieldSep = '\x1F';   // top-level fields
constexpr char kEntrySep = '\x1D';   // entries within a field
constexpr char kItemSep = ',';       // items within an entry
constexpr char kComponentSep = '\x1E';  // record components

// Separators a leaf is escaped for, innermost first: a subject is a
// top-level field, a property or object an item within an entry; both sit
// inside a record component. The structural separators are never escaped
// by an enclosing level, so only the leaves carry (composed) escapes.
constexpr std::string_view kFieldLeaf = "\x1F\x1E";
constexpr std::string_view kItemLeaf = ",\x1D\x1F\x1E";

// Parses a decimal uint32 that spans all of `text`.
bool ParseUint32(std::string_view text, uint32_t* value) {
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, *value);
  return ec == std::errc() && ptr == end && !text.empty();
}

}  // namespace

Result<uint32_t> PeekStarId(std::string_view line) {
  EscapedFieldReader fields(line, kFieldSep);
  std::string_view subject, raw_id;
  if (!fields.Next(&subject) || !fields.Next(&raw_id)) {
    return Status::IoError("triplegroup record needs 4 fields");
  }
  std::string scratch;
  const std::string_view star_id = UnescapedView(raw_id, kFieldSep, &scratch);
  uint32_t value;
  if (!ParseUint32(star_id, &value)) {
    return Status::IoError("bad star id: " + std::string(star_id));
  }
  return value;
}

// ---- TgWriter ---------------------------------------------------------------

TgWriter::TgWriter(std::string* out, std::string_view subject,
                   uint32_t star_id)
    : out_(out) {
  AppendEscapedNested(out_, subject, kFieldLeaf);
  out_->push_back(kFieldSep);
  out_->append(std::to_string(star_id));
  out_->push_back(kFieldSep);
  field_begin_ = out_->size();
}

// A written entry is never empty (a pairs entry holds an object, an
// overrides entry its index): a separator is due iff the field is not.
void TgWriter::Property(std::string_view property) {
  if (out_->size() != field_begin_) out_->push_back(kEntrySep);
  AppendEscapedNested(out_, property, kItemLeaf);
}

void TgWriter::Object(std::string_view object) {
  out_->push_back(kItemSep);
  AppendEscapedNested(out_, object, kItemLeaf);
}

void TgWriter::EndPairs() {
  out_->push_back(kFieldSep);
  field_begin_ = out_->size();
}

void TgWriter::Override(uint32_t tp_index) {
  if (out_->size() != field_begin_) out_->push_back(kEntrySep);
  out_->append(std::to_string(tp_index));
}

void TgWriter::Pinned(std::string_view property, std::string_view object) {
  Object(property);
  Object(object);
}

// ---- TgRecordReader ---------------------------------------------------------

std::string_view TgRecordReader::Unescaped(std::string_view raw, char sep) {
  if (!escapes_ || raw.find('\\') == std::string_view::npos) return raw;
  if (num_unescaped_ == unescaped_.size()) {
    unescaped_.push_back(std::make_unique<std::string>());
  }
  return UnescapedView(raw, sep, unescaped_[num_unescaped_++].get());
}

Status TgRecordReader::Read(std::string_view line) {
  line_ = line;
  components_.clear();
  pairs_.clear();
  overrides_.clear();
  leaves_.clear();
  num_unescaped_ = 0;
  escapes_ = line.find('\\') != std::string_view::npos;
  EscapedFieldReader parts(line, kComponentSep, escapes_);
  for (std::string_view raw; parts.Next(&raw);) {
    RDFMR_RETURN_NOT_OK(AppendComponent(Unescaped(raw, kComponentSep)));
    components_.back().raw = raw;
  }
  return Status::OK();
}

// Each nesting level is split on its raw separator and unescaped only
// where it holds an escape, exactly as the record was escaped.
Status TgRecordReader::AppendComponent(std::string_view component) {
  std::string_view raw[4];
  size_t num_fields = 0;
  EscapedFieldReader fields(component, kFieldSep, escapes_);
  for (std::string_view field; fields.Next(&field); ++num_fields) {
    if (num_fields < 4) raw[num_fields] = field;
  }
  if (num_fields != 4) {
    return Status::IoError("triplegroup record needs 4 fields, got " +
                           std::to_string(num_fields));
  }
  Component c;
  c.subject = static_cast<uint32_t>(leaves_.size());
  leaves_.push_back(Unescaped(raw[0], kFieldSep));
  const std::string_view star_id = Unescaped(raw[1], kFieldSep);
  if (!ParseUint32(star_id, &c.star_id)) {
    return Status::IoError("bad star id: " + std::string(star_id));
  }
  // Reads the items of one entry as leaves; returns the entry's range.
  auto read_entry = [this](std::string_view raw_entry) {
    Entry e;
    e.begin = static_cast<uint32_t>(leaves_.size());
    EscapedFieldReader items(Unescaped(raw_entry, kEntrySep), kItemSep,
                             escapes_);
    for (std::string_view item; items.Next(&item);) {
      leaves_.push_back(Unescaped(item, kItemSep));
    }
    e.end = static_cast<uint32_t>(leaves_.size());
    return e;
  };
  std::string_view raw_entry;
  c.pairs_begin = static_cast<uint32_t>(pairs_.size());
  const std::string_view pairs = Unescaped(raw[2], kFieldSep);
  if (!pairs.empty()) {
    EscapedFieldReader entries(pairs, kEntrySep, escapes_);
    while (entries.Next(&raw_entry)) {
      const Entry e = read_entry(raw_entry);
      if (e.end - e.begin < 2) {
        return Status::IoError("bad pair entry: " +
                               UnescapeField(raw_entry, kEntrySep));
      }
      pairs_.push_back(e);
    }
  }
  c.pairs_end = static_cast<uint32_t>(pairs_.size());
  c.overrides_begin = static_cast<uint32_t>(overrides_.size());
  const std::string_view overrides = Unescaped(raw[3], kFieldSep);
  if (!overrides.empty()) {
    EscapedFieldReader entries(overrides, kEntrySep, escapes_);
    while (entries.Next(&raw_entry)) {
      Entry e = read_entry(raw_entry);
      const std::string_view index = leaves_[e.begin++];
      if (!ParseUint32(index, &e.tp_index)) {
        return Status::IoError("bad override index: " + std::string(index));
      }
      if ((e.end - e.begin) % 2 != 0) {
        return Status::IoError("bad override entry: " +
                               UnescapeField(raw_entry, kEntrySep));
      }
      overrides_.push_back(e);
    }
  }
  c.overrides_end = static_cast<uint32_t>(overrides_.size());
  components_.push_back(c);
  return Status::OK();
}

std::string JoinRecords(std::string_view left, std::string_view right) {
  std::string out;
  out.reserve(left.size() + 1 + right.size());
  out.append(left);
  out.push_back(kComponentSep);
  out.append(right);
  return out;
}

}  // namespace rdfmr

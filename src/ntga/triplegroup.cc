#include "ntga/triplegroup.h"

#include <algorithm>
#include <charconv>
#include <iterator>
#include <set>

#include "common/strings.h"

namespace rdfmr {

namespace {
// Nested separators for the record format; escaped via EscapeField.
constexpr char kFieldSep = '\x1F';   // top-level fields
constexpr char kEntrySep = '\x1D';   // entries within a field
constexpr char kItemSep = ',';       // items within an entry
constexpr char kComponentSep = '\x1E';  // record components
}  // namespace

void AnnTg::AddPair(const std::string& property, const std::string& object) {
  std::vector<std::string>& objs = pairs[property];
  auto it = std::lower_bound(objs.begin(), objs.end(), object);
  if (it == objs.end() || *it != object) objs.insert(it, object);
}

std::vector<PropObj> AnnTg::AllPairs() const {
  std::vector<PropObj> out;
  for (const auto& [property, objects] : pairs) {
    for (const std::string& object : objects) {
      out.push_back(PropObj{property, object});
    }
  }
  return out;
}

size_t AnnTg::PairCount() const {
  size_t n = 0;
  for (const auto& [_, objects] : pairs) n += objects.size();
  return n;
}

std::vector<Triple> AnnTg::ToTriples() const {
  std::set<Triple> distinct;
  for (const auto& [property, objects] : pairs) {
    for (const std::string& object : objects) {
      distinct.insert(Triple(subject, property, object));
    }
  }
  for (const auto& [_, pinned] : overrides) {
    for (const PropObj& po : pinned) {
      distinct.insert(Triple(subject, po.property, po.object));
    }
  }
  return std::vector<Triple>(distinct.begin(), distinct.end());
}

void AnnTg::Compact(const StarPattern& star) {
  // A pair must stay only while something can still consume it: a bound
  // pattern of the star, or an unbound pattern whose candidates are not yet
  // overridden and whose object constraint the pair satisfies. Everything
  // else is dead weight for the rest of the workflow (in particular, once
  // the joining unbound pattern is pinned, candidate pairs kept for a
  // *filtered* second unbound pattern shrink to the filter's matches).
  std::set<std::string> bound = star.AllBoundProperties();
  std::vector<const TriplePattern*> open_unbound;
  for (size_t idx : star.UnboundIndexes()) {
    if (overrides.count(static_cast<uint32_t>(idx)) == 0) {
      open_unbound.push_back(&star.patterns[idx]);
    }
  }
  for (auto it = pairs.begin(); it != pairs.end();) {
    if (bound.count(it->first) > 0) {
      ++it;
      continue;
    }
    std::vector<std::string>& objects = it->second;
    objects.erase(std::remove_if(objects.begin(), objects.end(),
                                 [&](const std::string& o) {
                                   for (const TriplePattern* tp :
                                        open_unbound) {
                                     if (tp->object.Matches(o)) return false;
                                   }
                                   return true;
                                 }),
                  objects.end());
    if (objects.empty()) {
      it = pairs.erase(it);
    } else {
      ++it;
    }
  }
}

namespace {

// Separators a leaf is escaped for, innermost first: a subject is a
// top-level field, a property or object an item within an entry; both sit
// inside a record component.
constexpr std::string_view kFieldLeaf = "\x1F\x1E";
constexpr std::string_view kItemLeaf = ",\x1D\x1F\x1E";

// Appends tg's component in one pass: the structural separators are never
// escaped by an enclosing level, so only the leaves carry (composed)
// escapes.
void AppendAnnTg(std::string* out, const AnnTg& tg) {
  AppendEscapedNested(out, tg.subject, kFieldLeaf);
  out->push_back(kFieldSep);
  out->append(std::to_string(tg.star_id));
  out->push_back(kFieldSep);
  // pairs field: entries "prop,obj1,obj2,..."
  for (auto it = tg.pairs.begin(); it != tg.pairs.end(); ++it) {
    const auto& [property, objects] = *it;
    if (it != tg.pairs.begin()) out->push_back(kEntrySep);
    AppendEscapedNested(out, property, kItemLeaf);
    for (const std::string& o : objects) {
      out->push_back(kItemSep);
      AppendEscapedNested(out, o, kItemLeaf);
    }
  }
  out->push_back(kFieldSep);
  // overrides field: entries "tp_index,prop1,obj1,prop2,obj2,..."
  for (auto it = tg.overrides.begin(); it != tg.overrides.end(); ++it) {
    const auto& [tp_index, pinned] = *it;
    if (it != tg.overrides.begin()) out->push_back(kEntrySep);
    out->append(std::to_string(tp_index));
    for (const PropObj& po : pinned) {
      out->push_back(kItemSep);
      AppendEscapedNested(out, po.property, kItemLeaf);
      out->push_back(kItemSep);
      AppendEscapedNested(out, po.object, kItemLeaf);
    }
  }
}

// Parses a decimal uint32 that spans all of `text`.
bool ParseUint32(std::string_view text, uint32_t* value) {
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, *value);
  return ec == std::errc() && ptr == end && !text.empty();
}

}  // namespace

std::string AnnTg::Serialize() const {
  std::string out;
  AppendAnnTg(&out, *this);
  return out;
}

Result<AnnTg> AnnTg::Deserialize(std::string_view line) {
  TgRecordReader record;
  RDFMR_RETURN_NOT_OK(record.Read(line));
  if (record.components().size() != 1) {
    return Status::IoError("AnnTg record needs 1 component, got " +
                           std::to_string(record.components().size()));
  }
  return record.ToAnnTg(record.components().front());
}

Result<uint32_t> AnnTg::PeekStarId(std::string_view line) {
  EscapedFieldReader fields(line, kFieldSep);
  std::string_view subject, raw_id;
  if (!fields.Next(&subject) || !fields.Next(&raw_id)) {
    return Status::IoError("AnnTg record needs 4 fields");
  }
  std::string scratch;
  const std::string_view star_id = UnescapedView(raw_id, kFieldSep, &scratch);
  uint32_t value;
  if (!ParseUint32(star_id, &value)) {
    return Status::IoError("bad star id: " + std::string(star_id));
  }
  return value;
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
    return Status::IoError("AnnTg record needs 4 fields, got " +
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

AnnTg TgRecordReader::ToAnnTg(const Component& c) const {
  AnnTg tg;
  tg.subject = std::string(leaves_[c.subject]);
  tg.star_id = c.star_id;
  // Entries are written in map order: append at the end.
  for (uint32_t p = c.pairs_begin; p < c.pairs_end; ++p) {
    const Entry& e = pairs_[p];
    std::vector<std::string> objects(leaves_.begin() + e.begin + 1,
                                     leaves_.begin() + e.end);
    tg.pairs.emplace_hint(tg.pairs.end(), std::string(leaves_[e.begin]),
                          std::move(objects));
  }
  for (uint32_t o = c.overrides_begin; o < c.overrides_end; ++o) {
    const Entry& e = overrides_[o];
    std::vector<PropObj> pinned;
    pinned.reserve((e.end - e.begin) / 2);
    for (uint32_t i = e.begin; i < e.end; i += 2) {
      pinned.push_back(PropObj{std::string(leaves_[i]),
                               std::string(leaves_[i + 1])});
    }
    tg.overrides.emplace_hint(tg.overrides.end(), e.tp_index,
                              std::move(pinned));
  }
  return tg;
}

std::string JoinRecords(std::string_view left, std::string_view right) {
  std::string out;
  out.reserve(left.size() + 1 + right.size());
  out.append(left);
  out.push_back(kComponentSep);
  out.append(right);
  return out;
}

void AppendSpliced(std::string* out, std::string_view record,
                   std::string_view raw, const AnnTg& tg) {
  const size_t begin = static_cast<size_t>(raw.data() - record.data());
  out->append(record.substr(0, begin));
  AppendAnnTg(out, tg);
  out->append(record.substr(begin + raw.size()));
}

}  // namespace rdfmr

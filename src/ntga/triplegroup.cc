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
constexpr char kComponentSep = '\x1E';  // JoinedTg components
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

// Separators a leaf is escaped for, innermost first: a standalone AnnTg
// record, or one embedded as a JoinedTg component.
struct Nesting {
  std::string_view field;  // subject (top-level field)
  std::string_view item;   // property / object (item within an entry)
};
constexpr Nesting kRecord = {"\x1F", ",\x1D\x1F"};
constexpr Nesting kComponent = {"\x1F\x1E", ",\x1D\x1F\x1E"};

// Appends tg's record, escaped for `nesting`, in one pass: the structural
// separators are never escaped by an enclosing level, so only the leaves
// carry (composed) escapes.
void AppendAnnTg(std::string* out, const AnnTg& tg, const Nesting& nesting) {
  AppendEscapedNested(out, tg.subject, nesting.field);
  out->push_back(kFieldSep);
  out->append(std::to_string(tg.star_id));
  out->push_back(kFieldSep);
  // pairs field: entries "prop,obj1,obj2,..."
  for (auto it = tg.pairs.begin(); it != tg.pairs.end(); ++it) {
    const auto& [property, objects] = *it;
    if (it != tg.pairs.begin()) out->push_back(kEntrySep);
    AppendEscapedNested(out, property, nesting.item);
    for (const std::string& o : objects) {
      out->push_back(kItemSep);
      AppendEscapedNested(out, o, nesting.item);
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
      AppendEscapedNested(out, po.property, nesting.item);
      out->push_back(kItemSep);
      AppendEscapedNested(out, po.object, nesting.item);
    }
  }
}

// Parses a decimal uint32 that spans all of `text`.
bool ParseUint32(std::string_view text, uint32_t* value) {
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, *value);
  return ec == std::errc() && ptr == end && !text.empty();
}

// Reads the items of one pairs/overrides entry, unescaping each leaf
// straight into its destination.
class ItemReader {
 public:
  ItemReader(std::string_view raw_entry, std::string* scratch)
      : items_(UnescapedView(raw_entry, kEntrySep, scratch), kItemSep) {}

  bool Next(std::string* item) {
    std::string_view raw;
    if (!items_.Next(&raw)) return false;
    *item = UnescapeField(raw, kItemSep);
    return true;
  }

 private:
  EscapedFieldReader items_;
};

}  // namespace

std::string AnnTg::Serialize() const {
  std::string out;
  AppendAnnTg(&out, *this, kRecord);
  return out;
}

Result<AnnTg> AnnTg::Deserialize(std::string_view line) {
  std::string_view raw[4];
  size_t num_fields = 0;
  EscapedFieldReader fields(line, kFieldSep);
  for (std::string_view field; fields.Next(&field); ++num_fields) {
    if (num_fields < 4) raw[num_fields] = field;
  }
  if (num_fields != 4) {
    return Status::IoError("AnnTg record needs 4 fields, got " +
                           std::to_string(num_fields));
  }
  AnnTg tg;
  tg.subject = UnescapeField(raw[0], kFieldSep);
  std::string field_scratch, entry_scratch;
  const std::string_view star_id =
      UnescapedView(raw[1], kFieldSep, &field_scratch);
  if (!ParseUint32(star_id, &tg.star_id)) {
    return Status::IoError("bad star id: " + std::string(star_id));
  }
  std::string_view raw_entry;
  const std::string_view pairs =
      UnescapedView(raw[2], kFieldSep, &field_scratch);
  if (!pairs.empty()) {
    EscapedFieldReader entries(pairs, kEntrySep);
    while (entries.Next(&raw_entry)) {
      ItemReader items(raw_entry, &entry_scratch);
      std::string property;
      std::vector<std::string> objects;
      items.Next(&property);
      for (std::string object; items.Next(&object);) {
        objects.push_back(std::move(object));
      }
      if (objects.empty()) {
        return Status::IoError("bad pair entry: " +
                               UnescapeField(raw_entry, kEntrySep));
      }
      // Entries are written in map order: append at the end.
      tg.pairs.emplace_hint(tg.pairs.end(), std::move(property),
                            std::move(objects));
    }
  }
  const std::string_view overrides =
      UnescapedView(raw[3], kFieldSep, &field_scratch);
  if (!overrides.empty()) {
    EscapedFieldReader entries(overrides, kEntrySep);
    while (entries.Next(&raw_entry)) {
      ItemReader items(raw_entry, &entry_scratch);
      std::string index;
      items.Next(&index);
      uint32_t tp_index;
      if (!ParseUint32(index, &tp_index)) {
        return Status::IoError("bad override index: " + index);
      }
      std::vector<PropObj> pinned;
      for (PropObj po; items.Next(&po.property);) {
        if (!items.Next(&po.object)) {
          return Status::IoError("bad override entry: " +
                                 UnescapeField(raw_entry, kEntrySep));
        }
        pinned.push_back(std::move(po));
      }
      tg.overrides.emplace_hint(tg.overrides.end(), tp_index,
                                std::move(pinned));
    }
  }
  return tg;
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

const AnnTg* JoinedTg::ComponentForStar(uint32_t star_id) const {
  for (const AnnTg& c : components) {
    if (c.star_id == star_id) return &c;
  }
  return nullptr;
}

std::string JoinedTg::Serialize() const {
  std::string out;
  for (const AnnTg& c : components) {
    if (&c != &components.front()) out.push_back(kComponentSep);
    AppendAnnTg(&out, c, kComponent);
  }
  return out;
}

Result<JoinedTg> JoinedTg::Deserialize(std::string_view line) {
  JoinedTg out;
  std::string scratch;
  EscapedFieldReader parts(line, kComponentSep);
  for (std::string_view raw; parts.Next(&raw);) {
    RDFMR_ASSIGN_OR_RETURN(
        AnnTg tg, AnnTg::Deserialize(UnescapedView(raw, kComponentSep, &scratch)));
    out.components.push_back(std::move(tg));
  }
  return out;
}

}  // namespace rdfmr

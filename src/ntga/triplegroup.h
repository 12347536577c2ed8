// The TripleGroup data model (NTGA), extended for unbound-property queries.
//
// An annotated triplegroup is the paper's "extended multi-map": a subject,
// the star subpattern (equivalence class) it matches, and the subject's
// (Property, Object) pairs stored once, with multi-valued properties
// nested under a single property entry. This implicit representation is
// what keeps intermediate results concise.
//
// The overrides record the outcome of (partial) β-unnesting: for an
// unbound-property triple pattern (identified by its index within the
// star), the candidate (Property, Object) pairs have been restricted to a
// subset — a single pair after a full β-unnest ("perfect" triplegroup), or
// a φ_m partition after a partial β-unnest. Patterns without an override
// keep the full implicit candidate set (every pair of the group that
// passes the pattern's object constraint).
//
// A triplegroup exists only as record text, written by TgWriter and read
// as views by TgRecordReader. A record is one or more components separated
// by '\x1E', each "subject \x1F star_id \x1F pairs \x1F overrides". A
// grouping cycle writes one-component records; a join's record is its two
// input records side by side (the paper's TG_Join nests its inputs
// unchanged). Records are canonical: reading one and writing its
// components again yields the same bytes, so μ^β / μ^β_φm rewrite a
// component in place and pass every other byte through.

#ifndef RDFMR_NTGA_TRIPLEGROUP_H_
#define RDFMR_NTGA_TRIPLEGROUP_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace rdfmr {

/// \brief One (Property, Object) pair of a triplegroup, as views of its
/// unescaped values.
struct PropObj {
  std::string_view property;
  std::string_view object;

  bool operator==(const PropObj& o) const {
    return property == o.property && object == o.object;
  }
  bool operator<(const PropObj& o) const {
    if (property != o.property) return property < o.property;
    return object < o.object;
  }
};

/// \brief Reads only the star_id field of a record's first component,
/// scanning no further than the second field separator (cheap path used
/// by MultipleOutputs demuxing).
Result<uint32_t> PeekStarId(std::string_view line);

/// \brief The record grammar's one writer: appends one component to
/// `*out`, escaping each leaf for every level it is nested in. The
/// constructor writes the subject and star id; then come the pairs (each
/// property in byte order with Property, then its sorted distinct objects
/// with Object), EndPairs, and the overrides (each pattern index in
/// numeric order with Override, then its pairs with Pinned). The writer
/// keeps only where its open field starts, so a caller may cut `*out` back
/// to the end of the pairs and write other overrides.
class TgWriter {
 public:
  TgWriter(std::string* out, std::string_view subject, uint32_t star_id);

  /// \brief Opens a pairs entry; at least one Object must follow.
  void Property(std::string_view property);
  void Object(std::string_view object);

  /// \brief Closes the pairs field and opens the overrides field.
  void EndPairs();

  /// \brief Opens the overrides entry of pattern `tp_index`.
  void Override(uint32_t tp_index);
  void Pinned(std::string_view property, std::string_view object);

 private:
  std::string* out_;
  size_t field_begin_;  // where the open field starts in *out_
};

/// \brief The record grammar's one reader: reads a record into views. The
/// join cycles, μ^β / μ^β_φm and answer decoding all read records through
/// it.
///
/// A leaf (subject, property or object) is a view into the parsed line,
/// or, when it carried escapes, into the reader's own storage. Views stay
/// valid until the next Read, and a component's `raw` span as long as the
/// line; the reader reuses its buffers across reads.
class TgRecordReader {
 public:
  /// \brief A pairs entry (leaf `begin` is the property, the rest its
  /// objects) or an overrides entry (pattern `tp_index`, then alternating
  /// property and object leaves): leaves [begin, end).
  struct Entry {
    uint32_t tp_index = 0;
    uint32_t begin = 0;
    uint32_t end = 0;
  };

  /// \brief One triplegroup: its bytes in the line (without the '\x1E'
  /// separators), its subject leaf and its entry ranges.
  struct Component {
    std::string_view raw;
    uint32_t subject = 0;
    uint32_t star_id = 0;
    uint32_t pairs_begin = 0;
    uint32_t pairs_end = 0;
    uint32_t overrides_begin = 0;
    uint32_t overrides_end = 0;
  };

  TgRecordReader() = default;
  /// A copy starts empty: a read's state views its own reader's buffers.
  TgRecordReader(const TgRecordReader&) {}
  TgRecordReader& operator=(const TgRecordReader&) { return *this; }

  /// \brief Parses a record, one component per star reached.
  Status Read(std::string_view line);

  const std::vector<Component>& components() const { return components_; }
  const std::vector<Entry>& pairs() const { return pairs_; }
  const std::vector<Entry>& overrides() const { return overrides_; }
  const std::vector<std::string_view>& leaves() const { return leaves_; }
  /// \brief The line last read; components' `raw` spans point into it.
  std::string_view line() const { return line_; }

 private:
  Status AppendComponent(std::string_view component);
  std::string_view Unescaped(std::string_view raw, char sep);

  std::string_view line_;
  std::vector<Component> components_;
  std::vector<Entry> pairs_;
  std::vector<Entry> overrides_;
  std::vector<std::string_view> leaves_;
  // Unescaped copies of whatever carried escapes, each in its own string
  // so views into it survive later appends.
  std::vector<std::unique_ptr<std::string>> unescaped_;
  size_t num_unescaped_ = 0;
  bool escapes_ = false;  // the line being read holds a backslash
};

/// \brief A join's record: its two input records side by side.
std::string JoinRecords(std::string_view left, std::string_view right);

}  // namespace rdfmr

#endif  // RDFMR_NTGA_TRIPLEGROUP_H_

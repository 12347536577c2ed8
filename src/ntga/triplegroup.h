// The TripleGroup data model (NTGA), extended for unbound-property queries.
//
// An annotated triplegroup (AnnTG) is the paper's "extended multi-map":
// a subject, the star subpattern (equivalence class) it matches, and the
// subject's (Property, Object) pairs stored once, with multi-valued
// properties nested under a single property entry. This implicit
// representation is what keeps intermediate results concise.
//
// The `overrides` map records the outcome of (partial) β-unnesting: for an
// unbound-property triple pattern (identified by its index within the
// star), the candidate (Property, Object) pairs have been restricted to a
// subset — a single pair after a full β-unnest ("perfect" triplegroup), or
// a φ_m partition after a partial β-unnest. Patterns without an override
// keep the full implicit candidate set (every pair of the group that
// passes the pattern's object constraint).
//
// One record grammar: a record is one or more components separated by
// '\x1E', each an AnnTg::Serialize() text. A grouping cycle writes
// one-component records; a join's record is its two input records side by
// side, joined by '\x1E' (the paper's TG_Join nests its inputs unchanged).
// Only the component at an unbound join site is ever rebuilt (μ^β /
// μ^β_φm pin it), and it is spliced back in place. Records are canonical:
// reading one and serializing its components again yields the same bytes.

#ifndef RDFMR_NTGA_TRIPLEGROUP_H_
#define RDFMR_NTGA_TRIPLEGROUP_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "query/pattern.h"
#include "rdf/triple.h"

namespace rdfmr {

/// \brief One (Property, Object) pair of a triplegroup.
struct PropObj {
  std::string property;
  std::string object;

  bool operator==(const PropObj& o) const {
    return property == o.property && object == o.object;
  }
  bool operator<(const PropObj& o) const {
    if (property != o.property) return property < o.property;
    return object < o.object;
  }
};

/// \brief Nested property map: property -> sorted distinct objects.
using PropMap = std::map<std::string, std::vector<std::string>>;

/// \brief Annotated triplegroup.
class AnnTg {
 public:
  std::string subject;
  /// Equivalence class: index of the star subpattern this group matches.
  uint32_t star_id = 0;
  /// The group's (Property, Object) pairs, nested per property.
  PropMap pairs;
  /// β-unnest state: unbound-pattern index -> restricted candidate pairs.
  std::map<uint32_t, std::vector<PropObj>> overrides;

  /// \brief Adds a pair (idempotent; keeps objects sorted and distinct).
  void AddPair(const std::string& property, const std::string& object);

  /// \brief True if `property` is present.
  bool HasProperty(const std::string& property) const {
    return pairs.count(property) > 0;
  }

  /// \brief All pairs, flattened in property order.
  std::vector<PropObj> AllPairs() const;

  /// \brief Number of (Property, Object) pairs.
  size_t PairCount() const;

  /// \brief Reconstructs the triples this group represents (its pairs plus
  /// any override pairs, deduplicated).
  std::vector<Triple> ToTriples() const;

  /// \brief Drops pairs that nothing can consume anymore: a pair stays only
  /// if its property is bound in `star`, or it satisfies the object
  /// constraint of an unbound pattern that has no override yet. A fully
  /// β-unnested ("perfect") triplegroup thus sheds its candidate list
  /// before serialization; a partially pinned one keeps only the candidates
  /// its remaining unbound patterns can still use.
  void Compact(const StarPattern& star);

  /// \brief Serializes as one record component; a one-component record
  /// is exactly this text.
  std::string Serialize() const;

  /// \brief Parses a one-component record.
  static Result<AnnTg> Deserialize(std::string_view line);

  /// \brief Reads only the star_id field of a record's first component,
  /// scanning no further than the second field separator (cheap path used
  /// by MultipleOutputs demuxing).
  static Result<uint32_t> PeekStarId(std::string_view line);

  bool operator==(const AnnTg& o) const {
    return subject == o.subject && star_id == o.star_id && pairs == o.pairs &&
           overrides == o.overrides;
  }
};

/// \brief The record grammar's one parser: reads a record into views,
/// building no AnnTg values. AnnTg::Deserialize builds its value from it;
/// the join cycles and answer decoding read it directly.
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

  /// \brief Parses a record, one component per star reached.
  Status Read(std::string_view line);

  const std::vector<Component>& components() const { return components_; }
  const std::vector<Entry>& pairs() const { return pairs_; }
  const std::vector<Entry>& overrides() const { return overrides_; }
  const std::vector<std::string_view>& leaves() const { return leaves_; }

  /// \brief Builds the AnnTg of component `c`.
  AnnTg ToAnnTg(const Component& c) const;

 private:
  Status AppendComponent(std::string_view component);
  std::string_view Unescaped(std::string_view raw, char sep);

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

/// \brief Appends `record` to `*out` with one component replaced by `tg`'s
/// serialization; `raw` is that component's span, a view into `record` as
/// TgRecordReader reports it.
void AppendSpliced(std::string* out, std::string_view record,
                   std::string_view raw, const AnnTg& tg);

}  // namespace rdfmr

#endif  // RDFMR_NTGA_TRIPLEGROUP_H_

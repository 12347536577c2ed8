// The engine-level triple representation: three flat strings.
//
// Terms are pre-resolved to compact identifiers ("gene9", "xGO", literal
// text). The engines serialize triples into tab-separated record lines so
// every byte the simulated cluster moves is real and measurable. On the
// engine paths the line is the only form of a triple: scans and reducers
// read it as views (TripleReader, TripleViews) and write matched triples
// as their lines; an owning Triple is built only by the loader, the
// oracle, dataset I/O and tests.

#ifndef RDFMR_RDF_TRIPLE_H_
#define RDFMR_RDF_TRIPLE_H_

#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace rdfmr {

/// \brief A (Subject, Property, Object) triple over compact identifiers.
struct Triple {
  std::string subject;
  std::string property;
  std::string object;

  Triple() = default;
  Triple(std::string s, std::string p, std::string o)
      : subject(std::move(s)), property(std::move(p)), object(std::move(o)) {}

  bool operator==(const Triple& o) const {
    return subject == o.subject && property == o.property &&
           object == o.object;
  }
  bool operator<(const Triple& o) const {
    if (subject != o.subject) return subject < o.subject;
    if (property != o.property) return property < o.property;
    return object < o.object;
  }

  /// \brief Tab-separated record line (fields escaped for embedded tabs).
  std::string Serialize() const;

  /// \brief Parses a line produced by Serialize(): TripleReader's read,
  /// then a copy of each field.
  static Result<Triple> Deserialize(std::string_view line);

  /// \brief Approximate in-memory / on-disk footprint of this triple.
  size_t ByteSize() const {
    return subject.size() + property.size() + object.size() + 3;
  }
};

/// \brief A triple read as views of its fields, and the line it was read
/// from. Ordered and compared by field values, as Triple is.
struct TripleView {
  std::string_view subject;
  std::string_view property;
  std::string_view object;
  std::string_view line;

  bool operator==(const TripleView& o) const {
    return subject == o.subject && property == o.property &&
           object == o.object;
  }
  bool operator<(const TripleView& o) const {
    if (subject != o.subject) return subject < o.subject;
    if (property != o.property) return property < o.property;
    return object < o.object;
  }

  /// \brief Appends the line Triple::Serialize() writes for these fields:
  /// the line itself when it holds no backslash and no newline (it is
  /// canonical then), else the fields escaped again.
  void AppendLine(std::string* out) const;
};

/// \brief The one reader of the triple line. Read() splits a line into its
/// three fields as views, copying a field into the reader's scratch only
/// when it holds an escape. The view is valid until the next Read() and
/// while the line lives.
class TripleReader {
 public:
  /// \brief IoError unless the line has exactly 3 fields (the lines
  /// Deserialize rejects).
  Status Read(std::string_view line);

  const TripleView& view() const { return view_; }
  /// \brief True iff the line last read holds a backslash, so a field of
  /// view() may point into the reader.
  bool escaped() const { return escaped_; }

 private:
  TripleView view_;
  std::string scratch_[3];
  bool escaped_ = false;
};

/// \brief The triples of one reduce group, read as views that stay valid
/// together: a line without escapes is viewed in place and must outlive
/// the views; the fields of a line with escapes are copied here.
class TripleViews {
 public:
  /// \brief Reads `line`; on TripleReader's IoError adds nothing.
  Status Add(std::string_view line);

  /// \brief Sorts the views in Triple's order and drops repeats: the
  /// triples a std::set<Triple> of the lines would hold.
  void SortDistinct();

  /// \brief Drops every view for the next group, keeping the view
  /// vector's memory: a reducer holds one TripleViews per task.
  void Clear();

  const std::vector<TripleView>& views() const { return views_; }

 private:
  TripleReader reader_;
  std::vector<TripleView> views_;
  std::deque<std::string> unescaped_;  // fields of escaped lines
};

/// \brief Serializes a batch of triples, one record line each.
std::vector<std::string> SerializeTriples(const std::vector<Triple>& triples);

}  // namespace rdfmr

#endif  // RDFMR_RDF_TRIPLE_H_

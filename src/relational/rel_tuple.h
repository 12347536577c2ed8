// Relational n-tuple records of (joined) star matches, and their one
// reader (RelRecordReader).
//
// A star-join over k triple patterns yields tuples of relational arity 3k —
// (Sub, Prop, Obj) columns per pattern, subject repeated in every column
// group, exactly as the paper describes for vertically-partitioned
// relational processing. This repetition *is* the redundancy under study:
// the byte footprint of these tuples is what the relational engines ship
// between MR cycles. There is one writing rule: a star join's record is
// its matched triples' lines side by side (an unmatched OPTIONAL column is
// three empty fields), and a join's record is its two input records side
// by side (JoinTupleRecords). Every consumer reads records through
// RelRecordReader.

#ifndef RDFMR_RELATIONAL_REL_TUPLE_H_
#define RDFMR_RELATIONAL_REL_TUPLE_H_

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "query/pattern.h"
#include "query/solution.h"

namespace rdfmr {

/// \brief The schema of a relational intermediate: the ordered triple
/// patterns whose matches the tuple columns hold.
using RelSchema = std::vector<TriplePattern>;

/// \brief A joined tuple's record: its two input records side by side.
std::string JoinTupleRecords(std::string_view left, std::string_view right);

/// \brief Reads records of one schema. Read() splits a line into field
/// views, copying a field only when it carried an escape, and binds them to
/// the schema's variable slots as BindTriplePattern would bind column after
/// column; an all-empty column of an OPTIONAL pattern binds nothing. The
/// binding plan is built once and shared by copies, and Read() writes only
/// the copy's buffers: a closure run on several threads reads through a
/// copy of its reader.
class RelRecordReader {
 public:
  static constexpr size_t kNoSlot = static_cast<size_t>(-1);

  explicit RelRecordReader(const RelSchema& schema);

  /// \brief IoError when the line has not 3k fields; InvalidArgument for
  /// an all-empty mandatory column, or a column that mismatches its
  /// pattern or an earlier binding.
  Status Read(std::string_view line);

  /// \brief The schema's variables, sorted; slot k binds variables()[k].
  const std::vector<std::string>& variables() const { return plan_->vars; }
  /// \brief The slot of `var`, or kNoSlot.
  size_t SlotOf(std::string_view var) const;
  /// \brief The slot field 3i+j (subject, property, object of pattern i)
  /// binds, or kNoSlot.
  size_t FieldSlot(size_t field) const { return plan_->field_slot[field]; }

  /// \brief The last Read()'s line and bindings. A value views the line
  /// or this reader, until the next Read().
  std::string_view line() const { return line_; }
  bool bound(size_t slot) const { return bound_[slot]; }
  std::string_view value(size_t slot) const { return values_[slot]; }

 private:
  struct Plan {
    RelSchema schema;
    std::vector<std::string> vars;
    /// Field 3i+j (j: subject, property, object of pattern i) binds slot
    /// field_slot[3i+j], or kNoSlot.
    std::vector<size_t> field_slot;
  };

  std::shared_ptr<const Plan> plan_;
  std::string_view line_;
  std::vector<std::string_view> fields_;
  std::vector<std::string> scratch_;  ///< unescaped copies of fields
  std::vector<std::string_view> values_;
  std::vector<bool> bound_;
};

/// \brief Decodes relational output lines (tuples of `reader`'s schema)
/// into a solution set, reading every line with `reader`, a copy of the
/// caller's; the first rejected line fails the decode with the reader's
/// Status.
Result<SolutionSet> DecodeRelationalAnswers(
    RelRecordReader reader, std::span<const std::string> lines);

}  // namespace rdfmr

#endif  // RDFMR_RELATIONAL_REL_TUPLE_H_

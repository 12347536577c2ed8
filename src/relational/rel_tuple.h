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
// three empty fields; the matches come from the one star walk,
// query/star_walk.h), and a join's record is its two input records side
// by side (JoinTupleRecords). Every consumer reads records through
// RelRecordReader, which binds through the same SlotPlan.

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
#include "query/star_walk.h"

namespace rdfmr {

/// \brief The schema of a relational intermediate: the ordered triple
/// patterns whose matches the tuple columns hold.
using RelSchema = std::vector<TriplePattern>;

/// \brief A joined tuple's record: its two input records side by side.
std::string JoinTupleRecords(std::string_view left, std::string_view right);

/// \brief Reads records of one schema. Read() splits a line into field
/// views, copying a field only when it carried an escape, and binds them to
/// the schema's variable slots (its SlotPlan) as BindTriplePattern would
/// bind column after column; an all-empty column of an OPTIONAL pattern
/// binds nothing. The plan is built once and shared by copies, and Read()
/// writes only the copy's buffers: a closure run on several threads reads
/// through a copy of its reader.
class RelRecordReader {
 public:
  static constexpr size_t kNoSlot = rdfmr::kNoSlot;

  explicit RelRecordReader(const RelSchema& schema);

  /// \brief IoError when the line has not 3k fields; InvalidArgument for
  /// an all-empty mandatory column, or a column that mismatches its
  /// pattern or an earlier binding.
  Status Read(std::string_view line);

  /// \brief The schema's variables, sorted; slot k binds variables()[k].
  const std::vector<std::string>& variables() const {
    return plan_->variables();
  }
  /// \brief The slot of `var`, or kNoSlot.
  size_t SlotOf(std::string_view var) const { return plan_->SlotOf(var); }

  /// \brief The last Read()'s line and bindings. A value views the line
  /// or this reader, until the next Read().
  std::string_view line() const { return line_; }
  bool bound(size_t slot) const { return bound_[slot]; }
  std::string_view value(size_t slot) const { return values_[slot]; }

 private:
  std::shared_ptr<const SlotPlan> plan_;
  std::string_view line_;
  std::vector<std::string_view> fields_;
  std::vector<std::string> scratch_;  ///< unescaped copies of fields
  std::vector<std::string_view> values_;
  std::vector<bool> bound_;
};

/// \brief The answer grammar of `schema`-wide tuples over the schema's
/// variables: one row per tuple, read by a copy of one RelRecordReader
/// (its plan built once, here); the first rejected line fails with the
/// reader's Status.
AnswerDecoder RelationalAnswerDecoder(const RelSchema& schema);

}  // namespace rdfmr

#endif  // RDFMR_RELATIONAL_REL_TUPLE_H_

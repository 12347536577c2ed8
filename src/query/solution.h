// Solution mappings (variable -> value bindings), their canonical line,
// and the answer table every engine decodes into.
//
// A Solution is one mapping: the in-memory oracle's own form, apart from
// the engines' code so the judge stays independent. A SolutionSet is a
// whole answer: a header of variable names, fixed-width rows of term
// handles (one per variable slot, kUnbound for an unmatched OPTIONAL), and
// an arena holding each distinct term once. The table is sorted and
// deduplicated once, in the canonical Solution order, so cross-engine
// answer comparison (the Lemma 1 content-equivalence check) is a direct
// table comparison. Rows are appended, and a table is finished once per
// answer: an AnswerDecoder appends rows to a caller's Builder, and its
// Decode (or a ChunkedDecode's Finish, for chunks appended concurrently)
// is the call that finishes a table from records. The
// canonical line has one writer (AppendBinding) and one reader
// (SolutionLineReader).

#ifndef RDFMR_QUERY_SOLUTION_H_
#define RDFMR_QUERY_SOLUTION_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iterator>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"

namespace rdfmr {

/// \brief One solution mapping: variable name -> bound value.
///
/// Stored as a flat vector of (variable, value) pairs sorted by variable:
/// solutions bind a handful of variables, so a sorted vector is smaller
/// and faster to copy, merge and compare than a node-based map, while its
/// iteration order, ordering and Serialize() are exactly the map's.
class Solution {
 public:
  using Binding = std::pair<std::string, std::string>;

  Solution() = default;

  /// \brief Binds `var` to `value`. Returns false (and changes nothing) if
  /// `var` is already bound to a different value — the consistency rule for
  /// merging partial matches.
  bool Bind(std::string_view var, std::string_view value);

  /// \brief Returns the value bound to `var`, or nullptr.
  const std::string* Get(std::string_view var) const;

  bool Has(std::string_view var) const { return Get(var) != nullptr; }

  size_t size() const { return bindings_.size(); }

  /// \brief Reserves room for `n` bindings.
  void Reserve(size_t n) { bindings_.reserve(n); }

  /// \brief The bindings, sorted by variable.
  const std::vector<Binding>& bindings() const { return bindings_; }

  /// \brief True iff every variable bound in both solutions has the same
  /// value in each (their merge is consistent).
  bool CompatibleWith(const Solution& other) const;

  /// \brief Merges `other` into this solution in place. Returns false and
  /// leaves this solution unchanged if the two are inconsistent.
  bool MergeInto(const Solution& other);

  /// \brief Canonical line: "var=value;var=value" sorted by var, escaped.
  std::string Serialize() const;

  bool operator==(const Solution& o) const { return bindings_ == o.bindings_; }
  bool operator<(const Solution& o) const { return bindings_ < o.bindings_; }

 private:
  std::vector<Binding> bindings_;
};

/// \brief A set of solutions (set semantics, as produced by BGP matching on
/// set-based RDF graphs), stored as one sorted table.
///
/// The header holds the variables bound in at least one row, sorted; slot
/// k of a row is variables()[k]. A handle indexes the table's term arena,
/// which holds exactly the terms the rows use, sorted, so handle order is
/// term order and two tables hold the same solutions iff they are equal
/// member by member. Rows are in canonical Solution order (operator<)
/// without duplicates.
class SolutionSet {
 public:
  using Handle = uint32_t;
  /// The handle of an unbound slot (an unmatched OPTIONAL pattern).
  static constexpr Handle kUnbound = std::numeric_limits<Handle>::max();

  class Builder;

  /// \brief Input iterator over rows; dereferencing builds the row's
  /// Solution.
  class const_iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = Solution;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = Solution;

    // operator-> reaches into a Solution that lives to the end of the full
    // expression.
    struct Arrow {
      Solution solution;
      const Solution* operator->() const { return &solution; }
    };

    const_iterator() = default;
    Solution operator*() const { return set_->Row(row_); }
    Arrow operator->() const { return Arrow{set_->Row(row_)}; }
    const_iterator& operator++() {
      ++row_;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator before = *this;
      ++row_;
      return before;
    }
    bool operator==(const const_iterator& o) const { return row_ == o.row_; }
    bool operator!=(const const_iterator& o) const { return row_ != o.row_; }

   private:
    friend class SolutionSet;
    const_iterator(const SolutionSet* set, size_t row) : set_(set), row_(row) {}
    const SolutionSet* set_ = nullptr;
    size_t row_ = 0;
  };
  SolutionSet() = default;

  /// \brief The set of `solutions` (any order, duplicates allowed).
  explicit SolutionSet(const std::vector<Solution>& solutions);

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, size_); }

  /// \brief The sorted variable names; slot k holds variables()[k].
  const std::vector<std::string>& variables() const { return variables_; }

  /// \brief Handle at (row, slot), or kUnbound.
  Handle handle(size_t row, size_t slot) const {
    return cells_[row * variables_.size() + slot];
  }

  /// \brief The term a (bound) handle stands for.
  std::string_view term(Handle h) const {
    return std::string_view(arena_).substr(offsets_[h],
                                           offsets_[h + 1] - offsets_[h]);
  }

  /// \brief Row `row` as a Solution.
  Solution Row(size_t row) const;

  /// \brief Appends row `row`'s canonical line (Solution::Serialize) to
  /// `*out`.
  void AppendSerialized(size_t row, std::string* out) const;

  bool operator==(const SolutionSet& o) const {
    return size_ == o.size_ && variables_ == o.variables_ &&
           offsets_ == o.offsets_ && arena_ == o.arena_ && cells_ == o.cells_;
  }
  bool operator!=(const SolutionSet& o) const { return !(*this == o); }

 private:
  std::vector<std::string> variables_;
  // Term h is arena_[offsets_[h], offsets_[h + 1]); terms sorted, distinct.
  std::string arena_;
  std::vector<uint32_t> offsets_{0};
  std::vector<Handle> cells_;  // size_ rows of variables_.size() handles
  size_t size_ = 0;
};

/// \brief The slot a variable list has no entry for.
inline constexpr size_t kNoSlot = static_cast<size_t>(-1);

/// \brief The slot of `var` in `variables` (sorted and distinct, slot k
/// naming variables[k]), or kNoSlot.
size_t SlotOf(std::span<const std::string> variables, std::string_view var);

/// \brief Fills a SolutionSet: terms are interned into handles as rows are
/// added, and Finish() sorts and deduplicates the rows once.
class SolutionSet::Builder {
 public:
  /// `variables` are the slot names, sorted and distinct.
  explicit Builder(std::vector<std::string> variables);

  size_t width() const { return variables_.size(); }
  const std::vector<std::string>& variables() const { return variables_; }

  /// \brief The handle of `term`, adding it on first sight. Equal terms
  /// get equal handles, so handle equality is term equality.
  Handle Intern(std::string_view term);

  /// \brief The term of a handle Intern returned; valid until the next
  /// Intern.
  std::string_view term(Handle h) const {
    return std::string_view(arena_).substr(offsets_[h],
                                           offsets_[h + 1] - offsets_[h]);
  }

  /// \brief Adds a row of width() handles (kUnbound where unbound).
  void AddRow(const Handle* row) {
    cells_.insert(cells_.end(), row, row + width());
    ++rows_;
  }

  /// \brief The rows added so far, width() handles each, duplicates kept.
  std::span<const Handle> cells() const { return cells_; }

  /// \brief Appends the rows of `other`, a builder over the same
  /// variables, after this one's: its terms are interned here and its
  /// cells remapped to their handles.
  void Absorb(const Builder& other);

  /// \brief The finished table; the builder is left empty.
  SolutionSet Finish();

  /// \brief Drops every term and row, keeping the variables and the
  /// memory, for a builder reused from call to call.
  void Clear();

 private:
  void Grow();

  std::vector<std::string> variables_;
  std::string arena_;
  std::vector<uint32_t> offsets_{0};
  std::vector<Handle> index_;  // open addressing over handles
  std::vector<Handle> cells_;
  size_t rows_ = 0;
};

/// \brief Appends one "var=value" entry of a canonical line (entries go in
/// variable order, separated unless `first`) to `*out`.
void AppendBinding(std::string* out, bool first, std::string_view var,
                   std::string_view value);

/// \brief Appends the canonical line of `row`, handles over `variables`
/// whose terms `terms` (a SolutionSet or a Builder) holds, to `*out`.
template <typename Terms>
void AppendRowLine(std::span<const std::string> variables,
                   const SolutionSet::Handle* row, const Terms& terms,
                   std::string* out) {
  bool first = true;
  for (size_t k = 0; k < variables.size(); ++k) {
    if (row[k] == SolutionSet::kUnbound) continue;
    AppendBinding(out, first, variables[k], terms.term(row[k]));
    first = false;
  }
}

/// \brief Reads canonical lines into views, unescaping into reused buffers
/// only an entry that holds an escape.
class SolutionLineReader {
 public:
  using Binding = std::pair<std::string_view, std::string_view>;

  /// \brief IoError on an entry that is not one "var=value" pair or that
  /// ends in a truncated escape, and on a variable bound to two values.
  Status Read(std::string_view line);

  /// \brief The last Read()'s bindings, sorted by variable, each variable
  /// once. They view the line or this reader, until the next Read().
  const std::vector<Binding>& bindings() const { return bindings_; }

 private:
  std::string entry_, leaf_;  // one entry's and one leaf's unescaping
  std::string text_;          // the line's unescaped variables and values
  std::vector<Binding> bindings_;
};

/// \brief An answer grammar: the variables its rows bind (sorted and
/// distinct), and `append`, which appends the rows of a span of lines to a
/// builder over them and fails on the first line it rejects. Its reused
/// readers live for one call, so a caller hands over many lines at once;
/// no line's rows depend on another's, so calls on distinct builders may
/// run concurrently.
struct AnswerDecoder {
  std::vector<std::string> variables;
  std::function<Status(std::span<const std::string> lines,
                       SolutionSet::Builder* builder)>
      append;

  /// \brief The table of every line of `files`: one builder over
  /// `variables`, every file appended, Finish() once.
  Result<SolutionSet> Decode(
      std::span<const std::span<const std::string>> files) const;
  Result<SolutionSet> operator()(std::span<const std::string> lines) const {
    return Decode({&lines, 1});
  }
};

/// \brief One decode of answer files cut into chunks of kLines lines each,
/// so the chunks can append concurrently: chunk c appends its lines into
/// its own builder (Append, safe to call for distinct chunks at once), and
/// Finish absorbs the builders of a range of files in chunk order and
/// finishes that table once. The table equals the decoder's serial
/// Decode of those files, and so does the error: the first rejected
/// line's, in file order. The decoder and the files' lines must outlive
/// this object.
class ChunkedDecode {
 public:
  static constexpr size_t kLines = 1024;

  ChunkedDecode(const AnswerDecoder& decoder,
                std::span<const std::span<const std::string>> files);

  /// \brief The number of chunks; an empty file has none.
  size_t size() const { return chunks_.size(); }

  /// \brief Appends chunk `c`'s lines into its builder.
  void Append(size_t c);

  /// \brief The table of files [first, last), once each of their chunks
  /// has appended.
  Result<SolutionSet> Finish(size_t first, size_t last);

 private:
  struct Chunk {
    std::span<const std::string> lines;
    SolutionSet::Builder builder;
    Status status;
  };

  const AnswerDecoder& decoder_;
  std::vector<Chunk> chunks_;
  std::vector<size_t> file_chunks_;  // file f: chunks [f-th, (f+1)-th)
};

/// \brief The grammar of canonical lines over a fixed header `variables`
/// (sorted and distinct): IoError on a line SolutionLineReader rejects and
/// on a line that binds a variable outside the header.
AnswerDecoder SolutionLineDecoder(std::vector<std::string> variables);

}  // namespace rdfmr

#endif  // RDFMR_QUERY_SOLUTION_H_

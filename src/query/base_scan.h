// Scans of the base triple relation, and the join-tag grammar.
//
// Every plan opens the same way: it scans the triple relation for the
// query's patterns (Pig's VP split, Hive's shared scan, NTGA's γ_S scan)
// and groups by subject. Each such scan is a BaseScan compiled by
// MakeBaseScan: it reads a line with TripleReader, counts a line the
// reader rejects as bad_records, matches the triple against its patterns
// and emits the raw line. Its vertical-partition hint is derived from the
// same patterns, so the hint and the mapper cannot disagree.
//
// A value shipped to a join reducer is `tag|record`: JoinTagged is its one
// writer and SplitJoinTag its one reader.

#ifndef RDFMR_QUERY_BASE_SCAN_H_
#define RDFMR_QUERY_BASE_SCAN_H_

#include <string>
#include <string_view>
#include <vector>

#include "mapreduce/job.h"
#include "query/pattern.h"

namespace rdfmr {

/// \brief What a base scan keys an emission by.
enum class ScanKey {
  kSubject,   ///< the triple's subject
  /// The field that holds BaseScan::key_variable in the matched pattern.
  /// The triple is then read as the one-column tuple a relational join
  /// reads: an all-empty triple is that grammar's null column, skipped.
  kVariable,
  kNone,  ///< the empty key
};

/// \brief One scan of the base relation, compiled by MakeBaseScan.
struct BaseScan {
  /// A triple is emitted when it matches one of these (MatchesTriplePattern).
  /// None: a pure rescan, whose hint selects nothing and whose mapper
  /// neither reads nor emits.
  std::vector<TriplePattern> patterns{};
  ScanKey key = ScanKey::kSubject;
  std::string key_variable{};  ///< with ScanKey::kVariable
  /// Non-empty: each value is JoinTagged(tag, line), else the line.
  std::string tag{};
  /// Emit a triple once per pattern it matches (its membership in several
  /// VP relations), else once.
  bool per_pattern = false;
  /// Bumped once per emission; empty for none.
  std::string counter{};
};

/// \brief The scan of `path` that `scan` describes: its mapper, and the
/// hint naming every pattern's property constant (null, scan everything,
/// when a pattern's property is a variable). The hint is sound because the
/// mapper neither emits nor counts for a well-formed triple that matches no
/// pattern.
MapInput MakeBaseScan(std::string path, BaseScan scan);

/// \brief A value for a join reducer: `tag|record`.
std::string JoinTagged(std::string_view tag, std::string_view record);

/// \brief Splits a join value into its tag and record; false when it
/// carries no tag.
bool SplitJoinTag(std::string_view value, std::string_view* tag,
                  std::string_view* record);

}  // namespace rdfmr

#endif  // RDFMR_QUERY_BASE_SCAN_H_

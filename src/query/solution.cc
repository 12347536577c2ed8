#include "query/solution.h"

#include <algorithm>
#include <iterator>

#include "common/strings.h"

namespace rdfmr {

namespace {
// Nested separators of the canonical line; a var or value is escaped for
// '=' first, then the whole "var=value" entry for ';'.
constexpr char kEntrySep = ';';
constexpr char kKeyValueSep = '=';
constexpr std::string_view kLeafSeps = "=;";

bool VarLess(const Solution::Binding& b, std::string_view var) {
  return b.first < var;
}
}  // namespace

bool Solution::Bind(std::string_view var, std::string_view value) {
  // Canonical lines and ordered builders bind in variable order: append.
  auto it = bindings_.end();
  if (!bindings_.empty() && !(bindings_.back().first < var)) {
    it = std::lower_bound(bindings_.begin(), bindings_.end(), var, VarLess);
    if (it->first == var) return it->second == value;
  }
  bindings_.emplace(it, std::string(var), std::string(value));
  return true;
}

const std::string* Solution::Get(std::string_view var) const {
  auto it = std::lower_bound(bindings_.begin(), bindings_.end(), var, VarLess);
  return it == bindings_.end() || it->first != var ? nullptr : &it->second;
}

bool Solution::CompatibleWith(const Solution& other) const {
  auto a = bindings_.begin();
  for (const Binding& b : other.bindings_) {
    while (a != bindings_.end() && a->first < b.first) ++a;
    if (a == bindings_.end()) return true;
    if (a->first == b.first && a->second != b.second) return false;
  }
  return true;
}

bool Solution::MergeInto(const Solution& other) {
  // Pass 1: reject an inconsistent merge before touching anything, and
  // count the variables `other` adds.
  size_t added = 0;
  auto a = bindings_.begin();
  for (const Binding& b : other.bindings_) {
    while (a != bindings_.end() && a->first < b.first) ++a;
    if (a != bindings_.end() && a->first == b.first) {
      if (a->second != b.second) return false;
    } else {
      ++added;
    }
  }
  if (added == 0) return true;
  // Pass 2: merge both sorted runs from the back into the grown vector.
  // While k > i some of other's new bindings are still unplaced; once
  // k == i everything left of it is already in position.
  const size_t old_size = bindings_.size();
  bindings_.resize(old_size + added);
  ptrdiff_t i = static_cast<ptrdiff_t>(old_size) - 1;
  ptrdiff_t j = static_cast<ptrdiff_t>(other.bindings_.size()) - 1;
  ptrdiff_t k = static_cast<ptrdiff_t>(old_size + added) - 1;
  while (k > i) {
    const Binding& b = other.bindings_[j];
    if (i >= 0 && bindings_[i].first >= b.first) {
      if (bindings_[i].first == b.first) --j;
      bindings_[k--] = std::move(bindings_[i--]);
    } else {
      bindings_[k--] = b;
      --j;
    }
  }
  return true;
}

std::string Solution::Serialize() const {
  std::string out;
  for (const auto& [var, value] : bindings_) {
    if (&var != &bindings_.front().first) out.push_back(kEntrySep);
    AppendEscapedNested(&out, var, kLeafSeps);
    out.push_back(kKeyValueSep);
    AppendEscapedNested(&out, value, kLeafSeps);
  }
  return out;
}

Result<Solution> Solution::Deserialize(std::string_view line) {
  Solution s;
  if (line.empty()) return s;
  std::string entry_scratch, var_scratch, value_scratch;
  EscapedFieldReader entries(line, kEntrySep);
  std::string_view raw_entry;
  while (entries.Next(&raw_entry)) {
    const std::string_view entry =
        UnescapedView(raw_entry, kEntrySep, &entry_scratch);
    EscapedFieldReader kv(entry, kKeyValueSep);
    std::string_view raw_var, raw_value, extra;
    if (!kv.Next(&raw_var) || !kv.Next(&raw_value) || kv.Next(&extra)) {
      return Status::IoError("malformed solution field: " +
                             std::string(entry));
    }
    if (!s.Bind(UnescapedView(raw_var, kKeyValueSep, &var_scratch),
                UnescapedView(raw_value, kKeyValueSep, &value_scratch))) {
      return Status::IoError("duplicate inconsistent var in: " +
                             std::string(line));
    }
  }
  return s;
}

SolutionSet ToSolutionSet(std::vector<Solution>* solutions) {
  std::sort(solutions->begin(), solutions->end());
  solutions->erase(std::unique(solutions->begin(), solutions->end()),
                   solutions->end());
  return SolutionSet(std::make_move_iterator(solutions->begin()),
                     std::make_move_iterator(solutions->end()));
}

Result<SolutionSet> ParseSolutionFile(const std::vector<std::string>& lines) {
  std::vector<Solution> solutions;
  solutions.reserve(lines.size());
  for (const std::string& line : lines) {
    RDFMR_ASSIGN_OR_RETURN(Solution s, Solution::Deserialize(line));
    solutions.push_back(std::move(s));
  }
  return ToSolutionSet(&solutions);
}

}  // namespace rdfmr

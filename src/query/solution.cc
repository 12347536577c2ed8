#include "query/solution.h"

#include <algorithm>
#include <functional>
#include <numeric>

#include "common/logging.h"
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

// True iff `raw` ends in a lone backslash: an escape cut short, which the
// writer never produces.
bool EndsInEscape(std::string_view raw) {
  const size_t plain = raw.find_last_not_of('\\');
  const size_t run = plain == std::string_view::npos ? raw.size()
                                                     : raw.size() - plain - 1;
  return run % 2 == 1;
}
}  // namespace

void AppendBinding(std::string* out, bool first, std::string_view var,
                   std::string_view value) {
  if (!first) out->push_back(kEntrySep);
  AppendEscapedNested(out, var, kLeafSeps);
  out->push_back(kKeyValueSep);
  AppendEscapedNested(out, value, kLeafSeps);
}

Status SolutionLineReader::Read(std::string_view line) {
  bindings_.clear();
  if (line.empty()) return Status::OK();
  // Unescaped text never outgrows its line, so text_ keeps this buffer and
  // the views into it stay valid.
  text_.clear();
  text_.reserve(line.size());
  EscapedFieldReader entries(line, kEntrySep);
  for (std::string_view raw_entry; entries.Next(&raw_entry);) {
    const std::string_view entry =
        UnescapedView(raw_entry, kEntrySep, &entry_);
    EscapedFieldReader kv(entry, kKeyValueSep);
    std::string_view var, value, extra;
    if (EndsInEscape(raw_entry) || !kv.Next(&var) || !kv.Next(&value) ||
        kv.Next(&extra) || EndsInEscape(value)) {
      return Status::IoError("malformed solution field: " +
                             std::string(entry));
    }
    if (raw_entry.find('\\') != std::string_view::npos) {
      const size_t at = text_.size();
      text_.append(UnescapedView(var, kKeyValueSep, &leaf_));
      const size_t mid = text_.size();
      text_.append(UnescapedView(value, kKeyValueSep, &leaf_));
      var = std::string_view(text_).substr(at, mid - at);
      value = std::string_view(text_).substr(mid);
    }
    bindings_.emplace_back(var, value);
  }
  // Sorted by variable, each once, as Solution::Bind keeps them.
  std::sort(bindings_.begin(), bindings_.end());
  bindings_.erase(std::unique(bindings_.begin(), bindings_.end()),
                  bindings_.end());
  for (size_t k = 1; k < bindings_.size(); ++k) {
    if (bindings_[k - 1].first == bindings_[k].first) {
      return Status::IoError("duplicate inconsistent var in: " +
                             std::string(line));
    }
  }
  return Status::OK();
}

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
    AppendBinding(&out, &var == &bindings_.front().first, var, value);
  }
  return out;
}

// ---- SolutionSet ------------------------------------------------------------

size_t SlotOf(std::span<const std::string> variables, std::string_view var) {
  auto it = std::lower_bound(variables.begin(), variables.end(), var);
  return it != variables.end() && *it == var
             ? static_cast<size_t>(it - variables.begin())
             : kNoSlot;
}

namespace {

using Handle = SolutionSet::Handle;
constexpr Handle kUnbound = SolutionSet::kUnbound;

// Sorts rows of order keys (`*count` rows of `width` keys, each below
// `num_keys`; see Finish) and returns them as handle rows in canonical
// order without duplicates, updating `*count`. The sort is a radix sort:
// one stable counting sort per slot, last slot first.
std::vector<Handle> SortUniqueRows(const std::vector<Handle>& keys,
                                   size_t width, size_t num_keys,
                                   size_t* count) {
  if (width == 0) {
    *count = std::min<size_t>(*count, 1);
    return {};
  }
  std::vector<uint32_t> order(*count), next(*count);
  std::iota(order.begin(), order.end(), 0);
  std::vector<uint32_t> start(num_keys + 1);
  for (size_t k = width; k-- > 0;) {
    std::fill(start.begin(), start.end(), 0);
    for (uint32_t r : order) ++start[keys[r * width + k] + 1];
    std::partial_sum(start.begin(), start.end(), start.begin());
    for (uint32_t r : order) next[start[keys[r * width + k]]++] = r;
    order.swap(next);
  }
  std::vector<Handle> rows;
  rows.reserve(keys.size());
  const Handle* last = nullptr;
  for (uint32_t r : order) {
    const Handle* row = keys.data() + size_t{r} * width;
    if (last != nullptr && std::equal(last, last + width, row)) continue;
    for (size_t k = 0; k < width; ++k) {
      rows.push_back(row[k] == 0 || row[k] == num_keys - 1 ? kUnbound
                                                           : row[k] - 1);
    }
    last = row;
  }
  *count = rows.size() / width;
  return rows;
}

// A term being sorted: `lead` packs its first eight bytes big-endian
// (zero-padded), so most comparisons are decided by one integer.
struct Term {
  uint64_t lead;
  std::string_view text;
  Handle handle;
};

Term MakeTerm(std::string_view text, Handle handle) {
  uint64_t lead = 0;
  for (size_t i = 0; i < 8; ++i) {
    lead = (lead << 8) |
           (i < text.size() ? static_cast<unsigned char>(text[i]) : 0);
  }
  return Term{lead, text, handle};
}

bool TermLess(const Term& x, const Term& y) {
  return x.lead != y.lead ? x.lead < y.lead : x.text < y.text;
}

// SolutionLineDecoder's appender: a line's bindings go to their header
// slots.
Status AppendSolutionLines(std::span<const std::string> lines,
                           SolutionSet::Builder* builder) {
  SolutionLineReader reader;
  std::vector<Handle> row;
  for (const std::string& line : lines) {
    RDFMR_RETURN_NOT_OK(reader.Read(line));
    row.assign(builder->width(), kUnbound);
    for (const auto& [var, value] : reader.bindings()) {
      const size_t slot = SlotOf(builder->variables(), var);
      if (slot == kNoSlot) {
        return Status::IoError("solution line binds ?" + std::string(var) +
                               ", which its answer header lacks");
      }
      row[slot] = builder->Intern(value);
    }
    builder->AddRow(row.data());
  }
  return Status::OK();
}

}  // namespace

SolutionSet::SolutionSet(const std::vector<Solution>& solutions) {
  // The header: every variable some solution binds.
  std::vector<std::string> variables;
  for (const Solution& s : solutions) {
    for (const auto& [var, value] : s.bindings()) {
      auto it = std::lower_bound(variables.begin(), variables.end(), var);
      if (it == variables.end() || *it != var) variables.emplace(it, var);
    }
  }
  Builder builder(std::move(variables));
  std::vector<Handle> row;
  for (const Solution& s : solutions) {
    row.assign(builder.width(), kUnbound);
    for (const auto& [var, value] : s.bindings()) {
      row[SlotOf(builder.variables(), var)] = builder.Intern(value);
    }
    builder.AddRow(row.data());
  }
  *this = builder.Finish();
}

Solution SolutionSet::Row(size_t row) const {
  Solution s;
  const Handle* cells = cells_.data() + row * variables_.size();
  s.Reserve(variables_.size() -
            std::count(cells, cells + variables_.size(), kUnbound));
  for (size_t k = 0; k < variables_.size(); ++k) {
    if (cells[k] != kUnbound) s.Bind(variables_[k], term(cells[k]));
  }
  return s;
}

void SolutionSet::AppendSerialized(size_t row, std::string* out) const {
  AppendRowLine(variables_, cells_.data() + row * variables_.size(), *this,
                out);
}

// ---- SolutionSet::Builder ---------------------------------------------------

SolutionSet::Builder::Builder(std::vector<std::string> variables)
    : variables_(std::move(variables)) {}

SolutionSet::Handle SolutionSet::Builder::Intern(std::string_view t) {
  if (2 * offsets_.size() > index_.size()) Grow();
  const size_t mask = index_.size() - 1;
  for (size_t i = std::hash<std::string_view>{}(t) & mask;;
       i = (i + 1) & mask) {
    Handle& slot = index_[i];
    if (slot == kUnbound) {
      slot = static_cast<Handle>(offsets_.size() - 1);
      arena_.append(t);
      offsets_.push_back(static_cast<uint32_t>(arena_.size()));
      return slot;
    }
    if (term(slot) == t) return slot;
  }
}

void SolutionSet::Builder::Grow() {
  index_.assign(std::max<size_t>(64, 2 * index_.size()), kUnbound);
  const size_t mask = index_.size() - 1;
  for (Handle h = 0; h + 1 < offsets_.size(); ++h) {
    size_t i = std::hash<std::string_view>{}(term(h)) & mask;
    while (index_[i] != kUnbound) i = (i + 1) & mask;
    index_[i] = h;
  }
}

void SolutionSet::Builder::Absorb(const Builder& other) {
  RDFMR_CHECK(variables_ == other.variables_);
  std::vector<Handle> remap(other.offsets_.size() - 1);
  for (Handle h = 0; h < remap.size(); ++h) remap[h] = Intern(other.term(h));
  cells_.reserve(cells_.size() + other.cells_.size());
  for (const Handle h : other.cells_) {
    cells_.push_back(h == kUnbound ? kUnbound : remap[h]);
  }
  rows_ += other.rows_;
}

void SolutionSet::Builder::Clear() {
  arena_.clear();
  offsets_.assign(1, 0);
  std::fill(index_.begin(), index_.end(), kUnbound);
  cells_.clear();
  rows_ = 0;
}

SolutionSet SolutionSet::Builder::Finish() {
  const size_t width = variables_.size();
  const size_t num_terms = offsets_.size() - 1;
  // The terms and slots the rows use; the rest are dropped.
  std::vector<Handle> remap(num_terms, kUnbound);
  std::vector<bool> slot_used(width, false);
  for (size_t c = 0; c < cells_.size(); ++c) {
    if (cells_[c] == kUnbound) continue;
    remap[cells_[c]] = 0;
    slot_used[c % width] = true;
  }
  // Used terms, renumbered in term order.
  std::vector<Term> order;
  for (Handle h = 0; h < num_terms; ++h) {
    if (remap[h] == 0) order.push_back(MakeTerm(term(h), h));
  }
  std::sort(order.begin(), order.end(), TermLess);
  SolutionSet out;
  out.arena_.reserve(arena_.size());
  out.offsets_.reserve(order.size() + 1);
  for (const Term& t : order) {
    remap[t.handle] = static_cast<Handle>(out.offsets_.size() - 1);
    out.arena_.append(t.text);
    out.offsets_.push_back(static_cast<uint32_t>(out.arena_.size()));
  }
  std::vector<size_t> column(width);
  for (size_t k = 0; k < width; ++k) {
    if (!slot_used[k]) continue;
    column[k] = out.variables_.size();
    out.variables_.push_back(std::move(variables_[k]));
  }
  // The rows over the used slots, as order keys, which make the canonical
  // Solution order plain lexicographic order. Solutions compare as
  // (variable, value) sequences and slot order is variable order, so a
  // bound handle (which orders as its term) keys as handle + 1, and an
  // unbound slot keys below every term when nothing is bound after it in
  // the row (the solution ends there, a prefix of any row that goes on)
  // and above every term otherwise (its next binding is a later variable).
  const size_t out_width = out.variables_.size();
  const Handle unbound_later = static_cast<Handle>(order.size() + 1);
  std::vector<Handle> keys(rows_ * out_width);
  for (size_t r = 0; r < rows_; ++r) {
    bool later = false;
    for (size_t k = width; k-- > 0;) {
      if (!slot_used[k]) continue;
      const Handle h = cells_[r * width + k];
      keys[r * out_width + column[k]] =
          h != kUnbound ? remap[h] + 1 : later ? unbound_later : 0;
      later = later || h != kUnbound;
    }
  }
  out.size_ = rows_;
  out.cells_ = SortUniqueRows(keys, out_width, order.size() + 2, &out.size_);
  *this = Builder({});
  return out;
}

// ---- AnswerDecoder ----------------------------------------------------------

Result<SolutionSet> AnswerDecoder::Decode(
    std::span<const std::span<const std::string>> files) const {
  SolutionSet::Builder builder(variables);
  for (std::span<const std::string> lines : files) {
    RDFMR_RETURN_NOT_OK(append(lines, &builder));
  }
  return builder.Finish();
}

ChunkedDecode::ChunkedDecode(
    const AnswerDecoder& decoder,
    std::span<const std::span<const std::string>> files)
    : decoder_(decoder) {
  file_chunks_.push_back(0);
  for (std::span<const std::string> lines : files) {
    for (size_t at = 0; at < lines.size(); at += kLines) {
      chunks_.push_back(Chunk{lines.subspan(at, std::min(kLines,
                                                         lines.size() - at)),
                              SolutionSet::Builder(decoder.variables),
                              Status::OK()});
    }
    file_chunks_.push_back(chunks_.size());
  }
}

void ChunkedDecode::Append(size_t c) {
  chunks_[c].status = decoder_.append(chunks_[c].lines, &chunks_[c].builder);
}

Result<SolutionSet> ChunkedDecode::Finish(size_t first, size_t last) {
  const size_t begin = file_chunks_[first];
  const size_t end = file_chunks_[last];
  if (begin == end) return SolutionSet::Builder(decoder_.variables).Finish();
  for (size_t c = begin; c < end; ++c) {
    RDFMR_RETURN_NOT_OK(chunks_[c].status);
  }
  SolutionSet::Builder& table = chunks_[begin].builder;
  for (size_t c = begin + 1; c < end; ++c) {
    table.Absorb(chunks_[c].builder);
    chunks_[c].builder = SolutionSet::Builder({});
  }
  return table.Finish();
}

AnswerDecoder SolutionLineDecoder(std::vector<std::string> variables) {
  return {std::move(variables), AppendSolutionLines};
}

}  // namespace rdfmr

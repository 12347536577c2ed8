#include "query/base_scan.h"

#include <memory>

#include "common/logging.h"
#include "query/matcher.h"
#include "rdf/triple.h"

namespace rdfmr {

namespace {

constexpr int kSubjectField = 0;
constexpr int kNoField = -1;

std::shared_ptr<const std::vector<std::string>> HintFor(
    const std::vector<TriplePattern>& patterns) {
  std::vector<std::string> properties;
  for (const TriplePattern& tp : patterns) {
    if (!tp.property_bound) return nullptr;
    properties.push_back(tp.property);
  }
  return std::make_shared<const std::vector<std::string>>(
      std::move(properties));
}

// The field (0 subject, 1 property, 2 object) that holds `var` in `tp`.
int FieldOf(const TriplePattern& tp, const std::string& var) {
  if (tp.subject.is_variable() && tp.subject.value == var) return 0;
  if (!tp.property_bound && tp.property == var) return 1;
  if (tp.object.is_variable() && tp.object.value == var) return 2;
  return kNoField;
}

}  // namespace

MapInput MakeBaseScan(std::string path, BaseScan scan) {
  MapInput input{std::move(path), nullptr, HintFor(scan.patterns)};
  if (scan.patterns.empty()) {
    input.map = [](const std::string&, const MapEmit&, Counters*) {};
    return input;
  }
  // Per pattern, the field an emission for it is keyed by.
  std::vector<int> key_field(scan.patterns.size(), kSubjectField);
  for (size_t i = 0; i < scan.patterns.size(); ++i) {
    if (scan.key == ScanKey::kNone) key_field[i] = kNoField;
    if (scan.key != ScanKey::kVariable) continue;
    key_field[i] = FieldOf(scan.patterns[i], scan.key_variable);
    RDFMR_CHECK(key_field[i] != kNoField)
        << "scan key ?" << scan.key_variable << " is not in "
        << scan.patterns[i].ToString();
  }
  input.map = [scan = std::make_shared<const BaseScan>(std::move(scan)),
               key_field = std::move(key_field), reader = TripleReader()](
                  const std::string& line, const MapEmit& emit,
                  Counters* counters) mutable {
    if (!reader.Read(line).ok()) {
      (*counters)["bad_records"] += 1;
      return;
    }
    const TripleView& t = reader.view();
    if (scan->key == ScanKey::kVariable && t.subject.empty() &&
        t.property.empty() && t.object.empty()) {
      return;
    }
    const std::string_view fields[3] = {t.subject, t.property, t.object};
    for (size_t i = 0; i < scan->patterns.size(); ++i) {
      if (!MatchesTriplePattern(scan->patterns[i], t.subject, t.property,
                                t.object)) {
        continue;
      }
      if (!scan->counter.empty()) (*counters)[scan->counter] += 1;
      emit(std::string(key_field[i] == kNoField ? std::string_view()
                                                : fields[key_field[i]]),
           scan->tag.empty() ? line : JoinTagged(scan->tag, line));
      if (!scan->per_pattern) return;
    }
  };
  return input;
}

std::string JoinTagged(std::string_view tag, std::string_view record) {
  std::string out;
  out.reserve(tag.size() + 1 + record.size());
  out.append(tag);
  out.push_back('|');
  out.append(record);
  return out;
}

bool SplitJoinTag(std::string_view value, std::string_view* tag,
                  std::string_view* record) {
  const size_t bar = value.find('|');
  if (bar == std::string_view::npos) return false;
  *tag = value.substr(0, bar);
  *record = value.substr(bar + 1);
  return true;
}

}  // namespace rdfmr

#include "query/aggregate.h"

#include <algorithm>
#include <map>
#include <set>

#include "query/matcher.h"

namespace rdfmr {

Status AggregateSpec::Validate(const GraphPatternQuery& query) const {
  if (group_vars.empty()) {
    return Status::InvalidArgument("GROUP BY needs at least one variable");
  }
  const std::vector<std::string>& vars = query.variables();
  auto known = [&](const std::string& v) {
    return std::find(vars.begin(), vars.end(), v) != vars.end();
  };
  for (const std::string& v : group_vars) {
    if (!known(v)) {
      return Status::InvalidArgument("GROUP BY variable ?" + v +
                                     " is not bound by the pattern");
    }
  }
  if (counted_var.empty() || !known(counted_var)) {
    return Status::InvalidArgument("COUNT variable ?" + counted_var +
                                   " is not bound by the pattern");
  }
  if (count_var.empty()) {
    return Status::InvalidArgument("the count needs an output name");
  }
  if (known(count_var)) {
    return Status::InvalidArgument("count output ?" + count_var +
                                   " collides with a pattern variable");
  }
  return Status::OK();
}

SolutionSet AggregateSolutions(const SolutionSet& solutions,
                               const AggregateSpec& spec) {
  // group key (serialized bindings) -> counted values / row count
  std::map<Solution, std::multiset<std::string>> groups;
  for (const Solution& s : solutions) {
    Solution key;
    bool complete = true;
    for (const std::string& v : spec.group_vars) {
      const std::string* value = s.Get(v);
      if (value == nullptr) {
        complete = false;
        break;
      }
      key.Bind(v, *value);
    }
    const std::string* counted = s.Get(spec.counted_var);
    if (!complete || counted == nullptr) continue;
    groups[key].insert(*counted);
  }
  std::vector<Solution> out;
  for (const auto& [key, values] : groups) {
    uint64_t count;
    if (spec.distinct) {
      count = std::set<std::string>(values.begin(), values.end()).size();
    } else {
      count = values.size();
    }
    if (count < spec.min_count) continue;
    Solution result = key;
    result.Bind(spec.count_var, std::to_string(count));
    out.push_back(std::move(result));
  }
  return SolutionSet(out);
}

SolutionSet EvaluateAggregateInMemory(const GraphPatternQuery& query,
                                      const AggregateSpec& spec,
                                      const std::vector<Triple>& triples) {
  return AggregateSolutions(EvaluateQueryInMemory(query, triples), spec);
}

}  // namespace rdfmr

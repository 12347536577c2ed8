#include "query/pattern.h"

#include <algorithm>
#include <map>

#include "common/strings.h"

namespace rdfmr {

bool NodePattern::Matches(std::string_view term) const {
  if (is_constant()) return term == value;
  if (!contains_filter.empty()) {
    return term.find(contains_filter) != std::string_view::npos;
  }
  return true;
}

std::vector<std::string> TriplePattern::Variables() const {
  std::vector<std::string> vars;
  if (subject.is_variable()) vars.push_back(subject.value);
  if (!property_bound) vars.push_back(property);
  if (object.is_variable()) vars.push_back(object.value);
  return vars;
}

std::string TriplePattern::ToString() const {
  auto node = [](const NodePattern& n) {
    if (n.is_constant()) return "<" + n.value + ">";
    std::string s = "?" + n.value;
    if (!n.contains_filter.empty()) s += "{~" + n.contains_filter + "}";
    return s;
  };
  std::string prop =
      property_bound ? "<" + property + ">" : "?" + property;
  std::string body = node(subject) + " " + prop + " " + node(object) + " .";
  return optional ? "OPTIONAL { " + body + " }" : body;
}

std::set<std::string> StarPattern::BoundProperties() const {
  std::set<std::string> props;
  for (const TriplePattern& tp : patterns) {
    if (tp.property_bound && !tp.optional) props.insert(tp.property);
  }
  return props;
}

std::set<std::string> StarPattern::AllBoundProperties() const {
  std::set<std::string> props;
  for (const TriplePattern& tp : patterns) {
    if (tp.property_bound) props.insert(tp.property);
  }
  return props;
}

std::vector<size_t> StarPattern::UnboundIndexes() const {
  std::vector<size_t> idx;
  for (size_t i = 0; i < patterns.size(); ++i) {
    if (patterns[i].unbound_property()) idx.push_back(i);
  }
  return idx;
}

std::string StarPattern::ToString() const {
  std::string out = "Star(?" + subject_var + ") {\n";
  for (const TriplePattern& tp : patterns) {
    out += "  " + tp.ToString() + "\n";
  }
  out += "}";
  return out;
}

const char* StarJoinKindToString(StarJoinKind kind) {
  switch (kind) {
    case StarJoinKind::kObjectSubject:
      return "Object-Subject";
    case StarJoinKind::kObjectObject:
      return "Object-Object";
    case StarJoinKind::kSubjectSubject:
      return "Subject-Subject";
  }
  return "?";
}

Result<GraphPatternQuery> GraphPatternQuery::Create(
    std::string name, std::vector<TriplePattern> patterns) {
  if (patterns.empty()) {
    return Status::InvalidArgument("query has no triple patterns");
  }
  GraphPatternQuery q;
  q.name_ = std::move(name);
  q.patterns_ = std::move(patterns);

  // --- Decompose into stars by subject variable (first-appearance order).
  std::map<std::string, size_t> star_of_subject;
  for (const TriplePattern& tp : q.patterns_) {
    if (!tp.subject.is_variable()) {
      return Status::NotImplemented(
          "constant subjects are not supported: " + tp.ToString());
    }
    auto [it, inserted] =
        star_of_subject.emplace(tp.subject.value, q.stars_.size());
    if (inserted) {
      StarPattern star;
      star.subject_var = tp.subject.value;
      q.stars_.push_back(std::move(star));
    }
    q.stars_[it->second].patterns.push_back(tp);
  }

  // --- Optional patterns: star-local left joins with fresh variables.
  for (const StarPattern& star : q.stars_) {
    size_t mandatory = 0;
    for (const TriplePattern& tp : star.patterns) {
      if (!tp.optional) ++mandatory;
    }
    if (mandatory == 0) {
      return Status::InvalidArgument(
          "star ?" + star.subject_var +
          " consists only of OPTIONAL patterns");
    }
  }
  for (const TriplePattern& tp : q.patterns_) {
    if (!tp.optional) continue;
    std::set<std::string> optional_vars;
    if (!tp.property_bound) optional_vars.insert(tp.property);
    if (tp.object.is_variable()) optional_vars.insert(tp.object.value);
    for (const TriplePattern& other : q.patterns_) {
      if (&other == &tp) continue;
      for (const std::string& v : other.Variables()) {
        if (optional_vars.count(v) > 0) {
          return Status::NotImplemented(
              "OPTIONAL patterns must introduce only fresh variables; ?" +
              v + " is shared");
        }
      }
    }
  }

  // --- Collect variables; reject a variable used as property AND node.
  std::set<std::string> vars;
  std::set<std::string> prop_vars;
  for (const TriplePattern& tp : q.patterns_) {
    for (const std::string& v : tp.Variables()) vars.insert(v);
    if (tp.unbound_property()) prop_vars.insert(tp.property);
  }
  for (const std::string& pv : prop_vars) {
    for (const TriplePattern& tp : q.patterns_) {
      if ((tp.subject.is_variable() && tp.subject.value == pv) ||
          (tp.object.is_variable() && tp.object.value == pv)) {
        return Status::NotImplemented(
            "property variable also used in node position: ?" + pv);
      }
    }
  }
  q.variables_.assign(vars.begin(), vars.end());

  // --- Derive star joins from shared node variables across stars.
  // Index: variable -> list of (star index, pattern index or -1 for subject).
  std::map<std::string, std::vector<std::pair<size_t, int>>> occurrences;
  for (size_t s = 0; s < q.stars_.size(); ++s) {
    const StarPattern& star = q.stars_[s];
    occurrences[star.subject_var].push_back({s, -1});
    for (size_t p = 0; p < star.patterns.size(); ++p) {
      const NodePattern& obj = star.patterns[p].object;
      if (obj.is_variable()) {
        occurrences[obj.value].push_back({s, static_cast<int>(p)});
      }
    }
  }
  for (const auto& [variable, occ] : occurrences) {
    // Connect consecutive distinct-star occurrences of a shared variable.
    for (size_t i = 1; i < occ.size(); ++i) {
      auto [ls, lp] = occ[i - 1];
      auto [rs, rp] = occ[i];
      if (ls == rs) continue;  // same-star sharing is handled by the matcher
      StarJoin join;
      join.left_star = ls;
      join.right_star = rs;
      join.variable = variable;
      join.left_pattern_index = lp;
      join.right_pattern_index = rp;
      if (lp == -1 && rp == -1) {
        join.kind = StarJoinKind::kSubjectSubject;
      } else if (lp != -1 && rp != -1) {
        join.kind = StarJoinKind::kObjectObject;
      } else {
        join.kind = StarJoinKind::kObjectSubject;
        if (lp == -1) {
          // Normalize: "left" side carries the object.
          std::swap(join.left_star, join.right_star);
          std::swap(join.left_pattern_index, join.right_pattern_index);
        }
      }
      q.joins_.push_back(join);
    }
  }

  // --- Connectivity check (engines evaluate joins pairwise).
  if (q.stars_.size() > 1) {
    std::vector<bool> reached(q.stars_.size(), false);
    std::vector<size_t> frontier = {0};
    reached[0] = true;
    while (!frontier.empty()) {
      size_t s = frontier.back();
      frontier.pop_back();
      for (const StarJoin& j : q.joins_) {
        size_t other;
        if (j.left_star == s) {
          other = j.right_star;
        } else if (j.right_star == s) {
          other = j.left_star;
        } else {
          continue;
        }
        if (!reached[other]) {
          reached[other] = true;
          frontier.push_back(other);
        }
      }
    }
    for (bool r : reached) {
      if (!r) {
        return Status::InvalidArgument(
            "query '" + q.name_ + "' has a disconnected star join graph");
      }
    }
  }
  return q;
}

bool GraphPatternQuery::HasUnbound() const {
  for (const StarPattern& star : stars_) {
    if (star.HasUnbound()) return true;
  }
  return false;
}

size_t GraphPatternQuery::NumUnbound() const {
  size_t n = 0;
  for (const StarPattern& star : stars_) n += star.NumUnbound();
  return n;
}

std::string GraphPatternQuery::ToString() const {
  std::string out = "Query " + name_ + " {\n";
  for (const StarPattern& star : stars_) {
    out += star.ToString() + "\n";
  }
  for (const StarJoin& join : joins_) {
    out += StringFormat("  join ?%s: star%zu <-> star%zu (%s)\n",
                        join.variable.c_str(), join.left_star,
                        join.right_star, StarJoinKindToString(join.kind));
  }
  out += "}";
  return out;
}

}  // namespace rdfmr

#include "query/matcher.h"

#include <map>

#include "common/logging.h"

namespace rdfmr {

bool MatchesTriplePattern(const TriplePattern& pattern,
                          std::string_view subject, std::string_view property,
                          std::string_view object) {
  if (!pattern.subject.Matches(subject)) return false;
  if (pattern.property_bound && property != pattern.property) return false;
  if (!pattern.object.Matches(object)) return false;
  // A variable repeated across positions must see one value.
  const std::string* s_var =
      pattern.subject.is_variable() ? &pattern.subject.value : nullptr;
  const std::string* p_var =
      pattern.property_bound ? nullptr : &pattern.property;
  const std::string* o_var =
      pattern.object.is_variable() ? &pattern.object.value : nullptr;
  if (s_var != nullptr && p_var != nullptr && *s_var == *p_var &&
      subject != property) {
    return false;
  }
  if (s_var != nullptr && o_var != nullptr && *s_var == *o_var &&
      subject != object) {
    return false;
  }
  return p_var == nullptr || o_var == nullptr || *p_var != *o_var ||
         property == object;
}

bool BindTriplePattern(const TriplePattern& pattern, const Triple& triple,
                       Solution* solution) {
  if (!MatchesTriplePattern(pattern, triple)) return false;
  return (!pattern.subject.is_variable() ||
          solution->Bind(pattern.subject.value, triple.subject)) &&
         (pattern.property_bound ||
          solution->Bind(pattern.property, triple.property)) &&
         (!pattern.object.is_variable() ||
          solution->Bind(pattern.object.value, triple.object));
}

std::optional<Solution> MatchTriplePattern(const TriplePattern& pattern,
                                           const Triple& triple) {
  Solution s;
  if (!BindTriplePattern(pattern, triple, &s)) return std::nullopt;
  return s;
}

namespace {

struct Candidate {
  const Triple* triple;
  Solution solution;
};

void Recurse(const std::vector<std::vector<Candidate>>& candidates,
             size_t level, std::vector<const Triple*>* chosen,
             const Solution& partial, std::vector<StarMatch>* out) {
  if (level == candidates.size()) {
    StarMatch match;
    match.matched.reserve(chosen->size());
    for (const Triple* t : *chosen) match.matched.push_back(*t);
    match.solution = partial;
    out->push_back(std::move(match));
    return;
  }
  for (const Candidate& cand : candidates[level]) {
    Solution merged = partial;
    if (!merged.MergeInto(cand.solution)) continue;
    chosen->push_back(cand.triple);
    Recurse(candidates, level + 1, chosen, merged, out);
    chosen->pop_back();
  }
}

}  // namespace

std::vector<StarMatch> MatchStarDetailed(
    const StarPattern& star, const std::vector<Triple>& subject_triples) {
  // Per-pattern candidates. A mandatory pattern with no candidate kills
  // the star; an optional one merely stops extending solutions.
  std::vector<std::vector<Candidate>> candidates(star.patterns.size());
  std::vector<std::vector<Candidate>> mandatory;
  std::vector<size_t> mandatory_index;
  for (size_t p = 0; p < star.patterns.size(); ++p) {
    for (const Triple& t : subject_triples) {
      std::optional<Solution> m = MatchTriplePattern(star.patterns[p], t);
      if (m.has_value()) {
        candidates[p].push_back(Candidate{&t, std::move(*m)});
      }
    }
    if (star.patterns[p].optional) continue;
    if (candidates[p].empty()) return {};  // star cannot match
    mandatory.push_back(candidates[p]);
    mandatory_index.push_back(p);
  }

  // Product of the mandatory patterns with consistency merging.
  std::vector<StarMatch> base;
  std::vector<const Triple*> chosen;
  Recurse(mandatory, 0, &chosen, Solution{}, &base);

  // Re-align the matched triples to pattern positions, with the SPARQL
  // "unbound" placeholder (an all-empty triple) at optional positions.
  std::vector<StarMatch> out;
  out.reserve(base.size());
  for (StarMatch& m : base) {
    StarMatch aligned;
    aligned.solution = std::move(m.solution);
    aligned.matched.assign(star.patterns.size(), Triple());
    for (size_t i = 0; i < mandatory_index.size(); ++i) {
      aligned.matched[mandatory_index[i]] = std::move(m.matched[i]);
    }
    out.push_back(std::move(aligned));
  }

  // Left-join each optional pattern in turn: extend every solution with
  // every compatible candidate, or keep it unextended when none fits.
  for (size_t p = 0; p < star.patterns.size(); ++p) {
    if (!star.patterns[p].optional) continue;
    std::vector<StarMatch> extended;
    for (StarMatch& m : out) {
      bool any = false;
      for (const Candidate& cand : candidates[p]) {
        if (!m.solution.CompatibleWith(cand.solution)) continue;
        any = true;
        StarMatch e = m;
        e.solution.MergeInto(cand.solution);
        e.matched[p] = *cand.triple;
        extended.push_back(std::move(e));
      }
      if (!any) extended.push_back(std::move(m));
    }
    out = std::move(extended);
  }
  return out;
}

std::vector<Solution> MatchStar(const StarPattern& star,
                                const std::vector<Triple>& subject_triples) {
  std::vector<StarMatch> detailed = MatchStarDetailed(star, subject_triples);
  std::vector<Solution> out;
  out.reserve(detailed.size());
  for (StarMatch& m : detailed) out.push_back(std::move(m.solution));
  return out;
}

SolutionSet EvaluateQueryInMemory(const GraphPatternQuery& query,
                                  const std::vector<Triple>& triples) {
  // Group triples by subject.
  std::map<std::string, std::vector<Triple>> by_subject;
  for (const Triple& t : triples) by_subject[t.subject].push_back(t);

  // Per-star solutions.
  std::vector<std::vector<Solution>> star_solutions(query.stars().size());
  for (size_t s = 0; s < query.stars().size(); ++s) {
    for (const auto& [subject, subject_triples] : by_subject) {
      std::vector<Solution> matches =
          MatchStar(query.stars()[s], subject_triples);
      for (Solution& m : matches) {
        star_solutions[s].push_back(std::move(m));
      }
    }
  }

  // Fold stars together with nested-loop merge joins (fine for tests; the
  // MR engines are the scalable path). Connectivity of the join graph is
  // guaranteed by GraphPatternQuery::Create, so MergeInto enforces real
  // joins.
  std::vector<Solution> acc = std::move(star_solutions[0]);
  for (size_t s = 1; s < star_solutions.size(); ++s) {
    std::vector<Solution> next;
    for (const Solution& a : acc) {
      for (const Solution& b : star_solutions[s]) {
        Solution merged = a;
        if (merged.MergeInto(b)) next.push_back(std::move(merged));
      }
    }
    acc = std::move(next);
  }
  return SolutionSet(acc);
}

}  // namespace rdfmr

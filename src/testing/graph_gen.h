// Seeded random RDF graph generation for the differential fuzz harness.
//
// Unlike the paper-shaped generators in src/datagen (BSBM, Bio2RDF, ...),
// these graphs are adversarial rather than realistic: property choice is
// Zipf-skewed so a few properties are heavily multi-valued, star fan-out
// varies per subject, objects are drawn from a shared pool (so star joins
// actually connect), some objects are other subjects (so Object-Subject
// joins resolve), and some are literals carrying substring tokens (so
// CONTAINS filters select nontrivially). About one literal in five also
// ends in a backslash, a tab, a 0x1E byte and a newline, the separators the
// record formats must escape.

#ifndef RDFMR_TESTING_GRAPH_GEN_H_
#define RDFMR_TESTING_GRAPH_GEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"
#include "rdf/triple.h"

namespace rdfmr {
namespace fuzz {

struct GraphGenConfig {
  /// Subjects "s0".."s{n-1}".
  uint64_t num_subjects = 14;
  /// Property vocabulary "p0".."p{n-1}"; Zipf-skewed selection makes p0
  /// hot (heavily multi-valued) and the tail sparse.
  uint64_t num_properties = 5;
  double property_skew = 0.9;
  /// Star fan-out: per subject, 1..max (Property, Object) pairs. Kept
  /// modest: candidate sets of unbound patterns grow with fan-out and
  /// β-unnest output is their cartesian product across stars.
  uint64_t max_pairs_per_subject = 6;
  /// Multi-valuedness: extra objects added under an already-used property
  /// with this probability per pair.
  double multi_valued_prob = 0.35;
  /// Shared entity-object pool "o0".."o{n-1}" (join hits across subjects).
  uint64_t object_pool = 16;
  /// Probability an object position references another subject id —
  /// the edges Object-Subject star joins traverse.
  double subject_object_prob = 0.45;
  /// Probability an object is a literal containing a token "tokK"
  /// (CONTAINS-filter bait); tokens range over "tok0".."tok{tokens-1}".
  double literal_prob = 0.2;
  uint64_t literal_tokens = 4;
};

/// \brief The vocabulary a generated graph drew from, for query generation.
struct GraphVocabulary {
  uint64_t num_subjects = 0;
  uint64_t num_properties = 0;
  uint64_t object_pool = 0;
  uint64_t literal_tokens = 0;
};

/// \brief Generates a deterministic random graph (sorted, duplicate-free).
/// Every subject gets at least one triple.
std::vector<Triple> GenerateGraph(const GraphGenConfig& config, Rng* rng);

/// \brief The vocabulary implied by `config` (what GenerateGraph can emit).
GraphVocabulary VocabularyOf(const GraphGenConfig& config);

}  // namespace fuzz
}  // namespace rdfmr

#endif  // RDFMR_TESTING_GRAPH_GEN_H_

// N-Triples reader and writer.
//
// The on-disk interchange format for RDF warehouses in the paper is
// n-triple; this module loads/saves those files and can compact long IRIs
// to local names via a prefix map (the engines operate on compact terms).

#ifndef RDFMR_RDF_NTRIPLES_H_
#define RDFMR_RDF_NTRIPLES_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "rdf/term.h"
#include "rdf/triple.h"

namespace rdfmr {

/// \brief A fully-typed parsed statement.
struct Statement {
  Term subject;
  Term predicate;
  Term object;
};

/// \brief Parses one N-Triples line ("<s> <p> <o> ."). Returns NotFound for
/// blank/comment lines (callers skip those).
Result<Statement> ParseNTriplesLine(const std::string& line);

/// \brief Parses a whole N-Triples document; skips blank lines and comments.
Result<std::vector<Statement>> ParseNTriples(const std::string& text);

/// \brief Serializes statements to N-Triples text.
std::string WriteNTriples(const std::vector<Statement>& statements);

/// \brief Maps IRIs to compact local names using `prefixes`
/// (e.g. "http://bio2rdf.org/ns/" -> ""). Longest prefix wins. Literals keep
/// their lexical form; blank nodes keep "_:" labels.
class IriCompactor {
 public:
  /// \param prefixes pairs of (iri_prefix, replacement)
  explicit IriCompactor(
      std::vector<std::pair<std::string, std::string>> prefixes);

  /// \brief Compacts one term to an engine-level identifier string.
  std::string Identifier(const Term& term) const;

  /// \brief Converts a typed statement to an engine Triple.
  Triple ToTriple(const Statement& st) const;

 private:
  std::vector<std::pair<std::string, std::string>> prefixes_;
};

/// \brief Convenience: parse an N-Triples document straight to engine
/// triples using the given compactor.
Result<std::vector<Triple>> LoadNTriples(const std::string& text,
                                         const IriCompactor& compactor);

}  // namespace rdfmr

#endif  // RDFMR_RDF_NTRIPLES_H_

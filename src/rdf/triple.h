// The engine-level triple representation: three flat strings.
//
// Terms are pre-resolved to compact identifiers ("gene9", "xGO", literal
// text). The engines serialize triples into tab-separated record lines so
// every byte the simulated cluster moves is real and measurable.

#ifndef RDFMR_RDF_TRIPLE_H_
#define RDFMR_RDF_TRIPLE_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace rdfmr {

/// \brief A (Subject, Property, Object) triple over compact identifiers.
struct Triple {
  std::string subject;
  std::string property;
  std::string object;

  Triple() = default;
  Triple(std::string s, std::string p, std::string o)
      : subject(std::move(s)), property(std::move(p)), object(std::move(o)) {}

  bool operator==(const Triple& o) const {
    return subject == o.subject && property == o.property &&
           object == o.object;
  }
  bool operator<(const Triple& o) const {
    if (subject != o.subject) return subject < o.subject;
    if (property != o.property) return property < o.property;
    return object < o.object;
  }

  /// \brief Tab-separated record line (fields escaped for embedded tabs).
  std::string Serialize() const;

  /// \brief Parses a line produced by Serialize().
  static Result<Triple> Deserialize(std::string_view line);

  /// \brief Approximate in-memory / on-disk footprint of this triple.
  size_t ByteSize() const {
    return subject.size() + property.size() + object.size() + 3;
  }
};

/// \brief Serializes a batch of triples, one record line each.
std::vector<std::string> SerializeTriples(const std::vector<Triple>& triples);

/// \brief Parses a batch of record lines into triples.
Result<std::vector<Triple>> DeserializeTriples(
    const std::vector<std::string>& lines);

}  // namespace rdfmr

#endif  // RDFMR_RDF_TRIPLE_H_

// Host-filesystem dataset I/O and synthetic-family generation, shared by
// the rdfmr CLI and the query service's "load" verb. Files ending in .nt
// are N-Triples with the canonical example IRI prefix; anything else is
// the engines' tab-separated record format.

#ifndef RDFMR_SERVICE_DATASET_IO_H_
#define RDFMR_SERVICE_DATASET_IO_H_

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "rdf/triple.h"

namespace rdfmr {
namespace service {

/// \brief IRI prefix compacted away when reading / added when writing .nt.
inline constexpr const char kIriPrefix[] = "http://rdfmr.example/";

/// \brief OK, or InvalidArgument "<where> triple <n>: empty subject" (or
/// property) for the first triple with one: RDF has none, and the
/// relational record grammar reads an all-empty column as an unmatched
/// OPTIONAL.
Status CheckSubjectAndProperty(std::span<const Triple> triples,
                               std::string_view where);

/// \brief Reads a dataset file (.nt, .rdx, or .tsv record lines); a triple
/// with an empty subject or property fails the read, naming its position.
Result<std::vector<Triple>> ReadDatasetFile(const std::string& path);

/// \brief Writes a dataset file (.nt renders IRIs/literals, else records).
Status WriteDatasetFile(const std::string& path,
                        const std::vector<Triple>& triples);

/// \brief Generates one of the paper's synthetic families
/// (bsbm|bio2rdf|dbpedia|btc) at the given scale and seed.
Result<std::vector<Triple>> GenerateFamilyDataset(const std::string& family,
                                                  uint64_t scale,
                                                  uint64_t seed);

}  // namespace service
}  // namespace rdfmr

#endif  // RDFMR_SERVICE_DATASET_IO_H_

#include "service/dataset_io.h"

#include <fstream>
#include <sstream>
#include <utility>

#include "common/strings.h"
#include "datagen/bio2rdf.h"
#include "datagen/bsbm.h"
#include "datagen/btc.h"
#include "datagen/dbpedia.h"
#include "rdf/ntriples.h"
#include "storage/rdx_reader.h"

namespace rdfmr {
namespace service {

namespace {

Result<std::vector<Triple>> ReadTriples(const std::string& path) {
  if (storage::IsRdxPath(path)) {
    RDFMR_ASSIGN_OR_RETURN(std::shared_ptr<const storage::RdxReader> reader,
                           storage::RdxReader::Open(path));
    return reader->Triples();
  }
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open: " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::string text = buffer.str();
  if (EndsWith(path, ".nt")) {
    IriCompactor compactor(
        std::vector<std::pair<std::string, std::string>>{{kIriPrefix, ""}});
    return LoadNTriples(text, compactor);
  }
  std::vector<Triple> triples;
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    std::string line = text.substr(start, end - start);
    start = end + 1;
    if (line.empty()) continue;
    RDFMR_ASSIGN_OR_RETURN(Triple t, Triple::Deserialize(line));
    triples.push_back(std::move(t));
  }
  return triples;
}

}  // namespace

Status CheckSubjectAndProperty(std::span<const Triple> triples,
                               std::string_view where) {
  for (size_t i = 0; i < triples.size(); ++i) {
    const Triple& t = triples[i];
    if (t.subject.empty() || t.property.empty()) {
      return Status::InvalidArgument(
          std::string(where) + " triple " + std::to_string(i + 1) +
          (t.subject.empty() ? ": empty subject" : ": empty property"));
    }
  }
  return Status::OK();
}

Result<std::vector<Triple>> ReadDatasetFile(const std::string& path) {
  RDFMR_ASSIGN_OR_RETURN(std::vector<Triple> triples, ReadTriples(path));
  RDFMR_RETURN_NOT_OK(CheckSubjectAndProperty(triples, path + ":"));
  return triples;
}

Status WriteDatasetFile(const std::string& path,
                        const std::vector<Triple>& triples) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open for writing: " + path);
  if (EndsWith(path, ".nt")) {
    for (const Triple& t : triples) {
      // Objects that look like identifiers become IRIs, the rest literals.
      bool iri_object = t.object.find(' ') == std::string::npos;
      out << "<" << kIriPrefix << t.subject << "> <" << kIriPrefix
          << t.property << "> ";
      if (iri_object) {
        out << "<" << kIriPrefix << t.object << ">";
      } else {
        out << Term::Literal(t.object).ToNTriples();
      }
      out << " .\n";
    }
  } else {
    for (const Triple& t : triples) out << t.Serialize() << "\n";
  }
  return out.good() ? Status::OK() : Status::IoError("write failed: " + path);
}

Result<std::vector<Triple>> GenerateFamilyDataset(const std::string& family,
                                                  uint64_t scale,
                                                  uint64_t seed) {
  if (family == "bsbm") {
    BsbmConfig config;
    config.num_products = scale;
    config.seed = seed;
    return GenerateBsbm(config);
  }
  if (family == "bio2rdf") {
    Bio2RdfConfig config;
    config.num_genes = scale;
    config.seed = seed;
    return GenerateBio2Rdf(config);
  }
  if (family == "dbpedia") {
    DbpediaConfig config;
    config.num_entities = scale;
    config.seed = seed;
    return GenerateDbpedia(config);
  }
  if (family == "btc") {
    BtcConfig config;
    config.num_dbpedia_entities = scale;
    config.num_genes = scale / 4 + 1;
    config.seed = seed;
    return GenerateBtc(config);
  }
  return Status::InvalidArgument("unknown family: " + family +
                                 " (want bsbm|bio2rdf|dbpedia|btc)");
}

}  // namespace service
}  // namespace rdfmr

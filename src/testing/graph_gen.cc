#include "testing/graph_gen.h"

#include <algorithm>

#include "common/strings.h"

namespace rdfmr {
namespace fuzz {

namespace {

std::string SubjectId(uint64_t i) { return StringFormat("s%llu", (unsigned long long)i); }
std::string PropertyId(uint64_t i) { return StringFormat("p%llu", (unsigned long long)i); }
std::string ObjectId(uint64_t i) { return StringFormat("o%llu", (unsigned long long)i); }

}  // namespace

GraphVocabulary VocabularyOf(const GraphGenConfig& config) {
  GraphVocabulary vocab;
  vocab.num_subjects = config.num_subjects;
  vocab.num_properties = config.num_properties;
  vocab.object_pool = config.object_pool;
  vocab.literal_tokens = config.literal_tokens;
  return vocab;
}

std::vector<Triple> GenerateGraph(const GraphGenConfig& config, Rng* rng) {
  ZipfSampler property_sampler(std::max<uint64_t>(config.num_properties, 1),
                               config.property_skew);
  std::vector<Triple> triples;

  auto pick_object = [&](uint64_t literal_seed) -> std::string {
    double roll = rng->NextDouble();
    if (roll < config.subject_object_prob && config.num_subjects > 0) {
      return SubjectId(rng->Uniform(config.num_subjects));
    }
    if (roll < config.subject_object_prob + config.literal_prob &&
        config.literal_tokens > 0) {
      // Literal with an embedded token; the trailing counter keeps values
      // diverse so CONTAINS filters select strict subsets.
      std::string literal = StringFormat(
          "lit tok%llu n%llu",
          (unsigned long long)rng->Uniform(config.literal_tokens),
          (unsigned long long)(literal_seed % 5));
      // One counter residue also carries an escape byte and the record
      // formats' separators (field, record, line), so every serde layer
      // meets them. No extra draw: graph shapes per seed are unchanged.
      if (literal_seed % 5 == 4) literal += " \\\t\x1E\n";
      return literal;
    }
    return ObjectId(rng->Uniform(std::max<uint64_t>(config.object_pool, 1)));
  };

  for (uint64_t s = 0; s < config.num_subjects; ++s) {
    const std::string subject = SubjectId(s);
    uint64_t pairs =
        1 + rng->Uniform(std::max<uint64_t>(config.max_pairs_per_subject, 1));
    std::vector<std::string> used_properties;
    for (uint64_t k = 0; k < pairs; ++k) {
      std::string property;
      if (!used_properties.empty() && rng->Chance(config.multi_valued_prob)) {
        // Pile another object under a property this subject already has —
        // the multi-valued case that makes β-unnesting expensive.
        property = used_properties[rng->Uniform(used_properties.size())];
      } else {
        property = PropertyId(property_sampler.Sample(rng));
        used_properties.push_back(property);
      }
      triples.emplace_back(subject, property, pick_object(rng->Next()));
    }
  }
  std::sort(triples.begin(), triples.end());
  triples.erase(std::unique(triples.begin(), triples.end()), triples.end());
  return triples;
}

}  // namespace fuzz
}  // namespace rdfmr

// Storage-layer battery for the rdx dataset format (v2, with v1 compat).
//
//   * Round-trip: index -> mmap-load reproduces the exact input relation
//     (order and bytes), deterministically — and the v2 graph-stats
//     section decodes to the same catalog GraphStats::Compute derives.
//   * Golden file: the v2 header + section-table layout is pinned byte
//     for byte — any accidental format change fails here first.
//   * Differential: every engine kind at 1 and 4 threads produces
//     byte-identical answers and deterministic stats whether the dataset
//     was parsed from .nt or memory-mapped from .rdx.
//   * Corruption: truncation, bad magic, unsupported version, flipped
//     bytes, and out-of-bounds section offsets all yield structured
//     errors naming the file and byte offset — never a crash. A sweep
//     flips EVERY byte of a fixture and requires Open to reject each one.

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/hash.h"
#include "gtest/gtest.h"
#include "rdf/triple.h"
#include "service/dataset_io.h"
#include "service/protocol.h"
#include "service/query_service.h"
#include "storage/format.h"
#include "storage/memmap.h"
#include "storage/rdx_reader.h"
#include "storage/rdx_writer.h"
#include "tests/test_util.h"
#include "testing/invariants.h"

namespace rdfmr {
namespace {

using storage::BuildRdxImage;
using storage::MemMap;
using storage::RdxReader;
using storage::WriteRdxFile;
using testing_util::AllEngineKinds;
using testing_util::SmallDataset;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "rdfmr_storage_" + name;
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.good());
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

uint64_t ReadU64(const std::string& image, size_t at) {
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | static_cast<uint8_t>(image[at + i]);
  }
  return v;
}

uint32_t ReadU32(const std::string& image, size_t at) {
  uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) | static_cast<uint8_t>(image[at + i]);
  }
  return v;
}

void PutU64(std::string* image, size_t at, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    (*image)[at + i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  }
}

/// Re-stamps the header checksum after a deliberate header/table patch,
/// so a test can reach the validation step BEHIND the checksum.
void RestampHeaderChecksum(std::string* image) {
  const uint64_t hash = HashCombine(
      Fnv1a64(std::string_view(image->data(), storage::kRdxOffHeaderChecksum)),
      Fnv1a64(std::string_view(
          image->data() + storage::kRdxTableOffset,
          storage::kRdxSectionCount * storage::kRdxSectionEntryBytes)));
  PutU64(image, storage::kRdxOffHeaderChecksum, hash);
}

std::vector<Triple> TinyTriples() {
  return {Triple("s1", "p1", "o1"), Triple("s2", "p1", "s1"),
          Triple("s1", "p2", "label one")};
}

Result<std::shared_ptr<const RdxReader>> OpenImage(const std::string& name,
                                                   const std::string& image) {
  const std::string path = TempPath(name);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(image.data(), static_cast<std::streamsize>(image.size()));
  out.close();
  return RdxReader::Open(path);
}

// ---- round trip -------------------------------------------------------------

TEST(RdxRoundTripTest, EveryFamilyReproducesTheExactRelation) {
  for (DatasetFamily family :
       {DatasetFamily::kBsbm, DatasetFamily::kBio2Rdf, DatasetFamily::kDbpedia,
        DatasetFamily::kBtc}) {
    const std::vector<Triple> triples = SmallDataset(family);
    const std::string path =
        TempPath("family_" + std::to_string(static_cast<int>(family)) +
                 ".rdx");
    ASSERT_TRUE(WriteRdxFile(path, triples).ok());

    auto reader = RdxReader::Open(path);
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    EXPECT_EQ((*reader)->triple_count(), triples.size());
    // File order is preserved, so the decode is the identical vector —
    // the property that makes parsed-load and mmap-load byte-identical
    // downstream (same SimDfs blocks, same stats, same answers).
    EXPECT_EQ((*reader)->Triples(), triples);
  }
}

TEST(RdxRoundTripTest, DictionaryAndIndexAccessorsAgreeWithTheRelation) {
  const std::vector<Triple> triples = SmallDataset(DatasetFamily::kBsbm);
  const std::string path = TempPath("accessors.rdx");
  ASSERT_TRUE(WriteRdxFile(path, triples).ok());
  auto opened = RdxReader::Open(path);
  ASSERT_TRUE(opened.ok());
  const RdxReader& reader = **opened;

  // Every decoded id maps back to the original term text.
  for (size_t i = 0; i < reader.triple_count(); ++i) {
    const RdxReader::EncodedTriple ids = reader.encoded(i);
    EXPECT_EQ(reader.term(ids.subject), triples[i].subject);
    EXPECT_EQ(reader.term(ids.property), triples[i].property);
    EXPECT_EQ(reader.term(ids.object), triples[i].object);
  }
  EXPECT_EQ(reader.FindTermId(triples[0].subject).has_value(), true);
  EXPECT_FALSE(reader.FindTermId("no-such-term-anywhere").has_value());

  // The property index is exactly the vertical partition: for each
  // distinct property, the ascending file positions of its triples.
  size_t indexed_rows = 0;
  for (std::string_view property : reader.Properties()) {
    std::vector<uint32_t> expected;
    for (size_t i = 0; i < triples.size(); ++i) {
      if (triples[i].property == property) {
        expected.push_back(static_cast<uint32_t>(i));
      }
    }
    EXPECT_EQ(reader.PropertyPostings(property), expected)
        << "property " << property;
    indexed_rows += expected.size();
  }
  EXPECT_EQ(indexed_rows, triples.size());
  EXPECT_TRUE(reader.PropertyPostings("absent-property").empty());
}

TEST(RdxRoundTripTest, GraphStatsSectionMatchesComputedCatalog) {
  for (DatasetFamily family :
       {DatasetFamily::kBsbm, DatasetFamily::kBio2Rdf, DatasetFamily::kDbpedia,
        DatasetFamily::kBtc}) {
    const std::vector<Triple> triples = SmallDataset(family);
    const std::string path =
        TempPath("stats_" + std::to_string(static_cast<int>(family)) +
                 ".rdx");
    ASSERT_TRUE(WriteRdxFile(path, triples).ok());
    auto opened = RdxReader::Open(path);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    ASSERT_TRUE((*opened)->has_graph_stats());

    // The persisted catalog must agree field for field with the one
    // computed from the decoded triples — the chooser sees the same
    // statistics whether the dataset was mapped or loaded.
    const GraphStats decoded = (*opened)->DecodeGraphStats();
    const GraphStats computed = GraphStats::Compute(triples);
    EXPECT_EQ(decoded.triple_count(), computed.triple_count());
    EXPECT_EQ(decoded.distinct_subjects(), computed.distinct_subjects());
    ASSERT_EQ(decoded.properties().size(), computed.properties().size());
    for (const auto& [property, expected] : computed.properties()) {
      const PropertyStats got = decoded.ForProperty(property);
      EXPECT_EQ(got.triple_count, expected.triple_count) << property;
      EXPECT_EQ(got.subject_count, expected.subject_count) << property;
      EXPECT_EQ(got.max_multiplicity, expected.max_multiplicity) << property;
      EXPECT_DOUBLE_EQ(got.avg_multiplicity, expected.avg_multiplicity)
          << property;
    }
  }
}

// Strips the graph-stats section from a v2 image, producing the exact v1
// layout (3-section table at offset 144) — real v1 files must stay
// readable, with the catalog recomputed from the decoded triples.
std::string DowngradeToV1(const std::string& v2) {
  const size_t v1_table_bytes = 3 * storage::kRdxSectionEntryBytes;
  const size_t stats_entry =
      storage::kRdxTableOffset + 3 * storage::kRdxSectionEntryBytes;
  const uint64_t stats_size = ReadU64(v2, stats_entry + 16);

  std::string v1 = v2.substr(0, stats_entry);       // header + 3 entries
  v1 += v2.substr(storage::kRdxFirstSectionOffset,  // payloads minus stats
                  v2.size() - storage::kRdxFirstSectionOffset - stats_size);
  v1[storage::kRdxOffVersion] = 1;
  v1[storage::kRdxOffSectionCount] = 3;
  PutU64(&v1, storage::kRdxOffFileSize, v1.size());
  for (uint32_t i = 0; i < 3; ++i) {
    const size_t entry =
        storage::kRdxTableOffset + i * storage::kRdxSectionEntryBytes;
    PutU64(&v1, entry + 8,
           ReadU64(v1, entry + 8) - storage::kRdxSectionEntryBytes);
  }
  const uint64_t hash = HashCombine(
      Fnv1a64(std::string_view(v1.data(), storage::kRdxOffHeaderChecksum)),
      Fnv1a64(std::string_view(v1.data() + storage::kRdxTableOffset,
                               v1_table_bytes)));
  PutU64(&v1, storage::kRdxOffHeaderChecksum, hash);
  return v1;
}

TEST(RdxRoundTripTest, V1FilesWithoutStatsSectionStayReadable) {
  const std::vector<Triple> triples = SmallDataset(DatasetFamily::kBsbm);
  auto v2 = BuildRdxImage(triples);
  ASSERT_TRUE(v2.ok());
  auto reader = OpenImage("v1_compat.rdx", DowngradeToV1(*v2));
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_FALSE((*reader)->has_graph_stats());
  EXPECT_EQ((*reader)->Triples(), triples);

  // No stats section: the accessor falls back to computing the catalog.
  const GraphStats decoded = (*reader)->DecodeGraphStats();
  const GraphStats computed = GraphStats::Compute(triples);
  EXPECT_EQ(decoded.triple_count(), computed.triple_count());
  EXPECT_EQ(decoded.distinct_subjects(), computed.distinct_subjects());
  EXPECT_EQ(decoded.properties().size(), computed.properties().size());
}

// A v1 file whose every byte is flipped must also always be rejected —
// the dual-version reader keeps full corruption coverage for old files.
TEST(RdxCorruptionTest, EveryByteFlipOfAV1FileIsDetected) {
  auto v2 = BuildRdxImage(TinyTriples());
  ASSERT_TRUE(v2.ok());
  const std::string good = DowngradeToV1(*v2);
  ASSERT_TRUE(OpenImage("v1_sweep.rdx", good).ok());
  for (size_t at = 0; at < good.size(); ++at) {
    std::string bad = good;
    bad[at] = static_cast<char>(bad[at] ^ 0xFF);
    auto reader = OpenImage("v1_sweep.rdx", bad);
    EXPECT_FALSE(reader.ok()) << "flip at byte " << at << " was accepted";
  }
}

TEST(RdxRoundTripTest, ImageIsDeterministic) {
  const std::vector<Triple> triples = SmallDataset(DatasetFamily::kDbpedia);
  auto a = BuildRdxImage(triples);
  auto b = BuildRdxImage(triples);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);
}

TEST(RdxRoundTripTest, EmptyRelationRoundTrips) {
  const std::string path = TempPath("empty.rdx");
  ASSERT_TRUE(WriteRdxFile(path, {}).ok());
  auto reader = RdxReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ((*reader)->triple_count(), 0u);
  EXPECT_EQ((*reader)->term_count(), 0u);
  EXPECT_EQ((*reader)->property_count(), 0u);
  EXPECT_TRUE((*reader)->Triples().empty());
}

// RDF has no empty subject or property, and the relational record grammar
// reads an all-empty column as an unmatched OPTIONAL: Open refuses a file
// that serves a triple with either, naming its position, so the load verb
// registers nothing from it. An empty object is an ordinary literal.
TEST(RdxValidateTest, RejectsEmptySubjectOrProperty) {
  const std::pair<std::vector<Triple>, std::string> cases[] = {
      {{Triple("", "", ""), Triple("a", "p", "b")},
       ": triple 1: empty subject"},
      {{Triple("a", "p", "b"), Triple("c", "", "d")},
       ": triple 2: empty property"},
  };
  service::ServiceConfig config;
  service::QueryService service(config);
  for (const auto& [triples, error] : cases) {
    const std::string path = TempPath("empty_term.rdx");
    ASSERT_TRUE(WriteRdxFile(path, triples).ok());
    auto reader = RdxReader::Open(path);
    ASSERT_FALSE(reader.ok()) << error;
    EXPECT_TRUE(reader.status().IsInvalidArgument())
        << reader.status().ToString();
    EXPECT_EQ(reader.status().message(), path + error);
    service::HandleResult load = service::HandleRequestLine(
        &service, R"({"verb":"load","dataset":"e","path":")" + path + "\"}");
    EXPECT_FALSE(load.response.GetBool("ok")) << load.response.Dump();
    EXPECT_TRUE(service.ListDatasets().empty());
  }
  const std::string path = TempPath("empty_object.rdx");
  ASSERT_TRUE(WriteRdxFile(path, {Triple("a", "p", "")}).ok());
  auto reader = RdxReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ((*reader)->triple_count(), 1u);
}

// ---- golden v2 layout -------------------------------------------------------

// Pins the v2 wire layout of the fixed TinyTriples() relation. If any of
// these assertions move, the change is a FORMAT change: bump kRdxVersion
// and update docs/FORMAT.md instead of editing the expectations.
TEST(RdxGoldenTest, V2HeaderAndTableLayoutIsPinned) {
  auto image_or = BuildRdxImage(TinyTriples());
  ASSERT_TRUE(image_or.ok());
  const std::string& image = *image_or;

  // Fixed geometry.
  EXPECT_EQ(storage::kRdxHeaderBytes, 48u);
  EXPECT_EQ(storage::kRdxSectionEntryBytes, 32u);
  EXPECT_EQ(storage::kRdxFirstSectionOffset, 176u);
  EXPECT_EQ(storage::RdxFirstSectionOffsetForVersion(1), 144u);

  // Header fields.
  ASSERT_GE(image.size(), storage::kRdxFirstSectionOffset);
  EXPECT_EQ(image.substr(0, 8), std::string("RDFMRDX\n"));
  EXPECT_EQ(ReadU32(image, storage::kRdxOffVersion), 2u);
  EXPECT_EQ(ReadU32(image, storage::kRdxOffSectionCount), 4u);
  EXPECT_EQ(ReadU64(image, storage::kRdxOffTripleCount), 3u);
  // 7 distinct terms in first-occurrence order:
  // s1 p1 o1 s2 p2 "label one" — s1 reused; terms: s1,p1,o1,s2,p2,label.
  EXPECT_EQ(ReadU64(image, storage::kRdxOffTermCount), 6u);
  EXPECT_EQ(ReadU64(image, storage::kRdxOffFileSize), image.size());

  // Section table: ids 1..4, reserved zero, contiguous from offset 176.
  // dictionary = 7 u64 offsets + 19 blob bytes = 75; triples = 3 * 12;
  // index = 8 + 2 * 24 + 3 * 4 = 68; stats = 24 + 2 * 32 = 88.
  const uint64_t expected_sizes[4] = {75, 36, 68, 88};
  uint64_t offset = storage::kRdxFirstSectionOffset;
  for (uint32_t i = 0; i < 4; ++i) {
    const size_t entry = storage::kRdxTableOffset +
                         i * storage::kRdxSectionEntryBytes;
    EXPECT_EQ(ReadU32(image, entry), i + 1) << "section id " << i;
    EXPECT_EQ(ReadU32(image, entry + 4), 0u) << "reserved " << i;
    EXPECT_EQ(ReadU64(image, entry + 8), offset) << "offset " << i;
    EXPECT_EQ(ReadU64(image, entry + 16), expected_sizes[i]) << "size " << i;
    EXPECT_EQ(ReadU64(image, entry + 24),
              Fnv1a64(std::string_view(image).substr(offset,
                                                     expected_sizes[i])))
        << "checksum " << i;
    offset += expected_sizes[i];
  }
  EXPECT_EQ(offset, image.size());

  // Dictionary: first-occurrence interning order, ids 0..5.
  const size_t dict = storage::kRdxFirstSectionOffset;
  const char* expected_terms[6] = {"s1", "p1", "o1", "s2", "p2", "label one"};
  uint64_t blob_at = 0;
  for (int t = 0; t < 6; ++t) {
    EXPECT_EQ(ReadU64(image, dict + 8 * t), blob_at) << "term offset " << t;
    blob_at += std::string(expected_terms[t]).size();
  }
  EXPECT_EQ(ReadU64(image, dict + 8 * 6), blob_at);
  EXPECT_EQ(image.substr(dict + 56, 19), std::string("s1p1o1s2p2label one"));

  // Triple records: (0,1,2) (3,1,0) (0,4,5).
  const size_t triples_at = dict + 75;
  const uint32_t expected_ids[9] = {0, 1, 2, 3, 1, 0, 0, 4, 5};
  for (int f = 0; f < 9; ++f) {
    EXPECT_EQ(ReadU32(image, triples_at + 4 * f), expected_ids[f])
        << "triple field " << f;
  }

  // Property index: p1 (id 1) -> rows 0,1; p2 (id 4) -> row 2.
  const size_t index_at = triples_at + 36;
  EXPECT_EQ(ReadU64(image, index_at), 2u);  // num_properties
  EXPECT_EQ(ReadU32(image, index_at + 8), 1u);        // p1
  EXPECT_EQ(ReadU64(image, index_at + 16), 0u);       // postings start
  EXPECT_EQ(ReadU64(image, index_at + 24), 2u);       // postings count
  EXPECT_EQ(ReadU32(image, index_at + 32), 4u);       // p2
  EXPECT_EQ(ReadU64(image, index_at + 40), 2u);       // postings start
  EXPECT_EQ(ReadU64(image, index_at + 48), 1u);       // postings count
  EXPECT_EQ(ReadU32(image, index_at + 56), 0u);       // p1 row 0
  EXPECT_EQ(ReadU32(image, index_at + 60), 1u);       // p1 row 1
  EXPECT_EQ(ReadU32(image, index_at + 64), 2u);       // p2 row 2

  // Graph stats: 3 triples over 2 subjects (s1, s2); p1 covers both
  // subjects with one object each, p2 covers s1 only.
  const size_t stats_at = index_at + 68;
  EXPECT_EQ(ReadU64(image, stats_at), 3u);       // triple count
  EXPECT_EQ(ReadU64(image, stats_at + 8), 2u);   // distinct subjects
  EXPECT_EQ(ReadU64(image, stats_at + 16), 2u);  // records
  EXPECT_EQ(ReadU32(image, stats_at + 24), 1u);  // p1
  EXPECT_EQ(ReadU64(image, stats_at + 32), 2u);  // p1 triples
  EXPECT_EQ(ReadU64(image, stats_at + 40), 2u);  // p1 subjects
  EXPECT_EQ(ReadU64(image, stats_at + 48), 1u);  // p1 max multiplicity
  EXPECT_EQ(ReadU32(image, stats_at + 56), 4u);  // p2
  EXPECT_EQ(ReadU64(image, stats_at + 64), 1u);  // p2 triples
  EXPECT_EQ(ReadU64(image, stats_at + 72), 1u);  // p2 subjects
  EXPECT_EQ(ReadU64(image, stats_at + 80), 1u);  // p2 max multiplicity
}

// ---- differential: parsed vs mapped -----------------------------------------

TEST(RdxDifferentialTest, MappedAndParsedLoadsAreByteIdenticalAcrossEngines) {
  const std::vector<Triple> triples = SmallDataset(DatasetFamily::kBsbm);
  const std::string nt_path = TempPath("diff.nt");
  const std::string rdx_path = TempPath("diff.rdx");
  ASSERT_TRUE(service::WriteDatasetFile(nt_path, triples).ok());
  // Index from the PARSED .nt so both loads see the same relation even
  // where .nt rendering is lossy about the in-memory original.
  auto parsed = service::ReadDatasetFile(nt_path);
  ASSERT_TRUE(parsed.ok());
  ASSERT_TRUE(WriteRdxFile(rdx_path, *parsed).ok());

  auto query = GetTestbedQuery("B1");
  ASSERT_TRUE(query.ok());

  service::ServiceConfig config;
  config.cluster = testing_util::RoomyCluster();
  service::QueryService parsed_service(config);
  service::QueryService mapped_service(config);
  ASSERT_TRUE(parsed_service
                  .RegisterDataset(
                      "d", [nt_path] {
                        return service::ReadDatasetFile(nt_path);
                      })
                  .ok());
  auto mapped_info = mapped_service.RegisterMappedDataset("d", rdx_path);
  ASSERT_TRUE(mapped_info.ok()) << mapped_info.status().ToString();
  EXPECT_TRUE(mapped_info->mapped);
  EXPECT_GT(mapped_info->mapped_bytes, 0u);
  EXPECT_FALSE(mapped_info->loaded);  // nothing materialized yet
  EXPECT_EQ(mapped_info->num_triples, parsed->size());

  for (EngineKind kind : AllEngineKinds()) {
    SCOPED_TRACE(EngineKindToString(kind));
    for (uint32_t threads : {1u, 4u}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      service::ServiceRequest request;
      request.dataset = "d";
      request.query = *query;
      request.options.kind = kind;
      request.options.runtime.num_threads = threads;
      request.use_result_cache = false;

      service::ServiceResponse from_parsed = parsed_service.Query(request);
      service::ServiceResponse from_mapped = mapped_service.Query(request);
      ASSERT_TRUE(from_parsed.ok()) << from_parsed.status.ToString();
      ASSERT_TRUE(from_mapped.ok()) << from_mapped.status.ToString();
      EXPECT_EQ(from_mapped.answer_set(), from_parsed.answer_set());
      const std::vector<std::string> diff = fuzz::CompareStatsIgnoringWallTimes(
          from_mapped.stats, from_parsed.stats);
      EXPECT_TRUE(diff.empty()) << diff.front();
    }
  }
}

// The zero-materialization scan path of a mapped dataset must be
// indistinguishable — answers and every deterministic stat — from the same
// .rdx registered through a ReadDatasetFile loader, which decodes it into a
// triple vector on first query, across every engine kind and thread count.
TEST(RdxDifferentialTest, MappedScansMatchDecodedRegistration) {
  const std::vector<Triple> triples = SmallDataset(DatasetFamily::kBsbm);
  const std::string rdx_path = TempPath("scan_diff.rdx");
  ASSERT_TRUE(WriteRdxFile(rdx_path, triples).ok());

  auto query = GetTestbedQuery("B1");
  ASSERT_TRUE(query.ok());

  service::ServiceConfig config;
  config.cluster = testing_util::RoomyCluster();
  service::QueryService scan_service(config);
  service::QueryService decoded_service(config);
  auto scan_info = scan_service.RegisterMappedDataset("d", rdx_path);
  auto decoded_info = decoded_service.RegisterDataset(
      "d", [rdx_path] { return service::ReadDatasetFile(rdx_path); });
  ASSERT_TRUE(scan_info.ok()) << scan_info.status().ToString();
  ASSERT_TRUE(decoded_info.ok()) << decoded_info.status().ToString();
  EXPECT_TRUE(scan_info->mapped_scans);
  EXPECT_FALSE(decoded_info->mapped_scans);

  for (EngineKind kind : AllEngineKinds()) {
    SCOPED_TRACE(EngineKindToString(kind));
    for (uint32_t threads : {1u, 4u}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      service::ServiceRequest request;
      request.dataset = "d";
      request.query = *query;
      request.options.kind = kind;
      request.options.runtime.num_threads = threads;
      request.use_result_cache = false;

      service::ServiceResponse from_scan = scan_service.Query(request);
      service::ServiceResponse from_decoded = decoded_service.Query(request);
      ASSERT_TRUE(from_scan.ok()) << from_scan.status.ToString();
      ASSERT_TRUE(from_decoded.ok()) << from_decoded.status.ToString();
      EXPECT_EQ(from_scan.answer_set(), from_decoded.answer_set());
      const std::vector<std::string> diff = fuzz::CompareStatsIgnoringWallTimes(
          from_scan.stats, from_decoded.stats);
      EXPECT_TRUE(diff.empty()) << diff.front();
    }
  }
  // Both handles report the same logical base relation size: mounting the
  // mapping meters exactly the bytes the decoded write would have.
  for (const service::DatasetInfo& info : scan_service.ListDatasets()) {
    for (const service::DatasetInfo& other :
         decoded_service.ListDatasets()) {
      EXPECT_EQ(info.base_bytes, other.base_bytes);
      EXPECT_EQ(info.num_triples, other.num_triples);
    }
  }
}

// Satellite regression: `rdfmr index` on a ZERO-triple input must produce
// a valid .rdx that opens, mounts, scans, and serves empty answers end to
// end — exercising the empty-section edge in writer, reader, registry,
// and the zero-materialization scan path.
TEST(RdxDifferentialTest, ZeroTripleIndexServesEmptyAnswersEndToEnd) {
  const std::string nt_path = TempPath("zero.nt");
  const std::string rdx_path = TempPath("zero.rdx");
  // The CLI `index` pipeline: read the dataset file, write the .rdx,
  // reopen through the validating reader.
  ASSERT_TRUE(service::WriteDatasetFile(nt_path, {}).ok());
  auto parsed = service::ReadDatasetFile(nt_path);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed->empty());
  ASSERT_TRUE(WriteRdxFile(rdx_path, *parsed).ok());
  auto reader = RdxReader::Open(rdx_path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ((*reader)->triple_count(), 0u);

  auto query = GetTestbedQuery("B1");
  ASSERT_TRUE(query.ok());

  for (bool mapped : {true, false}) {
    SCOPED_TRACE(mapped ? "mapped scans" : "decoded");
    service::ServiceConfig config;
    config.cluster = testing_util::RoomyCluster();
    service::QueryService service(config);
    auto info = mapped ? service.RegisterMappedDataset("zero", rdx_path)
                       : service.RegisterDataset("zero", [rdx_path] {
                           return service::ReadDatasetFile(rdx_path);
                         });
    ASSERT_TRUE(info.ok()) << info.status().ToString();
    EXPECT_EQ(info->num_triples, 0u);

    for (EngineKind kind : AllEngineKinds()) {
      SCOPED_TRACE(EngineKindToString(kind));
      service::ServiceRequest request;
      request.dataset = "zero";
      request.query = *query;
      request.options.kind = kind;
      request.use_result_cache = false;
      service::ServiceResponse response = service.Query(request);
      ASSERT_TRUE(response.ok()) << response.status.ToString();
      ASSERT_TRUE(response.stats.ok()) << response.stats.status.ToString();
      EXPECT_TRUE(response.answer_set().empty());
    }
  }
}

TEST(RdxDifferentialTest, ReadDatasetFileDetectsRdxTransparently) {
  const std::vector<Triple> triples = TinyTriples();
  const std::string path = TempPath("detect.rdx");
  ASSERT_TRUE(WriteRdxFile(path, triples).ok());
  auto loaded = service::ReadDatasetFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, triples);
}

// ---- corruption -------------------------------------------------------------

TEST(RdxCorruptionTest, TruncationAtEveryLengthIsRejected) {
  auto image_or = BuildRdxImage(TinyTriples());
  ASSERT_TRUE(image_or.ok());
  const std::string& image = *image_or;
  // Every proper prefix must fail (and never crash): short prefixes as
  // truncation (kDataLoss), longer ones as size/checksum mismatches.
  for (size_t len = 0; len < image.size(); ++len) {
    auto reader = OpenImage("trunc.rdx", image.substr(0, len));
    ASSERT_FALSE(reader.ok()) << "prefix of " << len << " bytes opened";
    EXPECT_TRUE(reader.status().code() == StatusCode::kDataLoss ||
                reader.status().code() == StatusCode::kInvalidArgument)
        << reader.status().ToString();
  }
}

TEST(RdxCorruptionTest, WrongMagicNamesFileAndOffset) {
  auto image = BuildRdxImage(TinyTriples());
  ASSERT_TRUE(image.ok());
  (*image)[0] = 'X';
  auto reader = OpenImage("magic.rdx", *image);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(reader.status().message().find("magic"), std::string::npos);
  EXPECT_NE(reader.status().message().find("magic.rdx"), std::string::npos);
  EXPECT_NE(reader.status().message().find("byte offset 0"),
            std::string::npos);
}

TEST(RdxCorruptionTest, UnsupportedVersionIsExplicit) {
  auto image = BuildRdxImage(TinyTriples());
  ASSERT_TRUE(image.ok());
  (*image)[storage::kRdxOffVersion] = 9;
  auto reader = OpenImage("version.rdx", *image);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(reader.status().message().find("unsupported format version 9"),
            std::string::npos);
}

TEST(RdxCorruptionTest, FlippedPayloadByteFailsTheSectionChecksum) {
  auto image = BuildRdxImage(TinyTriples());
  ASSERT_TRUE(image.ok());
  // Flip one dictionary blob byte.
  (*image)[storage::kRdxFirstSectionOffset + 60] ^= 0x01;
  auto reader = OpenImage("flip.rdx", *image);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(reader.status().message().find("checksum mismatch"),
            std::string::npos);
  EXPECT_NE(reader.status().message().find("dictionary"), std::string::npos);
}

TEST(RdxCorruptionTest, OutOfBoundsSectionOffsetIsStructured) {
  auto image = BuildRdxImage(TinyTriples());
  ASSERT_TRUE(image.ok());
  // Point the triples section far past EOF; restamp the header checksum
  // so validation reaches the bounds check itself.
  PutU64(&*image,
         storage::kRdxTableOffset + storage::kRdxSectionEntryBytes + 8,
         1ULL << 60);
  RestampHeaderChecksum(&*image);
  auto reader = OpenImage("oob.rdx", *image);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(reader.status().message().find("out of bounds"),
            std::string::npos);
  EXPECT_NE(reader.status().message().find("triples"), std::string::npos);
}

TEST(RdxCorruptionTest, HeaderCountCorruptionIsCaughtByTheChecksum) {
  auto image = BuildRdxImage(TinyTriples());
  ASSERT_TRUE(image.ok());
  (*image)[storage::kRdxOffTripleCount] = 99;
  auto reader = OpenImage("count.rdx", *image);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kDataLoss);
}

TEST(RdxCorruptionTest, NotAFileAndMissingFileAreIoErrors) {
  auto missing = RdxReader::Open(TempPath("does_not_exist.rdx"));
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kIoError);
  auto dir = RdxReader::Open(::testing::TempDir());
  ASSERT_FALSE(dir.ok());
  EXPECT_EQ(dir.status().code(), StatusCode::kIoError);
}

TEST(RdxCorruptionTest, EveryByteFlipIsDetected) {
  auto image_or = BuildRdxImage(TinyTriples());
  ASSERT_TRUE(image_or.ok());
  const std::string& good = *image_or;
  ASSERT_TRUE(OpenImage("sweep.rdx", good).ok());
  // Every byte of the file is covered by magic/version/count checks, the
  // header checksum, or a section checksum — so EVERY single-byte
  // corruption must be rejected at Open, at every position.
  for (size_t at = 0; at < good.size(); ++at) {
    std::string bad = good;
    bad[at] = static_cast<char>(bad[at] ^ 0xFF);
    auto reader = OpenImage("sweep.rdx", bad);
    EXPECT_FALSE(reader.ok()) << "flip at byte " << at << " was accepted";
  }
}

TEST(RdxCorruptionTest, MappedRegistrationSurfacesCorruptionNotCrash) {
  auto image = BuildRdxImage(TinyTriples());
  ASSERT_TRUE(image.ok());
  (*image)[image->size() - 1] ^= 0xFF;
  const std::string path = TempPath("bad_register.rdx");
  WriteBytes(path, *image);

  service::ServiceConfig config;
  config.cluster = testing_util::RoomyCluster();
  service::QueryService service(config);
  auto info = service.RegisterMappedDataset("bad", path);
  ASSERT_FALSE(info.ok());
  EXPECT_EQ(info.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(info.status().message().find(path), std::string::npos);
  EXPECT_TRUE(service.ListDatasets().empty());
}

// The zero-materialization scan path trusts the property-index postings to
// enumerate matching rows, so a corrupted posting must be caught when the
// mapping is registered for scanning (RdxReader::Open checksums every
// section) — never surface as a wrong or crashing answer mid-query.
TEST(RdxCorruptionTest, CorruptPostingSectionFailsAtScanRegistration) {
  auto image = BuildRdxImage(TinyTriples());
  ASSERT_TRUE(image.ok());
  // Locate the property-index section through the table and flip a row id
  // inside its trailing postings array.
  const size_t index_entry =
      storage::kRdxTableOffset + 2 * storage::kRdxSectionEntryBytes;
  const uint64_t index_offset = ReadU64(*image, index_entry + 8);
  const uint64_t index_size = ReadU64(*image, index_entry + 16);
  (*image)[index_offset + index_size - 2] ^= 0xFF;
  const std::string path = TempPath("bad_posting.rdx");
  WriteBytes(path, *image);

  service::ServiceConfig config;
  config.cluster = testing_util::RoomyCluster();
  service::QueryService service(config);
  auto info = service.RegisterMappedDataset("bad", path);
  ASSERT_FALSE(info.ok());
  EXPECT_EQ(info.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(info.status().message().find("property index"),
            std::string::npos)
      << info.status().ToString();
  // Registration rejected the dataset outright: no handle exists for a
  // query to reach, so the failure can never move mid-scan.
  EXPECT_TRUE(service.ListDatasets().empty());
}

}  // namespace
}  // namespace rdfmr

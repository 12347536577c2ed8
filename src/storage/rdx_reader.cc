#include "storage/rdx_reader.h"

#include <cstring>
#include <limits>
#include <map>
#include <utility>

#include "common/hash.h"
#include "common/strings.h"
#include "storage/format.h"

namespace rdfmr {
namespace storage {
namespace {

const char* SectionName(uint32_t id) {
  switch (static_cast<SectionId>(id)) {
    case SectionId::kDictionary:
      return "dictionary";
    case SectionId::kTriples:
      return "triples";
    case SectionId::kPropertyIndex:
      return "property index";
    case SectionId::kGraphStats:
      return "graph stats";
  }
  return "unknown";
}

std::string_view ViewOf(const uint8_t* data, size_t size) {
  return std::string_view(reinterpret_cast<const char*>(data), size);
}

}  // namespace

bool IsRdxPath(std::string_view path) { return EndsWith(path, kRdxExtension); }

Result<std::shared_ptr<const RdxReader>> RdxReader::Open(
    const std::string& path) {
  RDFMR_ASSIGN_OR_RETURN(MemMap map, MemMap::Open(path));
  auto reader = std::shared_ptr<RdxReader>(new RdxReader(std::move(map)));
  RDFMR_RETURN_NOT_OK(reader->Validate());
  return std::shared_ptr<const RdxReader>(std::move(reader));
}

Status RdxReader::Validate() {
  const std::string& path = map_.path();
  const uint8_t* data = map_.data();
  const uint64_t file_size = map_.size();
  constexpr uint64_t kMaxIds = std::numeric_limits<uint32_t>::max();

  if (file_size < kRdxHeaderBytes) {
    return Status::DataLoss(
        path + ": truncated: " + std::to_string(file_size) +
        " byte(s), an rdx header is " + std::to_string(kRdxHeaderBytes));
  }
  if (std::memcmp(data, kRdxMagic, sizeof(kRdxMagic)) != 0) {
    return Status::InvalidArgument(
        path + ": bad magic at byte offset 0 — not an rdx dataset file");
  }
  const uint32_t version = LoadU32(data + kRdxOffVersion);
  if (version < kRdxMinVersion || version > kRdxVersion) {
    return Status::InvalidArgument(
        path + ": unsupported format version " + std::to_string(version) +
        " at byte offset " + std::to_string(kRdxOffVersion) +
        " (this build reads v" + std::to_string(kRdxMinVersion) + "..v" +
        std::to_string(kRdxVersion) + ")");
  }
  const uint32_t want_sections = RdxSectionCountForVersion(version);
  const size_t first_section_offset =
      RdxFirstSectionOffsetForVersion(version);
  const uint32_t section_count = LoadU32(data + kRdxOffSectionCount);
  if (section_count != want_sections) {
    return Status::InvalidArgument(
        path + ": v" + std::to_string(version) + " files have " +
        std::to_string(want_sections) + " sections, header says " +
        std::to_string(section_count) + " at byte offset " +
        std::to_string(kRdxOffSectionCount));
  }
  if (file_size < first_section_offset) {
    return Status::DataLoss(
        path + ": truncated inside the section table: " +
        std::to_string(file_size) + " byte(s), table ends at " +
        std::to_string(first_section_offset));
  }
  const uint64_t stated_size = LoadU64(data + kRdxOffFileSize);
  if (stated_size != file_size) {
    return Status::DataLoss(
        path + ": file size mismatch: header (byte offset " +
        std::to_string(kRdxOffFileSize) + ") says " +
        std::to_string(stated_size) + " byte(s), file has " +
        std::to_string(file_size) + " — truncated or appended to");
  }
  const uint64_t header_hash = HashCombine(
      Fnv1a64(ViewOf(data, kRdxOffHeaderChecksum)),
      Fnv1a64(ViewOf(data + kRdxTableOffset,
                     want_sections * kRdxSectionEntryBytes)));
  if (header_hash != LoadU64(data + kRdxOffHeaderChecksum)) {
    return Status::DataLoss(
        path + ": header/section-table checksum mismatch at byte offset " +
        std::to_string(kRdxOffHeaderChecksum));
  }

  const uint64_t triple_count = LoadU64(data + kRdxOffTripleCount);
  const uint64_t term_count = LoadU64(data + kRdxOffTermCount);
  if (triple_count > kMaxIds || term_count > kMaxIds) {
    return Status::InvalidArgument(
        path + ": header counts exceed the v1 limit of 2^32-1 (" +
        std::to_string(triple_count) + " triples, " +
        std::to_string(term_count) + " terms)");
  }

  // Section table: ids in order, reserved zero, contiguous in-bounds
  // byte ranges, and a matching checksum per section.
  uint64_t expected_offset = first_section_offset;
  uint64_t offsets[kRdxSectionCount] = {0};
  uint64_t sizes[kRdxSectionCount] = {0};
  for (uint32_t i = 0; i < want_sections; ++i) {
    const uint8_t* entry =
        data + kRdxTableOffset + i * kRdxSectionEntryBytes;
    const size_t entry_at = kRdxTableOffset + i * kRdxSectionEntryBytes;
    const uint32_t id = LoadU32(entry);
    if (id != i + 1) {
      return Status::InvalidArgument(
          path + ": section table entry " + std::to_string(i) +
          " at byte offset " + std::to_string(entry_at) + ": id " +
          std::to_string(id) + ", expected " + std::to_string(i + 1) + " (" +
          SectionName(i + 1) + ")");
    }
    if (LoadU32(entry + 4) != 0) {
      return Status::InvalidArgument(
          path + ": section table entry " + std::to_string(i) +
          ": reserved field at byte offset " + std::to_string(entry_at + 4) +
          " must be zero");
    }
    const uint64_t offset = LoadU64(entry + 8);
    const uint64_t size = LoadU64(entry + 16);
    if (offset > file_size || size > file_size - offset) {
      return Status::InvalidArgument(
          path + ": section '" + SectionName(id) + "' out of bounds: [" +
          std::to_string(offset) + ", +" + std::to_string(size) +
          ") exceeds the " + std::to_string(file_size) + "-byte file");
    }
    if (offset != expected_offset) {
      return Status::InvalidArgument(
          path + ": section '" + SectionName(id) + "' at byte offset " +
          std::to_string(offset) + ", expected " +
          std::to_string(expected_offset) + " (rdx sections are contiguous)");
    }
    const uint64_t hash = Fnv1a64(ViewOf(data + offset, size));
    if (hash != LoadU64(entry + 24)) {
      return Status::DataLoss(
          path + ": section '" + SectionName(id) +
          "' checksum mismatch over byte range [" + std::to_string(offset) +
          ", +" + std::to_string(size) + ")");
    }
    offsets[i] = offset;
    sizes[i] = size;
    expected_offset += size;
  }
  if (expected_offset != file_size) {
    return Status::InvalidArgument(
        path + ": sections end at byte offset " +
        std::to_string(expected_offset) + " but the file has " +
        std::to_string(file_size) + " byte(s)");
  }

  // Dictionary: (term_count+1) ascending u64 offsets, then the blob.
  {
    const uint8_t* section = data + offsets[0];
    const uint64_t size = sizes[0];
    const uint64_t offsets_bytes = 8 * (term_count + 1);
    if (size < offsets_bytes) {
      return Status::InvalidArgument(
          path + ": dictionary section is " + std::to_string(size) +
          " byte(s), too small for " + std::to_string(term_count + 1) +
          " term offsets (header says " + std::to_string(term_count) +
          " terms)");
    }
    const uint64_t blob_bytes = size - offsets_bytes;
    uint64_t previous = 0;
    for (uint64_t i = 0; i <= term_count; ++i) {
      const uint64_t term_offset = LoadU64(section + 8 * i);
      if (term_offset < previous || term_offset > blob_bytes) {
        return Status::InvalidArgument(
            path + ": dictionary term offset " + std::to_string(i) +
            " at byte offset " + std::to_string(offsets[0] + 8 * i) +
            " is " + std::to_string(term_offset) +
            " (must be ascending and within the " +
            std::to_string(blob_bytes) + "-byte blob)");
      }
      previous = term_offset;
    }
    if (previous != blob_bytes) {
      return Status::InvalidArgument(
          path + ": dictionary blob is " + std::to_string(blob_bytes) +
          " byte(s) but the last term ends at " + std::to_string(previous));
    }
    dict_offsets_ = section;
    dict_blob_ = section + offsets_bytes;
  }

  // Triples: exactly triple_count 12-byte records of in-range term ids,
  // none with an empty subject or property (RDF has neither).
  {
    const uint8_t* section = data + offsets[1];
    const uint64_t size = sizes[1];
    if (size != triple_count * kRdxTripleRecordBytes) {
      return Status::InvalidArgument(
          path + ": triples section is " + std::to_string(size) +
          " byte(s), expected " +
          std::to_string(triple_count * kRdxTripleRecordBytes) + " for " +
          std::to_string(triple_count) + " triple(s)");
    }
    for (uint64_t i = 0; i < triple_count; ++i) {
      const uint8_t* record = section + i * kRdxTripleRecordBytes;
      for (int field = 0; field < 3; ++field) {
        const uint32_t id = LoadU32(record + 4 * field);
        if (id >= term_count) {
          return Status::InvalidArgument(
              path + ": triple " + std::to_string(i) + " field " +
              std::to_string(field) + " at byte offset " +
              std::to_string(offsets[1] + i * kRdxTripleRecordBytes +
                             4 * field) +
              ": term id " + std::to_string(id) + " >= term count " +
              std::to_string(term_count));
        }
        if (field < 2 && LoadU64(dict_offsets_ + 8 * (id + 1)) ==
                             LoadU64(dict_offsets_ + 8 * id)) {
          return Status::InvalidArgument(
              path + ": triple " + std::to_string(i + 1) +
              (field == 0 ? ": empty subject" : ": empty property"));
        }
      }
    }
    triples_ = section;
  }

  // Property index: entries in ascending property-id order whose
  // postings are exactly the triple indices of that property, ascending.
  // Together with the total-count check this proves the postings are a
  // permutation of [0, triple_count) grouped by property — a VP scan
  // over the index can never silently drop or duplicate a triple.
  {
    const uint8_t* section = data + offsets[2];
    const uint64_t size = sizes[2];
    if (size < 8) {
      return Status::InvalidArgument(
          path + ": property index section is " + std::to_string(size) +
          " byte(s), need at least 8");
    }
    const uint64_t num_properties = LoadU64(section);
    const uint64_t expected_size =
        8 + num_properties * kRdxPropertyEntryBytes + 4 * triple_count;
    if (num_properties > triple_count || size != expected_size) {
      return Status::InvalidArgument(
          path + ": property index section is " + std::to_string(size) +
          " byte(s), expected " + std::to_string(expected_size) + " for " +
          std::to_string(num_properties) + " propert(ies) over " +
          std::to_string(triple_count) + " triple(s)");
    }
    const uint8_t* entries = section + 8;
    const uint8_t* postings =
        entries + num_properties * kRdxPropertyEntryBytes;
    uint64_t running_start = 0;
    uint64_t previous_property = 0;
    for (uint64_t e = 0; e < num_properties; ++e) {
      const uint8_t* entry = entries + e * kRdxPropertyEntryBytes;
      const uint32_t property = LoadU32(entry);
      const uint32_t reserved = LoadU32(entry + 4);
      const uint64_t start = LoadU64(entry + 8);
      const uint64_t count = LoadU64(entry + 16);
      if (reserved != 0) {
        return Status::InvalidArgument(
            path + ": property index entry " + std::to_string(e) +
            ": reserved field must be zero");
      }
      if (property >= term_count ||
          (e > 0 && property <= previous_property)) {
        return Status::InvalidArgument(
            path + ": property index entry " + std::to_string(e) +
            ": property id " + std::to_string(property) +
            " must be in-range and strictly ascending");
      }
      if (start != running_start || count == 0 ||
          count > triple_count - running_start) {
        return Status::InvalidArgument(
            path + ": property index entry " + std::to_string(e) +
            ": postings range [" + std::to_string(start) + ", +" +
            std::to_string(count) + ") is not contiguous within " +
            std::to_string(triple_count) + " posting(s)");
      }
      uint64_t previous_row = 0;
      for (uint64_t j = 0; j < count; ++j) {
        const uint32_t row = LoadU32(postings + 4 * (start + j));
        if (row >= triple_count || (j > 0 && row <= previous_row)) {
          return Status::InvalidArgument(
              path + ": property index entry " + std::to_string(e) +
              " posting " + std::to_string(j) + ": triple index " +
              std::to_string(row) +
              " must be in-range and strictly ascending");
        }
        const uint32_t row_property =
            LoadU32(triples_ + row * kRdxTripleRecordBytes + 4);
        if (row_property != property) {
          return Status::InvalidArgument(
              path + ": property index entry " + std::to_string(e) +
              " posting " + std::to_string(j) + ": triple " +
              std::to_string(row) + " has property id " +
              std::to_string(row_property) + ", not " +
              std::to_string(property));
        }
        previous_row = row;
      }
      previous_property = property;
      running_start += count;
    }
    if (running_start != triple_count) {
      return Status::InvalidArgument(
          path + ": property index covers " + std::to_string(running_start) +
          " posting(s) but the file holds " + std::to_string(triple_count) +
          " triple(s)");
    }
    property_count_ = num_properties;
    index_entries_ = entries;
    index_postings_ = postings;
  }

  // Graph stats (v2+): one record per indexed property, in the index's
  // ascending-id order, each cross-checked against the postings it
  // summarizes — a corrupt catalog can never mislead the plan chooser.
  if (version >= 2) {
    const uint8_t* section = data + offsets[3];
    const uint64_t size = sizes[3];
    const uint64_t expected_size =
        kRdxStatsHeaderBytes + property_count_ * kRdxStatsRecordBytes;
    if (size != expected_size) {
      return Status::InvalidArgument(
          path + ": graph stats section is " + std::to_string(size) +
          " byte(s), expected " + std::to_string(expected_size) + " for " +
          std::to_string(property_count_) + " propert(ies)");
    }
    if (LoadU64(section) != triple_count) {
      return Status::InvalidArgument(
          path + ": graph stats triple count " +
          std::to_string(LoadU64(section)) + " disagrees with the header (" +
          std::to_string(triple_count) + ")");
    }
    const uint64_t distinct_subjects = LoadU64(section + 8);
    if (distinct_subjects > triple_count ||
        (triple_count > 0 && distinct_subjects == 0)) {
      return Status::InvalidArgument(
          path + ": graph stats claim " + std::to_string(distinct_subjects) +
          " distinct subject(s) over " + std::to_string(triple_count) +
          " triple(s)");
    }
    if (LoadU64(section + 16) != property_count_) {
      return Status::InvalidArgument(
          path + ": graph stats record count " +
          std::to_string(LoadU64(section + 16)) +
          " disagrees with the property index (" +
          std::to_string(property_count_) + ")");
    }
    const uint8_t* records = section + kRdxStatsHeaderBytes;
    for (uint64_t e = 0; e < property_count_; ++e) {
      const uint8_t* record = records + e * kRdxStatsRecordBytes;
      const uint8_t* index_entry =
          index_entries_ + e * kRdxPropertyEntryBytes;
      const uint32_t property = LoadU32(record);
      const uint64_t prop_triples = LoadU64(record + 8);
      const uint64_t prop_subjects = LoadU64(record + 16);
      const uint64_t max_multiplicity = LoadU64(record + 24);
      if (LoadU32(record + 4) != 0) {
        return Status::InvalidArgument(
            path + ": graph stats record " + std::to_string(e) +
            ": reserved field must be zero");
      }
      if (property != LoadU32(index_entry)) {
        return Status::InvalidArgument(
            path + ": graph stats record " + std::to_string(e) +
            ": property id " + std::to_string(property) +
            " does not match index entry id " +
            std::to_string(LoadU32(index_entry)));
      }
      if (prop_triples != LoadU64(index_entry + 16)) {
        return Status::InvalidArgument(
            path + ": graph stats record " + std::to_string(e) +
            ": triple count " + std::to_string(prop_triples) +
            " disagrees with the property index (" +
            std::to_string(LoadU64(index_entry + 16)) + ")");
      }
      if (prop_subjects == 0 || prop_subjects > prop_triples ||
          prop_subjects > distinct_subjects) {
        return Status::InvalidArgument(
            path + ": graph stats record " + std::to_string(e) +
            ": subject count " + std::to_string(prop_subjects) +
            " out of range for " + std::to_string(prop_triples) +
            " triple(s)");
      }
      if (max_multiplicity == 0 || max_multiplicity > prop_triples ||
          max_multiplicity * prop_subjects < prop_triples) {
        return Status::InvalidArgument(
            path + ": graph stats record " + std::to_string(e) +
            ": max multiplicity " + std::to_string(max_multiplicity) +
            " inconsistent with " + std::to_string(prop_triples) +
            " triple(s) over " + std::to_string(prop_subjects) +
            " subject(s)");
      }
    }
    stats_section_ = section;
  }

  triple_count_ = triple_count;
  term_count_ = term_count;
  return Status::OK();
}

bool RdxReader::has_graph_stats() const { return stats_section_ != nullptr; }

GraphStats RdxReader::DecodeGraphStats() const {
  if (stats_section_ == nullptr) return GraphStats::Compute(Triples());
  std::map<std::string, PropertyStats> properties;
  const uint8_t* records = stats_section_ + kRdxStatsHeaderBytes;
  for (uint64_t e = 0; e < property_count_; ++e) {
    const uint8_t* record = records + e * kRdxStatsRecordBytes;
    PropertyStats ps;
    ps.triple_count = LoadU64(record + 8);
    ps.subject_count = LoadU64(record + 16);
    ps.max_multiplicity = LoadU64(record + 24);
    properties.emplace(std::string(term(LoadU32(record))), ps);
  }
  return GraphStats::FromParts(LoadU64(stats_section_),
                               LoadU64(stats_section_ + 8),
                               std::move(properties));
}

std::string_view RdxReader::term(uint32_t id) const {
  const uint64_t begin = LoadU64(dict_offsets_ + 8 * id);
  const uint64_t end = LoadU64(dict_offsets_ + 8 * (id + 1));
  return ViewOf(dict_blob_ + begin, end - begin);
}

RdxReader::EncodedTriple RdxReader::encoded(size_t index) const {
  const uint8_t* record = triples_ + index * kRdxTripleRecordBytes;
  return EncodedTriple{LoadU32(record), LoadU32(record + 4),
                       LoadU32(record + 8)};
}

Triple RdxReader::TripleAt(size_t index) const {
  const EncodedTriple ids = encoded(index);
  return Triple(std::string(term(ids.subject)), std::string(term(ids.property)),
                std::string(term(ids.object)));
}

std::vector<Triple> RdxReader::Triples() const {
  std::vector<Triple> out;
  out.reserve(triple_count_);
  for (size_t i = 0; i < triple_count_; ++i) out.push_back(TripleAt(i));
  return out;
}

std::optional<uint32_t> RdxReader::FindTermId(std::string_view needle) const {
  for (size_t id = 0; id < term_count_; ++id) {
    if (term(static_cast<uint32_t>(id)) == needle) {
      return static_cast<uint32_t>(id);
    }
  }
  return std::nullopt;
}

std::vector<std::string_view> RdxReader::Properties() const {
  std::vector<std::string_view> out;
  out.reserve(property_count_);
  for (size_t e = 0; e < property_count_; ++e) {
    out.push_back(term(LoadU32(index_entries_ + e * kRdxPropertyEntryBytes)));
  }
  return out;
}

std::vector<uint32_t> RdxReader::PropertyPostings(
    std::string_view property) const {
  for (size_t e = 0; e < property_count_; ++e) {
    const uint8_t* entry = index_entries_ + e * kRdxPropertyEntryBytes;
    if (term(LoadU32(entry)) != property) continue;
    const uint64_t start = LoadU64(entry + 8);
    const uint64_t count = LoadU64(entry + 16);
    std::vector<uint32_t> rows;
    rows.reserve(count);
    for (uint64_t j = 0; j < count; ++j) {
      rows.push_back(LoadU32(index_postings_ + 4 * (start + j)));
    }
    return rows;
  }
  return {};
}

}  // namespace storage
}  // namespace rdfmr

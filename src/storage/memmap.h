// MemMap: RAII read-only memory mapping of a whole file, plus a
// bounds-checked little-endian reader over byte ranges of the mapping.
//
// A mapped dataset is shared page cache: any number of processes opening
// the same .rdx file see one physical copy, and dropping the MemMap
// unmaps without writeback (PROT_READ). All accessors that can go out of
// bounds return structured errors carrying the file path and the
// offending byte offset — the mapping itself is never dereferenced
// unchecked by format-parsing code.

#ifndef RDFMR_STORAGE_MEMMAP_H_
#define RDFMR_STORAGE_MEMMAP_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/result.h"

namespace rdfmr {
namespace storage {

/// \brief Read-only mmap of one file. Movable, not copyable.
class MemMap {
 public:
  /// \brief Maps `path` read-only (kIoError on open/stat/mmap failure,
  /// with errno text). Zero-byte files map as an empty region.
  static Result<MemMap> Open(const std::string& path);

  MemMap() = default;
  ~MemMap();
  MemMap(MemMap&& other) noexcept;
  MemMap& operator=(MemMap&& other) noexcept;
  MemMap(const MemMap&) = delete;
  MemMap& operator=(const MemMap&) = delete;

  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }
  const std::string& path() const { return path_; }

 private:
  MemMap(std::string path, const uint8_t* data, size_t size)
      : path_(std::move(path)), data_(data), size_(size) {}

  std::string path_;
  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
};

/// \brief Bounds-checked little-endian reads over a [base, base+size)
/// window of a mapping. Offsets in error messages are absolute file
/// offsets (window base + relative offset), so a corruption report can be
/// matched against a hex dump directly.
class BoundedReader {
 public:
  /// `label` names the window in errors ("header", "section 'triples'").
  BoundedReader(const MemMap* map, size_t base, size_t size,
                std::string label)
      : map_(map), base_(base), size_(size), label_(std::move(label)) {}

  size_t size() const { return size_; }

  Result<uint64_t> U64(size_t offset) const;
  /// \brief A view of `length` bytes at relative `offset`.
  Result<std::string_view> Bytes(size_t offset, size_t length) const;

 private:
  Status OutOfBounds(size_t offset, size_t length) const;

  const MemMap* map_;
  size_t base_;
  size_t size_;
  std::string label_;
};

/// \brief Unchecked little-endian loads (memcpy-based, alignment-safe)
/// for hot paths that run after full validation.
inline uint32_t LoadU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 |
         static_cast<uint32_t>(p[3]) << 24;
}
inline uint64_t LoadU64(const uint8_t* p) {
  return static_cast<uint64_t>(LoadU32(p)) |
         static_cast<uint64_t>(LoadU32(p + 4)) << 32;
}

}  // namespace storage
}  // namespace rdfmr

#endif  // RDFMR_STORAGE_MEMMAP_H_

#include "storage/memmap.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace rdfmr {
namespace storage {

Result<MemMap> MemMap::Open(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IoError(path + ": cannot open: " + std::strerror(errno));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    Status status =
        Status::IoError(path + ": cannot stat: " + std::strerror(errno));
    ::close(fd);
    return status;
  }
  if (!S_ISREG(st.st_mode)) {
    ::close(fd);
    return Status::IoError(path + ": not a regular file");
  }
  const size_t size = static_cast<size_t>(st.st_size);
  if (size == 0) {
    // mmap(len=0) is EINVAL; an empty file is a valid (empty) mapping.
    ::close(fd);
    return MemMap(path, nullptr, 0);
  }
  void* mapped = ::mmap(nullptr, size, PROT_READ, MAP_SHARED, fd, 0);
  // The mapping keeps its own reference to the file; the descriptor is
  // not needed afterwards.
  ::close(fd);
  if (mapped == MAP_FAILED) {
    return Status::IoError(path + ": mmap failed: " + std::strerror(errno));
  }
  return MemMap(path, static_cast<const uint8_t*>(mapped), size);
}

MemMap::~MemMap() {
  if (data_ != nullptr) {
    ::munmap(const_cast<uint8_t*>(data_), size_);
  }
}

MemMap::MemMap(MemMap&& other) noexcept
    : path_(std::move(other.path_)), data_(other.data_), size_(other.size_) {
  other.data_ = nullptr;
  other.size_ = 0;
}

MemMap& MemMap::operator=(MemMap&& other) noexcept {
  if (this != &other) {
    if (data_ != nullptr) ::munmap(const_cast<uint8_t*>(data_), size_);
    path_ = std::move(other.path_);
    data_ = other.data_;
    size_ = other.size_;
    other.data_ = nullptr;
    other.size_ = 0;
  }
  return *this;
}

Status BoundedReader::OutOfBounds(size_t offset, size_t length) const {
  return Status::InvalidArgument(
      map_->path() + ": " + label_ + ": read of " + std::to_string(length) +
      " byte(s) at byte offset " + std::to_string(base_ + offset) +
      " exceeds window [" + std::to_string(base_) + ", " +
      std::to_string(base_ + size_) + ")");
}

Result<uint64_t> BoundedReader::U64(size_t offset) const {
  if (offset > size_ || size_ - offset < 8) return OutOfBounds(offset, 8);
  return LoadU64(map_->data() + base_ + offset);
}

Result<std::string_view> BoundedReader::Bytes(size_t offset,
                                              size_t length) const {
  if (offset > size_ || size_ - offset < length) {
    return OutOfBounds(offset, length);
  }
  return std::string_view(
      reinterpret_cast<const char*>(map_->data() + base_ + offset), length);
}

}  // namespace storage
}  // namespace rdfmr

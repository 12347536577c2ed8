#include "service/dataset_registry.h"

#include <utility>

#include "storage/mapped_dataset.h"

namespace rdfmr {
namespace service {

constexpr const char DatasetHandle::kBasePath[];

Status DatasetHandle::EnsureLoaded() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (attempted_) return load_status_;
  attempted_ = true;
  TripleLoader loader = std::move(loader_);
  loader_ = nullptr;
  if (mapped_ != nullptr) {
    // Zero-materialization path: mount the mapping as the base relation.
    // Nothing is decoded now — scans pull individual records out of the
    // mapped postings/dictionary on demand.
    auto dfs = std::make_unique<SimDfs>(cluster_);
    Status st = dfs->MountMapped(
        kBasePath, std::make_shared<const storage::MappedDataset>(mapped_));
    if (!st.ok()) {
      load_status_ = st;
      return load_status_;
    }
    num_triples_ = mapped_->triple_count();
    auto size = dfs->FileSize(kBasePath);
    base_bytes_ = size.ok() ? *size : 0;
    dfs_ = std::move(dfs);
    // v2 files carry the catalog as a section — zero triples decoded.
    stats_ = std::make_shared<const GraphStats>(mapped_->DecodeGraphStats());
    load_status_ = Status::OK();
    return load_status_;
  }
  if (!loader) {
    load_status_ = Status::Unknown("dataset has no loader: " + name_);
    return load_status_;
  }
  Result<std::vector<Triple>> triples = loader();
  if (!triples.ok()) {
    load_status_ = triples.status();
    return load_status_;
  }
  auto dfs = std::make_unique<SimDfs>(cluster_);
  Status st = dfs->WriteFile(kBasePath, SerializeTriples(*triples));
  if (!st.ok()) {
    load_status_ = st;
    return load_status_;
  }
  num_triples_ = triples->size();
  auto size = dfs->FileSize(kBasePath);
  base_bytes_ = size.ok() ? *size : 0;
  dfs_ = std::move(dfs);
  stats_ = std::make_shared<const GraphStats>(GraphStats::Compute(*triples));
  load_status_ = Status::OK();
  return load_status_;
}

SimDfs* DatasetHandle::dfs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dfs_.get();
}

std::shared_ptr<const GraphStats> DatasetHandle::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

DatasetInfo DatasetHandle::Info() const {
  std::lock_guard<std::mutex> lock(mu_);
  DatasetInfo info;
  info.name = name_;
  info.epoch = epoch_;
  info.loaded = dfs_ != nullptr;
  info.num_triples = num_triples_;
  info.base_bytes = base_bytes_;
  if (mapped_ != nullptr) {
    info.mapped = true;
    info.mapped_bytes = mapped_->file_bytes();
    info.mapped_scans = true;
    // The mapping knows the relation size before materialization.
    if (!info.loaded) info.num_triples = mapped_->triple_count();
  }
  return info;
}

std::shared_ptr<DatasetHandle> DatasetRegistry::Replace(
    const std::string& name, TripleLoader loader,
    std::shared_ptr<const storage::RdxReader> mapped) {
  std::lock_guard<std::mutex> lock(mu_);
  auto handle = std::shared_ptr<DatasetHandle>(
      new DatasetHandle(name, next_epoch_++, cluster_, std::move(loader),
                        std::move(mapped)));
  datasets_[name] = handle;
  return handle;
}

Result<DatasetInfo> DatasetRegistry::Register(const std::string& name,
                                              TripleLoader loader) {
  if (name.empty()) {
    return Status::InvalidArgument("dataset name must be non-empty");
  }
  if (!loader) {
    return Status::InvalidArgument("dataset loader must be non-null");
  }
  return Replace(name, std::move(loader))->Info();
}

Result<DatasetInfo> DatasetRegistry::Load(const std::string& name,
                                          std::vector<Triple> triples) {
  if (name.empty()) {
    return Status::InvalidArgument("dataset name must be non-empty");
  }
  auto shared = std::make_shared<std::vector<Triple>>(std::move(triples));
  auto handle = Replace(name, [shared]() -> Result<std::vector<Triple>> {
    return *shared;
  });
  RDFMR_RETURN_NOT_OK(handle->EnsureLoaded());
  return handle->Info();
}

Result<DatasetInfo> DatasetRegistry::RegisterMapped(const std::string& name,
                                                    const std::string& path) {
  if (name.empty()) {
    return Status::InvalidArgument("dataset name must be non-empty");
  }
  RDFMR_ASSIGN_OR_RETURN(std::shared_ptr<const storage::RdxReader> reader,
                         storage::RdxReader::Open(path));
  return Replace(name, nullptr, std::move(reader))->Info();
}

Status DatasetRegistry::Drop(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = datasets_.find(name);
  if (it == datasets_.end()) {
    return Status::NotFound("no such dataset: " + name);
  }
  datasets_.erase(it);
  return Status::OK();
}

Result<std::shared_ptr<const DatasetHandle>> DatasetRegistry::Acquire(
    const std::string& name) const {
  std::shared_ptr<DatasetHandle> handle;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = datasets_.find(name);
    if (it == datasets_.end()) {
      return Status::NotFound("no such dataset: " + name);
    }
    handle = it->second;
  }
  // Materialize outside the registry lock: a slow load must not block
  // Acquire/List for other datasets.
  RDFMR_RETURN_NOT_OK(handle->EnsureLoaded());
  return std::shared_ptr<const DatasetHandle>(handle);
}

uint64_t DatasetRegistry::Epoch(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = datasets_.find(name);
  return it == datasets_.end() ? 0 : it->second->epoch();
}

std::vector<DatasetInfo> DatasetRegistry::List() const {
  std::vector<std::shared_ptr<DatasetHandle>> handles;
  {
    std::lock_guard<std::mutex> lock(mu_);
    handles.reserve(datasets_.size());
    for (const auto& [name, handle] : datasets_) handles.push_back(handle);
  }
  std::vector<DatasetInfo> infos;
  infos.reserve(handles.size());
  for (const auto& handle : handles) infos.push_back(handle->Info());
  return infos;
}

size_t DatasetRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return datasets_.size();
}

}  // namespace service
}  // namespace rdfmr

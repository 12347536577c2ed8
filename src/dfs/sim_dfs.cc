#include "dfs/sim_dfs.h"

#include <algorithm>
#include <numeric>

#include "common/logging.h"
#include "common/strings.h"

namespace rdfmr {

namespace {

uint64_t LinesBytes(const std::vector<std::string>& lines) {
  uint64_t bytes = 0;
  for (const std::string& line : lines) bytes += line.size() + 1;  // +\n
  return bytes;
}

}  // namespace

SimDfs::SimDfs(ClusterConfig config) : config_(config) {
  RDFMR_CHECK(config_.num_nodes > 0) << "cluster needs at least one node";
  RDFMR_CHECK(config_.replication >= 1) << "replication must be >= 1";
  RDFMR_CHECK(config_.replication <= config_.num_nodes)
      << "replication cannot exceed node count";
  RDFMR_CHECK(config_.block_size > 0) << "block size must be positive";
  node_used_.assign(config_.num_nodes, 0);
  node_alive_.assign(config_.num_nodes, true);
  node_full_.assign(config_.num_nodes, false);
}

Status SimDfs::SetFaultPlan(FaultPlan plan) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const FaultPlan::NodeFault& fault : plan.node_faults) {
    if (fault.node >= config_.num_nodes) {
      return Status::InvalidArgument(StringFormat(
          "fault plan names node %u but the cluster has %u nodes",
          fault.node, config_.num_nodes));
    }
  }
  fault_plan_ = std::move(plan);
  have_fault_plan_ = !fault_plan_.empty();
  fault_rng_ = Rng(fault_plan_.seed);
  fault_read_ops_ = 0;
  fault_write_ops_ = 0;
  fault_total_ops_ = 0;
  next_node_fault_ = 0;
  node_alive_.assign(config_.num_nodes, true);
  node_full_.assign(config_.num_nodes, false);
  return Status::OK();
}

void SimDfs::ClearFaultPlan() {
  std::lock_guard<std::mutex> lock(mu_);
  fault_plan_ = FaultPlan{};
  have_fault_plan_ = false;
  fault_read_ops_ = 0;
  fault_write_ops_ = 0;
  fault_total_ops_ = 0;
  next_node_fault_ = 0;
  node_alive_.assign(config_.num_nodes, true);
  node_full_.assign(config_.num_nodes, false);
}

void SimDfs::ApplyNodeFaultsLocked() const {
  while (next_node_fault_ < fault_plan_.node_faults.size() &&
         fault_plan_.node_faults[next_node_fault_].after_ops <=
             fault_total_ops_) {
    const FaultPlan::NodeFault& fault =
        fault_plan_.node_faults[next_node_fault_++];
    if (fault.kind == FaultPlan::NodeFaultKind::kLoss) {
      node_alive_[fault.node] = false;
    } else {
      node_full_[fault.node] = true;
    }
  }
}

Status SimDfs::MaybeInjectFaultLocked(bool is_read,
                                      const std::string& path) const {
  // Node faults trigger once the total op count reaches their threshold,
  // i.e. before the (after_ops+1)-th operation starts.
  ApplyNodeFaultsLocked();
  ++fault_total_ops_;
  uint64_t& ordinal = is_read ? fault_read_ops_ : fault_write_ops_;
  ++ordinal;
  const std::vector<uint64_t>& scheduled =
      is_read ? fault_plan_.fail_reads : fault_plan_.fail_writes;
  const double prob = is_read ? fault_plan_.read_failure_prob
                              : fault_plan_.write_failure_prob;
  bool fail =
      std::binary_search(scheduled.begin(), scheduled.end(), ordinal);
  // Draw only when the probability is armed so scheduled-only plans do not
  // depend on the RNG stream at all.
  if (prob > 0.0 && fault_rng_.Chance(prob)) fail = true;
  if (!fail) return Status::OK();
  if (is_read) {
    ++metrics_.injected_read_failures;
    return Status::IoError(StringFormat(
        "injected transient read failure (read op %llu): %s",
        static_cast<unsigned long long>(ordinal), path.c_str()));
  }
  ++metrics_.injected_write_failures;
  return Status::IoError(StringFormat(
      "injected transient write failure (write op %llu): %s",
      static_cast<unsigned long long>(ordinal), path.c_str()));
}

Result<std::vector<uint32_t>> SimDfs::PlaceBlock(uint64_t size) {
  // Choose the `replication` least-loaded nodes that can still hold the
  // block (standard balanced placement). Dead and disk-full nodes are
  // never candidates.
  std::vector<uint32_t> order(config_.num_nodes);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    if (node_used_[a] != node_used_[b]) return node_used_[a] < node_used_[b];
    return a < b;
  });
  std::vector<uint32_t> chosen;
  for (uint32_t node : order) {
    if (!node_alive_[node] || node_full_[node]) continue;
    if (node_used_[node] + size <= config_.disk_per_node) {
      chosen.push_back(node);
      if (chosen.size() == config_.replication) break;
    }
  }
  if (chosen.size() < config_.replication) {
    return Status::OutOfSpace(StringFormat(
        "cannot place %llu-byte block with replication %u (free %llu bytes)",
        static_cast<unsigned long long>(size), config_.replication,
        static_cast<unsigned long long>(config_.TotalCapacity() -
                                        UsedBytesLocked())));
  }
  for (uint32_t node : chosen) node_used_[node] += size;
  return chosen;
}

Status SimDfs::WriteFile(const std::string& path,
                         std::vector<std::string> lines) {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t bytes = LinesBytes(lines);
  return CreateEntryLocked(path, bytes, std::move(lines), nullptr);
}

Status SimDfs::MountMapped(const std::string& path,
                           std::shared_ptr<const LineSource> source) {
  RDFMR_CHECK(source != nullptr) << "MountMapped needs a source";
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t bytes = source->total_bytes();
  return CreateEntryLocked(path, bytes, {}, std::move(source));
}

Status SimDfs::CreateEntryLocked(const std::string& path, uint64_t bytes,
                                 std::vector<std::string> lines,
                                 std::shared_ptr<const LineSource> source) {
  if (FaultsActiveLocked()) {
    RDFMR_RETURN_NOT_OK(MaybeInjectFaultLocked(/*is_read=*/false, path));
  }
  if (files_.count(path) > 0) {
    return Status::AlreadyExists("file exists: " + path);
  }
  FileEntry entry;
  entry.bytes = bytes;
  entry.blocks = static_cast<uint32_t>(
      std::max<uint64_t>(1, (entry.bytes + config_.block_size - 1) /
                                config_.block_size));

  // Place blocks one by one; on failure roll back already-placed replicas.
  uint64_t remaining = entry.bytes;
  for (uint32_t b = 0; b < entry.blocks; ++b) {
    uint64_t block_bytes = std::min<uint64_t>(remaining, config_.block_size);
    if (entry.bytes == 0) block_bytes = 0;
    auto placed = PlaceBlock(block_bytes);
    if (!placed.ok()) {
      // Roll back.
      for (uint32_t pb = 0; pb < entry.placements.size(); ++pb) {
        uint64_t sz = std::min<uint64_t>(
            entry.bytes - static_cast<uint64_t>(pb) * config_.block_size,
            config_.block_size);
        for (uint32_t node : entry.placements[pb]) node_used_[node] -= sz;
      }
      return placed.status().WithContext("WriteFile(" + path + ")");
    }
    entry.placements.push_back(placed.MoveValueUnsafe());
    remaining -= block_bytes;
  }

  metrics_.bytes_written += entry.bytes;
  metrics_.bytes_written_replicated += entry.bytes * config_.replication;
  metrics_.files_created += 1;
  metrics_.write_ops += 1;
  if (source == nullptr) {
    entry.lines =
        std::make_shared<const std::vector<std::string>>(std::move(lines));
  }
  entry.source = std::move(source);
  files_.emplace(path, std::move(entry));
  return Status::OK();
}

Result<const SimDfs::FileEntry*> SimDfs::OpenForReadLocked(
    const std::string& path) const {
  if (FaultsActiveLocked()) {
    RDFMR_RETURN_NOT_OK(MaybeInjectFaultLocked(/*is_read=*/true, path));
  }
  auto it = files_.find(path);
  if (it == files_.end()) return Status::NotFound("no such file: " + path);
  // Replica-aware availability: a block is readable while at least one of
  // its replicas sits on a live node. This is cluster state rather than an
  // injected draw, so it holds even while faults are suspended.
  const FileEntry& entry = it->second;
  for (uint32_t b = 0; b < entry.placements.size(); ++b) {
    bool available = false;
    for (uint32_t node : entry.placements[b]) {
      if (node_alive_[node]) {
        available = true;
        break;
      }
    }
    if (!available) {
      return Status::Unavailable(StringFormat(
          "block %u of %s lost: every replica was on a dead node", b,
          path.c_str()));
    }
  }
  metrics_.bytes_read += entry.bytes;
  metrics_.read_ops += 1;
  return &entry;
}

Result<std::vector<std::string>> SimDfs::ReadFile(
    const std::string& path) const {
  RDFMR_ASSIGN_OR_RETURN(std::shared_ptr<const std::vector<std::string>> lines,
                         ReadLines(path));
  return *lines;
}

Result<std::shared_ptr<const std::vector<std::string>>> SimDfs::ReadLines(
    const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto entry = OpenForReadLocked(path);
  RDFMR_RETURN_NOT_OK(entry.status());
  const FileEntry& file = **entry;
  if (file.source == nullptr) return file.lines;
  // Mapped file: materialize every line for the caller. Scans should use
  // OpenScan instead; this path keeps whole-file readers (preflight,
  // registry snapshots) working against mounted datasets.
  auto lines = std::make_shared<std::vector<std::string>>();
  lines->reserve(file.source->line_count());
  for (uint64_t i = 0; i < file.source->line_count(); ++i) {
    lines->push_back(file.source->Line(i));
  }
  return std::shared_ptr<const std::vector<std::string>>(std::move(lines));
}

Result<SimDfs::ScanHandle> SimDfs::OpenScan(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto entry = OpenForReadLocked(path);
  RDFMR_RETURN_NOT_OK(entry.status());
  const FileEntry& file = **entry;
  ScanHandle handle;
  handle.bytes_ = file.bytes;
  if (file.source != nullptr) {
    handle.source_ = file.source;
  } else {
    handle.lines_ = file.lines;
  }
  return handle;
}

Result<uint64_t> SimDfs::FileSize(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(path);
  if (it == files_.end()) return Status::NotFound("no such file: " + path);
  return it->second.bytes;
}

Result<uint32_t> SimDfs::BlockCount(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(path);
  if (it == files_.end()) return Status::NotFound("no such file: " + path);
  return it->second.blocks;
}

bool SimDfs::Exists(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  return files_.count(path) > 0;
}

Status SimDfs::DeleteFile(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(path);
  if (it == files_.end()) return Status::NotFound("no such file: " + path);
  const FileEntry& entry = it->second;
  for (uint32_t b = 0; b < entry.placements.size(); ++b) {
    uint64_t sz = std::min<uint64_t>(
        entry.bytes - static_cast<uint64_t>(b) * config_.block_size,
        config_.block_size);
    for (uint32_t node : entry.placements[b]) node_used_[node] -= sz;
  }
  metrics_.files_deleted += 1;
  files_.erase(it);
  return Status::OK();
}

std::vector<std::string> SimDfs::ListFiles() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(files_.size());
  for (const auto& [path, _] : files_) out.push_back(path);
  return out;
}

uint64_t SimDfs::UsedBytesLocked() const {
  uint64_t used = 0;
  for (uint64_t u : node_used_) used += u;
  return used;
}

uint64_t SimDfs::UsedBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return UsedBytesLocked();
}

uint64_t SimDfs::FreeBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return config_.TotalCapacity() - UsedBytesLocked();
}

}  // namespace rdfmr

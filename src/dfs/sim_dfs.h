// Simulated distributed file system.
//
// Files are ordered lists of record lines. Writing a file splits it into
// blocks, places `replication` replicas of each block on the least-loaded
// distinct nodes, and fails with kOutOfSpace when placement is impossible —
// reproducing the paper's failed executions ("marked with 'X'") when
// relational plans materialize more intermediate data than the cluster
// holds. All reads and writes are metered.
//
// Fault injection: a seeded FaultPlan can make reads/writes fail
// transiently (kIoError, retryable), mark nodes disk-full, or lose nodes
// outright. Losing a node removes its replicas from service: a block whose
// replicas all lived on lost nodes reads as kUnavailable until the file is
// rewritten, while replication >= 2 keeps data readable through a single
// node loss. Placement skips dead and full nodes.

#ifndef RDFMR_DFS_SIM_DFS_H_
#define RDFMR_DFS_SIM_DFS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
#include "dfs/cluster_config.h"
#include "dfs/fault_plan.h"
#include "dfs/line_source.h"

namespace rdfmr {

/// \brief Cumulative DFS metrics (monotonic; sampled before/after a job to
/// get per-job deltas).
struct DfsMetrics {
  uint64_t bytes_read = 0;             ///< logical bytes served to readers
  uint64_t bytes_written = 0;          ///< logical bytes accepted
  uint64_t bytes_written_replicated = 0;  ///< physical bytes incl. replicas
  uint64_t files_created = 0;
  uint64_t files_deleted = 0;
  uint64_t read_ops = 0;
  uint64_t write_ops = 0;
  uint64_t injected_read_failures = 0;   ///< transient faults served to reads
  uint64_t injected_write_failures = 0;  ///< transient faults served to writes
};

/// \brief One simulated HDFS namespace over a set of nodes.
///
/// Thread-safe: all file, placement, metric, and fault state is guarded by
/// an internal mutex, so concurrent map/reduce tasks of the multi-threaded
/// job runner (and concurrent engines sharing one namespace) may call any
/// method. Metric accessors return snapshots by value.
class SimDfs {
 public:
  explicit SimDfs(ClusterConfig config);

  /// \brief Creates `path` with the given record lines. Fails with
  /// kAlreadyExists if present, kOutOfSpace if replicas do not fit.
  Status WriteFile(const std::string& path,
                   std::vector<std::string> lines);

  /// \brief Creates `path` backed by a LineSource instead of stored
  /// lines: bytes, block layout, placement, and metering are exactly what
  /// WriteFile of the materialized lines would produce, but lines stay in
  /// the source and are decoded on demand (ReadFile materializes them;
  /// OpenScan iterates them lazily). Same failure modes as WriteFile.
  Status MountMapped(const std::string& path,
                     std::shared_ptr<const LineSource> source);

  /// \brief Reads all record lines of `path` (metered).
  Result<std::vector<std::string>> ReadFile(const std::string& path) const;

  /// \brief ReadFile without the copy: the same metered read, sharing the
  /// stored lines of a materialized file (a mapped file's lines are
  /// decoded into a new vector). Files are immutable once written, so the
  /// lines stay valid for as long as the caller holds them, even after the
  /// file is deleted.
  Result<std::shared_ptr<const std::vector<std::string>>> ReadLines(
      const std::string& path) const;

  /// \brief One metered open of `path` for a sequential scan. Exactly the
  /// fault-injection, availability, and metering behavior of ReadFile
  /// (bytes_read += file bytes, read_ops += 1), but the lines are served
  /// through the handle without materializing a mapped file.
  class ScanHandle {
   public:
    uint64_t line_count() const {
      return source_ ? source_->line_count() : lines_->size();
    }
    /// Logical file bytes (== FileSize of the path at open time).
    uint64_t total_bytes() const { return bytes_; }
    /// Serialized length of line `i` excluding the newline.
    uint64_t LineBytes(uint64_t i) const {
      return source_ ? source_->LineBytes(i) : (*lines_)[i].size();
    }
    /// Line `i` without copying materialized lines: mapped files decode
    /// into `*scratch` and return it, materialized files return the
    /// stored line directly.
    const std::string& LineRef(uint64_t i, std::string* scratch) const {
      if (source_ == nullptr) return (*lines_)[i];
      *scratch = source_->Line(i);
      return *scratch;
    }
    bool mapped() const { return source_ != nullptr; }
    /// For mapped files: ascending indices of lines matching any of
    /// `properties` (empty selects nothing). Null for materialized files
    /// (callers scan every line).
    std::vector<uint64_t> MatchingLines(
        const std::vector<std::string>& properties) const {
      return source_->MatchingLines(properties);
    }

   private:
    friend class SimDfs;
    std::shared_ptr<const LineSource> source_;  // mapped files
    // Materialized files: shared with the file entry, never copied.
    std::shared_ptr<const std::vector<std::string>> lines_;
    uint64_t bytes_ = 0;
  };
  Result<ScanHandle> OpenScan(const std::string& path) const;

  /// \brief Logical size in bytes of `path`.
  Result<uint64_t> FileSize(const std::string& path) const;

  /// \brief Number of blocks of `path` (== map tasks needed to scan it).
  Result<uint32_t> BlockCount(const std::string& path) const;

  bool Exists(const std::string& path) const;

  /// \brief Removes a file, reclaiming its replicas' space.
  Status DeleteFile(const std::string& path);

  /// \brief All file paths, sorted.
  std::vector<std::string> ListFiles() const;

  /// \brief Physical bytes currently stored across all nodes.
  uint64_t UsedBytes() const;

  /// \brief Physical bytes still available across all nodes.
  uint64_t FreeBytes() const;

  /// \brief Per-node physical usage (snapshot).
  std::vector<uint64_t> NodeUsage() const {
    std::lock_guard<std::mutex> lock(mu_);
    return node_used_;
  }

  /// \brief Cumulative metrics (snapshot).
  DfsMetrics metrics() const {
    std::lock_guard<std::mutex> lock(mu_);
    return metrics_;
  }

  /// \brief Immutable after construction; safe to read without locking.
  const ClusterConfig& config() const { return config_; }

  /// \brief Zeroes the cumulative metrics (files and fault state stay).
  void ResetMetrics() {
    std::lock_guard<std::mutex> lock(mu_);
    metrics_ = DfsMetrics{};
  }

  /// \brief Installs a seeded fault plan and resets fault state: op
  /// ordinals restart at 1, the probabilistic stream is reseeded from
  /// `plan.seed`, and every node is revived / marked not-full. Fails with
  /// kInvalidArgument if the plan names a node >= num_nodes.
  Status SetFaultPlan(FaultPlan plan);

  /// \brief Removes any fault plan and revives all nodes. Blocks already
  /// unreadable stay lost only while their nodes are dead, so this also
  /// restores availability (the namespace never forgets file contents).
  void ClearFaultPlan();

  /// \brief True iff a non-empty fault plan is installed.
  bool HasFaultPlan() const {
    std::lock_guard<std::mutex> lock(mu_);
    return have_fault_plan_;
  }

  /// \brief Snapshot of the installed plan (empty plan if none).
  FaultPlan fault_plan() const {
    std::lock_guard<std::mutex> lock(mu_);
    return fault_plan_;
  }

  /// \brief Suspends fault injection (reentrant). While suspended, ops are
  /// not counted against the plan and no probabilistic draws happen — used
  /// by the engine's post-success observation reads so measurement does
  /// not perturb the deterministic fault sequence. Node loss still makes
  /// lost blocks unavailable: that is cluster state, not injection.
  void SuspendFaults() {
    std::lock_guard<std::mutex> lock(mu_);
    ++fault_suspend_depth_;
  }

  /// \brief Undoes one SuspendFaults.
  void ResumeFaults() {
    std::lock_guard<std::mutex> lock(mu_);
    if (fault_suspend_depth_ > 0) --fault_suspend_depth_;
  }

  /// \brief RAII SuspendFaults/ResumeFaults.
  class ScopedFaultSuspension {
   public:
    explicit ScopedFaultSuspension(SimDfs* dfs) : dfs_(dfs) {
      dfs_->SuspendFaults();
    }
    ~ScopedFaultSuspension() { dfs_->ResumeFaults(); }
    ScopedFaultSuspension(const ScopedFaultSuspension&) = delete;
    ScopedFaultSuspension& operator=(const ScopedFaultSuspension&) = delete;

   private:
    SimDfs* dfs_;
  };

 private:
  struct FileEntry {
    /// Materialized files' lines, shared with readers (immutable).
    std::shared_ptr<const std::vector<std::string>> lines;
    /// Non-null for mounted mapped files; `lines` stays null for them.
    std::shared_ptr<const LineSource> source;
    uint64_t bytes = 0;
    uint32_t blocks = 0;
    // node ids holding each replica of each block, for space reclamation
    std::vector<std::vector<uint32_t>> placements;
  };

  /// Shared body of WriteFile and MountMapped: injection, existence and
  /// placement checks, write metering, entry insertion. Requires mu_ held
  /// via the caller's lock. `bytes` is the logical file size.
  Status CreateEntryLocked(const std::string& path, uint64_t bytes,
                           std::vector<std::string> lines,
                           std::shared_ptr<const LineSource> source);

  /// Shared fault/availability/metering preamble of ReadFile and
  /// OpenScan; returns the entry. Requires mu_ held.
  Result<const FileEntry*> OpenForReadLocked(const std::string& path) const;

  /// Places one block of `size` bytes on `replication` distinct least-loaded
  /// alive, not-full nodes; returns the chosen node ids or kOutOfSpace.
  /// Requires mu_ held.
  Result<std::vector<uint32_t>> PlaceBlock(uint64_t size);

  uint64_t UsedBytesLocked() const;

  /// True while a plan is installed and not suspended. Requires mu_ held.
  bool FaultsActiveLocked() const {
    return have_fault_plan_ && fault_suspend_depth_ == 0;
  }

  /// Applies node faults whose after_ops threshold has been reached.
  /// Requires mu_ held.
  void ApplyNodeFaultsLocked() const;

  /// Counts one read/write op against the plan and returns a non-OK status
  /// if this op is scheduled or drawn to fail. Requires mu_ held.
  Status MaybeInjectFaultLocked(bool is_read, const std::string& path) const;

  ClusterConfig config_;
  /// Guards everything below.
  mutable std::mutex mu_;
  std::map<std::string, FileEntry> files_;
  std::vector<uint64_t> node_used_;
  mutable DfsMetrics metrics_;

  // Fault-plan state. Counters/rng are mutable: ReadFile is const but
  // consumes plan ordinals and probabilistic draws.
  bool have_fault_plan_ = false;
  FaultPlan fault_plan_;
  uint32_t fault_suspend_depth_ = 0;
  mutable Rng fault_rng_{1};
  mutable uint64_t fault_read_ops_ = 0;
  mutable uint64_t fault_write_ops_ = 0;
  mutable uint64_t fault_total_ops_ = 0;
  mutable size_t next_node_fault_ = 0;
  mutable std::vector<bool> node_alive_;
  mutable std::vector<bool> node_full_;
};

}  // namespace rdfmr

#endif  // RDFMR_DFS_SIM_DFS_H_

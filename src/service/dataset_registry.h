// Named-dataset registry for the query service.
//
// Each dataset is one SimDfs instance whose base triple relation lives at
// a fixed path ("base"), built lazily from a TripleLoader the first time a
// query needs it — the load cost (parsing, DFS write) is paid once and the
// loaded base is shared, read-only, by every concurrent query.
//
// Handles are refcounted (std::shared_ptr): Drop or reload removes a
// dataset from the registry immediately, but in-flight queries holding the
// old handle keep its SimDfs alive until they finish. Every (re)load bumps
// a registry-wide epoch, which the service folds into its cache keys so
// entries for a replaced or dropped dataset become unreachable at once.

#ifndef RDFMR_SERVICE_DATASET_REGISTRY_H_
#define RDFMR_SERVICE_DATASET_REGISTRY_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "dfs/sim_dfs.h"
#include "rdf/graph_stats.h"
#include "rdf/triple.h"
#include "storage/rdx_reader.h"

namespace rdfmr {
namespace service {

/// \brief Snapshot of one registry entry.
struct DatasetInfo {
  std::string name;
  uint64_t epoch = 0;
  bool loaded = false;       ///< base relation materialized?
  size_t num_triples = 0;    ///< 0 until loaded (mapped: known at once)
  uint64_t base_bytes = 0;   ///< logical bytes of the base relation
  bool mapped = false;       ///< backed by a memory-mapped rdx file?
  uint64_t mapped_bytes = 0; ///< on-disk bytes of the mapping, if mapped
  /// Mapped dataset serving zero-materialization scans (base mounted as a
  /// LineSource over the mapping instead of decoded into line vectors).
  bool mapped_scans = false;
};

/// \brief Deferred triple source (file read, generator, in-memory copy).
using TripleLoader = std::function<Result<std::vector<Triple>>()>;

/// \brief One registered dataset: a lazily-materialized SimDfs base.
///
/// Thread-safe: EnsureLoaded serializes the one-time materialization;
/// afterwards dfs() is an immutable pointer to a SimDfs whose base file is
/// only ever read (SimDfs itself is internally synchronized).
class DatasetHandle {
 public:
  const std::string& name() const { return name_; }
  uint64_t epoch() const { return epoch_; }
  /// \brief DFS path of the base triple relation.
  static constexpr const char kBasePath[] = "base";

  /// \brief Materializes the base relation if not yet done; idempotent.
  /// A failed load is cached — later calls return the same error without
  /// re-running the loader (deterministic, and a bad source stays bad).
  Status EnsureLoaded() const;

  /// \brief The dataset's DFS; non-null iff EnsureLoaded returned OK.
  SimDfs* dfs() const;

  /// \brief The planner catalog, built once at load: decoded from the
  /// rdx v2 stats section for mapped datasets (no triple decode), computed
  /// in one pass over the triples otherwise. Non-null iff loaded.
  std::shared_ptr<const GraphStats> stats() const;

  DatasetInfo Info() const;

  /// \brief True when queries run zero-materialization scans over the
  /// mapping (a mapped dataset).
  bool mapped_scans() const { return mapped_ != nullptr; }

 private:
  friend class DatasetRegistry;
  DatasetHandle(std::string name, uint64_t epoch, ClusterConfig cluster,
                TripleLoader loader,
                std::shared_ptr<const storage::RdxReader> mapped)
      : name_(std::move(name)),
        epoch_(epoch),
        cluster_(cluster),
        mapped_(std::move(mapped)),
        loader_(std::move(loader)) {}

  const std::string name_;
  const uint64_t epoch_;
  const ClusterConfig cluster_;
  /// Validated mapping kept alive for the handle's lifetime (null unless
  /// registered via RegisterMapped). Immutable after construction.
  const std::shared_ptr<const storage::RdxReader> mapped_;

  /// Guards the one-time load and the fields below.
  mutable std::mutex mu_;
  mutable TripleLoader loader_;  // cleared after the load attempt
  mutable bool attempted_ = false;
  mutable Status load_status_;
  mutable std::unique_ptr<SimDfs> dfs_;
  mutable std::shared_ptr<const GraphStats> stats_;
  mutable size_t num_triples_ = 0;
  mutable uint64_t base_bytes_ = 0;
};

/// \brief Thread-safe name -> DatasetHandle map with epoching.
class DatasetRegistry {
 public:
  explicit DatasetRegistry(ClusterConfig cluster) : cluster_(cluster) {}

  /// \brief Registers (or replaces) `name` with a deferred source; the
  /// loader runs on first Acquire. Replacing bumps the epoch — queries
  /// already running keep the old handle.
  Result<DatasetInfo> Register(const std::string& name, TripleLoader loader);

  /// \brief Registers `name` and materializes it immediately.
  Result<DatasetInfo> Load(const std::string& name,
                           std::vector<Triple> triples);

  /// \brief Registers `name` backed by the memory-mapped rdx file at
  /// `path`. The file is mapped and fully validated now — milliseconds,
  /// independent of triple count, so corruption surfaces at registration.
  /// The first query MOUNTS the mapping into the dataset's SimDfs
  /// (zero-materialization: scans decode records lazily straight from the
  /// mapped postings). Register() with a ReadDatasetFile loader decodes
  /// the same file into triples on first query instead.
  Result<DatasetInfo> RegisterMapped(const std::string& name,
                                     const std::string& path);

  /// \brief Removes `name`; NotFound if absent. In-flight queries keep
  /// their handles.
  Status Drop(const std::string& name);

  /// \brief Returns the loaded handle for `name` (materializing it on
  /// first use), or NotFound / the cached load error.
  Result<std::shared_ptr<const DatasetHandle>> Acquire(
      const std::string& name) const;

  /// \brief Current epoch of `name`, 0 when absent.
  uint64_t Epoch(const std::string& name) const;

  std::vector<DatasetInfo> List() const;

  size_t size() const;

  const ClusterConfig& cluster() const { return cluster_; }

 private:
  std::shared_ptr<DatasetHandle> Replace(
      const std::string& name, TripleLoader loader,
      std::shared_ptr<const storage::RdxReader> mapped = nullptr);

  const ClusterConfig cluster_;
  mutable std::mutex mu_;
  uint64_t next_epoch_ = 1;
  std::map<std::string, std::shared_ptr<DatasetHandle>> datasets_;
};

}  // namespace service
}  // namespace rdfmr

#endif  // RDFMR_SERVICE_DATASET_REGISTRY_H_

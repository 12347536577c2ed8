// RuntimeOptions: the single host-side runtime tuning surface shared by
// the engine, workflow runner, service, and CLI. Collapses the previously
// duplicated `num_threads` / `max_attempts` knobs from EngineOptions and
// ClusterConfig behind one documented precedence rule:
//
//   CLI flag  >  environment  >  programmatic option  >  config default
//
//   1. CLI flag: `rdfmr run --threads/--max-attempts` set the field and
//      mark it `cli_pinned`, which outranks everything.
//   2. Environment: RDFMR_THREADS / RDFMR_MAX_ATTEMPTS (positive
//      integers; unset, empty, or unparsable values are ignored).
//   3. Programmatic option: a nonzero field set by library callers
//      (EngineOptions::runtime).
//   4. Config default: ClusterConfig::num_threads /
//      ClusterConfig::max_task_attempts.
//
// A field value of 0 always means "unset, fall through". Both knobs are
// wall-clock/retry-policy only and are excluded from the service's plan
// and result cache fingerprints where they cannot change deterministic
// results (num_threads never can; max_attempts changes retry accounting
// and therefore *is* fingerprinted).

#ifndef RDFMR_COMMON_RUNTIME_OPTIONS_H_
#define RDFMR_COMMON_RUNTIME_OPTIONS_H_

#include <cstdint>

namespace rdfmr {

struct RuntimeOptions {
  /// Host-side execution parallelism (map tasks / reducer partitions run
  /// concurrently). 0 = unset. Output and metrics are byte-identical for
  /// any value by the runtime's determinism contract.
  uint32_t num_threads = 0;

  /// Maximum attempts per DFS task operation before the job fails
  /// (transient failures only). 0 = unset, 1 disables retry.
  uint32_t max_attempts = 0;

  /// True when the nonzero fields above came from explicit CLI flags, in
  /// which case they outrank the RDFMR_* environment variables.
  bool cli_pinned = false;
};

/// \brief Applies the precedence rule for the thread count. Returns a
/// value >= 1 given `config_default >= 1`.
uint32_t ResolveNumThreads(const RuntimeOptions& options,
                           uint32_t config_default);

/// \brief Applies the precedence rule for the attempt budget.
uint32_t ResolveMaxAttempts(const RuntimeOptions& options,
                            uint32_t config_default);

/// \brief Reads a positive uint32 from environment variable `name`;
/// returns 0 when unset, empty, non-numeric, zero, or out of range.
uint32_t EnvRuntimeValue(const char* name);

}  // namespace rdfmr

#endif  // RDFMR_COMMON_RUNTIME_OPTIONS_H_

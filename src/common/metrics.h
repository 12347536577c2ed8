// Process-wide named-metric registry: counters, gauges, and the existing
// power-of-two histograms behind one uniform API, exported as Prometheus
// text exposition format or canonical JSON.
//
// Naming convention (enforced at registration and by tools/metrics_lint.py):
//   rdfmr_<area>_<name>_<unit>
// where <area> is a subsystem slug (mr, ntga, rel, engine, service, ...),
// <name> is one or more lowercase snake_case words, and <unit> is one of
// the units listed in kMetricUnits (total, bytes, seconds, micros,
// records, groups, calls, ratio, count).
//
// Thread-safety: registration is mutex-guarded; Counter, Gauge and
// HistogramMetric updates are lock-free relaxed atomics (a HistogramMetric
// records into an AtomicHistogram). Returned metric pointers stay valid
// until ResetForTesting() is called on the owning registry.
//
// The registry also owns the global operator-instrumentation gate: the
// σ^βγ/μ^β operators only take clock readings when a sink (trace export,
// micro-bench, test) has explicitly enabled it, keeping the default path
// at one relaxed atomic load.

#ifndef RDFMR_COMMON_METRICS_H_
#define RDFMR_COMMON_METRICS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "common/histogram.h"

namespace rdfmr {

/// \brief Monotonically increasing counter (relaxed atomic).
class Counter {
 public:
  void Increment(uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  std::atomic<uint64_t> value_{0};
};

/// \brief Instantaneous signed value (relaxed atomic).
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  std::atomic<int64_t> value_{0};
};

/// \brief A registry histogram: an AtomicHistogram (common/histogram.h),
/// so Observe never blocks and Snapshot folds a Histogram.
struct HistogramMetric : AtomicHistogram {
  void Observe(uint64_t value) { Add(value); }
};

class MetricsRegistry {
 public:
  /// \brief The process-wide registry used by all instrumentation sites.
  static MetricsRegistry& Global();

  /// \brief Get-or-create by name. The name must satisfy
  /// IsValidMetricName and must not already be registered as a different
  /// metric kind (RDFMR_CHECK on violation). `help` is recorded on first
  /// registration only.
  Counter* GetCounter(std::string_view name, std::string_view help = "");
  Gauge* GetGauge(std::string_view name, std::string_view help = "");
  HistogramMetric* GetHistogram(std::string_view name,
                                std::string_view help = "");

  /// \brief Prometheus text exposition format (HELP/TYPE per metric,
  /// metrics sorted by name, histograms as cumulative `_bucket{le=...}`
  /// series plus `_sum`/`_count`).
  std::string ToPrometheusText() const;

  /// \brief Canonical JSON object string {"name":value-or-histogram,...}.
  std::string ToJson() const;

  /// \brief Drops every registered metric. Invalidates all previously
  /// returned metric pointers — test-only, call between test cases.
  void ResetForTesting();

  /// \brief True iff `name` matches rdfmr_<area>_<name>_<unit> with a
  /// known unit (see header comment).
  static bool IsValidMetricName(std::string_view name);

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    Kind kind;
    std::string help;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<HistogramMetric> histogram;
  };

  Entry* GetOrCreate(std::string_view name, std::string_view help,
                     Kind kind);

  mutable std::mutex mu_;
  std::map<std::string, Entry, std::less<>> entries_;
};

/// \brief Appends one metric's `# HELP` line (omitted when `help` is
/// empty) and its `# TYPE` line ("counter", "gauge" or "histogram").
void AppendPrometheusHeader(std::string_view name, std::string_view help,
                            std::string_view type, std::string* out);

/// \brief Appends one counter or gauge: its HELP/TYPE lines plus its single
/// `name value` sample. Shared by the registry export and the service's
/// stats exposition.
void AppendPrometheusScalar(std::string_view name, std::string_view help,
                            std::string_view type, const std::string& value,
                            std::string* out);

/// \brief Appends one histogram as Prometheus cumulative `_bucket{le=..}`
/// series plus `_sum`/`_count` (no HELP/TYPE lines). Shared by the
/// registry export and the service's stats exposition.
void AppendPrometheusHistogram(const std::string& name, const Histogram& h,
                               std::string* out);

/// \brief Escapes a label value for Prometheus exposition (backslash,
/// double quote, newline).
std::string PrometheusEscape(std::string_view s);

/// \brief Escapes HELP text (backslash and newline only, per the text
/// exposition format).
std::string PrometheusEscapeHelp(std::string_view s);

/// \brief Global gate for per-operator timing instrumentation. Disabled
/// by default; enabled by `--trace`, `--trace-dir`, bench/micro_operators
/// and the observability tests.
void EnableOperatorMetrics(bool enabled);
bool OperatorMetricsEnabled();

/// \brief Records elapsed microseconds into a histogram metric on
/// destruction. Only constructed behind OperatorMetricsEnabled().
class ScopedTimerMicros {
 public:
  explicit ScopedTimerMicros(HistogramMetric* sink)
      : sink_(sink), start_(std::chrono::steady_clock::now()) {}
  ~ScopedTimerMicros() {
    if (sink_ == nullptr) return;
    sink_->Observe(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start_)
            .count()));
  }
  ScopedTimerMicros(const ScopedTimerMicros&) = delete;
  ScopedTimerMicros& operator=(const ScopedTimerMicros&) = delete;

 private:
  HistogramMetric* sink_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace rdfmr

#endif  // RDFMR_COMMON_METRICS_H_

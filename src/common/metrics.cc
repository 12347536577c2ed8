#include "common/metrics.h"

#include <vector>

#include "common/logging.h"

namespace rdfmr {
namespace {

// Unit suffixes accepted by IsValidMetricName; tools/metrics_lint.py
// enforces the same list over source literals and captured scrapes.
constexpr std::string_view kMetricUnits[] = {
    "total", "bytes",  "seconds", "micros", "records",
    "groups", "calls", "ratio",   "count",
};

std::atomic<bool> g_operator_metrics_enabled{false};

bool IsLowerSnakeToken(std::string_view token) {
  if (token.empty()) return false;
  for (char c : token) {
    if (!((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9'))) return false;
  }
  return true;
}

// Upper bound of power-of-two bucket i: 0, 1, 3, 7, 15, ...
uint64_t BucketUpperBound(size_t i) {
  if (i == 0) return 0;
  return (i >= 64 ? ~0ULL : (1ULL << i) - 1);
}

}  // namespace

void AppendPrometheusHeader(std::string_view name, std::string_view help,
                            std::string_view type, std::string* out) {
  if (!help.empty()) {
    out->append("# HELP ");
    out->append(name);
    out->push_back(' ');
    out->append(PrometheusEscapeHelp(help));
    out->push_back('\n');
  }
  out->append("# TYPE ");
  out->append(name);
  out->push_back(' ');
  out->append(type);
  out->push_back('\n');
}

void AppendPrometheusScalar(std::string_view name, std::string_view help,
                            std::string_view type, const std::string& value,
                            std::string* out) {
  AppendPrometheusHeader(name, help, type, out);
  out->append(name);
  out->push_back(' ');
  out->append(value);
  out->push_back('\n');
}

void AppendPrometheusHistogram(const std::string& name, const Histogram& h,
                               std::string* out) {
  size_t last_bucket = 0;
  for (size_t i = 0; i < Histogram::kNumBuckets; ++i) {
    if (h.buckets()[i] > 0) last_bucket = i;
  }
  uint64_t cumulative = 0;
  for (size_t i = 0; i <= last_bucket && h.count() > 0; ++i) {
    cumulative += h.buckets()[i];
    out->append(name);
    out->append("_bucket{le=\"");
    out->append(std::to_string(BucketUpperBound(i)));
    out->append("\"} ");
    out->append(std::to_string(cumulative));
    out->push_back('\n');
  }
  out->append(name);
  out->append("_bucket{le=\"+Inf\"} ");
  out->append(std::to_string(h.count()));
  out->push_back('\n');
  out->append(name);
  out->append("_sum ");
  out->append(std::to_string(h.sum()));
  out->push_back('\n');
  out->append(name);
  out->append("_count ");
  out->append(std::to_string(h.count()));
  out->push_back('\n');
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

MetricsRegistry::Entry* MetricsRegistry::GetOrCreate(std::string_view name,
                                                     std::string_view help,
                                                     Kind kind) {
  RDFMR_CHECK(IsValidMetricName(name));
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  if (it != entries_.end()) {
    RDFMR_CHECK(it->second.kind == kind);
    return &it->second;
  }
  Entry entry;
  entry.kind = kind;
  entry.help = std::string(help);
  switch (kind) {
    case Kind::kCounter:
      entry.counter = std::make_unique<Counter>();
      break;
    case Kind::kGauge:
      entry.gauge = std::make_unique<Gauge>();
      break;
    case Kind::kHistogram:
      entry.histogram = std::make_unique<HistogramMetric>();
      break;
  }
  auto inserted = entries_.emplace(std::string(name), std::move(entry));
  return &inserted.first->second;
}

Counter* MetricsRegistry::GetCounter(std::string_view name,
                                     std::string_view help) {
  return GetOrCreate(name, help, Kind::kCounter)->counter.get();
}

Gauge* MetricsRegistry::GetGauge(std::string_view name,
                                 std::string_view help) {
  return GetOrCreate(name, help, Kind::kGauge)->gauge.get();
}

HistogramMetric* MetricsRegistry::GetHistogram(std::string_view name,
                                               std::string_view help) {
  return GetOrCreate(name, help, Kind::kHistogram)->histogram.get();
}

std::string MetricsRegistry::ToPrometheusText() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const auto& [name, entry] : entries_) {
    switch (entry.kind) {
      case Kind::kCounter:
        AppendPrometheusScalar(name, entry.help, "counter",
                               std::to_string(entry.counter->Value()), &out);
        break;
      case Kind::kGauge:
        AppendPrometheusScalar(name, entry.help, "gauge",
                               std::to_string(entry.gauge->Value()), &out);
        break;
      case Kind::kHistogram:
        AppendPrometheusHeader(name, entry.help, "histogram", &out);
        AppendPrometheusHistogram(name, entry.histogram->Snapshot(), &out);
        break;
    }
  }
  return out;
}

std::string MetricsRegistry::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{";
  bool first = true;
  for (const auto& [name, entry] : entries_) {
    if (!first) out.push_back(',');
    first = false;
    out.push_back('"');
    out.append(name);
    out.append("\":");
    switch (entry.kind) {
      case Kind::kCounter:
        out.append(std::to_string(entry.counter->Value()));
        break;
      case Kind::kGauge:
        out.append(std::to_string(entry.gauge->Value()));
        break;
      case Kind::kHistogram:
        out.append(entry.histogram->Snapshot().ToJson());
        break;
    }
  }
  out.push_back('}');
  return out;
}

void MetricsRegistry::ResetForTesting() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
}

bool MetricsRegistry::IsValidMetricName(std::string_view name) {
  std::vector<std::string_view> tokens;
  size_t start = 0;
  while (start <= name.size()) {
    size_t end = name.find('_', start);
    if (end == std::string_view::npos) end = name.size();
    tokens.push_back(name.substr(start, end - start));
    start = end + 1;
  }
  // rdfmr + area + at least one name word + unit.
  if (tokens.size() < 4) return false;
  if (tokens.front() != "rdfmr") return false;
  for (std::string_view token : tokens) {
    if (!IsLowerSnakeToken(token)) return false;
  }
  for (std::string_view unit : kMetricUnits) {
    if (tokens.back() == unit) return true;
  }
  return false;
}

std::string PrometheusEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '\\':
        out.append("\\\\");
        break;
      case '\n':
        out.append("\\n");
        break;
      case '"':
        out.append("\\\"");
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

std::string PrometheusEscapeHelp(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '\\':
        out.append("\\\\");
        break;
      case '\n':
        out.append("\\n");
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

void EnableOperatorMetrics(bool enabled) {
  g_operator_metrics_enabled.store(enabled, std::memory_order_relaxed);
}

bool OperatorMetricsEnabled() {
  return g_operator_metrics_enabled.load(std::memory_order_relaxed);
}

}  // namespace rdfmr

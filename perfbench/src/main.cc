// perfbench: one workload per invocation.
//
//   perfbench --workload sweep|explore|dashboard|refresh --seed N
//             --seconds S --trace 0|1 --config perfbench/config.json
//             --run-dir DIR [--smoke] [--plant-wrong-answer]
//
// Prints every metric as "metric <name> <value> <unit>" and, as the last
// line of stdout, one JSON object {"correct","attempted","failed",
// "metrics"}: the end-to-end metrics with --trace 0, the per-layer ones
// with --trace 1. Exits 1 when any answer or dfs count was wrong or any
// request failed, 2 on bad arguments.

#include <sys/stat.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "common/strings.h"
#include "harness.h"
#include "workloads.h"

namespace perfbench {
namespace {

int Usage(const std::string& why) {
  std::fprintf(stderr, "perfbench: %s\n", why.c_str());
  return 2;
}

std::string Number(double value) {
  return rdfmr::StringFormat("%.17g", std::isfinite(value) ? value : 0.0);
}

void PrintMetrics(const char* kind, const std::map<std::string, Metric>& m) {
  for (const auto& [name, metric] : m) {
    std::printf("%s %s %s %s\n", kind, name.c_str(),
                Number(metric.value).c_str(), metric.unit.c_str());
  }
}

int Main(int argc, char** argv) {
  Options options;
  std::string config_path;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      return i + 1 < argc ? std::string(argv[++i]) : std::string();
    };
    if (arg == "--workload") {
      options.workload = value();
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value().c_str(), nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      options.trace = value() == "1";
    } else if (arg == "--config") {
      config_path = value();
    } else if (arg == "--run-dir") {
      options.run_dir = value();
    } else if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--plant-wrong-answer") {
      options.plant_wrong_answer = true;
    } else {
      return Usage("unknown argument " + arg);
    }
  }
  if (config_path.empty() || options.run_dir.empty()) {
    return Usage("--config and --run-dir are required");
  }
  if (!(options.seconds > 0.0)) return Usage("--seconds must be positive");
  const std::map<std::string, Report (*)(const Options&)> workloads = {
      {"sweep", RunSweep},
      {"explore", RunExplore},
      {"dashboard", RunDashboard},
      {"refresh", RunRefresh}};
  auto workload = workloads.find(options.workload);
  if (workload == workloads.end()) {
    return Usage("unknown workload '" + options.workload + "'");
  }

  std::ifstream in(config_path);
  if (!in) return Usage("cannot read " + config_path);
  std::stringstream text;
  text << in.rdbuf();
  rdfmr::Result<rdfmr::JsonValue> config = rdfmr::ParseJson(text.str());
  if (!config.ok()) return Usage(config.status().ToString());
  const rdfmr::JsonValue& dashboard = config->Get("dashboard");
  if (!config->Get("default_seed").is_number() ||
      !dashboard.Get("rates_qps").is_array() ||
      dashboard.Get("rates_qps").AsArray().empty() ||
      !dashboard.Get("slo_p99_ms").is_number()) {
    return Usage(config_path +
                 " needs default_seed, dashboard.rates_qps and "
                 "dashboard.slo_p99_ms");
  }
  if (!have_seed) options.seed = config->Get("default_seed").AsUint();
  for (const rdfmr::JsonValue& rate : dashboard.Get("rates_qps").AsArray()) {
    options.rates_qps.push_back(rate.AsDouble());
  }
  options.slo_p99_ms = dashboard.Get("slo_p99_ms").AsDouble();
  ::mkdir(options.run_dir.c_str(), 0755);

  Report report = workload->second(options);

  const double error_ratio =
      report.attempted > 0 ? static_cast<double>(report.failed) /
                                 static_cast<double>(report.attempted)
                           : 1.0;
  std::printf("workload %s seed %llu trace %d attempted %llu failed %llu "
              "error_ratio %s\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              options.trace ? 1 : 0,
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              Number(error_ratio).c_str());
  for (const std::string& error : report.errors) {
    std::printf("check failed: %s\n", error.c_str());
  }

  std::map<std::string, Metric> metrics;
  if (options.trace) {
    for (const auto& [name, unit] : LayerMetricUnits()) {
      auto it = report.layers.find(name);
      metrics[name] = it != report.layers.end() ? it->second : Metric{0, unit};
    }
    PrintMetrics("layer", metrics);
  } else {
    metrics = report.end_to_end;
    PrintMetrics("metric", metrics);
    PrintMetrics("metric", report.extra);
  }

  const bool ok = report.correct() && report.failed == 0;
  std::string json = "{\"correct\": ";
  json += ok ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    json += first ? "" : ", ";
    first = false;
    json += "\"" + name + "\": {\"value\": " + Number(metric.value) +
            ", \"unit\": \"" + metric.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }

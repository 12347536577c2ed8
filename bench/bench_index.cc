// Storage-layer cold-path costs: what `rdfmr index` buys at serve time.
// Measures (a) the one-time cost of building a .rdx image from an
// in-memory relation, (b) cold-open latency of the same dataset from
// .nt (parse + intern every line) vs .rdx (mmap + checksum validation,
// zero-copy), and (c) end-to-end first-query latency through the
// QueryService for both open paths — the mapped path pays its triple
// materialization here, so the pair shows where the decode cost moved,
// not just that it moved. Emits BENCH_index.json alongside the table.
//
// The open-latency ratio is the product's whole claim ("`rdfmr serve`
// opens in milliseconds"), so beyond the baseline-relative bench_compare
// gate this binary hard-fails when mmap-open is not at least 10x faster
// than parse-open.
//
// (d) adds the zero-materialization scan cells: a selective all-bound
// star (two rare feature properties, ~1% of the relation) is answered
// cold and warm on both ways to serve the .rdx — mapped scans (the mapping
// is mounted and the engine reads only its postings) vs a ReadDatasetFile
// loader (decode the full triple vector, then scan all of it). The
// cold ratio is the tentpole claim (first query without paying the
// decode), hard-failed below kMinColdScanSpeedup; the warm ratio and the
// warm qps rows are bench_compare-gated against the baseline.

#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>

#include "bench/bench_util.h"
#include "common/json.h"
#include "query/pattern.h"
#include "service/dataset_io.h"
#include "service/query_service.h"
#include "storage/rdx_reader.h"
#include "storage/rdx_writer.h"

namespace rdfmr {
namespace bench {
namespace {

constexpr int kRepeats = 5;
constexpr double kMinOpenSpeedup = 10.0;
constexpr double kMinColdScanSpeedup = 5.0;

/// Wall seconds of one run of `body`; aborts the bench on failure so a
/// broken step cannot masquerade as a fast one.
template <typename Body>
double TimeOnce(const char* what, Body body) {
  const auto start = std::chrono::steady_clock::now();
  const Status status = body();
  const auto stop = std::chrono::steady_clock::now();
  if (!status.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", what,
                 status.ToString().c_str());
    std::exit(1);
  }
  return std::chrono::duration<double>(stop - start).count();
}

/// Best-of-N wall seconds: cold-open noise is one-sided (page cache
/// misses and scheduler preemption only slow a run down), so the minimum
/// estimates the operation's true cost most stably.
template <typename Body>
double TimeBest(const char* what, Body body) {
  double best = 0.0;
  for (int repeat = 0; repeat < kRepeats; ++repeat) {
    const double seconds = TimeOnce(what, body);
    if (repeat == 0 || seconds < best) best = seconds;
  }
  return best;
}

uint64_t FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  return in ? static_cast<uint64_t>(in.tellg()) : 0;
}

int Main() {
  const std::string nt_path = "bench_index_data.nt";
  const std::string rdx_path = "bench_index_data.rdx";
  std::vector<Triple> triples = BsbmAtScale(2000);

  auto query = GetTestbedQuery("B1");
  if (!query.ok()) {
    std::fprintf(stderr, "%s\n", query.status().ToString().c_str());
    return 1;
  }

  Status seeded = service::WriteDatasetFile(nt_path, triples);
  if (!seeded.ok()) {
    std::fprintf(stderr, "%s\n", seeded.ToString().c_str());
    return 1;
  }

  // (a) Index build: in-memory relation -> on-disk .rdx image.
  const double index_build = TimeBest("index build", [&] {
    return storage::WriteRdxFile(rdx_path, triples);
  });

  // (b) Cold open, both formats. The parsed path must materialize every
  // triple; the mapped path validates checksums and returns a view.
  const double parsed_open = TimeBest("parsed open", [&]() -> Status {
    auto loaded = service::ReadDatasetFile(nt_path);
    if (!loaded.ok()) return loaded.status();
    if (loaded->size() != triples.size()) {
      return Status::Unknown("parsed open lost triples");
    }
    return Status::OK();
  });
  const double mmap_open = TimeBest("mmap open", [&]() -> Status {
    auto reader = storage::RdxReader::Open(rdx_path);
    if (!reader.ok()) return reader.status();
    if ((*reader)->triple_count() != triples.size()) {
      return Status::Unknown("mmap open lost triples");
    }
    return Status::OK();
  });

  // (c) First-query latency: cold service, open the dataset, answer B1.
  // The mapped cell pays lazy materialization inside the first query, so
  // this is the honest end-to-end comparison, not just the open call.
  auto first_query = [&](bool mapped) {
    return TimeBest(mapped ? "first query (mapped)" : "first query (parsed)",
                    [&]() -> Status {
                      service::ServiceConfig config;
                      service::QueryService query_service(config);
                      if (mapped) {
                        auto info = query_service.RegisterMappedDataset(
                            "bsbm", rdx_path);
                        if (!info.ok()) return info.status();
                      } else {
                        auto loaded = service::ReadDatasetFile(nt_path);
                        if (!loaded.ok()) return loaded.status();
                        auto info = query_service.LoadDataset(
                            "bsbm", std::move(*loaded));
                        if (!info.ok()) return info.status();
                      }
                      service::ServiceRequest request;
                      request.dataset = "bsbm";
                      request.query = *query;
                      service::ServiceResponse response =
                          query_service.Query(request);
                      if (!response.ok()) return response.status;
                      if (!response.stats.ok()) {
                        return Status::Unknown("first query failed");
                      }
                      return Status::OK();
                    });
  };
  const double first_query_parsed = first_query(false);
  const double first_query_mapped = first_query(true);

  // (d) Scan cells: selective all-bound star over the feature vocabulary.
  // Only ~1% of the relation carries featureLabel/featureType, so the
  // mapped-scan path reads a few hundred postings while the decoded path
  // pays the full materialization plus a whole-relation scan — the cell
  // isolates what zero-materialization buys when the query is selective.
  auto scan_built = GraphPatternQuery::Create(
      "feature_star",
      {TriplePattern::Bound(NodePattern::Var("f"), "featureLabel",
                            NodePattern::Var("l")),
       TriplePattern::Bound(NodePattern::Var("f"), "featureType",
                            NodePattern::Var("t"))});
  if (!scan_built.ok()) {
    std::fprintf(stderr, "%s\n", scan_built.status().ToString().c_str());
    return 1;
  }
  auto scan_query =
      std::make_shared<const GraphPatternQuery>(*std::move(scan_built));
  size_t expected_features = 0;
  for (const Triple& t : triples) {
    if (t.property == "featureType") ++expected_features;
  }

  auto run_scan_query = [&](service::QueryService* svc) -> Status {
    service::ServiceRequest request;
    request.dataset = "bsbm";
    request.query = scan_query;
    request.use_result_cache = false;
    service::ServiceResponse response = svc->Query(request);
    if (!response.ok()) return response.status;
    if (!response.stats.ok() ||
        response.answer_set().size() != expected_features) {
      return Status::Unknown("scan query produced wrong answers");
    }
    return Status::OK();
  };

  // Cold: a fresh service per run, so registration + first query pays the
  // whole dataset-open path (mount vs decode-and-write) each time.
  const auto register_decoded = [&rdx_path](service::QueryService* svc) {
    return svc->RegisterDataset(
        "bsbm", [rdx_path] { return service::ReadDatasetFile(rdx_path); });
  };
  auto cold_scan = [&](bool decoded) {
    return TimeBest(
        decoded ? "cold scan (decoded)" : "cold scan (mapped)",
        [&]() -> Status {
          service::ServiceConfig config;
          service::QueryService svc(config);
          auto info = decoded ? register_decoded(&svc)
                              : svc.RegisterMappedDataset("bsbm", rdx_path);
          if (!info.ok()) return info.status();
          return run_scan_query(&svc);
        });
  };
  const double cold_scan_mapped = cold_scan(false);
  const double cold_scan_decoded = cold_scan(true);

  // Warm: one long-lived service per mode; the dataset is already open
  // (and for the decoded mode, materialized), so this is the steady-state
  // per-query scan cost.
  service::ServiceConfig warm_config;
  service::QueryService warm_mapped_service(warm_config);
  service::QueryService warm_decoded_service(warm_config);
  {
    auto mapped_info =
        warm_mapped_service.RegisterMappedDataset("bsbm", rdx_path);
    auto decoded_info = register_decoded(&warm_decoded_service);
    if (!mapped_info.ok() || !decoded_info.ok()) {
      std::fprintf(stderr, "warm scan registration failed\n");
      return 1;
    }
    Status warmed = run_scan_query(&warm_mapped_service);
    if (warmed.ok()) warmed = run_scan_query(&warm_decoded_service);
    if (!warmed.ok()) {
      std::fprintf(stderr, "%s\n", warmed.ToString().c_str());
      return 1;
    }
  }
  const double warm_scan_mapped = TimeBest("warm scan (mapped)", [&] {
    return run_scan_query(&warm_mapped_service);
  });
  const double warm_scan_decoded = TimeBest("warm scan (decoded)", [&] {
    return run_scan_query(&warm_decoded_service);
  });

  const uint64_t nt_bytes = FileBytes(nt_path);
  const uint64_t rdx_bytes = FileBytes(rdx_path);
  const double speedup =
      mmap_open > 0.0 ? parsed_open / mmap_open : 0.0;
  const double cold_scan_speedup =
      cold_scan_mapped > 0.0 ? cold_scan_decoded / cold_scan_mapped : 0.0;
  const double warm_scan_speedup =
      warm_scan_mapped > 0.0 ? warm_scan_decoded / warm_scan_mapped : 0.0;

  std::printf("Index/open latency (%zu triples, %.1f KiB .nt, %.1f KiB "
              ".rdx)\n\n",
              triples.size(), nt_bytes / 1024.0, rdx_bytes / 1024.0);
  struct OpRow {
    const char* op;
    double seconds;
  };
  const OpRow rows[] = {
      {"index_build", index_build},
      {"parsed_open", parsed_open},
      {"mmap_open", mmap_open},
      {"first_query_parsed", first_query_parsed},
      {"first_query_mapped", first_query_mapped},
      {"cold_scan_mapped", cold_scan_mapped},
      {"cold_scan_decoded", cold_scan_decoded},
      {"warm_scan_mapped", warm_scan_mapped},
      {"warm_scan_decoded", warm_scan_decoded},
  };
  std::printf("%-20s %12s\n", "op", "millis");
  for (const OpRow& row : rows) {
    std::printf("%-20s %12.3f\n", row.op, row.seconds * 1e3);
  }
  std::printf("\nmmap-open speedup over parse-open: %.1fx\n", speedup);
  std::printf("cold selective scan, mapped over decoded: %.1fx\n",
              cold_scan_speedup);
  std::printf("warm selective scan, mapped over decoded: %.1fx\n",
              warm_scan_speedup);

  JsonValue report = JsonValue::MakeObject();
  report.Set("bench", "index_format");
  report.Set("num_triples", static_cast<uint64_t>(triples.size()));
  report.Set("nt_bytes", nt_bytes);
  report.Set("rdx_bytes", rdx_bytes);
  JsonValue cells = JsonValue::MakeArray();
  for (const OpRow& row : rows) {
    JsonValue o = JsonValue::MakeObject();
    o.Set("op", row.op);
    o.Set("seconds", row.seconds);
    cells.Append(std::move(o));
  }
  report.Set("cells", std::move(cells));
  // The speedup is the only load-insensitive (and therefore gateable)
  // number here: both opens run on the same host in the same process, so
  // their ratio cancels machine speed. It lives in its own top-level
  // array (like bench_service's "scaling") so the bench_compare gate can
  // require it in every row; the wall "seconds" cells stay informative
  // only — bench_compare never gates wall-clock fields.
  JsonValue gates = JsonValue::MakeArray();
  struct GateRow {
    const char* op;
    double value;
  };
  const GateRow gate_rows[] = {
      {"open_speedup", speedup},
      {"cold_scan_speedup", cold_scan_speedup},
      {"warm_scan_speedup", warm_scan_speedup},
  };
  for (const GateRow& row : gate_rows) {
    JsonValue o = JsonValue::MakeObject();
    o.Set("op", row.op);
    o.Set("speedup", row.value);
    gates.Append(std::move(o));
  }
  report.Set("gates", std::move(gates));
  // Warm scan throughput rows, gated separately (qps, like the service
  // bench): same host, same process, so the mapped/decoded pair moves
  // together under load — the ratio gate above is the tight one, these
  // catch absolute collapses.
  JsonValue scan = JsonValue::MakeArray();
  const GateRow scan_rows[] = {
      {"warm_scan_mapped", warm_scan_mapped > 0.0 ? 1.0 / warm_scan_mapped
                                                  : 0.0},
      {"warm_scan_decoded",
       warm_scan_decoded > 0.0 ? 1.0 / warm_scan_decoded : 0.0},
  };
  for (const GateRow& row : scan_rows) {
    JsonValue o = JsonValue::MakeObject();
    o.Set("op", row.op);
    o.Set("qps", row.value);
    scan.Append(std::move(o));
  }
  report.Set("scan", std::move(scan));
  std::ofstream out("BENCH_index.json");
  out << report.Dump() << "\n";
  if (!out) {
    std::fprintf(stderr, "failed to write BENCH_index.json\n");
    return 1;
  }
  std::printf("wrote BENCH_index.json\n");

  std::remove(nt_path.c_str());
  std::remove(rdx_path.c_str());

  if (speedup < kMinOpenSpeedup) {
    std::fprintf(stderr,
                 "shape check failed: mmap-open only %.1fx faster than "
                 "parse-open (need >= %.0fx)\n",
                 speedup, kMinOpenSpeedup);
    return 1;
  }
  if (cold_scan_speedup < kMinColdScanSpeedup) {
    std::fprintf(stderr,
                 "shape check failed: cold selective scan over the mapping "
                 "only %.1fx faster than decode-then-scan (need >= %.0fx)\n",
                 cold_scan_speedup, kMinColdScanSpeedup);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace rdfmr

int main() { return rdfmr::bench::Main(); }

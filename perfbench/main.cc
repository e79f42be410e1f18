// perfbench: one workload per process.
//
//   perfbench --workload <paper_small|paper_large|serve_rw> --seed <n>
//             --seconds <s> --trace <0|1>
//   perfbench --selftest
//
// The last line of stdout is one JSON object: correct, attempted, failed,
// and the end-to-end metrics (--trace 0) or the per-layer ones (--trace 1).
// Check failures go to stderr.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "bench.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

struct MetricDef {
  const char* name;
  const char* unit;
};

const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"class_geomean_ms", "ms"},
    {"stmt_per_s", "1/s"},
    {"peak_rss_mb", "MB"},
};

/// Per-layer metrics, in output order. A workload that has no such layer
/// prints 0 (README.md says which workload moves which metric).
std::vector<MetricDef> PerLayer() {
  std::vector<MetricDef> v = {
      // Per-class latencies; each exists on one kind of workload only.
      {"pr_ms", "ms"},
      {"sssp_ms", "ms"},
      {"ff_ms", "ms"},
      {"proc_ms", "ms"},
      {"point_ms", "ms"},
      {"view_ms", "ms"},
      {"write_ms", "ms"},
      {"read_p99_ms", "ms"},
      {"disk_bytes_per_data_byte", "ratio"},
      // parser / planner / verifier
      {"parser.parse_us", "us"},
      {"planner.plan_us", "us"},
      {"verify.verify_us", "us"},
      {"planner.plan_share", "ratio"},
      // exec
      {"exec.compile_us", "us"},
      {"exec.run_ms.pr", "ms"},
      {"exec.run_ms.sssp", "ms"},
      {"exec.run_ms.ff", "ms"},
      {"exec.run_ms.proc", "ms"},
  };
  static const char* const kClasses[] = {"pr", "sssp", "ff", "proc"};
  static const char* const kCounters[] = {
      "exec.rows_materialized.", "exec.loop_iterations.",
      "exec.delta_rows.",        "exec.delta_probe_rows.",
      "exec.build_cache_hits.",  "exec.merge_updates.",
      "exec.renames.",           "exec.pipeline_rows_in.",
      "exec.kernel_rows_probe.", "exec.agg_rows_preaggregated."};
  static std::vector<std::string> names;
  if (names.empty()) {
    for (const char* cls : kClasses) {
      for (const char* counter : kCounters) {
        names.push_back(std::string(counter) + cls);
      }
    }
  }
  for (const std::string& n : names) v.push_back({n.c_str(), "count"});
  const MetricDef rest[] = {
      {"exec.useful_ratio.sssp", "ratio"},
      // mpp
      {"mpp.rows_shuffled", "count"},
      {"mpp.morsels_stolen", "count"},
      {"mpp.cpu_busy", "ratio"},
      // engine (procedures)
      {"engine.proc_stmts", "count"},
      {"engine.proc_stmt_us", "us"},
      // storage
      {"storage.bytes_written_per_write", "B"},
      {"storage.write_amp", "ratio"},
      {"storage.wal_appends_per_write", "count"},
      {"storage.manifests_written", "count"},
      {"storage.compression_ratio", "ratio"},
      {"storage.reopen_ms", "ms"},
      // ivm
      {"ivm.rows_maintained_per_write", "count"},
      {"ivm.deltas_applied", "count"},
      {"ivm.full_refreshes", "count"},
      {"ivm.fallbacks", "count"},
      {"ivm.requery_ms", "ms"},
      {"ivm.view_read_ms", "ms"},
      {"ivm.reread_speedup", "ratio"},
      // server
      {"server.queue_wait_us", "us"},
      {"server.queued_share", "ratio"},
      // the tracing itself
      {"trace.overhead_pct", "%"},
      {"trace.spans", "count"},
  };
  v.insert(v.end(), std::begin(rest), std::end(rest));
  return v;
}

void PrintResult(const Outcome& out, bool trace) {
  std::vector<MetricDef> defs =
      trace ? PerLayer()
            : std::vector<MetricDef>(std::begin(kEndToEnd), std::end(kEndToEnd));
  std::string json = "{\"correct\": ";
  json += out.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < defs.size(); ++i) {
    double value = 0;
    for (const Metric& m : out.metrics) {
      if (m.name == defs[i].name) value = m.value;
    }
    if (!std::isfinite(value)) {  // keep the line valid JSON
      std::fprintf(stderr, "perfbench: %s is not finite\n", defs[i].name);
      value = 0;
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    json += std::string(i ? ", " : "") + "\"" + defs[i].name +
            "\": {\"value\": " + buf + ", \"unit\": \"" + defs[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload paper_small|paper_large|serve_rw "
               "--seed N --seconds S --trace 0|1\n"
               "       perfbench --selftest\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload;
  RunConfig run;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--selftest") {
      selftest = true;
    } else if (a == "--workload" && has_value) {
      workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      run.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      run.seconds = std::atoi(argv[++i]);
    } else if (a == "--trace" && has_value) {
      run.trace = std::atoi(argv[++i]) != 0;
    } else {
      return Usage();
    }
  }
  // Everything the run writes stays under .bench_build/ of the checkout.
  const fs::path build = ".bench_build";
  const std::string tag =
      (selftest ? std::string("selftest") : workload) + "-" +
      std::to_string(getpid());
  run.work_dir = (build / "work" / tag).string();
  if (selftest) {
    const int rc = RunSelfTest(run.work_dir);
    fs::remove_all(run.work_dir);
    return rc;
  }
  if (run.seconds < 1) return Usage();
  if (run.trace) {
    fs::create_directories(build / "traces");
    run.trace_path = (build / "traces" / (workload + ".json")).string();
  }

  // setup_s is the median of several set-ups: nine of serve_rw's ~0.1 s
  // ones, five of paper_small's ~1 s ones, and two of paper_large's, which
  // take ~10 s each.
  Outcome out;
  if (workload == "paper_small") {
    run.setups = 5;
    out = RunPaper(run, PaperConfig{/*scale=*/64, /*width=*/1});
  } else if (workload == "paper_large") {
    // Width 2, not 4: on a shared 4-vCPU host a statement at width 4 waits
    // for its slowest worker whenever another tenant takes a core, and
    // paper_large's figures drifted by 45% within ten minutes.
    run.setups = 2;
    out = RunPaper(run, PaperConfig{/*scale=*/8, /*width=*/2});
  } else if (workload == "serve_rw") {
    run.setups = 9;
    out = RunServe(run, ServeConfig{/*scale=*/64, /*clients=*/3});
  } else {
    return Usage();
  }
  fs::remove_all(run.work_dir);
  for (const std::string& e : out.errors) {
    std::fprintf(stderr, "perfbench: %s\n", e.c_str());
  }
  PrintResult(out, run.trace);
  return 0;
}

// Shared declarations of the end-to-end benchmark (see README.md).
//
// The benchmark drives the engine only through its public API (Database,
// server::SessionManager/Session, Procedure, plus the parser and planner
// entry points it times in traced runs) and checks every timed statement
// against results computed apart from the engine.

#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/database.h"
#include "graph/generator.h"

namespace perfbench {

using dbspinner::Database;
using dbspinner::ExecStats;
using dbspinner::QueryResult;

// --- time and process figures ----------------------------------------------

double NowMs();           ///< steady clock, milliseconds
double ProcessCpuMs();    ///< CPU time of the whole process, milliseconds
double PeakRssMb();       ///< peak resident set size of this process
int64_t DirectoryBytes(const std::string& path);

// --- statistics --------------------------------------------------------------

double Median(std::vector<double> v);
/// Linear-interpolated quantile, q in [0, 1].
double Quantile(std::vector<double> v, double q);
double Geomean(const std::vector<double>& v);
double Mean(const std::vector<double>& v);

/// How much slower the traced rounds' class medians are than the untraced
/// ones', in percent of the geometric means (0 without traced rounds).
double OverheadPct(const std::vector<double>& traced,
                   const std::vector<double>& untraced);

/// |a - b| within a relative tolerance (parallel sums reorder additions).
bool Near(double a, double b, double rel = 1e-9);

// --- results -----------------------------------------------------------------

/// Units live with the metric list in main.cc.
struct Metric {
  std::string name;
  double value = 0;
};

/// What one run reports. `errors` collects the first few failures (printed
/// to stderr); a wrong answer marks its operation failed and the run
/// incorrect.
struct Outcome {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> errors;

  void Add(const std::string& name, double value) {
    metrics.push_back({name, value});
  }
  /// Records a wrong answer to a counted operation.
  void Wrong(const std::string& what);
  /// Records an operation the engine refused.
  void Failed(const std::string& what);
  /// Records a failed check outside the counted operations (set-up,
  /// quiescent and end-of-run checks): the run is incorrect.
  void Broken(const std::string& what);
  void Merge(const Outcome& other);
};

// --- tracing -----------------------------------------------------------------

/// In-memory span recorder for traced runs. Spans nest by `parent`; spans
/// of one statement share `stmt`. Thread-safe. When disabled, Begin and End
/// record nothing (Begin returns span id -1).
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  int64_t NextStatementId();
  int64_t Begin(const std::string& name, int64_t parent, int64_t stmt);
  /// Ends span `id` and returns its duration in milliseconds.
  double End(int64_t id);

  struct Rollup {
    int64_t count = 0;
    double total_ms = 0;
    double self_ms = 0;  ///< duration minus the time covered by children
  };
  std::map<std::string, Rollup> RollUp() const;
  size_t size() const;

  /// Writes every span plus the per-name roll-up as JSON.
  bool WriteJson(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    double start_ms = 0;
    double end_ms = 0;
    int64_t parent = -1;
    int64_t stmt = -1;
  };
  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  int64_t next_stmt_ = 0;
};

/// RAII span around one call. A null tracer records nothing, which is how
/// untraced rounds of a traced run skip their spans.
class SpanScope {
 public:
  SpanScope(Tracer* t, const std::string& name, int64_t parent, int64_t stmt)
      : tracer_(t), id_(t != nullptr ? t->Begin(name, parent, stmt) : -1) {}
  ~SpanScope() { Close(); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  int64_t id() const { return id_; }
  /// Ends the span (once) and returns its duration in milliseconds.
  double Close() {
    if (!closed_ && tracer_ != nullptr) ms_ = tracer_->End(id_);
    closed_ = true;
    return ms_;
  }

 private:
  Tracer* tracer_;
  int64_t id_;
  bool closed_ = false;
  double ms_ = 0;
};

// --- inputs ------------------------------------------------------------------

/// A generated graph, written as CSV files for COPY ... FROM, plus the
/// vertexstatus map the -VS reference runs need.
struct GraphInputs {
  dbspinner::graph::EdgeList graph;
  std::unordered_map<int64_t, int64_t> status;  ///< node -> status
  std::string edges_csv;                        ///< absolute path
  std::string status_csv;                       ///< absolute path
};

/// DblpShaped(scale) with the workload seed; ~80% of vertexstatus rows get
/// status 1. CSVs go under `dir`.
GraphInputs MakeGraphInputs(int64_t scale, uint64_t seed,
                            const std::string& dir);

/// CREATE TABLE + COPY FROM of the edges (and, when `with_status`, the
/// vertexstatus) CSVs, through `exec`.
bool LoadGraph(const GraphInputs& in, bool with_status,
               const std::function<dbspinner::Result<QueryResult>(
                   const std::string&)>& exec,
               std::string* error);

/// splitmix64: the benchmark's only random source, seeded from --seed.
struct Rng {
  uint64_t state;
  explicit Rng(uint64_t seed) : state(seed * 0x9E3779B97F4A7C15ull + 1) {}
  uint64_t Next();
  /// Uniform in [0, n).
  uint64_t Below(uint64_t n) { return Next() % n; }
};

// --- workloads ---------------------------------------------------------------

/// Where a run may write (inside the checkout) and how long it measures.
struct RunConfig {
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string work_dir;   ///< scratch directory for CSVs and databases
  std::string trace_path; ///< JSON span output (traced runs only)
  int setups = 3;         ///< set-ups per run; setup_s is their median
  /// >0: run exactly this many rounds instead of `seconds` (self-test).
  int fixed_rounds = 0;
  /// Self-test only: corrupt one expected value, so the checks must flag
  /// the operations that read it.
  bool perturb_expected = false;
};

struct PaperConfig {
  int64_t scale = 64;  ///< DblpShaped divisor
  int width = 1;       ///< EngineOptions::num_workers
};

struct ServeConfig {
  int64_t scale = 64;
  int clients = 3;
};

Outcome RunPaper(const RunConfig& run, const PaperConfig& cfg);
Outcome RunServe(const RunConfig& run, const ServeConfig& cfg);

/// Tiny-scale self-test of every workload and its checks (README.md).
int RunSelfTest(const std::string& work_dir);

}  // namespace perfbench

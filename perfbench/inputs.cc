// Input generation, CSV export and the small helpers every workload shares.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <filesystem>

#include "bench.h"
#include "graph/reference_algorithms.h"

namespace perfbench {

namespace fs = std::filesystem;

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // kB on Linux
}

int64_t DirectoryBytes(const std::string& path) {
  int64_t total = 0;
  std::error_code ec;
  for (const auto& e : fs::recursive_directory_iterator(path, ec)) {
    if (e.is_regular_file(ec)) total += static_cast<int64_t>(e.file_size(ec));
  }
  return total;
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Geomean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double log_sum = 0;
  for (double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

double OverheadPct(const std::vector<double>& traced,
                   const std::vector<double>& untraced) {
  if (traced.size() != untraced.size()) return 0;
  const double t = Geomean(traced), u = Geomean(untraced);
  return t > 0 && u > 0 ? (t / u - 1) * 100 : 0;
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

bool Near(double a, double b, double rel) {
  return std::fabs(a - b) <= rel * std::max(std::fabs(a), std::fabs(b)) + 1e-12;
}

void Outcome::Wrong(const std::string& what) {
  correct = false;
  ++failed;
  if (errors.size() < 8) errors.push_back("wrong result: " + what);
}

void Outcome::Failed(const std::string& what) {
  ++failed;
  if (errors.size() < 8) errors.push_back("failed: " + what);
}

void Outcome::Broken(const std::string& what) {
  correct = false;
  if (errors.size() < 8) errors.push_back("check failed: " + what);
}

void Outcome::Merge(const Outcome& other) {
  correct = correct && other.correct;
  attempted += other.attempted;
  failed += other.failed;
  for (const std::string& e : other.errors) {
    if (errors.size() < 8) errors.push_back(e);
  }
}

uint64_t Rng::Next() {
  uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

GraphInputs MakeGraphInputs(int64_t scale, uint64_t seed,
                            const std::string& dir) {
  namespace graph = dbspinner::graph;
  GraphInputs in;
  in.graph = graph::Generate(graph::DblpShaped(scale, seed));
  dbspinner::TablePtr vs = graph::BuildVertexStatusTable(
      in.graph.num_nodes, /*available_fraction=*/0.8, seed ^ 0x5bd1e995ull);
  in.status = graph::StatusMap(*vs);

  fs::create_directories(dir);
  in.edges_csv = fs::absolute(fs::path(dir) / "edges.csv").string();
  in.status_csv = fs::absolute(fs::path(dir) / "vertexstatus.csv").string();
  // %.17g round-trips every double exactly, so the engine loads the very
  // values the reference algorithms run on.
  FILE* f = std::fopen(in.edges_csv.c_str(), "w");
  std::fprintf(f, "src,dst,weight\n");
  for (size_t i = 0; i < in.graph.num_edges(); ++i) {
    std::fprintf(f, "%lld,%lld,%.17g\n",
                 static_cast<long long>(in.graph.src[i]),
                 static_cast<long long>(in.graph.dst[i]), in.graph.weight[i]);
  }
  std::fclose(f);
  f = std::fopen(in.status_csv.c_str(), "w");
  std::fprintf(f, "node,status\n");
  for (int64_t node = 1; node <= in.graph.num_nodes; ++node) {
    auto it = in.status.find(node);
    std::fprintf(f, "%lld,%lld\n", static_cast<long long>(node),
                 static_cast<long long>(it == in.status.end() ? 0
                                                              : it->second));
  }
  std::fclose(f);
  return in;
}

bool LoadGraph(const GraphInputs& in, bool with_status,
               const std::function<dbspinner::Result<QueryResult>(
                   const std::string&)>& exec,
               std::string* error) {
  std::vector<std::string> stmts = {
      "CREATE TABLE edges (src BIGINT, dst BIGINT, weight DOUBLE)",
      "COPY edges FROM '" + in.edges_csv + "'"};
  if (with_status) {
    stmts.push_back("CREATE TABLE vertexstatus (node BIGINT, status BIGINT)");
    stmts.push_back("COPY vertexstatus FROM '" + in.status_csv + "'");
  }
  for (const std::string& sql : stmts) {
    dbspinner::Result<QueryResult> r = exec(sql);
    if (!r.ok()) {
      *error = sql + ": " + r.status().ToString();
      return false;
    }
  }
  return true;
}

}  // namespace perfbench

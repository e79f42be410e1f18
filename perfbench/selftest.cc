// Self-test at tiny scale: every workload for a few rounds with all checks
// on, a perturbed expectation that must be flagged, and exact repeats of
// the deterministic work counters for one client and one seed.
//
//   python3 perfbench/run.py --selftest

#include <cstdio>
#include <filesystem>

#include "bench.h"

namespace perfbench {

namespace {

constexpr int64_t kTinyScale = 1024;  // ~310 nodes / ~1k edges

double Get(const Outcome& o, const std::string& name) {
  for (const Metric& m : o.metrics) {
    if (m.name == name) return m.value;
  }
  return -1;
}

struct Tally {
  int failures = 0;
  void Expect(bool ok, const std::string& what) {
    std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok) ++failures;
  }
};

void ExpectClean(Tally* t, const Outcome& o, const std::string& what) {
  for (const std::string& e : o.errors) std::printf("      %s\n", e.c_str());
  t->Expect(o.correct && o.failed == 0 && o.attempted > 0,
            what + ": correct, " + std::to_string(o.attempted) +
                " attempted, 0 failed");
}

RunConfig Tiny(const std::string& dir, uint64_t seed, bool trace) {
  RunConfig run;
  run.seed = seed;
  run.trace = trace;
  run.work_dir = dir;
  run.setups = 1;
  run.fixed_rounds = 2;  // one untraced and one traced round
  return run;
}

}  // namespace

int RunSelfTest(const std::string& work_dir) {
  namespace fs = std::filesystem;
  Tally t;
  const PaperConfig serial{kTinyScale, 1};
  const PaperConfig wide{kTinyScale, 4};

  // Every workload runs clean with all checks on.
  const Outcome a = RunPaper(Tiny(work_dir + "/a", 3, true), serial);
  ExpectClean(&t, a, "paper, width 1");
  ExpectClean(&t, RunPaper(Tiny(work_dir + "/b", 3, false), wide),
              "paper, width 4");
  ExpectClean(&t, RunServe(Tiny(work_dir + "/c", 3, true), ServeConfig{kTinyScale, 3}),
              "serve_rw, 3 clients");

  // A perturbed expectation is flagged, once per operation that reads it.
  RunConfig bad = Tiny(work_dir + "/d", 3, false);
  bad.perturb_expected = true;
  const Outcome pb = RunPaper(bad, serial);
  t.Expect(!pb.correct && pb.failed == bad.fixed_rounds,
           "paper: perturbed SSSP distance fails each SSSP statement (" +
               std::to_string(pb.failed) + " failed)");
  const Outcome sb = RunServe(bad, ServeConfig{kTinyScale, 1});
  // A serve_rw round holds 36 view reads.
  t.Expect(!sb.correct && sb.failed == 36 * bad.fixed_rounds,
           "serve_rw: perturbed shadow aggregate fails each view read (" +
               std::to_string(sb.failed) + " failed)");

  // Deterministic counters repeat exactly for one client and one seed.
  const Outcome a2 = RunPaper(Tiny(work_dir + "/e", 3, true), serial);
  for (const char* cls : {"pr", "sssp", "ff", "proc"}) {
    for (const char* counter :
         {"rows_materialized", "delta_rows", "loop_iterations"}) {
      const std::string name = std::string("exec.") + counter + "." + cls;
      t.Expect(Get(a, name) == Get(a2, name) && Get(a, name) >= 0,
               name + " repeats (" + std::to_string(Get(a, name)) + ")");
    }
  }
  const Outcome s1 =
      RunServe(Tiny(work_dir + "/f", 5, true), ServeConfig{kTinyScale, 1});
  const Outcome s2 =
      RunServe(Tiny(work_dir + "/g", 5, true), ServeConfig{kTinyScale, 1});
  ExpectClean(&t, s1, "serve_rw, 1 client");
  const double b1 = Get(s1, "storage.bytes_written_per_write");
  t.Expect(b1 > 0 && b1 == Get(s2, "storage.bytes_written_per_write"),
           "storage bytes written per write repeat (" + std::to_string(b1) +
               ")");
  fs::remove_all(work_dir);
  std::printf("%s: %d failure(s)\n", t.failures ? "FAIL" : "PASS", t.failures);
  return t.failures ? 1 : 0;
}

}  // namespace perfbench

// serve_rw: a durable read/write serving mix. Clients run closed loops
// through server::SessionManager, one thread and one key partition each,
// so every read has exactly one correct answer, kept in the client's
// shadow copy of its partition.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <map>
#include <optional>
#include <thread>

#include "bench.h"
#include "common/string_util.h"
#include "exec/physical_planner.h"
#include "parser/parser.h"
#include "server/session.h"

namespace perfbench {

namespace fs = std::filesystem;
using dbspinner::Result;
using dbspinner::StringPrintf;
using dbspinner::Table;

namespace {

/// Empty when the (dst, weight) rows equal `expected` as multisets.
std::string CheckPointRows(const Table& rows,
                           std::vector<std::pair<int64_t, double>> expected) {
  if (rows.num_columns() != 2 || rows.num_rows() != expected.size()) {
    return StringPrintf("expected %zu (dst, weight) rows, got %zu x %zu",
                        expected.size(), rows.num_rows(), rows.num_columns());
  }
  std::vector<std::pair<int64_t, double>> got;
  for (size_t i = 0; i < rows.num_rows(); ++i) {
    const dbspinner::Value d = rows.GetValue(i, 0);
    const dbspinner::Value w = rows.GetValue(i, 1);
    if (d.is_null() || w.is_null()) return "NULL in point read";
    got.emplace_back(d.AsInt64(), w.AsDouble());
  }
  std::sort(got.begin(), got.end());
  std::sort(expected.begin(), expected.end());
  // Exact: every weight is either loaded from a %.17g CSV field or written
  // as a dyadic literal, so the engine holds the shadow's bits.
  if (got != expected) return "point read differs from the shadow copy";
  return "";
}

/// Statement classes of the mix, in class_geomean_ms order.
enum Op { kPoint = 0, kView = 1, kWrite = 2, kNumOps = 3 };
const char* const kOpNames[kNumOps] = {"point", "view", "write"};

/// One round of a client: 399 reads (a view read after every 10th point
/// read, 36 in all) and one one-row UPDATE, a 0.25% write share. A one-row
/// commit costs about as much as 100 point reads, much of it in disk
/// flushes whose latency swings with the host's other disk traffic; at this
/// share commits take about a fifth of a client's time, so they show
/// without setting the pace alone.
std::vector<Op> MakeRound() {
  std::vector<Op> round;
  for (int i = 0; i < 399; ++i) round.push_back(i % 11 == 10 ? kView : kPoint);
  round.push_back(kWrite);
  return round;
}
const std::vector<Op> kRound = MakeRound();

constexpr int kBucketsPerClient = 16;
constexpr double kRowBytes = 24;  // edges row: BIGINT, BIGINT, DOUBLE

/// The defining query of the view; MOD(src, buckets) keeps each bucket
/// inside one client's partition (src % clients).
std::string ViewBody(int buckets) {
  return StringPrintf(
      "SELECT MOD(src, %d) AS bucket, COUNT(*) AS c, SUM(weight) AS s "
      "FROM edges GROUP BY MOD(src, %d)",
      buckets, buckets);
}

/// Latency samples in constant memory, so that the benchmark's own
/// bookkeeping does not grow with throughput (peak_rss_mb would follow
/// stmt_per_s). Samples under 5 ms fall in 0.1 us bins; longer ones are
/// kept exactly. Quantiles interpolate between ranks like Quantile().
class LatencyHistogram {
 public:
  LatencyHistogram() : bins_(kBins, 0) {}

  void Add(double ms) {
    const double bin = ms / kBinMs;
    if (bin >= 0 && bin < static_cast<double>(kBins)) {
      ++bins_[static_cast<size_t>(bin)];
      ++binned_;
    } else {
      overflow_.push_back(ms);
    }
  }

  void Merge(const LatencyHistogram& other) {
    for (size_t i = 0; i < kBins; ++i) bins_[i] += other.bins_[i];
    binned_ += other.binned_;
    overflow_.insert(overflow_.end(), other.overflow_.begin(),
                     other.overflow_.end());
  }

  double Quantile(double q) const {
    const int64_t n = binned_ + static_cast<int64_t>(overflow_.size());
    if (n == 0) return 0;
    std::vector<double> over = overflow_;
    std::sort(over.begin(), over.end());
    const double pos = q * static_cast<double>(n - 1);
    const int64_t lo = static_cast<int64_t>(pos);
    const int64_t hi = std::min(lo + 1, n - 1);
    const double a = At(lo, over), b = At(hi, over);
    return a + (b - a) * (pos - static_cast<double>(lo));
  }

 private:
  static constexpr double kBinMs = 1e-4;
  static constexpr size_t kBins = 50000;

  /// The sample of rank `rank` (0-based, ascending).
  double At(int64_t rank, const std::vector<double>& sorted_overflow) const {
    if (rank >= binned_) {
      return sorted_overflow[static_cast<size_t>(rank - binned_)];
    }
    int64_t seen = 0;
    for (size_t i = 0; i < kBins; ++i) {
      seen += bins_[i];
      if (seen > rank) return (static_cast<double>(i) + 0.5) * kBinMs;
    }
    return 0;
  }

  std::vector<uint32_t> bins_;
  int64_t binned_ = 0;
  std::vector<double> overflow_;
};

/// A client's shadow of its own partition (src % clients == id).
struct Shadow {
  std::unordered_map<int64_t, std::vector<std::pair<int64_t, double>>> rows;
  std::map<int64_t, std::pair<int64_t, double>> buckets;  ///< count, sum
  /// (src, dst) keys of exactly one row: the UPDATE targets.
  std::vector<std::pair<int64_t, int64_t>> updatable;
  int64_t num_rows = 0;
};

struct Shared {
  Database* db = nullptr;
  const GraphInputs* in = nullptr;
  int clients = 1;
  int buckets = 1;
};

struct Client {
  int id = 0;
  Rng rng{0};
  Shadow shadow;
  std::shared_ptr<dbspinner::server::Session> session;

  // Measured (untraced rounds).
  LatencyHistogram ms[kNumOps];
  LatencyHistogram queue_wait_ms;
  int64_t writes = 0;
  int64_t completed = 0;
  double finished_ms = 0;  ///< when the client's last round ended
  ExecStats ivm;  ///< summed ivm_* counters
  Outcome out;
  // Traced rounds.
  std::vector<double> traced_ms[kNumOps];
  std::vector<double> parse_ms, plan_ms, verify_ms, compile_ms;
  double plan_total = 0, stmt_total = 0;
};

void InitShadow(const Shared& sh, Client* c) {
  c->shadow = Shadow{};
  const dbspinner::graph::EdgeList& g = sh.in->graph;
  std::map<std::pair<int64_t, int64_t>, int> multiplicity;
  for (size_t i = 0; i < g.num_edges(); ++i) {
    if (g.src[i] % sh.clients != c->id) continue;
    c->shadow.rows[g.src[i]].emplace_back(g.dst[i], g.weight[i]);
    auto& b = c->shadow.buckets[g.src[i] % sh.buckets];
    ++b.first;
    b.second += g.weight[i];
    ++c->shadow.num_rows;
    ++multiplicity[{g.src[i], g.dst[i]}];
  }
  for (const auto& [key, count] : multiplicity) {
    if (count == 1) c->shadow.updatable.push_back(key);
  }
}

/// The shadow's rows of every bucket the client owns.
std::string CheckBuckets(const Table& rows, const Shadow& shadow,
                         bool all_buckets) {
  size_t expected_rows = 0;
  for (const auto& [bucket, agg] : shadow.buckets) {
    if (agg.first > 0) ++expected_rows;
  }
  if (!all_buckets && rows.num_rows() != expected_rows) {
    return StringPrintf("view read: %zu buckets, shadow has %zu",
                        rows.num_rows(), expected_rows);
  }
  size_t matched = 0;
  for (size_t i = 0; i < rows.num_rows(); ++i) {
    const int64_t bucket = rows.GetValue(i, 0).AsInt64();
    auto it = shadow.buckets.find(bucket);
    if (it == shadow.buckets.end()) {
      if (all_buckets) continue;  // another client's bucket
      return StringPrintf("view read: unexpected bucket %lld",
                          static_cast<long long>(bucket));
    }
    ++matched;
    const int64_t c = rows.GetValue(i, 1).AsInt64();
    const double s = rows.GetValue(i, 2).AsDouble();
    if (c != it->second.first || !Near(s, it->second.second)) {
      return StringPrintf("bucket %lld: (%lld, %.17g), shadow (%lld, %.17g)",
                          static_cast<long long>(bucket),
                          static_cast<long long>(c), s,
                          static_cast<long long>(it->second.first),
                          it->second.second);
    }
  }
  if (matched != expected_rows) {
    return StringPrintf("view: %zu of the client's buckets, shadow has %zu",
                        matched, expected_rows);
  }
  return "";
}

/// A statement and the check of its result; a write's check also applies
/// the write to the shadow, so only acknowledged writes reach it.
struct Statement {
  std::string sql;
  std::function<std::string(const QueryResult&)> check;
};

Statement MakeStatement(const Shared& sh, Client* c, Op op) {
  Shadow& sd = c->shadow;
  const int64_t n = sh.in->graph.num_nodes;
  // A uniformly drawn node of the client's partition.
  auto key = [&] {
    const int64_t first = c->id == 0 ? sh.clients : c->id;
    const int64_t count = (n - first) / sh.clients + 1;
    return first + sh.clients * static_cast<int64_t>(c->rng.Below(
                                    static_cast<uint64_t>(count)));
  };
  // Dyadic weights are exact in binary, decimal and the engine.
  auto weight = [&] { return static_cast<double>(1 + c->rng.Below(1024)) / 64.0; };
  switch (op) {
    case kPoint: {
      const int64_t k = key();
      return {StringPrintf("SELECT dst, weight FROM edges WHERE src = %lld",
                           static_cast<long long>(k)),
              [&sd, k](const QueryResult& r) {
                auto it = sd.rows.find(k);
                return CheckPointRows(
                    *r.table, it == sd.rows.end()
                                  ? std::vector<std::pair<int64_t, double>>{}
                                  : it->second);
              }};
    }
    case kView:
      return {StringPrintf(
                  "SELECT bucket, c, s FROM serve_view WHERE MOD(bucket, %d) = %d",
                  sh.clients, c->id),
              [&sd](const QueryResult& r) {
                return CheckBuckets(*r.table, sd, /*all_buckets=*/false);
              }};
    case kWrite:
    default: {
      const auto [k, dst] =
          sd.updatable[c->rng.Below(sd.updatable.size())];
      const double w = weight();
      return {StringPrintf(
                  "UPDATE edges SET weight = %.17g WHERE src = %lld AND dst = %lld",
                  w, static_cast<long long>(k), static_cast<long long>(dst)),
              [&sd, &sh, k = k, dst = dst, w](const QueryResult& r) -> std::string {
                if (r.rows_affected != 1) return "UPDATE did not change one row";
                for (auto& [d, old] : sd.rows[k]) {
                  if (d != dst) continue;
                  sd.buckets[k % sh.buckets].second += w - old;
                  old = w;
                }
                return "";
              }};
    }
  }
}

/// Runs one round of `c`. `counted` rounds are measured operations;
/// `tracer` non-null makes it a traced round, and `probe_plans` adds the
/// planner probes (one client only: they run on the default session).
void RunRound(const Shared& sh, Client* c, bool counted, Tracer* tracer,
              bool probe_plans) {
  for (Op op : kRound) {
    Statement st = MakeStatement(sh, c, op);
    const int64_t stmt = tracer != nullptr ? tracer->NextStatementId() : -1;
    SpanScope root(tracer, std::string("stmt.") + kOpNames[op], -1, stmt);
    if (tracer != nullptr) {
      SpanScope sp(tracer, "parser.parse", root.id(), stmt);
      (void)dbspinner::ParseStatement(st.sql);
      c->parse_ms.push_back(sp.Close());
    }
    const bool probe = probe_plans && (op == kPoint || op == kView);
    double plan = 0;
    if (probe) {
      std::optional<Result<dbspinner::Program>> program;
      double off = 0, compile = 0;
      {
        SpanScope sp(tracer, "planner.plan", root.id(), stmt);
        program.emplace(sh.db->Plan(st.sql));
        plan = sp.Close();
      }
      {
        SpanScope sp(tracer, "planner.plan_unverified", root.id(), stmt);
        sh.db->options().verify.verify_plans = false;
        (void)sh.db->Plan(st.sql);
        sh.db->options().verify.verify_plans = true;
        off = sp.Close();
      }
      if (program->ok()) {
        SpanScope sp(tracer, "exec.compile", root.id(), stmt);
        (void)dbspinner::PlanProgram(&**program, &sh.db->catalog());
        compile = sp.Close();
      }
      c->plan_ms.push_back(plan);
      c->verify_ms.push_back(plan - off);
      c->compile_ms.push_back(compile);
    }
    const double t0 = NowMs();
    std::optional<Result<QueryResult>> r;
    {
      SpanScope sp(tracer, "engine.execute", root.id(), stmt);
      r.emplace(c->session->Execute(st.sql));
    }
    const double ms = NowMs() - t0;
    if (counted) ++c->out.attempted;
    if (!r->ok()) {
      const std::string what = std::string(kOpNames[op]) + ": " +
                               r->status().ToString();
      counted ? c->out.Failed(what) : c->out.Broken("set-up " + what);
      continue;
    }
    const QueryResult& res = **r;
    const std::string err = st.check(res);
    if (!err.empty()) {
      const std::string what = std::string(kOpNames[op]) + ": " + err;
      counted ? c->out.Wrong(what) : c->out.Broken("set-up " + what);
      continue;
    }
    if (!counted) continue;
    ++c->completed;
    if (op == kWrite) ++c->writes;
    c->queue_wait_ms.Add(static_cast<double>(res.stats.queue_wait_us) / 1000.0);
    c->ivm.ivm_deltas_applied += res.stats.ivm_deltas_applied;
    c->ivm.ivm_rows_maintained += res.stats.ivm_rows_maintained;
    c->ivm.ivm_full_refreshes += res.stats.ivm_full_refreshes;
    c->ivm.ivm_fallbacks += res.stats.ivm_fallbacks;
    if (tracer != nullptr) {
      c->traced_ms[op].push_back(ms);
      if (probe) {
        c->plan_total += plan;
        c->stmt_total += ms;
      }
    } else {
      c->ms[op].Add(ms);
    }
  }
}

/// One database instance with its clients: the unit a set-up builds.
struct Instance {
  std::string dir;
  dbspinner::EngineOptions opts;
  std::unique_ptr<Database> db;
  std::unique_ptr<dbspinner::server::SessionManager> manager;
  std::vector<std::unique_ptr<Client>> clients;
  Shared shared;

  void Close() {
    for (auto& c : clients) c->session.reset();
    manager.reset();
    db.reset();
  }
};

/// Runs `rounds` (or until `deadline_ms`) rounds on every client at once.
/// Meanwhile the calling thread samples the database directory's size every
/// 250 ms into `disk_samples` (when non-null): the size swings with the
/// manifest fold and extent collection cycle, so one reading at the end
/// would depend on where in that cycle the run stopped.
void RunClients(Instance* inst, int rounds, double deadline_ms, bool counted,
                Tracer* tracer, std::vector<double>* disk_samples) {
  std::atomic<int> running{static_cast<int>(inst->clients.size())};
  std::vector<std::thread> threads;
  for (auto& cp : inst->clients) {
    Client* c = cp.get();
    threads.emplace_back([inst, c, rounds, deadline_ms, counted, tracer,
                          &running] {
      for (int round = 0;; ++round) {
        if (rounds > 0 ? round >= rounds : NowMs() >= deadline_ms) break;
        // One round in 32 is traced: ~5,000 statements per client per
        // traced run, and a trace file of a few MB.
        Tracer* t = tracer != nullptr && round % 32 == 1 ? tracer : nullptr;
        RunRound(inst->shared, c, counted, t, t != nullptr && c->id == 0);
      }
      c->finished_ms = NowMs();
      --running;
    });
  }
  while (disk_samples != nullptr && running.load() > 0) {
    disk_samples->push_back(static_cast<double>(DirectoryBytes(inst->dir)));
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
  }
  for (std::thread& t : threads) t.join();
}

/// Quiescent check: the view equals its defining query re-executed and
/// every client's shadow aggregate.
void CheckViewQuiescent(Instance* inst, Outcome* out) {
  Result<QueryResult> view =
      inst->db->Execute("SELECT bucket, c, s FROM serve_view");
  Result<QueryResult> body =
      inst->db->Execute(ViewBody(inst->shared.buckets));
  if (!view.ok() || !body.ok()) {
    out->Broken("view or defining query refused: " +
                (view.ok() ? body.status() : view.status()).ToString());
    return;
  }
  std::map<int64_t, std::pair<int64_t, double>> requery;
  for (size_t i = 0; i < body->table->num_rows(); ++i) {
    requery[body->table->GetValue(i, 0).AsInt64()] = {
        body->table->GetValue(i, 1).AsInt64(),
        body->table->GetValue(i, 2).AsDouble()};
  }
  if (view->table->num_rows() != requery.size()) {
    out->Broken("view row count differs from its defining query");
    return;
  }
  for (size_t i = 0; i < view->table->num_rows(); ++i) {
    auto it = requery.find(view->table->GetValue(i, 0).AsInt64());
    if (it == requery.end() ||
        it->second.first != view->table->GetValue(i, 1).AsInt64() ||
        !Near(it->second.second, view->table->GetValue(i, 2).AsDouble())) {
      out->Broken("view differs from its defining query re-executed");
      return;
    }
  }
  for (auto& c : inst->clients) {
    const std::string err =
        CheckBuckets(*view->table, c->shadow, /*all_buckets=*/true);
    if (!err.empty()) out->Broken("quiescent view vs shadow: " + err);
  }
}

/// Fresh clients with their shadows, for a fresh instance.
void MakeClients(const RunConfig& run, const ServeConfig& cfg,
                 const GraphInputs& in, Instance* inst) {
  inst->shared = Shared{nullptr, &in, cfg.clients,
                        kBucketsPerClient * cfg.clients};
  inst->clients.clear();
  for (int i = 0; i < cfg.clients; ++i) {
    auto c = std::make_unique<Client>();
    c->id = i;
    c->rng = Rng(run.seed * 7919 + static_cast<uint64_t>(i));
    InitShadow(inst->shared, c.get());
    if (run.perturb_expected && i == 0) {
      c->shadow.buckets.begin()->second.second += 1.0;
    }
    inst->clients.push_back(std::move(c));
  }
}

/// Creates, loads and warms up the instance in `dir`. Returns false on
/// failure.
bool SetUp(const GraphInputs& in, const std::string& dir, Instance* inst,
           Outcome* out) {
  inst->dir = dir;
  inst->opts.persistence.enabled = true;  // default WAL + fsync at commit
  inst->opts.persistence.path = dir;
  inst->db = std::make_unique<Database>(inst->opts);
  inst->shared.db = inst->db.get();
  std::string error;
  if (!LoadGraph(in, /*with_status=*/false,
                 [&](const std::string& sql) { return inst->db->Execute(sql); },
                 &error)) {
    out->Broken("load: " + error);
    return false;
  }
  Result<QueryResult> v = inst->db->Execute(
      "CREATE MATERIALIZED VIEW serve_view AS " + ViewBody(inst->shared.buckets));
  if (!v.ok()) {
    out->Broken("create view: " + v.status().ToString());
    return false;
  }
  inst->manager =
      std::make_unique<dbspinner::server::SessionManager>(inst->db.get());
  for (auto& c : inst->clients) c->session = inst->manager->CreateSession();
  RunClients(inst, /*rounds=*/1, 0, /*counted=*/false, nullptr, nullptr);
  return true;
}

}  // namespace

Outcome RunServe(const RunConfig& run, const ServeConfig& cfg) {
  Outcome out;
  const GraphInputs in =
      MakeGraphInputs(cfg.scale, run.seed, run.work_dir + "/inputs");

  std::vector<double> setup_ms;
  Instance inst;
  for (int s = 0; s < run.setups; ++s) {
    inst.Close();
    MakeClients(run, cfg, in, &inst);
    const std::string dir = fs::absolute(run.work_dir + "/db").string();
    fs::remove_all(dir);
    const double t0 = NowMs();
    if (!SetUp(in, dir, &inst, &out)) return out;
    setup_ms.push_back(NowMs() - t0);
    CheckViewQuiescent(&inst, &out);
  }

  dbspinner::StorageManager* storage = inst.db->storage_manager();
  const auto storage0 = storage->counters();
  const auto sched0 = inst.manager->scheduler().stats();
  Tracer tracer(run.trace);
  const double start = NowMs();
  // Whole rounds: a client starts a round only before the deadline.
  std::vector<double> disk_samples;
  RunClients(&inst, run.fixed_rounds, start + run.seconds * 1000.0,
             /*counted=*/true, run.trace ? &tracer : nullptr, &disk_samples);
  double measured_ms = 0;
  for (auto& c : inst.clients) {
    measured_ms = std::max(measured_ms, c->finished_ms - start);
  }
  const auto storage1 = storage->counters();
  const auto sched1 = inst.manager->scheduler().stats();
  CheckViewQuiescent(&inst, &out);

  // --- merge the clients ------------------------------------------------------
  LatencyHistogram ms[kNumOps], reads, queue_wait_ms;
  std::vector<double> traced[kNumOps];
  std::vector<double> parse_ms, plan_ms, verify_ms, compile_ms;
  double plan_total = 0, stmt_total = 0;
  int64_t writes = 0, completed = 0, live_rows = 0;
  ExecStats ivm;
  for (auto& c : inst.clients) {
    out.Merge(c->out);
    for (int op = 0; op < kNumOps; ++op) {
      ms[op].Merge(c->ms[op]);
      traced[op].insert(traced[op].end(), c->traced_ms[op].begin(),
                        c->traced_ms[op].end());
    }
    for (Op op : {kPoint, kView}) reads.Merge(c->ms[op]);
    queue_wait_ms.Merge(c->queue_wait_ms);
    parse_ms.insert(parse_ms.end(), c->parse_ms.begin(), c->parse_ms.end());
    plan_ms.insert(plan_ms.end(), c->plan_ms.begin(), c->plan_ms.end());
    verify_ms.insert(verify_ms.end(), c->verify_ms.begin(), c->verify_ms.end());
    compile_ms.insert(compile_ms.end(), c->compile_ms.begin(),
                      c->compile_ms.end());
    plan_total += c->plan_total;
    stmt_total += c->stmt_total;
    writes += c->writes;
    completed += c->completed;
    live_rows += c->shadow.num_rows;
    ivm.ivm_deltas_applied += c->ivm.ivm_deltas_applied;
    ivm.ivm_rows_maintained += c->ivm.ivm_rows_maintained;
    ivm.ivm_full_refreshes += c->ivm.ivm_full_refreshes;
    ivm.ivm_fallbacks += c->ivm.ivm_fallbacks;
  }
  disk_samples.push_back(static_cast<double>(DirectoryBytes(inst.dir)));

  std::vector<double> class_medians, traced_medians;
  for (int op = 0; op < kNumOps; ++op) {
    class_medians.push_back(ms[op].Quantile(0.5));
    traced_medians.push_back(Median(traced[op]));
  }

  out.Add("setup_s", Median(setup_ms) / 1000.0);
  out.Add("class_geomean_ms", Geomean(class_medians));
  out.Add("stmt_per_s", static_cast<double>(completed) / (measured_ms / 1000.0));

  // --- ivm re-read against re-execution (traced runs, quiescent) -------------
  std::vector<double> requery_ms, view_read_ms;
  for (int i = 0; run.trace && i < 20; ++i) {
    double t0 = NowMs();
    const bool requeried = inst.db->Execute(ViewBody(inst.shared.buckets)).ok();
    requery_ms.push_back(NowMs() - t0);
    t0 = NowMs();
    const bool read = inst.db->Execute("SELECT bucket, c, s FROM serve_view").ok();
    view_read_ms.push_back(NowMs() - t0);
    if (!requeried || !read) out.Broken("view re-read probe refused");
  }

  // --- close, reopen, and compare every table with the shadow -----------------
  std::vector<std::tuple<int64_t, int64_t, double>> expected;
  for (auto& c : inst.clients) {
    for (const auto& [src, list] : c->shadow.rows) {
      for (const auto& [dst, w] : list) expected.emplace_back(src, dst, w);
    }
  }
  std::sort(expected.begin(), expected.end());
  const double t_close = NowMs();
  inst.Close();
  inst.db = std::make_unique<Database>(inst.opts);
  Result<QueryResult> count = inst.db->Execute("SELECT COUNT(*) FROM edges");
  const double reopen_ms = NowMs() - t_close;
  Result<QueryResult> all = inst.db->Execute("SELECT src, dst, weight FROM edges");
  if (!count.ok() || !all.ok()) {
    out.Broken("reopen: " +
               (count.ok() ? all.status() : count.status()).ToString());
  } else {
    std::vector<std::tuple<int64_t, int64_t, double>> got;
    for (size_t i = 0; i < all->table->num_rows(); ++i) {
      got.emplace_back(all->table->GetValue(i, 0).AsInt64(),
                       all->table->GetValue(i, 1).AsInt64(),
                       all->table->GetValue(i, 2).AsDouble());
    }
    std::sort(got.begin(), got.end());
    if (got != expected) {
      out.Broken(StringPrintf("after reopen edges has %zu rows, shadow %zu, "
                              "or their contents differ",
                              got.size(), expected.size()));
    }
    Result<QueryResult> view =
        inst.db->Execute("SELECT bucket, c, s FROM serve_view");
    if (!view.ok()) {
      out.Broken("view after reopen: " + view.status().ToString());
    } else {
      for (auto& c : inst.clients) {
        const std::string err =
            CheckBuckets(*view->table, c->shadow, /*all_buckets=*/true);
        if (!err.empty()) out.Broken("view after reopen: " + err);
      }
    }
  }
  inst.db.reset();
  fs::remove_all(inst.dir);
  out.Add("peak_rss_mb", PeakRssMb());

  const double w = std::max<double>(1, static_cast<double>(writes));
  const double bytes =
      static_cast<double>(storage1.bytes_written - storage0.bytes_written);
  out.Add("point_ms", ms[kPoint].Quantile(0.5));
  out.Add("view_ms", ms[kView].Quantile(0.5));
  out.Add("write_ms", ms[kWrite].Quantile(0.5));
  out.Add("read_p99_ms", reads.Quantile(0.99));
  out.Add("disk_bytes_per_data_byte",
          Mean(disk_samples) / (static_cast<double>(live_rows) * kRowBytes));
  out.Add("parser.parse_us", Mean(parse_ms) * 1000.0);
  out.Add("planner.plan_us", Mean(plan_ms) * 1000.0);
  out.Add("verify.verify_us", Mean(verify_ms) * 1000.0);
  out.Add("planner.plan_share", stmt_total > 0 ? plan_total / stmt_total : 0);
  out.Add("exec.compile_us", Mean(compile_ms) * 1000.0);
  out.Add("storage.bytes_written_per_write", bytes / w);
  out.Add("storage.write_amp", bytes / (w * kRowBytes));
  out.Add("storage.wal_appends_per_write",
          static_cast<double>(storage1.wal_appends - storage0.wal_appends) / w);
  out.Add("storage.manifests_written",
          static_cast<double>(storage1.manifests_written -
                              storage0.manifests_written) / w);
  out.Add("storage.compression_ratio",
          bytes > 0 ? static_cast<double>(storage1.raw_bytes_encoded -
                                          storage0.raw_bytes_encoded) /
                          bytes
                    : 0);
  out.Add("storage.reopen_ms", reopen_ms);
  out.Add("ivm.rows_maintained_per_write",
          static_cast<double>(ivm.ivm_rows_maintained) / w);
  out.Add("ivm.deltas_applied",
          static_cast<double>(ivm.ivm_deltas_applied) / w);
  out.Add("ivm.full_refreshes", static_cast<double>(ivm.ivm_full_refreshes));
  out.Add("ivm.fallbacks", static_cast<double>(ivm.ivm_fallbacks));
  out.Add("ivm.requery_ms", Median(requery_ms));
  out.Add("ivm.view_read_ms", Median(view_read_ms));
  out.Add("ivm.reread_speedup",
          Median(view_read_ms) > 0 ? Median(requery_ms) / Median(view_read_ms)
                                   : 0);
  out.Add("server.queue_wait_us", queue_wait_ms.Quantile(0.5) * 1000.0);
  const double admitted = static_cast<double>(sched1.admitted - sched0.admitted);
  out.Add("server.queued_share",
          admitted > 0
              ? static_cast<double>(sched1.queued - sched0.queued) / admitted
              : 0);
  out.Add("trace.overhead_pct", OverheadPct(traced_medians, class_medians));
  out.Add("trace.spans", static_cast<double>(tracer.size()));
  if (run.trace && !run.trace_path.empty()) tracer.WriteJson(run.trace_path);
  return out;
}

}  // namespace perfbench

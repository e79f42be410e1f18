#include <cstdio>

#include "bench.h"

namespace perfbench {

int64_t Tracer::NextStatementId() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_stmt_++;
}

int64_t Tracer::Begin(const std::string& name, int64_t parent, int64_t stmt) {
  if (!enabled_) return -1;
  const double now = NowMs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, now, now, parent, stmt});
  return static_cast<int64_t>(spans_.size()) - 1;
}

double Tracer::End(int64_t id) {
  if (!enabled_ || id < 0) return 0;
  const double now = NowMs();
  std::lock_guard<std::mutex> lock(mu_);
  Span& s = spans_[static_cast<size_t>(id)];
  s.end_ms = now;
  return s.end_ms - s.start_ms;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::map<std::string, Tracer::Rollup> Tracer::RollUp() const {
  std::lock_guard<std::mutex> lock(mu_);
  // Children of one parent never overlap (each is a call made in sequence
  // by the parent's thread), so the time they cover is their summed length.
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ms[static_cast<size_t>(s.parent)] += s.end_ms - s.start_ms;
    }
  }
  std::map<std::string, Rollup> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    Rollup& r = out[s.name];
    ++r.count;
    r.total_ms += s.end_ms - s.start_ms;
    r.self_ms += s.end_ms - s.start_ms - child_ms[i];
  }
  return out;
}

bool Tracer::WriteJson(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::map<std::string, Rollup> rollup = RollUp();
  std::lock_guard<std::mutex> lock(mu_);
  const double origin = spans_.empty() ? 0 : spans_.front().start_ms;
  std::fprintf(f, "{\"spans\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "  {\"id\": %zu, \"name\": \"%s\", \"start_us\": %.1f, "
                 "\"end_us\": %.1f, \"parent\": %lld, \"stmt\": %lld}%s\n",
                 i, s.name.c_str(), (s.start_ms - origin) * 1000.0,
                 (s.end_ms - origin) * 1000.0,
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.stmt),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "],\n\"rollup\": {\n");
  size_t n = 0;
  for (const auto& [name, r] : rollup) {
    std::fprintf(f,
                 "  \"%s\": {\"count\": %lld, \"total_ms\": %.4f, "
                 "\"self_ms\": %.4f}%s\n",
                 name.c_str(), static_cast<long long>(r.count), r.total_ms,
                 r.self_ms, ++n < rollup.size() ? "," : "");
  }
  std::fprintf(f, "}}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench

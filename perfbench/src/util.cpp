#include "util.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <numeric>
#include <sstream>
#include <thread>

#include "report/bench_meta.h"

namespace perfbench {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

double self_peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double pid_peak_rss_mb(int pid) {
  std::ifstream f("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB
    }
  }
  return 0.0;
}

double time_us(const std::function<void()>& fn, int iters, int reps,
               const std::function<void()>& setup) {
  for (int i = 0; i < std::max(1, iters / 4); ++i) {
    if (setup) setup();
    fn();
  }
  std::vector<double> batch_us;
  for (int r = 0; r < reps; ++r) {
    double total_ns = 0.0;
    for (int i = 0; i < iters; ++i) {
      if (setup) setup();
      const std::int64_t t0 = now_ns();
      fn();
      total_ns += static_cast<double>(now_ns() - t0);
    }
    batch_us.push_back(total_ns / 1000.0 / iters);
  }
  return median(batch_us);
}

void Result::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, {value, unit}});
}

void Result::check(const std::string& what, long long attempted,
                   long long failed) {
  attempted_ += attempted;
  failed_ += failed;
  std::fprintf(stderr, "perfbench: check %-34s sent %6lld  ok %6lld  failed %lld\n",
               what.c_str(), attempted, attempted - failed, failed);
}

void Result::print() const {
  std::fprintf(stderr, "perfbench: %-36s %16s  %s\n", "metric", "value",
               "unit");
  for (const auto& [name, vu] : metrics_) {
    std::fprintf(stderr, "perfbench: %-36s %16.6g  %s\n", name.c_str(),
                 vu.first, vu.second.c_str());
  }
  std::fprintf(stderr, "perfbench: failed_frac %.6g (%lld of %lld)\n",
               attempted_ > 0 ? static_cast<double>(failed_) /
                                    static_cast<double>(attempted_)
                              : 0.0,
               failed_, attempted_);
  std::ostringstream os;
  os.precision(10);
  os << "{\"correct\": " << (correct() ? "true" : "false")
     << ", \"attempted\": " << std::max(1LL, attempted_)
     << ", \"failed\": " << failed_ << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const auto& [name, vu] = metrics_[i];
    const double v = std::isfinite(vu.first) ? vu.first : 0.0;
    os << (i ? ", " : "") << "\"" << name << "\": {\"value\": " << v
       << ", \"unit\": \"" << vu.second << "\"}";
  }
  os << "}}";
  std::printf("%s\n", os.str().c_str());
  std::fflush(stdout);
}

int Tracer::open(const char* name, std::int64_t id) {
  const int parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back({name, id, now_ns(), 0, parent});
  const int idx = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(idx);
  return idx;
}

void Tracer::close(int span) {
  if (span < 0) return;
  spans_[static_cast<std::size_t>(span)].end_ns = now_ns();
  if (!stack_.empty() && stack_.back() == span) stack_.pop_back();
}

std::map<std::string, double> Tracer::self_ms_by_module() const {
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const auto& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    const std::string name(s.name);
    const std::string module = name.substr(0, name.find('.'));
    out[module] +=
        (static_cast<double>(s.end_ns - s.start_ns) - child_ns[i]) / 1e6;
  }
  return out;
}

void Tracer::write_json(const std::string& path) const {
  std::ofstream f(path);
  f << "{\"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    f << (i ? ",\n" : "\n") << "{\"name\": \"" << s.name
      << "\", \"id\": " << s.id << ", \"start_ns\": " << s.start_ns
      << ", \"end_ns\": " << s.end_ns << ", \"parent\": " << s.parent << "}";
  }
  f << "\n]}\n";
}

void emit_latency(Result& r, const std::vector<double>& latency_ms,
                  const std::vector<double>& tpot_ms, const std::string& rung) {
  r.metric("latency_p50_ms." + rung, percentile(latency_ms, 0.50), "ms");
  if (rung == "lo") {
    r.metric("latency_p99_ms." + rung, percentile(latency_ms, 0.99), "ms");
  }
  r.metric("tpot_p50_ms." + rung, percentile(tpot_ms, 0.50), "ms");
  std::fprintf(stderr,
               "perfbench: %s: %zu samples, latency p99 %.4f ms, tpot p99 %.4f ms "
               "(not gated)\n",
               rung.c_str(), latency_ms.size(), percentile(latency_ms, 0.99),
               percentile(tpot_ms, 0.99));
}

void report_modules(const Tracer& t, double parts_ratio, const char* what) {
  std::fprintf(stderr, "perfbench: traced run, %zu spans; self time by module:\n",
               t.size());
  for (const auto& [module, ms] : t.self_ms_by_module()) {
    std::fprintf(stderr, "perfbench:   %-10s %10.1f ms\n", module.c_str(), ms);
  }
  const bool ok = std::fabs(parts_ratio - 1.0) <= kPartsTolerance;
  std::fprintf(stderr,
               "perfbench: parts-sum: predicted / measured %s = %.3f "
               "(tolerance +-%.0f%%): %s\n",
               what, parts_ratio, 100.0 * kPartsTolerance,
               ok ? "accounted" : "NOT accounted");
}

std::string provenance_json(const Options& o, double wall_sec,
                            const std::string& extra) {
  const char* omp = std::getenv("OMP_NUM_THREADS");
  std::ostringstream os;
  os << "{\"meta\": " << llmfi::report::bench_metadata(wall_sec).json()
     << ", \"workload\": \"" << o.workload << "\", \"seed\": " << o.seed
     << ", \"seconds\": " << o.seconds << ", \"trace\": " << o.trace
     << ", \"nproc\": " << std::thread::hardware_concurrency()
     << ", \"omp_num_threads\": \"" << (omp ? omp : "unset") << "\""
     << ", \"model\": \"qilin\", \"dtype\": \"bf16\", \"tp\": 1";
  if (!extra.empty()) os << ", " << extra;
  os << "}";
  return os.str();
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t purpose) {
  // splitmix64 of the pair: nearby seeds give unrelated streams.
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + purpose + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace perfbench

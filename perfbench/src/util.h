#pragma once
// Shared plumbing of the benchmark program: clocks, order statistics, the
// result line, the in-memory span recorder of traced runs, and the
// per-run options every workload reads.

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0);
std::int64_t now_ns();

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string cache_dir;  // qilin checkpoint cache (prepared by run.py)
  std::string out_dir;    // trace/provenance output (inside the checkout)
  std::string bin_dir;    // directory of this binary (llmfi_serve lives here)
};

// Nearest-rank percentile (q in [0,1]); 0 for an empty sample.
double percentile(std::vector<double> v, double q);
double median(std::vector<double> v);
double mean(const std::vector<double>& v);

// Peak resident set of this process / of another live process, in MB.
double self_peak_rss_mb();
double pid_peak_rss_mb(int pid);

// Median per-call time in µs of `fn`: warms up, then times `reps` batches
// of `iters` calls each and takes the median batch mean, so one host
// stall cannot move the figure. `setup` (untimed) runs before each call.
double time_us(const std::function<void()>& fn, int iters, int reps = 9,
               const std::function<void()>& setup = nullptr);

// The result line and human-readable report.
class Result {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  void check(const std::string& what, long long attempted, long long failed);
  bool correct() const { return failed_ == 0; }
  // Prints the metric table to stderr and the JSON result line to stdout.
  void print() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  long long attempted_ = 0;
  long long failed_ = 0;
};

// Span recorder for traced runs: spans live in memory and are written
// once at exit. Spans are recorded from the benchmark's own files around
// each call into a layer; a span's module is its name up to the first
// '.', and its self time is its duration minus the time its child spans
// cover. Single-threaded: traced runs are sequential.
class Tracer {
 public:
  // Opens a span and returns its index; the innermost
  // open span is its parent. `id` groups the spans of one trial/request.
  int open(const char* name, std::int64_t id);
  void close(int span);
  // Self time per module, in ms.
  std::map<std::string, double> self_ms_by_module() const;
  std::size_t size() const { return spans_.size(); }
  void write_json(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::int64_t id;
    std::int64_t start_ns;
    std::int64_t end_ns;
    int parent;
  };
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// RAII span.
class SpanScope {
 public:
  SpanScope(Tracer& t, const char* name, std::int64_t id = 0)
      : t_(t), span_(t.open(name, id)) {}
  ~SpanScope() { t_.close(span_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer& t_;
  int span_;
};

// Emits the gated latency metrics of one rung ("lo" or "hi"):
// latency_p50_ms, tpot_p50_ms and, at lo, latency_p99_ms. The tails that
// swing by 25-80% between runs on a small VM (latency p99 at hi, tpot
// p99) are printed on stderr only.
void emit_latency(Result& r, const std::vector<double>& latency_ms,
                  const std::vector<double>& tpot_ms, const std::string& rung);

// Parts-sum tolerance: the layer figures times the per-operation counts
// must land within this share of the untraced end-to-end figure.
constexpr double kPartsTolerance = 0.35;

// Prints self time per module and the parts-sum verdict to stderr.
void report_modules(const Tracer& t, double parts_ratio, const char* what);

// Provenance stamp: report::bench_metadata plus host facts and the run's
// own knobs, as one JSON object.
std::string provenance_json(const Options& o, double wall_sec,
                            const std::string& extra);

// Splits a seed into independent per-purpose streams.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t purpose);

}  // namespace perfbench

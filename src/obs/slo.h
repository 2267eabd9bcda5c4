#pragma once
// Sliding-window SLO monitor (DESIGN.md §16): tracks TTFT and
// inter-token-gap attainment over 1s / 10s / 60s windows and derives
// multi-window burn rates the way an SRE alert would:
//
//   burn_rate = (1 - attainment) / (1 - objective)
//
// so 1.0 means the error budget is being consumed exactly at the rate
// the objective allows, >1 means faster (a 14x burn on the 1s window
// plus >1x on the 60s window is the classic page condition). Windows
// are rings of per-second buckets: record() folds a sample into the
// bucket for its wall second, snapshot() sums the buckets that fall
// inside each window. An empty window reports attainment 1.0 / burn
// 0.0 (no traffic consumes no budget).
//
// The serve layer records samples from the engine thread inside blocks
// already gated on metrics_enabled(); the monitor itself has an
// `enabled` latch so campaign runs (which share the global registry)
// never see SLO gauges unless a server armed them. Each bucket is ONE
// atomic word packing (tag, total, good), updated by a CAS loop — see
// SloMonitor::record for why that makes concurrent recording and
// snapshotting exact.

#include <atomic>
#include <cstdint>
#include <string>

namespace llmfi::obs {

struct SloConfig {
  double ttft_slo_ms = 500.0;
  double token_gap_slo_ms = 250.0;
  double objective = 0.99;  // target attainment fraction in [0, 1)
};

struct SloWindow {
  double attainment = 1.0;
  double burn_rate = 0.0;
  std::uint64_t total = 0;
};

struct SloSnapshot {
  SloWindow ttft_1s, ttft_10s, ttft_60s;
  SloWindow gap_1s, gap_10s, gap_60s;
};

class SloMonitor {
 public:
  static constexpr int kBuckets = 64;  // > largest window (60s)

  void configure(const SloConfig& cfg);
  const SloConfig& config() const { return cfg_; }
  void enable() { enabled_.store(true, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // `now_us` is a steady-clock microsecond stamp (the caller already
  // holds one at every record site).
  void record_ttft(std::uint64_t now_us, double ttft_ms);
  void record_gap(std::uint64_t now_us, double gap_ms);

  SloSnapshot snapshot(std::uint64_t now_us) const;

  // Publishes slo_* gauges (attainment, burn rate per window, objective,
  // SLO thresholds) into the global metrics registry. Called by the
  // /metrics handler so scrapes see fresh windows.
  void publish(std::uint64_t now_us);

  // Drops all buckets (tests).
  void reset();

  static SloMonitor& global();

 private:
  // One packed (tag, total, good) word per wall second; layout in
  // slo.cpp.
  struct Series {
    std::atomic<std::uint64_t> b[kBuckets] = {};
  };

  void record(Series& s, std::uint64_t now_us, bool good);
  static SloWindow window(const Series& s, std::uint64_t now_sec, int width,
                          double objective);

  SloConfig cfg_;
  std::atomic<bool> enabled_{false};
  Series ttft_;
  Series gap_;
};

}  // namespace llmfi::obs

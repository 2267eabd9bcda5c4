#include "obs/slo.h"

#include <algorithm>

#include "obs/metrics.h"

namespace llmfi::obs {

namespace {

// A bucket word packs, from the top: a 22-bit tag naming the wall
// second the bucket holds (sec / kBuckets — tag and slot index together
// name the second; the tag wraps after ~8.5 years), then the `total`
// and `good` sample counts in 21 bits each. Counts saturate at kCountMax
// samples per second per series.
struct BucketWord {
  std::uint64_t tag, total, good;
};

constexpr int kCountBits = 21;
constexpr std::uint64_t kCountMax = (1ull << kCountBits) - 1;
constexpr std::uint64_t kTagMask = (1ull << (64 - 2 * kCountBits)) - 1;

std::uint64_t tag_of(std::uint64_t sec) {
  return (sec / SloMonitor::kBuckets) & kTagMask;
}

BucketWord unpack(std::uint64_t w) {
  return {w >> (2 * kCountBits), (w >> kCountBits) & kCountMax,
          w & kCountMax};
}

std::uint64_t pack(const BucketWord& b) {
  return (b.tag << (2 * kCountBits)) | (b.total << kCountBits) | b.good;
}

}  // namespace

void SloMonitor::configure(const SloConfig& cfg) { cfg_ = cfg; }

void SloMonitor::record(Series& s, std::uint64_t now_us, bool good) {
  const std::uint64_t sec = now_us / 1000000u;
  const std::uint64_t tag = tag_of(sec);
  std::atomic<std::uint64_t>& slot = s.b[sec % kBuckets];
  // Recycling a stale bucket and counting the sample are one CAS on one
  // word, so:
  //  - no sample is lost: a recorder whose CAS fails re-reads the word
  //    (now holding the other recorder's recycle and sample) and retries
  //    on top of it, instead of zeroing counts already added;
  //  - every word ever stored has good <= total (both start at 0 and
  //    `good` only grows together with `total`), and a snapshot reads
  //    each bucket with one load, so attainment never exceeds 1.
  std::uint64_t cur = slot.load(std::memory_order_relaxed);
  for (;;) {
    BucketWord w = unpack(cur);
    if (w.tag != tag) w = {tag, 0, 0};
    if (w.total < kCountMax) {
      ++w.total;
      if (good) ++w.good;
    }
    if (slot.compare_exchange_weak(cur, pack(w), std::memory_order_relaxed)) {
      return;
    }
  }
}

void SloMonitor::record_ttft(std::uint64_t now_us, double ttft_ms) {
  record(ttft_, now_us, ttft_ms <= cfg_.ttft_slo_ms);
}

void SloMonitor::record_gap(std::uint64_t now_us, double gap_ms) {
  record(gap_, now_us, gap_ms <= cfg_.token_gap_slo_ms);
}

SloWindow SloMonitor::window(const Series& s, std::uint64_t now_sec,
                             int width, double objective) {
  std::uint64_t total = 0;
  std::uint64_t good = 0;
  for (int i = 0; i < width; ++i) {
    if (now_sec < static_cast<std::uint64_t>(i)) break;
    const std::uint64_t sec = now_sec - static_cast<std::uint64_t>(i);
    const BucketWord b =
        unpack(s.b[sec % kBuckets].load(std::memory_order_relaxed));
    if (b.tag != tag_of(sec)) continue;
    total += b.total;
    good += b.good;
  }
  SloWindow w;
  w.total = total;
  w.attainment = total > 0
                     ? static_cast<double>(good) / static_cast<double>(total)
                     : 1.0;
  const double budget = 1.0 - objective;
  w.burn_rate = budget > 0.0 ? (1.0 - w.attainment) / budget : 0.0;
  return w;
}

SloSnapshot SloMonitor::snapshot(std::uint64_t now_us) const {
  const std::uint64_t sec = now_us / 1000000u;
  SloSnapshot snap;
  snap.ttft_1s = window(ttft_, sec, 1, cfg_.objective);
  snap.ttft_10s = window(ttft_, sec, 10, cfg_.objective);
  snap.ttft_60s = window(ttft_, sec, 60, cfg_.objective);
  snap.gap_1s = window(gap_, sec, 1, cfg_.objective);
  snap.gap_10s = window(gap_, sec, 10, cfg_.objective);
  snap.gap_60s = window(gap_, sec, 60, cfg_.objective);
  return snap;
}

void SloMonitor::publish(std::uint64_t now_us) {
  if (!enabled()) return;
  const SloSnapshot snap = snapshot(now_us);
  auto& reg = Registry::global();
  const auto set = [&reg](const char* slo, const char* win,
                          const SloWindow& w) {
    const std::string tail = std::string("{slo=\"") + slo + "\",window=\"" +
                             win + "\"}";
    reg.gauge("slo_attainment" + tail).set(w.attainment);
    reg.gauge("slo_burn_rate" + tail).set(w.burn_rate);
  };
  set("ttft", "1s", snap.ttft_1s);
  set("ttft", "10s", snap.ttft_10s);
  set("ttft", "60s", snap.ttft_60s);
  set("token_gap", "1s", snap.gap_1s);
  set("token_gap", "10s", snap.gap_10s);
  set("token_gap", "60s", snap.gap_60s);
  reg.gauge("slo_objective").set(cfg_.objective);
  reg.gauge("slo_ttft_ms").set(cfg_.ttft_slo_ms);
  reg.gauge("slo_token_gap_ms").set(cfg_.token_gap_slo_ms);
}

void SloMonitor::reset() {
  for (Series* s : {&ttft_, &gap_}) {
    for (auto& b : s->b) b.store(0, std::memory_order_relaxed);
  }
}

SloMonitor& SloMonitor::global() {
  static SloMonitor m;
  return m;
}

}  // namespace llmfi::obs

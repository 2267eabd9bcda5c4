// Campaign workloads: eval::run_campaign_on, the paper's fault-injection
// loop, on qilin / gsm8k-syn CoT with 8 inputs.
//   campaign-comp       1bit-comp; prefix fork, batch 4, 2 threads, paged KV
//   campaign-mem-detect 2bits-mem; checksum detector + recovery, 2 threads,
//                       contiguous KV (fork and batching fall back)

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "core/detector.h"
#include "eval/campaign.h"
#include "eval/model_zoo.h"
#include "eval/runner.h"
#include "gen/generate.h"
#include "layers.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace eval = llmfi::eval;
namespace core = llmfi::core;
namespace model = llmfi::model;

constexpr int kInputs = 8;
constexpr int kThreads = 2;
constexpr int kSetupReps = 5;
constexpr double kSliceS = 0.5;  // latency-loop slice per round

struct CampaignKind {
  core::FaultModel fault;
  int kv_pages;     // 0 = contiguous KV
  bool detect;      // checksum detector + recovery
  int chunk_trials; // trials per timed campaign (about 1 s each)
};

CampaignKind kind_of(const std::string& workload) {
  if (workload == "campaign-comp") {
    return {core::FaultModel::Comp1Bit, 1024, false, 1500};
  }
  return {core::FaultModel::Mem2Bit, 0, true, 400};
}

eval::CampaignConfig config_for(const CampaignKind& k, int trials,
                                std::uint64_t seed) {
  eval::CampaignConfig cfg;
  cfg.fault = k.fault;
  cfg.trials = trials;
  cfg.n_inputs = kInputs;
  cfg.seed = seed;
  cfg.threads = kThreads;
  cfg.batch = 4;
  cfg.prefix_fork = true;
  cfg.kv_pages = k.kv_pages;
  cfg.detection.checksum = k.detect;
  cfg.detection.recover = k.detect;
  cfg.keep_trial_records = true;
  return cfg;
}

// Everything setup_s covers, built in the order a campaign process
// builds it: dataset, checkpoint load, engine, worker replicas, then
// run_campaign_on with no trials (baselines, snapshots, detector
// profiles).
struct Setup {
  std::unique_ptr<eval::Zoo> zoo;
  std::vector<llmfi::data::Example> eval_set;
  std::unique_ptr<model::InferenceModel> engine;
  std::vector<model::InferenceModel> replicas;
  double total_s = 0.0;
};

Setup build_setup(const Options& o, const CampaignKind& k) {
  const auto t0 = Clock::now();
  Setup s;
  s.zoo = std::make_unique<eval::Zoo>(o.cache_dir);
  const auto& task = s.zoo->task(llmfi::data::TaskKind::MathGsm);
  s.eval_set.assign(task.eval.begin(), task.eval.begin() + kInputs);
  s.engine = std::make_unique<model::InferenceModel>(
      s.zoo->get("qilin"),
      model::PrecisionConfig::for_dtype(llmfi::num::DType::BF16));
  for (int w = 1; w < kThreads; ++w) s.replicas.push_back(s.engine->clone());
  eval::run_campaign_on(*s.engine, s.zoo->vocab(), s.eval_set,
                        eval::workload(llmfi::data::TaskKind::MathGsm),
                        config_for(k, 0, 1));
  s.total_s = seconds_since(t0);
  return s;
}

// The fast-path inputs eval::run_trial takes, built from public calls:
// baselines (capturing prefix snapshots on the page pool when forking
// applies) and detector profiles. `oracle` builds the sequential no-fork
// reference instead: no snapshots, no pool.
struct TrialInputs {
  std::shared_ptr<llmfi::nn::PagePool> pool;
  std::vector<eval::ExampleResult> baselines;
  std::vector<llmfi::gen::PrefixSnapshot> snapshots;
  std::optional<eval::DetectionContext> detect;

  const std::vector<llmfi::gen::PrefixSnapshot>* snaps() const {
    return snapshots.empty() ? nullptr : &snapshots;
  }
  const eval::DetectionContext* det() const {
    return detect ? &*detect : nullptr;
  }
};

TrialInputs trial_inputs(model::InferenceModel& engine, const Setup& s,
                         const CampaignKind& k, bool oracle,
                         const eval::DetectionContext* shared_detect) {
  const auto& spec = eval::workload(llmfi::data::TaskKind::MathGsm);
  TrialInputs in;
  const bool fork = !oracle && !core::is_memory_fault(k.fault) && !k.detect;
  if (!oracle && k.kv_pages > 0) {
    // 1024 pages hold the 8 snapshots plus a trial cache per worker with
    // room to spare (30 pages a sequence at most); exhaustion would throw.
    in.pool = std::make_shared<llmfi::nn::PagePool>(
        k.kv_pages, llmfi::nn::PagePool::kDefaultPageRows,
        engine.config().d_model);
  }
  if (fork) in.snapshots.resize(kInputs);
  for (int i = 0; i < kInputs; ++i) {
    eval::RunOptions run;
    run.gen.kv_pool = in.pool;
    if (fork) run.capture = &in.snapshots[static_cast<std::size_t>(i)];
    in.baselines.push_back(eval::run_example(
        engine, s.zoo->vocab(), spec, s.eval_set[static_cast<std::size_t>(i)],
        run));
  }
  if (k.detect) {
    if (shared_detect != nullptr) {
      in.detect = *shared_detect;
    } else {
      std::vector<std::string> prompts;
      for (const auto& ex : s.eval_set) prompts.push_back(ex.prompt);
      in.detect.emplace();
      in.detect->checksum =
          core::profile_checksums(engine, s.zoo->vocab(), prompts, 4.0f);
    }
  }
  return in;
}

struct TrialSample {
  double ms = 0.0;
  int executed = 0;  // forward passes actually run (fork-skipped excluded)
  int passes = 0;
  int skipped = 0;
  int recovery = 0;
};

bool same_outcome(const eval::TrialRecord& rec, const eval::TrialOutcome& o,
                  const std::string& metric) {
  const auto it = o.metrics.find(metric);
  const double m = it == o.metrics.end() ? 0.0 : it->second;
  return rec.outcome == o.outcome && rec.correct == o.correct &&
         rec.output_matches_baseline == o.output_matches_baseline &&
         rec.detections == o.detections &&
         rec.recovery_passes == o.recovery_passes && rec.output == o.output &&
         rec.primary_metric == m;
}

bool same_outcome(const eval::TrialOutcome& a, const eval::TrialOutcome& b) {
  return a.outcome == b.outcome && a.correct == b.correct &&
         a.output_matches_baseline == b.output_matches_baseline &&
         a.detections == b.detections &&
         a.recovery_passes == b.recovery_passes && a.output == b.output &&
         a.metrics == b.metrics && a.passes == b.passes;
}

// Trials of one latency loop, accumulated over its time slices; trial
// indices continue from slice to slice.
struct LoopResult {
  std::vector<TrialSample> samples;
  int next_trial = 0;
  long long checked = 0;
  long long failed = 0;
};

// Runs one slice of a latency loop: one worker per engine (1 = one trial
// in flight), each calling eval::run_trial on the workload's fast path
// until `budget_s` runs out. Every `check_every`-th trial is re-run on
// the oracle path and compared; mismatches are counted in `failed`.
void trial_loop(const std::vector<model::InferenceModel*>& engines,
                const Setup& s, const eval::CampaignConfig& cfg,
                const TrialInputs& fast, const TrialInputs& oracle,
                double budget_s, int check_every, Tracer* tracer,
                LoopResult& out) {
  const auto& spec = eval::workload(llmfi::data::TaskKind::MathGsm);
  const llmfi::num::Rng rng(cfg.seed);
  std::atomic<int> next{out.next_trial};
  std::mutex mu;
  const auto t0 = Clock::now();
  auto worker = [&](model::InferenceModel& eng) {
    std::vector<TrialSample> mine;
    long long checked = 0, failed = 0;
    while (seconds_since(t0) < budget_s) {
      const int t = next.fetch_add(1);
      const int span = tracer ? tracer->open("eval.trial", t) : -1;
      const std::int64_t a = now_ns();
      const auto o = eval::run_trial(eng, s.zoo->vocab(), s.eval_set,
                                     fast.baselines, spec, cfg, rng, t,
                                     fast.det(), fast.snaps(), fast.pool);
      const double ms = static_cast<double>(now_ns() - a) / 1e6;
      if (tracer) tracer->close(span);
      mine.push_back({ms, o.passes - o.skipped_passes, o.passes,
                      o.skipped_passes, o.recovery_passes});
      if (check_every > 0 && t % check_every == 0) {
        ++checked;
        const auto ref = eval::run_trial(eng, s.zoo->vocab(), s.eval_set,
                                         oracle.baselines, spec, cfg, rng, t,
                                         oracle.det());
        if (!same_outcome(o, ref)) ++failed;
      }
    }
    std::lock_guard<std::mutex> lock(mu);
    out.samples.insert(out.samples.end(), mine.begin(), mine.end());
    out.checked += checked;
    out.failed += failed;
  };
  std::vector<std::thread> pool;
  for (std::size_t w = 1; w < engines.size(); ++w) {
    pool.emplace_back([&worker, &engines, w] { worker(*engines[w]); });
  }
  worker(*engines[0]);
  for (auto& th : pool) th.join();
  out.next_trial = next.load();
}

void latency_metrics(Result& r, const LoopResult& loop, const char* rung) {
  std::vector<double> ms, per_pass;
  for (const auto& s : loop.samples) {
    ms.push_back(s.ms);
    per_pass.push_back(s.ms / std::max(1, s.executed));
  }
  emit_latency(r, ms, per_pass, rung);
}

}  // namespace

int run_campaign(const Options& o, Result& r, std::string& provenance) {
  const auto t_run = Clock::now();
  const CampaignKind k = kind_of(o.workload);
  const auto& spec = eval::workload(llmfi::data::TaskKind::MathGsm);
  const std::string metric = spec.metrics.front().name;

  // --- setup_s: repeated, median ------------------------------------------
  std::vector<double> setup_s;
  Setup s;
  for (int i = 0; i < (o.trace ? 1 : kSetupReps); ++i) {
    s = build_setup(o, k);
    setup_s.push_back(s.total_s);
  }
  auto& engine = *s.engine;
  std::vector<model::InferenceModel*> engines = {&engine};
  for (auto& rep : s.replicas) engines.push_back(&rep);

  const TrialInputs oracle = trial_inputs(engine, s, k, true, nullptr);
  const TrialInputs fast =
      trial_inputs(engine, s, k, false, oracle.det());

  // Warm-up: one short campaign and a few trials on every path.
  eval::run_campaign_on(engine, s.zoo->vocab(), s.eval_set, spec,
                        config_for(k, k.chunk_trials / 4, derive_seed(o.seed, 1)));
  LoopResult warm;
  trial_loop(engines, s, config_for(k, 0, derive_seed(o.seed, 2)), fast,
             oracle, 0.2, 0, nullptr, warm);

  if (o.trace) {
    Tracer tracer;
    LayerInputs li;
    li.engine = &engine;
    li.vocab = &s.zoo->vocab();
    for (const auto& ex : s.eval_set) {
      li.prompts.push_back(eval::build_prompt(s.zoo->vocab(), ex, false));
      li.texts.push_back(ex.prompt);
    }
    li.fault = k.fault;
    li.pool = fast.pool;
    li.max_new_tokens = 40;
    // Median fork prefix: cache rows before the sampled injection pass.
    {
      std::vector<double> prefix;
      llmfi::num::Rng rng(derive_seed(o.seed, 3));
      for (int t = 0; t < 256; ++t) {
        const auto& base = oracle.baselines[static_cast<std::size_t>(t % kInputs)];
        core::SamplerScope scope;
        scope.max_passes = std::max(1, base.passes);
        const auto plan = core::sample_fault(core::FaultModel::Comp1Bit,
                                             engine, scope, rng);
        const auto& p = li.prompts[static_cast<std::size_t>(t % kInputs)];
        prefix.push_back(static_cast<double>(p.size()) + plan.pass_index - 1);
      }
      li.fork_prefix = static_cast<int>(median(prefix));
    }
    Figures f = measure_layers(li, tracer);

    {
      SpanScope span(tracer, "eval.baselines");
      const auto t0 = Clock::now();
      trial_inputs(engine, s, k, false, oracle.det());
      f["eval.baseline_s"] = seconds_since(t0);
    }
    {
      SpanScope span(tracer, "eval.campaign");
      const auto res = eval::run_campaign_on(
          engine, s.zoo->vocab(), s.eval_set, spec,
          config_for(k, k.chunk_trials / 2, derive_seed(o.seed, 4)));
      f["eval.batch_occupancy"] = res.serve_stats.mean_batch_occupancy();
    }
    // The same sequential trials untraced and traced, in alternating
    // slices so host drift weighs on both alike; the difference of their
    // mean trial times is the tracing overhead.
    const auto loop_cfg = config_for(k, 0, derive_seed(o.seed, 5));
    LoopResult plain, traced;
    for (int slice = 0; slice < 8; ++slice) {
      const double slice_s = std::max(0.1, o.seconds / 32.0);
      trial_loop({&engine}, s, loop_cfg, fast, oracle, slice_s, 0, nullptr, plain);
      trial_loop({&engine}, s, loop_cfg, fast, oracle, slice_s, 97, &tracer, traced);
    }
    std::vector<double> us;
    double executed = 0, passes = 0, skipped = 0, recovery = 0, prefills = 0,
           forks = 0;
    for (const auto& t : traced.samples) {
      us.push_back(1000.0 * t.ms);
      executed += t.executed;
      passes += t.passes;
      skipped += t.skipped;
      recovery += t.recovery;
      forks += t.skipped > 0;
      prefills += (t.skipped == 0) + (t.recovery > 0);
    }
    const double n = static_cast<double>(std::max<std::size_t>(1, traced.samples.size()));
    std::vector<double> plain_us;
    for (const auto& t : plain.samples) plain_us.push_back(1000.0 * t.ms);
    f["eval.trial_us.p50"] = percentile(us, 0.50);
    f["eval.trial_us.p99"] = percentile(us, 0.99);
    f["eval.executed_passes_per_trial"] = executed / n;
    f["eval.fork_skip_frac"] = passes > 0 ? skipped / passes : 0.0;
    f["eval.recovery_pass_frac"] = passes > 0 ? recovery / passes : 0.0;
    f["trace.overhead_frac"] = median(us) / median(plain_us) - 1.0;

    // Parts-sum: per-trial cost predicted from the layer figures and the
    // per-trial counts, against the untraced mean trial time.
    const double hook = k.detect ? f["core.hook_us.checksum"]
                                 : f["core.hook_us.injector"];
    const double predicted =
        f["core.sample_fault_us"] +
        (core::is_memory_fault(k.fault) ? f["core.weight_corruption_us"] : 0.0) +
        forks / n * f["nn.kv_fork_us"] + prefills / n * f["model.prefill_us"] +
        (executed - prefills) / n * f["model.decode_us"] +
        executed / n * std::max(0.0, hook);
    f["trace.parts_sum_ratio"] = predicted / mean(plain_us);
    report_modules(tracer, f["trace.parts_sum_ratio"], "mean sequential trial time");
    emit_per_layer(r, f);
    r.check("traced loop trials", static_cast<long long>(traced.samples.size()),
            traced.failed);
    tracer.write_json(o.out_dir + "/perfbench-trace-" + o.workload + ".json");
  } else {
    // Rounds of one timed campaign (throughput) and one slice each of the
    // 1-worker (lo) and 2-worker (hi) latency loops, repeated until the
    // budget is spent, so host drift during the run weighs on every
    // metric alike.
    std::vector<double> rates;
    long long trials = 0, checked = 0, failed = 0;
    LoopResult lo, hi;
    const auto lo_cfg = config_for(k, 0, derive_seed(o.seed, 6));
    const auto hi_cfg = config_for(k, 0, derive_seed(o.seed, 7));
    const auto t0 = Clock::now();
    for (int c = 0; c == 0 || seconds_since(t0) < o.seconds; ++c) {
      const auto cfg = config_for(k, k.chunk_trials, derive_seed(o.seed, 100 + c));
      const auto res =
          eval::run_campaign_on(engine, s.zoo->vocab(), s.eval_set, spec, cfg);
      rates.push_back(cfg.trials / res.total_runtime_sec);
      trials += cfg.trials;
      // Correctness gate: a seeded sample of the campaign's trials re-run
      // on the sequential no-fork oracle path must match outcome, metric
      // and output exactly.
      llmfi::num::Rng pick(derive_seed(cfg.seed, 9));
      const llmfi::num::Rng rng(cfg.seed);
      for (int g = 0; g < 6; ++g) {
        const int t = static_cast<int>(pick.uniform_u64(static_cast<std::uint64_t>(cfg.trials)));
        const auto ref = eval::run_trial(engine, s.zoo->vocab(), s.eval_set,
                                         oracle.baselines, spec, cfg, rng, t,
                                         oracle.det());
        ++checked;
        if (!same_outcome(res.records[static_cast<std::size_t>(t)], ref, metric)) {
          ++failed;
        }
      }
      trial_loop({&engine}, s, lo_cfg, fast, oracle, kSliceS, 97, nullptr, lo);
      trial_loop(engines, s, hi_cfg, fast, oracle, kSliceS, 97, nullptr, hi);
    }
    r.metric("setup_s", median(setup_s), "s");
    r.metric("throughput_per_s", median(rates), "1/s");
    std::fprintf(stderr, "perfbench: %zu campaigns of %d trials, %.0f..%.0f trials/s\n",
                 rates.size(), k.chunk_trials,
                 *std::min_element(rates.begin(), rates.end()),
                 *std::max_element(rates.begin(), rates.end()));
    latency_metrics(r, lo, "lo");
    latency_metrics(r, hi, "hi");
    r.metric("peak_rss_mb", self_peak_rss_mb(), "MB");
    std::fprintf(stderr,
                 "perfbench: oracle re-runs: campaigns %lld, lo %lld, hi %lld\n",
                 checked, lo.checked, hi.checked);
    r.check("campaign trials", trials, failed);
    r.check("lo loop trials", static_cast<long long>(lo.samples.size()), lo.failed);
    r.check("hi loop trials", static_cast<long long>(hi.samples.size()), hi.failed);
  }

  provenance = provenance_json(
      o, seconds_since(t_run),
      std::string("\"kv_pages\": ") +
          std::to_string(k.kv_pages) + ", \"threads\": " +
          std::to_string(kThreads) + ", \"batch\": 4, \"inputs\": " +
          std::to_string(kInputs));
  return 0;
}

}  // namespace perfbench

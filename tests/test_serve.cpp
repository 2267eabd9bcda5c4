// Serve-layer tests: forward_batch bit-identity against the sequential
// forward, BatchEngine-vs-generate token identity across batch sizes
// with ragged prompts and staggered EOS, scheduler admission/retirement/
// backfill invariants, prefix-fork admission, the KvCache capacity
// invariant, and batched-campaign determinism against the sequential
// trial loop at several thread counts.

#include <gtest/gtest.h>

#include <array>
#include <cstdlib>
#include <limits>
#include <map>
#include <memory>

#include "eval/campaign.h"
#include "numerics/half.h"
#include "obs/metrics.h"
#include "serve/scheduler.h"
#include "tensor/ops.h"
#include "train/trainer.h"

namespace llmfi {
namespace {

model::ModelConfig tiny_config() {
  model::ModelConfig cfg;
  cfg.vocab_size = 24;
  cfg.d_model = 16;
  cfg.n_layers = 2;
  cfg.n_heads = 2;
  cfg.d_ff = 24;
  cfg.max_seq = 48;
  cfg.seed = 55;
  return cfg;
}

model::InferenceModel make_engine() {
  return model::InferenceModel(model::ModelWeights::init(tiny_config()), {});
}

std::vector<tok::TokenId> tokens(std::initializer_list<int> ids) {
  std::vector<tok::TokenId> out;
  for (int i : ids) out.push_back(static_cast<tok::TokenId>(i));
  return out;
}

void expect_rows_bitwise_equal(const tn::Tensor& a, tn::Index ra,
                               const tn::Tensor& b, tn::Index rb) {
  ASSERT_EQ(a.cols(), b.cols());
  auto sa = a.row(ra);
  auto sb = b.row(rb);
  for (tn::Index i = 0; i < a.cols(); ++i) {
    ASSERT_EQ(num::f32_bits(sa[i]), num::f32_bits(sb[i])) << "col " << i;
  }
}

// --- KvCache capacity invariant (serve depends on it) -------------------

TEST(KvCacheServe, StorageStableAndAppendRowMatchesAppend) {
  nn::KvCache a(2, 8, 4);
  nn::KvCache b(2, 8, 4);
  const float* ka = a.keys(0).flat().data();
  const float* va = a.values(1).flat().data();

  for (int t = 0; t < 8; ++t) {
    tn::Tensor k({1, 4});
    tn::Tensor v({1, 4});
    for (tn::Index i = 0; i < 4; ++i) {
      k.row(0)[i] = static_cast<float>(t * 10 + i);
      v.row(0)[i] = static_cast<float>(-t * 10 - i);
    }
    for (int blk = 0; blk < 2; ++blk) {
      a.append(blk, k, v);
      b.append_row(blk, k.row(0), v.row(0));
    }
    a.advance(1);
    b.advance(1);
  }
  // Full allocation at construction: appends never reallocate, so the
  // storage pointers batched decode holds across a pass stay valid.
  EXPECT_EQ(a.keys(0).flat().data(), ka);
  EXPECT_EQ(a.values(1).flat().data(), va);
  EXPECT_EQ(a.length(), b.length());
  for (int blk = 0; blk < 2; ++blk) {
    for (tn::Index t = 0; t < a.length(); ++t) {
      expect_rows_bitwise_equal(a.keys(blk), t, b.keys(blk), t);
      expect_rows_bitwise_equal(a.values(blk), t, b.values(blk), t);
    }
  }
  // Both flavors throw on overflow instead of growing (invalid_argument,
  // like every other cache-misuse error).
  tn::Tensor k({1, 4});
  tn::Tensor v({1, 4});
  EXPECT_THROW(a.append(0, k, v), std::invalid_argument);
  EXPECT_THROW(b.append_row(0, k.row(0), v.row(0)), std::invalid_argument);
}

// --- forward_batch ------------------------------------------------------

TEST(ForwardBatch, RowsBitIdenticalToSequentialForward) {
  auto m = make_engine();
  const std::vector<std::vector<tok::TokenId>> prompts = {
      tokens({1, 4, 7}), tokens({2}), tokens({3, 5, 9, 11, 6}),
      tokens({8, 2, 2, 1})};

  // Sequential prefill per sequence, then one decode pass each.
  std::vector<nn::KvCache> seq_caches;
  std::vector<tok::TokenId> next;
  for (const auto& p : prompts) {
    auto cache = m.make_cache();
    auto logits = m.forward(p, cache, 0);
    next.push_back(
        static_cast<tok::TokenId>(tn::argmax_row(logits, logits.rows() - 1)));
    seq_caches.push_back(std::move(cache));
  }
  std::vector<nn::KvCache> batch_caches = seq_caches;  // same prefill state

  std::vector<model::InferenceModel::BatchRow> rows;
  for (size_t i = 0; i < prompts.size(); ++i) {
    rows.push_back({.cache = &batch_caches[i],
                    .token = next[i],
                    .pass_index = 1,
                    .hook = nullptr,
                    .nonfinite = false});
  }
  const tn::Tensor batch_logits = m.forward_batch(rows);
  ASSERT_EQ(batch_logits.rows(), static_cast<tn::Index>(prompts.size()));

  for (size_t i = 0; i < prompts.size(); ++i) {
    const tok::TokenId input = next[i];
    const tn::Tensor ref = m.forward(std::span(&input, 1), seq_caches[i], 1);
    expect_rows_bitwise_equal(batch_logits, static_cast<tn::Index>(i), ref, 0);
    EXPECT_EQ(batch_caches[i].length(), seq_caches[i].length());
    // The cached K/V the batch wrote must be bitwise what sequential wrote.
    for (int blk = 0; blk < m.config().n_layers; ++blk) {
      const tn::Index last = seq_caches[i].length() - 1;
      expect_rows_bitwise_equal(batch_caches[i].keys(blk), last,
                                seq_caches[i].keys(blk), last);
      expect_rows_bitwise_equal(batch_caches[i].values(blk), last,
                                seq_caches[i].values(blk), last);
    }
  }
}

// Scales one layer kind's output, optionally plants a NaN in block 1's
// attention output, and logs the coordinates of every call it sees.
class ProbeHook : public nn::LinearHook {
 public:
  ProbeHook(nn::LayerKind kind, float scale, bool plant_nan)
      : kind_(kind), scale_(scale), plant_nan_(plant_nan) {}
  void on_linear_output(const nn::LinearId& id, tn::Tensor& y, int pass_index,
                        int row_offset) override {
    calls.push_back({id.block, static_cast<int>(id.kind), id.expert,
                     pass_index, row_offset, static_cast<int>(y.rows())});
    if (id.kind == kind_) {
      for (float& v : y.flat()) v *= scale_;
    }
    if (plant_nan_ && id == nn::LinearId{1, nn::LayerKind::OProj, -1}) {
      y.flat()[0] = std::numeric_limits<float>::quiet_NaN();
    }
  }
  std::vector<std::array<int, 6>> calls;

 private:
  nn::LayerKind kind_;
  float scale_;
  bool plant_nan_;
};

class SelectionLog : public nn::ExpertObserver {
 public:
  void on_expert_selection(int block, int token_position,
                           std::span<const int> experts) override {
    log[token_position].push_back(
        {block, std::vector<int>(experts.begin(), experts.end())});
  }
  std::map<int, std::vector<std::pair<int, std::vector<int>>>> log;
};

TEST(ForwardBatch, MoeMixedHookedRowsMatchSequentialForward) {
  auto cfg = tiny_config();
  cfg.moe = true;
  cfg.n_experts = 4;
  cfg.top_k = 2;
  model::InferenceModel m(model::ModelWeights::init(cfg), {});
  // Distinct prompt lengths give every row a distinct decode position, so
  // expert selections can be told apart by position.
  const std::vector<std::vector<tok::TokenId>> prompts = {
      tokens({1, 4, 7}), tokens({2}), tokens({3, 5, 9, 11, 6}),
      tokens({8, 2, 2, 1})};
  const auto make_hook = [](size_t i) -> std::unique_ptr<ProbeHook> {
    switch (i) {
      case 0:
        return std::make_unique<ProbeHook>(nn::LayerKind::ExpertUp, 1.5f,
                                           false);
      case 2:
        return std::make_unique<ProbeHook>(nn::LayerKind::Router, 0.5f, true);
      case 3:
        return std::make_unique<ProbeHook>(nn::LayerKind::QProj, 2.0f, false);
      default:
        return nullptr;  // row 1 runs unhooked
    }
  };

  std::vector<nn::KvCache> seq_caches;
  std::vector<tok::TokenId> next;
  for (const auto& p : prompts) {
    auto cache = m.make_cache();
    auto logits = m.forward(p, cache, 0);
    next.push_back(
        static_cast<tok::TokenId>(tn::argmax_row(logits, logits.rows() - 1)));
    seq_caches.push_back(std::move(cache));
  }
  std::vector<nn::KvCache> batch_caches = seq_caches;

  std::vector<std::unique_ptr<ProbeHook>> batch_hooks;
  std::vector<model::InferenceModel::BatchRow> rows;
  for (size_t i = 0; i < prompts.size(); ++i) {
    batch_hooks.push_back(make_hook(i));
    rows.push_back({.cache = &batch_caches[i],
                    .token = next[i],
                    .pass_index = 1,
                    .hook = batch_hooks[i].get(),
                    .nonfinite = false});
  }
  // An engine hook installed alongside the row hooks must stay silent.
  ProbeHook engine_hook(nn::LayerKind::QProj, 1.0f, false);
  SelectionLog batch_sel;
  m.set_linear_hook(&engine_hook);
  m.set_expert_observer(&batch_sel);
  m.reset_diagnostics();
  const tn::Tensor batch_logits = m.forward_batch(rows);
  EXPECT_TRUE(engine_hook.calls.empty());
  EXPECT_FALSE(m.saw_nonfinite_logits());

  for (size_t i = 0; i < prompts.size(); ++i) {
    SCOPED_TRACE("row " + std::to_string(i));
    auto ref_hook = make_hook(i);
    SelectionLog seq_sel;
    m.set_linear_hook(ref_hook.get());
    m.set_expert_observer(&seq_sel);
    m.reset_diagnostics();
    const tok::TokenId input = next[i];
    const tn::Tensor ref = m.forward(std::span(&input, 1), seq_caches[i], 1);

    expect_rows_bitwise_equal(batch_logits, static_cast<tn::Index>(i), ref, 0);
    EXPECT_EQ(rows[i].nonfinite, m.saw_nonfinite_logits());
    EXPECT_EQ(rows[i].nonfinite, i == 2);
    if (ref_hook != nullptr) {
      EXPECT_EQ(batch_hooks[i]->calls, ref_hook->calls);
    }
    const int pos = static_cast<int>(seq_caches[i].length()) - 1;
    EXPECT_EQ(batch_sel.log[pos], seq_sel.log[pos]);
    EXPECT_EQ(seq_sel.log.size(), 1u);
    for (int blk = 0; blk < m.config().n_layers; ++blk) {
      expect_rows_bitwise_equal(batch_caches[i].keys(blk), pos,
                                seq_caches[i].keys(blk), pos);
      expect_rows_bitwise_equal(batch_caches[i].values(blk), pos,
                                seq_caches[i].values(blk), pos);
    }
  }
  m.set_linear_hook(nullptr);
  m.set_expert_observer(nullptr);
}

// --- BatchEngine vs gen::generate ---------------------------------------

TEST(BatchEngine, MatchesGenerateAcrossBatchSizesRaggedPromptsStaggeredEos) {
  auto m = make_engine();
  const std::vector<std::vector<tok::TokenId>> prompts = {
      tokens({1, 4, 7}),          tokens({2}),
      tokens({3, 5, 9, 11, 6}),   tokens({8, 2, 2, 1}),
      tokens({10, 12}),           tokens({7, 7, 7, 7, 7, 7}),
      tokens({14, 3, 1}),         tokens({5})};
  constexpr int kMaxNew = 10;

  // References: first an unreachable EOS to harvest each trajectory, then
  // a per-request EOS chosen from a *different* position of each
  // trajectory, so the batched requests retire at staggered steps.
  std::vector<tok::TokenId> eos(prompts.size());
  std::vector<gen::GenerationResult> ref(prompts.size());
  for (size_t i = 0; i < prompts.size(); ++i) {
    gen::GenerationConfig cfg;
    cfg.max_new_tokens = kMaxNew;
    cfg.eos = 1000;  // unreachable
    const auto traj = gen::generate(m, prompts[i], cfg);
    ASSERT_FALSE(traj.tokens.empty());
    eos[i] = traj.tokens[i % traj.tokens.size()];
    cfg.eos = eos[i];
    ref[i] = gen::generate(m, prompts[i], cfg);
  }

  for (int batch : {1, 2, 4, 8}) {
    SCOPED_TRACE("batch=" + std::to_string(batch));
    serve::BatchEngine engine(m, batch);
    serve::Scheduler sched(engine);
    for (size_t i = 0; i < prompts.size(); ++i) {
      serve::Request req;
      req.id = i;
      req.prompt = prompts[i];
      req.max_new_tokens = kMaxNew;
      req.eos = eos[i];
      sched.submit(std::move(req));
    }
    const auto done = sched.run();
    ASSERT_EQ(done.size(), prompts.size());
    std::map<std::uint64_t, const serve::Completion*> by_id;
    for (const auto& c : done) by_id[c.id] = &c;
    for (size_t i = 0; i < prompts.size(); ++i) {
      ASSERT_TRUE(by_id.count(i));
      const auto& c = *by_id[i];
      EXPECT_EQ(c.tokens, ref[i].tokens) << "request " << i;
      EXPECT_EQ(c.passes, ref[i].passes) << "request " << i;
      EXPECT_EQ(c.skipped_passes, 0) << "request " << i;
      EXPECT_EQ(c.hit_max_tokens, ref[i].hit_max_tokens) << "request " << i;
      EXPECT_EQ(c.nonfinite_logits, ref[i].nonfinite_logits)
          << "request " << i;
    }
    EXPECT_EQ(engine.stats().completed, prompts.size());
    EXPECT_LE(engine.stats().max_active, batch);
  }
}

// --- scheduler invariants ------------------------------------------------

TEST(Scheduler, AdmissionRetirementBackfillInvariants) {
  auto m = make_engine();
  constexpr int kCapacity = 3;
  constexpr size_t kRequests = 9;

  const auto run_once = [&m] {
    serve::BatchEngine engine(m, kCapacity);
    serve::Scheduler sched(engine);
    for (size_t i = 0; i < kRequests; ++i) {
      serve::Request req;
      req.id = i;
      req.prompt = tokens({static_cast<int>(1 + i), 4, 7});
      req.max_new_tokens = 4 + static_cast<int>(i % 3);
      req.eos = 1000;
      sched.submit(std::move(req));
    }
    auto done = sched.run();
    return std::make_pair(std::move(done), engine.stats());
  };

  auto [done, stats] = run_once();
  ASSERT_EQ(done.size(), kRequests);
  EXPECT_EQ(stats.admitted, kRequests);
  EXPECT_EQ(stats.completed, kRequests);
  EXPECT_LE(stats.max_active, kCapacity);
  EXPECT_EQ(stats.max_active, kCapacity);  // 9 requests saturate 3 slots
  EXPECT_GE(stats.decode_batches, 1u);
  std::uint64_t total_tokens = 0;
  for (const auto& c : done) total_tokens += c.tokens.size();
  EXPECT_EQ(stats.generated_tokens, total_tokens);

  // Everything beyond the first wave is a backfill into a freed slot.
  EXPECT_EQ(stats.admitted - kCapacity,
            static_cast<std::uint64_t>(kRequests) - kCapacity);

  // On-done callbacks fire exactly once per request, in retirement order.
  serve::BatchEngine engine2(m, kCapacity);
  serve::Scheduler sched2(engine2);
  std::vector<std::uint64_t> callback_order;
  for (size_t i = 0; i < kRequests; ++i) {
    serve::Request req;
    req.id = i;
    req.prompt = tokens({static_cast<int>(1 + i), 4, 7});
    req.max_new_tokens = 4 + static_cast<int>(i % 3);
    req.eos = 1000;
    req.on_done = [&callback_order](const serve::Completion& c) {
      callback_order.push_back(c.id);
    };
    sched2.submit(std::move(req));
  }
  const auto done2 = sched2.run();
  EXPECT_GE(sched2.stats().backfills, 1u);
  ASSERT_EQ(callback_order.size(), kRequests);
  ASSERT_EQ(done2.size(), done.size());
  for (size_t i = 0; i < done.size(); ++i) {
    // Deterministic completion order and payloads across identical runs.
    EXPECT_EQ(done2[i].id, done[i].id);
    EXPECT_EQ(done2[i].tokens, done[i].tokens);
    EXPECT_EQ(callback_order[i], done[i].id);
  }
}

TEST(BatchEngine, AdmitThrowsWhenFullAndZeroBudgetRetiresInstantly) {
  auto m = make_engine();
  serve::BatchEngine engine(m, 1);
  std::vector<serve::Completion> done;
  serve::Request req;
  req.id = 7;
  req.prompt = tokens({1, 4, 7});
  req.max_new_tokens = 8;
  req.eos = 1000;
  engine.admit(std::move(req), done);
  ASSERT_EQ(engine.active(), 1);
  serve::Request second;
  second.prompt = tokens({2});
  EXPECT_THROW(engine.admit(std::move(second), done), std::runtime_error);

  // A zero-token budget mirrors generate(): no loop iteration, no
  // hit_max, empty output — and the slot never occupies a decode row.
  serve::BatchEngine engine2(m, 1);
  std::vector<serve::Completion> done2;
  serve::Request zero;
  zero.id = 9;
  zero.prompt = tokens({1, 4, 7});
  zero.max_new_tokens = 0;
  engine2.admit(std::move(zero), done2);
  ASSERT_EQ(done2.size(), 1u);
  EXPECT_EQ(engine2.active(), 0);
  EXPECT_TRUE(done2[0].tokens.empty());
  EXPECT_FALSE(done2[0].hit_max_tokens);
  EXPECT_EQ(done2[0].passes, 1);

  gen::GenerationConfig cfg;
  cfg.max_new_tokens = 0;
  cfg.eos = 1000;
  const auto ref = gen::generate(m, tokens({1, 4, 7}), cfg);
  EXPECT_EQ(ref.tokens, done2[0].tokens);
  EXPECT_EQ(ref.passes, done2[0].passes);
  EXPECT_EQ(ref.hit_max_tokens, done2[0].hit_max_tokens);
}

// --- prefix-fork admission ----------------------------------------------

TEST(BatchEngine, ForkedAdmissionMatchesFullRun) {
  auto m = make_engine();
  const auto prompt = tokens({1, 4, 7});
  gen::GenerationConfig cfg;
  cfg.max_new_tokens = 10;
  cfg.eos = 1000;
  gen::PrefixSnapshot snap;
  cfg.capture = &snap;
  const auto full = gen::generate(m, prompt, cfg);
  ASSERT_TRUE(snap.valid);
  ASSERT_GE(full.passes, 3);

  for (int t : {1, full.passes - 1}) {
    SCOPED_TRACE("start_pass=" + std::to_string(t));
    serve::BatchEngine engine(m, 2);
    std::vector<serve::Completion> done;
    serve::Request req;
    req.id = 1;
    req.prompt = prompt;
    req.max_new_tokens = 10;
    req.eos = 1000;
    req.resume = &snap;
    req.start_pass = t;
    engine.admit(std::move(req), done);
    while (engine.active() > 0) engine.step(done);
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0].tokens, full.tokens);
    EXPECT_EQ(done[0].passes, full.passes);
    EXPECT_EQ(done[0].skipped_passes, t);
    EXPECT_EQ(done[0].hit_max_tokens, full.hit_max_tokens);
    EXPECT_EQ(engine.stats().forked_admissions, 1u);
  }

  // A snapshot for a different prompt fails the resume preconditions and
  // falls back to a full (still bit-identical) prefill.
  serve::BatchEngine engine(m, 2);
  std::vector<serve::Completion> done;
  serve::Request req;
  req.id = 2;
  req.prompt = tokens({2, 4, 7});
  req.max_new_tokens = 10;
  req.eos = 1000;
  req.resume = &snap;
  req.start_pass = 2;
  engine.admit(std::move(req), done);
  while (engine.active() > 0) engine.step(done);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].skipped_passes, 0);
  EXPECT_EQ(engine.stats().forked_admissions, 0u);
  gen::GenerationConfig ref_cfg;
  ref_cfg.max_new_tokens = 10;
  ref_cfg.eos = 1000;
  const auto ref = gen::generate(m, tokens({2, 4, 7}), ref_cfg);
  EXPECT_EQ(done[0].tokens, ref.tokens);
}

// --- batched campaigns ---------------------------------------------------

// One small model trained once and shared by the campaign tests.
struct Fixture {
  data::World world;
  model::ModelWeights weights;
  std::map<data::TaskKind, data::TaskData> tasks;

  Fixture() : weights(model::ModelWeights::init(config())) {
    // The campaign layer honors these env knobs; tests pin the config
    // fields directly, so an inherited environment must not interfere.
    unsetenv("LLMFI_BATCH");
    unsetenv("LLMFI_PREFIX_FORK");
    data::GenOptions opt;
    opt.train_n = 300;
    opt.eval_n = 20;
    for (auto kind : {data::TaskKind::McFact, data::TaskKind::QA,
                      data::TaskKind::MathGsm}) {
      tasks.emplace(kind, data::make_task(world, kind, opt));
    }
    std::vector<data::TrainSeq> corpus;
    for (auto& [kind, td] : tasks) {
      corpus.insert(corpus.end(), td.train.begin(), td.train.end());
    }
    train::TrainConfig tc;
    tc.steps = 350;
    tc.batch_size = 8;
    tc.lr = 5e-3f;
    train::Trainer trainer(weights, tc);
    trainer.train(corpus);
  }

  model::ModelConfig config() const {
    model::ModelConfig cfg;
    cfg.vocab_size = world.vocab().size();
    cfg.d_model = 32;
    cfg.n_layers = 2;
    cfg.n_heads = 4;
    cfg.d_ff = 64;
    cfg.max_seq = 160;
    cfg.seed = 13;
    return cfg;
  }
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

eval::CampaignConfig small_campaign(core::FaultModel fault) {
  eval::CampaignConfig cfg;
  cfg.fault = fault;
  cfg.trials = 24;
  cfg.n_inputs = 4;
  cfg.seed = 99;
  cfg.keep_trial_records = true;
  return cfg;
}

// Bit-identical equality of two campaign results (the comparison the
// parallel-driver tests use, applied to the batch mode): counts,
// buckets, accumulators, and the full per-trial records.
void expect_identical_results(const eval::CampaignResult& a,
                              const eval::CampaignResult& b) {
  EXPECT_EQ(a.masked, b.masked);
  EXPECT_EQ(a.sdc_subtle, b.sdc_subtle);
  EXPECT_EQ(a.sdc_distorted, b.sdc_distorted);
  EXPECT_EQ(a.detected_recovered, b.detected_recovered);
  EXPECT_EQ(a.detected_unrecovered, b.detected_unrecovered);
  EXPECT_EQ(a.trials_detected, b.trials_detected);
  EXPECT_EQ(a.faulty_passes, b.faulty_passes);
  EXPECT_EQ(a.recovery_passes, b.recovery_passes);
  EXPECT_EQ(a.baseline_false_positives, b.baseline_false_positives);
  EXPECT_EQ(a.baseline_hits, b.baseline_hits);
  EXPECT_EQ(a.faulty_hits, b.faulty_hits);
  EXPECT_EQ(a.by_highest_bit, b.by_highest_bit);
  const auto expect_identical_metrics =
      [](const std::map<std::string, metrics::Accumulator>& ma,
         const std::map<std::string, metrics::Accumulator>& mb) {
        ASSERT_EQ(ma.size(), mb.size());
        for (const auto& [name, acc] : ma) {
          auto it = mb.find(name);
          ASSERT_TRUE(it != mb.end()) << name;
          EXPECT_EQ(acc.n(), it->second.n()) << name;
          EXPECT_EQ(acc.mean(), it->second.mean()) << name;
          EXPECT_EQ(acc.stddev(), it->second.stddev()) << name;
        }
      };
  expect_identical_metrics(a.baseline_metrics, b.baseline_metrics);
  expect_identical_metrics(a.faulty_metrics, b.faulty_metrics);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (size_t i = 0; i < a.records.size(); ++i) {
    const auto& ra = a.records[i];
    const auto& rb = b.records[i];
    EXPECT_TRUE(ra.plan.layer == rb.plan.layer) << "trial " << i;
    EXPECT_EQ(ra.plan.layer_index, rb.plan.layer_index);
    EXPECT_EQ(ra.plan.bits, rb.plan.bits);
    EXPECT_EQ(ra.plan.weight_row, rb.plan.weight_row);
    EXPECT_EQ(ra.plan.weight_col, rb.plan.weight_col);
    EXPECT_EQ(ra.plan.pass_index, rb.plan.pass_index);
    EXPECT_EQ(ra.plan.row_frac, rb.plan.row_frac);
    EXPECT_EQ(ra.plan.out_col, rb.plan.out_col);
    EXPECT_EQ(ra.example_index, rb.example_index);
    EXPECT_EQ(ra.outcome, rb.outcome);
    EXPECT_EQ(ra.correct, rb.correct);
    EXPECT_EQ(ra.output_matches_baseline, rb.output_matches_baseline);
    EXPECT_EQ(ra.detections, rb.detections);
    EXPECT_EQ(ra.recovery_passes, rb.recovery_passes);
    EXPECT_EQ(ra.primary_metric, rb.primary_metric);
    EXPECT_EQ(ra.output, rb.output) << "trial " << i;
  }
}

// The tentpole guarantee of the batch mode: routing trials through the
// continuous-batching scheduler reproduces the sequential campaign
// byte-for-byte, at every batch size and thread count, with the prefix
// fork on or off.
TEST(ServeParallelCampaign, BatchedMatchesSequential) {
  auto& f = fixture();
  model::InferenceModel engine(f.weights, {});
  const auto& spec = eval::workload(data::TaskKind::QA);
  const auto& eval_set = f.tasks.at(data::TaskKind::QA).eval;
  for (bool fork : {false, true}) {
    auto cfg = small_campaign(core::FaultModel::Comp1Bit);
    cfg.prefix_fork = fork;
    cfg.threads = 1;
    cfg.batch = 1;
    const auto serial = eval::run_campaign_on(engine, f.world.vocab(),
                                              eval_set, spec, cfg);
    for (int threads : {1, 2, 4}) {
      for (int batch : {2, 4}) {
        cfg.threads = threads;
        cfg.batch = batch;
        const auto batched = eval::run_campaign_on(engine, f.world.vocab(),
                                                   eval_set, spec, cfg);
        SCOPED_TRACE("fork=" + std::to_string(fork) +
                     " threads=" + std::to_string(threads) +
                     " batch=" + std::to_string(batch));
        expect_identical_results(serial, batched);
      }
    }
  }
}

TEST(ServeParallelCampaign, BatchedMathCampaignMatchesSequential) {
  auto& f = fixture();
  model::InferenceModel engine(f.weights, {});
  const auto& spec = eval::workload(data::TaskKind::MathGsm);
  const auto& eval_set = f.tasks.at(data::TaskKind::MathGsm).eval;
  auto cfg = small_campaign(core::FaultModel::Comp1Bit);
  cfg.threads = 1;
  cfg.batch = 1;
  const auto serial = eval::run_campaign_on(engine, f.world.vocab(), eval_set,
                                            spec, cfg);
  cfg.threads = 2;
  cfg.batch = 4;
  const auto batched = eval::run_campaign_on(engine, f.world.vocab(),
                                             eval_set, spec, cfg);
  expect_identical_results(serial, batched);
}

// Ineligible configs (memory faults corrupt the shared weights; option
// scoring has no decode loop) downgrade to the sequential trial loop —
// same results, one warning, no crash.
TEST(ServeParallelCampaign, IneligibleConfigsFallBackToSequential) {
  auto& f = fixture();
  model::InferenceModel engine(f.weights, {});
  {
    const auto& spec = eval::workload(data::TaskKind::QA);
    const auto& eval_set = f.tasks.at(data::TaskKind::QA).eval;
    auto cfg = small_campaign(core::FaultModel::Mem2Bit);
    cfg.threads = 2;
    cfg.batch = 1;
    const auto serial = eval::run_campaign_on(engine, f.world.vocab(),
                                              eval_set, spec, cfg);
    cfg.batch = 4;
    const auto fallback = eval::run_campaign_on(engine, f.world.vocab(),
                                                eval_set, spec, cfg);
    expect_identical_results(serial, fallback);
  }
  {
    const auto& spec = eval::workload(data::TaskKind::McFact);
    const auto& eval_set = f.tasks.at(data::TaskKind::McFact).eval;
    auto cfg = small_campaign(core::FaultModel::Comp1Bit);
    cfg.threads = 1;
    cfg.batch = 1;
    const auto serial = eval::run_campaign_on(engine, f.world.vocab(),
                                              eval_set, spec, cfg);
    cfg.batch = 4;
    const auto fallback = eval::run_campaign_on(engine, f.world.vocab(),
                                                eval_set, spec, cfg);
    expect_identical_results(serial, fallback);
  }
}

// --- server-mode lifecycle: tick / cancel / drain / on_token -------------

TEST(SchedulerLifecycle, OnTokenStreamsEveryDecodedTokenInOrder) {
  auto m = make_engine();
  serve::BatchEngine engine(m, 2);
  serve::Scheduler sched(engine);
  std::vector<std::pair<int, tok::TokenId>> streamed;
  serve::Request req;
  req.id = 3;
  req.prompt = tokens({1, 4, 7});
  req.max_new_tokens = 6;
  req.eos = 1000;
  req.on_token = [&streamed](std::uint64_t id, int index, tok::TokenId t) {
    EXPECT_EQ(id, 3u);
    streamed.emplace_back(index, t);
  };
  sched.submit(std::move(req));
  const auto done = sched.run();
  ASSERT_EQ(done.size(), 1u);

  // Every accepted token streamed exactly once, indices dense from 0,
  // values identical to the completion and the sequential oracle.
  ASSERT_EQ(streamed.size(), done[0].tokens.size());
  for (size_t i = 0; i < streamed.size(); ++i) {
    EXPECT_EQ(streamed[i].first, static_cast<int>(i));
    EXPECT_EQ(streamed[i].second, done[0].tokens[i]);
  }
  gen::GenerationConfig cfg;
  cfg.max_new_tokens = 6;
  cfg.eos = 1000;
  EXPECT_EQ(done[0].tokens, gen::generate(m, tokens({1, 4, 7}), cfg).tokens);
}

TEST(SchedulerLifecycle, CancelQueuedAndActiveReleasesPagesImmediately) {
  auto m = make_engine();
  auto pool = std::make_shared<nn::PagePool>(
      64, nn::PagePool::kDefaultPageRows, tiny_config().d_model);
  const int total_pages = pool->free_pages();
  serve::BatchEngine engine(m, 2, pool);
  serve::Scheduler sched(engine);
  std::vector<std::uint64_t> done_ids;
  const auto mk = [&done_ids](std::uint64_t id) {
    serve::Request r;
    r.id = id;
    r.prompt = tokens({static_cast<int>(4 + id), 5});
    r.max_new_tokens = 12;
    r.eos = 1000;
    r.on_done = [&done_ids](const serve::Completion& c) {
      done_ids.push_back(c.id);
    };
    return r;
  };
  for (std::uint64_t id = 0; id < 4; ++id) sched.submit(mk(id));

  std::vector<serve::Completion> out;
  ASSERT_TRUE(sched.tick(out));  // admits 0 and 1; 2 and 3 wait in queue
  EXPECT_EQ(sched.active(), 2);
  EXPECT_EQ(sched.queued(), 2u);
  const int pages_during = pool->free_pages();
  EXPECT_LT(pages_during, total_pages);

  // Queued cancel: synthetic completion, the engine never sees it.
  ASSERT_TRUE(sched.cancel(3, out));
  EXPECT_EQ(sched.queued(), 1u);
  // Active cancel: the slot retires now and its pages return to the
  // pool now, not at the next slot reuse.
  ASSERT_TRUE(sched.cancel(0, out));
  EXPECT_EQ(sched.active(), 1);
  EXPECT_GT(pool->free_pages(), pages_during);
  // Unknown id: the benign race with retirement, not an error.
  EXPECT_FALSE(sched.cancel(99, out));

  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].id, 3u);
  EXPECT_TRUE(out[0].cancelled);
  EXPECT_TRUE(out[0].tokens.empty());
  EXPECT_EQ(out[1].id, 0u);
  EXPECT_TRUE(out[1].cancelled);

  // Drain: new work throws, existing work runs to completion.
  sched.drain();
  EXPECT_TRUE(sched.draining());
  EXPECT_THROW(sched.submit(mk(7)), std::logic_error);
  while (sched.tick(out)) {
  }
  EXPECT_TRUE(sched.idle());
  EXPECT_EQ(pool->free_pages(), total_pages);
  EXPECT_EQ(sched.stats().cancelled, 2u);
  EXPECT_EQ(sched.stats().completed, 2u);
  EXPECT_EQ(engine.stats().cancelled, 1u);
  EXPECT_EQ(done_ids.size(), 4u);
}

TEST(SchedulerLifecycle, QueuedCancelConsumesQueueWaitStamp) {
  obs::metrics_start();
  auto m = make_engine();
  serve::BatchEngine engine(m, 1);
  serve::Scheduler sched(engine);
  auto& hist = obs::Registry::global().histogram("serve_queue_wait_us",
                                                 obs::latency_us_buckets());
  for (std::uint64_t id = 0; id < 2; ++id) {
    serve::Request r;
    r.id = id;
    r.prompt = tokens({static_cast<int>(5 + id)});
    r.max_new_tokens = 4;
    r.eos = 1000;
    sched.submit(std::move(r));
  }
  EXPECT_EQ(hist.count(), 0u);  // stamps are consumed on exit, not entry
  std::vector<serve::Completion> out;
  ASSERT_TRUE(sched.tick(out));  // admits request 0 (capacity 1)
  EXPECT_EQ(hist.count(), 1u);
  // A request cancelled while queued must still surface its queue wait —
  // admission is no longer the only stamp sink.
  ASSERT_TRUE(sched.cancel(1, out));
  EXPECT_EQ(hist.count(), 2u);
  while (sched.tick(out)) {
  }
  EXPECT_EQ(hist.count(), 2u);
  obs::metrics_stop();
}

}  // namespace
}  // namespace llmfi

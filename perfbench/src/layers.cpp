#include "layers.h"

#include <algorithm>

#include "core/fault_plan.h"
#include "core/injector.h"
#include "gen/generate.h"
#include "net/http.h"
#include "numerics/rng.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"

namespace perfbench {

namespace {

namespace tn = llmfi::tn;
using llmfi::tok::TokenId;

// Canonical per-layer metric list: (name, unit). Every traced run prints
// all of them, in this order.
const std::vector<std::pair<const char*, const char*>>& per_layer_names() {
  static const std::vector<std::pair<const char*, const char*>> names = {
      {"tensor.gemm_us.decode", "us"},
      {"tensor.gemm_us.prefill", "us"},
      {"tensor.gemm_krange_us.decode", "us"},
      {"tensor.gemm_flops.decode", "flop"},
      {"tensor.gemm_bytes.decode", "B"},
      {"model.prefill_us", "us"},
      {"model.decode_us", "us"},
      {"model.decode_batch_row_us", "us"},
      {"model.clone_ms", "ms"},
      {"nn.kv_fork_us", "us"},
      {"nn.kv_truncate_us", "us"},
      {"nn.page_acquire_release_ns", "ns"},
      {"core.hook_us.injector", "us"},
      {"core.hook_us.checksum", "us"},
      {"core.weight_corruption_us", "us"},
      {"core.sample_fault_us", "us"},
      {"gen.generate_us_per_token", "us"},
      {"eval.trial_us.p50", "us"},
      {"eval.trial_us.p99", "us"},
      {"eval.executed_passes_per_trial", "count"},
      {"eval.fork_skip_frac", "frac"},
      {"eval.recovery_pass_frac", "frac"},
      {"eval.batch_occupancy", "rows"},
      {"eval.baseline_s", "s"},
      {"serve.admit_us", "us"},
      {"serve.step_us", "us"},
      {"serve.step_rows", "rows"},
      {"serve.tick_us", "us"},
      {"serve.queue_wait_us.p50", "us"},
      {"serve.queue_wait_us.p99", "us"},
      {"serve.batch_occupancy.hi", "rows"},
      {"net.parse_ns", "ns"},
      {"net.sse_frame_ns", "ns"},
      {"net.healthz_rtt_us", "us"},
      {"net.sse_events_per_request", "count"},
      {"loadgen.send_lag_p99_ms", "ms"},
      {"trace.overhead_frac", "frac"},
      {"trace.parts_sum_ratio", "ratio"},
  };
  return names;
}

tn::Tensor filled(tn::Index rows, tn::Index cols, std::uint64_t seed) {
  tn::Tensor t({rows, cols});
  llmfi::num::Rng rng(seed);
  float* p = t.data();
  for (tn::Index i = 0; i < rows * cols; ++i) {
    p[i] = static_cast<float>(rng.uniform_u64(2001)) / 1000.0f - 1.0f;
  }
  return t;
}

// Keeps timed results observable so the compiler cannot drop the call.
volatile float g_sink = 0.0f;

struct Proj {
  tn::Index n, k;  // B is [n, k]: C[m, n] = A[m, k] @ B^T
  int count;       // occurrences per forward pass
};

// Every weight product of one forward pass: q/k/v/o, gate/up and down per
// block, plus the LM head.
std::vector<Proj> pass_projections(const llmfi::model::ModelConfig& c) {
  const tn::Index d = c.d_model, ff = c.d_ff;
  return {{d, d, 4 * c.n_layers},
          {ff, d, 2 * c.n_layers},
          {d, ff, c.n_layers},
          {c.vocab_size, d, 1}};
}

double gemm_pass_us(const llmfi::model::ModelConfig& c, tn::Index m) {
  double total = 0.0;
  std::uint64_t seed = 1;
  for (const Proj& p : pass_projections(c)) {
    const tn::Tensor a = filled(m, p.k, seed++);
    const tn::Tensor b = filled(p.n, p.k, seed++);
    total += p.count * time_us(
                           [&] {
                             const tn::Tensor out = tn::matmul_bt(a, b);
                             g_sink = out.data()[0];
                           },
                           m > 1 ? 20 : 200);
  }
  return total;
}

// The row-parallel products (attention out, MLP down) at TP 1: the fixed
// 8-segment K grid of matmul_bt_krange, one call per segment.
double gemm_krange_pass_us(const llmfi::model::ModelConfig& c) {
  const tn::Index d = c.d_model, ff = c.d_ff;
  double total = 0.0;
  for (const Proj& p : std::vector<Proj>{{d, d, c.n_layers},
                                         {d, ff, c.n_layers}}) {
    const tn::Tensor a = filled(1, p.k, 7);
    const tn::Tensor b = filled(p.n, p.k, 8);
    std::vector<float> out(static_cast<std::size_t>(p.n));
    const auto tier = tn::kernel_tier();
    total += p.count * time_us(
                           [&] {
                             for (int s = 0; s < 8; ++s) {
                               tn::matmul_bt_krange(
                                   a.data(), 1, p.k, p.k * s / 8,
                                   p.k * (s + 1) / 8, b.data(), p.k, p.n,
                                   out.data(), p.n, tier);
                             }
                             g_sink = out[0];
                           },
                           200);
  }
  return total;
}

}  // namespace

const std::vector<TokenId>& median_prompt(
    const std::vector<std::vector<TokenId>>& prompts) {
  std::vector<std::size_t> idx(prompts.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  std::stable_sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
    return prompts[a].size() < prompts[b].size();
  });
  return prompts[idx[idx.size() / 2]];
}

Figures measure_layers(const LayerInputs& in, Tracer& tracer) {
  namespace core = llmfi::core;
  auto& engine = *in.engine;
  const auto& cfg = engine.config();
  const auto& prompt = median_prompt(in.prompts);
  const auto len = static_cast<tn::Index>(prompt.size());
  const TokenId tok = prompt.back();
  Figures f;

  {
    SpanScope s(tracer, "tensor.matmul_bt");
    f["tensor.gemm_us.decode"] = gemm_pass_us(cfg, 1);
    f["tensor.gemm_us.prefill"] = gemm_pass_us(cfg, len);
  }
  {
    SpanScope s(tracer, "tensor.matmul_bt_krange");
    f["tensor.gemm_krange_us.decode"] = gemm_krange_pass_us(cfg);
  }
  // Counted from the shapes, not measured.
  double flops = 0.0, bytes = 0.0;
  for (const Proj& p : pass_projections(cfg)) {
    flops += p.count * 2.0 * static_cast<double>(p.n * p.k);
    bytes += p.count * 4.0 * static_cast<double>(p.k + p.n * p.k + p.n);
  }
  f["tensor.gemm_flops.decode"] = flops;
  f["tensor.gemm_bytes.decode"] = bytes;

  auto make_cache = [&] {
    return in.pool ? engine.make_cache(in.pool) : engine.make_cache();
  };
  auto cache = make_cache();
  {
    SpanScope s(tracer, "model.forward");
    f["model.prefill_us"] = time_us(
        [&] { engine.forward(prompt, cache, 0); }, 20, 9,
        [&] { cache.reset(); });
    engine.forward(prompt, cache, 0);
    const TokenId one[1] = {tok};
    f["model.decode_us"] = time_us(
        [&] { engine.forward(one, cache, 1); }, 200, 9,
        [&] { cache.truncate(len); });
  }
  {
    SpanScope s(tracer, "model.forward_batch");
    std::vector<llmfi::nn::KvCache> caches(4, cache);
    std::vector<llmfi::model::InferenceModel::BatchRow> rows(4);
    for (int r = 0; r < 4; ++r) {
      rows[static_cast<std::size_t>(r)].cache = &caches[static_cast<std::size_t>(r)];
      rows[static_cast<std::size_t>(r)].token = tok;
      rows[static_cast<std::size_t>(r)].pass_index = 1;
    }
    f["model.decode_batch_row_us"] =
        time_us([&] { engine.forward_batch(rows); }, 100, 9,
                [&] {
                  for (auto& c : caches) c.truncate(len);
                }) /
        4.0;
  }
  {
    SpanScope s(tracer, "model.clone");
    f["model.clone_ms"] =
        time_us([&] { const auto replica = engine.clone(); }, 3, 5) / 1000.0;
  }

  {
    SpanScope s(tracer, "nn.kv_fork_from");
    // Source: the longest prompt decoded until it covers the fork prefix.
    const auto& longest = *std::max_element(
        in.prompts.begin(), in.prompts.end(),
        [](const auto& a, const auto& b) { return a.size() < b.size(); });
    auto src = make_cache();
    engine.forward(longest, src, 0);
    const TokenId one[1] = {tok};
    for (int pass = 1; src.length() < in.fork_prefix &&
                       src.length() < cfg.max_seq - 1;
         ++pass) {
      engine.forward(one, src, pass);
    }
    const tn::Index prefix = std::min<tn::Index>(
        std::max(1, in.fork_prefix), src.length());
    auto dst = make_cache();
    f["nn.kv_fork_us"] = time_us([&] { dst.fork_from(src, prefix); }, 200);
  }
  {
    SpanScope s(tracer, "nn.kv_truncate");
    const TokenId one[1] = {tok};
    cache.truncate(len);
    f["nn.kv_truncate_us"] = time_us([&] { cache.truncate(len); }, 200, 9,
                                     [&] { engine.forward(one, cache, 1); });
  }
  {
    SpanScope s(tracer, "nn.page_pool");
    llmfi::nn::PagePool pool(64, llmfi::nn::PagePool::kDefaultPageRows,
                             cfg.d_model);
    f["nn.page_acquire_release_ns"] =
        1000.0 * time_us([&] { pool.release(pool.acquire()); }, 20000);
  }

  llmfi::num::Rng rng(derive_seed(in.prompts.size(), 11));
  core::SamplerScope scope;
  scope.max_passes = 1;
  {
    SpanScope s(tracer, "core.hooks");
    // Armed but never fired: the plan targets a pass no decode reaches.
    core::FaultPlan plan =
        core::sample_fault(core::FaultModel::Comp1Bit, engine, scope, rng);
    plan.pass_index = 1 << 30;
    core::ComputationalFaultInjector injector(plan,
                                              engine.precision().act_dtype);
    const core::ChecksumProfile profile =
        core::profile_checksums(engine, *in.vocab, in.texts);
    core::ChecksumDetector checksum(profile);
    const TokenId one[1] = {tok};
    auto decode_us = [&](llmfi::nn::LinearHook* hook) {
      core::LinearHookGuard guard(engine, hook);
      return time_us([&] { engine.forward(one, cache, 1); }, 200, 9,
                     [&] { cache.truncate(len); });
    };
    // Bare and hooked passes alternate so drift cancels; medians of the
    // differences.
    std::vector<double> inj, chk;
    for (int r = 0; r < 3; ++r) {
      const double bare = decode_us(nullptr);
      inj.push_back(decode_us(&injector) - bare);
      chk.push_back(decode_us(&checksum) - bare);
    }
    f["core.hook_us.injector"] = median(inj);
    f["core.hook_us.checksum"] = median(chk);
  }
  {
    SpanScope s(tracer, "core.weight_corruption");
    std::vector<core::FaultPlan> plans;
    for (int i = 0; i < 64; ++i) {
      plans.push_back(
          core::sample_fault(core::FaultModel::Mem2Bit, engine, scope, rng));
    }
    std::size_t i = 0;
    f["core.weight_corruption_us"] = time_us(
        [&] { core::WeightCorruption wc(engine, plans[i++ % plans.size()]); },
        200);
  }
  {
    SpanScope s(tracer, "core.sample_fault");
    core::SamplerScope trial_scope;
    trial_scope.max_passes = 20;
    f["core.sample_fault_us"] = time_us(
        [&] {
          const auto plan = core::sample_fault(in.fault, engine, trial_scope, rng);
          g_sink = static_cast<float>(plan.pass_index);
        },
        500);
  }
  {
    SpanScope s(tracer, "gen.generate");
    llmfi::gen::GenerationConfig g;
    g.max_new_tokens = in.max_new_tokens;
    g.kv_pool = in.pool;
    const std::size_t n = std::min<std::size_t>(8, in.prompts.size());
    std::vector<double> per_tok;
    for (int r = 0; r < 4; ++r) {
      long long passes = 0;
      const std::int64_t t0 = now_ns();
      for (std::size_t i = 0; i < n; ++i) {
        passes += llmfi::gen::generate(engine, in.prompts[i], g).passes;
      }
      if (r > 0) {  // round 0 is the warm-up
        per_tok.push_back(static_cast<double>(now_ns() - t0) / 1000.0 /
                          static_cast<double>(std::max(1LL, passes)));
      }
    }
    f["gen.generate_us_per_token"] = median(per_tok);
  }

  {
    SpanScope s(tracer, "net.parse");
    std::string body = "{\"prompt_ids\":[";
    for (std::size_t i = 0; i < prompt.size(); ++i) {
      if (i > 0) body += ',';
      body += std::to_string(prompt[i]);
    }
    body += "],\"max_new_tokens\":" + std::to_string(in.max_new_tokens) + "}";
    const std::string bytes =
        "POST /v1/completions HTTP/1.1\r\nHost: llmfi\r\nContent-Type: "
        "application/json\r\nContent-Length: " +
        std::to_string(body.size()) + "\r\n\r\n" + body;
    f["net.parse_ns"] = 1000.0 * time_us(
                                     [&] {
                                       llmfi::net::HttpRequestParser p;
                                       p.feed(bytes);
                                       g_sink = p.done() ? 1.0f : 0.0f;
                                     },
                                     2000);
  }
  {
    SpanScope s(tracer, "net.sse_frame");
    const std::string payload =
        "{\"index\":7,\"token_id\":" + std::to_string(tok) + ",\"text\":\"" +
        llmfi::net::json_escape(in.vocab->word(tok)) + "\"}";
    f["net.sse_frame_ns"] =
        1000.0 * time_us(
                     [&] {
                       const std::string framed =
                           llmfi::net::chunk(llmfi::net::sse_event(payload));
                       g_sink = static_cast<float>(framed.size());
                     },
                     5000);
  }
  return f;
}

void emit_per_layer(Result& r, const Figures& f) {
  for (const auto& [name, unit] : per_layer_names()) {
    const auto it = f.find(name);
    r.metric(name, it == f.end() ? 0.0 : it->second, unit);
  }
}

}  // namespace perfbench

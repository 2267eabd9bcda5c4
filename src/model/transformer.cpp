#include "model/transformer.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <limits>

#include "numerics/half.h"
#include "nn/rope.h"
#include "obs/context.h"
#include "obs/trace.h"
#include "quant/qmatmul.h"
#include "shard/parallel_linear.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"

namespace llmfi::model {

namespace {

// Stable softmax over a raw span with IEEE-faithful corruption
// semantics (see tn::softmax_rows_inplace): NaN or +inf anywhere
// poisons the whole distribution with NaN, exactly as PyTorch does.
void softmax_span(std::span<float> v) {
  float mx = -std::numeric_limits<float>::infinity();
  bool poisoned = false;
  for (float x : v) {
    if (std::isnan(x)) poisoned = true;
    mx = std::max(mx, x);
  }
  if (poisoned || !std::isfinite(mx)) {
    std::fill(v.begin(), v.end(),
              std::numeric_limits<float>::quiet_NaN());
    return;
  }
  float sum = 0.0f;
  for (float& x : v) {
    x = std::exp(x - mx);
    sum += x;
  }
  const float inv = 1.0f / sum;
  for (float& x : v) x *= inv;
}

// Multi-head attention for ONE query row against `ctx` cached positions,
// restricted to heads [h0, h1). This is the per-row kernel of the segment
// pass and of its tensor-parallel head-range split: one fixed reduction
// order per (head, output dim), independent of how many other rows — or
// shards — share the pass.
void attend_row(std::span<const float> qrow, std::span<float> orow,
                const nn::KvView& keys, const nn::KvView& values,
                tn::Index ctx, int h0, int h1, tn::Index d_head,
                std::vector<float>& scores) {
  const float scale = 1.0f / std::sqrt(static_cast<float>(d_head));
  scores.resize(static_cast<size_t>(ctx));
  for (int h = h0; h < h1; ++h) {
    const tn::Index off = static_cast<tn::Index>(h) * d_head;
    for (tn::Index j = 0; j < ctx; ++j) {
      const float* krow = keys.row(j);
      float acc = 0.0f;
      for (tn::Index i = 0; i < d_head; ++i) {
        acc += qrow[off + i] * krow[off + i];
      }
      scores[static_cast<size_t>(j)] = acc * scale;
    }
    softmax_span(scores);
    for (tn::Index i = 0; i < d_head; ++i) orow[off + i] = 0.0f;
    for (tn::Index j = 0; j < ctx; ++j) {
      const float p = scores[static_cast<size_t>(j)];
      if (p == 0.0f) continue;
      const float* vrow = values.row(j);
      for (tn::Index i = 0; i < d_head; ++i) {
        orow[off + i] += p * vrow[off + i];
      }
    }
  }
}

}  // namespace

InferenceModel::InferenceModel(const ModelWeights& w,
                               const PrecisionConfig& prec)
    : config_(w.config), prec_(prec) {
  embedding_ = w.embedding;
  round_activations(embedding_);
  final_norm_ = w.final_norm;

  const int group = prec.quant_group;
  blocks_.reserve(w.blocks.size());
  for (const auto& src : w.blocks) {
    BlockStorage blk{
        .norm1 = src.norm1,
        .norm2 = src.norm2,
        .wq = nn::WeightMatrix(src.wq, prec.weight_dtype, group),
        .wk = nn::WeightMatrix(src.wk, prec.weight_dtype, group),
        .wv = nn::WeightMatrix(src.wv, prec.weight_dtype, group),
        .wo = nn::WeightMatrix(src.wo, prec.weight_dtype, group),
        .mlp = {},
        .router = {},
        .experts = {},
    };
    if (config_.moe) {
      blk.router.emplace_back(src.router, prec.weight_dtype, group);
      blk.experts.reserve(src.experts.size());
      for (const auto& ex : src.experts) {
        blk.experts.push_back(ExpertStorage{
            nn::WeightMatrix(ex.gate, prec.weight_dtype, group),
            nn::WeightMatrix(ex.up, prec.weight_dtype, group),
            nn::WeightMatrix(ex.down, prec.weight_dtype, group)});
      }
    } else {
      blk.mlp.emplace_back(src.gate, prec.weight_dtype, group);
      blk.mlp.emplace_back(src.up, prec.weight_dtype, group);
      blk.mlp.emplace_back(src.down, prec.weight_dtype, group);
    }
    blocks_.push_back(std::move(blk));
  }

  build_linear_refs();
}

InferenceModel InferenceModel::clone() const {
  InferenceModel copy;
  copy.config_ = config_;
  copy.prec_ = prec_;
  copy.embedding_ = embedding_;
  copy.final_norm_ = final_norm_;
  copy.blocks_ = blocks_;
  copy.build_linear_refs();
  // Replicas keep the TP degree (with their own worker pool) — outputs
  // are TP-invariant, so this only preserves the perf shape.
  if (tp_ > 1) copy.set_tensor_parallel(tp_);
  return copy;
}

void InferenceModel::set_tensor_parallel(int n) {
  if (n < 1) n = 1;
  if (n > 1 && num::is_quantized_dtype(prec_.weight_dtype)) {
    std::fprintf(stderr,
                 "llmfi: tensor parallelism is unavailable for quantized "
                 "weight storage (the grouped integer product has no sharded "
                 "form); keeping TP=1\n");
    n = 1;
  }
  if (n == tp_ && (n == 1 || group_ != nullptr)) return;
  tp_ = n;
  group_ = n > 1 ? std::make_unique<shard::ShardGroup>(n) : nullptr;
}

// FI target registry (order: block-major, layer kind within block).
void InferenceModel::build_linear_refs() {
  linear_refs_.clear();
  for (int b = 0; b < static_cast<int>(blocks_.size()); ++b) {
    auto& blk = blocks_[static_cast<size_t>(b)];
    linear_refs_.push_back({{b, nn::LayerKind::QProj, -1}, &blk.wq});
    linear_refs_.push_back({{b, nn::LayerKind::KProj, -1}, &blk.wk});
    linear_refs_.push_back({{b, nn::LayerKind::VProj, -1}, &blk.wv});
    linear_refs_.push_back({{b, nn::LayerKind::OProj, -1}, &blk.wo});
    if (config_.moe) {
      linear_refs_.push_back({{b, nn::LayerKind::Router, -1}, &blk.router[0]});
      for (int e = 0; e < static_cast<int>(blk.experts.size()); ++e) {
        auto& ex = blk.experts[static_cast<size_t>(e)];
        linear_refs_.push_back({{b, nn::LayerKind::ExpertGate, e}, &ex.gate});
        linear_refs_.push_back({{b, nn::LayerKind::ExpertUp, e}, &ex.up});
        linear_refs_.push_back({{b, nn::LayerKind::ExpertDown, e}, &ex.down});
      }
    } else {
      linear_refs_.push_back({{b, nn::LayerKind::GateProj, -1}, &blk.mlp[0]});
      linear_refs_.push_back({{b, nn::LayerKind::UpProj, -1}, &blk.mlp[1]});
      linear_refs_.push_back({{b, nn::LayerKind::DownProj, -1}, &blk.mlp[2]});
    }
  }
}

nn::KvCache InferenceModel::make_cache() const {
  return nn::KvCache(config_.n_layers, config_.max_seq, config_.d_model);
}

nn::KvCache InferenceModel::make_cache(
    std::shared_ptr<nn::PagePool> pool) const {
  return nn::KvCache(config_.n_layers, config_.max_seq, config_.d_model,
                     std::move(pool));
}

void InferenceModel::round_activations(tn::Tensor& x) const {
  switch (prec_.act_dtype) {
    case num::DType::F32:
      return;
    case num::DType::F16:
      for (float& v : x.flat()) v = num::round_to_f16(v);
      return;
    case num::DType::BF16:
      for (float& v : x.flat()) v = num::round_to_bf16(v);
      return;
    default:
      return;  // quantized activations are not modeled
  }
}

tn::Tensor InferenceModel::project(const nn::WeightMatrix& w,
                                   const tn::Tensor& x) const {
  const tn::KernelTier tier = tn::kernel_tier();
  if (tier != tn::KernelTier::Reference && w.quantized() != nullptr) {
    return quant::qmatmul_bt(x, *w.quantized(), tier);
  }
  return tn::matmul_bt_tier(x, w.values(), tier);
}

tn::Tensor InferenceModel::project_tp(const nn::WeightMatrix& w,
                                      const tn::Tensor& x,
                                      const nn::LinearId& id, int pass_index,
                                      int row_offset,
                                      nn::ShardHook* shard_hook) {
  const tn::KernelTier tier = tn::kernel_tier();
  if (tier != tn::KernelTier::Reference && w.quantized() != nullptr) {
    // Quantized fast-tier products keep the grouped integer kernel.
    // Engines with quantized storage never shard (set_tensor_parallel
    // refuses), and tp faults observe only the fp32 product — campaigns
    // run the Reference tier, which takes the segmented path below.
    return quant::qmatmul_bt(x, *w.quantized(), tier);
  }
  switch (id.kind) {
    case nn::LayerKind::OProj:
    case nn::LayerKind::DownProj:
      // Row-parallel at *every* TP degree: the segmented K-split and
      // its fixed-order tree reduce ARE the engine's numerics for these
      // two products (DESIGN.md §14) — sharding only reassigns which
      // thread computes each segment, so TP never changes bits.
      return shard::RowParallelLinear::run(group_.get(), x, w.values(), tier,
                                           shard_hook, id, pass_index,
                                           row_offset);
    case nn::LayerKind::QProj:
    case nn::LayerKind::KProj:
    case nn::LayerKind::VProj:
    case nn::LayerKind::GateProj:
    case nn::LayerKind::UpProj:
      // Column-parallel when a group is attached; the slice kernels are
      // bit-identical to the unsharded product.
      if (group_ != nullptr) {
        return shard::ColumnParallelLinear::run(group_.get(), x, w.values(),
                                                tier);
      }
      return tn::matmul_bt_tier(x, w.values(), tier);
    default:
      // Router and expert MLPs stay replicated: expert products are
      // tiny per-token [1, d] slices where a barrier would dominate.
      return tn::matmul_bt_tier(x, w.values(), tier);
  }
}

void InferenceModel::qkv_fused(BlockStorage& blk, const tn::Tensor& x,
                               tn::Tensor* q, tn::Tensor* k,
                               tn::Tensor* v) const {
  const tn::Tensor* ws[3] = {&blk.wq.values(), &blk.wk.values(),
                             &blk.wv.values()};
  auto ys = shard::ColumnParallelLinear::run_fused(
      group_.get(), x, blk.norm1, config_.norm_eps, ws, tn::kernel_tier());
  *q = std::move(ys[0]);
  *k = std::move(ys[1]);
  *v = std::move(ys[2]);
}

tn::Tensor InferenceModel::dense_mlp_fused(BlockStorage& blk, int block_idx,
                                           const tn::Tensor& x) {
  const tn::Tensor* ws[2] = {&blk.mlp[0].values(), &blk.mlp[1].values()};
  auto ys = shard::ColumnParallelLinear::run_fused(
      group_.get(), x, blk.norm2, config_.norm_eps, ws, tn::kernel_tier());
  tn::Tensor& g = ys[0];
  tn::silu_inplace(g);
  tn::mul_inplace(g, ys[1]);
  // Fusion requires shard_hook_ == nullptr (see run_segments), so the
  // down product here never fires it.
  return project_tp(blk.mlp[2], g, {block_idx, nn::LayerKind::DownProj, -1}, 0,
                    0, nullptr);
}

tn::Tensor InferenceModel::linear(const Pass& p, const nn::WeightMatrix& w,
                                  const tn::Tensor& x, const nn::LinearId& id,
                                  int row) {
  const auto r0 = static_cast<size_t>(row < 0 ? 0 : row);
  // The shard hook fires only on forward()'s single-segment pass, so
  // segment 0's pass index and first position are its coordinates.
  tn::Tensor y = project_tp(w, x, id, p.segs[0].pass_index, p.pos[r0],
                            p.batched ? nullptr : shard_hook_);
  round_activations(y);
  // Anything a hook records (injections, detector trips) is attributed to
  // the request owning its segment — see obs::RowContextGuard in the
  // serve layer. Observation-only: never read by the dispatch itself.
  const auto scope_of = [&p](size_t s) {
    return p.batched ? static_cast<int>(s) : -1;
  };
  if (row >= 0 || p.segs.size() == 1) {
    const auto s = static_cast<size_t>(p.seg_of[r0]);
    if (nn::LinearHook* hook = p.segs[s].hook) {
      obs::RowContextScope rctx(scope_of(s));
      hook->on_linear(id, x, w, y, p.segs[s].pass_index, p.pos[r0]);
    }
    return y;
  }
  for (size_t s = 0; s < p.segs.size(); ++s) {
    nn::LinearHook* hook = p.segs[s].hook;
    if (hook == nullptr) continue;
    obs::RowContextScope rctx(scope_of(s));
    const tn::Index n = p.first[s + 1] - p.first[s];
    tn::Tensor xs({n, x.cols()});
    tn::Tensor ys({n, y.cols()});
    const auto xsrc = x.flat().subspan(
        static_cast<size_t>(p.first[s] * x.cols()), xs.flat().size());
    const auto yseg = y.flat().subspan(
        static_cast<size_t>(p.first[s] * y.cols()), ys.flat().size());
    std::copy(xsrc.begin(), xsrc.end(), xs.flat().begin());
    std::copy(yseg.begin(), yseg.end(), ys.flat().begin());
    hook->on_linear(id, xs, w, ys, p.segs[s].pass_index,
                    p.pos[static_cast<size_t>(p.first[s])]);
    std::copy(ys.flat().begin(), ys.flat().end(), yseg.begin());
  }
  return y;
}

tn::Tensor InferenceModel::dense_mlp(const Pass& p, BlockStorage& blk,
                                     int block_idx, const tn::Tensor& h) {
  tn::Tensor g =
      linear(p, blk.mlp[0], h, {block_idx, nn::LayerKind::GateProj, -1});
  tn::Tensor u =
      linear(p, blk.mlp[1], h, {block_idx, nn::LayerKind::UpProj, -1});
  tn::silu_inplace(g);
  tn::mul_inplace(g, u);
  round_activations(g);
  return linear(p, blk.mlp[2], g, {block_idx, nn::LayerKind::DownProj, -1});
}

tn::Tensor InferenceModel::moe_mlp(const Pass& p, BlockStorage& blk,
                                   int block_idx, const tn::Tensor& h) {
  const int n_experts = config_.n_experts;
  const int top_k = config_.top_k;
  tn::Tensor router_logits =
      linear(p, blk.router[0], h, {block_idx, nn::LayerKind::Router, -1});

  // Router softmax, top-k and every expert linear run per row on
  // single-token views, at the row's absolute position.
  tn::Tensor out({h.rows(), h.cols()});
  std::vector<float> probs(static_cast<size_t>(n_experts));
  std::vector<int> order(static_cast<size_t>(n_experts));
  std::vector<int> chosen;
  for (tn::Index t = 0; t < h.rows(); ++t) {
    const int row = static_cast<int>(t);
    auto lrow = router_logits.row(t);
    std::copy(lrow.begin(), lrow.end(), probs.begin());
    softmax_span(probs);
    for (int e = 0; e < n_experts; ++e) order[static_cast<size_t>(e)] = e;
    std::partial_sort(order.begin(), order.begin() + top_k, order.end(),
                      [&probs](int a, int b) {
                        return probs[static_cast<size_t>(a)] >
                               probs[static_cast<size_t>(b)];
                      });
    chosen.assign(order.begin(), order.begin() + top_k);
    if (expert_obs_ != nullptr) {
      expert_obs_->on_expert_selection(block_idx,
                                       p.pos[static_cast<size_t>(t)], chosen);
    }
    float mass = 0.0f;
    for (int e : chosen) mass += probs[static_cast<size_t>(e)];
    if (mass <= 0.0f) mass = 1.0f;

    tn::Tensor hrow({1, h.cols()});
    auto hsrc = h.row(t);
    std::copy(hsrc.begin(), hsrc.end(), hrow.row(0).begin());

    auto orow = out.row(t);
    for (int rank = 0; rank < top_k; ++rank) {
      const int e = chosen[static_cast<size_t>(rank)];
      auto& ex = blk.experts[static_cast<size_t>(e)];
      const float weight = probs[static_cast<size_t>(e)] / mass;
      tn::Tensor g = linear(p, ex.gate, hrow,
                            {block_idx, nn::LayerKind::ExpertGate, e}, row);
      tn::Tensor u = linear(p, ex.up, hrow,
                            {block_idx, nn::LayerKind::ExpertUp, e}, row);
      tn::silu_inplace(g);
      tn::mul_inplace(g, u);
      round_activations(g);
      tn::Tensor d = linear(p, ex.down, g,
                            {block_idx, nn::LayerKind::ExpertDown, e}, row);
      auto drow = d.row(0);
      for (tn::Index j = 0; j < h.cols(); ++j) orow[j] += weight * drow[j];
    }
  }
  round_activations(out);
  return out;
}

tn::Tensor InferenceModel::run_segments(std::span<Segment> segs,
                                        bool batched) {
  assert(!segs.empty());
  const tn::Index d = config_.d_model;
  Pass p{.segs = segs, .first = {0}, .seg_of = {}, .pos = {},
         .batched = batched};
  // Positions are captured once: the appends below do not advance the
  // caches until the pass ends.
  for (size_t s = 0; s < segs.size(); ++s) {
    assert(!segs[s].tokens.empty());
    const auto start = static_cast<int>(segs[s].cache->length());
    for (size_t t = 0; t < segs[s].tokens.size(); ++t) {
      p.seg_of.push_back(static_cast<int>(s));
      p.pos.push_back(start + static_cast<int>(t));
    }
    p.first.push_back(static_cast<tn::Index>(p.pos.size()));
  }
  const auto n_rows = static_cast<tn::Index>(p.pos.size());

  tn::Tensor x({n_rows, d});
  tn::Index row = 0;
  for (const auto& seg : segs) {
    for (const tok::TokenId id : seg.tokens) {
      assert(id >= 0 && id < config_.vocab_size);
      auto src = embedding_.row(id);
      std::copy(src.begin(), src.end(), x.row(row++).begin());
    }
  }

  bool hooked = false;
  for (const auto& seg : segs) hooked = hooked || seg.hook != nullptr;
  // An armed shard hook disables fusion even where it does not fire: tp
  // faults need the unfused per-layer dispatch inside the down
  // projection. Quantized weights keep the fast tiers on the integer
  // qmatmul path rather than the fused fp32 product.
  const bool fuse = !hooked && shard_hook_ == nullptr &&
                    prec_.act_dtype == num::DType::F32 &&
                    !num::is_quantized_dtype(prec_.weight_dtype);
  std::vector<nn::KvView> kviews(segs.size());
  std::vector<nn::KvView> vviews(segs.size());
  for (int b = 0; b < config_.n_layers; ++b) {
    auto& blk = blocks_[static_cast<size_t>(b)];
    {
      obs::TraceScope attn_span("attn", b);
      tn::Tensor q, k, v;
      if (fuse) {
        qkv_fused(blk, x, &q, &k, &v);
      } else {
        tn::Tensor h = tn::rmsnorm_rows(x, blk.norm1, config_.norm_eps);
        round_activations(h);
        q = linear(p, blk.wq, h, {b, nn::LayerKind::QProj, -1});
        k = linear(p, blk.wk, h, {b, nn::LayerKind::KProj, -1});
        v = linear(p, blk.wv, h, {b, nn::LayerKind::VProj, -1});
      }
      nn::apply_rope_rows(q, config_.n_heads, p.pos, config_.rope_theta);
      nn::apply_rope_rows(k, config_.n_heads, p.pos, config_.rope_theta);
      for (size_t s = 0; s < segs.size(); ++s) {
        const auto off = static_cast<size_t>(p.first[s] * d);
        const auto len =
            static_cast<size_t>((p.first[s + 1] - p.first[s]) * d);
        segs[s].cache->append_rows(b, k.flat().subspan(off, len),
                                   v.flat().subspan(off, len));
      }
      // Views are captured once on the calling thread, after every append (a
      // paged append may have acquired or copy-on-write-remapped pages);
      // shards then read them concurrently.
      for (size_t s = 0; s < segs.size(); ++s) {
        kviews[s] = segs[s].cache->key_view(b);
        vviews[s] = segs[s].cache->value_view(b);
      }
      tn::Tensor attn({n_rows, d});
      const auto attend_heads = [&](int h0, int h1) {
        std::vector<float> scores;
        for (tn::Index t = 0; t < n_rows; ++t) {
          const auto r = static_cast<size_t>(t);
          const auto s = static_cast<size_t>(p.seg_of[r]);
          // Causal: a row attends over positions 0..its own.
          attend_row(q.row(t), attn.row(t), kviews[s], vviews[s],
                     static_cast<tn::Index>(p.pos[r]) + 1, h0, h1,
                     config_.d_head(), scores);
        }
      };
      if (group_ == nullptr || group_->size() < 2) {
        attend_heads(0, config_.n_heads);
      } else {
        // Head-parallel: shard s computes heads [hb[s], hb[s+1]) of every
        // row — per-head math is untouched, so the split is bit-exact.
        const std::vector<int> hb =
            shard::head_bounds(config_.n_heads, group_->size());
        group_->run([&](int s) {
          attend_heads(hb[static_cast<size_t>(s)],
                       hb[static_cast<size_t>(s) + 1]);
        });
      }
      round_activations(attn);
      tn::Tensor o = linear(p, blk.wo, attn, {b, nn::LayerKind::OProj, -1});
      tn::add_inplace(x, o);
    }

    {
      obs::TraceScope ffn_span("ffn", b);
      tn::Tensor m;
      if (fuse && !config_.moe) {
        m = dense_mlp_fused(blk, b, x);
      } else {
        tn::Tensor h2 = tn::rmsnorm_rows(x, blk.norm2, config_.norm_eps);
        round_activations(h2);
        m = config_.moe ? moe_mlp(p, blk, b, h2) : dense_mlp(p, blk, b, h2);
      }
      tn::add_inplace(x, m);
    }
  }
  for (auto& seg : segs) {
    seg.cache->advance(static_cast<tn::Index>(seg.tokens.size()));
  }

  tn::Tensor xf = tn::rmsnorm_rows(x, final_norm_, config_.norm_eps);
  round_activations(xf);
  tn::Tensor logits = tn::matmul_bt(xf, embedding_);
  for (tn::Index t = 0; t < n_rows; ++t) {
    auto& seg = segs[static_cast<size_t>(p.seg_of[static_cast<size_t>(t)])];
    for (float v2 : logits.row(t)) {
      if (!std::isfinite(v2)) {
        seg.nonfinite = true;
        break;
      }
    }
  }
  return logits;
}

tn::Tensor InferenceModel::forward(std::span<const tok::TokenId> tokens,
                                   nn::KvCache& cache, int pass_index) {
  Segment seg{.tokens = tokens,
              .cache = &cache,
              .pass_index = pass_index,
              .hook = hook_,
              .nonfinite = false};
  tn::Tensor logits = run_segments({&seg, 1}, /*batched=*/false);
  if (seg.nonfinite) saw_nonfinite_logits_ = true;
  return logits;
}

tn::Tensor InferenceModel::forward_batch(std::span<BatchRow> rows) {
  std::vector<Segment> segs;
  segs.reserve(rows.size());
  for (auto& r : rows) {
    segs.push_back({.tokens = {&r.token, 1},
                    .cache = r.cache,
                    .pass_index = r.pass_index,
                    .hook = r.hook,
                    .nonfinite = false});
  }
  tn::Tensor logits = run_segments(segs, /*batched=*/true);
  for (size_t r = 0; r < rows.size(); ++r) {
    if (segs[r].nonfinite) rows[r].nonfinite = true;
  }
  return logits;
}

}  // namespace llmfi::model

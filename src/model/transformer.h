#pragma once
// The inference engine: a Llama-architecture decoder-only transformer
// (Fig 1 of the paper) with reduced-precision weight storage, an
// activation-rounding pipeline, KV-cached autoregressive decoding, and
// the hook surface used by the fault injector and detectors.

#include <memory>
#include <span>
#include <vector>

#include "model/config.h"
#include "model/weights.h"
#include "nn/hooks.h"
#include "nn/kv_cache.h"
#include "nn/layer_id.h"
#include "nn/weight_matrix.h"
#include "shard/shard_group.h"
#include "tokenizer/vocab.h"

namespace llmfi::model {

class InferenceModel {
 public:
  // Builds dtype-typed weight storage from fp32 master weights. The
  // engine keeps no reference to `w` afterwards.
  InferenceModel(const ModelWeights& w, const PrecisionConfig& prec);

  // Copying would silently leave linear_layers() pointing into the
  // source engine; replicate explicitly with clone() instead. Moves are
  // fine: the weight storage lives on vector heap buffers, so the
  // registry pointers stay valid.
  InferenceModel(const InferenceModel&) = delete;
  InferenceModel& operator=(const InferenceModel&) = delete;
  InferenceModel(InferenceModel&&) = default;
  InferenceModel& operator=(InferenceModel&&) = default;

  // Deep replica with private weight buffers (the parallel campaign's
  // per-worker engines: WeightCorruption and the linear hook never touch
  // another worker's storage). Copies the dtype-exact storage bit-for-bit
  // — no re-rounding — so a replica's outputs are bit-identical to the
  // source's. Hooks and diagnostics start clean.
  InferenceModel clone() const;

  const ModelConfig& config() const { return config_; }
  const PrecisionConfig& precision() const { return prec_; }

  nn::KvCache make_cache() const;
  // Paged variant: the cache draws its rows from `pool` (shared with
  // every other sequence on the same budget). Bit-identical numerics to
  // the contiguous layout — only the storage map differs.
  nn::KvCache make_cache(std::shared_ptr<nn::PagePool> pool) const;

  // Runs the model over `tokens` (appended after whatever the cache
  // already holds) and returns logits [tokens.size(), vocab].
  // `pass_index` identifies this forward pass within the current
  // inference (prefill = 0, decode steps = 1, 2, ...); it is forwarded to
  // hooks so computational faults can target one generation iteration.
  // Fires the engine-level surfaces: set_linear_hook() (on the whole
  // [tokens, n] x/y, row_offset = the cache's prior length),
  // set_shard_hook(), and saw_nonfinite_logits().
  tn::Tensor forward(std::span<const tok::TokenId> tokens, nn::KvCache& cache,
                     int pass_index);

  // --- batched decode ----------------------------------------------------
  // One active sequence's slice of a batched decode pass. Each row brings
  // its own KV cache (so its attention context is private), its own
  // per-sequence pass index, and optionally its own fault hook (serve
  // scopes fault arming to the owning request's row this way).
  // `nonfinite` is an output: set if this row's logits contained NaN/inf.
  struct BatchRow {
    nn::KvCache* cache = nullptr;
    tok::TokenId token = 0;
    int pass_index = 0;
    nn::LinearHook* hook = nullptr;
    bool nonfinite = false;
  };

  // Runs ONE decode pass — one new token per sequence — over all rows at
  // once and returns logits [rows.size(), vocab]. It is the same segment
  // pass forward() runs, with one segment per row: every op treats rows
  // independently with a fixed per-row reduction order, so row r's logits
  // are bit-identical to what forward({rows[r].token}, *rows[r].cache,
  // rows[r].pass_index) would produce with rows[r].hook installed — for
  // any batch size or row order. Appends one position to (and advances)
  // every row's cache.
  //
  // Per-row semantics replace the engine-level surfaces here: the
  // engine's set_linear_hook() and shard hook are NOT fired (each row's
  // rows[r].hook is, with that row's pass_index and position, on that
  // row's [1, n] x/y exactly as sequential decode shows it), and nonfinite
  // logits set rows[r].nonfinite instead of saw_nonfinite_logits().
  tn::Tensor forward_batch(std::span<BatchRow> rows);

  // --- tensor parallelism ------------------------------------------------
  // Shards the per-block projections and attention across `n` threads
  // (DESIGN.md §14): qkv/gate/up column-parallel, attention by head
  // ranges, attn-out/down row-parallel on the fixed segment grid.
  // Outputs are byte-identical to TP=1 at every kernel tier — the
  // reduction order is pinned by the segmented-product contract, so TP
  // only changes wall-clock time, never bits. n <= 1 (the default)
  // releases the worker pool. Quantized weight storage keeps TP at 1
  // (the grouped-int product has no sharded form); a warning is printed
  // once per engine.
  void set_tensor_parallel(int n);
  int tensor_parallel() const { return tp_; }

  // Injection surface inside the row-parallel products (tp-partial /
  // tp-reduce fault models). While armed, fused paths are disabled and
  // the partial-sum reduction runs serially so every tree level is
  // observable; outputs without an injecting hook remain byte-identical.
  // Fired only by forward() — tp-fault campaigns fall back to
  // sequential trials, like detection does.
  void set_shard_hook(nn::ShardHook* hook) { shard_hook_ = hook; }
  nn::ShardHook* shard_hook() const { return shard_hook_; }

  // --- hook surface ----------------------------------------------------
  void set_linear_hook(nn::LinearHook* hook) { hook_ = hook; }
  nn::LinearHook* linear_hook() const { return hook_; }
  void set_expert_observer(nn::ExpertObserver* obs) { expert_obs_ = obs; }

  // --- fault-injection target enumeration -------------------------------
  struct LinearRef {
    nn::LinearId id;
    nn::WeightMatrix* weights;
  };
  // Every linear layer inside the transformer blocks (the paper's FI
  // scope: embedding and the LM head are excluded).
  std::span<LinearRef> linear_layers() { return linear_refs_; }

  // --- diagnostics -------------------------------------------------------
  // True if any logit produced since the last reset was NaN/inf (an input
  // signal to the distorted-output classifier).
  bool saw_nonfinite_logits() const { return saw_nonfinite_logits_; }
  void reset_diagnostics() { saw_nonfinite_logits_ = false; }

 private:
  InferenceModel() = default;  // empty shell filled by clone()

  struct ExpertStorage {
    nn::WeightMatrix gate, up, down;
  };
  struct BlockStorage {
    tn::Tensor norm1, norm2;
    nn::WeightMatrix wq, wk, wv, wo;
    // Dense path:
    std::vector<nn::WeightMatrix> mlp;  // gate, up, down
    // MoE path:
    std::vector<nn::WeightMatrix> router;  // singleton when MoE
    std::vector<ExpertStorage> experts;
  };

  void build_linear_refs();

  // The weight product behind every linear layer: dispatches on the
  // active kernel tier (tensor/kernels.h). On the fast tiers, quantized
  // weights route through quant::qmatmul_bt — the int8/int4 payloads are
  // consumed directly, no dequantized fp32 matrix in the product. The
  // Reference tier always reads w.values() so campaign numerics stay on
  // the naive oracle loop.
  tn::Tensor project(const nn::WeightMatrix& w, const tn::Tensor& x) const;
  // project() with the tensor-parallel split applied by layer kind:
  // OProj/DownProj go through the segmented row-parallel product (which
  // also fires `shard_hook` when non-null), the other block projections
  // are column-parallel when a group is attached, and everything else
  // (router, experts, quantized fast-tier products) stays replicated.
  tn::Tensor project_tp(const nn::WeightMatrix& w, const tn::Tensor& x,
                        const nn::LinearId& id, int pass_index,
                        int row_offset, nn::ShardHook* shard_hook);
  // Fused norm1 + wq/wk/wv input projections for one pass.
  void qkv_fused(BlockStorage& blk, const tn::Tensor& x, tn::Tensor* q,
                 tn::Tensor* k, tn::Tensor* v) const;
  // Fused norm2 + gate/up, then SiLU-gate and the down projection.
  tn::Tensor dense_mlp_fused(BlockStorage& blk, int block_idx,
                             const tn::Tensor& x);

  // --- the segment pass (DESIGN.md §10) --------------------------------
  // One sequence's rows in a pass: its tokens (1 for decode, the whole
  // prompt for prefill), its cache, its pass index and its hook.
  // forward() runs one segment carrying the engine hook; forward_batch()
  // runs one segment per BatchRow. `nonfinite` is an output.
  struct Segment {
    std::span<const tok::TokenId> tokens;
    nn::KvCache* cache = nullptr;
    int pass_index = 0;
    nn::LinearHook* hook = nullptr;
    bool nonfinite = false;
  };
  // Row bookkeeping of one pass, shared by every step of run_segments().
  struct Pass {
    std::span<Segment> segs;
    std::vector<tn::Index> first;  // segs[s] owns rows [first[s], first[s+1])
    std::vector<int> seg_of;       // owning segment of each row
    std::vector<int> pos;          // absolute token position of each row
    // From forward_batch(): hook calls get per-segment row scopes, and
    // the engine shard hook does not fire.
    bool batched = false;
  };
  // The single decoder pass behind forward() and forward_batch().
  // norm1/norm2 fuse with their input projections exactly when nothing
  // observes the normalized intermediate and rounding is a no-op: no
  // segment hook, no shard hook, fp32 activations, unquantized weights
  // (the fusion is bit-identical to the unfused pair at every kernel
  // tier, so eligibility is about observability, not numerics).
  tn::Tensor run_segments(std::span<Segment> segs, bool batched);
  // The one linear dispatch: product, activation rounding, then each
  // hooked segment's hook on its own rows. When x holds exactly one
  // segment's rows — a single-segment pass, or the single pass row `row`
  // of the MoE expert path — the hook sees x and y themselves; otherwise
  // each hooked segment's rows are copied out to its hook and back, so
  // the hook sees the same shapes, pass_index and row_offset as in a
  // pass of its own.
  tn::Tensor linear(const Pass& p, const nn::WeightMatrix& w,
                    const tn::Tensor& x, const nn::LinearId& id,
                    int row = -1);
  tn::Tensor dense_mlp(const Pass& p, BlockStorage& blk, int block_idx,
                       const tn::Tensor& h);
  tn::Tensor moe_mlp(const Pass& p, BlockStorage& blk, int block_idx,
                     const tn::Tensor& h);
  void round_activations(tn::Tensor& x) const;

  ModelConfig config_;
  PrecisionConfig prec_;
  tn::Tensor embedding_;   // rounded through act dtype; FI-excluded
  tn::Tensor final_norm_;  // fp32
  std::vector<BlockStorage> blocks_;
  std::vector<LinearRef> linear_refs_;

  nn::LinearHook* hook_ = nullptr;
  nn::ExpertObserver* expert_obs_ = nullptr;
  nn::ShardHook* shard_hook_ = nullptr;
  bool saw_nonfinite_logits_ = false;

  // Tensor-parallel state: group_ is live iff tp_ > 1. unique_ptr keeps
  // the engine movable (ShardGroup owns threads and is not).
  int tp_ = 1;
  std::unique_ptr<shard::ShardGroup> group_;
};

}  // namespace llmfi::model

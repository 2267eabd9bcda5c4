#pragma once
// Per-block key/value cache for autoregressive decoding.

#include <memory>
#include <span>
#include <vector>

#include "nn/kv_page.h"
#include "tensor/tensor.h"

namespace llmfi::nn {

// Read-only view over one block's cached K (or V) rows, produced by
// KvCache::key_view()/value_view(). row(pos) branches once on the
// layout: contiguous caches resolve to base + pos*stride, paged caches
// indirect through the block's page table. A view is valid until the
// next mutating call on the owning cache (append/fork/truncate can
// remap paged storage via copy-on-write).
struct KvView {
  const float* base = nullptr;       // contiguous: block storage
  const float* pool_base = nullptr;  // paged: K or V plane of the pool
  const int* pages = nullptr;        // paged: block page table
  tn::Index stride = 0;              // d_model
  tn::Index page_rows = 0;           // paged: rows per page

  const float* row(tn::Index pos) const {
    if (base != nullptr) return base + pos * stride;
    const auto page = static_cast<std::size_t>(pages[pos / page_rows]);
    return pool_base + (page * static_cast<std::size_t>(page_rows) +
                        static_cast<std::size_t>(pos % page_rows)) *
                           static_cast<std::size_t>(stride);
  }
};

class KvCache {
 public:
  // Storage invariant, per layout:
  //  - Contiguous (no pool): every per-block tensor is allocated at its
  //    full [max_seq, d_model] size up front and never resized, so row
  //    pointers stay stable for the cache's whole lifetime and a retired
  //    serve slot reuses its cache via reset() instead of reconstructing
  //    it. This is the bit-exact oracle layout.
  //  - Paged (pool given): rows live in pool pages addressed through a
  //    per-block page table. Pointers are stable *per page* while the
  //    page is held — never across a whole block — and a write into a
  //    shared page first remaps it via copy-on-write. Pages return to
  //    the pool on truncate()/reset()/destruction.
  // Both layouts store the same values in the same row order, so the
  // attention reduction (KvView::row) is bit-identical either way.
  KvCache(int n_blocks, tn::Index max_seq, tn::Index d_model);
  // Paged layout: rows are backed by `pool` (whose d_model must match).
  KvCache(int n_blocks, tn::Index max_seq, tn::Index d_model,
          std::shared_ptr<PagePool> pool);

  // Copying a paged cache shares every page (refcounted); copy-on-write
  // keeps the copies independent from the first divergent write. Needed
  // by beam search, which clones the prompt cache per beam.
  KvCache(const KvCache& other);
  KvCache& operator=(const KvCache& other);
  KvCache(KvCache&& other) noexcept;
  KvCache& operator=(KvCache&& other) noexcept;
  ~KvCache();

  // Appends the rows of k/v (shape [new_tokens, d_model]) for `block`.
  // Throws std::invalid_argument on shape mismatch or overflow past
  // max_seq (checked in every build type, not assert-only).
  void append(int block, const tn::Tensor& k, const tn::Tensor& v);

  // Single-row append: k/v are one token's [d_model] span for `block`.
  // Identical effect to append() with 1-row tensors, without
  // materializing them.
  void append_row(int block, std::span<const float> k,
                  std::span<const float> v);

  // The body of both appends: k/v hold whole [d_model] rows, row-major
  // (one sequence's rows of a segment pass).
  void append_rows(int block, std::span<const float> k,
                   std::span<const float> v);

  // Whole-matrix access to one block's cached keys/values. Contiguous
  // layout only (paged rows are not one tensor); throws std::logic_error
  // on a paged cache. The engine uses key_view()/value_view() instead.
  const tn::Tensor& keys(int block) const;
  const tn::Tensor& values(int block) const;

  // Layout-independent row access for the attention kernel.
  KvView key_view(int block) const;
  KvView value_view(int block) const;

  // Scalar element access in either layout (pos < length()). The
  // setters are the kv-bit fault-injection surface and are COW-aware:
  // writing into a shared page isolates this cache first, so corrupting
  // a forked sequence never touches the baseline snapshot it forked
  // from.
  float key_at(int block, tn::Index pos, tn::Index dim) const;
  float value_at(int block, tn::Index pos, tn::Index dim) const;
  void set_key_at(int block, tn::Index pos, tn::Index dim, float value);
  void set_value_at(int block, tn::Index pos, tn::Index dim, float value);

  tn::Index length() const { return length_; }
  // Marks `new_tokens` more positions valid (call once per forward pass,
  // after all blocks appended).
  void advance(tn::Index new_tokens) { length_ += new_tokens; }
  // Rolls the valid length back to `new_length` (<= length()); the rows
  // beyond become junk again and the next append overwrites them. This
  // is the rewind primitive of pass-level fault recovery: truncate to the
  // pre-pass length, then recompute the pass. Paged caches release the
  // pages past the new boundary back to the pool.
  void truncate(tn::Index new_length);
  // Empties the cache. Contiguous: keeps the storage (serve slot reuse).
  // Paged: releases every page back to the pool.
  void reset();

  // True if fork_from(src, ...) would be shape-safe: same block count,
  // max_seq, and d_model (compared via the constructor geometry, so
  // zero-block caches with different d_model are correctly rejected). A
  // mismatch means the snapshot was captured on a differently-shaped
  // engine — forking would produce shape-valid-but-wrong caches, so
  // callers use this to fall back to a full recompute.
  bool fork_compatible(const KvCache& src) const;

  // Makes this cache hold exactly the first `prefix_len` rows of every
  // block of `src`. The cache is append-only, so src's *final* state
  // contains every intermediate pass state as a prefix — this is the
  // prefix-reuse primitive that lets a transient-fault trial skip the
  // passes it shares with the fault-free baseline (DESIGN.md §9).
  // Paged-to-paged forks on the same pool alias the full prefix pages
  // (O(n_pages) refcount bumps) and deep-copy only the partially filled
  // boundary page; any other layout combination falls back to a row
  // copy. Self-fork (fork_from(*this, n)) is valid in both layouts.
  // Throws std::invalid_argument on shape mismatch (fork_compatible) or
  // prefix_len outside [0, src.length()].
  void fork_from(const KvCache& src, tn::Index prefix_len);

  tn::Index max_seq() const { return max_seq_; }
  int n_blocks() const { return n_blocks_; }
  tn::Index d_model() const { return d_model_; }

  bool paged() const { return pool_ != nullptr; }
  const std::shared_ptr<PagePool>& pool() const { return pool_; }
  // Pages currently held across all blocks (0 for contiguous caches).
  int pages_held() const;

 private:
  // Paged helpers. ensure_page grows block `b`'s table to cover
  // `page_idx` (acquiring from the pool); ensure_writable remaps a
  // shared page via copy-on-write. Both return the resolved page id.
  int ensure_page(int block, tn::Index page_idx);
  int ensure_writable(int block, tn::Index page_idx);
  void write_row(int block, tn::Index pos, std::span<const float> k,
                 std::span<const float> v);
  void release_all();
  void add_ref_all();
  [[noreturn]] static void throw_pool_dry();

  int n_blocks_ = 0;
  tn::Index max_seq_ = 0;
  tn::Index d_model_ = 0;
  tn::Index length_ = 0;
  // Contiguous layout: [max_seq, d_model] tensors; rows beyond length()
  // are junk. Empty in paged mode.
  std::vector<tn::Tensor> k_;
  std::vector<tn::Tensor> v_;
  // Paged layout: pool + one page table per block. Null/empty in
  // contiguous mode.
  std::shared_ptr<PagePool> pool_;
  std::vector<std::vector<int>> pages_;
};

}  // namespace llmfi::nn

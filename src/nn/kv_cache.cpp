#include "nn/kv_cache.h"

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <utility>

namespace llmfi::nn {

namespace {

void check_block(int block, int n_blocks) {
  if (block < 0 || block >= n_blocks) {
    throw std::invalid_argument("KvCache: block index out of range");
  }
}

}  // namespace

KvCache::KvCache(int n_blocks, tn::Index max_seq, tn::Index d_model)
    : n_blocks_(n_blocks), max_seq_(max_seq), d_model_(d_model) {
  k_.reserve(static_cast<size_t>(n_blocks));
  v_.reserve(static_cast<size_t>(n_blocks));
  for (int b = 0; b < n_blocks; ++b) {
    k_.emplace_back(tn::Tensor({max_seq, d_model}));
    v_.emplace_back(tn::Tensor({max_seq, d_model}));
  }
}

KvCache::KvCache(int n_blocks, tn::Index max_seq, tn::Index d_model,
                 std::shared_ptr<PagePool> pool)
    : n_blocks_(n_blocks),
      max_seq_(max_seq),
      d_model_(d_model),
      pool_(std::move(pool)) {
  if (!pool_) {
    throw std::invalid_argument("KvCache: paged constructor needs a pool");
  }
  if (pool_->d_model() != d_model_) {
    throw std::invalid_argument("KvCache: pool d_model mismatch");
  }
  pages_.resize(static_cast<size_t>(n_blocks));
}

KvCache::KvCache(const KvCache& other)
    : n_blocks_(other.n_blocks_),
      max_seq_(other.max_seq_),
      d_model_(other.d_model_),
      length_(other.length_),
      k_(other.k_),
      v_(other.v_),
      pool_(other.pool_),
      pages_(other.pages_) {
  add_ref_all();
}

KvCache& KvCache::operator=(const KvCache& other) {
  if (this == &other) return *this;
  KvCache tmp(other);
  *this = std::move(tmp);
  return *this;
}

KvCache::KvCache(KvCache&& other) noexcept
    : n_blocks_(other.n_blocks_),
      max_seq_(other.max_seq_),
      d_model_(other.d_model_),
      length_(other.length_),
      k_(std::move(other.k_)),
      v_(std::move(other.v_)),
      pool_(std::move(other.pool_)),
      pages_(std::move(other.pages_)) {
  other.pages_.clear();
  other.length_ = 0;
}

KvCache& KvCache::operator=(KvCache&& other) noexcept {
  if (this == &other) return *this;
  release_all();
  n_blocks_ = other.n_blocks_;
  max_seq_ = other.max_seq_;
  d_model_ = other.d_model_;
  length_ = other.length_;
  k_ = std::move(other.k_);
  v_ = std::move(other.v_);
  pool_ = std::move(other.pool_);
  pages_ = std::move(other.pages_);
  other.pages_.clear();
  other.length_ = 0;
  return *this;
}

KvCache::~KvCache() { release_all(); }

void KvCache::release_all() {
  if (!pool_) return;
  for (auto& table : pages_) {
    for (int page : table) pool_->release(page);
    table.clear();
  }
}

void KvCache::add_ref_all() {
  if (!pool_) return;
  for (const auto& table : pages_) {
    for (int page : table) pool_->add_ref(page);
  }
}

void KvCache::throw_pool_dry() {
  throw std::runtime_error(
      "KvCache: page pool exhausted (raise --kv-pages / LLMFI_KV_PAGES)");
}

int KvCache::ensure_page(int block, tn::Index page_idx) {
  auto& table = pages_[static_cast<size_t>(block)];
  while (static_cast<tn::Index>(table.size()) <= page_idx) {
    const int page = pool_->acquire();
    if (page < 0) throw_pool_dry();
    table.push_back(page);
  }
  return table[static_cast<size_t>(page_idx)];
}

int KvCache::ensure_writable(int block, tn::Index page_idx) {
  auto& table = pages_[static_cast<size_t>(block)];
  const int page = table[static_cast<size_t>(page_idx)];
  if (pool_->ref_count(page) <= 1) return page;
  // Copy-on-write: the page is shared with a fork/copy of this cache.
  // Privatize it before the write so the other owners keep reading the
  // original rows. (A concurrent owner dropping its ref just makes this
  // copy unnecessary, never wrong.)
  const int fresh = pool_->acquire();
  if (fresh < 0) throw_pool_dry();
  const std::size_t elems = static_cast<std::size_t>(pool_->page_rows()) *
                            static_cast<std::size_t>(d_model_);
  std::copy(pool_->key_page(page), pool_->key_page(page) + elems,
            pool_->key_page(fresh));
  std::copy(pool_->value_page(page), pool_->value_page(page) + elems,
            pool_->value_page(fresh));
  table[static_cast<size_t>(page_idx)] = fresh;
  pool_->release(page);
  return fresh;
}

void KvCache::write_row(int block, tn::Index pos, std::span<const float> k,
                        std::span<const float> v) {
  const tn::Index pr = pool_->page_rows();
  const tn::Index page_idx = pos / pr;
  ensure_page(block, page_idx);
  const int page = ensure_writable(block, page_idx);
  const std::size_t off = static_cast<std::size_t>(pos % pr) *
                          static_cast<std::size_t>(d_model_);
  std::copy(k.begin(), k.end(), pool_->key_page(page) + off);
  std::copy(v.begin(), v.end(), pool_->value_page(page) + off);
}

void KvCache::append(int block, const tn::Tensor& k, const tn::Tensor& v) {
  if (k.rows() != v.rows() || k.cols() != d_model_ || v.cols() != d_model_) {
    throw std::invalid_argument(
        "KvCache::append: k/v shape mismatch (expect [*, d_model])");
  }
  append_rows(block, k.flat(), v.flat());
}

void KvCache::append_row(int block, std::span<const float> k,
                         std::span<const float> v) {
  if (static_cast<tn::Index>(k.size()) != d_model_ ||
      static_cast<tn::Index>(v.size()) != d_model_) {
    throw std::invalid_argument(
        "KvCache::append_row: k/v size mismatch (expect d_model)");
  }
  append_rows(block, k, v);
}

void KvCache::append_rows(int block, std::span<const float> k,
                          std::span<const float> v) {
  check_block(block, n_blocks_);
  const auto d = static_cast<size_t>(d_model_);
  if (k.size() != v.size() || d == 0 || k.size() % d != 0) {
    throw std::invalid_argument(
        "KvCache::append_rows: k/v size mismatch (expect whole d_model rows)");
  }
  const auto n = static_cast<tn::Index>(k.size() / d);
  if (length_ + n > max_seq_) {
    throw std::invalid_argument(
        "KvCache overflow: sequence exceeds max_seq");
  }
  for (tn::Index t = 0; t < n; ++t) {
    const auto krow = k.subspan(static_cast<size_t>(t) * d, d);
    const auto vrow = v.subspan(static_cast<size_t>(t) * d, d);
    if (pool_) {
      write_row(block, length_ + t, krow, vrow);
      continue;
    }
    // Rows are contiguous on both sides: one memcpy-able span copy each.
    std::copy(krow.begin(), krow.end(),
              k_[static_cast<size_t>(block)].row(length_ + t).begin());
    std::copy(vrow.begin(), vrow.end(),
              v_[static_cast<size_t>(block)].row(length_ + t).begin());
  }
}

const tn::Tensor& KvCache::keys(int block) const {
  if (pool_) {
    throw std::logic_error(
        "KvCache::keys: contiguous layout only (use key_view)");
  }
  return k_.at(static_cast<size_t>(block));
}

const tn::Tensor& KvCache::values(int block) const {
  if (pool_) {
    throw std::logic_error(
        "KvCache::values: contiguous layout only (use value_view)");
  }
  return v_.at(static_cast<size_t>(block));
}

KvView KvCache::key_view(int block) const {
  check_block(block, n_blocks_);
  KvView view;
  view.stride = d_model_;
  if (pool_) {
    view.pool_base = pool_->key_base();
    view.pages = pages_[static_cast<size_t>(block)].data();
    view.page_rows = pool_->page_rows();
  } else {
    view.base = k_[static_cast<size_t>(block)].flat().data();
  }
  return view;
}

KvView KvCache::value_view(int block) const {
  check_block(block, n_blocks_);
  KvView view;
  view.stride = d_model_;
  if (pool_) {
    view.pool_base = pool_->value_base();
    view.pages = pages_[static_cast<size_t>(block)].data();
    view.page_rows = pool_->page_rows();
  } else {
    view.base = v_[static_cast<size_t>(block)].flat().data();
  }
  return view;
}

float KvCache::key_at(int block, tn::Index pos, tn::Index dim) const {
  check_block(block, n_blocks_);
  if (pos < 0 || pos >= length_ || dim < 0 || dim >= d_model_) {
    throw std::invalid_argument("KvCache::key_at: pos/dim out of range");
  }
  return key_view(block).row(pos)[dim];
}

float KvCache::value_at(int block, tn::Index pos, tn::Index dim) const {
  check_block(block, n_blocks_);
  if (pos < 0 || pos >= length_ || dim < 0 || dim >= d_model_) {
    throw std::invalid_argument("KvCache::value_at: pos/dim out of range");
  }
  return value_view(block).row(pos)[dim];
}

void KvCache::set_key_at(int block, tn::Index pos, tn::Index dim,
                         float value) {
  check_block(block, n_blocks_);
  if (pos < 0 || pos >= length_ || dim < 0 || dim >= d_model_) {
    throw std::invalid_argument("KvCache::set_key_at: pos/dim out of range");
  }
  if (pool_) {
    const int page = ensure_writable(block, pos / pool_->page_rows());
    pool_->key_page(page)[static_cast<std::size_t>(pos % pool_->page_rows()) *
                              static_cast<std::size_t>(d_model_) +
                          static_cast<std::size_t>(dim)] = value;
    return;
  }
  k_[static_cast<size_t>(block)].row(pos)[static_cast<size_t>(dim)] = value;
}

void KvCache::set_value_at(int block, tn::Index pos, tn::Index dim,
                           float value) {
  check_block(block, n_blocks_);
  if (pos < 0 || pos >= length_ || dim < 0 || dim >= d_model_) {
    throw std::invalid_argument(
        "KvCache::set_value_at: pos/dim out of range");
  }
  if (pool_) {
    const int page = ensure_writable(block, pos / pool_->page_rows());
    pool_->value_page(page)[static_cast<std::size_t>(
                                pos % pool_->page_rows()) *
                                static_cast<std::size_t>(d_model_) +
                            static_cast<std::size_t>(dim)] = value;
    return;
  }
  v_[static_cast<size_t>(block)].row(pos)[static_cast<size_t>(dim)] = value;
}

bool KvCache::fork_compatible(const KvCache& src) const {
  return src.n_blocks_ == n_blocks_ && src.max_seq_ == max_seq_ &&
         src.d_model_ == d_model_;
}

void KvCache::fork_from(const KvCache& src, tn::Index prefix_len) {
  if (!fork_compatible(src)) {
    throw std::invalid_argument(
        "KvCache::fork_from: block count / max_seq / d_model mismatch");
  }
  if (prefix_len < 0 || prefix_len > src.length_) {
    throw std::invalid_argument(
        "KvCache::fork_from: prefix_len outside [0, src.length()]");
  }
  if (&src == this) {
    // Self-fork: the prefix rows are already in place; just drop the
    // tail (releasing any pages past the boundary).
    truncate(prefix_len);
    return;
  }
  if (pool_ && src.pool_ == pool_) {
    // Paged aliasing fast path: share the fully covered prefix pages
    // (refcount bump per page, no row copies) and deep-copy only the
    // partially filled boundary page, which this sequence will keep
    // appending into. Boundary pages are acquired and filled before the
    // old tables are released, so exhaustion rolls back cleanly.
    const tn::Index pr = pool_->page_rows();
    const tn::Index full = prefix_len / pr;
    const tn::Index rem = prefix_len % pr;
    const std::size_t elems = static_cast<std::size_t>(pr) *
                              static_cast<std::size_t>(d_model_);
    std::vector<int> boundary;
    if (rem > 0) {
      boundary.reserve(static_cast<size_t>(n_blocks_));
      for (int b = 0; b < n_blocks_; ++b) {
        const int fresh = pool_->acquire();
        if (fresh < 0) {
          for (int page : boundary) pool_->release(page);
          throw_pool_dry();
        }
        const int sp =
            src.pages_[static_cast<size_t>(b)][static_cast<size_t>(full)];
        std::copy(pool_->key_page(sp), pool_->key_page(sp) + elems,
                  pool_->key_page(fresh));
        std::copy(pool_->value_page(sp), pool_->value_page(sp) + elems,
                  pool_->value_page(fresh));
        boundary.push_back(fresh);
      }
    }
    std::vector<std::vector<int>> fresh_tables(
        static_cast<size_t>(n_blocks_));
    for (int b = 0; b < n_blocks_; ++b) {
      const auto& st = src.pages_[static_cast<size_t>(b)];
      auto& table = fresh_tables[static_cast<size_t>(b)];
      table.reserve(static_cast<size_t>(full + (rem > 0 ? 1 : 0)));
      for (tn::Index p = 0; p < full; ++p) {
        const int page = st[static_cast<size_t>(p)];
        pool_->add_ref(page);
        table.push_back(page);
      }
      if (rem > 0) table.push_back(boundary[static_cast<size_t>(b)]);
    }
    release_all();
    pages_ = std::move(fresh_tables);
    length_ = prefix_len;
    return;
  }
  if (!pool_ && !src.pool_) {
    // Contiguous-to-contiguous: both caches store [max_seq, d_model]
    // row-major, so the first prefix_len rows of each block are one
    // contiguous span.
    const size_t n = static_cast<size_t>(prefix_len) *
                     static_cast<size_t>(d_model_);
    for (size_t b = 0; b < k_.size(); ++b) {
      auto ksrc = src.k_[b].flat();
      auto vsrc = src.v_[b].flat();
      std::copy(ksrc.begin(),
                ksrc.begin() + static_cast<std::ptrdiff_t>(n),
                k_[b].flat().begin());
      std::copy(vsrc.begin(),
                vsrc.begin() + static_cast<std::ptrdiff_t>(n),
                v_[b].flat().begin());
    }
    length_ = prefix_len;
    return;
  }
  // Mixed layouts (or distinct pools): generic row copy. Values are
  // identical either way — only the aliasing optimization is lost.
  if (pool_) release_all();
  length_ = 0;
  for (int b = 0; b < n_blocks_; ++b) {
    const KvView kv = src.key_view(b);
    const KvView vv = src.value_view(b);
    for (tn::Index pos = 0; pos < prefix_len; ++pos) {
      const std::span<const float> krow(kv.row(pos),
                                        static_cast<size_t>(d_model_));
      const std::span<const float> vrow(vv.row(pos),
                                        static_cast<size_t>(d_model_));
      if (pool_) {
        write_row(b, pos, krow, vrow);
      } else {
        auto kdst = k_[static_cast<size_t>(b)].row(pos);
        auto vdst = v_[static_cast<size_t>(b)].row(pos);
        std::copy(krow.begin(), krow.end(), kdst.begin());
        std::copy(vrow.begin(), vrow.end(), vdst.begin());
      }
    }
  }
  length_ = prefix_len;
}

void KvCache::truncate(tn::Index new_length) {
  if (new_length < 0 || new_length > length_) {
    throw std::invalid_argument("KvCache::truncate: bad length");
  }
  if (pool_) {
    const tn::Index keep = PagePool::pages_for(new_length,
                                               pool_->page_rows());
    for (auto& table : pages_) {
      while (static_cast<tn::Index>(table.size()) > keep) {
        pool_->release(table.back());
        table.pop_back();
      }
    }
  }
  length_ = new_length;
}

void KvCache::reset() {
  release_all();
  length_ = 0;
}

int KvCache::pages_held() const {
  int total = 0;
  for (const auto& table : pages_) {
    total += static_cast<int>(table.size());
  }
  return total;
}

}  // namespace llmfi::nn

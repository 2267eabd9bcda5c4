#include "core/tracer.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/injector.h"

namespace llmfi::core {

void LinearRecorder::on_linear_output(const nn::LinearId& id, tn::Tensor& y,
                                      int pass_index, int row_offset) {
  if (next_ != nullptr) next_->on_linear_output(id, y, pass_index, row_offset);
  record_(id, y);
}

void LinearRecorder::on_linear(const nn::LinearId& id, const tn::Tensor& x,
                               const nn::WeightMatrix& w, tn::Tensor& y,
                               int pass_index, int row_offset) {
  if (next_ != nullptr) next_->on_linear(id, x, w, y, pass_index, row_offset);
  record_(id, y);
}

std::vector<CapturedLayer> capture_layer_outputs(
    model::InferenceModel& m, std::span<const tok::TokenId> prompt) {
  std::vector<CapturedLayer> captured;
  LinearRecorder recorder(
      m.linear_hook(),
      [&captured](const nn::LinearId& id, const tn::Tensor& y) {
        captured.push_back({id, y});
      });
  LinearHookGuard guard(m, &recorder);
  auto cache = m.make_cache();
  (void)m.forward(prompt, cache, /*pass_index=*/0);
  return captured;
}

std::vector<LayerDiff> diff_captures(const std::vector<CapturedLayer>& clean,
                                     const std::vector<CapturedLayer>& faulty,
                                     float tol) {
  if (clean.size() != faulty.size()) {
    throw std::invalid_argument("diff_captures: capture length mismatch");
  }
  std::vector<LayerDiff> diffs;
  diffs.reserve(clean.size());
  for (size_t l = 0; l < clean.size(); ++l) {
    const auto& a = clean[l];
    const auto& b = faulty[l];
    if (!(a.id == b.id) || a.output.shape() != b.output.shape()) {
      throw std::invalid_argument("diff_captures: layer mismatch");
    }
    LayerDiff d;
    d.id = a.id;
    d.rows = a.output.rows();
    d.cols = a.output.cols();
    std::vector<bool> row_hit(static_cast<size_t>(d.rows), false);
    std::vector<bool> col_hit(static_cast<size_t>(d.cols), false);
    for (tn::Index i = 0; i < d.rows; ++i) {
      for (tn::Index j = 0; j < d.cols; ++j) {
        const float cv = a.output.at(i, j);
        const float fv = b.output.at(i, j);
        const float delta = std::fabs(cv - fv);
        const bool corrupted = !std::isfinite(fv) || delta > tol;
        if (!corrupted) continue;
        ++d.corrupted_elems;
        row_hit[static_cast<size_t>(i)] = true;
        col_hit[static_cast<size_t>(j)] = true;
        if (std::isfinite(delta)) {
          d.max_abs_delta = std::max(d.max_abs_delta, delta);
        } else {
          d.max_abs_delta = std::numeric_limits<float>::infinity();
        }
      }
    }
    for (bool h : row_hit) d.corrupted_rows += h ? 1 : 0;
    for (bool h : col_hit) d.corrupted_cols += h ? 1 : 0;
    diffs.push_back(d);
  }
  return diffs;
}

}  // namespace llmfi::core

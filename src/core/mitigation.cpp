#include "core/mitigation.h"

#include <algorithm>
#include <cmath>

#include "core/injector.h"
#include "core/tracer.h"

namespace llmfi::core {

ActivationProfile profile_activations(
    model::InferenceModel& engine, const tok::Vocab& vocab,
    const std::vector<std::string>& prompts, float margin) {
  ActivationProfile profile;
  LinearRecorder recorder(
      engine.linear_hook(),
      [&profile](const nn::LinearId& id, const tn::Tensor& y) {
        float& bound = profile.bound[id.kind];
        for (float v : y.flat()) {
          if (std::isfinite(v)) bound = std::max(bound, std::fabs(v));
        }
      });
  {
    LinearHookGuard guard(engine, &recorder);
    for (const auto& prompt : prompts) {
      std::vector<tok::TokenId> ids = {vocab.bos()};
      const auto body = vocab.encode(prompt);
      ids.insert(ids.end(), body.begin(), body.end());
      auto cache = engine.make_cache();
      (void)engine.forward(ids, cache, /*pass_index=*/0);
    }
  }
  for (auto& [kind, bound] : profile.bound) bound *= margin;
  return profile;
}

RangeRestrictionHook::RangeRestrictionHook(ActivationProfile profile,
                                           nn::LinearHook* next)
    : profile_(std::move(profile)), next_(next) {}

void RangeRestrictionHook::on_linear_output(const nn::LinearId& id,
                                            tn::Tensor& y, int pass_index,
                                            int row_offset) {
  // Let the fault land first, then restrict — the restriction must see
  // the corrupted tensor, just like it would on real hardware.
  if (next_ != nullptr) {
    next_->on_linear_output(id, y, pass_index, row_offset);
  }
  const auto it = profile_.bound.find(id.kind);
  if (it == profile_.bound.end()) return;
  const float bound = it->second;
  for (float& v : y.flat()) {
    if (!std::isfinite(v)) {
      v = 0.0f;
      ++corrections_;
    } else if (v > bound) {
      v = bound;
      ++corrections_;
    } else if (v < -bound) {
      v = -bound;
      ++corrections_;
    }
  }
}

WeightScreen::WeightScreen(model::InferenceModel& engine) : engine_(engine) {
  for (auto& ref : engine.linear_layers()) {
    float mx = 0.0f;
    for (float v : ref.weights->values().flat()) {
      if (std::isfinite(v)) mx = std::max(mx, std::fabs(v));
    }
    profiled_max_.push_back(mx);
  }
}

std::int64_t WeightScreen::scan(float bound_multiple) const {
  std::int64_t suspicious = 0;
  auto layers = engine_.linear_layers();
  for (size_t l = 0; l < layers.size(); ++l) {
    const float bound = profiled_max_[l] * bound_multiple;
    for (float v : layers[l].weights->values().flat()) {
      if (!std::isfinite(v) || std::fabs(v) > bound) ++suspicious;
    }
  }
  return suspicious;
}

}  // namespace llmfi::core

#include "core/detector.h"

#include <cmath>
#include <limits>

#include "core/injector.h"
#include "obs/recorder.h"

namespace llmfi::core {

namespace {

// First-trip flight-recorder event, shared by every detector scheme.
// Observation-only: fires after triggered_ is latched and reads nothing
// back, so detection verdicts are identical with the recorder on/off.
void record_trip(const nn::LinearId& site, int pass_index) {
  obs::record_event(obs::RecType::DetectorTrip, pass_index,
                    static_cast<std::int64_t>(site.kind), site.block);
}

// Checksum residual of one output row: |Σ_o y[r][o] − dot(x_r, s)|.
// y = x·Wᵀ means Σ_o y[r][o] = Σ_i x[r][i]·(Σ_o W[o][i]) = dot(x_r, s)
// up to activation rounding and accumulation-order differences — the
// residual a clean run leaves behind. Accumulated in double so the
// tolerance calibration and the online check agree bit-for-bit.
double checksum_residual(std::span<const float> x_row,
                         std::span<const float> y_row,
                         std::span<const float> col_sum) {
  double sum_y = 0.0;
  for (float v : y_row) sum_y += v;
  double expect = 0.0;
  for (size_t i = 0; i < col_sum.size(); ++i) {
    expect += static_cast<double>(x_row[i]) * col_sum[i];
  }
  return std::fabs(sum_y - expect);
}

float kind_tolerance(const ChecksumProfile& profile, nn::LayerKind kind) {
  const auto it = profile.tolerance.find(kind);
  return it != profile.tolerance.end()
             ? it->second
             : std::numeric_limits<float>::infinity();
}

}  // namespace

ActivationDetector::ActivationDetector(ActivationProfile profile,
                                       nn::LinearHook* next)
    : profile_(std::move(profile)), next_(next) {}

void ActivationDetector::on_linear_output(const nn::LinearId& id,
                                          tn::Tensor& y, int pass_index,
                                          int row_offset) {
  if (next_ != nullptr) {
    next_->on_linear_output(id, y, pass_index, row_offset);
  }
  if (triggered_) return;  // first trip is enough
  const auto it = profile_.bound.find(id.kind);
  const float bound = (it != profile_.bound.end())
                          ? it->second
                          : std::numeric_limits<float>::infinity();
  for (float v : y.flat()) {
    if (!std::isfinite(v) || std::fabs(v) > bound) {
      triggered_ = true;
      trip_site_ = id;
      trip_pass_ = pass_index;
      record_trip(id, pass_index);
      return;
    }
  }
}

void ActivationDetector::reset() {
  triggered_ = false;
  trip_pass_ = -1;
  trip_site_ = {};
}

ChecksumProfile profile_checksums(model::InferenceModel& engine,
                                  const tok::Vocab& vocab,
                                  const std::vector<std::string>& prompts,
                                  float margin) {
  ChecksumProfile profile;
  for (const auto& ref : engine.linear_layers()) {
    const tn::Tensor& w = ref.weights->values();
    std::vector<float> sums(static_cast<size_t>(w.cols()), 0.0f);
    std::vector<double> acc(static_cast<size_t>(w.cols()), 0.0);
    for (tn::Index r = 0; r < w.rows(); ++r) {
      auto row = w.row(r);
      for (tn::Index c = 0; c < w.cols(); ++c) {
        acc[static_cast<size_t>(c)] += row[c];
      }
    }
    for (size_t c = 0; c < sums.size(); ++c) {
      sums[c] = static_cast<float>(acc[c]);
    }
    profile.col_sum[ref.id] = std::move(sums);
  }

  // Calibrate tolerances: run the prompts clean and record the worst
  // residual per layer kind, then inflate by margin.
  class ResidualProbe : public nn::LinearHook {
   public:
    explicit ResidualProbe(ChecksumProfile& p) : profile_(p) {}
    void on_linear_output(const nn::LinearId&, tn::Tensor&, int,
                          int) override {}
    void on_linear(const nn::LinearId& id, const tn::Tensor& x,
                   const nn::WeightMatrix&, tn::Tensor& y, int,
                   int) override {
      const auto it = profile_.col_sum.find(id);
      if (it == profile_.col_sum.end()) return;
      float& tol = profile_.tolerance[id.kind];
      for (tn::Index r = 0; r < y.rows(); ++r) {
        const double resid = checksum_residual(x.row(r), y.row(r), it->second);
        tol = std::max(tol, static_cast<float>(resid));
      }
    }

   private:
    ChecksumProfile& profile_;
  };

  ResidualProbe probe(profile);
  {
    LinearHookGuard guard(engine, &probe);
    for (const auto& prompt : prompts) {
      std::vector<tok::TokenId> ids = {vocab.bos()};
      const auto body = vocab.encode(prompt);
      ids.insert(ids.end(), body.begin(), body.end());
      auto cache = engine.make_cache();
      (void)engine.forward(ids, cache, /*pass_index=*/0);
    }
  }
  for (auto& [kind, tol] : profile.tolerance) {
    // Small absolute floor so a perfectly-exact calibration run (tiny
    // models in fp32) does not produce a zero tolerance that trips on
    // the first accumulation-order wobble.
    tol = margin * std::max(tol, 1e-6f);
  }
  return profile;
}

ChecksumDetector::ChecksumDetector(const ChecksumProfile& profile,
                                   nn::LinearHook* next)
    : profile_(profile), next_(next) {}

void ChecksumDetector::on_linear_output(const nn::LinearId& id, tn::Tensor& y,
                                        int pass_index, int row_offset) {
  // Without the GEMM operands there is nothing to verify — just keep the
  // chain alive.
  if (next_ != nullptr) {
    next_->on_linear_output(id, y, pass_index, row_offset);
  }
}

void ChecksumDetector::on_linear(const nn::LinearId& id, const tn::Tensor& x,
                                 const nn::WeightMatrix& w, tn::Tensor& y,
                                 int pass_index, int row_offset) {
  // Let the fault land first, then verify the corrupted tensor.
  if (next_ != nullptr) {
    next_->on_linear(id, x, w, y, pass_index, row_offset);
  }
  if (triggered_) return;
  const auto it = profile_.col_sum.find(id);
  if (it == profile_.col_sum.end()) return;
  const float tol = kind_tolerance(profile_, id.kind);
  for (tn::Index r = 0; r < y.rows(); ++r) {
    const double resid = checksum_residual(x.row(r), y.row(r), it->second);
    // NaN residual (non-finite y) must trip: written as !(resid <= tol).
    if (!(resid <= tol)) {
      triggered_ = true;
      trip_site_ = id;
      trip_pass_ = pass_index;
      record_trip(id, pass_index);
      return;
    }
  }
}

void ChecksumDetector::reset() {
  triggered_ = false;
  trip_pass_ = -1;
  trip_site_ = {};
}

DetectorStack::DetectorStack(std::vector<nn::DetectorHook*> detectors,
                             nn::LinearHook* next)
    : detectors_(std::move(detectors)), next_(next) {}

void DetectorStack::on_linear_output(const nn::LinearId& id, tn::Tensor& y,
                                     int pass_index, int row_offset) {
  if (next_ != nullptr) {
    next_->on_linear_output(id, y, pass_index, row_offset);
  }
  for (auto* d : detectors_) {
    d->on_linear_output(id, y, pass_index, row_offset);
  }
  latch();
}

void DetectorStack::on_linear(const nn::LinearId& id, const tn::Tensor& x,
                              const nn::WeightMatrix& w, tn::Tensor& y,
                              int pass_index, int row_offset) {
  if (next_ != nullptr) {
    next_->on_linear(id, x, w, y, pass_index, row_offset);
  }
  for (auto* d : detectors_) {
    d->on_linear(id, x, w, y, pass_index, row_offset);
  }
  latch();
}

void DetectorStack::latch() {
  if (triggered_) return;
  for (auto* d : detectors_) {
    if (d->triggered()) {
      triggered_ = true;
      trip_site_ = d->trip_site();
      trip_pass_ = d->trip_pass();
      tripped_name_ = d->name();
      return;
    }
  }
}

void DetectorStack::reset() {
  triggered_ = false;
  trip_pass_ = -1;
  trip_site_ = {};
  tripped_name_ = "stack";
  for (auto* d : detectors_) d->reset();
}

void DetectorStack::on_install() {
  reset();
  if (next_ != nullptr) next_->on_install();
}

}  // namespace llmfi::core

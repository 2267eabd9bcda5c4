#pragma once
// Error-propagation tracing (paper Figs 5-6): capture every linear
// layer's output during a clean and a faulty forward pass, then diff to
// see how far the corruption spread — a memory fault corrupts an entire
// output *column* and then the whole next layer; a computational fault
// corrupts one *row* and is largely masked by the next normalization.
//
// NOT to be confused with the *runtime* tracer (src/obs/trace.h), which
// records wall-clock phase spans as Chrome trace-event JSON. core::
// traces corruption spread through activations; obs:: traces time.
// See the README glossary.

#include <functional>
#include <span>
#include <vector>

#include "model/transformer.h"
#include "nn/layer_id.h"
#include "tokenizer/vocab.h"

namespace llmfi::core {

// Observation-only hook behind the layer-output profilers: forwards
// every linear call to the hook installed before it (`next`, may be
// null), then hands the post-hook output to `record`. Install it with
// core::LinearHookGuard so a throwing forward still restores `next`.
// on_install() deliberately does NOT forward: `next` is already armed,
// and resetting it would re-arm an injector that has fired.
class LinearRecorder : public nn::LinearHook {
 public:
  using RecordFn = std::function<void(const nn::LinearId&, const tn::Tensor&)>;
  LinearRecorder(nn::LinearHook* next, RecordFn record)
      : next_(next), record_(std::move(record)) {}

  void on_linear_output(const nn::LinearId& id, tn::Tensor& y, int pass_index,
                        int row_offset) override;
  void on_linear(const nn::LinearId& id, const tn::Tensor& x,
                 const nn::WeightMatrix& w, tn::Tensor& y, int pass_index,
                 int row_offset) override;

 private:
  nn::LinearHook* next_;
  RecordFn record_;
};

struct CapturedLayer {
  nn::LinearId id;
  tn::Tensor output;
};

// Runs one forward pass (fresh cache, pass 0) recording every linear
// output. Any hook already installed on the engine stays active, so a
// computational-fault injector can corrupt the "faulty" capture.
std::vector<CapturedLayer> capture_layer_outputs(
    model::InferenceModel& m, std::span<const tok::TokenId> prompt);

struct LayerDiff {
  nn::LinearId id;
  tn::Index rows = 0;
  tn::Index cols = 0;
  tn::Index corrupted_elems = 0;
  tn::Index corrupted_rows = 0;  // rows containing any corrupted element
  tn::Index corrupted_cols = 0;  // columns containing any corrupted element
  float max_abs_delta = 0.0f;

  double row_fraction() const {
    return rows ? static_cast<double>(corrupted_rows) / rows : 0.0;
  }
  double col_fraction() const {
    return cols ? static_cast<double>(corrupted_cols) / cols : 0.0;
  }
};

// Element (i,j) counts as corrupted when |clean - faulty| > tol or the
// faulty value is non-finite.
std::vector<LayerDiff> diff_captures(const std::vector<CapturedLayer>& clean,
                                     const std::vector<CapturedLayer>& faulty,
                                     float tol = 1e-4f);

}  // namespace llmfi::core

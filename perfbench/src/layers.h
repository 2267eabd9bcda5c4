#pragma once
// Per-layer figures of traced runs. Every layer is timed through its
// public functions, called from this file, on the workload's own inputs
// (prompts, fault model, KV layout). Figures of a layer a workload does
// not run are reported as 0; WORKLOADS.md maps each figure to the
// end-to-end metric it should move.

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/detector.h"
#include "core/fault_model.h"
#include "model/transformer.h"
#include "nn/kv_page.h"
#include "util.h"

namespace perfbench {

using Figures = std::map<std::string, double>;

struct LayerInputs {
  llmfi::model::InferenceModel* engine = nullptr;
  const llmfi::tok::Vocab* vocab = nullptr;
  std::vector<std::vector<llmfi::tok::TokenId>> prompts;  // workload prompts
  std::vector<std::string> texts;  // the same prompts as text (profiling)
  llmfi::core::FaultModel fault = llmfi::core::FaultModel::Comp1Bit;
  std::shared_ptr<llmfi::nn::PagePool> pool;  // null = contiguous KV
  int fork_prefix = 0;      // rows forked per trial (median)
  int max_new_tokens = 32;  // generation budget of the workload
};

// Times the tensor, model, nn, core and gen layers plus the net framing
// functions. Each measurement is one span in `tracer`.
Figures measure_layers(const LayerInputs& in, Tracer& tracer);

// Emits every per-layer metric in a fixed order; absent figures are 0.
void emit_per_layer(Result& r, const Figures& f);

// Median-length prompt of a prompt set.
const std::vector<llmfi::tok::TokenId>& median_prompt(
    const std::vector<std::vector<llmfi::tok::TokenId>>& prompts);

}  // namespace perfbench

// Tests for the fault-injection core: fault models, location sampling,
// single-shot computational injection, RAII weight corruption, outcome
// classification, and propagation tracing.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>
#include <stdexcept>

#include "core/fault_model.h"
#include "core/fault_plan.h"
#include "core/injector.h"
#include "core/outcome.h"
#include "core/tracer.h"
#include "numerics/half.h"

namespace llmfi::core {
namespace {

model::ModelConfig tiny_config(bool moe = false) {
  model::ModelConfig cfg;
  cfg.vocab_size = 24;
  cfg.d_model = 16;
  cfg.n_layers = 2;
  cfg.n_heads = 2;
  cfg.d_ff = 24;
  cfg.moe = moe;
  cfg.n_experts = 4;
  cfg.top_k = 2;
  cfg.max_seq = 48;
  cfg.seed = 77;
  return cfg;
}

std::vector<tok::TokenId> tokens(std::initializer_list<int> ids) {
  std::vector<tok::TokenId> out;
  for (int i : ids) out.push_back(static_cast<tok::TokenId>(i));
  return out;
}

TEST(FaultModel, NamesRoundTrip) {
  for (auto m : {FaultModel::Comp1Bit, FaultModel::Comp2Bit,
                 FaultModel::Mem2Bit}) {
    EXPECT_EQ(parse_fault_model(fault_model_name(m)), m);
  }
  EXPECT_THROW(parse_fault_model("3bits-mem"), std::invalid_argument);
  EXPECT_EQ(fault_bit_count(FaultModel::Comp1Bit), 1);
  EXPECT_EQ(fault_bit_count(FaultModel::Mem2Bit), 2);
  EXPECT_TRUE(is_memory_fault(FaultModel::Mem2Bit));
  EXPECT_FALSE(is_memory_fault(FaultModel::Comp2Bit));
}

TEST(Sampler, ProducesValidPlans) {
  model::InferenceModel m(model::ModelWeights::init(tiny_config()), {});
  num::Rng rng(1);
  SamplerScope scope;
  scope.max_passes = 7;
  for (int i = 0; i < 300; ++i) {
    const auto plan = sample_fault(FaultModel::Mem2Bit, m, scope, rng);
    ASSERT_GE(plan.layer_index, 0);
    ASSERT_LT(plan.layer_index,
              static_cast<int>(m.linear_layers().size()));
    const auto& ref = m.linear_layers()[static_cast<size_t>(
        plan.layer_index)];
    EXPECT_TRUE(ref.id == plan.layer);
    EXPECT_GE(plan.weight_row, 0);
    EXPECT_LT(plan.weight_row, ref.weights->rows());
    EXPECT_GE(plan.weight_col, 0);
    EXPECT_LT(plan.weight_col, ref.weights->cols());
    ASSERT_EQ(plan.bits.size(), 2u);
    EXPECT_NE(plan.bits[0], plan.bits[1]);
    for (int b : plan.bits) {
      EXPECT_GE(b, 0);
      EXPECT_LT(b, 32);
    }
    EXPECT_EQ(plan.highest_bit(), std::max(plan.bits[0], plan.bits[1]));
  }
  for (int i = 0; i < 300; ++i) {
    const auto plan = sample_fault(FaultModel::Comp1Bit, m, scope, rng);
    EXPECT_EQ(plan.bits.size(), 1u);
    EXPECT_GE(plan.pass_index, 0);
    EXPECT_LT(plan.pass_index, 7);
    EXPECT_GE(plan.row_frac, 0.0);
    EXPECT_LT(plan.row_frac, 1.0);
  }
}

TEST(Sampler, CoversEveryLayerUniformly) {
  model::InferenceModel m(model::ModelWeights::init(tiny_config()), {});
  num::Rng rng(2);
  SamplerScope scope;
  std::map<int, int> hits;
  const int n = 7000;
  for (int i = 0; i < n; ++i) {
    hits[sample_fault(FaultModel::Mem2Bit, m, scope, rng).layer_index]++;
  }
  const int n_layers = static_cast<int>(m.linear_layers().size());
  EXPECT_EQ(static_cast<int>(hits.size()), n_layers);
  const double expected = static_cast<double>(n) / n_layers;
  for (const auto& [layer, count] : hits) {
    EXPECT_NEAR(count, expected, 0.35 * expected) << "layer " << layer;
  }
}

TEST(Sampler, HonorsLayerFilter) {
  model::InferenceModel m(model::ModelWeights::init(tiny_config(true)), {});
  num::Rng rng(3);
  SamplerScope scope;
  scope.layer_filter = [](const nn::LinearId& id) {
    return id.kind == nn::LayerKind::Router;
  };
  for (int i = 0; i < 100; ++i) {
    const auto plan = sample_fault(FaultModel::Mem2Bit, m, scope, rng);
    EXPECT_EQ(plan.layer.kind, nn::LayerKind::Router);
  }
  scope.layer_filter = [](const nn::LinearId&) { return false; };
  EXPECT_THROW(sample_fault(FaultModel::Mem2Bit, m, scope, rng),
               std::invalid_argument);
}

TEST(Sampler, QuantizedWeightsGetPayloadWidthBits) {
  model::InferenceModel m(
      model::ModelWeights::init(tiny_config()),
      model::PrecisionConfig::for_dtype(num::DType::I4));
  num::Rng rng(4);
  SamplerScope scope;
  for (int i = 0; i < 200; ++i) {
    const auto plan = sample_fault(FaultModel::Mem2Bit, m, scope, rng);
    for (int b : plan.bits) EXPECT_LT(b, 4);
  }
  // Computational faults use the activation dtype (fp16 for quantized).
  for (int i = 0; i < 200; ++i) {
    const auto plan = sample_fault(FaultModel::Comp2Bit, m, scope, rng);
    for (int b : plan.bits) EXPECT_LT(b, 16);
  }
}

TEST(Injector, FiresExactlyOnceAtTargetSite) {
  model::InferenceModel m(model::ModelWeights::init(tiny_config()), {});
  FaultPlan plan;
  plan.model = FaultModel::Comp1Bit;
  plan.layer = {1, nn::LayerKind::GateProj, -1};
  plan.pass_index = 1;
  plan.row_frac = 0.0;
  plan.out_col = 3;
  plan.bits = {30};
  ComputationalFaultInjector injector(plan, num::DType::F32);
  m.set_linear_hook(&injector);

  auto cache = m.make_cache();
  (void)m.forward(tokens({1, 2, 3}), cache, 0);  // wrong pass: no fire
  EXPECT_FALSE(injector.fired());
  (void)m.forward(tokens({4}), cache, 1);
  EXPECT_TRUE(injector.fired());
  EXPECT_EQ(injector.record().col, 3);
  EXPECT_EQ(injector.record().pass_index, 1);
  const float old_v = injector.record().old_value;
  const float new_v = injector.record().new_value;
  EXPECT_NE(old_v, new_v);
  // MSB exponent flip: magnitude changes by a huge factor (or to 0/inf).
  EXPECT_TRUE(std::fabs(new_v) > 1e10f * std::fabs(old_v) ||
              std::fabs(new_v) < 1e-10f * std::fabs(old_v) ||
              old_v == 0.0f);

  // Single-shot: a later matching pass must not re-fire.
  const auto rec_before = injector.record().new_value;
  (void)m.forward(tokens({5}), cache, 1);
  EXPECT_EQ(injector.record().new_value, rec_before);
  m.set_linear_hook(nullptr);

  // reset() re-arms.
  injector.reset();
  EXPECT_FALSE(injector.fired());
}

// A hook that throws mid-forward, standing in for any failure inside an
// instrumented inference (OOM, a metric error, a poisoned tensor check).
struct ThrowingHook : nn::LinearHook {
  void on_linear_output(const nn::LinearId&, tn::Tensor&, int,
                        int) override {
    throw std::runtime_error("hook failure");
  }
};

TEST(LinearHookGuard, InstallsAndRestores) {
  model::InferenceModel m(model::ModelWeights::init(tiny_config()), {});
  ThrowingHook hook;
  EXPECT_EQ(m.linear_hook(), nullptr);
  {
    LinearHookGuard guard(m, &hook);
    EXPECT_EQ(m.linear_hook(), &hook);
  }
  EXPECT_EQ(m.linear_hook(), nullptr);
}

// Regression: before the guard existed, a throw between set_linear_hook
// and the manual reset left a dangling hook installed for the next trial.
TEST(LinearHookGuard, ClearsHookWhenInferenceThrows) {
  model::InferenceModel m(model::ModelWeights::init(tiny_config()), {});
  ThrowingHook hook;
  EXPECT_THROW(
      {
        LinearHookGuard guard(m, &hook);
        auto cache = m.make_cache();
        (void)m.forward(tokens({1, 2, 3}), cache, 0);
      },
      std::runtime_error);
  EXPECT_EQ(m.linear_hook(), nullptr);

  // The engine is immediately usable again, hook-free.
  auto cache = m.make_cache();
  const auto logits = m.forward(tokens({1, 2, 3}), cache, 0);
  EXPECT_EQ(logits.rows(), 3);
}

TEST(LinearHookGuard, RestoresPreviousHookWhenNested) {
  model::InferenceModel m(model::ModelWeights::init(tiny_config()), {});
  ThrowingHook outer_hook, inner_hook;
  LinearHookGuard outer(m, &outer_hook);
  {
    LinearHookGuard inner(m, &inner_hook);
    EXPECT_EQ(m.linear_hook(), &inner_hook);
  }
  EXPECT_EQ(m.linear_hook(), &outer_hook);
}

TEST(Injector, ChangesModelOutput) {
  model::InferenceModel m(model::ModelWeights::init(tiny_config()), {});
  auto cache1 = m.make_cache();
  const auto clean = m.forward(tokens({1, 2, 3, 4}), cache1, 0);

  FaultPlan plan;
  plan.model = FaultModel::Comp2Bit;
  plan.layer = {0, nn::LayerKind::QProj, -1};
  plan.pass_index = 0;
  plan.row_frac = 0.6;
  plan.out_col = 5;
  plan.bits = {30, 28};
  ComputationalFaultInjector injector(plan, num::DType::F32);
  m.set_linear_hook(&injector);
  auto cache2 = m.make_cache();
  const auto faulty = m.forward(tokens({1, 2, 3, 4}), cache2, 0);
  m.set_linear_hook(nullptr);
  ASSERT_TRUE(injector.fired());
  double diff = 0.0;
  for (tn::Index i = 0; i < clean.numel(); ++i) {
    diff += std::fabs(clean.flat()[i] - faulty.flat()[i]);
  }
  EXPECT_GT(diff, 0.0);
}

class WeightCorruptionDtype : public ::testing::TestWithParam<num::DType> {};

TEST_P(WeightCorruptionDtype, RestoresWeightsBitExactly) {
  model::InferenceModel m(model::ModelWeights::init(tiny_config()),
                          model::PrecisionConfig::for_dtype(GetParam()));
  num::Rng rng(5);
  SamplerScope scope;
  // Snapshot all weights.
  std::vector<tn::Tensor> before;
  for (auto& ref : m.linear_layers()) before.push_back(ref.weights->values());
  for (int trial = 0; trial < 50; ++trial) {
    const auto plan = sample_fault(FaultModel::Mem2Bit, m, scope, rng);
    {
      WeightCorruption guard(m, plan);
      // While corrupted, the target element differs (unless NaN weirdness).
      if (!std::isnan(guard.new_value())) {
        EXPECT_NE(guard.new_value(), guard.old_value());
      }
    }
  }
  auto layers = m.linear_layers();
  for (size_t l = 0; l < layers.size(); ++l) {
    const auto& now = layers[l].weights->values();
    for (tn::Index i = 0; i < now.numel(); ++i) {
      ASSERT_EQ(num::f32_bits(now.flat()[i]),
                num::f32_bits(before[l].flat()[i]))
          << "layer " << l << " elem " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllDtypes, WeightCorruptionDtype,
                         ::testing::Values(num::DType::F32, num::DType::F16,
                                           num::DType::BF16, num::DType::I8,
                                           num::DType::I4),
                         [](const auto& info) {
                           return std::string(num::dtype_name(info.param));
                         });

// ---- outcome classification ------------------------------------------------

TEST(Outcome, Names) {
  EXPECT_EQ(outcome_name(OutcomeClass::Masked), "masked");
  EXPECT_EQ(outcome_name(OutcomeClass::SdcSubtle), "sdc-subtle");
  EXPECT_EQ(outcome_name(OutcomeClass::SdcDistorted), "sdc-distorted");
}

TEST(Outcome, LongRepeatDetected) {
  const auto toks = std::vector<tok::TokenId>{4, 9, 9, 9, 9, 9, 7};
  const auto s = analyze_distortion(toks, false, false, true, false);
  EXPECT_TRUE(s.long_repeat);
  EXPECT_TRUE(s.any());
}

TEST(Outcome, AlternatingLoopDetected) {
  std::vector<tok::TokenId> toks;
  for (int i = 0; i < 10; ++i) {
    toks.push_back(5);
    toks.push_back(8);
  }
  const auto s = analyze_distortion(toks, false, false, true, false);
  EXPECT_TRUE(s.ngram_loop);
}

TEST(Outcome, NormalTextNotDistorted) {
  const auto toks = std::vector<tok::TokenId>{4, 9, 12, 7, 4, 15, 20, 11,
                                              6, 13, 9, 18};
  const auto s = analyze_distortion(toks, false, false, true, false);
  EXPECT_FALSE(s.any());
}

TEST(Outcome, RunawayAndEmptySignals) {
  const std::vector<tok::TokenId> some = {4, 5, 6, 7, 8, 9, 10, 11};
  EXPECT_TRUE(analyze_distortion(some, false, /*hit_max=*/true,
                                 /*baseline_ended=*/true, false)
                  .runaway_length);
  EXPECT_FALSE(analyze_distortion(some, false, true,
                                  /*baseline_ended=*/false, false)
                   .runaway_length);
  EXPECT_TRUE(analyze_distortion({}, false, false, true,
                                 /*baseline_empty=*/false)
                  .empty_output);
  EXPECT_FALSE(analyze_distortion({}, false, false, true, true)
                   .empty_output);
}

TEST(Outcome, ClassificationRules) {
  DistortionSignals clean{};
  DistortionSignals bad{};
  bad.nonfinite_logits = true;
  EXPECT_EQ(classify_direct(true, clean), OutcomeClass::Masked);
  EXPECT_EQ(classify_direct(false, clean), OutcomeClass::SdcSubtle);
  EXPECT_EQ(classify_direct(false, bad), OutcomeClass::SdcDistorted);
  EXPECT_EQ(classify_generative("same", "same", clean),
            OutcomeClass::Masked);
  EXPECT_EQ(classify_generative("a", "b", clean), OutcomeClass::SdcSubtle);
  EXPECT_EQ(classify_generative("a", "b", bad),
            OutcomeClass::SdcDistorted);
}

// ---- propagation tracer -----------------------------------------------------

TEST(Tracer, CleanRunsHaveZeroDiff) {
  model::InferenceModel m(model::ModelWeights::init(tiny_config()), {});
  const auto prompt = tokens({1, 2, 3});
  const auto a = capture_layer_outputs(m, prompt);
  const auto b = capture_layer_outputs(m, prompt);
  ASSERT_EQ(a.size(), 14u);  // 7 linears x 2 blocks
  for (const auto& d : diff_captures(a, b)) {
    EXPECT_EQ(d.corrupted_elems, 0);
  }
}

TEST(Tracer, MemoryFaultCorruptsColumnThenEverything) {
  model::InferenceModel m(model::ModelWeights::init(tiny_config()), {});
  const auto prompt = tokens({1, 2, 3, 4, 5});
  const auto clean = capture_layer_outputs(m, prompt);

  FaultPlan plan;
  plan.model = FaultModel::Mem2Bit;
  plan.layer = {0, nn::LayerKind::UpProj, -1};
  plan.weight_row = 2;  // output feature 2 -> output column 2
  plan.weight_col = 3;
  plan.bits = {30, 29};
  for (int i = 0; i < static_cast<int>(m.linear_layers().size()); ++i) {
    if (m.linear_layers()[static_cast<size_t>(i)].id == plan.layer) {
      plan.layer_index = i;
    }
  }
  WeightCorruption guard(m, plan);
  const auto faulty = capture_layer_outputs(m, prompt);
  const auto diffs = diff_captures(clean, faulty);

  for (const auto& d : diffs) {
    if (d.id == plan.layer) {
      // The fault corrupts exactly the column matching the weight row,
      // across (almost) all token rows.
      EXPECT_EQ(d.corrupted_cols, 1);
      EXPECT_GT(d.row_fraction(), 0.5);
    }
    if (d.id == nn::LinearId{0, nn::LayerKind::DownProj, -1}) {
      // The next layer sees broad corruption across columns.
      EXPECT_GT(d.col_fraction(), 0.5);
    }
  }
}

TEST(Tracer, MismatchedCapturesThrow) {
  model::InferenceModel m(model::ModelWeights::init(tiny_config()), {});
  const auto a = capture_layer_outputs(m, tokens({1, 2}));
  auto b = capture_layer_outputs(m, tokens({1, 2}));
  b.pop_back();
  EXPECT_THROW(diff_captures(a, b), std::invalid_argument);
}

// A throwing capture (the prompt overflows max_seq mid-pass) must put the
// previously installed hook back and leave nothing of its recorder on the
// engine: the next forward sees only that hook.
TEST(Tracer, CaptureRestoresHookAfterThrow) {
  auto cfg = tiny_config();
  cfg.max_seq = 16;
  const auto w = model::ModelWeights::init(cfg);
  model::InferenceModel m(w, {});
  model::InferenceModel ref(w, {});

  struct CountingHook : nn::LinearHook {
    int calls = 0;
    void on_linear_output(const nn::LinearId&, tn::Tensor&, int,
                          int) override {
      ++calls;
    }
  } counter;
  m.set_linear_hook(&counter);
  std::vector<tok::TokenId> long_prompt(40, 3);
  EXPECT_THROW(capture_layer_outputs(m, long_prompt), std::invalid_argument);
  EXPECT_EQ(m.linear_hook(), &counter);

  counter.calls = 0;
  const auto prompt = tokens({1, 2, 3});
  auto cache = m.make_cache();
  auto ref_cache = ref.make_cache();
  const tn::Tensor got = m.forward(prompt, cache, 0);
  const tn::Tensor want = ref.forward(prompt, ref_cache, 0);
  EXPECT_EQ(counter.calls, 14);  // 7 linears x 2 blocks
  ASSERT_EQ(got.shape(), want.shape());
  for (size_t i = 0; i < got.flat().size(); ++i) {
    ASSERT_EQ(num::f32_bits(got.flat()[i]), num::f32_bits(want.flat()[i]));
  }
}

}  // namespace
}  // namespace llmfi::core

// Tests for the mitigation/detection machinery: activation profiling,
// range-restriction hooks (chained with injectors), weight screening,
// and the activation detector.

#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "core/detector.h"
#include "core/injector.h"
#include "core/mitigation.h"
#include "data/world.h"

namespace llmfi::core {
namespace {

model::ModelConfig tiny_config() {
  model::ModelConfig cfg;
  cfg.vocab_size = 32;
  cfg.d_model = 16;
  cfg.n_layers = 2;
  cfg.n_heads = 2;
  cfg.d_ff = 24;
  cfg.max_seq = 64;
  cfg.seed = 88;
  return cfg;
}

struct Fixture {
  tok::Vocab vocab;
  model::InferenceModel engine;
  std::vector<std::string> prompts;

  Fixture() : engine(model::ModelWeights::init(tiny_config()), {}) {
    for (const char* w : {"a", "b", "c", "d", "e", "f"}) vocab.add(w);
    prompts = {"a b c", "d e f a", "c c b"};
  }
};

TEST(Mitigation, ProfileCoversAllLayerKinds) {
  Fixture f;
  const auto profile =
      profile_activations(f.engine, f.vocab, f.prompts, 2.0f);
  EXPECT_EQ(profile.bound.size(), 7u);  // dense block layer kinds
  for (const auto& [kind, bound] : profile.bound) {
    EXPECT_GT(bound, 0.0f) << nn::layer_kind_name(kind);
    EXPECT_TRUE(std::isfinite(bound));
  }
}

TEST(Mitigation, MarginScalesBounds) {
  Fixture f;
  const auto p1 = profile_activations(f.engine, f.vocab, f.prompts, 1.0f);
  const auto p3 = profile_activations(f.engine, f.vocab, f.prompts, 3.0f);
  for (const auto& [kind, bound] : p1.bound) {
    EXPECT_NEAR(p3.bound.at(kind), 3.0f * bound, 1e-4f * bound);
  }
}

TEST(Mitigation, CleanRunsAreUntouched) {
  Fixture f;
  const auto profile =
      profile_activations(f.engine, f.vocab, f.prompts, 2.0f);
  RangeRestrictionHook hook(profile);
  f.engine.set_linear_hook(&hook);
  auto cache = f.engine.make_cache();
  const auto ids = f.vocab.encode("a b c");
  (void)f.engine.forward(ids, cache, 0);
  f.engine.set_linear_hook(nullptr);
  EXPECT_EQ(hook.corrections(), 0);
}

TEST(Mitigation, ClampsInjectedExtremes) {
  Fixture f;
  const auto profile =
      profile_activations(f.engine, f.vocab, f.prompts, 2.0f);

  FaultPlan plan;
  plan.model = FaultModel::Comp1Bit;
  plan.layer = {0, nn::LayerKind::UpProj, -1};
  plan.pass_index = 0;
  plan.row_frac = 0.4;
  plan.out_col = 2;
  plan.bits = {30};  // fp32 exponent MSB -> ~1e38
  ComputationalFaultInjector injector(plan, num::DType::F32);
  RangeRestrictionHook restriction(profile, &injector);
  f.engine.set_linear_hook(&restriction);
  auto cache = f.engine.make_cache();
  const auto ids = f.vocab.encode("a b c d");
  auto logits = f.engine.forward(ids, cache, 0);
  f.engine.set_linear_hook(nullptr);

  EXPECT_TRUE(injector.fired());
  EXPECT_GE(restriction.corrections(), 1);
  for (float v : logits.flat()) EXPECT_TRUE(std::isfinite(v));
}

TEST(Mitigation, RestrictionReducesOutputDeviation) {
  Fixture f;
  const auto profile =
      profile_activations(f.engine, f.vocab, f.prompts, 2.0f);
  const auto ids = f.vocab.encode("a b c d e");

  auto run = [&](nn::LinearHook* hook) {
    f.engine.set_linear_hook(hook);
    auto cache = f.engine.make_cache();
    auto logits = f.engine.forward(ids, cache, 0);
    f.engine.set_linear_hook(nullptr);
    return logits;
  };
  const auto clean = run(nullptr);

  FaultPlan plan;
  plan.model = FaultModel::Comp1Bit;
  plan.layer = {0, nn::LayerKind::GateProj, -1};
  plan.pass_index = 0;
  plan.row_frac = 0.2;
  plan.out_col = 5;
  plan.bits = {30};
  ComputationalFaultInjector raw(plan, num::DType::F32);
  const auto faulty = run(&raw);
  ComputationalFaultInjector again(plan, num::DType::F32);
  RangeRestrictionHook protected_hook(profile, &again);
  const auto mitigated = run(&protected_hook);

  auto deviation = [&clean](const tn::Tensor& x) {
    double d = 0.0;
    for (tn::Index i = 0; i < x.numel(); ++i) {
      const double diff = static_cast<double>(x.flat()[i]) -
                          clean.flat()[i];
      d += std::isfinite(diff) ? std::fabs(diff) : 1e30;
    }
    return d;
  };
  EXPECT_LT(deviation(mitigated), deviation(faulty));
}

TEST(Mitigation, WeightScreenFlagsCorruptionAndRecovers) {
  Fixture f;
  WeightScreen screen(f.engine);
  EXPECT_EQ(screen.scan(4.0f), 0);

  FaultPlan plan;
  plan.model = FaultModel::Mem2Bit;
  plan.layer_index = 0;
  plan.layer = f.engine.linear_layers()[0].id;
  plan.weight_row = 3;
  plan.weight_col = 4;
  plan.bits = {30, 2};  // exponent MSB -> far outside the envelope
  {
    WeightCorruption guard(f.engine, plan);
    EXPECT_EQ(screen.scan(4.0f), 1);
  }
  EXPECT_EQ(screen.scan(4.0f), 0);  // restored
}

TEST(Detector, SilentOnCleanRuns) {
  Fixture f;
  const auto profile =
      profile_activations(f.engine, f.vocab, f.prompts, 2.0f);
  ActivationDetector det(profile);
  f.engine.set_linear_hook(&det);
  auto cache = f.engine.make_cache();
  (void)f.engine.forward(f.vocab.encode("a b c"), cache, 0);
  f.engine.set_linear_hook(nullptr);
  EXPECT_FALSE(det.triggered());
}

TEST(Detector, TripsOnInjectedExtremeAndReportsSite) {
  Fixture f;
  const auto profile =
      profile_activations(f.engine, f.vocab, f.prompts, 2.0f);
  FaultPlan plan;
  plan.model = FaultModel::Comp1Bit;
  plan.layer = {1, nn::LayerKind::VProj, -1};
  plan.pass_index = 0;
  plan.row_frac = 0.0;
  plan.out_col = 1;
  plan.bits = {30};
  ComputationalFaultInjector injector(plan, num::DType::F32);
  ActivationDetector det(profile, &injector);
  f.engine.set_linear_hook(&det);
  auto cache = f.engine.make_cache();
  (void)f.engine.forward(f.vocab.encode("a b c d"), cache, 0);
  f.engine.set_linear_hook(nullptr);
  ASSERT_TRUE(det.triggered());
  EXPECT_EQ(det.trip_site().block, 1);
  EXPECT_EQ(det.trip_site().kind, nn::LayerKind::VProj);
  EXPECT_EQ(det.trip_pass(), 0);

  det.reset();
  EXPECT_FALSE(det.triggered());
  EXPECT_EQ(det.trip_pass(), -1);
}

TEST(Detector, MantissaFlipStaysUnderRadar) {
  // A low-mantissa-bit flip keeps values inside the envelope: the
  // detector must not trip (these faults are also overwhelmingly masked
  // — coverage/benignity go hand in hand).
  Fixture f;
  const auto profile =
      profile_activations(f.engine, f.vocab, f.prompts, 2.0f);
  FaultPlan plan;
  plan.model = FaultModel::Comp1Bit;
  plan.layer = {0, nn::LayerKind::QProj, -1};
  plan.pass_index = 0;
  plan.row_frac = 0.5;
  plan.out_col = 3;
  plan.bits = {1};  // low mantissa bit
  ComputationalFaultInjector injector(plan, num::DType::F32);
  ActivationDetector det(profile, &injector);
  f.engine.set_linear_hook(&det);
  auto cache = f.engine.make_cache();
  (void)f.engine.forward(f.vocab.encode("a b c d"), cache, 0);
  f.engine.set_linear_hook(nullptr);
  EXPECT_TRUE(injector.fired());
  EXPECT_FALSE(det.triggered());
}

// The profilers install their probe for the duration of the profiling
// forwards only. When a prompt overflows max_seq mid-pass, the previously
// installed hook must be back and the next forward must be clean.
void expect_profiler_restores_hook_after_throw(
    const std::function<void(model::InferenceModel&, const tok::Vocab&,
                             const std::vector<std::string>&)>& profile) {
  auto cfg = tiny_config();
  cfg.max_seq = 16;
  const auto w = model::ModelWeights::init(cfg);
  model::InferenceModel engine(w, {});
  model::InferenceModel ref(w, {});
  Fixture f;
  std::string long_prompt = "a";
  for (int i = 1; i < 40; ++i) long_prompt += " b";

  RangeRestrictionHook previous(ActivationProfile{});
  engine.set_linear_hook(&previous);
  EXPECT_THROW(profile(engine, f.vocab, {long_prompt}),
               std::invalid_argument);
  EXPECT_EQ(engine.linear_hook(), &previous);

  ref.set_linear_hook(&previous);
  const auto ids = f.vocab.encode("a b c");
  auto cache = engine.make_cache();
  auto ref_cache = ref.make_cache();
  const tn::Tensor got = engine.forward(ids, cache, 0);
  const tn::Tensor want = ref.forward(ids, ref_cache, 0);
  ASSERT_EQ(got.shape(), want.shape());
  for (size_t i = 0; i < got.flat().size(); ++i) {
    ASSERT_EQ(got.flat()[i], want.flat()[i]) << "logit " << i;
  }
  EXPECT_FALSE(engine.saw_nonfinite_logits());
}

TEST(Mitigation, ProfileActivationsRestoresHookAfterThrow) {
  expect_profiler_restores_hook_after_throw(
      [](model::InferenceModel& e, const tok::Vocab& v,
         const std::vector<std::string>& p) {
        (void)profile_activations(e, v, p, 2.0f);
      });
}

TEST(ChecksumDetector, ProfileRestoresHookAfterThrow) {
  expect_profiler_restores_hook_after_throw(
      [](model::InferenceModel& e, const tok::Vocab& v,
         const std::vector<std::string>& p) {
        (void)profile_checksums(e, v, p);
      });
}

TEST(ChecksumDetector, ProfileCoversEveryLinearLayer) {
  Fixture f;
  const auto profile = profile_checksums(f.engine, f.vocab, f.prompts);
  EXPECT_EQ(profile.col_sum.size(), f.engine.linear_layers().size());
  for (const auto& [kind, tol] : profile.tolerance) {
    EXPECT_GT(tol, 0.0f) << nn::layer_kind_name(kind);
    EXPECT_TRUE(std::isfinite(tol));
  }
}

TEST(ChecksumDetector, SilentOnCleanRuns) {
  Fixture f;
  const auto profile = profile_checksums(f.engine, f.vocab, f.prompts);
  ChecksumDetector det(profile);
  f.engine.set_linear_hook(&det);
  auto cache = f.engine.make_cache();
  (void)f.engine.forward(f.vocab.encode("a b c d e"), cache, 0);
  f.engine.set_linear_hook(nullptr);
  EXPECT_FALSE(det.triggered());
}

TEST(ChecksumDetector, CatchesFlipTheRangeDetectorMisses) {
  // A mid-mantissa flip perturbs one output element by far less than the
  // profiled envelope — invisible to range monitoring — but it still
  // moves the row sum away from the weight-column checksum.
  Fixture f;
  const auto act = profile_activations(f.engine, f.vocab, f.prompts, 2.0f);
  const auto sums = profile_checksums(f.engine, f.vocab, f.prompts);
  FaultPlan plan;
  plan.model = FaultModel::Comp1Bit;
  plan.layer = {0, nn::LayerKind::UpProj, -1};
  plan.pass_index = 0;
  plan.row_frac = 0.4;
  plan.out_col = 2;
  plan.bits = {20};  // mid-mantissa: small, in-envelope perturbation
  ComputationalFaultInjector injector(plan, num::DType::F32);
  ActivationDetector range(act, &injector);
  ChecksumDetector checksum(sums, &range);
  f.engine.set_linear_hook(&checksum);
  auto cache = f.engine.make_cache();
  (void)f.engine.forward(f.vocab.encode("a b c d"), cache, 0);
  f.engine.set_linear_hook(nullptr);
  EXPECT_TRUE(injector.fired());
  EXPECT_FALSE(range.triggered());
  ASSERT_TRUE(checksum.triggered());
  EXPECT_EQ(checksum.trip_site().kind, nn::LayerKind::UpProj);
  EXPECT_EQ(checksum.trip_pass(), 0);
}

TEST(DetectorStack, LatchesFirstTrippedChildAndItsName) {
  Fixture f;
  const auto act = profile_activations(f.engine, f.vocab, f.prompts, 2.0f);
  const auto sums = profile_checksums(f.engine, f.vocab, f.prompts);
  FaultPlan plan;
  plan.model = FaultModel::Comp1Bit;
  plan.layer = {1, nn::LayerKind::VProj, -1};
  plan.pass_index = 0;
  plan.row_frac = 0.0;
  plan.out_col = 1;
  plan.bits = {30};  // exponent MSB: trips both detectors
  ComputationalFaultInjector injector(plan, num::DType::F32);
  ChecksumDetector checksum(sums);
  ActivationDetector range(act);
  DetectorStack stack({&checksum, &range}, &injector);
  f.engine.set_linear_hook(&stack);
  auto cache = f.engine.make_cache();
  (void)f.engine.forward(f.vocab.encode("a b c d"), cache, 0);
  f.engine.set_linear_hook(nullptr);
  ASSERT_TRUE(stack.triggered());
  EXPECT_EQ(stack.name(), "checksum");  // first child in stack order
  EXPECT_EQ(stack.trip_site().block, 1);
  EXPECT_EQ(stack.trip_site().kind, nn::LayerKind::VProj);
  stack.reset();
  EXPECT_FALSE(stack.triggered());
  EXPECT_FALSE(checksum.triggered());
  EXPECT_FALSE(range.triggered());
  EXPECT_EQ(stack.name(), "stack");
}

// Satellite regression: detector/hook state must not leak from one trial
// into the next. Trial 1 trips the detector and clamps values; trial 2
// reuses the same hook objects through a fresh LinearHookGuard on a
// fault-free run — the install lifecycle has to start them clean.
TEST(HookLifecycle, GuardInstallResetsDetectorAndCounters) {
  Fixture f;
  model::InferenceModel engine(model::ModelWeights::init(tiny_config()), {});
  const auto act = profile_activations(engine, f.vocab, f.prompts, 2.0f);
  const auto sums = profile_checksums(engine, f.vocab, f.prompts);
  FaultPlan plan;
  plan.model = FaultModel::Comp1Bit;
  plan.layer = {0, nn::LayerKind::UpProj, -1};
  plan.pass_index = 0;
  plan.row_frac = 0.4;
  plan.out_col = 2;
  plan.bits = {30};
  ComputationalFaultInjector injector(plan, num::DType::F32);
  ChecksumDetector checksum(sums);
  ActivationDetector range(act);
  DetectorStack stack({&checksum, &range}, &injector);
  RangeRestrictionHook restriction(act, &injector);

  // Trial 1: fault fires, everything trips/corrects.
  {
    LinearHookGuard guard(engine, &stack);
    auto cache = engine.make_cache();
    (void)engine.forward(f.vocab.encode("a b c d"), cache, 0);
  }
  {
    LinearHookGuard guard(engine, &restriction);
    auto cache = engine.make_cache();
    (void)engine.forward(f.vocab.encode("a b c d"), cache, 0);
  }
  ASSERT_TRUE(stack.triggered());
  ASSERT_GE(restriction.corrections(), 1);

  // Trial 2: same hooks, fresh guards, no manual reset. Installation
  // must clear the trip latch, the correction counter, and re-arm the
  // injector... which, re-armed, fires again under the restriction hook.
  {
    LinearHookGuard guard(engine, &stack);
    EXPECT_FALSE(stack.triggered());
    EXPECT_FALSE(checksum.triggered());
    EXPECT_FALSE(range.triggered());
    auto cache = engine.make_cache();
    (void)engine.forward(f.vocab.encode("a b"), cache, /*pass_index=*/3);
    EXPECT_FALSE(stack.triggered());  // fault targets pass 0 only
  }
  {
    LinearHookGuard guard(engine, &restriction);
    EXPECT_EQ(restriction.corrections(), 0);
    auto cache = engine.make_cache();
    (void)engine.forward(f.vocab.encode("a b"), cache, /*pass_index=*/3);
    EXPECT_EQ(restriction.corrections(), 0);
  }
}

}  // namespace
}  // namespace llmfi::core

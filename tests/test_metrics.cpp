// Tests for the text-quality metrics (BLEU, chrF++, ROUGE, EM/F1) and the
// statistical machinery (Welford accumulator, Katz/log-ratio CIs).

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "metrics/stats.h"
#include "metrics/text_metrics.h"

namespace llmfi::metrics {
namespace {

// ---- identity / disjoint properties shared by all similarity metrics -----

using MetricFn = double (*)(const std::string&, const std::string&);

struct NamedMetric {
  const char* name;
  MetricFn fn;
};

// Names the ctest parameter by metric instead of by its pointer bytes,
// which change from run to run.
void PrintTo(const NamedMetric& m, std::ostream* os) { *os << m.name; }

class SimilarityMetric : public ::testing::TestWithParam<NamedMetric> {};

TEST_P(SimilarityMetric, PerfectMatchScoresOne) {
  const auto fn = GetParam().fn;
  EXPECT_NEAR(fn("a b c d e", "a b c d e"), 1.0, 1e-9);
}

TEST_P(SimilarityMetric, DisjointScoresZero) {
  const auto fn = GetParam().fn;
  EXPECT_NEAR(fn("aa bb cc", "xx yy zz"), 0.0, 1e-9);
}

TEST_P(SimilarityMetric, EmptyHypothesisScoresZero) {
  const auto fn = GetParam().fn;
  EXPECT_NEAR(fn("", "a b c"), 0.0, 1e-9);
}

TEST_P(SimilarityMetric, BoundedInUnitInterval) {
  const auto fn = GetParam().fn;
  const double v = fn("a b x y e", "a b c d e");
  EXPECT_GE(v, 0.0);
  EXPECT_LE(v, 1.0);
}

double bleu4(const std::string& h, const std::string& r) {
  return bleu(h, r);
}
double chrfpp(const std::string& h, const std::string& r) {
  return chrf_pp(h, r);
}

INSTANTIATE_TEST_SUITE_P(
    AllMetrics, SimilarityMetric,
    ::testing::Values(NamedMetric{"bleu", &bleu4},
                      NamedMetric{"chrf", &chrfpp},
                      NamedMetric{"rouge1", &rouge1_f},
                      NamedMetric{"rougeL", &rougeL_f},
                      NamedMetric{"em", &exact_match},
                      NamedMetric{"f1", &token_f1}),
    [](const auto& info) { return std::string(info.param.name); });

// ---- metric-specific behaviour -------------------------------------------

TEST(Bleu, PenalizesShortHypotheses) {
  // Same matched unigrams, but the short one takes a brevity penalty.
  const double full = bleu("a b c d", "a b c d");
  const double half = bleu("a b", "a b c d");
  EXPECT_LT(half, full);
  EXPECT_GT(half, 0.0);
}

TEST(Bleu, OrderSensitivityViaNgrams) {
  const double ordered = bleu("a b c d e f", "a b c d e f");
  const double shuffled = bleu("f e d c b a", "a b c d e f");
  EXPECT_GT(ordered, shuffled);
  EXPECT_GT(shuffled, 0.0);  // unigrams still match (smoothed)
}

TEST(Bleu, ClipsRepeatedNgrams) {
  // "the the the the" must not farm unigram precision: clipping caps the
  // unigram match at 1/4 (smoothing keeps higher orders small but >0).
  const double spam = bleu("the the the the", "the cat sat down");
  EXPECT_LT(spam, 0.35);
  const double honest = bleu("the cat sat down", "the cat sat down");
  EXPECT_GT(honest, 2 * spam);
}

TEST(ChrfPP, PartialWordOverlapScoresBetweenZeroAndOne) {
  const double v = chrf_pp("translation", "translationes");
  EXPECT_GT(v, 0.4);
  EXPECT_LT(v, 1.0);
}

TEST(ChrfPP, CountsCodepointsNotBytes) {
  // "aé" vs "aè": one of two codepoints matches. Char 1-grams give
  // F2 = 0.5; char 2-grams and word 1-grams give 0; higher orders have
  // no n-grams on either side and are skipped -> 0.5 / 3 counted orders.
  // The old byte-based n-grams credited the shared UTF-8 lead byte 0xC3
  // of é/è as a match (~0.2917 over four orders).
  EXPECT_NEAR(chrf_pp("a\xC3\xA9", "a\xC3\xA8"), 1.0 / 6.0, 1e-9);
}

TEST(ChrfPP, MultibyteSelfMatchIsPerfect) {
  // 5 codepoints in 7 bytes; codepoint counting is what makes the char
  // 6-gram order empty on both sides (skipped) instead of mismatched.
  const std::string s = "h\xC3\xA9ll\xC3\xB8s";
  EXPECT_NEAR(chrf_pp(s, s), 1.0, 1e-9);
}

TEST(ChrfPP, MalformedUtf8DegradesToBytes) {
  // Stray continuation / truncated lead bytes fall back to single-byte
  // units: still a valid total ordering, identical strings score 1.
  const std::string truncated = "ab\xC3";
  EXPECT_NEAR(chrf_pp(truncated, truncated), 1.0, 1e-9);
  const std::string stray = "\xA9x";
  EXPECT_NEAR(chrf_pp(stray, stray), 1.0, 1e-9);
  EXPECT_GE(chrf_pp(truncated, "ab"), 0.0);
}

TEST(RougeL, RewardsLongestCommonSubsequence) {
  // LCS "a b c" of length 3; hyp len 4, ref len 4 -> P=R=F=0.75.
  EXPECT_NEAR(rougeL_f("a x b c", "a b y c"), 0.75, 1e-9);
  // ROUGE-1 sees 3 shared unigrams of 4 -> also 0.75; with reordering
  // ROUGE-L drops below ROUGE-1.
  EXPECT_LT(rougeL_f("c b a", "a b c"), rouge1_f("c b a", "a b c"));
}

TEST(ExactMatch, NormalizesWhitespaceOnly) {
  EXPECT_EQ(exact_match("a  b", "a b"), 1.0);
  EXPECT_EQ(exact_match("a b", "a c"), 0.0);
}

TEST(TokenF1, PartialOverlap) {
  // hyp {a,b}, ref {b,c}: P = 1/2, R = 1/2 -> F1 = 1/2.
  EXPECT_NEAR(token_f1("a b", "b c"), 0.5, 1e-9);
}

TEST(SplitWords, HandlesEdgeCases) {
  EXPECT_TRUE(split_words("").empty());
  EXPECT_EQ(split_words("  x   y ").size(), 2u);
}

// ---- statistics -----------------------------------------------------------

TEST(Accumulator, WelfordMeanAndVariance) {
  Accumulator acc;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) acc.add(v);
  EXPECT_EQ(acc.n(), 8);
  EXPECT_NEAR(acc.mean(), 5.0, 1e-12);
  EXPECT_NEAR(acc.variance(), 32.0 / 7.0, 1e-9);  // sample variance
  EXPECT_NEAR(acc.stddev(), std::sqrt(32.0 / 7.0), 1e-9);
}

TEST(Accumulator, EmptyAndSingle) {
  Accumulator acc;
  EXPECT_EQ(acc.mean(), 0.0);
  EXPECT_EQ(acc.variance(), 0.0);
  acc.add(3.0);
  EXPECT_EQ(acc.mean(), 3.0);
  EXPECT_EQ(acc.variance(), 0.0);
}

TEST(KatzCI, EqualProportionsGiveRatioOne) {
  const Ratio r = katz_ratio_ci(80, 100, 80, 100);
  EXPECT_NEAR(r.value, 1.0, 1e-12);
  EXPECT_LT(r.lo, 1.0);
  EXPECT_GT(r.hi, 1.0);
  EXPECT_NEAR(r.lo * r.hi, r.value * r.value, 1e-6);  // symmetric in log
}

TEST(KatzCI, KnownValue) {
  // p1 = 0.7 (70/100), p2 = 0.9 (90/100): R = 7/9,
  // se = sqrt(0.3/70 + 0.1/90) ~= 0.07349.
  const Ratio r = katz_ratio_ci(70, 100, 90, 100);
  EXPECT_NEAR(r.value, 7.0 / 9.0, 1e-12);
  const double se = std::sqrt(0.3 / 70 + 0.1 / 90);
  EXPECT_NEAR(r.lo, r.value * std::exp(-1.96 * se), 1e-6);
  EXPECT_NEAR(r.hi, r.value * std::exp(1.96 * se), 1e-6);
}

TEST(KatzCI, DegenerateInputs) {
  // Zero baseline hits: degenerate wide interval, no crash.
  const Ratio none = katz_ratio_ci(5, 10, 0, 10);
  EXPECT_EQ(none.lo, 0.0);
  // Zero faulty hits: continuity correction keeps lo/hi finite and the
  // point estimate is the corrected ratio, not 0.
  const Ratio zf = katz_ratio_ci(0, 10, 8, 10);
  EXPECT_GT(zf.value, 0.0);
  EXPECT_GE(zf.lo, 0.0);
  EXPECT_TRUE(std::isfinite(zf.hi));
}

// Regression: with fault_hits == 0 the point estimate used to be the raw
// ratio (0) while lo/hi came from the continuity-corrected one, so the
// reported CI excluded its own point estimate (lo > value).
TEST(KatzCI, IntervalContainsPointEstimate) {
  for (const auto& [fh, fn, bh, bn] :
       {std::tuple{0, 10, 8, 10}, std::tuple{0, 500, 450, 500},
        std::tuple{3, 10, 9, 10}, std::tuple{10, 10, 10, 10},
        std::tuple{1, 1000, 999, 1000}}) {
    const Ratio r = katz_ratio_ci(fh, fn, bh, bn);
    EXPECT_LE(r.lo, r.value) << fh << "/" << fn << " vs " << bh << "/" << bn;
    EXPECT_LE(r.value, r.hi) << fh << "/" << fn << " vs " << bh << "/" << bn;
    // The correction must only kick in when needed: with nonzero counts
    // the point estimate is the plain ratio of proportions.
    if (fh > 0) {
      EXPECT_EQ(r.value, (static_cast<double>(fh) / fn) /
                             (static_cast<double>(bh) / bn));
    }
  }
}

TEST(LogRatioCI, ShrinksWithSampleSize) {
  const Ratio small = log_ratio_ci(0.45, 0.2, 20, 0.5, 0.2, 20);
  const Ratio big = log_ratio_ci(0.45, 0.2, 2000, 0.5, 0.2, 2000);
  EXPECT_NEAR(small.value, 0.9, 1e-9);
  EXPECT_NEAR(big.value, 0.9, 1e-9);
  EXPECT_LT(big.hi - big.lo, small.hi - small.lo);
}

TEST(LogRatioCI, ZeroVarianceCollapsesToPoint) {
  const Ratio r = log_ratio_ci(0.8, 0.0, 10, 1.0, 0.0, 10);
  EXPECT_NEAR(r.lo, 0.8, 1e-9);
  EXPECT_NEAR(r.hi, 0.8, 1e-9);
}

}  // namespace
}  // namespace llmfi::metrics

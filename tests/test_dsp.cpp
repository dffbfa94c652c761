// Tests for the double-precision DSP reference: FIR engine, frequency
// responses of the Pan-Tompkins tap sets, reference chain sanity.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "xbs/dsp/fir.hpp"
#include "xbs/dsp/pt_coeffs.hpp"
#include "xbs/dsp/pt_recursive.hpp"
#include "xbs/dsp/pt_reference.hpp"

namespace xbs::dsp {
namespace {

std::vector<double> norm_taps(std::span<const int> taps, double gain) {
  std::vector<double> out;
  for (const int t : taps) out.push_back(t / gain);
  return out;
}

TEST(Fir, ImpulseResponseIsTaps) {
  FirFilter f({0.5, -0.25, 0.125});
  std::vector<double> x = {1, 0, 0, 0};
  const auto y = f.filter(x);
  EXPECT_DOUBLE_EQ(y[0], 0.5);
  EXPECT_DOUBLE_EQ(y[1], -0.25);
  EXPECT_DOUBLE_EQ(y[2], 0.125);
  EXPECT_DOUBLE_EQ(y[3], 0.0);
}

TEST(Fir, StepResponseConvergesToTapSum) {
  FirFilter f({0.2, 0.2, 0.2, 0.2, 0.2});
  double y = 0;
  for (int i = 0; i < 10; ++i) y = f.process(1.0);
  EXPECT_NEAR(y, 1.0, 1e-12);
}

TEST(Fir, ResetClearsState) {
  FirFilter f({1.0, 1.0});
  (void)f.process(5.0);
  f.reset();
  EXPECT_DOUBLE_EQ(f.process(1.0), 1.0);
}

TEST(Fir, EmptyTapsThrow) { EXPECT_THROW(FirFilter({}), std::invalid_argument); }

TEST(PtCoeffs, LpfStructureMatchesPaper) {
  // 11 taps, triangular, 10 adders / 11 multipliers / 10 registers (§2).
  EXPECT_EQ(pt::kLpfTaps.size(), 11u);
  int sum = 0;
  for (const int t : pt::kLpfTaps) sum += t;
  EXPECT_EQ(sum, 36);  // DC gain before the >>5 normalization
  // Triangular symmetry.
  for (std::size_t i = 0; i < pt::kLpfTaps.size(); ++i) {
    EXPECT_EQ(pt::kLpfTaps[i], pt::kLpfTaps[pt::kLpfTaps.size() - 1 - i]);
  }
}

TEST(PtCoeffs, HpfStructureMatchesPaper) {
  // 32 non-zero taps -> 32 multipliers, 31 adders (§4.2); zero DC gain.
  EXPECT_EQ(pt::kHpfTaps.size(), 32u);
  int nonzero = 0, sum = 0;
  for (const int t : pt::kHpfTaps) {
    nonzero += (t != 0) ? 1 : 0;
    sum += t;
  }
  EXPECT_EQ(nonzero, 32);
  EXPECT_EQ(sum, 0);  // perfect DC rejection
  EXPECT_EQ(pt::kHpfTaps[16], 31);
}

TEST(PtCoeffs, DerCoefficientMagnitudes) {
  // Magnitudes 2 and 1 only (§4.2).
  for (const int t : pt::kDerTaps) EXPECT_LE(std::abs(t), 2);
  EXPECT_EQ(pt::kDerTaps[0], 2);
  EXPECT_EQ(pt::kDerTaps[4], -2);
}

TEST(FrequencyResponse, LpfPassesLowBlocksHigh) {
  const auto taps = norm_taps(pt::kLpfTaps, 36.0);
  const double dc = magnitude_response(taps, 0.0, 200.0);
  const double at5 = magnitude_response(taps, 5.0, 200.0);
  const double at40 = magnitude_response(taps, 40.0, 200.0);
  EXPECT_NEAR(dc, 1.0, 1e-12);
  EXPECT_GT(at5, 0.8);
  EXPECT_LT(at40, 0.15);
}

TEST(FrequencyResponse, HpfBlocksDcAndBaselineWander) {
  const auto taps = norm_taps(pt::kHpfTaps, 32.0);
  EXPECT_NEAR(magnitude_response(taps, 0.0, 200.0), 0.0, 1e-12);
  EXPECT_LT(magnitude_response(taps, 0.3, 200.0), 0.12);  // baseline wander
  EXPECT_GT(magnitude_response(taps, 8.0, 200.0), 0.8);   // QRS band
}

TEST(FrequencyResponse, DifferentiatorIsLinearInLowBand) {
  const auto taps = norm_taps(pt::kDerTaps, 8.0);
  // |H(f)| approximately proportional to f in the low band (the response
  // flattens toward 30 Hz, so test well inside the linear region).
  const double h5 = magnitude_response(taps, 5.0, 200.0);
  const double h10 = magnitude_response(taps, 10.0, 200.0);
  EXPECT_NEAR(h10 / h5, 2.0, 0.25);
}

TEST(Reference, ChainShapesSane) {
  // A 2 Hz sine survives the LPF but dies in the HPF passband edge; MWI is
  // non-negative by construction.
  std::vector<double> x;
  for (int i = 0; i < 2000; ++i)
    x.push_back(std::sin(2.0 * std::numbers::pi * 2.0 * i / 200.0));
  const PtReferenceOutput out = pt_reference_chain(x);
  ASSERT_EQ(out.mwi.size(), x.size());
  for (const double v : out.mwi) EXPECT_GE(v, 0.0);
  // LPF keeps the 2 Hz component.
  double lpf_rms = 0, hpf_rms = 0;
  for (std::size_t i = 500; i < x.size(); ++i) {
    lpf_rms += out.lpf[i] * out.lpf[i];
    hpf_rms += out.hpf[i] * out.hpf[i];
  }
  EXPECT_GT(lpf_rms, 10.0 * hpf_rms);  // HPF attenuates 2 Hz strongly
}

TEST(Reference, PipelineDelayConstant) {
  EXPECT_DOUBLE_EQ(pt::kPipelineDelay, 5.0 + 15.5 + 2.0 + 14.5);
}

TEST(FirStreaming, ChunkedFilterBitIdenticalToBatchAndScalar) {
  FirFilter f(norm_taps(pt::kLpfTaps, 36.0));
  std::vector<double> x;
  for (int i = 0; i < 500; ++i) {
    x.push_back(std::sin(2.0 * std::numbers::pi * 7.0 * i / 200.0) + 0.2 * std::cos(0.11 * i));
  }
  const auto batch = f.filter(x);
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{13}, std::size_t{128}}) {
    f.reset();
    std::vector<double> streamed;
    for (std::size_t at = 0; at < x.size(); at += chunk) {
      const auto len = std::min(chunk, x.size() - at);
      const auto y = f.filter_chunk(std::span<const double>(x).subspan(at, len));
      streamed.insert(streamed.end(), y.begin(), y.end());
    }
    EXPECT_EQ(streamed, batch) << "chunk " << chunk;
  }
  // Scalar streaming through the same member state matches too.
  f.reset();
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_DOUBLE_EQ(f.process(x[i]), batch[i]) << i;
  }
}

TEST(PtRecursiveStreaming, ChunkedRecursiveFiltersMatchWholeRecord) {
  std::vector<double> x;
  for (int i = 0; i < 400; ++i) {
    x.push_back(std::sin(2.0 * std::numbers::pi * 5.0 * i / 200.0) + 0.1 * i / 400.0);
  }
  const auto lpf_batch = pt_recursive_lpf(x);
  const auto hpf_batch = pt_recursive_hpf(x);
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{17}, std::size_t{100}}) {
    PtRecursiveLpf lpf_filter;
    PtRecursiveHpf hpf_filter;
    std::vector<double> lpf, hpf;
    for (std::size_t at = 0; at < x.size(); at += chunk) {
      const auto len = std::min(chunk, x.size() - at);
      const auto span = std::span<const double>(x).subspan(at, len);
      const auto l = lpf_filter.process_chunk(span);
      const auto h = hpf_filter.process_chunk(span);
      lpf.insert(lpf.end(), l.begin(), l.end());
      hpf.insert(hpf.end(), h.begin(), h.end());
    }
    EXPECT_EQ(lpf, lpf_batch) << "chunk " << chunk;
    EXPECT_EQ(hpf, hpf_batch) << "chunk " << chunk;
    // reset() re-arms the same filter for a fresh record.
    lpf_filter.reset();
    hpf_filter.reset();
    EXPECT_EQ(lpf_filter.process_chunk(x), lpf_batch) << "chunk " << chunk;
    EXPECT_EQ(hpf_filter.process_chunk(x), hpf_batch) << "chunk " << chunk;
  }
}

}  // namespace
}  // namespace xbs::dsp

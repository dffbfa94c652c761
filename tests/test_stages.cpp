// Tests for the fixed-point Pan-Tompkins stage datapaths.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "xbs/arith/kernel.hpp"
#include "xbs/common/rng.hpp"
#include "xbs/dsp/pt_coeffs.hpp"
#include "xbs/dsp/pt_reference.hpp"
#include "xbs/pantompkins/stages.hpp"

namespace xbs::pantompkins {
namespace {

TEST(Inventory, MatchesPaperCounts) {
  EXPECT_EQ(stage_inventory(Stage::Lpf).n_adders, 10);
  EXPECT_EQ(stage_inventory(Stage::Lpf).n_mults, 11);
  EXPECT_EQ(stage_inventory(Stage::Lpf).n_registers, 10);
  EXPECT_EQ(stage_inventory(Stage::Hpf).n_adders, 31);
  EXPECT_EQ(stage_inventory(Stage::Hpf).n_mults, 32);
  EXPECT_EQ(stage_inventory(Stage::Der).n_mults, 4);
  EXPECT_EQ(stage_inventory(Stage::Sqr).n_mults, 1);
  EXPECT_EQ(stage_inventory(Stage::Sqr).n_adders, 0);
  EXPECT_EQ(stage_inventory(Stage::Mwi).n_mults, 0);
  EXPECT_EQ(stage_inventory(Stage::Mwi).n_adders, 29);
  // Paper sweep limits (§6.2): DER 4, SQR 8, MWI 16.
  EXPECT_EQ(stage_inventory(Stage::Der).max_lsbs, 4);
  EXPECT_EQ(stage_inventory(Stage::Sqr).max_lsbs, 8);
  EXPECT_EQ(stage_inventory(Stage::Mwi).max_lsbs, 16);
}

TEST(FirStage, MatchesDoubleReferenceWithinQuantization) {
  // Exact-datapath LPF vs the double-precision reference (gain 36 vs >>5):
  // outputs must track within integer truncation error of the shift.
  arith::ExactKernel kernel;
  FirStage lpf(dsp::pt::kLpfTaps, dsp::pt::kLpfShift, kernel);
  std::vector<double> x;
  Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    x.push_back(8000.0 * std::sin(2.0 * std::numbers::pi * 3.0 * i / 200.0) +
                rng.gaussian(0.0, 500.0));
  }
  const auto ref = dsp::pt_reference_chain(x);
  for (std::size_t i = 0; i < x.size(); ++i) {
    const i32 fixed = lpf.process(static_cast<i32>(std::lround(x[i])));
    const double expect = ref.lpf[i] * 36.0 / 32.0;  // reference uses /36, hw >>5
    EXPECT_NEAR(fixed, expect, 2.0) << i;
  }
}

TEST(FirStage, OutputSaturatesTo16Bit) {
  arith::ExactKernel kernel;
  FirStage lpf(dsp::pt::kLpfTaps, dsp::pt::kLpfShift, kernel);
  i32 y = 0;
  for (int i = 0; i < 30; ++i) y = lpf.process(32767);  // step of full-scale
  EXPECT_EQ(y, 32767);  // 36*32767>>5 would exceed: must clamp
}

TEST(FirStage, ZeroTapsSkipped) {
  arith::ExactKernel kernel;
  FirStage der(dsp::pt::kDerTaps, dsp::pt::kDerShift, kernel);
  for (int i = 0; i < 100; ++i) (void)der.process(1000);
  // 4 non-zero taps -> 4 multiplies, 3 adds per sample.
  EXPECT_EQ(kernel.counts().mults, 400u);
  EXPECT_EQ(kernel.counts().adds, 300u);
}

TEST(FirStage, ResetRestoresInitialState) {
  arith::ExactKernel kernel;
  FirStage f(dsp::pt::kDerTaps, dsp::pt::kDerShift, kernel);
  const i32 first = f.process(5000);
  (void)f.process(-3000);
  f.reset();
  EXPECT_EQ(f.process(5000), first);
}

TEST(Squarer, SquaresAndShifts) {
  arith::ExactKernel kernel;
  SquarerStage sqr(dsp::pt::kSqrShift, kernel);
  EXPECT_EQ(sqr.process(100), (100 * 100) >> dsp::pt::kSqrShift);
  EXPECT_EQ(sqr.process(-100), (100 * 100) >> dsp::pt::kSqrShift);  // always positive
  EXPECT_EQ(sqr.process(0), 0);
  // Saturating clamp on the 16-bit input port.
  EXPECT_EQ(sqr.process(100000), (i64{32767} * 32767) >> dsp::pt::kSqrShift);
}

TEST(Mwi, MatchesRunningSumShifted) {
  arith::ExactKernel kernel;
  MwiStage mwi(4, 2, kernel);  // window 4, >>2 == /4 exactly
  const std::vector<i32> xs = {4, 8, 12, 16, 20, 24};
  std::vector<i32> got;
  for (const i32 x : xs) got.push_back(mwi.process(x));
  // Window contents: {4}, {4,8}, {4,8,12}, {4..16}, {8..20}, {12..24}.
  EXPECT_EQ(got[0], 1);
  EXPECT_EQ(got[1], 3);
  EXPECT_EQ(got[2], 6);
  EXPECT_EQ(got[3], 10);
  EXPECT_EQ(got[4], 14);
  EXPECT_EQ(got[5], 18);
}

TEST(Mwi, AdderOnlyOpCounts) {
  arith::ExactKernel kernel;
  MwiStage mwi(30, dsp::pt::kMwiShift, kernel);
  for (int i = 0; i < 10; ++i) (void)mwi.process(100);
  EXPECT_EQ(kernel.counts().mults, 0u);
  EXPECT_EQ(kernel.counts().adds, 290u);  // 29 adds per sample
}

TEST(Mwi, ChunkChargesWindowMinusOneAddsPerOutput) {
  // The chunked transform runs fewer adds than the hardware tree (shared
  // subtrees) but charges the tree's window-1 adds per output, like process().
  for (const int window : {2, 3, 30, 31}) {
    arith::ExactKernel kernel;
    MwiStage mwi(window, 0, kernel);
    std::vector<i32> y;
    for (const std::size_t n : {1, 64, 1024}) {
      const arith::OpCounts before = kernel.counts();
      mwi.process_chunk(std::vector<i32>(n, 100), y);
      EXPECT_EQ(kernel.counts().adds - before.adds, n * static_cast<std::size_t>(window - 1))
          << "window " << window << ", n " << n;
      EXPECT_EQ(kernel.counts().mults, 0u);
    }
  }
}

TEST(Mwi, EmptyChunkIsNoOp) {
  arith::ExactKernel kernel;
  arith::ExactKernel twin_kernel;
  MwiStage mwi(30, 0, kernel);
  MwiStage twin(30, 0, twin_kernel);
  const std::vector<i32> x = {5, 9, 1 << 30, -3, 77};
  std::vector<i32> y;
  std::vector<i32> twin_y;
  mwi.process_chunk(x, y);
  twin.process_chunk(x, twin_y);

  y.assign(3, -1);
  mwi.process_chunk({}, y);
  EXPECT_TRUE(y.empty());
  EXPECT_EQ(kernel.counts(), twin_kernel.counts());
  // The carried window is untouched: both stages continue identically.
  mwi.process_chunk(x, y);
  twin.process_chunk(x, twin_y);
  EXPECT_EQ(y, twin_y);
  EXPECT_EQ(mwi.process(11), twin.process(11));
  EXPECT_EQ(kernel.counts(), twin_kernel.counts());
}

TEST(Mwi, InvalidWindowThrows) {
  arith::ExactKernel kernel;
  EXPECT_THROW(MwiStage(1, 0, kernel), std::invalid_argument);
}

TEST(ApproxKernelVsExactKernel, IdenticalAtZeroLsbs) {
  // The bit-accurate datapath with k = 0 must match native arithmetic
  // exactly — the foundational correctness property of the whole pipeline.
  arith::ExactKernel exact;
  arith::ApproxKernel approx(arith::StageArithConfig::uniform(0));
  Rng rng(9);
  for (int t = 0; t < 2000; ++t) {
    const i64 a = rng.uniform_int(-2000000, 2000000);
    const i64 b = rng.uniform_int(-2000000, 2000000);
    EXPECT_EQ(approx.add(a, b), exact.add(a, b));
    EXPECT_EQ(approx.sub(a, b), exact.sub(a, b));
    const i64 ma = rng.uniform_int(-32768, 32767);
    const i64 mb = rng.uniform_int(-32768, 32767);
    EXPECT_EQ(approx.mul(ma, mb), exact.mul(ma, mb));
  }
}

}  // namespace
}  // namespace xbs::pantompkins

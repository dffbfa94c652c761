// Property tests: the batched kernel ops (exact and approximate backends)
// are bit-identical to the counted scalar ops of a separate kernel — the
// table-free reference datapath — across random operands and every
// (AdderKind, MultKind, approx_lsbs) combination, and each stage's chunked
// transform is bit-identical to streaming the same samples through its
// per-sample process(x) — including operation counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "xbs/arith/isa.hpp"
#include "xbs/arith/kernel.hpp"
#include "xbs/common/rng.hpp"
#include "xbs/core/paper_configs.hpp"
#include "xbs/dsp/pt_coeffs.hpp"
#include "xbs/ecg/dataset.hpp"
#include "xbs/pantompkins/pipeline.hpp"
#include "xbs/pantompkins/stages.hpp"

namespace xbs::arith {
namespace {

// Long enough to exercise the coefficient-product-table fast path of the
// approximate mac_n/mul_cn (which engages above an internal block-size
// threshold) as well as the generic loops.
constexpr std::size_t kBlockLen = 700;
constexpr std::size_t kShortLen = 33;  // below the table threshold

std::vector<i64> random_adder_operands(Rng& rng, std::size_t n) {
  std::vector<i64> v(n);
  for (i64& x : v) x = rng.uniform_int(-2000000000, 2000000000);
  return v;
}

std::vector<i64> random_mult_operands(Rng& rng, std::size_t n) {
  std::vector<i64> v(n);
  for (i64& x : v) x = rng.uniform_int(-32768, 32767);
  return v;
}

class KernelEquivalence
    : public ::testing::TestWithParam<std::tuple<AdderKind, MultKind, int>> {};

TEST_P(KernelEquivalence, BatchedMatchesScalarOps) {
  const auto [add_kind, mult_kind, lsbs] = GetParam();
  const StageArithConfig cfg = StageArithConfig::uniform(lsbs, add_kind, mult_kind);
  ApproxKernel scalar(cfg);
  const std::unique_ptr<Kernel> kernel = make_kernel(cfg);
  Rng rng(77 + static_cast<u64>(lsbs) * 31 + static_cast<u64>(add_kind) * 7 +
          static_cast<u64>(mult_kind));

  for (const std::size_t n : {kShortLen, kBlockLen}) {
    const std::vector<i64> a = random_adder_operands(rng, n);
    const std::vector<i64> b = random_adder_operands(rng, n);
    const std::vector<i64> ma = random_mult_operands(rng, n);
    const std::vector<i64> mb = random_mult_operands(rng, n);
    std::vector<i64> out(n);

    kernel->add_n(a, b, out);
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(out[i], scalar.add(a[i], b[i])) << i;

    kernel->sub_n(a, b, out);
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(out[i], scalar.sub(a[i], b[i])) << i;

    kernel->mul_n(ma, mb, out);
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(out[i], scalar.mul(ma[i], mb[i])) << i;

    // Constant-coefficient multiply and fused MAC against the scalar chain,
    // for positive, negative and zero coefficients.
    for (const i64 c : {i64{31}, i64{-6}, i64{0}, i64{-32768}}) {
      kernel->mul_cn(c, ma, out);
      for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(out[i], scalar.mul(c, ma[i])) << i;

      std::vector<i64> acc = a;
      kernel->mac_n(c, ma, acc);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(acc[i], scalar.add(a[i], scalar.mul(c, ma[i]))) << i;
      }
    }
  }

  // The long blocks above built the coefficient product tables; a short
  // block now takes the warm-table fast path, which must stay bit-identical
  // to the cold generic loop it replaces.
  {
    const std::vector<i64> ma = random_mult_operands(rng, kShortLen);
    const std::vector<i64> a = random_adder_operands(rng, kShortLen);
    std::vector<i64> out(kShortLen);
    for (const i64 c : {i64{31}, i64{-6}}) {
      kernel->mul_cn(c, ma, out);
      for (std::size_t i = 0; i < kShortLen; ++i) EXPECT_EQ(out[i], scalar.mul(c, ma[i])) << i;
      std::vector<i64> acc = a;
      kernel->mac_n(c, ma, acc);
      for (std::size_t i = 0; i < kShortLen; ++i) {
        EXPECT_EQ(acc[i], scalar.add(a[i], scalar.mul(c, ma[i]))) << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    KindsAndLsbs, KernelEquivalence,
    ::testing::Combine(::testing::ValuesIn(kAllAdderKinds),
                       ::testing::ValuesIn(kAllMultKinds),
                       ::testing::Values(0, 2, 5, 8, 16)));

TEST(KernelEquivalence, ExactBatchedMatchesScalarOps) {
  ExactKernel scalar;
  ExactKernel kernel;
  Rng rng(5);
  const std::vector<i64> a = random_adder_operands(rng, kBlockLen);
  const std::vector<i64> b = random_adder_operands(rng, kBlockLen);
  const std::vector<i64> ma = random_mult_operands(rng, kBlockLen);
  const std::vector<i64> mb = random_mult_operands(rng, kBlockLen);
  std::vector<i64> out(kBlockLen);

  kernel.add_n(a, b, out);
  for (std::size_t i = 0; i < kBlockLen; ++i) EXPECT_EQ(out[i], scalar.add(a[i], b[i]));
  kernel.sub_n(a, b, out);
  for (std::size_t i = 0; i < kBlockLen; ++i) EXPECT_EQ(out[i], scalar.sub(a[i], b[i]));
  kernel.mul_n(ma, mb, out);
  for (std::size_t i = 0; i < kBlockLen; ++i) EXPECT_EQ(out[i], scalar.mul(ma[i], mb[i]));
  std::vector<i64> acc = a;
  kernel.mac_n(-7, ma, acc);
  for (std::size_t i = 0; i < kBlockLen; ++i) {
    EXPECT_EQ(acc[i], scalar.add(a[i], scalar.mul(-7, ma[i])));
  }
}

TEST(KernelEquivalence, UncountedAddCountsNothingAndChargeCountsExactly) {
  const std::unique_ptr<Kernel> kernel = make_kernel(StageArithConfig::uniform(8));
  Rng rng(12);
  const std::vector<i64> a = random_adder_operands(rng, kBlockLen);
  const std::vector<i64> b = random_adder_operands(rng, kBlockLen);
  std::vector<i64> counted(kBlockLen);
  std::vector<i64> uncounted(kBlockLen);
  kernel->add_n(a, b, counted);
  kernel->reset_counts();
  kernel->add_n_uncounted(a, b, uncounted);
  EXPECT_EQ(uncounted, counted);
  EXPECT_EQ(kernel->counts(), OpCounts{});
  kernel->charge(OpCounts{.adds = 29, .mults = 3});
  kernel->charge(OpCounts{.adds = 1});
  EXPECT_EQ(kernel->counts(), (OpCounts{.adds = 30, .mults = 3}));
}

TEST(KernelEquivalence, OpCountsMatchScalarTotals) {
  const StageArithConfig cfg = StageArithConfig::uniform(8);
  const std::unique_ptr<Kernel> kernel = make_kernel(cfg);
  Rng rng(11);
  const std::vector<i64> x = random_mult_operands(rng, kBlockLen);
  std::vector<i64> acc(kBlockLen, 0);
  kernel->mul_cn(3, x, acc);
  kernel->mac_n(5, x, acc);
  EXPECT_EQ(kernel->counts().mults, 2 * kBlockLen);
  EXPECT_EQ(kernel->counts().adds, kBlockLen);
}

}  // namespace
}  // namespace xbs::arith

namespace xbs::pantompkins {
namespace {

std::vector<i32> sample_signal(std::size_t n, u64 seed) {
  Rng rng(seed);
  std::vector<i32> x(n);
  for (i32& v : x) v = static_cast<i32>(rng.uniform_int(-20000, 20000));
  return x;
}

/// Every adder kind at three LSB depths: AMA4/AMA5 run the FIR as fir_n's
/// product rows over carry-free adds, the other kinds take fir_n's per-tap
/// chain (mul_cn's table walk plus mac_n over the simulated adder).
class StageBlockEquivalence
    : public ::testing::TestWithParam<std::tuple<AdderKind, int>> {
 protected:
  [[nodiscard]] static arith::StageArithConfig config() {
    const auto [add_kind, lsbs] = GetParam();
    return arith::StageArithConfig::uniform(lsbs, add_kind);
  }
};

TEST_P(StageBlockEquivalence, FirBlockMatchesStreaming) {
  const arith::StageArithConfig cfg = config();
  const std::vector<i32> x = sample_signal(900, 3);

  arith::ApproxKernel scalar_kernel(cfg);
  FirStage scalar(dsp::pt::kLpfTaps, dsp::pt::kLpfShift, scalar_kernel);
  std::vector<i32> want;
  for (const i32 v : x) want.push_back(scalar.process(v));

  const std::unique_ptr<arith::Kernel> kernel = arith::make_kernel(cfg);
  FirStage block(dsp::pt::kLpfTaps, dsp::pt::kLpfShift, *kernel);
  std::vector<i32> got;
  block.process_chunk(x, got);

  EXPECT_EQ(got, want);
  EXPECT_EQ(kernel->counts(), scalar_kernel.counts());

  // The chunked transform leaves the stage in streaming state: continuing
  // sample-by-sample must agree with the pure streaming run.
  for (const i32 v : {1000, -2000, 3000}) {
    EXPECT_EQ(block.process(v), scalar.process(v));
  }
}

TEST_P(StageBlockEquivalence, MwiBlockMatchesStreaming) {
  const arith::StageArithConfig cfg = config();
  std::vector<i32> x = sample_signal(500, 4);
  for (i32& v : x) v = v < 0 ? -v : v;  // MWI input (squared signal) is non-negative

  arith::ApproxKernel scalar_kernel(cfg);
  MwiStage scalar(dsp::pt::kMwiWindow, dsp::pt::kMwiShift, scalar_kernel);
  std::vector<i32> want;
  for (const i32 v : x) want.push_back(scalar.process(v));

  const std::unique_ptr<arith::Kernel> kernel = arith::make_kernel(cfg);
  MwiStage block(dsp::pt::kMwiWindow, dsp::pt::kMwiShift, *kernel);
  std::vector<i32> got;
  block.process_chunk(x, got);

  EXPECT_EQ(got, want);
  EXPECT_EQ(kernel->counts(), scalar_kernel.counts());
  for (const i32 v : {500, 700, 900}) {
    EXPECT_EQ(block.process(v), scalar.process(v));
  }
}

TEST_P(StageBlockEquivalence, SquarerBlockMatchesStreaming) {
  const arith::StageArithConfig cfg = config();
  const std::vector<i32> x = sample_signal(600, 5);

  arith::ApproxKernel scalar_kernel(cfg);
  SquarerStage scalar(dsp::pt::kSqrShift, scalar_kernel);
  std::vector<i32> want;
  for (const i32 v : x) want.push_back(scalar.process(v));

  const std::unique_ptr<arith::Kernel> kernel = arith::make_kernel(cfg);
  SquarerStage block(dsp::pt::kSqrShift, *kernel);
  std::vector<i32> got;
  block.process_chunk(x, got);
  EXPECT_EQ(got, want);
  EXPECT_EQ(kernel->counts(), scalar_kernel.counts());
}

INSTANTIATE_TEST_SUITE_P(KindsAndLsbs, StageBlockEquivalence,
                         ::testing::Combine(::testing::ValuesIn(kAllAdderKinds),
                                            ::testing::Values(0, 4, 10)));

TEST(StageShortChunkEquivalence, OneWarmTapTakesTheTapChain) {
  // Below the table-build threshold (512 samples) fir_n uses only tables
  // that are already warm. With one LPF coefficient warm and the others cold
  // it runs the per-tap chain: scalar multiplies for the cold taps and the
  // warm coefficient's mac_n as a table walk. No other test in this binary
  // uses 7 LSBs, so every other tap's table is cold here.
  constexpr int kWarmCoeff = 4;
  const std::vector<i32> x = sample_signal(200, 6);
  for (const AdderKind add_kind : kAllAdderKinds) {
    const arith::StageArithConfig cfg = arith::StageArithConfig::uniform(7, add_kind);
    (void)arith::get_signed_coeff_products(cfg.mult, kWarmCoeff);
    for (const int c : dsp::pt::kLpfTaps) {
      if (c == kWarmCoeff) continue;
      ASSERT_EQ(arith::peek_signed_coeff_products(cfg.mult, c), nullptr)
          << to_string(add_kind) << " c=" << c;
    }

    arith::ApproxKernel scalar_kernel(cfg);
    FirStage scalar(dsp::pt::kLpfTaps, dsp::pt::kLpfShift, scalar_kernel);
    std::vector<i32> want;
    for (const i32 v : x) want.push_back(scalar.process(v));

    const arith::TableCacheStats before = arith::table_cache_stats();
    arith::ApproxKernel kernel(cfg);
    FirStage block(dsp::pt::kLpfTaps, dsp::pt::kLpfShift, kernel);
    std::vector<i32> got;
    block.process_chunk(x, got);

    EXPECT_EQ(got, want) << to_string(add_kind);
    EXPECT_EQ(kernel.counts(), scalar_kernel.counts()) << to_string(add_kind);
    // The short chunk built no table: the cold taps stayed cold.
    EXPECT_EQ(arith::table_cache_stats(), before) << to_string(add_kind);
  }
}

/// MWI input over the adders' range: magnitudes up to 2^30, so a window sum
/// wraps the 32-bit adders.
std::vector<i32> wide_signal(std::size_t n, u64 seed) {
  Rng rng(seed);
  std::vector<i32> x(n);
  for (i32& v : x) v = static_cast<i32>(rng.uniform_int(-(i64{1} << 30), i64{1} << 30));
  return x;
}

/// Streams \p x through MwiStage::process_chunk, for chunk sizes on either
/// side of the window and of run_stage's 1024-sample block, against the
/// literal per-sample tree (process(x)): outputs, op counts, and the window
/// carried on afterwards. Shift 0 keeps every bit of the tree's sum.
void expect_chunked_mwi_matches(const arith::StageArithConfig& cfg, int window,
                                std::span<const i32> x) {
  const std::vector<i32> tail = {7, 1 << 30, -(1 << 30), 12345};
  arith::ApproxKernel scalar_kernel(cfg);
  MwiStage scalar(window, 0, scalar_kernel);
  std::vector<i32> want;
  for (const i32 v : x) want.push_back(scalar.process(v));
  const arith::OpCounts want_counts = scalar_kernel.counts();
  std::vector<i32> want_tail;
  for (const i32 v : tail) want_tail.push_back(scalar.process(v));

  for (const std::size_t chunk : {1, 2, 3, 29, 30, 31, 64, 1023, 1024, 1025}) {
    SCOPED_TRACE(::testing::Message() << "window " << window << ", chunk " << chunk);
    const std::unique_ptr<arith::Kernel> kernel = arith::make_kernel(cfg);
    MwiStage block(window, 0, *kernel);
    std::vector<i32> got;
    std::vector<i32> y;
    for (std::size_t at = 0; at < x.size(); at += chunk) {
      block.process_chunk(x.subspan(at, std::min(chunk, x.size() - at)), y);
      got.insert(got.end(), y.begin(), y.end());
    }
    EXPECT_EQ(got, want);
    EXPECT_EQ(kernel->counts(), want_counts);
    for (std::size_t i = 0; i < tail.size(); ++i) {
      EXPECT_EQ(block.process(tail[i]), want_tail[i]) << i;
    }
    EXPECT_EQ(kernel->counts(), scalar_kernel.counts());
  }
}

/// Shared-subtree MWI on the paper's 30-term window, every adder kind from
/// exact to a fully approximate 32-bit adder. Adder-only configs: MWI has
/// no multiplier.
class MwiSharedSubtree : public ::testing::TestWithParam<std::tuple<AdderKind, int>> {};

TEST_P(MwiSharedSubtree, ChunkedMatchesPerSampleTree) {
  const auto [add_kind, lsbs] = GetParam();
  arith::StageArithConfig cfg;
  cfg.adder = arith::AdderConfig{32, lsbs, add_kind, 0};
  expect_chunked_mwi_matches(cfg, dsp::pt::kMwiWindow, wide_signal(2111, 8));
}

INSTANTIATE_TEST_SUITE_P(KindsAndLsbs, MwiSharedSubtree,
                         ::testing::Combine(::testing::ValuesIn(kAllAdderKinds),
                                            ::testing::Values(0, 4, 10, 16, 32)));

TEST(MwiSharedSubtreeWindows, EveryWindowWithPortAsymmetricAdder) {
  // AMA5's approximate sum bits are the B operand's: swapping a node's
  // ports changes its value, so every tree shape must keep its port order.
  const std::vector<i32> x = wide_signal(2111, 9);
  for (const int lsbs : {16, 32}) {
    arith::StageArithConfig cfg;
    cfg.adder = arith::AdderConfig{32, lsbs, AdderKind::Approx5, 0};
    for (const int window : {2, 3, 4, 5, 7, 16, 30, 31, 32}) {
      SCOPED_TRACE(::testing::Message() << "lsbs " << lsbs);
      expect_chunked_mwi_matches(cfg, window, x);
    }
  }
}

/// Tap sets of the sum-form FIR: the Pan-Tompkins filters, edge shapes, and
/// seeded random sets of 1-64 taps in [-40, 40] whose non-zero counts
/// alternate in parity.
std::vector<std::vector<int>> fir_tap_sets() {
  std::vector<std::vector<int>> sets = {
      {dsp::pt::kLpfTaps.begin(), dsp::pt::kLpfTaps.end()},
      {dsp::pt::kHpfTaps.begin(), dsp::pt::kHpfTaps.end()},
      {dsp::pt::kDerTaps.begin(), dsp::pt::kDerTaps.end()},
      {-7},                   // one tap
      {0, 0, 9, 0},           // one non-zero tap among zeros
      {0, 0, 5, -3, 40, 0},   // leading and trailing zeros
      {0, 0, 0},              // all zeros
  };
  Rng rng(2024);
  for (const std::size_t size : {1, 2, 8, 17, 33, 64}) {
    std::vector<int> taps(size);
    for (int& c : taps) c = static_cast<int>(rng.uniform_int(-40, 40));
    const auto nonzero = static_cast<std::size_t>(
        std::count_if(taps.begin(), taps.end(), [](int c) { return c != 0; }));
    if (nonzero % 2 != sets.size() % 2) taps.back() = taps.back() == 0 ? -40 : 0;
    sets.push_back(taps);
  }
  return sets;
}

/// Input over the full 16-bit range, its extremes first.
std::vector<i32> full_range_signal(std::size_t n, u64 seed) {
  std::vector<i32> x = {-32768, 32767, -32768, -32768, 32767, 32767, -1, 0, 1};
  Rng rng(seed);
  while (x.size() < n) x.push_back(static_cast<i32>(rng.uniform_int(-32768, 32767)));
  return x;
}

/// Streams \p x through FirStage::process_chunk under every usable ISA tier,
/// for chunk sizes on either side of the 16-output blocks, the table-build
/// threshold and run_stage's 1024-sample block, against the literal per-tap
/// chain (process(x)): outputs, op counts and the delay line carried on
/// afterwards. The stage's 16-bit output saturates most accumulators, so
/// fir_n's full accumulators over the same chunk windows are checked against
/// the chain too.
void expect_chunked_fir_matches(const arith::StageArithConfig& cfg, std::span<const int> taps,
                                std::span<const i32> x,
                                std::span<const std::size_t> chunks) {
  const std::vector<i32> tail = {32767, -32768, 123, -4567};
  const std::unique_ptr<arith::Kernel> scalar_kernel = arith::make_kernel(cfg);
  FirStage scalar(taps, 0, *scalar_kernel);
  std::vector<i32> want;
  for (const i32 v : x) want.push_back(scalar.process(v));
  const arith::OpCounts want_counts = scalar_kernel->counts();
  std::vector<i32> want_tail;
  for (const i32 v : tail) want_tail.push_back(scalar.process(v));

  const std::size_t T = taps.size();
  std::vector<i64> padded(T - 1, 0);  // a fresh stage's zero history, then x
  padded.insert(padded.end(), x.begin(), x.end());
  std::vector<i64> want_acc;
  for (std::size_t i = 0; i < x.size(); ++i) {
    i64 acc = 0;
    bool first = true;
    for (std::size_t j = 0; j < T; ++j) {
      if (taps[j] == 0) continue;
      const i64 p = scalar_kernel->mul(taps[j], padded[T - 1 - j + i]);
      acc = first ? p : scalar_kernel->add(acc, p);
      first = false;
    }
    want_acc.push_back(acc);
  }

  for (const arith::Isa isa : arith::kAllIsas) {
    if (!arith::isa_usable(isa)) continue;
    (void)arith::force_kernel_isa(isa);
    for (const std::size_t chunk : chunks) {
      SCOPED_TRACE(::testing::Message() << to_string(isa) << ", chunk " << chunk);
      const std::unique_ptr<arith::Kernel> kernel = arith::make_kernel(cfg);
      FirStage block(taps, 0, *kernel);
      std::vector<i32> got;
      std::vector<i32> y;
      std::vector<i64> got_acc(x.size());
      const std::unique_ptr<arith::Kernel> acc_kernel = arith::make_kernel(cfg);
      for (std::size_t at = 0; at < x.size(); at += chunk) {
        const std::size_t n = std::min(chunk, x.size() - at);
        block.process_chunk(x.subspan(at, n), y);
        got.insert(got.end(), y.begin(), y.end());
        acc_kernel->fir_n(taps, std::span<const i64>(padded).subspan(at, n + T - 1),
                          std::span<i64>(got_acc).subspan(at, n));
      }
      ASSERT_EQ(got_acc, want_acc);
      ASSERT_EQ(got, want);
      EXPECT_EQ(kernel->counts(), want_counts);
      EXPECT_EQ(acc_kernel->counts(), want_counts);
      for (std::size_t i = 0; i < tail.size(); ++i) {
        EXPECT_EQ(block.process(tail[i]), want_tail[i]) << i;
      }
    }
  }
  (void)arith::force_kernel_isa_auto();
}

constexpr std::size_t kFirChunks[] = {1, 2, 31, 32, 33, 64, 511, 512, 1023, 1024, 1025};

/// One multiplier for every adder: its tables are warmed once and shared.
constexpr arith::MultiplierConfig kFirMult{16, 4, AdderKind::Accurate, MultKind::V1,
                                           ApproxPolicy::Moderate};

/// The sum-form fir_n (one modular sum per output for the exact, accurate-
/// adder and AMA4/AMA5 chains; the reference chain for AMA1-AMA3) against
/// process(x), for every adder kind and approximate-bit count of a 32-bit
/// adder.
class FirSumForm : public ::testing::TestWithParam<AdderKind> {};

TEST_P(FirSumForm, ChunkedMatchesPerTapChain) {
  const std::vector<std::vector<int>> sets = fir_tap_sets();
  for (int c = -40; c <= 40; ++c) {
    if (c != 0) (void)arith::get_signed_coeff_products(kFirMult, c);
  }
  const std::vector<i32> x = full_range_signal(1100, 21);
  for (const int lsbs : {0, 1, 2, 4, 10, 16, 31, 32}) {
    arith::StageArithConfig cfg;
    cfg.adder = arith::AdderConfig{32, lsbs, GetParam(), 0};
    cfg.mult = kFirMult;
    for (std::size_t t = 0; t < sets.size(); ++t) {
      SCOPED_TRACE(::testing::Message() << "lsbs " << lsbs << ", tap set " << t);
      expect_chunked_fir_matches(cfg, sets[t], x, kFirChunks);
      if (HasFatalFailure()) return;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AdderKinds, FirSumForm, ::testing::ValuesIn(kAllAdderKinds));

TEST(FirSumFormExact, ExactKernelMatchesPerTapChain) {
  const std::vector<i32> x = full_range_signal(1100, 22);
  for (const std::vector<int>& taps : fir_tap_sets()) {
    expect_chunked_fir_matches(arith::StageArithConfig{}, taps, x, kFirChunks);
    if (HasFatalFailure()) return;
  }
}

TEST(FirSumFormFallbacks, WideTapSetsAndColdTablesTakeTheChain) {
  const std::vector<i32> x = full_range_signal(1100, 23);
  // 80 distinct coefficients: more than the sum form's 64 rows.
  std::vector<int> wide;
  for (int c = -40; c <= 40; ++c) {
    if (c != 0) wide.push_back(c);
  }
  for (const AdderKind kind : {AdderKind::Accurate, AdderKind::Approx4, AdderKind::Approx5}) {
    SCOPED_TRACE(to_string(kind));
    arith::StageArithConfig cfg;
    cfg.adder = arith::AdderConfig{32, 12, kind, 0};
    cfg.mult = kFirMult;
    expect_chunked_fir_matches(cfg, wide, x, kFirChunks);
    expect_chunked_fir_matches(arith::StageArithConfig{}, wide, x, kFirChunks);

    // A multiplier no other test builds: below the threshold the chunks use
    // no cold table, and build none.
    cfg.mult = arith::MultiplierConfig{16, 9, kind, MultKind::V2, ApproxPolicy::Aggressive};
    const u64 tables_before = arith::table_cache_stats().signed_tables;
    const std::size_t short_chunks[] = {1, 33, 511};
    expect_chunked_fir_matches(cfg, dsp::pt::kHpfTaps, x, short_chunks);
    EXPECT_EQ(arith::table_cache_stats().signed_tables, tables_before);
  }
}

/// The per-sample reference: every stage streamed sample by sample through
/// the kernels' counted scalar ops, checked against the block pipeline.
void expect_matches_streamed_stages(const PipelineConfig& cfg, std::span<const i32> adu) {
  const PipelineResult block = PanTompkinsPipeline(cfg).run_filters(adu);

  std::array<std::unique_ptr<arith::Kernel>, kNumStages> kernels;
  for (int s = 0; s < kNumStages; ++s) {
    kernels[static_cast<std::size_t>(s)] =
        arith::make_kernel(cfg.stage[static_cast<std::size_t>(s)]);
  }
  FirStage lpf(dsp::pt::kLpfTaps, dsp::pt::kLpfShift, *kernels[0]);
  FirStage hpf(dsp::pt::kHpfTaps, dsp::pt::kHpfShift, *kernels[1]);
  FirStage der(dsp::pt::kDerTaps, dsp::pt::kDerShift, *kernels[2]);
  SquarerStage sqr(dsp::pt::kSqrShift, *kernels[3]);
  MwiStage mwi(dsp::pt::kMwiWindow, dsp::pt::kMwiShift, *kernels[4]);

  ASSERT_EQ(block.mwi.size(), adu.size());
  for (std::size_t i = 0; i < adu.size(); ++i) {
    const i32 a = lpf.process(adu[i]);
    const i32 b = hpf.process(a);
    const i32 c = der.process(b);
    const i32 d = sqr.process(c);
    const i32 e = mwi.process(d);
    ASSERT_EQ(block.lpf[i], a) << i;
    ASSERT_EQ(block.hpf[i], b) << i;
    ASSERT_EQ(block.der[i], c) << i;
    ASSERT_EQ(block.sqr[i], d) << i;
    ASSERT_EQ(block.mwi[i], e) << i;
  }
  for (int s = 0; s < kNumStages; ++s) {
    EXPECT_EQ(block.ops[static_cast<std::size_t>(s)],
              kernels[static_cast<std::size_t>(s)]->counts())
        << to_string(kAllStages[static_cast<std::size_t>(s)]);
  }
}

TEST(PipelineBlockEquivalence, BlockPipelineMatchesStreamedStages) {
  // run_stage feeds fixed 1024-sample blocks: record lengths on either side
  // of one and two blocks, and of the kernels' 512-sample table threshold.
  const auto rec = ecg::nsrdb_like_digitized(0, 20000);
  std::vector<PipelineConfig> configs = {PipelineConfig::accurate()};
  for (const core::NamedConfig& named : core::fig12_b_configs()) {
    configs.push_back(PipelineConfig::from_lsbs(named.lsbs));
  }
  for (const std::size_t n : {1, 511, 1023, 1024, 1025, 2049, 20000}) {
    for (std::size_t c = 0; c < configs.size(); ++c) {
      SCOPED_TRACE(::testing::Message() << "samples " << n << ", config " << c);
      expect_matches_streamed_stages(configs[c], std::span<const i32>(rec.adu).first(n));
      if (HasFatalFailure()) return;
    }
  }
}

arith::TableCacheStats operator-(const arith::TableCacheStats& a,
                                 const arith::TableCacheStats& b) {
  return {a.multiplier_models - b.multiplier_models, a.magnitude_tables - b.magnitude_tables,
          a.signed_tables - b.signed_tables, a.square_tables - b.square_tables};
}

TEST(PipelineBlockEquivalence, BlockedStageBuildsTablesAsOneChunk) {
  // A never-built config builds, under run_stage's blocks, exactly the tables
  // one whole-record chunk builds on a twin config with the same table
  // shapes: none below the 512-sample threshold, all of them above it. The
  // LSB counts are used by no other test in this binary.
  const auto rec = ecg::nsrdb_like_digitized(1, 3000);
  for (const auto& [n, lsbs] : {std::pair<std::size_t, int>{300, 13}, {3000, 14}}) {
    const auto blocked_cfg = arith::StageArithConfig::uniform(lsbs, AdderKind::Approx4);
    const auto chunk_cfg = arith::StageArithConfig::uniform(lsbs, AdderKind::Approx5);
    const std::span<const i32> x = std::span<const i32>(rec.adu).first(n);
    for (const Stage s : {Stage::Lpf, Stage::Sqr}) {
      SCOPED_TRACE(::testing::Message() << "samples " << n << ", " << to_string(s));
      for (const auto* cfg : {&blocked_cfg, &chunk_cfg}) {
        // Tables are process-wide: a repeat in the same process finds them warm.
        if ((s == Stage::Lpf
                 ? arith::peek_signed_coeff_products(cfg->mult, dsp::pt::kLpfTaps[0])
                 : arith::peek_square_products(cfg->mult)) != nullptr) {
          GTEST_SKIP() << "tables already built in this process";
        }
      }
      const arith::TableCacheStats t0 = arith::table_cache_stats();
      (void)run_stage(s, blocked_cfg, x);
      const arith::TableCacheStats t1 = arith::table_cache_stats();
      const std::unique_ptr<arith::Kernel> kernel = arith::make_kernel(chunk_cfg);
      std::vector<i32> chunk_out;
      StageProcessor(s, *kernel).process_chunk(x, chunk_out);
      const arith::TableCacheStats t2 = arith::table_cache_stats();

      const arith::TableCacheStats blocked = t1 - t0;
      EXPECT_EQ(blocked, t2 - t1);
      const u64 built = blocked.signed_tables + blocked.square_tables;
      if (n < 512) {
        EXPECT_EQ(built, 0u);
      } else {
        EXPECT_GT(built, 0u);
      }
    }
  }
}

}  // namespace
}  // namespace xbs::pantompkins

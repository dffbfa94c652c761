// Tests for the per-stage memoized pipeline runner used by the design-space
// explorers: cached evaluations must be bit-identical to fresh pipeline runs,
// and unchanged pipeline prefixes must be served from cache.
#include <gtest/gtest.h>

#include "xbs/ecg/dataset.hpp"
#include "xbs/explore/evaluator.hpp"
#include "xbs/explore/exhaustive.hpp"
#include "xbs/explore/stage_cache.hpp"
#include "xbs/metrics/signal_quality.hpp"

namespace xbs::explore {
namespace {

using pantompkins::PipelineConfig;
using pantompkins::Stage;

std::vector<ecg::DigitizedRecord> workload() {
  return {ecg::nsrdb_like_digitized(0, 4000), ecg::nsrdb_like_digitized(1, 4000)};
}

TEST(StageCache, MatchesFreshPipelineAcrossConfigChanges) {
  MemoizedPipelineRunner runner(workload());
  const std::vector<PipelineConfig> configs = {
      PipelineConfig::accurate(),
      PipelineConfig::from_lsbs({10, 12, 2, 8, 16}),
      PipelineConfig::from_lsbs({10, 12, 2, 8, 12}),   // suffix change only
      PipelineConfig::from_lsbs({10, 12, 2, 8, 16}),   // revisit
      PipelineConfig::from_lsbs({0, 12, 2, 8, 16}),    // prefix change
      PipelineConfig::uniform(4),
  };
  for (const auto& cfg : configs) {
    const pantompkins::PanTompkinsPipeline fresh(cfg);
    for (std::size_t i = 0; i < runner.num_records(); ++i) {
      const auto want = fresh.run(runner.record(i).adu);
      const auto& got = runner.run(i, cfg);
      EXPECT_EQ(got.lpf, want.lpf);
      EXPECT_EQ(got.hpf, want.hpf);
      EXPECT_EQ(got.der, want.der);
      EXPECT_EQ(got.sqr, want.sqr);
      EXPECT_EQ(got.mwi, want.mwi);
      EXPECT_EQ(got.ops, want.ops);
      EXPECT_EQ(got.detection.peaks, want.detection.peaks);
    }
  }
}

TEST(StageCache, UnchangedPrefixIsNotRecomputed) {
  MemoizedPipelineRunner runner(workload());
  const auto base = PipelineConfig::from_lsbs({10, 12, 2, 8, 16});
  (void)runner.run_filters(0, base);
  EXPECT_EQ(runner.stats().stage_recomputes, 5u);
  EXPECT_EQ(runner.stats().stage_hits, 0u);

  // Same config again: all five stages served from cache.
  (void)runner.run_filters(0, base);
  EXPECT_EQ(runner.stats().stage_hits, 5u);
  EXPECT_EQ(runner.stats().stage_recomputes, 5u);

  // Only the MWI configuration changes: four hits, one recompute.
  auto mwi_only = base;
  mwi_only.stage[4] = arith::StageArithConfig::uniform(12);
  (void)runner.run_filters(0, mwi_only);
  EXPECT_EQ(runner.stats().stage_hits, 9u);
  EXPECT_EQ(runner.stats().stage_recomputes, 6u);

  // LPF changes: the whole chain is dirty.
  auto lpf_changed = mwi_only;
  lpf_changed.stage[0] = arith::StageArithConfig::uniform(4);
  (void)runner.run_filters(0, lpf_changed);
  EXPECT_EQ(runner.stats().stage_hits, 9u);
  EXPECT_EQ(runner.stats().stage_recomputes, 11u);
}

TEST(StageCache, ThrowingStageLeavesNoStalePrefix) {
  // A stage that throws mid-recompute must not leave a half-updated chain
  // marked valid: C shares B's new LPF, so a stale cache would serve C the
  // HPF/MWI computed for A.
  MemoizedPipelineRunner runner(workload());
  const auto a = PipelineConfig::from_lsbs({10, 12, 2, 8, 16});
  auto b = a;
  b.stage[0] = arith::StageArithConfig::uniform(4);
  b.stage[1] = arith::StageArithConfig::uniform(-3);  // rejected by make_kernel
  auto c = a;
  c.stage[0] = b.stage[0];

  (void)runner.run(0, a);
  EXPECT_ANY_THROW((void)runner.run(0, b));
  const auto want = pantompkins::PanTompkinsPipeline(c).run(runner.record(0).adu);
  const auto& got = runner.run(0, c);
  EXPECT_EQ(got.lpf, want.lpf);
  EXPECT_EQ(got.hpf, want.hpf);
  EXPECT_EQ(got.mwi, want.mwi);
  EXPECT_EQ(got.ops, want.ops);
  EXPECT_EQ(got.detection.peaks, want.detection.peaks);
}

TEST(StageCache, StageOutputComputesOnlyThePrefix) {
  MemoizedPipelineRunner runner(workload());
  const auto cfg = PipelineConfig::from_lsbs({10, 12, 2, 8, 16});
  const auto want = pantompkins::PanTompkinsPipeline(cfg).run(runner.record(0).adu);

  EXPECT_EQ(runner.stage_output(0, cfg, Stage::Hpf), want.hpf);
  EXPECT_EQ(runner.stats().runs, 1u);
  EXPECT_EQ(runner.stats().stage_recomputes, 2u);
  EXPECT_EQ(runner.stats().stage_hits, 0u);

  // The full chain afterwards reuses LPF/HPF and computes the rest.
  const auto& full = runner.run(0, cfg);
  EXPECT_EQ(runner.stats().stage_hits, 2u);
  EXPECT_EQ(runner.stats().stage_recomputes, 5u);
  EXPECT_EQ(full.lpf, want.lpf);
  EXPECT_EQ(full.hpf, want.hpf);
  EXPECT_EQ(full.der, want.der);
  EXPECT_EQ(full.sqr, want.sqr);
  EXPECT_EQ(full.mwi, want.mwi);
  EXPECT_EQ(full.ops, want.ops);
  EXPECT_EQ(full.detection.peaks, want.detection.peaks);

  // A shallow lookup under a new LPF invalidates the deeper stages: the next
  // full run recomputes them instead of serving the old config's outputs.
  auto other = cfg;
  other.stage[0] = arith::StageArithConfig::uniform(4);
  const auto want_other = pantompkins::PanTompkinsPipeline(other).run(runner.record(0).adu);
  EXPECT_EQ(runner.stage_output(0, other, Stage::Lpf), want_other.lpf);
  const auto& full_other = runner.run(0, other);
  EXPECT_EQ(full_other.mwi, want_other.mwi);
  EXPECT_EQ(full_other.ops, want_other.ops);
  EXPECT_EQ(full_other.detection.peaks, want_other.detection.peaks);
}

TEST(StageCache, PsnrGridMatchesFreshFilterRuns) {
  const std::vector<ecg::DigitizedRecord> recs = workload();
  PreprocPsnrEvaluator eval(recs);
  const StageEnergyModel energy;
  const StageSpace lpf{Stage::Lpf, {0, 8, 16}, 1.0};
  const StageSpace hpf{Stage::Hpf, {0, 10, 16}, 1.0};
  const GridResult grid = exhaustive_explore({lpf, hpf}, ModuleLists{}, eval, energy, 30.0);
  ASSERT_EQ(grid.points.size(), 9u);
  // PSNR looks up LPF and HPF only: two stage lookups per record and design.
  EXPECT_EQ(grid.cache.stage_hits + grid.cache.stage_recomputes, 2u * 9u * recs.size());

  const pantompkins::PanTompkinsPipeline accurate;
  std::vector<std::vector<double>> ref;
  for (const auto& rec : recs) {
    const std::vector<i32> hpf_out = accurate.run_filters(rec.adu).hpf;
    ref.emplace_back(hpf_out.begin(), hpf_out.end());
  }
  for (const GridPoint& p : grid.points) {
    const pantompkins::PanTompkinsPipeline pipe(to_pipeline_config(p.design));
    double total = 0.0;
    for (std::size_t i = 0; i < recs.size(); ++i) {
      const std::vector<i32> hpf_out = pipe.run_filters(recs[i].adu).hpf;
      total += metrics::psnr_db(ref[i], std::vector<double>(hpf_out.begin(), hpf_out.end()));
    }
    EXPECT_EQ(p.quality, total / static_cast<double>(recs.size()));
  }
}

TEST(StageCache, DetectionReusedWhenFiltersUnchanged) {
  MemoizedPipelineRunner runner(workload());
  const auto cfg = PipelineConfig::uniform(4);
  (void)runner.run(0, cfg);
  EXPECT_EQ(runner.stats().detect_recomputes, 1u);
  (void)runner.run(0, cfg);
  EXPECT_EQ(runner.stats().detect_hits, 1u);
  EXPECT_EQ(runner.stats().detect_recomputes, 1u);
}

TEST(StageCache, RecordsAreCachedIndependently) {
  MemoizedPipelineRunner runner(workload());
  const auto cfg = PipelineConfig::uniform(2);
  (void)runner.run_filters(0, cfg);
  (void)runner.run_filters(1, cfg);  // different record: its own five recomputes
  EXPECT_EQ(runner.stats().stage_recomputes, 10u);
  EXPECT_EQ(runner.stats().stage_hits, 0u);
}

TEST(Evaluators, ExposeCacheStats) {
  PreprocPsnrEvaluator pre(workload());
  ASSERT_NE(pre.cache_stats(), nullptr);
  (void)pre.evaluate(Design{{Stage::Hpf, 8}});
  (void)pre.evaluate(Design{{Stage::Hpf, 10}});
  // Second evaluation changed only the HPF: the LPF stage (and nothing else
  // upstream) must have been served from cache for every record.
  EXPECT_GT(pre.cache_stats()->stage_hits, 0u);

  AccuracyEvaluator acc(workload());
  ASSERT_NE(acc.cache_stats(), nullptr);
  EXPECT_DOUBLE_EQ(acc.evaluate(Design{}), 100.0);
  (void)acc.evaluate(Design{{Stage::Mwi, 8}});
  EXPECT_GT(acc.cache_stats()->stage_hits, 0u);
}

TEST(StageCacheStatsArithmetic, DeltaAndHitRate) {
  const StageCacheStats a{10, 8, 2, 3, 1};
  const StageCacheStats b{4, 3, 1, 1, 1};
  const StageCacheStats d = a - b;
  EXPECT_EQ(d.runs, 6u);
  EXPECT_EQ(d.stage_hits, 5u);
  EXPECT_EQ(d.stage_recomputes, 1u);
  EXPECT_NEAR(a.stage_hit_rate(), 0.8, 1e-12);
  EXPECT_EQ(StageCacheStats{}.stage_hit_rate(), 0.0);
}

}  // namespace
}  // namespace xbs::explore

#include "xbs/explore/evaluator.hpp"

#include <algorithm>

#include "xbs/metrics/peaks.hpp"
#include "xbs/metrics/signal_quality.hpp"
#include "xbs/pantompkins/pipeline.hpp"

namespace xbs::explore {
namespace {

std::vector<double> to_double(std::span<const i32> v) {
  return std::vector<double>(v.begin(), v.end());
}

}  // namespace

SharedPsnrReference make_psnr_reference(const std::vector<ecg::DigitizedRecord>& records) {
  // References come from plain stage runs (LPF -> HPF, the only stages the
  // metric reads) so the memo caches stay primed for candidate
  // configurations only.
  const arith::StageArithConfig exact;
  auto ref = std::make_shared<std::vector<std::vector<double>>>();
  ref->reserve(records.size());
  for (const ecg::DigitizedRecord& rec : records) {
    const std::vector<i32> lpf = pantompkins::run_stage(pantompkins::Stage::Lpf, exact, rec.adu);
    ref->push_back(to_double(pantompkins::run_stage(pantompkins::Stage::Hpf, exact, lpf)));
  }
  return ref;
}

struct PreprocPsnrEvaluator::Impl {
  MemoizedPipelineRunner runner;
  SharedPsnrReference ref_hpf;  ///< accurate HPF output per record (shared)

  Impl(SharedRecords recs, SharedPsnrReference ref)
      : runner(std::move(recs)),
        ref_hpf(ref != nullptr ? std::move(ref) : make_psnr_reference(*runner.records())) {}

  template <typename Metric>
  [[nodiscard]] double mean_metric(const Design& d, Metric metric) {
    const pantompkins::PipelineConfig cfg = to_pipeline_config(d);
    double total = 0.0;
    for (std::size_t i = 0; i < runner.num_records(); ++i) {
      total += metric((*ref_hpf)[i],
                      to_double(runner.stage_output(i, cfg, pantompkins::Stage::Hpf)));
    }
    return total / static_cast<double>(runner.num_records());
  }
};

PreprocPsnrEvaluator::PreprocPsnrEvaluator(std::vector<ecg::DigitizedRecord> records)
    : PreprocPsnrEvaluator(share_records(std::move(records))) {}

PreprocPsnrEvaluator::PreprocPsnrEvaluator(SharedRecords records, SharedPsnrReference reference)
    : impl_(std::make_unique<Impl>(std::move(records), std::move(reference))) {}

PreprocPsnrEvaluator::~PreprocPsnrEvaluator() = default;

double PreprocPsnrEvaluator::evaluate_impl(const Design& d) {
  return impl_->mean_metric(d, [](const auto& ref, const auto& test) {
    return metrics::psnr_db(ref, test);
  });
}

double PreprocPsnrEvaluator::ssim_of(const Design& d) const {
  return impl_->mean_metric(d, [](const auto& ref, const auto& test) {
    return metrics::ssim(ref, test);
  });
}

const StageCacheStats* PreprocPsnrEvaluator::cache_stats() const noexcept {
  return &impl_->runner.stats();
}

struct AccuracyEvaluator::Impl {
  MemoizedPipelineRunner runner;
  Design base;
  Counts last{};

  Impl(SharedRecords recs, Design b) : runner(std::move(recs)), base(std::move(b)) {}
};

AccuracyEvaluator::AccuracyEvaluator(std::vector<ecg::DigitizedRecord> records, Design base)
    : AccuracyEvaluator(share_records(std::move(records)), std::move(base)) {}

AccuracyEvaluator::AccuracyEvaluator(SharedRecords records, Design base)
    : impl_(std::make_unique<Impl>(std::move(records), std::move(base))) {}

AccuracyEvaluator::~AccuracyEvaluator() = default;

double AccuracyEvaluator::evaluate_impl(const Design& d) {
  const Design full = merge(impl_->base, d);
  const pantompkins::PipelineConfig cfg = to_pipeline_config(full);
  Counts c{};
  for (std::size_t i = 0; i < impl_->runner.num_records(); ++i) {
    const ecg::DigitizedRecord& rec = impl_->runner.record(i);
    const auto& out = impl_->runner.run(i, cfg);
    const auto m = metrics::match_peaks(rec.r_peaks, out.detection.peaks,
                                        metrics::default_tolerance_samples(rec.fs_hz));
    c.true_positives += m.true_positives;
    c.false_positives += m.false_positives;
    c.false_negatives += m.false_negatives;
    c.truth += m.truth_count();
  }
  impl_->last = c;
  if (c.truth == 0) return c.false_positives == 0 ? 100.0 : 0.0;
  const double err = static_cast<double>(c.false_negatives + c.false_positives) / c.truth;
  return 100.0 * std::max(0.0, 1.0 - err);
}

const StageCacheStats* AccuracyEvaluator::cache_stats() const noexcept {
  return &impl_->runner.stats();
}

AccuracyEvaluator::Counts AccuracyEvaluator::last_counts() const noexcept { return impl_->last; }

}  // namespace xbs::explore

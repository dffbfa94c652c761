// Micro-benchmarks (google-benchmark): end-to-end pipeline throughput —
// the behavioural-evaluation rate that determines real exploration time
// (the paper's MATLAB flow needed ~300 s per 20k-sample recording; this
// library does the same bit-accurate evaluation in well under a second).
#include <benchmark/benchmark.h>

#include "xbs/arith/kernel.hpp"
#include "xbs/dsp/pt_coeffs.hpp"
#include "xbs/ecg/dataset.hpp"
#include "xbs/pantompkins/pipeline.hpp"
#include "xbs/pantompkins/stages.hpp"

namespace {

using namespace xbs;

const ecg::DigitizedRecord& record() {
  static const ecg::DigitizedRecord rec = ecg::nsrdb_like_digitized(0, 20000);
  return rec;
}

void BM_PipelineAccurate20k(benchmark::State& state) {
  const pantompkins::PanTompkinsPipeline pipe;
  for (auto _ : state) {
    const auto res = pipe.run(record().adu);
    benchmark::DoNotOptimize(res.detection.peaks.size());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<i64>(record().adu.size()));
}
BENCHMARK(BM_PipelineAccurate20k)->Unit(benchmark::kMillisecond);

void BM_PipelineApproxB9_20k(benchmark::State& state) {
  const pantompkins::PanTompkinsPipeline pipe(
      pantompkins::PipelineConfig::from_lsbs({10, 12, 2, 8, 16}));
  for (auto _ : state) {
    const auto res = pipe.run(record().adu);
    benchmark::DoNotOptimize(res.detection.peaks.size());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<i64>(record().adu.size()));
}
BENCHMARK(BM_PipelineApproxB9_20k)->Unit(benchmark::kMillisecond);

void BM_FiltersOnlyApprox(benchmark::State& state) {
  const pantompkins::PanTompkinsPipeline pipe(
      pantompkins::PipelineConfig::uniform(static_cast<int>(state.range(0))));
  for (auto _ : state) {
    const auto res = pipe.run_filters(record().adu);
    benchmark::DoNotOptimize(res.mwi.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<i64>(record().adu.size()));
}
BENCHMARK(BM_FiltersOnlyApprox)->Arg(0)->Arg(8)->Arg(16)->Unit(benchmark::kMillisecond);

void BM_DetectorOnly(benchmark::State& state) {
  const pantompkins::PanTompkinsPipeline pipe;
  const auto res = pipe.run_filters(record().adu);
  for (auto _ : state) {
    const auto det =
        pantompkins::detect_qrs(res.mwi, res.hpf, record().adu, pantompkins::DetectorParams{});
    benchmark::DoNotOptimize(det.peaks.size());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<i64>(record().adu.size()));
}
BENCHMARK(BM_DetectorOnly)->Unit(benchmark::kMillisecond);

/// The MWI stage alone over the record's SQR output, fed in chunks of
/// range(1) samples: exact (range(0) = 0) or AMA5 at range(0) LSBs.
/// `charged_adds_per_sample` is the kernel's counted adds per output, which
/// model the 30-input tree's 29 hardware adders whatever the software runs.
void BM_MwiStage(benchmark::State& state) {
  static const std::vector<i32> sqr =
      pantompkins::PanTompkinsPipeline().run_filters(record().adu).sqr;
  const auto chunk = static_cast<std::size_t>(state.range(1));
  const std::unique_ptr<arith::Kernel> kernel = arith::make_kernel(
      arith::StageArithConfig::uniform(static_cast<int>(state.range(0)), AdderKind::Approx5));
  pantompkins::MwiStage mwi(dsp::pt::kMwiWindow, dsp::pt::kMwiShift, *kernel);
  std::vector<i32> y;
  for (auto _ : state) {
    for (std::size_t at = 0; at < sqr.size(); at += chunk) {
      mwi.process_chunk(std::span<const i32>(sqr).subspan(at, std::min(chunk, sqr.size() - at)), y);
      benchmark::DoNotOptimize(y.data());
    }
  }
  const auto samples = static_cast<double>(state.iterations()) * static_cast<double>(sqr.size());
  // Seconds per sample, printed with its SI prefix (e.g. "6.1ns").
  state.counters["time_per_sample"] =
      benchmark::Counter(samples, benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  state.counters["charged_adds_per_sample"] = static_cast<double>(kernel->counts().adds) / samples;
  state.SetItemsProcessed(static_cast<i64>(samples));
}
BENCHMARK(BM_MwiStage)
    ->ArgNames({"lsbs", "chunk"})
    ->Args({0, 64})
    ->Args({0, 1024})
    ->Args({16, 64})
    ->Args({16, 1024})
    ->Unit(benchmark::kMicrosecond);

/// One FIR stage alone over its input in the exact pipeline, fed in chunks
/// of range(2) samples: stage range(0) (0 LPF, 1 HPF, 2 DER), exact
/// (range(1) = 0) or AMA5 at range(1) LSBs, its tables warmed untimed. The
/// charged counters are the kernel's counted ops per output, which model
/// the per-tap hardware chain (HPF 32/31, LPF 11/10, DER 4/3) whatever the
/// software runs.
void BM_FirStage(benchmark::State& state) {
  static const pantompkins::PipelineResult exact =
      pantompkins::PanTompkinsPipeline().run_filters(record().adu);
  const auto s = static_cast<std::size_t>(state.range(0));
  const std::vector<i32>& x = s == 0 ? record().adu : s == 1 ? exact.lpf : exact.hpf;
  const auto chunk = static_cast<std::size_t>(state.range(2));
  const std::unique_ptr<arith::Kernel> kernel = arith::make_kernel(
      arith::StageArithConfig::uniform(static_cast<int>(state.range(1)), AdderKind::Approx5));
  pantompkins::StageProcessor fir(pantompkins::kAllStages[s], *kernel);
  std::vector<i32> y;
  fir.process_chunk(x, y);  // one record-long chunk builds every table
  fir.reset();
  kernel->reset_counts();
  for (auto _ : state) {
    for (std::size_t at = 0; at < x.size(); at += chunk) {
      fir.process_chunk(std::span<const i32>(x).subspan(at, std::min(chunk, x.size() - at)), y);
      benchmark::DoNotOptimize(y.data());
    }
  }
  const auto samples = static_cast<double>(state.iterations()) * static_cast<double>(x.size());
  state.counters["time_per_sample"] =
      benchmark::Counter(samples, benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  state.counters["charged_mults_per_sample"] =
      static_cast<double>(kernel->counts().mults) / samples;
  state.counters["charged_adds_per_sample"] = static_cast<double>(kernel->counts().adds) / samples;
  state.SetItemsProcessed(static_cast<i64>(samples));
}
BENCHMARK(BM_FirStage)
    ->ArgNames({"stage", "lsbs", "chunk"})
    ->ArgsProduct({{0, 1, 2}, {0, 12}, {64, 1024}})
    ->Unit(benchmark::kMicrosecond);

}  // namespace

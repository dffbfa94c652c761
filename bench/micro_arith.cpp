// Micro-benchmarks (google-benchmark): throughput of the bit-accurate
// arithmetic simulators — the cost of one behavioural "RTL" operation,
// which bounds the speed of every quality evaluation in the methodology.
#include <benchmark/benchmark.h>

#include "xbs/arith/kernel.hpp"
#include "xbs/arith/multiplier.hpp"
#include "xbs/arith/rca.hpp"
#include "xbs/common/rng.hpp"

namespace {

using namespace xbs;

void BM_RcaAdd32(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const arith::RippleCarryAdder adder(arith::AdderConfig{32, k, AdderKind::Approx5, 0});
  Rng rng(1);
  u64 a = rng.next_u64(), b = rng.next_u64();
  for (auto _ : state) {
    const auto r = adder.add_u(a, b);
    benchmark::DoNotOptimize(r);
    a = (a >> 1) ^ r.sum;
    b += 0x9E3779B9;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RcaAdd32)->Arg(0)->Arg(8)->Arg(16)->Arg(32);

void BM_Mult16(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const arith::RecursiveMultiplier mult(
      arith::MultiplierConfig{16, k, AdderKind::Approx5, MultKind::V1, ApproxPolicy::Moderate});
  Rng rng(2);
  u64 a = rng.next_u64() & 0xFFFF, b = rng.next_u64() & 0xFFFF;
  for (auto _ : state) {
    const u64 p = mult.multiply_u(a, b);
    benchmark::DoNotOptimize(p);
    a = (a + 0x9E37) & 0xFFFF;
    b = (b ^ p) & 0xFFFF;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Mult16)->Arg(0)->Arg(8)->Arg(16);

void BM_Mult16Construction(benchmark::State& state) {
  // LUT build cost (paid once per configuration, then cached process-wide).
  int k = 0;
  for (auto _ : state) {
    const arith::RecursiveMultiplier mult(arith::MultiplierConfig{
        16, (k++ % 16), AdderKind::Approx5, MultKind::V1, ApproxPolicy::Moderate});
    benchmark::DoNotOptimize(&mult);
  }
}
BENCHMARK(BM_Mult16Construction)->Unit(benchmark::kMillisecond);

void BM_SignedMulKernel(benchmark::State& state) {
  // The counted scalar op a stage's per-sample process(x) runs through.
  arith::ApproxKernel kernel(arith::StageArithConfig::uniform(static_cast<int>(state.range(0))));
  i64 a = 12345, b = -321;
  for (auto _ : state) {
    const i64 p = kernel.mul(a, b);
    benchmark::DoNotOptimize(p);
    a = (a + 7) & 0x7FFF;
    b = -((-b + 13) & 0x7FFF);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SignedMulKernel)->Arg(0)->Arg(10);

}  // namespace

#include "xbs/dsp/pt_recursive.hpp"

namespace xbs::dsp {

// Each scalar step evaluates the published difference equation with the same
// term order as the original batch loops (and zeros where the history has
// not filled yet), so any chunking — including the whole-record wrappers —
// is bit-identical to the historical batch evaluation.

double PtRecursiveLpf::process(double x) noexcept {
  // y[n] = 2 y[n-1] - y[n-2] + x[n] - 2 x[n-6] + x[n-12]
  const double x6 = x_[(head_ + 6) % 12];  // head - 6 == head + 6 (mod 12)
  const double y = 2.0 * y1_ - y2_ + x - 2.0 * x6 + x_[head_];
  x_[head_] = x;
  head_ = (head_ + 1) % 12;
  y2_ = y1_;
  y1_ = y;
  return y;
}

std::vector<double> PtRecursiveLpf::process_chunk(std::span<const double> x) {
  std::vector<double> y(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) y[i] = process(x[i]);
  return y;
}

double PtRecursiveHpf::process(double x) noexcept {
  // y[n] = y[n-1] - x[n] + 32 x[n-16] - 32 x[n-17] + x[n-32], gain 32
  // (the integer form of allpass - moving average).
  const double x16 = x_[(head_ + 16) % 32];
  const double x17 = x_[(head_ + 15) % 32];  // head - 17 == head + 15 (mod 32)
  const double y = y1_ - x + 32.0 * x16 - 32.0 * x17 + x_[head_];
  x_[head_] = x;
  head_ = (head_ + 1) % 32;
  y1_ = y;
  return y;
}

std::vector<double> PtRecursiveHpf::process_chunk(std::span<const double> x) {
  std::vector<double> y(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) y[i] = process(x[i]);
  return y;
}

std::vector<double> pt_recursive_lpf(std::span<const double> x) {
  return PtRecursiveLpf{}.process_chunk(x);
}

std::vector<double> pt_recursive_hpf(std::span<const double> x) {
  return PtRecursiveHpf{}.process_chunk(x);
}

}  // namespace xbs::dsp

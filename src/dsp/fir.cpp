#include "xbs/dsp/fir.hpp"

#include <algorithm>
#include <numbers>
#include <stdexcept>

#include "xbs/common/ring.hpp"

namespace xbs::dsp {

FirFilter::FirFilter(std::vector<double> taps)
    : taps_(std::move(taps)), delay_(taps_.size(), 0.0) {
  if (taps_.empty()) throw std::invalid_argument("FirFilter: empty tap set");
}

double FirFilter::process(double x) {
  delay_[head_] = x;
  double acc = 0.0;
  std::size_t idx = head_;
  for (const double c : taps_) {
    acc += c * delay_[idx];
    idx = (idx == 0) ? delay_.size() - 1 : idx - 1;
  }
  head_ = (head_ + 1) % delay_.size();
  return acc;
}

std::vector<double> FirFilter::filter_chunk(std::span<const double> x) {
  // Chunked transform: tap-major accumulation over a history-prefixed
  // contiguous buffer. Each output element receives its products in the same
  // tap order as the streaming path, so results are bit-identical to calling
  // process() per sample — without the per-sample ring-buffer walk.
  const std::size_t n = x.size();
  const std::size_t taps = taps_.size();
  std::vector<double> padded(n + taps - 1);
  ring_history_prefix(delay_, head_, padded);
  for (std::size_t i = 0; i < n; ++i) padded[taps - 1 + i] = x[i];
  std::vector<double> y(n, 0.0);
  for (std::size_t j = 0; j < taps; ++j) {
    const double c = taps_[j];
    const double* xs = padded.data() + (taps - 1 - j);
    for (std::size_t i = 0; i < n; ++i) y[i] += c * xs[i];
  }
  ring_carry(delay_, head_, x);
  return y;
}

std::vector<double> FirFilter::filter(std::span<const double> x) {
  reset();
  return filter_chunk(x);
}

void FirFilter::reset() noexcept {
  std::fill(delay_.begin(), delay_.end(), 0.0);
  head_ = 0;
}

std::complex<double> frequency_response(std::span<const double> taps, double f_hz, double fs_hz) {
  const double w = 2.0 * std::numbers::pi * f_hz / fs_hz;
  std::complex<double> h{0.0, 0.0};
  for (std::size_t i = 0; i < taps.size(); ++i) {
    h += taps[i] * std::polar(1.0, -w * static_cast<double>(i));
  }
  return h;
}

double magnitude_response(std::span<const double> taps, double f_hz, double fs_hz) {
  return std::abs(frequency_response(taps, f_hz, fs_hz));
}

}  // namespace xbs::dsp

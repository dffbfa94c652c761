/// \file fir.hpp
/// \brief Double-precision FIR filtering (golden reference engine).
#pragma once

#include <complex>
#include <span>
#include <vector>

namespace xbs::dsp {

/// Direct-form FIR filter with a ring-buffer delay line held as member
/// state (single consumer).
class FirFilter {
 public:
  explicit FirFilter(std::vector<double> taps);

  /// Push one sample, get y[n] = sum_i c_i x[n-i].
  [[nodiscard]] double process(double x);

  /// Resumable chunked transform: continues from the carried delay line and
  /// carries it forward — bit-identical to streaming the chunk through
  /// process().
  [[nodiscard]] std::vector<double> filter_chunk(std::span<const double> x);

  /// Filter a whole signal as one chunk from a zeroed delay line.
  [[nodiscard]] std::vector<double> filter(std::span<const double> x);

  /// Zero the delay line in place (no reallocation).
  void reset() noexcept;

 private:
  std::vector<double> taps_;
  /// Delay-line ring: `head_` is the next write slot, which always holds
  /// the oldest retained sample.
  std::vector<double> delay_;
  std::size_t head_ = 0;
};

/// Complex frequency response H(e^{j 2 pi f / fs}) of a tap set.
[[nodiscard]] std::complex<double> frequency_response(std::span<const double> taps, double f_hz,
                                                      double fs_hz);

/// Magnitude response |H| at the given frequency.
[[nodiscard]] double magnitude_response(std::span<const double> taps, double f_hz, double fs_hz);

}  // namespace xbs::dsp

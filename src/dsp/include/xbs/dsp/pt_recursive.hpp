/// \file pt_recursive.hpp
/// \brief The original recursive (IIR) Pan & Tompkins 1985 filter forms.
///
/// Pan & Tompkins published the LPF and HPF as integer recursive filters:
///
///   LPF:  y[n] = 2 y[n-1] - y[n-2] + x[n] - 2 x[n-6] + x[n-12]
///         (H(z) = (1 - z^-6)^2 / (1 - z^-1)^2, gain 36, delay 5)
///   HPF:  y[n] = y[n-1] - x[n]/32 + x[n-16] - x[n-17] + x[n-32]/32
///         (all-pass minus moving average, gain 1 at the passband, delay 16)
///
/// The paper's hardware implements the mathematically equivalent FIR
/// expansions (pt_coeffs.hpp); these recursive forms are provided as an
/// independent reference — the equivalence of the two is asserted in the
/// test suite, which pins the FIR tap derivation to the original
/// publication.
///
/// Both filters are streaming classes holding their recursive taps (recent
/// inputs plus output feedback) as member state, so they compose with the
/// chunked session API; the whole-record functions are one-chunk runs of a
/// fresh filter, bit-identical to the original batch evaluation.
#pragma once

#include <array>
#include <span>
#include <vector>

namespace xbs::dsp {

/// Streaming recursive LPF, unnormalized integer gain 36 (like the FIR
/// accumulator).
class PtRecursiveLpf {
 public:
  [[nodiscard]] double process(double x) noexcept;
  /// Resumable chunked transform: continues from the carried taps.
  [[nodiscard]] std::vector<double> process_chunk(std::span<const double> x);
  /// Back to the fresh-record state.
  void reset() noexcept { *this = PtRecursiveLpf{}; }

 private:
  std::array<double, 12> x_{};  ///< last 12 inputs; x_[head_] is x[n-12]
  std::size_t head_ = 0;
  double y1_ = 0.0, y2_ = 0.0;
};

/// Streaming recursive HPF over the *normalized* LPF output, gain 32 (like
/// the FIR accumulator before its >>5).
class PtRecursiveHpf {
 public:
  [[nodiscard]] double process(double x) noexcept;
  /// Resumable chunked transform: continues from the carried taps.
  [[nodiscard]] std::vector<double> process_chunk(std::span<const double> x);
  /// Back to the fresh-record state.
  void reset() noexcept { *this = PtRecursiveHpf{}; }

 private:
  std::array<double, 32> x_{};  ///< last 32 inputs; x_[head_] is x[n-32]
  std::size_t head_ = 0;
  double y1_ = 0.0;
};

/// Whole-record recursive LPF (one chunk through a fresh PtRecursiveLpf).
[[nodiscard]] std::vector<double> pt_recursive_lpf(std::span<const double> x);

/// Whole-record recursive HPF (one chunk through a fresh PtRecursiveHpf).
[[nodiscard]] std::vector<double> pt_recursive_hpf(std::span<const double> x);

}  // namespace xbs::dsp

/// \file stats.hpp
/// \brief Order statistics the benchmark reports: medians, fixed
/// percentiles and the "highest percentile with at least ten samples beyond
/// it" rule every timing is reported under.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Percentile \p p (0..100) of \p v by linear interpolation between closest
/// ranks (the same convention as numpy's default). NaN for an empty input.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double median(const std::vector<double>& v) { return percentile(v, 50.0); }

/// Number of samples strictly above the p-th percentile rank of an
/// \p n-sample set: the samples "beyond" it.
inline std::size_t samples_beyond(std::size_t n, double p) {
  const double beyond = static_cast<double>(n) * (1.0 - p / 100.0);
  return static_cast<std::size_t>(std::floor(beyond + 1e-9));
}

/// The highest of the reported tail percentiles (p90, p99, p99.9, p99.99)
/// that still has at least ten samples beyond it; 50 when even p90 has not
/// (fewer than 100 samples). A tail estimated from fewer samples than that
/// is a guess, so it is never reported.
inline double highest_supported_percentile(std::size_t n) {
  double best = 50.0;
  for (const double p : {90.0, 99.0, 99.9, 99.99}) {
    if (samples_beyond(n, p) >= 10) best = p;
  }
  return best;
}

/// A timing distribution as the benchmark reports it.
struct Summary {
  std::size_t n = 0;
  double p50 = 0.0;
  double p99 = 0.0;       ///< only meaningful when n >= 1000
  double tail_p = 50.0;   ///< highest_supported_percentile(n)
  double tail = 0.0;      ///< the value at tail_p
  double max = 0.0;
};

inline Summary summarize(const std::vector<double>& v) {
  Summary s;
  s.n = v.size();
  if (v.empty()) return s;
  s.p50 = median(v);
  s.p99 = percentile(v, 99.0);
  s.tail_p = highest_supported_percentile(v.size());
  s.tail = percentile(v, s.tail_p);
  s.max = *std::max_element(v.begin(), v.end());
  return s;
}

/// Percentile \p p of each fixed-length time window, then the median across
/// windows: the steady-state value of a distribution measured over a run,
/// insensitive to a single stall of the shared host. \p at_ns[i] places
/// \p values[i] in time; windows start at \p t0_ns, span \p window_ns and
/// count only when they hold at least \p min_samples values. NaN when no
/// window qualifies.
inline double windowed_percentile(const std::vector<std::int64_t>& at_ns,
                                  const std::vector<double>& values, std::int64_t t0_ns,
                                  std::int64_t window_ns, double p,
                                  std::size_t min_samples = 100) {
  std::vector<std::vector<double>> windows;
  for (std::size_t i = 0; i < values.size() && i < at_ns.size(); ++i) {
    if (at_ns[i] < t0_ns) continue;
    const auto w = static_cast<std::size_t>((at_ns[i] - t0_ns) / window_ns);
    if (w >= windows.size()) windows.resize(w + 1);
    windows[w].push_back(values[i]);
  }
  std::vector<double> per_window;
  for (const std::vector<double>& w : windows) {
    if (w.size() >= min_samples) per_window.push_back(percentile(w, p));
  }
  return median(per_window);
}

}  // namespace perfbench

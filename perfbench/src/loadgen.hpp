/// \file loadgen.hpp
/// \brief Open-loop schedule bookkeeping: when each request was due, and how
/// late the generator actually issued it.
///
/// An open-loop generator issues request k at t0 + k * period regardless of
/// how the system is coping. Latency is measured from the due time, so a
/// stall that delays later sends is charged to the system, not hidden by
/// it. The generator's own lateness (due -> actually issued) is recorded
/// separately: a run whose generator lagged past the bound measured the
/// generator, not the server, and is reported invalid.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

class OpenLoop {
 public:
  /// \p t0_ns: due time of request 0; \p period_ns: spacing of requests.
  OpenLoop(std::int64_t t0_ns, double period_ns) : t0_(t0_ns), period_(period_ns) {}

  [[nodiscard]] std::int64_t due(std::size_t k) const noexcept {
    return t0_ + static_cast<std::int64_t>(period_ * static_cast<double>(k));
  }

  /// Record that request \p k was issued at \p now_ns; returns its lateness.
  std::int64_t issued(std::size_t k, std::int64_t now_ns) {
    const std::int64_t late = now_ns > due(k) ? now_ns - due(k) : 0;
    late_ns_.push_back(static_cast<double>(late));
    return late;
  }

  /// Lateness of every issued request, in issue order (ns).
  [[nodiscard]] const std::vector<double>& lateness_ns() const noexcept { return late_ns_; }

 private:
  std::int64_t t0_;
  double period_;
  std::vector<double> late_ns_;
};

}  // namespace perfbench

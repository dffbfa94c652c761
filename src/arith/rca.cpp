#include "xbs/arith/rca.hpp"

#include <algorithm>
#include <stdexcept>

namespace xbs::arith {

RippleCarryAdder::RippleCarryAdder(const AdderConfig& cfg) : cfg_(cfg) {
  if (cfg.width < 2 || cfg.width > 63) {
    throw std::invalid_argument("adder width must be in [2, 63]");
  }
  if (cfg.approx_lsbs < 0) throw std::invalid_argument("approx_lsbs must be >= 0");
  // Bit i of this adder has absolute weight weight_offset + i; it is
  // approximate iff that weight is below k (Fig. 6).
  approx_in_range_ = std::clamp(cfg.approx_lsbs - cfg.weight_offset, 0, cfg.width);
}

}  // namespace xbs::arith

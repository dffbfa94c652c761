/// \file rca.hpp
/// \brief Bit-accurate ripple-carry adder with k approximated LSBs (Fig. 6).
#pragma once

#include "xbs/arith/fulladder.hpp"
#include "xbs/common/bitops.hpp"
#include "xbs/common/kinds.hpp"
#include "xbs/common/types.hpp"

namespace xbs::arith {

/// Configuration of an N-bit ripple-carry adder whose k least-significant
/// full adders are replaced by an approximate variant (paper Fig. 6).
struct AdderConfig {
  int width = 32;                         ///< adder width in bits (2..63)
  int approx_lsbs = 0;                    ///< k: number of approximated LSBs
  AdderKind kind = AdderKind::Accurate;   ///< approximate FA variant for the LSBs
  int weight_offset = 0;                  ///< absolute weight of bit 0 (for use
                                          ///< inside multipliers; 0 standalone)

  friend constexpr bool operator==(const AdderConfig&, const AdderConfig&) = default;
};

/// Result of an unsigned addition.
struct AddResult {
  u64 sum = 0;
  bool carry_out = false;

  friend constexpr bool operator==(AddResult, AddResult) = default;
};

/// Word-level evaluation of a `width`-bit ripple-carry adder whose
/// `approx_bits` low full adders are \p kind variants and whose remaining
/// high positions are accurate (approx_bits in [0, width], width in [2, 63]).
///
/// Every variant's carry chain through the low region has a closed form, so
/// the add is a fixed handful of word operations whatever k is. With C the
/// carry vector (bit i = carry into position i, bit 0 = carry_in):
///  - Accurate, AMA1, AMA2 keep the exact carry: C = (a + b + cin) ^ a ^ b;
///  - AMA3's Cout = A | (B & Cin) is the exact carry of a + (a | b) + cin;
///  - AMA4 and AMA5 (Cout = A) have no chain at all: C = (a << 1) | cin.
/// Each variant's Sum rule is then one bitwise expression over a, b and C,
/// and the accurate high region is one native add fed by C's bit
/// `approx_bits`. Bit-identical to the per-FA truth-table chain (fulladder.hpp)
/// for every kind, k and carry-in (tests/test_table_build.cpp).
[[nodiscard]] constexpr AddResult approx_add_u(AdderKind kind, int width, int approx_bits,
                                               u64 a, u64 b, bool carry_in) noexcept {
  const u64 wmask = low_mask(width);
  a &= wmask;
  b &= wmask;
  const int p = approx_bits;
  const u64 pmask = low_mask(p);
  const u64 al = a & pmask;
  const u64 bl = b & pmask;
  const u64 cin = carry_in ? 1u : 0u;
  u64 c = cin;  // carry vector of the approximate region (bit p: its carry-out)
  u64 s = 0;    // approximate low sum bits (masked below)
  switch (kind) {
    case AdderKind::Accurate:
      c = (al + bl + cin) ^ al ^ bl;
      s = al ^ bl ^ c;
      break;
    case AdderKind::Approx1:  // Sum = B when Cin = 0, XNOR(A, B) when Cin = 1
      c = (al + bl + cin) ^ al ^ bl;
      s = (c & ~(al ^ bl)) | (~c & bl);
      break;
    case AdderKind::Approx2:  // Sum = NOT Cout
      c = (al + bl + cin) ^ al ^ bl;
      s = ~(c >> 1);
      break;
    case AdderKind::Approx3: {  // Sum = NOT Cout
      const u64 ab = al | bl;
      c = (al + ab + cin) ^ al ^ ab;
      s = ~(c >> 1);
      break;
    }
    case AdderKind::Approx4:  // Sum = NOT A
      c = (al << 1) | cin;
      s = ~al;
      break;
    case AdderKind::Approx5:  // Sum = B
      c = (al << 1) | cin;
      s = bl;
      break;
  }
  const u64 hi = (a >> p) + (b >> p) + ((c >> p) & 1u);
  return AddResult{((hi << p) | (s & pmask)) & wmask, ((hi >> (width - p)) & 1u) != 0};
}

/// Behavioural model of the approximate ripple-carry adder: a validated
/// configuration over approx_add_u (word-level, O(1) per add).
class RippleCarryAdder {
 public:
  explicit RippleCarryAdder(const AdderConfig& cfg);

  [[nodiscard]] const AdderConfig& config() const noexcept { return cfg_; }

  /// Unsigned add of the low `width` bits of a and b.
  [[nodiscard]] AddResult add_u(u64 a, u64 b, bool carry_in = false) const noexcept {
    return approx_add_u(cfg_.kind, cfg_.width, approx_in_range_, a, b, carry_in);
  }

  /// Two's-complement signed add: operands are truncated to `width` bits,
  /// added through the (possibly approximate) adder, and the `width`-bit
  /// result is sign-extended back — exactly what the hardware block computes.
  [[nodiscard]] i64 add_signed(i64 a, i64 b) const noexcept {
    return sign_extend(
        add_u(to_unsigned_bits(a, cfg_.width), to_unsigned_bits(b, cfg_.width)).sum,
        cfg_.width);
  }

  /// Two's-complement signed subtract (b negated via one's complement +
  /// carry-in, the standard adder-subtractor datapath).
  [[nodiscard]] i64 sub_signed(i64 a, i64 b) const noexcept {
    const u64 nb = ~to_unsigned_bits(b, cfg_.width) & low_mask(cfg_.width);
    return sign_extend(add_u(to_unsigned_bits(a, cfg_.width), nb, /*carry_in=*/true).sum,
                       cfg_.width);
  }

 private:
  AdderConfig cfg_;
  int approx_in_range_ = 0;  ///< number of low FA positions that are approximate
};

}  // namespace xbs::arith

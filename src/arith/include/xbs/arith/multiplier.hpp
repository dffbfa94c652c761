/// \file multiplier.hpp
/// \brief Bit-accurate recursive approximate multiplier (paper Fig. 7).
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "xbs/arith/rca.hpp"
#include "xbs/arith/structure.hpp"
#include "xbs/common/kinds.hpp"
#include "xbs/common/types.hpp"

namespace xbs::arith {

/// Configuration of a width x width recursive multiplier with k approximated
/// LSBs. The k LSB rule selects both which elementary 2x2 modules use the
/// approximate \p mult_kind (per \p policy) and which full adders of the
/// partial-product accumulation tree use the approximate \p adder_kind
/// (absolute output weight < k).
struct MultiplierConfig {
  int width = 16;                          ///< operand width (power of two, 2..32)
  int approx_lsbs = 0;                     ///< k: approximated output LSBs
  AdderKind adder_kind = AdderKind::Accurate;
  MultKind mult_kind = MultKind::Accurate;
  ApproxPolicy policy = ApproxPolicy::Moderate;

  friend constexpr bool operator==(const MultiplierConfig&, const MultiplierConfig&) = default;
};

/// Behavioural model of the recursive array multiplier.
///
/// Evaluation is bit-identical to simulating the module-level netlist
/// (cross-validated in tests) but memoizes the 4x4 and 8x8 sub-multiplier
/// functions in lookup tables, making a 16x16 multiply four table lookups
/// plus three word-level 32-bit adds (approx_add_u, O(1) per add). Building
/// a model costs the LUT4s (a few thousand recursive evaluations) and the
/// LUT8s: 64K entries per base offset, each four LUT4 loads and three adds.
class RecursiveMultiplier {
 public:
  explicit RecursiveMultiplier(const MultiplierConfig& cfg);

  [[nodiscard]] const MultiplierConfig& config() const noexcept { return cfg_; }

  /// Unsigned multiply of the low `width` bits of a and b; result is the
  /// 2*width-bit product of the (approximate) array.
  [[nodiscard]] u64 multiply_u(u64 a, u64 b) const noexcept;

  /// Product row out[b] = multiply_u(a, b) for b in [0, out.size()),
  /// out.size() <= 2^width. On a 16x16 model the 8x8 LUT slices of \p a are
  /// resolved once, so each entry is four loads and three adds — the builder
  /// of the per-coefficient product tables (kernel.hpp).
  void multiply_row(u64 a, std::span<i64> out) const noexcept;

  /// Square diagonal out[m] = multiply_u(m, m) for m in [0, out.size()),
  /// out.size() <= 2^width — the builder of the per-config square table.
  void multiply_diagonal(std::span<i64> out) const noexcept;

  /// Signed multiply via the sign-magnitude wrapper the paper's RTL uses
  /// around the unsigned array (operands truncated to `width`-bit signed).
  [[nodiscard]] i64 multiply_signed(i64 a, i64 b) const noexcept;

  /// The memoized 8x8 sub-multiplier at base weight offset \p base, indexed
  /// by (a << 8) | b; empty when the model holds none there (widths below
  /// 16, or a base no 8x8 block sits at). Lets tests check every entry.
  [[nodiscard]] std::span<const u16> lut8(int base) const noexcept {
    const u16* t = find_lut8(base);
    return t != nullptr ? std::span<const u16>(t, 65536) : std::span<const u16>();
  }

 private:
  /// Simulate a sub-multiplier of size n whose operand slices sit at bit
  /// offsets (off_a, off_b). Returns the raw 2n-bit (approximate) product.
  [[nodiscard]] u64 simulate(int n, u64 a, u64 b, int off_a, int off_b) const noexcept;

  /// out[i] = multiply_u(operand_a(i), i) over the half-width LUTs.
  template <class OperandA>
  void fill_products(std::span<i64> out, OperandA operand_a) const noexcept;

  MultiplierConfig cfg_;
  // Memoized sub-multiplier functions keyed by base weight offset
  // (off_a + off_b); behaviour depends on offsets only through the base.
  // Base offsets are small and dense (0..2*width in steps of the sub size),
  // so lookup is a direct index into a per-base pointer array instead of a
  // linear scan — one load on the multiply hot path.
  std::vector<std::vector<u8>> lut4_tables_;   // 256 entries each
  std::vector<std::vector<u16>> lut8_tables_;  // 65536 entries each
  std::vector<const u8*> lut4_by_base_;        // index = base, nullptr = none
  std::vector<const u16*> lut8_by_base_;
  [[nodiscard]] const u8* find_lut4(int base) const noexcept {
    return static_cast<std::size_t>(base) < lut4_by_base_.size()
               ? lut4_by_base_[static_cast<std::size_t>(base)]
               : nullptr;
  }
  [[nodiscard]] const u16* find_lut8(int base) const noexcept {
    return static_cast<std::size_t>(base) < lut8_by_base_.size()
               ? lut8_by_base_[static_cast<std::size_t>(base)]
               : nullptr;
  }
};

/// Process-wide cache of multiplier behavioural models: exploration sweeps
/// and serving sessions re-use configurations heavily, and each model owns
/// non-trivial lookup tables. Thread-safe: lookups and inserts are
/// serialized by a leaf mutex (hit concurrently by stream sessions and the
/// parallel explorers), a miss builds the model under it (a 16x16 model's
/// LUTs take a millisecond or two), and published models are immutable.
[[nodiscard]] std::shared_ptr<const RecursiveMultiplier> get_multiplier(
    const MultiplierConfig& cfg);

/// Cumulative count of behavioural models actually constructed by
/// get_multiplier (cache misses, not hits) — one input of
/// arith::table_cache_stats(), which tests snapshot to prove the streaming
/// hot path never builds a model lazily.
[[nodiscard]] u64 multiplier_model_builds() noexcept;

}  // namespace xbs::arith

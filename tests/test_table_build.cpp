// Bit identity of the approximate-arithmetic table builders against a
// test-local per-FA recursive reference: the word-level adder (rca.hpp), the
// LUT8s a RecursiveMultiplier fills from its LUT4s, the hoisted product rows
// and square diagonal, and the process-wide signed/square tables derived from
// them (kernel.hpp). The reference evaluates every full adder from its truth
// table and recurses down to the elementary 2x2 multipliers, memoizing only
// what the reference itself computed.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "xbs/arith/fulladder.hpp"
#include "xbs/arith/kernel.hpp"
#include "xbs/arith/mult2x2.hpp"
#include "xbs/arith/multiplier.hpp"
#include "xbs/arith/rca.hpp"
#include "xbs/arith/structure.hpp"
#include "xbs/common/bitops.hpp"
#include "xbs/common/rng.hpp"
#include "xbs/core/paper_configs.hpp"
#include "xbs/dsp/pt_coeffs.hpp"
#include "xbs/pantompkins/pipeline.hpp"

namespace xbs::arith {
namespace {

constexpr std::array<ApproxPolicy, 3> kPolicies = {
    ApproxPolicy::Conservative, ApproxPolicy::Moderate, ApproxPolicy::Aggressive};

/// Per-FA reference: a chain of truth-table full adders, position i at
/// absolute weight offset + i approximate iff that weight is below k.
AddResult ref_add(AdderKind kind, int width, int k, int offset, u64 a, u64 b, bool cin) {
  u64 sum = 0;
  bool carry = cin;
  for (int i = 0; i < width; ++i) {
    const AdderKind ki = fa_is_approx(offset + i, k) ? kind : AdderKind::Accurate;
    const FaOut o = full_add(ki, bit_of(a, i), bit_of(b, i), carry);
    sum = with_bit(sum, i, o.sum);
    carry = o.cout;
  }
  return AddResult{sum, carry};
}

/// Per-FA recursive reference of the width-16 recursive multiplier: four
/// half-size products combined by three 2n-bit reference adders per level,
/// down to the elementary 2x2 modules. The 4x4 and 8x8 sub-products are
/// memoized per base offset once the reference has computed them.
class RefMultiplier {
 public:
  explicit RefMultiplier(const MultiplierConfig& cfg) : cfg_(cfg) {}

  /// n x n product of operand slices whose LSBs sit at total weight `base`.
  u64 mul(int n, u64 a, u64 b, int base) {
    a &= low_mask(n);
    b &= low_mask(n);
    if (n == 4) return lut(lut4_, 4, base)[(a << 4) | b];
    if (n == 8) {
      const auto it = lut8_.find(base);
      if (it != lut8_.end()) return it->second[(a << 8) | b];
    }
    return compute(n, a, b, base);
  }

  /// Every entry of the 8x8 block at \p base, indexed (a << 8) | b.
  const std::vector<u64>& lut8(int base) { return lut(lut8_, 8, base); }

  /// Reference magnitude row M[m] = multiply_u(c, m), m in [0, 2^15].
  const std::vector<u64>& row(u64 c) {
    auto it = rows_.find(c);
    if (it != rows_.end()) return it->second;
    std::vector<u64> r((std::size_t{1} << 15) + 1);
    for (std::size_t m = 0; m < r.size(); ++m) r[m] = mul(16, c, m, 0);
    return rows_.emplace(c, std::move(r)).first->second;
  }

 private:
  /// One recursion level: the elementary module at n = 2, otherwise four
  /// half-size products and three 2n-bit reference adders.
  u64 compute(int n, u64 a, u64 b, int base) {
    if (n == 2) {
      const bool approx = elem_is_approx(cfg_.policy, base, cfg_.approx_lsbs);
      return mult2(approx ? cfg_.mult_kind : MultKind::Accurate, static_cast<u32>(a),
                   static_cast<u32>(b));
    }
    const int h = n / 2;
    const u64 al = a & low_mask(h), ah = a >> h;
    const u64 bl = b & low_mask(h), bh = b >> h;
    const u64 ll = mul(h, al, bl, base);
    const u64 hl = mul(h, ah, bl, base + h);
    const u64 lh = mul(h, al, bh, base + h);
    const u64 hh = mul(h, ah, bh, base + 2 * h);
    const auto add = [&](u64 x, u64 y) {
      return ref_add(cfg_.adder_kind, 2 * n, cfg_.approx_lsbs, base, x, y, false).sum;
    };
    return add(hh << n, add(add(hl << h, lh << h), ll));
  }

  const std::vector<u64>& lut(std::map<int, std::vector<u64>>& memo, int n, int base) {
    auto it = memo.find(base);
    if (it != memo.end()) return it->second;
    std::vector<u64> t(std::size_t{1} << (2 * n));
    for (u64 a = 0; a < (u64{1} << n); ++a)
      for (u64 b = 0; b < (u64{1} << n); ++b) t[(a << n) | b] = compute(n, a, b, base);
    return memo.emplace(base, std::move(t)).first->second;
  }

  MultiplierConfig cfg_;
  std::map<int, std::vector<u64>> lut4_;
  std::map<int, std::vector<u64>> lut8_;
  std::map<u64, std::vector<u64>> rows_;
};

u64 magnitude(i64 v) { return static_cast<u64>(v < 0 ? -v : v); }

/// Checks every LUT8 entry of the cached model for \p m and returns the
/// number of mismatches.
std::size_t lut8_mismatches(const RecursiveMultiplier& model, RefMultiplier& ref) {
  std::size_t bad = 0;
  for (const int base : {0, 8, 16}) {
    const std::span<const u16> got = model.lut8(base);
    const std::vector<u64>& want = ref.lut8(base);
    EXPECT_EQ(got.size(), want.size()) << "base=" << base;
    for (std::size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
      bad += got[i] != want[i];
    }
  }
  return bad;
}

/// Every entry of the process-wide signed table of \p c against the
/// sign-magnitude wrapper over the reference row.
std::size_t signed_mismatches(const MultiplierConfig& m, int c, RefMultiplier& ref) {
  const auto table = get_signed_coeff_products(m, c);
  const std::vector<u64>& row = ref.row(magnitude(c));
  EXPECT_EQ(table->size(), std::size_t{1} << 16);
  std::size_t bad = 0;
  for (std::size_t u = 0; u < table->size(); ++u) {
    const i64 x = sign_extend(static_cast<u64>(u), 16);
    const i64 p = static_cast<i64>(row[magnitude(x)]);
    bad += (*table)[u] != (((c < 0) != (x < 0)) ? -p : p);
  }
  return bad;
}

std::size_t square_mismatches(const MultiplierConfig& m, RefMultiplier& ref) {
  const auto table = get_square_products(m);
  EXPECT_EQ(table->size(), std::size_t{1} << 16);
  std::size_t bad = 0;
  for (std::size_t u = 0; u < table->size(); ++u) {
    const u64 mx = magnitude(sign_extend(static_cast<u64>(u), 16));
    bad += static_cast<u64>((*table)[u]) != ref.mul(16, mx, mx, 0);
  }
  return bad;
}

std::span<const int> stage_taps(pantompkins::Stage s) {
  switch (s) {
    case pantompkins::Stage::Lpf: return dsp::pt::kLpfTaps;
    case pantompkins::Stage::Hpf: return dsp::pt::kHpfTaps;
    case pantompkins::Stage::Der: return dsp::pt::kDerTaps;
    default: return {};
  }
}

/// Every table a pipeline configuration's warm-up builds (the LUT8s, the
/// signed table of each distinct LPF/HPF/DER tap, the SQR square table),
/// each (stage, multiplier) pair checked once.
class PipelineTableChecker {
 public:
  void check(const pantompkins::PipelineConfig& cfg) {
    for (int s = 0; s < pantompkins::kNumStages; ++s) {
      const MultiplierConfig& m = cfg.stage[static_cast<std::size_t>(s)].mult;
      if (m.approx_lsbs == 0 || s == static_cast<int>(pantompkins::Stage::Mwi)) continue;
      const std::pair<int, MultiplierConfig> key{s, m};
      if (std::find(done_.begin(), done_.end(), key) != done_.end()) continue;
      done_.push_back(key);
      check_stage(static_cast<pantompkins::Stage>(s), m);
    }
    refs_.clear();  // reference memos live for one pipeline config
  }

 private:
  void check_stage(pantompkins::Stage s, const MultiplierConfig& m) {
    ASSERT_EQ(m.width, 16);
    auto ref_it = std::find_if(refs_.begin(), refs_.end(),
                               [&](const auto& e) { return e.first == m; });
    if (ref_it == refs_.end()) {
      refs_.emplace_back(m, RefMultiplier(m));
      ref_it = std::prev(refs_.end());
      EXPECT_EQ(lut8_mismatches(*get_multiplier(m), ref_it->second), 0u) << describe(m);
    }
    RefMultiplier& ref = ref_it->second;
    if (s == pantompkins::Stage::Sqr) {
      EXPECT_EQ(square_mismatches(m, ref), 0u) << describe(m) << " square";
    }
    std::vector<int> taps(stage_taps(s).begin(), stage_taps(s).end());
    std::sort(taps.begin(), taps.end());
    taps.erase(std::unique(taps.begin(), taps.end()), taps.end());
    for (const int c : taps) {
      if (c == 0) continue;
      EXPECT_EQ(signed_mismatches(m, c, ref), 0u) << describe(m) << " coeff=" << c;
    }
  }

  static std::string describe(const MultiplierConfig& m) {
    return std::string(to_string(m.adder_kind)) + "/" + std::string(to_string(m.mult_kind)) +
           "/" + std::string(to_string(m.policy)) + " k=" + std::to_string(m.approx_lsbs);
  }

  std::vector<std::pair<int, MultiplierConfig>> done_;
  std::vector<std::pair<MultiplierConfig, RefMultiplier>> refs_;
};

TEST(TableBuild, WordLevelAdderMatchesPerFaChainExhaustivelyAtWidth8) {
  for (const AdderKind kind : kAllAdderKinds) {
    for (int k = 0; k <= 8; ++k) {
      for (const int offset : {0, 3}) {
        const RippleCarryAdder adder(AdderConfig{8, k, kind, offset});
        std::size_t bad = 0;
        for (u64 a = 0; a < 256; ++a) {
          for (u64 b = 0; b < 256; ++b) {
            for (const bool cin : {false, true}) {
              bad += adder.add_u(a, b, cin) != ref_add(kind, 8, k, offset, a, b, cin);
            }
          }
        }
        EXPECT_EQ(bad, 0u) << to_string(kind) << " k=" << k << " offset=" << offset;
      }
    }
  }
}

TEST(TableBuild, Fig12TablesMatchReferenceEveryEntry) {
  PipelineTableChecker checker;
  for (const auto& named : core::fig12_b_configs()) {
    checker.check(pantompkins::PipelineConfig::from_lsbs(named.lsbs));
  }
}

// The never-built shape a serving edge admits under churn: {k, k-1, 0, 0, 0}
// over the carry-free adders. The (adder, multiplier, policy) triple rotates
// with k so every combination is built at several k.
TEST(TableBuild, ColdPoolShapeTablesMatchReferenceEveryEntry) {
  PipelineTableChecker checker;
  for (int k = 1; k <= 16; ++k) {
    const AdderKind ak = k % 2 == 0 ? AdderKind::Approx4 : AdderKind::Approx5;
    const MultKind mk = (k / 2) % 2 == 0 ? MultKind::V1 : MultKind::V2;
    const ApproxPolicy pol = kPolicies[static_cast<std::size_t>(k % 3)];
    checker.check(pantompkins::PipelineConfig::from_lsbs({k, k - 1, 0, 0, 0}, ak, mk, pol));
  }
}

// The full kind x mult x policy x k cross on locally built models (no
// process-wide cache entries): 4096 sampled entries per configuration, split
// over the LUT8s, the product rows of the Pan-Tompkins tap magnitudes plus
// two random coefficients, and the square diagonal.
TEST(TableBuild, FullCrossSampledEntriesMatchReference) {
  Rng rng(14);
  const std::size_t half = (std::size_t{1} << 15) + 1;
  std::vector<u64> coeffs{1, 2, 31, 0, 0};
  std::vector<std::vector<i64>> rows(coeffs.size(), std::vector<i64>(half));
  std::vector<i64> diag(half);
  for (const AdderKind ak : kAllAdderKinds) {
    for (const MultKind mk : kAllMultKinds) {
      for (const ApproxPolicy pol : kPolicies) {
        for (const int k : {0, 1, 7, 8, 9, 16, 31, 32}) {
          const MultiplierConfig m{16, k, ak, mk, pol};
          const RecursiveMultiplier model(m);
          RefMultiplier ref(m);
          coeffs[3] = static_cast<u64>(rng.uniform_int(3, 1 << 15));
          coeffs[4] = static_cast<u64>(rng.uniform_int(3, 1 << 15));
          for (std::size_t j = 0; j < coeffs.size(); ++j) model.multiply_row(coeffs[j], rows[j]);
          model.multiply_diagonal(diag);
          std::size_t bad = 0;
          for (int i = 0; i < 4096; ++i) {
            const u64 x = static_cast<u64>(rng.uniform_int(0, 1 << 15));
            if (i % 3 == 0) {
              const int base = 8 * static_cast<int>(rng.uniform_int(0, 2));
              const u64 a = x & 0xFF;
              const u64 b = static_cast<u64>(rng.uniform_int(0, 255));
              bad += model.lut8(base)[(a << 8) | b] != ref.mul(8, a, b, base);
            } else if (i % 3 == 1) {
              const auto j = static_cast<std::size_t>(rng.uniform_int(0, 4));
              bad += static_cast<u64>(rows[j][x]) != ref.mul(16, coeffs[j], x, 0);
            } else {
              bad += static_cast<u64>(diag[x]) != ref.mul(16, x, x, 0);
            }
          }
          EXPECT_EQ(bad, 0u) << to_string(ak) << "/" << to_string(mk) << "/"
                             << to_string(pol) << " k=" << k;
        }
      }
    }
  }
}

}  // namespace
}  // namespace xbs::arith

/// \file kernel.hpp
/// \brief Arithmetic kernels — the one datapath API.
///
/// A Kernel's counted scalar ops (`add/sub/mul`, one virtual call per sample
/// operation, no lookup tables) are the reference simulator: a stage's
/// per-sample `process(x)` runs through them. The batched `*_n` ops amortize
/// config decoding, LUT pointer resolution and operation counting over a
/// whole signal block, and their inner loops are tight non-virtual code.
/// Both are bit-identical, op counts included (asserted in
/// tests/test_kernel_equivalence). Op counts model the hardware datapath:
/// where software runs fewer ops than the hardware (MwiStage's shared
/// subtrees), it adds with `add_n_uncounted` and calls `charge`.
///
/// Operand convention: every value is a sign-extended signed 64-bit integer
/// carrying the block's `width`-bit two's-complement result, exactly like the
/// scalar API. Adds/subs model the 32-bit adder block; multiplies model the
/// 16x16 signed multiplier block.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "xbs/arith/isa.hpp"
#include "xbs/arith/multiplier.hpp"
#include "xbs/arith/rca.hpp"
#include "xbs/common/aligned.hpp"
#include "xbs/common/kinds.hpp"
#include "xbs/common/types.hpp"

namespace xbs::arith {

/// Storage of the process-wide product/square tables: cache-line aligned so
/// per-lane gathers (isa.hpp) start on a 64-byte boundary and the table head
/// never false-shares with neighbouring allocations.
using TableVec = std::vector<i64, AlignedAllocator<i64, 64>>;

/// Datapath operation counters (reset between runs to attribute operations
/// to stages).
struct OpCounts {
  u64 adds = 0;
  u64 mults = 0;

  constexpr OpCounts& operator+=(OpCounts o) noexcept {
    adds += o.adds;
    mults += o.mults;
    return *this;
  }
  friend constexpr OpCounts operator+(OpCounts a, OpCounts b) noexcept { return a += b; }
  friend constexpr bool operator==(OpCounts, OpCounts) = default;
};

/// Arithmetic configuration of one application stage: a 32-bit adder block
/// and a 16x16 multiplier block sharing the same number of approximated LSBs,
/// mirroring how the paper configures each stage with a single (LSB, Add,
/// Mult) triple.
struct StageArithConfig {
  AdderConfig adder{32, 0, AdderKind::Accurate, 0};
  MultiplierConfig mult{16, 0, AdderKind::Accurate, MultKind::Accurate,
                        ApproxPolicy::Moderate};

  /// Uniform configuration: k LSBs approximated in both blocks.
  [[nodiscard]] static StageArithConfig uniform(
      int approx_lsbs, AdderKind add_kind = AdderKind::Approx5,
      MultKind mult_kind = MultKind::V1,
      ApproxPolicy policy = ApproxPolicy::Moderate) noexcept {
    StageArithConfig c;
    c.adder = AdderConfig{32, approx_lsbs, add_kind, 0};
    c.mult = MultiplierConfig{16, approx_lsbs, add_kind, mult_kind, policy};
    return c;
  }

  /// True when this configuration is exactly the accurate native datapath.
  [[nodiscard]] constexpr bool is_exact() const noexcept {
    return adder.approx_lsbs == 0 && mult.approx_lsbs == 0;
  }

  friend constexpr bool operator==(const StageArithConfig&, const StageArithConfig&) = default;
};

/// fir_n scratch of the sum form, reused across chunks (single-consumer
/// like the op counters).
struct FirSumScratch {
  std::vector<u32> rows;          ///< one sum-form row per distinct coefficient
  std::vector<i64> gathered;      ///< ApproxKernel: one coefficient's products
  std::vector<i16> x16;           ///< ExactKernel: the multiplier's operands
  std::vector<const u32*> views;  ///< each non-zero tap's shifted row
  std::vector<u32> sums;          ///< each output's row sum
};

/// Block-granular datapath. The public `*_n` entry points count operations
/// once per block (n ops per call, identical totals to the scalar path) and
/// dispatch a single virtual call; the `*_impl` hooks run the tight loops.
///
/// The uncounted scalar hooks (`add1/sub1/mul1`) back the counted scalar ops
/// and the base-class loops; each computes exactly one element of the
/// corresponding batched op.
class Kernel {
 public:
  virtual ~Kernel() = default;

  // --- uncounted scalar compute (one element of the batched ops) ---
  [[nodiscard]] virtual i64 add1(i64 a, i64 b) const = 0;
  [[nodiscard]] virtual i64 sub1(i64 a, i64 b) const = 0;
  [[nodiscard]] virtual i64 mul1(i64 a, i64 b) const = 0;

  // --- counted scalar ops (streaming use; 1 op each) ---
  [[nodiscard]] i64 add(i64 a, i64 b) {
    ++counts_.adds;
    return add1(a, b);
  }
  [[nodiscard]] i64 sub(i64 a, i64 b) {
    ++counts_.adds;
    return sub1(a, b);
  }
  [[nodiscard]] i64 mul(i64 a, i64 b) {
    ++counts_.mults;
    return mul1(a, b);
  }

  // --- counted batched ops ---
  /// out[i] = add(a[i], b[i]). Spans must be equally sized; aliasing with
  /// `out` is allowed element-wise (in-place accumulate).
  void add_n(std::span<const i64> a, std::span<const i64> b, std::span<i64> out) {
    counts_.adds += out.size();
    add_n_impl(a, b, out);
  }
  /// out[i] = sub(a[i], b[i]).
  void sub_n(std::span<const i64> a, std::span<const i64> b, std::span<i64> out) {
    counts_.adds += out.size();
    sub_n_impl(a, b, out);
  }
  /// out[i] = mul(a[i], b[i]).
  void mul_n(std::span<const i64> a, std::span<const i64> b, std::span<i64> out) {
    counts_.mults += out.size();
    mul_n_impl(a, b, out);
  }
  /// Constant-coefficient multiply: out[i] = mul(c, x[i]) — the FIR tap
  /// primitive (note the operand order: approximate multiplies are not
  /// commutative).
  void mul_cn(i64 c, std::span<const i64> x, std::span<i64> out) {
    counts_.mults += out.size();
    mul_cn_impl(c, x, out);
  }
  /// Fused multiply-accumulate: acc[i] = add(acc[i], mul(c, x[i])).
  /// Counts one multiply and one add per element, like the scalar chain.
  /// \p x must not alias \p acc.
  void mac_n(i64 c, std::span<const i64> x, std::span<i64> acc) {
    counts_.mults += acc.size();
    counts_.adds += acc.size();
    mac_n_impl(c, x, acc);
  }

  /// Whole FIR convolution over a history-prefixed input: with T = taps.size()
  /// and n = acc.size(), `padded` holds T-1 carried samples followed by the n
  /// new ones (padded.size() == n + T - 1), and tap j of output i reads
  /// padded[T-1-j+i]. Per output sample the m non-zero taps' products
  /// p_0 .. p_{m-1} (tap order) are accumulated through the chain
  /// acc = add(acc, p_t) — exactly the per-tap mul_cn/mac_n sequence, and
  /// counted identically (n multiplies per non-zero tap, n adds per
  /// accumulation): the counts model the per-tap hardware chain whatever
  /// the backend runs. \p padded must not alias \p acc.
  ///
  /// Where the w-bit adder chain (w <= 32, k = approximate bits, hmask the
  /// accurate bits k..w-1) has a closed form, the backends compute it as one
  /// modular sum of product rows (one row per *distinct* coefficient), sign
  /// extended from w bits; m = 1 is the raw product:
  ///  - exact adder: sum of p_t mod 2^w;
  ///  - AMA5 (Sum = B, Cout = A): the low bits are p_{m-1}'s, and the high
  ///    part sums every p_t & hmask plus the carry bit k-1 of p_0 .. p_{m-2};
  ///  - AMA4 (Sum = NOT A, Cout = A): with a = m-1 adds and b = bit k-1 of
  ///    p_0, the high part sums every p_t & hmask plus floor(a/2) + b(a&1)
  ///    carries, and the low bits are p_0's (a even) or ~p_0's (a odd).
  /// AMA1-AMA3, wider adders and cold coefficient tables run the chain.
  void fir_n(std::span<const int> taps, std::span<const i64> padded, std::span<i64> acc) {
    std::size_t nonzero = 0;
    for (const int c : taps) nonzero += (c != 0);
    counts_.mults += acc.size() * nonzero;
    counts_.adds += acc.size() * (nonzero > 0 ? nonzero - 1 : 0);
    fir_n_impl(taps, padded, acc);
  }

  /// add_n with no op counted, for a caller that charges its modelled
  /// datapath's ops itself through charge().
  void add_n_uncounted(std::span<const i64> a, std::span<const i64> b,
                       std::span<i64> out) const {
    add_n_impl(a, b, out);
  }
  /// The op-charge hook: count \p ops as run by the modelled datapath.
  void charge(OpCounts ops) noexcept { counts_ += ops; }

  [[nodiscard]] const OpCounts& counts() const noexcept { return counts_; }
  void reset_counts() noexcept { counts_ = OpCounts{}; }

 protected:
  virtual void add_n_impl(std::span<const i64> a, std::span<const i64> b,
                          std::span<i64> out) const;
  virtual void sub_n_impl(std::span<const i64> a, std::span<const i64> b,
                          std::span<i64> out) const;
  virtual void mul_n_impl(std::span<const i64> a, std::span<const i64> b,
                          std::span<i64> out) const;
  virtual void mul_cn_impl(i64 c, std::span<const i64> x, std::span<i64> out) const;
  virtual void mac_n_impl(i64 c, std::span<const i64> x, std::span<i64> acc) const;
  virtual void fir_n_impl(std::span<const int> taps, std::span<const i64> padded,
                          std::span<i64> acc) const;

  mutable FirSumScratch fir_scratch_;

 private:
  OpCounts counts_;
};

/// Exact native backend (the golden reference datapath): 32-bit wrapping
/// adds, sign-extended 16x16 multiplies, all in tight native loops.
class ExactKernel final : public Kernel {
 public:
  [[nodiscard]] i64 add1(i64 a, i64 b) const override;
  [[nodiscard]] i64 sub1(i64 a, i64 b) const override;
  [[nodiscard]] i64 mul1(i64 a, i64 b) const override;

 protected:
  void add_n_impl(std::span<const i64> a, std::span<const i64> b,
                  std::span<i64> out) const override;
  void sub_n_impl(std::span<const i64> a, std::span<const i64> b,
                  std::span<i64> out) const override;
  void mul_n_impl(std::span<const i64> a, std::span<const i64> b,
                  std::span<i64> out) const override;
  void fir_n_impl(std::span<const int> taps, std::span<const i64> padded,
                  std::span<i64> acc) const override;
};

/// Bit-accurate approximate backend for one stage configuration, compiled
/// into branch-free table-driven inner loops.
///
/// Hoisted once per kernel: the adder model and the multiplier's
/// behavioural model; lazily per distinct coefficient, a full *signed*
/// product table `P[u] = mul1(c, sign_extend(u, w))` over every w-bit operand
/// pattern, so the FIR's products are gathered table loads (fir_n sums them
/// in closed form); the squaring pattern `mul_n` with `a.data() == b.data()`
/// likewise walks a per-config square table (`S[u] = mul1(x, x)`). Gathers
/// and wired adds run through the runtime-dispatched vector tier (isa.hpp),
/// every tier bit-identical. Tables are cached process-wide keyed by
/// (MultiplierConfig, coefficient); the caches are synchronized and the
/// tables immutable, so kernels in different threads share them. A Kernel
/// itself is single-consumer (op counters, table pointers, scratch): give
/// each session its own.
class ApproxKernel final : public Kernel {
 public:
  explicit ApproxKernel(const StageArithConfig& cfg);

  [[nodiscard]] const StageArithConfig& config() const noexcept { return cfg_; }

  [[nodiscard]] i64 add1(i64 a, i64 b) const override;
  [[nodiscard]] i64 sub1(i64 a, i64 b) const override;
  [[nodiscard]] i64 mul1(i64 a, i64 b) const override;

 protected:
  void add_n_impl(std::span<const i64> a, std::span<const i64> b,
                  std::span<i64> out) const override;
  void sub_n_impl(std::span<const i64> a, std::span<const i64> b,
                  std::span<i64> out) const override;
  void mul_n_impl(std::span<const i64> a, std::span<const i64> b,
                  std::span<i64> out) const override;
  void mul_cn_impl(i64 c, std::span<const i64> x, std::span<i64> out) const override;
  void mac_n_impl(i64 c, std::span<const i64> x, std::span<i64> acc) const override;
  void fir_n_impl(std::span<const int> taps, std::span<const i64> padded,
                  std::span<i64> acc) const override;

 private:
  /// Signed product table of mul1(c, .) for one coefficient, indexed by the
  /// w-bit operand pattern (sign already folded in — a pure walk).
  struct CoeffTable {
    i64 coeff = 0;
    const i64* data = nullptr;  ///< hoisted raw pointer, 2^w entries
    std::shared_ptr<const TableVec> owner;
  };
  /// Resolve the coefficient's table: always when `n` is large enough to
  /// amortize a cold build, otherwise only if it is already warm
  /// (kernel-local or process-wide); nullptr when using it would require a
  /// cold build that cannot pay for itself.
  [[nodiscard]] const i64* coeff_table(i64 c, std::size_t n) const;
  /// Same policy for the per-config square table (mul_n with a == b).
  [[nodiscard]] const i64* square_table(std::size_t n) const;

  StageArithConfig cfg_;
  /// The adder model (word-level, approx_add_u): the scalar ops, the
  /// generic kinds' batched adds and the FIR tap-chain fallback.
  RippleCarryAdder adder_;
  /// AMA4/AMA5 over a non-empty approximate region: batched adds run the
  /// dispatched carry-free wired-add loops with `wired_params_`.
  bool wired_ = false;
  WiredAddParams wired_params_{};
  std::shared_ptr<const RecursiveMultiplier> mult_owner_;
  const RecursiveMultiplier* mult_;  ///< hoisted raw pointer for the loops
  mutable std::vector<CoeffTable> coeff_tables_;  ///< tiny per-kernel LRU-less cache
  mutable const i64* square_ = nullptr;  ///< hoisted square-table pointer
  mutable std::shared_ptr<const TableVec> square_owner_;
};

/// Build the right backend for a stage configuration: the exact native kernel
/// when the configuration is accurate, the bit-accurate approximate kernel
/// otherwise.
[[nodiscard]] std::unique_ptr<Kernel> make_kernel(const StageArithConfig& cfg);

/// Process-wide cache of full signed per-coefficient product tables
/// (see ApproxKernel): 2^width entries, `P[u] = mul1(c, sign_extend(u, w))`.
/// Exposed so serving layers (stream::StreamServer) and benches can pre-warm
/// tables outside timed regions — once warm, every kernel in the process
/// walks them regardless of chunk size.
[[nodiscard]] std::shared_ptr<const TableVec> get_signed_coeff_products(
    const MultiplierConfig& cfg, i64 coeff);

/// Cache peek: the table if it has already been built, nullptr otherwise.
/// Lets small-block paths use a warm table without paying a cold build.
[[nodiscard]] std::shared_ptr<const TableVec> peek_signed_coeff_products(
    const MultiplierConfig& cfg, i64 coeff) noexcept;

/// Process-wide cache of per-config square tables: 2^width entries,
/// `S[u] = mul1(x, x)` for `x = sign_extend(u, w)` — the SQR-stage kernel.
[[nodiscard]] std::shared_ptr<const TableVec> get_square_products(
    const MultiplierConfig& cfg);

/// Cache peek for the square table (same policy as the coefficient peek).
[[nodiscard]] std::shared_ptr<const TableVec> peek_square_products(
    const MultiplierConfig& cfg) noexcept;

/// Cumulative build counters of the process-wide table caches (plus the
/// multiplier behavioural-model cache) — each counts actual cold builds,
/// not cache hits. Serving layers warm tables outside their latency-
/// sensitive regions; tests snapshot these counters around a streaming run
/// to prove nothing is built lazily on the hot path
/// (tests/test_kernel_dispatch.cpp).
struct TableCacheStats {
  u64 multiplier_models = 0;  ///< RecursiveMultiplier behavioural models
  u64 magnitude_tables = 0;   ///< magnitude-indexed product rows
  u64 signed_tables = 0;      ///< full signed per-coefficient tables
  u64 square_tables = 0;      ///< per-config square tables

  friend constexpr bool operator==(const TableCacheStats&,
                                   const TableCacheStats&) = default;
};
[[nodiscard]] TableCacheStats table_cache_stats() noexcept;

}  // namespace xbs::arith

#include "xbs/arith/kernel.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cassert>

#include "xbs/arith/isa.hpp"
#include "xbs/common/bitops.hpp"
#include "xbs/common/sync.hpp"

namespace xbs::arith {
namespace {

/// Blocks shorter than this fall back to the scalar multiplier instead of
/// building a per-coefficient product/square table (2^w multiplies to fill):
/// below the threshold a *cold* build cannot pay for itself within one call.
/// Warm tables (pre-built by stream::StreamServer / pantompkins::warm_* or by
/// any earlier large block) are used at every size, so the threshold is moot
/// for long-running streaming processes.
constexpr std::size_t kCoeffTableThreshold = 512;

#if defined(_MSC_VER)
#define XBS_RESTRICT __restrict
#else
#define XBS_RESTRICT __restrict__
#endif

}  // namespace

// ---------------------------------------------------------------- Kernel base

void Kernel::add_n_impl(std::span<const i64> a, std::span<const i64> b,
                        std::span<i64> out) const {
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = add1(a[i], b[i]);
}

void Kernel::sub_n_impl(std::span<const i64> a, std::span<const i64> b,
                        std::span<i64> out) const {
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = sub1(a[i], b[i]);
}

void Kernel::mul_n_impl(std::span<const i64> a, std::span<const i64> b,
                        std::span<i64> out) const {
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = mul1(a[i], b[i]);
}

void Kernel::mul_cn_impl(i64 c, std::span<const i64> x, std::span<i64> out) const {
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = mul1(c, x[i]);
}

void Kernel::mac_n_impl(i64 c, std::span<const i64> x, std::span<i64> acc) const {
  for (std::size_t i = 0; i < acc.size(); ++i) acc[i] = add1(acc[i], mul1(c, x[i]));
}

void Kernel::fir_n_impl(std::span<const int> taps, std::span<const i64> padded,
                        std::span<i64> acc) const {
  // Reference chain: one mul_cn for the first non-zero tap, one mac_n per
  // subsequent one, in tap order — the scalar per-sample dataflow, batched.
  const std::size_t T = taps.size();
  const std::size_t n = acc.size();
  bool first = true;
  for (std::size_t j = 0; j < T; ++j) {
    if (taps[j] == 0) continue;
    const std::span<const i64> xs = padded.subspan(T - 1 - j, n);
    if (first) {
      mul_cn_impl(taps[j], xs, acc);
      first = false;
    } else {
      mac_n_impl(taps[j], xs, acc);
    }
  }
  if (first) std::fill(acc.begin(), acc.end(), i64{0});
}

// -------------------------------------------------------------- FIR sum form

namespace {

/// The adder chains fir_n evaluates as one modular sum (kernel.hpp).
enum class ChainForm { Wrap, Ama4, Ama5 };

/// A tap set's distinct non-zero coefficients in tap order (n = 65: more
/// than 64).
struct FirCoeffs {
  std::array<int, 64> c;
  std::size_t n = 0;
  std::size_t nonzero = 0;

  explicit FirCoeffs(std::span<const int> taps) {
    for (const int v : taps) {
      if (v == 0) continue;
      ++nonzero;
      if (n > 64 || index_of(v) < n) continue;
      if (n < 64) c[n] = v;
      ++n;
    }
  }
  [[nodiscard]] std::size_t index_of(i64 v) const {
    const auto* last = c.data() + n;
    return static_cast<std::size_t>(std::find(c.data(), last, v) - c.data());
  }
};

/// Word constants of an m-tap chain through a w-bit adder (w <= 32) with k
/// approximate bits. The arithmetic wraps u32 by design (every form is a
/// sum mod 2^w, masked and sign-extended at the end), so it is exempt from
/// the -fsanitize=integer checks.
template <ChainForm F>
struct Chain {
  u32 hmask, lowk, cunit, half, flip;  // flip: all ones when m-1 is odd
  int bshift, sh;

  /// A product's term in the row sum.
  XBS_NO_SANITIZE_INTEGER [[nodiscard]] u32 term(u32 p) const {
    if constexpr (F == ChainForm::Ama5) return (p & hmask) + ((p << 1) & cunit);
    if constexpr (F == ChainForm::Ama4) return p & hmask;
    return p;
  }
  /// One output from its row sum \p s and the boundary tap's product \p pb
  /// (AMA5: the last tap, whose carry the sum over-counts; AMA4: the first).
  XBS_NO_SANITIZE_INTEGER [[nodiscard]] i64 out(u32 s, u32 pb) const {
    if constexpr (F == ChainForm::Ama5) {
      s = ((s - ((pb << 1) & cunit)) & hmask) | (pb & lowk);
    } else if constexpr (F == ChainForm::Ama4) {
      const u32 carries = half + ((pb >> bshift) & flip & 1u);
      s = ((s + carries * cunit) & hmask) | ((pb ^ flip) & lowk);
    }
    return static_cast<i32>(s << sh) >> sh;
  }
};

constexpr std::size_t kFirBlock = 16;  ///< outputs summed per register block

/// fir_n as one modular sum (m >= 1 non-zero taps, n >= 1 outputs):
/// `prepare(d)` readies distinct coefficient d, after which `prod(u)` is its
/// product with padded[u] (u < len) as u32. Each row is built in its sum
/// form in one pass; every output block sums the taps' shifted rows in
/// registers. Products are sign-magnitude (get_signed_coeff_products), so c
/// and -c share one prepare() unless c's low `key_bits` bits are the most
/// negative key, which is its own negation.
template <ChainForm F, class Prepare, class Prod>
XBS_NO_SANITIZE_INTEGER void fir_sum(std::span<const int> taps, const FirCoeffs& fc,
                                     std::size_t len, int w, int k, int key_bits,
                                     std::span<i64> acc, FirSumScratch& s,
                                     const Prepare& prepare, const Prod& prod) {
  const std::size_t T = taps.size();
  const std::size_t n = acc.size();
  const std::size_t stride = T - 1 + (n + kFirBlock - 1) / kFirBlock * kFirBlock;
  const std::size_t a = fc.nonzero - 1;  // adds per output
  const Chain<F> ch{static_cast<u32>(low_mask(w) & ~low_mask(k)), static_cast<u32>(low_mask(k)),
                    static_cast<u32>(u64{1} << k), static_cast<u32>(a / 2),
                    (a & 1) != 0 ? ~u32{0} : 0, std::max(k - 1, 0), 32 - w};
  std::size_t jb = T;  // boundary tap: AMA5's last non-zero, AMA4's first
  for (std::size_t j = 0; j < T; ++j) {
    if (taps[j] != 0 && (F == ChainForm::Ama5 || jb == T)) jb = j;
  }
  const auto negation_of = [&](std::size_t d) {
    const i64 c = fc.c[d];
    return to_unsigned_bits(c, key_bits) == u64{1} << (key_bits - 1) ? fc.n : fc.index_of(-c);
  };
  // Rows are built in pairs (c, -c) over whole blocks (the last block reads
  // past n); the boundary tap's pair goes last, so its products are what
  // prod() still reads in the final pass.
  s.rows.resize(fc.n * stride);
  const std::size_t db = fc.index_of(taps[jb]);
  u64 built = 0;
  for (std::size_t i = 0; i <= fc.n; ++i) {
    const std::size_t d = i == fc.n ? db : i;
    const std::size_t e = negation_of(d);
    if ((built >> d & 1u) != 0 || (i < fc.n && (d == db || e == db))) continue;
    prepare(d);
    u32* XBS_RESTRICT row = s.rows.data() + d * stride;
    if (e == fc.n) {
      for (std::size_t u = 0; u < len; ++u) row[u] = ch.term(prod(u));
    } else {
      u32* XBS_RESTRICT neg = s.rows.data() + e * stride;
      for (std::size_t u = 0; u < len; ++u) {
        const u32 p = prod(u);
        row[u] = ch.term(p);
        neg[u] = ch.term(0u - p);
      }
      built |= u64{1} << e;
    }
    built |= u64{1} << d;
  }
  s.views.clear();
  for (std::size_t j = 0; j < T; ++j) {
    if (taps[j] != 0) s.views.push_back(s.rows.data() + fc.index_of(taps[j]) * stride + T - 1 - j);
  }
  s.sums.resize(stride);
  u32* XBS_RESTRICT sums = s.sums.data();
  for (std::size_t i0 = 0; i0 < n; i0 += kFirBlock) {
    u32 sum[kFirBlock] = {};
    for (const u32* view : s.views) {
      const u32* XBS_RESTRICT r = view + i0;
      for (std::size_t l = 0; l < kFirBlock; ++l) sum[l] += r[l];
    }
    for (std::size_t l = 0; l < kFirBlock; ++l) sums[i0 + l] = sum[l];
  }
  // A separate pass: fused into the block loop, the boundary terms keep the
  // compiler from holding the block sums in registers.
  for (std::size_t i = 0; i < n; ++i) acc[i] = ch.out(sums[i], prod(T - 1 - jb + i));
}

}  // namespace

// ----------------------------------------------------------------- ExactKernel

i64 ExactKernel::add1(i64 a, i64 b) const {
  return sign_extend(to_unsigned_bits(a + b, 32), 32);
}

i64 ExactKernel::sub1(i64 a, i64 b) const {
  return sign_extend(to_unsigned_bits(a - b, 32), 32);
}

i64 ExactKernel::mul1(i64 a, i64 b) const {
  const i64 sa = sign_extend(to_unsigned_bits(a, 16), 16);
  const i64 sb = sign_extend(to_unsigned_bits(b, 16), 16);
  return sa * sb;
}

// The exact loops avoid per-element helper calls: truncate-then-sign-extend
// of the low 32 (16) bits is exactly a cast through i32 (i16) in C++20
// two's-complement arithmetic, which the compiler auto-vectorizes.

void ExactKernel::add_n_impl(std::span<const i64> a, std::span<const i64> b,
                             std::span<i64> out) const {
  // No restrict: element-wise aliasing with `out` is part of the contract;
  // out[i] depends only on index i, so the loop still vectorizes (the
  // compiler versions it with a runtime overlap check).
  const i64* pa = a.data();
  const i64* pb = b.data();
  i64* po = out.data();
  const std::size_t n = out.size();
  for (std::size_t i = 0; i < n; ++i) {
    po[i] = static_cast<i32>(static_cast<u32>(pa[i] + pb[i]));
  }
}

void ExactKernel::sub_n_impl(std::span<const i64> a, std::span<const i64> b,
                             std::span<i64> out) const {
  const i64* pa = a.data();
  const i64* pb = b.data();
  i64* po = out.data();
  const std::size_t n = out.size();
  for (std::size_t i = 0; i < n; ++i) {
    po[i] = static_cast<i32>(static_cast<u32>(pa[i] - pb[i]));
  }
}

void ExactKernel::mul_n_impl(std::span<const i64> a, std::span<const i64> b,
                             std::span<i64> out) const {
  const i64* pa = a.data();
  const i64* pb = b.data();
  i64* po = out.data();  // may alias pa/pb element-wise (kernel contract)
  const std::size_t n = out.size();
  for (std::size_t i = 0; i < n; ++i) {
    po[i] = static_cast<i64>(static_cast<i16>(static_cast<u16>(pa[i]))) *
            static_cast<i64>(static_cast<i16>(static_cast<u16>(pb[i])));
  }
}

void ExactKernel::fir_n_impl(std::span<const int> taps, std::span<const i64> padded,
                             std::span<i64> acc) const {
  // The 32-bit wrapping chain is a plain sum, and |c16 * x16| <= 2^30: the
  // u32 product rows are the sum form already.
  const FirCoeffs fc(taps);
  if (fc.n > 64 || fc.nonzero == 0 || acc.empty()) {
    Kernel::fir_n_impl(taps, padded, acc);
    return;
  }
  std::vector<i16>& x16 = fir_scratch_.x16;
  x16.resize(padded.size());
  for (std::size_t u = 0; u < x16.size(); ++u) {
    x16[u] = static_cast<i16>(static_cast<u16>(padded[u]));
  }
  i32 sc = 0;
  const i16* XBS_RESTRICT px = x16.data();
  const auto prepare = [&](std::size_t d) { sc = static_cast<i16>(static_cast<u16>(fc.c[d])); };
  const auto prod = [&](std::size_t u) { return static_cast<u32>(sc * i32{px[u]}); };
  fir_sum<ChainForm::Wrap>(taps, fc, padded.size(), 32, 0, 16, acc, fir_scratch_, prepare, prod);
}

// ---------------------------------------------------------------- ApproxKernel

ApproxKernel::ApproxKernel(const StageArithConfig& cfg)
    : cfg_(cfg),
      adder_(cfg.adder),
      mult_owner_(get_multiplier(cfg.mult)),
      mult_(mult_owner_.get()) {
  // The carry-free mirror adders (AMA4: Sum = NOT A, AMA5: Sum = B, both
  // Cout = A) batch through the dispatched wired-add loops; positions below
  // `approx_bits` are approximate.
  const int approx_bits =
      std::clamp(cfg.adder.approx_lsbs - cfg.adder.weight_offset, 0, cfg.adder.width);
  const AdderKind kind = cfg.adder.kind;
  if (approx_bits > 0 && (kind == AdderKind::Approx4 || kind == AdderKind::Approx5)) {
    wired_ = true;
    wired_params_ = WiredAddParams{cfg.adder.width, approx_bits, kind == AdderKind::Approx5,
                                   /*negate_b=*/false};
    // The loops' contract (isa.hpp): approx_bits in [1, width].
    assert(wired_params_.approx_bits >= 1 && wired_params_.approx_bits <= wired_params_.width);
  }
}

i64 ApproxKernel::add1(i64 a, i64 b) const { return adder_.add_signed(a, b); }

i64 ApproxKernel::sub1(i64 a, i64 b) const { return adder_.sub_signed(a, b); }

i64 ApproxKernel::mul1(i64 a, i64 b) const { return mult_->multiply_signed(a, b); }

// The batched loop bodies live behind the runtime ISA dispatch (isa.hpp):
// one atomic table-pointer load per *_n call selects the scalar baseline or
// the AVX2/AVX-512 vector loops, all bit-identical to the adder model's
// add_signed/sub_signed (asserted per forced ISA in
// tests/test_kernel_dispatch.cpp).

void ApproxKernel::add_n_impl(std::span<const i64> a, std::span<const i64> b,
                              std::span<i64> out) const {
  const std::size_t n = out.size();
  if (wired_) {
    kernel_ops().wired_add_n(a.data(), b.data(), out.data(), n, wired_params_);
    return;
  }
  for (std::size_t i = 0; i < n; ++i) out[i] = adder_.add_signed(a[i], b[i]);
}

void ApproxKernel::sub_n_impl(std::span<const i64> a, std::span<const i64> b,
                              std::span<i64> out) const {
  const std::size_t n = out.size();
  if (wired_) {
    WiredAddParams p = wired_params_;
    // One's complement + injected carry, as in the adder-subtractor; the
    // carry-in dies at the first approximate FA (Cout = A).
    p.negate_b = true;
    kernel_ops().wired_add_n(a.data(), b.data(), out.data(), n, p);
    return;
  }
  for (std::size_t i = 0; i < n; ++i) out[i] = adder_.sub_signed(a[i], b[i]);
}

void ApproxKernel::mul_n_impl(std::span<const i64> a, std::span<const i64> b,
                              std::span<i64> out) const {
  const std::size_t n = out.size();
  if (a.data() == b.data()) {
    // The squaring pattern (SQR stage): one masked (per-lane gathered) load
    // per sample from the per-config square table. Full in-place aliasing
    // with `out` is fine — out[i] is written strictly after a[i] is read.
    if (const i64* sq = square_table(n)) {
      kernel_ops().gather_lut_n(sq, low_mask(cfg_.mult.width), a.data(),
                                out.data(), n);
      return;
    }
  }
  for (std::size_t i = 0; i < n; ++i) out[i] = mult_->multiply_signed(a[i], b[i]);
}

const i64* ApproxKernel::coeff_table(i64 c, std::size_t n) const {
  for (const CoeffTable& t : coeff_tables_) {
    if (t.coeff == c) return t.data;
  }
  auto products = n >= kCoeffTableThreshold ? get_signed_coeff_products(cfg_.mult, c)
                                            : peek_signed_coeff_products(cfg_.mult, c);
  if (products == nullptr) return nullptr;
  CoeffTable t;
  t.coeff = c;
  t.data = products->data();
  t.owner = std::move(products);
  coeff_tables_.push_back(std::move(t));
  return coeff_tables_.back().data;
}

const i64* ApproxKernel::square_table(std::size_t n) const {
  if (square_ != nullptr) return square_;
  auto table = n >= kCoeffTableThreshold ? get_square_products(cfg_.mult)
                                         : peek_square_products(cfg_.mult);
  if (table == nullptr) return nullptr;
  square_owner_ = std::move(table);
  square_ = square_owner_->data();
  return square_;
}

void ApproxKernel::mul_cn_impl(i64 c, std::span<const i64> x, std::span<i64> out) const {
  // Below the threshold a cold table build cannot pay for itself, but a warm
  // one (kernel-local or process-wide) is still the fast path. The signed
  // table folds the coefficient's and operand's signs in, so the walk is one
  // masked load per sample. `out` must not alias `x` (FIR contract).
  const std::size_t n = out.size();
  const i64* prod = coeff_table(c, n);
  if (prod == nullptr) {
    for (std::size_t i = 0; i < n; ++i) out[i] = mult_->multiply_signed(c, x[i]);
    return;
  }
  kernel_ops().gather_lut_n(prod, low_mask(cfg_.mult.width), x.data(), out.data(), n);
}

void ApproxKernel::fir_n_impl(std::span<const int> taps, std::span<const i64> padded,
                              std::span<i64> acc) const {
  // Rows gather from the warm signed tables. A cold table (below the build
  // threshold), a wide or an AMA1-AMA3 adder takes the reference chain, and
  // so does one tap: its raw product need not fit the adder.
  const std::size_t n = acc.size();
  const FirCoeffs fc(taps);
  const AdderConfig& ad = cfg_.adder;
  const int k = std::clamp(ad.approx_lsbs - ad.weight_offset, 0, ad.width);
  bool sum_form = fc.n <= 64 && fc.nonzero >= 2 && n > 0 && ad.width <= 32 &&
                  (k == 0 || ad.kind == AdderKind::Accurate || wired_);
  std::array<const i64*, 64> tables;
  for (std::size_t d = 0; sum_form && d < fc.n; ++d) {
    tables[d] = coeff_table(fc.c[d], n);
    sum_form = tables[d] != nullptr;
  }
  if (!sum_form) {
    Kernel::fir_n_impl(taps, padded, acc);
    return;
  }
  std::vector<i64>& g = fir_scratch_.gathered;
  g.resize(padded.size());
  const KernelOps& ops = kernel_ops();
  const auto prepare = [&](std::size_t d) {
    ops.gather_lut_n(tables[d], low_mask(cfg_.mult.width), padded.data(), g.data(), g.size());
  };
  const i64* XBS_RESTRICT pg = g.data();
  const auto prod = [pg](std::size_t u) { return static_cast<u32>(pg[u]); };
  const int kb = cfg_.mult.width;
  if (!wired_) {
    fir_sum<ChainForm::Wrap>(taps, fc, g.size(), ad.width, 0, kb, acc, fir_scratch_, prepare, prod);
  } else if (wired_params_.sum_is_b) {
    fir_sum<ChainForm::Ama5>(taps, fc, g.size(), ad.width, k, kb, acc, fir_scratch_, prepare, prod);
  } else {
    fir_sum<ChainForm::Ama4>(taps, fc, g.size(), ad.width, k, kb, acc, fir_scratch_, prepare, prod);
  }
}

void ApproxKernel::mac_n_impl(i64 c, std::span<const i64> x, std::span<i64> acc) const {
  // The accumulator on the A port, the product on the B port — the same
  // operand order as the scalar chain add(acc, mul(c, x)).
  const std::size_t n = acc.size();
  const i64* prod = coeff_table(c, n);
  if (prod == nullptr) {
    for (std::size_t i = 0; i < n; ++i) {
      acc[i] = adder_.add_signed(acc[i], mult_->multiply_signed(c, x[i]));
    }
    return;
  }
  const u64 mmask = low_mask(cfg_.mult.width);
  for (std::size_t i = 0; i < n; ++i) {
    acc[i] = adder_.add_signed(acc[i], prod[static_cast<u64>(x[i]) & mmask]);
  }
}

// -------------------------------------------------------------------- factory

std::unique_ptr<Kernel> make_kernel(const StageArithConfig& cfg) {
  if (cfg.is_exact()) return std::make_unique<ExactKernel>();
  return std::make_unique<ApproxKernel>(cfg);
}

// ------------------------------------------------- product table caches

namespace {

// Cache entries are cache-line aligned: the process-wide caches are walked
// concurrently by every stream::StreamServer worker, and a
// 64-byte entry stride keeps one worker's entry (and the vector growth that
// publishes a neighbour) from false-sharing another's hot line.

/// Magnitude-indexed product rows M[m] = multiply_u(|c|, m) — the expensive
/// build, shared between +c and -c (and reused for the square diagonal).
struct alignas(64) MagnitudeCacheEntry {
  MultiplierConfig cfg;
  u64 magnitude;
  std::shared_ptr<const TableVec> table;
};

/// Full signed per-coefficient tables P[u] = mul1(c, sign_extend(u, w)),
/// keyed by the sign-extended coefficient value.
struct alignas(64) SignedCacheEntry {
  MultiplierConfig cfg;
  i64 coeff;
  std::shared_ptr<const TableVec> table;
};

/// Per-config square tables S[u] = mul1(x, x), x = sign_extend(u, w).
struct alignas(64) SquareCacheEntry {
  MultiplierConfig cfg;
  std::shared_ptr<const TableVec> table;
};

// The caches are shared by every kernel in the process and are hit from the
// concurrent sessions of a stream::StreamServer and the parallel exploration
// workers, so reads and inserts are serialized. The tables themselves are
// immutable once published; racing builders of the same table publish
// equivalent duplicates (last one wins, both bit-identical). The build
// counters count actual cold fills (not hits) and feed table_cache_stats().
// Rank kTableCache: a leaf — table fills run *outside* the lock, and nothing
// else is ever acquired under it.
struct TableCaches {
  common::Mutex mutex{common::LockRank::kTableCache};
  std::vector<MagnitudeCacheEntry> magnitude XBS_GUARDED_BY(mutex);
  std::vector<SignedCacheEntry> signed_coeff XBS_GUARDED_BY(mutex);
  std::vector<SquareCacheEntry> square XBS_GUARDED_BY(mutex);
  u64 magnitude_builds XBS_GUARDED_BY(mutex) = 0;
  u64 signed_builds XBS_GUARDED_BY(mutex) = 0;
  u64 square_builds XBS_GUARDED_BY(mutex) = 0;
};

TableCaches& caches() {
  static TableCaches c;
  return c;
}

std::shared_ptr<const TableVec> get_magnitude_products(const MultiplierConfig& cfg,
                                                       u64 magnitude) {
  {
    TableCaches& tc = caches();
    const common::MutexLock lock(tc.mutex);
    for (const MagnitudeCacheEntry& e : tc.magnitude) {
      if (e.magnitude == magnitude && e.cfg == cfg) return e.table;
    }
  }
  // Build outside the lock (the fill is the expensive part).
  const auto model = get_multiplier(cfg);
  // Operand magnitudes of a w-bit signed multiplier span [0, 2^(w-1)]
  // (the upper bound is the magnitude of the most negative value).
  const std::size_t n = (std::size_t{1} << (cfg.width - 1)) + 1;
  auto table = std::make_shared<TableVec>(n);
  // Same operand order as multiply_signed(c, x): the coefficient drives the
  // A port. Approximate arrays are not commutative, so this matters.
  model->multiply_row(magnitude, *table);
  TableCaches& tc = caches();
  const common::MutexLock lock(tc.mutex);
  tc.magnitude.push_back(MagnitudeCacheEntry{cfg, magnitude, table});
  ++tc.magnitude_builds;
  return table;
}

}  // namespace

std::shared_ptr<const TableVec> peek_signed_coeff_products(
    const MultiplierConfig& cfg, i64 coeff) noexcept {
  const i64 sc = sign_extend(to_unsigned_bits(coeff, cfg.width), cfg.width);
  TableCaches& tc = caches();
  const common::MutexLock lock(tc.mutex);
  for (const SignedCacheEntry& e : tc.signed_coeff) {
    if (e.coeff == sc && e.cfg == cfg) return e.table;
  }
  return nullptr;
}

std::shared_ptr<const TableVec> get_signed_coeff_products(const MultiplierConfig& cfg,
                                                          i64 coeff) {
  if (auto warm = peek_signed_coeff_products(cfg, coeff)) return warm;
  const int w = cfg.width;
  const i64 sc = sign_extend(to_unsigned_bits(coeff, w), w);
  const bool neg = sc < 0;
  const u64 mag = neg ? static_cast<u64>(-sc) : static_cast<u64>(sc);
  // Derive the full signed table from the magnitude row: one load and one
  // conditional negate per entry — cheap next to the row's multiply_u fill,
  // and bit-identical to mul1(c, x) by the sign-magnitude wrapper identity.
  const auto row = get_magnitude_products(cfg, mag);
  const std::size_t n = std::size_t{1} << w;
  auto table = std::make_shared<TableVec>(n);
  // Operand patterns u < 2^(w-1) are the magnitudes themselves; the upper
  // half holds x = u - 2^w, of magnitude 2^w - u.
  const i64* r = row->data();
  i64* t = table->data();
  for (std::size_t u = 0; u < n / 2; ++u) t[u] = neg ? -r[u] : r[u];
  for (std::size_t u = n / 2; u < n; ++u) t[u] = neg ? r[n - u] : -r[n - u];
  TableCaches& tc = caches();
  const common::MutexLock lock(tc.mutex);
  tc.signed_coeff.push_back(SignedCacheEntry{cfg, sc, table});
  ++tc.signed_builds;
  return table;
}

std::shared_ptr<const TableVec> peek_square_products(
    const MultiplierConfig& cfg) noexcept {
  TableCaches& tc = caches();
  const common::MutexLock lock(tc.mutex);
  for (const SquareCacheEntry& e : tc.square) {
    if (e.cfg == cfg) return e.table;
  }
  return nullptr;
}

std::shared_ptr<const TableVec> get_square_products(const MultiplierConfig& cfg) {
  if (auto warm = peek_square_products(cfg)) return warm;
  const auto model = get_multiplier(cfg);
  const int w = cfg.width;
  // Square diagonal per magnitude, then spread over both sign halves: the
  // sign-magnitude wrapper makes mul1(x, x) = +multiply_u(|x|, |x|) always.
  const std::size_t half = (std::size_t{1} << (w - 1)) + 1;
  std::vector<i64> diag(half);
  model->multiply_diagonal(diag);
  const std::size_t n = std::size_t{1} << w;
  auto table = std::make_shared<TableVec>(n);
  i64* t = table->data();
  for (std::size_t u = 0; u < n / 2; ++u) t[u] = diag[u];
  for (std::size_t u = n / 2; u < n; ++u) t[u] = diag[n - u];  // magnitude 2^w - u
  TableCaches& tc = caches();
  const common::MutexLock lock(tc.mutex);
  tc.square.push_back(SquareCacheEntry{cfg, table});
  ++tc.square_builds;
  return table;
}

TableCacheStats table_cache_stats() noexcept {
  TableCacheStats s;
  s.multiplier_models = multiplier_model_builds();
  TableCaches& tc = caches();
  const common::MutexLock lock(tc.mutex);
  s.magnitude_tables = tc.magnitude_builds;
  s.signed_tables = tc.signed_builds;
  s.square_tables = tc.square_builds;
  return s;
}

}  // namespace xbs::arith

#include "xbs/pantompkins/stages.hpp"

#include <algorithm>
#include <stdexcept>

#include "xbs/common/fixed.hpp"
#include "xbs/common/ring.hpp"
#include "xbs/dsp/pt_coeffs.hpp"

namespace xbs::pantompkins {

const StageInventory& stage_inventory(Stage s) noexcept {
  static const std::array<StageInventory, 5> inv = {{
      {Stage::Lpf, "LPF", 10, 11, 10, 16},
      {Stage::Hpf, "HPF", 31, 32, 31, 16},
      {Stage::Der, "DER", 3, 4, 4, 4},
      {Stage::Sqr, "SQR", 0, 1, 0, 8},
      {Stage::Mwi, "MWI", dsp::pt::kMwiWindow - 1, 0, dsp::pt::kMwiWindow - 1, 16},
  }};
  return inv[static_cast<std::size_t>(s)];
}

// ------------------------------------------------------------------- FirStage

FirStage::FirStage(std::span<const int> taps, int out_shift, arith::Kernel& kernel)
    : taps_(taps.begin(), taps.end()),
      delay_(taps.size(), 0),
      out_shift_(out_shift),
      kernel_(&kernel) {
  if (taps.empty()) throw std::invalid_argument("FirStage: empty taps");
}

void FirStage::reset() noexcept {
  std::fill(delay_.begin(), delay_.end(), 0);
  head_ = 0;
}

i32 FirStage::process(i32 x) {
  delay_[head_] = x;
  // Products in tap order (zero taps skipped), accumulated through a chain of
  // 32-bit adds — the same structure the netlist stage builder emits.
  i64 acc = 0;
  bool first = true;
  std::size_t idx = head_;
  for (const i32 c : taps_) {
    if (c != 0) {
      const i64 p = kernel_->mul(c, delay_[idx]);
      if (first) {
        acc = p;
        first = false;
      } else {
        acc = kernel_->add(acc, p);
      }
    }
    idx = (idx == 0) ? delay_.size() - 1 : idx - 1;
  }
  head_ = (head_ + 1) % delay_.size();
  // Normalization shift (wiring) and 16-bit inter-stage register.
  return static_cast<i32>(saturate_to_bits(acc >> out_shift_, 16));
}

void FirStage::process_chunk(std::span<const i32> x, std::vector<i32>& y) {
  const std::size_t n = x.size();
  const std::size_t taps = taps_.size();
  // History-prefixed copy of the input: the first T-1 elements are the last
  // T-1 carried samples oldest-first, element T-1+i is x[i]. Tap j of output
  // i reads offset T-1-j+i — exactly the carried delay line of the
  // per-sample path (all zeros for a fresh stage).
  padded_.resize(n + taps - 1);
  ring_history_prefix(delay_, head_, padded_);
  for (std::size_t i = 0; i < n; ++i) padded_[taps - 1 + i] = x[i];
  acc_.resize(n);

  // One batched FIR call: the kernel runs the per-sample accumulation chain
  // (operands and order identical to process()) and may hoist per-coefficient
  // product rows out of the tap loop.
  kernel_->fir_n(taps_, padded_, acc_);

  y.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    y[i] = static_cast<i32>(saturate_to_bits(acc_[i] >> out_shift_, 16));
  }

  ring_carry(delay_, head_, x);
}

// --------------------------------------------------------------- SquarerStage

i32 SquarerStage::process(i32 x) {
  const i64 clamped = saturate_to_bits(x, 16);
  return static_cast<i32>(kernel_->mul(clamped, clamped) >> out_shift_);
}

void SquarerStage::process_chunk(std::span<const i32> x, std::vector<i32>& y) {
  const std::size_t n = x.size();
  in_.resize(n);
  for (std::size_t i = 0; i < n; ++i) in_[i] = saturate_to_bits(x[i], 16);
  // Element-wise aliasing with out is part of the kernel contract, so the
  // products overwrite the clamped operands in place.
  kernel_->mul_n(in_, in_, in_);
  y.resize(n);
  for (std::size_t i = 0; i < n; ++i) y[i] = static_cast<i32>(in_[i] >> out_shift_);
}

// ------------------------------------------------------------------- MwiStage

MwiStage::MwiStage(int window, int out_shift, arith::Kernel& kernel)
    : out_shift_(out_shift), kernel_(&kernel) {
  if (window < 2) throw std::invalid_argument("MwiStage: window must be >= 2");
  const auto w = static_cast<std::size_t>(window);
  window_.assign(w, 0);

  // Intern the node shapes of process()'s pairwise reduction, each as its
  // (left, right) pair of child shapes.
  shapes_.emplace_back();  // the leaf
  std::vector<std::size_t> terms(w, 0);
  while (terms.size() > 1) {
    std::vector<std::size_t> next;
    for (std::size_t i = 0; i + 1 < terms.size(); i += 2) {
      const std::size_t l = terms[i], r = terms[i + 1];
      std::size_t s = 1;
      while (s < shapes_.size() && (shapes_[s].left != l || shapes_[s].right != r)) ++s;
      if (s == shapes_.size()) {
        shapes_.push_back({l, r, shapes_[l].span + shapes_[r].span, 0, 0, {}});
      }
      next.push_back(s);
    }
    if (terms.size() % 2 == 1) next.push_back(terms.back());
    terms = std::move(next);
  }

  // Offset ranges, from the root at offset 0 down: a node at offset a puts
  // its left child at a and its right child at a + span(left). Walking the
  // shapes backwards visits every parent of a shape before the shape.
  for (Shape& sh : shapes_) sh.lo = w;
  shapes_.back().lo = 0;
  for (std::size_t s = shapes_.size() - 1; s > 0; --s) {
    const Shape& p = shapes_[s];
    Shape& l = shapes_[p.left];
    Shape& r = shapes_[p.right];
    l.lo = std::min(l.lo, p.lo);
    l.hi = std::max(l.hi, p.hi);
    r.lo = std::min(r.lo, p.lo + l.span);
    r.hi = std::max(r.hi, p.hi + l.span);
  }
}

void MwiStage::reset() noexcept {
  std::fill(window_.begin(), window_.end(), 0);
  head_ = 0;
}

i32 MwiStage::process(i32 x) {
  const std::size_t w = window_.size();
  window_[head_] = x;
  head_ = (head_ + 1) % w;
  // Balanced feed-forward adder tree over the window contents, oldest first;
  // pairwise reduction order mirrors netlist::build_mwi_stage.
  std::vector<i64> terms;
  terms.reserve(w);
  std::size_t idx = head_;  // oldest element
  for (std::size_t i = 0; i < w; ++i) {
    terms.push_back(window_[idx]);
    idx = (idx + 1) % w;
  }
  while (terms.size() > 1) {
    std::vector<i64> next;
    next.reserve(terms.size() / 2 + 1);
    for (std::size_t i = 0; i + 1 < terms.size(); i += 2) {
      next.push_back(kernel_->add(terms[i], terms[i + 1]));
    }
    if (terms.size() % 2 == 1) next.push_back(terms.back());
    terms = std::move(next);
  }
  return static_cast<i32>(saturate_i32(terms[0] >> out_shift_));
}

void MwiStage::process_chunk(std::span<const i32> x, std::vector<i32>& y) {
  const std::size_t n = x.size();
  const std::size_t w = window_.size();
  // Node j of shape S covers window terms [j, j + span(S)) of the
  // history-prefixed input, whose first w-1 elements are the carried window
  // samples oldest-first (all zeros for a fresh stage): the leaf's values
  // are that input itself, so term k of output i is leaf node i + k.
  std::vector<i64>& padded = shapes_.front().values;
  padded.resize(n + w - 1);
  ring_history_prefix(window_, head_, padded);
  for (std::size_t i = 0; i < n; ++i) padded[w - 1 + i] = x[i];

  // Bottom-up, one add_n per shape: N_S[j] = add(N_L[j], N_R[j + span(L)]),
  // the left child on the A port as in process().
  const auto nodes = [&](std::size_t s, std::size_t from, std::size_t len) {
    return std::span<const i64>(shapes_[s].values).subspan(from - shapes_[s].lo, len);
  };
  for (std::size_t s = 1; s < shapes_.size(); ++s) {
    Shape& sh = shapes_[s];
    const std::size_t len = sh.hi - sh.lo + n;
    sh.values.resize(len);
    kernel_->add_n_uncounted(nodes(sh.left, sh.lo, len),
                             nodes(sh.right, sh.lo + shapes_[sh.left].span, len), sh.values);
  }
  kernel_->charge(arith::OpCounts{.adds = n * (w - 1)});

  y.resize(n);
  const std::vector<i64>& sum = shapes_.back().values;
  for (std::size_t i = 0; i < n; ++i) {
    y[i] = static_cast<i32>(saturate_i32(sum[i] >> out_shift_));
  }

  ring_carry(window_, head_, x);
}

// ------------------------------------------------------------- StageProcessor

namespace {

std::variant<FirStage, SquarerStage, MwiStage> make_stage_impl(Stage s,
                                                               arith::Kernel& kernel) {
  switch (s) {
    case Stage::Lpf: return FirStage(dsp::pt::kLpfTaps, dsp::pt::kLpfShift, kernel);
    case Stage::Hpf: return FirStage(dsp::pt::kHpfTaps, dsp::pt::kHpfShift, kernel);
    case Stage::Der: return FirStage(dsp::pt::kDerTaps, dsp::pt::kDerShift, kernel);
    case Stage::Sqr: return SquarerStage(dsp::pt::kSqrShift, kernel);
    case Stage::Mwi: return MwiStage(dsp::pt::kMwiWindow, dsp::pt::kMwiShift, kernel);
  }
  throw std::invalid_argument("StageProcessor: unknown stage");
}

}  // namespace

StageProcessor::StageProcessor(Stage s, arith::Kernel& kernel)
    : stage_(s), impl_(make_stage_impl(s, kernel)) {}

void StageProcessor::process_chunk(std::span<const i32> x, std::vector<i32>& out) {
  std::visit([&](auto& stage) { stage.process_chunk(x, out); }, impl_);
}

void StageProcessor::reset() {
  std::visit([](auto& stage) { stage.reset(); }, impl_);
}

}  // namespace xbs::pantompkins

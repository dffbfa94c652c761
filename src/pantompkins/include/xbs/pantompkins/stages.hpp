/// \file stages.hpp
/// \brief The five Pan-Tompkins application stages as fixed-point datapaths
/// over the kernel API.
///
/// Each stage offers two bit-identical views of the same datapath:
///  - `process(x)` — the per-sample reference path (one sample in, one out)
///    through the kernel's counted scalar ops,
///  - `process_chunk(x, y)` — the resumable chunked transform: consumes a
///    chunk of any size, carries the delay/window ring across calls, and
///    issues batched kernel calls (one fir_n per FIR chunk, one add_n per
///    distinct MWI tree-node shape).
/// Every output sample is computed by the same dataflow graph in both views
/// (same operands on the same ports, same order) and charged the same
/// operation counts, so outputs and OpCounts match bit for bit for any
/// chunking and any interleaving of the two (tests/test_kernel_equivalence,
/// tests/test_stream).
#pragma once

#include <array>
#include <span>
#include <string_view>
#include <variant>
#include <vector>

#include "xbs/arith/kernel.hpp"
#include "xbs/common/types.hpp"

namespace xbs::pantompkins {

/// The five stages, in pipeline order (paper Fig. 3).
enum class Stage { Lpf, Hpf, Der, Sqr, Mwi };
inline constexpr int kNumStages = 5;
inline constexpr std::array<Stage, 5> kAllStages = {Stage::Lpf, Stage::Hpf, Stage::Der,
                                                    Stage::Sqr, Stage::Mwi};

[[nodiscard]] constexpr std::string_view to_string(Stage s) noexcept {
  switch (s) {
    case Stage::Lpf: return "LPF";
    case Stage::Hpf: return "HPF";
    case Stage::Der: return "DER";
    case Stage::Sqr: return "SQR";
    case Stage::Mwi: return "MWI";
  }
  return "?";
}

/// Hardware inventory of one stage: the module counts the paper quotes and
/// the LSB range it sweeps/allows for that stage (§2, §4.2, §6.2).
struct StageInventory {
  Stage stage = Stage::Lpf;
  std::string_view name;
  int n_adders = 0;  ///< 32-bit adder blocks
  int n_mults = 0;   ///< 16x16 multiplier blocks
  int n_registers = 0;
  int max_lsbs = 16;  ///< upper bound of the approximation sweep
};

/// Inventory for each stage: LPF 10+11 (11 taps), HPF 31+32 (32 taps),
/// DER 3+4 (4 non-zero taps), SQR 0+1, MWI 29+0 (30-input adder tree).
[[nodiscard]] const StageInventory& stage_inventory(Stage s) noexcept;

/// A fixed-point FIR stage: per-tap 16x16 multiplies by integer
/// coefficients, a chain of 32-bit accumulations, then an arithmetic
/// normalization shift and 16-bit saturation of the output (the inter-stage
/// register width). All arithmetic flows through the given kernel; the
/// chunked transform issues one fir_n per chunk.
class FirStage {
 public:
  /// The kernel must outlive the stage.
  FirStage(std::span<const int> taps, int out_shift, arith::Kernel& kernel);

  /// Per-sample reference path: push one sample, get the output.
  [[nodiscard]] i32 process(i32 x);
  /// Resumable chunked transform: continues from the carried delay line and
  /// carries it forward — bit-identical to streaming the chunk through
  /// process(). \p y is resized to the chunk length and must not alias \p x.
  void process_chunk(std::span<const i32> x, std::vector<i32>& y);
  /// Zero the delay line in place (no reallocation): the state of a fresh
  /// record, reusable on the serving hot path (stream::Session::reset).
  void reset() noexcept;

 private:
  std::vector<i32> taps_;
  /// Delay-line ring: `head_` is the next write slot, which always holds
  /// the oldest retained sample.
  std::vector<i32> delay_;
  std::size_t head_ = 0;
  int out_shift_;
  arith::Kernel* kernel_;
  std::vector<i64> padded_;  ///< chunk scratch: history-prefixed input
  std::vector<i64> acc_;     ///< chunk scratch: accumulator chain
};

/// The squarer stage: y = (x * x) >> shift through the kernel's multiplier.
/// The output keeps wide precision (it feeds the adder-only MWI stage); the
/// shift keeps the downstream MWI sum inside its 32-bit adders. Stateless.
class SquarerStage {
 public:
  SquarerStage(int out_shift, arith::Kernel& kernel)
      : out_shift_(out_shift), kernel_(&kernel) {}

  [[nodiscard]] i32 process(i32 x);
  /// \p y must not alias \p x.
  void process_chunk(std::span<const i32> x, std::vector<i32>& y);
  void reset() noexcept {}

 private:
  int out_shift_;
  arith::Kernel* kernel_;
  std::vector<i64> in_;  ///< chunk scratch: clamped operands, then products
};

/// The moving-window-integration stage: a feed-forward balanced tree of
/// window-1 adds per sample (adder-only, no error feedback), then >> shift.
/// The tree reduction order matches the netlist builder exactly.
///
/// The chunked transform shares subtrees across outputs: the node of shape S
/// over window terms [a, a+s) of output i is the same add, of the same
/// operands on the same ports, as the node of shape S over [a-d, a-d+s) of
/// output i+d. It issues one uncounted add_n per distinct node shape (7 for
/// the paper's 30-term window: ~7 adds per output instead of 29) and charges
/// the hardware's window-1 adds per output through Kernel::charge.
class MwiStage {
 public:
  MwiStage(int window, int out_shift, arith::Kernel& kernel);

  [[nodiscard]] i32 process(i32 x);
  /// \p y must not alias \p x.
  void process_chunk(std::span<const i32> x, std::vector<i32>& y);
  /// Zero the window in place (no reallocation).
  void reset() noexcept;

 private:
  /// One distinct node shape of the window's adder tree: add(left, right),
  /// after its children, so the last is the root. Shape 0 is the leaf.
  struct Shape {
    std::size_t left = 0;
    std::size_t right = 0;
    std::size_t span = 1;  ///< window terms covered
    /// Range of the first covered term over the shape's nodes in one
    /// output's tree: a chunk of n needs the nodes at offsets [lo, hi + n).
    std::size_t lo = 0;
    std::size_t hi = 0;
    std::vector<i64> values;  ///< chunk scratch: node lo + j at [j]
  };

  /// Window ring, same conventions as FirStage's delay line.
  std::vector<i32> window_;
  std::size_t head_ = 0;
  int out_shift_;
  arith::Kernel* kernel_;
  std::vector<Shape> shapes_;
};

/// One wired pipeline stage — taps/shift/window resolved from the paper's
/// coefficient set for the given Stage — bound to a kernel, with its
/// carry-over state held internally. This is the single source of stage
/// wiring shared by the batch pipeline (`run_stage`, fixed 1024-sample
/// blocks per record), the exploration stage cache, and the streaming
/// `stream::Session` (its pushed chunks).
class StageProcessor {
 public:
  StageProcessor(Stage s, arith::Kernel& kernel);

  /// Resumable: consume a chunk of any size, carrying state across calls.
  /// \p out is resized to the chunk and reused across calls (allocation-free
  /// hot path); it must not alias \p x.
  void process_chunk(std::span<const i32> x, std::vector<i32>& out);

  /// Drop the carried state (start of a fresh record).
  void reset();

  [[nodiscard]] Stage stage() const noexcept { return stage_; }

 private:
  Stage stage_;
  std::variant<FirStage, SquarerStage, MwiStage> impl_;
};

}  // namespace xbs::pantompkins

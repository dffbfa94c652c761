/// \file common.hpp
/// \brief Shared pieces of the benchmark: seeded inputs, the in-process
/// reference every served event is checked against, the never-built config
/// pool, host facts and the run report.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "xbs/ecg/record.hpp"
#include "xbs/net/protocol.hpp"
#include "xbs/stream/session.hpp"

namespace perfbench {

using xbs::i32;
using xbs::u64;

/// Chunk size of every streamed workload: a wearable's 64-sample frame.
inline constexpr std::size_t kChunk = 64;

/// Never-built configs each workload pass (and the ladder) opens.
inline constexpr std::size_t kColdBatch = 8;

/// One NSRDB-like digitized record generated from (\p seed, \p index): the
/// same recipe as ecg::nsrdb_like_record (template ECG, standard noise,
/// 16-bit / 200 Hz front end) with the subject parameters drawn from the
/// workload seed instead of a fixed table.
xbs::ecg::DigitizedRecord make_record(u64 seed, int index, std::size_t n_samples);

/// Fig. 12's B1..B14 as pipeline configurations.
std::vector<xbs::pantompkins::PipelineConfig> fig12_configs();
xbs::pantompkins::PipelineConfig b9_config();

/// An approximate configuration, in the wire's vocabulary.
struct WireConfig {
  xbs::AdderKind add = xbs::AdderKind::Approx5;
  xbs::MultKind mult = xbs::MultKind::V1;
  xbs::ApproxPolicy policy = xbs::ApproxPolicy::Moderate;
  xbs::pantompkins::LsbVector lsbs{};

  [[nodiscard]] xbs::pantompkins::PipelineConfig pipeline() const;
  [[nodiscard]] xbs::net::OpenFrame open_frame(u64 token) const;
};

/// Seed-ordered approximate configurations whose LPF and HPF lookup tables
/// no other configuration of this process builds. Every table key is
/// (adder, multiplier, policy, LSBs). The pool uses the wired adders only
/// (AMA4/AMA5: their kernels run the same carry-free closed form, so a
/// config's cost once built does not depend on its family), skips the
/// Approx5/V1/Moderate family that Fig. 12 and the default exploration lists
/// use, gives LPF even and HPF odd LSB counts, and hands out each
/// (family, LSB) pair once: the first open of every config it returns builds
/// tables cold. A build's cost is set by the LSB count, so the counts repeat
/// one seed-ordered cycle of eight values: any kColdBatch consecutive
/// configs hold each count once, and a median over them has the same cost
/// mix whatever the seed.
class ColdConfigPool {
 public:
  explicit ColdConfigPool(u64 seed);
  /// The next never-built configuration (throws when exhausted).
  WireConfig next();
  static constexpr std::size_t kCapacity = 11 * 8;

 private:
  std::vector<WireConfig> configs_;
  std::size_t next_ = 0;
};

/// Order-sensitive digest of an event sequence (FNV-1a over every field's
/// bits): two sequences with equal digests are bit-identical, in order, for
/// all practical purposes. Long streams are checked by digest so the check
/// does not hold millions of events in memory.
struct EventDigest {
  u64 count = 0;
  u64 hash = 0xCBF29CE484222325ull;
  void add(const xbs::stream::Event& e);
  friend bool operator==(const EventDigest&, const EventDigest&) = default;
};

/// The reference a served stream is checked against: the digest of the
/// events an in-process stream::Session emits for the same chunk sequence
/// and, when asked for, the index of the chunk whose push finalized each
/// event (-1 for the flush tail) — the event -> due time map of the
/// latency measurement.
struct Reference {
  EventDigest digest;
  std::vector<std::int64_t> chunk_of;
  std::vector<std::size_t> beats;  ///< raw-signal index of every detected beat
};

/// Run a Session over the first \p n_samples samples of \p signal looped
/// end to end, pushed in chunks of \p chunk (the last one may be short),
/// then flush.
Reference reference_events(const xbs::pantompkins::PipelineConfig& cfg,
                           const std::vector<i32>& signal, std::size_t n_samples,
                           std::size_t chunk = kChunk, bool keep_chunk_map = false);

/// Lookup tables built by this process so far (every kind of
/// arith::table_cache_stats() summed).
u64 tables_total();

/// Peak resident set size of this process so far, in MB.
double rss_peak_mb();
/// Current resident set size, in MB.
double rss_now_mb();

/// Time \p setup \p reps times and return the median in seconds. Every
/// repetition but the last runs in a forked child, so each one starts as
/// cold as the first (process-wide table caches included); the last runs
/// in this process and its products are kept. Must be called before this
/// process starts any thread.
double timed_setup(int reps, const std::function<void(int rep)>& setup);

/// One reported metric.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  std::size_t samples = 0;  ///< observations behind the value (0: a single count)
  std::string note;         ///< how it was measured, for the human-readable table
};

/// Everything one run reports: metrics, the correctness ledger and facts.
class Report {
 public:
  void metric(std::string name, std::string unit, double value, std::size_t samples,
              std::string note = {});
  /// Count \p n attempted operations.
  void attempt(u64 n) { attempted_ += n; }
  /// Record a failed operation (or \p n of them) with the reason.
  void fail(const std::string& why, u64 n = 1);
  /// Add \p other's attempted and failed operations to this ledger.
  void merge_ledger(const Report& other);
  void fact(const std::string& key, const std::string& value);
  void fact(const std::string& key, double value);
  /// A fact whose value is already JSON-encoded.
  void fact_json(const std::string& key, const std::string& json) {
    facts_.emplace_back(key, json);
  }

  [[nodiscard]] const std::vector<Metric>& metrics() const noexcept { return metrics_; }
  [[nodiscard]] const Metric* find(const std::string& name) const;
  [[nodiscard]] u64 attempted() const noexcept { return attempted_; }
  [[nodiscard]] u64 failed() const noexcept { return failed_; }
  [[nodiscard]] const std::vector<std::string>& failures() const noexcept {
    return failures_;
  }
  [[nodiscard]] const std::vector<std::pair<std::string, std::string>>& facts() const noexcept {
    return facts_;
  }

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> failures_;
  std::vector<std::pair<std::string, std::string>> facts_;  ///< value already JSON-encoded
  u64 attempted_ = 0;
  u64 failed_ = 0;
};

/// Host and build facts every result records.
void record_host_facts(Report& r);

/// JSON string literal for \p s (quotes and escapes included).
std::string json_string(const std::string& s);

}  // namespace perfbench

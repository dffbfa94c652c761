/// \file trace.hpp
/// \brief In-memory span recorder: the benchmark's own tracing around the
/// calls it makes into each layer.
///
/// A span records a name, start and end (steady clock, ns), the span that
/// caused it and a request id shared by the spans of one request. Spans are
/// kept in memory while the run measures and written out (one JSON object
/// per line) when it ends. A span's self time is its duration minus the
/// part of that interval its child spans cover.
///
/// Recording is off unless enabled: a disabled recorder costs one relaxed
/// load per span, which is what the untraced (end-to-end) runs pay.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SpanRecord {
  const char* name = "";   ///< static string: span names are compile-time literals
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;      ///< 1-based; 0 means "no span"
  std::uint64_t parent = 0;  ///< id of the causing span, 0 for a root
  std::uint64_t request = 0; ///< shared by every span of one request
};

class SpanRecorder {
 public:
  void enable(bool on) noexcept { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Allocate a span id (0 when disabled).
  std::uint64_t open() noexcept {
    return enabled() ? next_id_.fetch_add(1, std::memory_order_relaxed) : 0;
  }

  /// Store a finished span. No-op for id 0.
  void close(const SpanRecord& s) {
    if (s.id == 0) return;
    const std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(s);
  }

  [[nodiscard]] std::vector<SpanRecord> spans() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

/// The process-wide recorder every benchmark layer reports into.
inline SpanRecorder& tracer() {
  static SpanRecorder r;
  return r;
}

/// RAII span. The parent defaults to the innermost open span of this thread
/// and the request id to the parent's, so nesting scopes builds the tree.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, std::uint64_t request = 0,
                      SpanRecorder& rec = tracer())
      : rec_(rec) {
    s_.id = rec_.open();
    if (s_.id == 0) return;
    s_.name = name;
    s_.parent = current() != nullptr ? current()->s_.id : 0;
    s_.request = request != 0 ? request : (current() != nullptr ? current()->s_.request : 0);
    outer_ = current();
    current() = this;
    s_.start_ns = now_ns();
  }
  ~ScopedSpan() {
    if (s_.id == 0) return;
    s_.end_ns = now_ns();
    current() = outer_;
    rec_.close(s_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] std::uint64_t id() const noexcept { return s_.id; }

 private:
  static ScopedSpan*& current() {
    thread_local ScopedSpan* cur = nullptr;
    return cur;
  }
  SpanRecorder& rec_;
  SpanRecord s_{};
  ScopedSpan* outer_ = nullptr;
};

/// Self time of every span, in the order of \p spans: duration minus the
/// union of its children's intervals (clipped to the parent's interval).
inline std::vector<std::int64_t> self_times(const std::vector<SpanRecord>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(spans.size());
  for (const SpanRecord& s : spans) {
    const auto it = index.find(s.parent);
    if (s.parent == 0 || it == index.end()) continue;
    const SpanRecord& p = spans[it->second];
    const std::int64_t a = std::max(s.start_ns, p.start_ns);
    const std::int64_t b = std::min(s.end_ns, p.end_ns);
    if (b > a) kids[it->second].emplace_back(a, b);
  }
  std::vector<std::int64_t> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t cur_a = 0;
    std::int64_t cur_b = 0;
    bool open = false;
    for (const auto& [a, b] : iv) {
      if (!open || a > cur_b) {
        if (open) covered += cur_b - cur_a;
        cur_a = a;
        cur_b = b;
        open = true;
      } else {
        cur_b = std::max(cur_b, b);
      }
    }
    if (open) covered += cur_b - cur_a;
    out[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return out;
}

/// Total and self time per span name (ns), for the run summary.
struct NameTotals {
  std::uint64_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
};

inline std::map<std::string, NameTotals> totals_by_name(const std::vector<SpanRecord>& spans) {
  const std::vector<std::int64_t> self = self_times(spans);
  std::map<std::string, NameTotals> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    NameTotals& t = out[spans[i].name];
    ++t.count;
    t.total_ns += spans[i].end_ns - spans[i].start_ns;
    t.self_ns += self[i];
  }
  return out;
}

/// Write every span as one JSON object per line; false on I/O failure.
inline bool write_spans(const std::string& path, const std::vector<SpanRecord>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<std::int64_t> self = self_times(spans);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,\"request\":%llu,"
                 "\"start_ns\":%lld,\"end_ns\":%lld,\"self_ns\":%lld}\n",
                 s.name, static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns),
                 static_cast<long long>(self[i]));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench

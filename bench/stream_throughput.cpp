// Streaming serving-layer throughput: N concurrent sessions driven through
// the sharded StreamServer's zero-copy loan path (acquire_buffer -> fill in
// place -> commit, no per-chunk copy or allocation anywhere) on the exact
// datapath, plus a session-churn scenario on the paper's B9 approximate
// configuration (slots closed, released and re-provisioned while every
// other stream keeps flowing). Measures aggregate sessions x
// samples/sec and emits one JSON object as a machine-readable baseline
// (committed as BENCH_stream.json).
//
//   ./bench_stream_throughput [--sessions N] [--samples M] [--chunk C]
//                             [--threads T] [--shards S] [--iters K]
//                             [--rotations R]
//
// Each loan drive reports the best of K drives (fresh sessions per drive;
// the shared multiplier/coefficient LUTs are pre-warmed by open(), as in any
// long-running serving process). Beat counts are printed so the bench
// doubles as an end-to-end sanity check of the online detector; every
// scenario also requires zero faults/rejects and a clean slot ledger.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "xbs/arith/isa.hpp"
#include "xbs/ecg/dataset.hpp"
#include "xbs/pantompkins/pipeline.hpp"
#include "xbs/stream/server.hpp"

namespace {

using namespace xbs;

int arg_int(int argc, char** argv, const char* name, int fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return std::atoi(argv[i + 1]);
  }
  return fallback;
}

struct ChurnResult {
  double wall_s = 0.0;
  stream::StreamServer::ServerStats stats{};

  [[nodiscard]] double samples_per_sec() const noexcept {
    return wall_s > 0.0 ? static_cast<double>(stats.samples) / wall_s : 0.0;
  }
};

struct ZeroCopyResult {
  double samples_per_sec = 0.0;
  bool clean = true;       ///< no refusals, no faults, every ledger closed
  unsigned workers = 0;    ///< resolved worker count (0 requested = auto)
  unsigned shards = 0;     ///< resolved shard count (0 requested = auto)
};

/// Zero-copy drive: every chunk is acquired from the session's buffer ring,
/// filled in place, and committed — the ingest path a memory-mapped ADC
/// front-end would use. Best-of-iters samples/sec.
ZeroCopyResult zerocopy_run(const stream::SessionSpec& spec,
                            std::span<const std::vector<i32>> feeds, std::size_t chunk,
                            unsigned threads, unsigned shards, int iters) {
  using Clock = std::chrono::steady_clock;
  ZeroCopyResult out;
  bool& clean = out.clean;
  double& best = out.samples_per_sec;
  for (int it = 0; it < iters; ++it) {
    stream::StreamServer server({.max_sessions = feeds.size(),
                                 .queue_capacity_chunks = 64,
                                 .max_chunk_samples = 0,
                                 .workers = threads,
                                 .shards = shards});
    out.workers = server.workers();
    out.shards = server.shards();
    std::vector<stream::SessionId> ids;
    ids.reserve(feeds.size());
    for (std::size_t i = 0; i < feeds.size(); ++i) ids.push_back(server.open(spec));

    const Clock::time_point t0 = Clock::now();
    std::vector<std::size_t> pos(feeds.size(), 0);
    bool any = true;
    while (any) {
      any = false;
      for (std::size_t k = 0; k < ids.size(); ++k) {
        const std::vector<i32>& feed = feeds[k];
        if (pos[k] >= feed.size()) continue;
        const std::size_t len = std::min(chunk, feed.size() - pos[k]);
        stream::ChunkLoan loan;
        if (server.acquire_buffer(ids[k], len, loan) != stream::PushResult::Ok) {
          clean = false;
          pos[k] = feed.size();
          continue;
        }
        // "Fill in place": the producer writes straight into the loaned
        // buffer (here a copy stands in for the ADC DMA write).
        std::copy_n(feed.begin() + static_cast<std::ptrdiff_t>(pos[k]), len,
                    loan.data().begin());
        if (server.commit(loan) != stream::PushResult::Ok) clean = false;
        pos[k] += len;
        any = true;
      }
    }
    u64 samples = 0;
    for (const stream::SessionId id : ids) {
      if (server.close(id) != stream::SessionState::Closed) clean = false;
      const auto st = server.session_stats(id);
      samples += st.samples;
      if (st.beats == 0 || st.rejected_chunks != 0 || st.dropped_chunks != 0 ||
          st.chunks_in != st.chunks_processed + st.queued_chunks + st.dropped_chunks) {
        clean = false;
      }
    }
    const double wall = std::chrono::duration<double>(Clock::now() - t0).count();
    if (wall > 0.0) best = std::max(best, static_cast<double>(samples) / wall);
  }
  return out;
}

/// Session churn over a live server: every slot serves `rotations`
/// consecutive connections — stream to end-of-record, close, release, open a
/// fresh session on the freed slot — while all other slots keep streaming.
/// This is the serving regime a fixed pool cannot express: lifecycle work on
/// the control plane with the data plane hot.
ChurnResult churn_run(const stream::SessionSpec& spec,
                      std::span<const std::vector<i32>> feeds, std::size_t chunk,
                      unsigned threads, unsigned shards, int rotations) {
  using Clock = std::chrono::steady_clock;
  const std::size_t n = feeds.size();
  stream::StreamServer server({.max_sessions = n,
                               .queue_capacity_chunks = 32,
                               .max_chunk_samples = 0,
                               .workers = threads,
                               .shards = shards});
  const Clock::time_point t0 = Clock::now();
  std::vector<stream::SessionId> ids(n);
  std::vector<std::size_t> pos(n);
  std::vector<int> served(n, 0);
  for (std::size_t i = 0; i < n; ++i) ids[i] = server.open(spec);
  std::size_t live = n;
  while (live > 0) {
    for (std::size_t i = 0; i < n; ++i) {
      if (served[i] >= rotations) continue;
      const std::vector<i32>& feed = feeds[i];
      if (pos[i] >= feed.size()) {
        // End of this connection: retire the slot and re-provision it.
        (void)server.close(ids[i]);
        (void)server.release(ids[i]);
        if (++served[i] >= rotations) {
          --live;
          continue;
        }
        ids[i] = server.open(spec);
        pos[i] = 0;
        continue;
      }
      const std::size_t len = std::min(chunk, feed.size() - pos[i]);
      (void)server.push(ids[i], std::span<const i32>(feed).subspan(pos[i], len));
      pos[i] += len;
    }
  }
  ChurnResult out;
  out.stats = server.stats();  // all slots released: totals are retired
  out.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const int sessions = std::max(1, arg_int(argc, argv, "--sessions", 16));
  const int samples = std::max(1000, arg_int(argc, argv, "--samples", 20000));
  const auto chunk = static_cast<std::size_t>(std::max(1, arg_int(argc, argv, "--chunk", 64)));
  const auto threads = static_cast<unsigned>(std::max(0, arg_int(argc, argv, "--threads", 0)));
  const auto shards = static_cast<unsigned>(std::max(0, arg_int(argc, argv, "--shards", 0)));
  const int iters = std::max(1, arg_int(argc, argv, "--iters", 3));
  const int rotations = std::max(1, arg_int(argc, argv, "--rotations", 3));

  std::vector<std::vector<i32>> feeds;
  feeds.reserve(static_cast<std::size_t>(sessions));
  for (int i = 0; i < sessions; ++i) {
    feeds.push_back(
        ecg::nsrdb_like_digitized(i, static_cast<std::size_t>(samples)).adu);
  }

  // Serving mode: events only, no cumulative per-session result retention.
  stream::SessionSpec exact_spec;
  exact_spec.keep_detection = false;
  stream::SessionSpec b9_spec = exact_spec;
  b9_spec.config = pantompkins::PipelineConfig::from_lsbs({10, 12, 2, 8, 16});

  // Cold LUT builds stay out of the timed windows, as in any long-running
  // serving process (open() warms the tables, but inside churn's clock).
  pantompkins::warm_pipeline_tables(b9_spec.config);
  const ZeroCopyResult zc = zerocopy_run(exact_spec, feeds, chunk, threads, shards, iters);
  const ChurnResult churn = churn_run(b9_spec, feeds, chunk, threads, shards, rotations);

  std::printf(
      "{\n"
      "  \"bench\": \"stream_throughput\",\n"
      "  \"isa\": \"%.*s\",\n"
      "  \"workload\": \"nsrdb_like_full_pipeline_online_qrs\",\n"
      "  \"sessions\": %d,\n"
      "  \"samples_per_session\": %d,\n"
      "  \"chunk_samples\": %zu,\n"
      "  \"threads\": %u,\n"
      "  \"iters\": %d,\n"
      "  \"shards\": %u,\n"
      "  \"exact_zerocopy_samples_per_sec\": %.0f,\n"
      "  \"churn_rotations_per_slot\": %d,\n"
      "  \"churn_connections_served\": %llu,\n"
      "  \"churn_b9_samples_per_sec\": %.0f,\n"
      "  \"churn_beats\": %llu,\n"
      "  \"churn_dropped_chunks\": %llu,\n"
      "  \"churn_peak_queue_chunks\": %llu,\n"
      "  \"churn_faulted_sessions\": %llu\n"
      "}\n",
      static_cast<int>(to_string(arith::kernel_isa().selected).size()),
      to_string(arith::kernel_isa().selected).data(),
      sessions, samples, chunk, zc.workers, iters, zc.shards,
      zc.samples_per_sec, rotations,
      static_cast<unsigned long long>(churn.stats.sessions_released),
      churn.samples_per_sec(), static_cast<unsigned long long>(churn.stats.beats),
      static_cast<unsigned long long>(churn.stats.dropped_chunks),
      static_cast<unsigned long long>(churn.stats.peak_queued_chunks),
      static_cast<unsigned long long>(churn.stats.faulted));

  // Non-zero exit when the loan drive refused a chunk, left a dirty ledger or
  // found no beats (the serving layer would be silently broken), when churn
  // leaked a slot, or when lifecycle work faulted, rejected or dropped
  // traffic on a lossless feed.
  const bool churn_clean =
      churn.stats.beats > 0 && churn.stats.faulted == 0 && churn.stats.open == 0 &&
      churn.stats.dropped_chunks == 0 && churn.stats.rejected_chunks == 0 &&
      churn.stats.sessions_released ==
          static_cast<u64>(sessions) * static_cast<u64>(rotations);
  return (zc.clean && churn_clean) ? 0 : 1;
}

// wire_serve: four wearables streaming over XBSP loopback into a NetServer
// built in this process. Three phases, each on fresh OPEN-acked, warm
// sessions, timed only between the last OPEN ack and the first CLOSE:
//   saturate  closed loop, every connection as fast as TCP takes it;
//   paced     open loop at kPacedRate aggregate, latency from the due time;
//   churn     three connections paced, the fourth OPENs never-built
//             approximate configs, streams a short record and CLOSEs.
#include <sys/prctl.h>

#include <array>
#include <atomic>
#include <barrier>
#include <memory>
#include <mutex>
#include <thread>

#include "loadgen.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "wire_client.hpp"
#include "workloads.hpp"
#include "xbs/net/server.hpp"

namespace perfbench {

using namespace xbs;

namespace {

/// Aggregate open-loop rate of the paced phase (samples/s), fixed so every
/// commit is offered the same load: about a ninth of the saturation rate on
/// the 4-core host this benchmark was defined on. Higher rates put the
/// latency on the knee of its curve, where identical runs disagree by 2x
/// (README.md).
constexpr double kPacedRate = 3.0e6;
constexpr std::size_t kLanes = 4;
constexpr std::size_t kRecordSamples = 1u << 16;  // looped; a multiple of kChunk
constexpr std::size_t kWarmChunks = 64;
constexpr std::size_t kColdChunks = 16;
/// A paced run whose generator issued its chunks later than this (p99)
/// measured the generator, not the server: it is reported invalid.
constexpr double kMaxLateP99Ms = 10.0;
/// Sampling slice of the saturate throughput; the reported rate is the
/// median slice, so one stall of the shared host does not move it.
constexpr std::int64_t kRateSlice = 100'000'000;
constexpr std::int64_t kSaturateRamp = 1'000'000'000;
/// Window of the paced latency percentiles (median across windows).
constexpr std::int64_t kLatencyWindow = 200'000'000;

enum Phase { kSaturate = 0, kPaced = 1, kChurn = 2, kPhases = 3 };
constexpr const char* kPhaseSpan[kPhases] = {"wire.saturate", "wire.paced", "wire.churn"};

struct ColdOpen {
  WireConfig cfg;
  double open_ms = 0.0;
  u64 tables_built = 0;
  EventDigest digest;
  net::StatsFrame ack{};
};

struct LanePhase {
  bool ran = false;
  std::size_t chunks = 0;  ///< chunks sent on the phase's session, warm-up included
  EventDigest digest;
  std::vector<std::int64_t> arrival;
  std::unique_ptr<OpenLoop> sched;
  net::StatsFrame close_ack{};
  std::vector<ColdOpen> cold;
};

struct Shared {
  std::barrier<> bar{kLanes + 1};
  std::atomic<std::int64_t> t0{0};
  std::atomic<std::int64_t> t_end{0};
  std::mutex mu;
  std::vector<std::string> errors;
  void error(const std::string& e) {
    const std::lock_guard<std::mutex> lock(mu);
    errors.push_back(e);
  }
};

std::span<const i32> chunk_at(const std::vector<i32>& sig, std::size_t k) {
  return std::span<const i32>(sig).subspan((k * kChunk) % sig.size(), kChunk);
}

void run_lane(std::size_t lane, WireConn& conn, const std::vector<i32>& sig,
              const std::vector<i32>& short_rec, double period_ns, ColdConfigPool& pool,
              Shared& sh, std::array<LanePhase, kPhases>& out) {
  (void)::prctl(PR_SET_TIMERSLACK, 1000UL);  // 1 us: the paced schedule is sub-ms
  u64 token = 0x5EED0000ull + lane * 0x10000ull;
  bool alive = true;
  for (int ph = 0; ph < kPhases; ++ph) {
    LanePhase& lp = out[static_cast<std::size_t>(ph)];
    const bool cold_lane = ph == kChurn && lane == kLanes - 1;
    bool ok = alive;
    ScopedSpan phase_span(kPhaseSpan[ph], lane + 1);
    if (ok && !cold_lane) {
      try {
        ScopedSpan s("net.open");
        conn.reset_events(ph != kSaturate);  // saturate streams are checked by digest
        (void)conn.open(WireConfig{}.open_frame(++token));  // all-zero LSBs: exact
        for (std::size_t k = 0; k < kWarmChunks; ++k) conn.queue_chunk(chunk_at(sig, k));
        while (conn.out_pending() > 0) conn.pump(now_ns() + 1'000'000);
      } catch (const std::exception& e) {
        sh.error("lane " + std::to_string(lane) + " open: " + e.what());
        ok = alive = false;
      }
    }
    sh.bar.arrive_and_wait();  // every session acked and warm
    sh.bar.arrive_and_wait();  // window published
    const std::int64_t t0 = sh.t0.load();
    const std::int64_t t_end = sh.t_end.load();
    try {
      if (ok && cold_lane) {
        // One cold open per equal slice of the window, so every slice holds
        // one stall episode and the per-slice tails are comparable.
        const double slice = static_cast<double>(t_end - t0) / kColdBatch;
        while (lp.cold.size() < kColdBatch) {
          const std::int64_t due =
              t0 + static_cast<std::int64_t>(slice * static_cast<double>(lp.cold.size()));
          while (now_ns() < due) conn.pump(due);
          if (now_ns() >= t_end) break;
          ColdOpen c;
          c.cfg = pool.next();
          conn.reset_events(false);
          const u64 before = tables_total();
          {
            ScopedSpan s("net.cold_open");
            const std::int64_t t = now_ns();
            (void)conn.open(c.cfg.open_frame(++token));
            c.open_ms = static_cast<double>(now_ns() - t) / 1e6;
          }
          c.tables_built = tables_total() - before;
          for (std::size_t k = 0; k < kColdChunks; ++k) conn.queue_chunk(chunk_at(short_rec, k));
          {
            ScopedSpan s("net.close");
            c.ack = conn.close_session();
          }
          c.digest = conn.digest;
          lp.cold.push_back(std::move(c));
        }
        lp.ran = true;
      } else if (ok && ph == kSaturate) {
        std::size_t k = kWarmChunks;
        while (now_ns() < t_end) {
          while (conn.out_pending() < (256u << 10)) conn.queue_chunk(chunk_at(sig, k++));
          conn.pump(std::min(t_end, now_ns() + 2'000'000));
        }
        lp.chunks = k;
        lp.ran = true;
      } else if (ok) {
        // Lanes are spread over one period so their sends interleave.
        const double offset = period_ns * static_cast<double>(lane) / kLanes;
        lp.sched = std::make_unique<OpenLoop>(t0 + static_cast<std::int64_t>(offset), period_ns);
        const auto total = static_cast<std::size_t>(
            static_cast<double>(t_end - t0) / period_ns);
        std::size_t k = 0;
        while (true) {
          const std::int64_t now = now_ns();
          while (k < total && lp.sched->due(k) <= now) {
            conn.queue_chunk(chunk_at(sig, kWarmChunks + k));
            (void)lp.sched->issued(k, now);
            ++k;
          }
          if (k >= total) break;
          conn.pump(lp.sched->due(k));
        }
        while (conn.out_pending() > 0) conn.pump(now_ns() + 1'000'000);
        lp.chunks = kWarmChunks + k;
        lp.ran = true;
      }
    } catch (const std::exception& e) {
      sh.error("lane " + std::to_string(lane) + " phase " + std::to_string(ph) + ": " + e.what());
      ok = alive = false;
      lp.ran = false;
    }
    sh.bar.arrive_and_wait();  // window closed
    if (ok && !cold_lane) {
      try {
        ScopedSpan s("net.close");
        lp.close_ack = conn.close_session();
        lp.digest = conn.digest;
        lp.arrival = std::move(conn.arrival_ns);
      } catch (const std::exception& e) {
        sh.error("lane " + std::to_string(lane) + " close: " + e.what());
        alive = false;
        lp.ran = false;
      }
    }
    sh.bar.arrive_and_wait();  // phase over
  }
}

void sleep_until_ns(std::int64_t t) {
  while (true) {
    const std::int64_t now = now_ns();
    if (now >= t) return;
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(std::min<std::int64_t>(t - now, 1'000'000)));
  }
}

}  // namespace

void run_wire_serve(const RunOptions& o, ColdConfigPool& pool, Report& e2e, Report& layer) {
  net::NetServer::Options opts;
  opts.stream.max_sessions = 64;  // every phase's closed records stay inspectable
  opts.stream.queue_capacity_chunks = 64;
  opts.stream.workers = kLanes;
  opts.stream.shards = kLanes;
  opts.stream.event_queue_capacity = 4096;

  std::vector<std::vector<i32>> sigs;
  std::vector<i32> short_rec;
  std::unique_ptr<net::NetServer> server;
  std::vector<std::unique_ptr<WireConn>> conns;
  const double setup_s = timed_setup(o.setup_reps, [&](int) {
    conns.clear();
    server.reset();
    sigs.clear();
    for (std::size_t i = 0; i < kLanes; ++i) {
      sigs.push_back(make_record(o.seed, static_cast<int>(i), kRecordSamples).adu);
    }
    short_rec = make_record(o.seed, 99, kColdChunks * kChunk).adu;
    server = std::make_unique<net::NetServer>(opts);
    for (std::size_t i = 0; i < kLanes; ++i) {
      conns.push_back(std::make_unique<WireConn>(server->port()));
    }
  });

  const double durations[kPhases] = {0.35 * o.seconds + kSaturateRamp / 1e9, 0.3 * o.seconds,
                                     0.35 * o.seconds};
  const double period_ns = static_cast<double>(kChunk) * kLanes / kPacedRate * 1e9;
  Shared sh;
  std::array<std::array<LanePhase, kPhases>, kLanes> lanes;
  std::array<xbs::stream::StreamServer::ServerStats, kPhases> snap0{};
  std::array<xbs::stream::StreamServer::ServerStats, kPhases> snap1{};
  std::array<std::int64_t, kPhases> t_snap0{};
  std::vector<double> sat_rates;  ///< saturate: processed samples/s per sampling slice
  std::array<u64, kPhases> built{};
  {
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < kLanes; ++i) {
      threads.emplace_back(run_lane, i, std::ref(*conns[i]), std::cref(sigs[i]),
                           std::cref(short_rec), period_ns, std::ref(pool), std::ref(sh),
                           std::ref(lanes[i]));
    }
    for (int ph = 0; ph < kPhases; ++ph) {
      sh.bar.arrive_and_wait();
      const std::int64_t t0 = now_ns() + 5'000'000;
      sh.t0 = t0;
      sh.t_end = t0 + static_cast<std::int64_t>(durations[ph] * 1e9);
      sh.bar.arrive_and_wait();
      sleep_until_ns(t0);
      const u64 tab0 = tables_total();
      t_snap0[static_cast<std::size_t>(ph)] = now_ns();
      snap0[static_cast<std::size_t>(ph)] = server->stream().stats();
      if (ph == kSaturate) {
        // The first second only brings the connections up to speed: on the
        // shared host the server sometimes runs at half rate for ~1 s after
        // the load starts, and that ramp is not the steady state.
        sleep_until_ns(t0 + kSaturateRamp);
        std::int64_t t_prev = now_ns();
        u64 s_prev = server->stream().stats().samples;
        while (t_prev + kRateSlice <= sh.t_end.load()) {
          sleep_until_ns(t_prev + kRateSlice);
          const std::int64_t t = now_ns();
          const u64 samples = server->stream().stats().samples;
          sat_rates.push_back(static_cast<double>(samples - s_prev) * 1e9 /
                              static_cast<double>(t - t_prev));
          t_prev = t;
          s_prev = samples;
        }
      }
      sleep_until_ns(sh.t_end.load());
      snap1[static_cast<std::size_t>(ph)] = server->stream().stats();
      built[static_cast<std::size_t>(ph)] = tables_total() - tab0;
      sh.bar.arrive_and_wait();
      sh.bar.arrive_and_wait();
    }
    for (std::thread& t : threads) t.join();
  }
  for (const std::string& e : sh.errors) e2e.fail(e);

  // --- correctness: every session against its in-process reference ---
  const pantompkins::PipelineConfig exact = pantompkins::PipelineConfig::accurate();
  std::array<std::array<Reference, kPhases>, kLanes> refs;
  {
    std::vector<std::thread> workers;
    for (std::size_t i = 0; i < kLanes; ++i) {
      workers.emplace_back([&, i] {
        for (int ph = 0; ph < kPhases; ++ph) {
          const LanePhase& lp = lanes[i][static_cast<std::size_t>(ph)];
          if (lp.ran && lp.chunks > 0) {
            refs[i][static_cast<std::size_t>(ph)] =
                reference_events(exact, sigs[i], lp.chunks * kChunk, kChunk, lp.sched != nullptr);
          }
        }
      });
    }
    for (std::thread& t : workers) t.join();
  }

  std::vector<double> paced_ms;
  std::vector<std::int64_t> paced_at;
  std::vector<double> churn_ms;
  std::vector<std::int64_t> churn_at;
  std::vector<double> cold_ms;
  std::vector<double> late_ns;
  for (std::size_t i = 0; i < kLanes; ++i) {
    for (int ph = 0; ph < kPhases; ++ph) {
      const LanePhase& lp = lanes[i][static_cast<std::size_t>(ph)];
      if (!lp.ran) continue;
      for (const ColdOpen& c : lp.cold) {
        const Reference ref = reference_events(c.cfg.pipeline(), short_rec, kColdChunks * kChunk);
        e2e.attempt(1 + kColdChunks + ref.digest.count);
        if (!(ref.digest == c.digest)) e2e.fail("cold session events differ from the reference");
        if (c.ack.chunks_in != kColdChunks || c.ack.dropped_chunks != 0 ||
            c.ack.events_dropped != 0 || c.ack.net_events_shed != 0) {
          e2e.fail("cold session ledger not clean");
        }
        if (c.tables_built == 0) e2e.fail("churn config opened without a cold table build");
        cold_ms.push_back(c.open_ms);
      }
      if (lp.chunks == 0) continue;
      const Reference& ref = refs[i][static_cast<std::size_t>(ph)];
      e2e.attempt(lp.chunks + ref.digest.count);
      const bool bad = !(ref.digest == lp.digest);
      if (bad) e2e.fail("wire events differ from the in-process reference");
      if (lp.close_ack.chunks_in != lp.chunks) {
        e2e.fail("server accepted " + std::to_string(lp.close_ack.chunks_in) + " of " +
                 std::to_string(lp.chunks) + " chunks");
      }
      // A QueueFull on the wire parks the connection and retries the same
      // chunk (counted in rejected_chunks), so loss shows as chunks_in short
      // of what was sent; dropped chunks and dropped or shed events are loss.
      const u64 lost = lp.close_ack.dropped_chunks + lp.close_ack.events_dropped +
                       lp.close_ack.net_events_shed;
      if (lost > 0) e2e.fail("dropped chunks or dropped/shed events", lost);
      if (lp.sched == nullptr) continue;
      late_ns.insert(late_ns.end(), lp.sched->lateness_ns().begin(), lp.sched->lateness_ns().end());
      if (bad) continue;
      if (lp.arrival.size() != ref.chunk_of.size()) {
        e2e.fail("event arrival times missing");
        continue;
      }
      for (std::size_t j = 0; j < ref.chunk_of.size(); ++j) {
        const std::int64_t c = ref.chunk_of[j];
        if (c < static_cast<std::int64_t>(kWarmChunks)) continue;  // warm-up or flush tail
        const std::int64_t due = lp.sched->due(static_cast<std::size_t>(c) - kWarmChunks);
        const double ms = static_cast<double>(lp.arrival[j] - due) / 1e6;
        (ph == kPaced ? paced_ms : churn_ms).push_back(ms);
        (ph == kPaced ? paced_at : churn_at).push_back(due);
      }
    }
  }
  const u64 steady_built = built[kSaturate] + built[kPaced];
  if (steady_built != 0) e2e.fail("lookup tables built during a steady phase", steady_built);
  const Summary late = summarize(late_ns);
  if (late.n == 0 || late.p99 / 1e6 > kMaxLateP99Ms) {
    e2e.fail("paced generator lagged past its bound: invalid run");
  }
  const net::NetServer::Stats ns = server->stats();
  if (ns.protocol_errors != 0) e2e.fail("protocol errors", ns.protocol_errors);

  const Summary paced = summarize(paced_ms);
  const Summary churn = summarize(churn_ms);
  const Summary cold = summarize(cold_ms);
  const std::int64_t churn_slice =
      static_cast<std::int64_t>(durations[kChurn] * 1e9 / kColdBatch);
  e2e.metric("setup_s", "s", setup_s, static_cast<std::size_t>(o.setup_reps),
             "records + NetServer + 4 connections, median of repetitions");
  e2e.metric("samples_per_s", "1/s", median(sat_rates), sat_rates.size(),
             "saturate: samples the server processed per second, median 100 ms slice");
  e2e.metric("latency_p50_ms", "ms",
             windowed_percentile(paced_at, paced_ms, t_snap0[kPaced], kLatencyWindow, 50.0, 1000),
             paced.n, "paced: chunk due -> EVENT received, median of 200 ms windows");
  e2e.metric("cold_open_ms_p50", "ms", cold.p50, cold.n,
             "churn: OPEN sent -> ack for a never-built approximate config");
  e2e.metric("rss_peak_mb", "MB", rss_peak_mb(), 1, "peak resident set of the process");

  const stream::StreamServer::ServerStats ss = server->stream().stats();
  layer.metric("stream.peak_queued_chunks", "count", static_cast<double>(ss.peak_queued_chunks), 0);
  layer.metric("stream.rejected_chunks", "count", static_cast<double>(ss.rejected_chunks), 0);
  layer.metric("stream.dropped_chunks", "count", static_cast<double>(ss.dropped_chunks), 0);
  layer.metric("stream.events_dropped", "count", static_cast<double>(ss.events_dropped), 0);
  layer.metric("net.bytes_in", "bytes", static_cast<double>(ns.bytes_in), 0);
  layer.metric("net.bytes_out", "bytes", static_cast<double>(ns.bytes_out), 0);
  layer.metric("net.events_sent", "count", static_cast<double>(ns.events_sent), 0);
  layer.metric("net.events_shed", "count", static_cast<double>(ns.events_shed), 0);
  layer.metric("net.protocol_errors", "count", static_cast<double>(ns.protocol_errors), 0);
  layer.metric("arith.tables_built", "count", static_cast<double>(steady_built), 0,
               "table builds inside the saturate and paced windows");
  layer.metric("loadgen.churn_latency_p99_ms", "ms",
               windowed_percentile(churn_at, churn_ms, t_snap0[kChurn], churn_slice, 99.0, 1000),
               churn.n, "churn: steady connections' event latency, median of per-cold-open slices");
  layer.metric("loadgen.latency_p99_ms", "ms", paced.p99, paced.n,
               "paced: chunk due -> EVENT received, p99 of the phase");
  layer.metric("loadgen.late_p99_ms", "ms", late.p99 / 1e6, late.n, "paced + churn sends");
  layer.metric("loadgen.late_max_ms", "ms", late.max / 1e6, late.n);

  e2e.fact("paced_rate_samples_per_s", kPacedRate);
  e2e.fact("server_workers", static_cast<double>(opts.stream.workers));
  e2e.fact("server_shards", static_cast<double>(opts.stream.shards));
  e2e.fact("queue_capacity_chunks", static_cast<double>(opts.stream.queue_capacity_chunks));
  e2e.fact("event_queue_capacity", static_cast<double>(opts.stream.event_queue_capacity));
  e2e.fact("latency_highest_supported_pct", paced.tail_p);
  e2e.fact("latency_at_highest_supported_ms", paced.tail);
  e2e.fact("churn_latency_whole_run_p99_ms", churn.p99);
  e2e.fact("cold_opens", static_cast<double>(cold.n));

  conns.clear();
  server->stop();
}

}  // namespace perfbench

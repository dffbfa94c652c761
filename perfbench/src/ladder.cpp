// The layer ladder: one generated record, exact and B9, pushed up the
// layers one at a time on a single thread, so each layer's cost is its own
// ns/sample and the difference between adjacent rungs is the marginal cost
// of the layer added. Each rung runs kReps times; the median is reported.
#include <filesystem>
#include <functional>
#include <map>

#include "stats.hpp"
#include "trace.hpp"
#include "wire_client.hpp"
#include "workloads.hpp"
#include "xbs/arith/kernel.hpp"
#include "xbs/ecg/dataset.hpp"
#include "xbs/metrics/peaks.hpp"
#include "xbs/net/server.hpp"
#include "xbs/pantompkins/pipeline.hpp"
#include "xbs/store/replay.hpp"
#include "xbs/store/store.hpp"
#include "xbs/stream/server.hpp"

namespace perfbench {

using namespace xbs;
using pantompkins::Stage;

namespace {

constexpr int kReps = 5;
constexpr std::size_t kSamples = ecg::kPaperRecordSamples;
constexpr const char* kStageNames[] = {"lpf", "hpf", "der", "sqr", "mwi"};

/// Median over kReps of \p body's wall time, in ns.
double median_ns(const std::function<void()>& body) {
  std::vector<double> t;
  for (int i = 0; i < kReps; ++i) {
    const std::int64_t t0 = now_ns();
    body();
    t.push_back(static_cast<double>(now_ns() - t0));
  }
  return median(t);
}

stream::StreamServer::Options one_worker() {
  stream::StreamServer::Options o;
  o.max_sessions = 4;
  o.queue_capacity_chunks = 32;
  o.workers = 1;
  o.shards = 1;
  o.event_queue_capacity = 8192;
  return o;
}

template <typename F>
void for_chunks(std::span<const i32> x, F&& f) {
  for (std::size_t at = 0; at < x.size(); at += kChunk) {
    f(at, x.subspan(at, std::min(kChunk, x.size() - at)));
  }
}

}  // namespace

void run_ladder(const RunOptions& o, ColdConfigPool& pool, Report& layer) {
  ScopedSpan root("ladder", 1);
  ecg::DigitizedRecord rec;
  {
    ScopedSpan s("ecg.dataset_gen");
    const double ns = median_ns([&] {
      for (int i = 0; i < 4; ++i) rec = make_record(o.seed, 300 + i, kSamples);
    });
    layer.metric("ecg.dataset_gen_s", "s", ns / 1e9, kReps, "4 records x 20000 samples");
  }
  const std::vector<i32>& adu = rec.adu;
  const double n = static_cast<double>(adu.size());
  std::map<std::string, double> loan_ns;  // per config: the StreamServer rung, for marginals

  for (const bool approx : {false, true}) {
    const char* tag = approx ? "b9" : "exact";
    const pantompkins::PipelineConfig cfg =
        approx ? b9_config() : pantompkins::PipelineConfig::accurate();
    pantompkins::warm_pipeline_tables(cfg);

    // Kernel stages: each stage over its own input, chunk by chunk.
    std::array<std::vector<i32>, pantompkins::kNumStages + 1> sig;
    sig[0] = adu;
    for (std::size_t s = 0; s < pantompkins::kNumStages; ++s) {
      sig[s + 1] = pantompkins::run_stage(pantompkins::kAllStages[s], cfg.stage[s], sig[s]);
    }
    for (std::size_t s = 0; s < pantompkins::kNumStages; ++s) {
      ScopedSpan span("pantompkins.stage");
      const std::unique_ptr<arith::Kernel> kernel = arith::make_kernel(cfg.stage[s]);
      std::vector<i32> out;
      const double ns = median_ns([&] {
        pantompkins::StageProcessor sp(pantompkins::kAllStages[s], *kernel);
        for_chunks(sig[s], [&](std::size_t, std::span<const i32> c) { sp.process_chunk(c, out); });
      });
      layer.metric(
          std::string("pantompkins.stage.") + kStageNames[s] + "." + tag + ".ns_per_sample", "ns",
          ns / n, kReps, "StageProcessor::process_chunk, 64-sample chunks");
    }
    {
      ScopedSpan span("pantompkins.detector");
      const double ns = median_ns([&] {
        pantompkins::OnlineDetector det(cfg.detector, false);
        for_chunks(adu, [&](std::size_t at, std::span<const i32> c) {
          (void)det.push(std::span<const i32>(sig[5]).subspan(at, c.size()),
                         std::span<const i32>(sig[2]).subspan(at, c.size()), c);
        });
        (void)det.flush();
      });
      layer.metric(std::string("pantompkins.detector.") + tag + ".ns_per_sample", "ns", ns / n,
                   kReps, "OnlineDetector::push, 64-sample chunks");
    }
    {
      ScopedSpan span("pantompkins.batch_run");
      const pantompkins::PanTompkinsPipeline pipe(cfg);
      const double ns = median_ns([&] { (void)pipe.run(adu); });
      layer.metric(std::string("pantompkins.batch_run.") + tag + ".ns_per_sample", "ns", ns / n,
                   kReps, "PanTompkinsPipeline::run, whole record");
    }
    stream::SessionSpec spec;
    spec.config = cfg;
    spec.keep_detection = false;
    {
      ScopedSpan span("stream.session_push");
      const double ns = median_ns([&] {
        stream::Session sess(spec);
        for_chunks(adu, [&](std::size_t, std::span<const i32> c) { (void)sess.push(c); });
        (void)sess.flush();
      });
      layer.metric(std::string("stream.session_push.") + tag + ".ns_per_sample", "ns", ns / n,
                   kReps, "Session::push, 64-sample chunks");
    }
    {
      ScopedSpan span("stream.server_loan");
      stream::StreamServer server(one_worker());
      std::vector<double> waits_us;
      std::vector<stream::Event> evs;
      const double ns = median_ns([&] {
        const stream::SessionId id = server.open(spec);
        for_chunks(adu, [&](std::size_t at, std::span<const i32> c) {
          stream::ChunkLoan loan;
          const std::int64_t t0 = now_ns();
          if (server.acquire_buffer(id, c.size(), loan) != stream::PushResult::Ok) return;
          waits_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
          std::copy(c.begin(), c.end(), loan.data().begin());
          (void)server.commit(loan);
          if ((at / kChunk) % 64 == 63) (void)server.drain_events(id, evs);
        });
        (void)server.close(id);
        (void)server.drain_events(id, evs);
        (void)server.release(id);
        evs.clear();
      });
      loan_ns[tag] = ns / n;
      layer.metric(std::string("stream.server_loan.") + tag + ".ns_per_sample", "ns", ns / n,
                   kReps, "one session: acquire_buffer/commit/drain_events, 1 worker");
      if (approx) {
        const Summary w = summarize(waits_us);
        layer.metric("stream.acquire_wait_us_p50", "us", w.p50, w.n,
                     "B9 loan rung: producer time in acquire_buffer (blocked on backpressure)");
        layer.metric("stream.acquire_wait_us_p99", "us", w.p99, w.n,
                     "as stream.acquire_wait_us_p50");
      }
    }
  }

  // Store rung: write, open + verify, and replay into the B9 loan path.
  {
    ScopedSpan span("store");
    std::filesystem::create_directories(o.work_dir);
    const std::string path = o.work_dir + "/ladder.xbs";
    const double write_ns = median_ns([&] { store::write_record(path, rec); });
    const double verify_ns = median_ns([&] {
      const store::RecordReader r(path);
      (void)r.scrub();
    });
    stream::StreamServer server(one_worker());
    stream::SessionSpec spec;
    spec.config = b9_config();
    spec.keep_detection = false;
    const double replay_ns = median_ns([&] {
      const stream::SessionId id = server.open(spec);
      store::RecordReader reader(path);
      (void)store::replay_record(reader, server, id, kChunk);
      (void)server.close(id);
      (void)server.release(id);
    });
    layer.metric("store.write_ms", "ms", write_ns / 1e6, kReps, "crash-safe write of one record");
    layer.metric("store.open_verify_ms", "ms", verify_ns / 1e6, kReps,
                 "RecordReader open + full page scrub");
    layer.metric("store.replay.b9.ns_per_sample", "ns", replay_ns / n - loan_ns["b9"], kReps,
                 "replay_record (64-sample chunks) minus stream.server_loan.b9");
    std::filesystem::remove(path);
  }

  // Net rung: one closed-loop connection, DRAIN round trips, warm OPENs.
  {
    ScopedSpan span("net");
    net::NetServer::Options opts;
    opts.stream = one_worker();
    net::NetServer server(opts);
    WireConn conn(server.port());
    u64 token = 0xA11CE000ull;
    const double wire_ns = median_ns([&] {
      conn.reset_events(false);
      (void)conn.open(WireConfig{}.open_frame(++token));
      for_chunks(adu, [&](std::size_t, std::span<const i32> c) {
        conn.queue_chunk(c);
        if (conn.out_pending() > (64u << 10)) conn.pump(now_ns());
      });
      (void)conn.close_session();
    });
    layer.metric("net.wire.exact.ns_per_sample", "ns", wire_ns / n - loan_ns["exact"], kReps,
                 "one XBSP connection, OPEN..CLOSE ack, minus stream.server_loan.exact");
    std::vector<double> rtt_us;
    (void)conn.open(WireConfig{}.open_frame(++token));
    for (int i = 0; i < 200; ++i) {
      const std::int64_t t0 = now_ns();
      (void)conn.drain(0);
      rtt_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
    }
    (void)conn.close_session();
    const Summary rtt = summarize(rtt_us);
    layer.metric("net.drain_rtt_us_p50", "us", rtt.p50, rtt.n, "DRAIN -> STATS ack, idle session");
    layer.metric("net.drain_rtt_us_p99", "us", rtt.p99, rtt.n, "as net.drain_rtt_us_p50");
    std::vector<double> open_ms;
    net::OpenFrame b9;
    b9.lsbs = {10, 12, 2, 8, 16};
    for (int i = 0; i < 20; ++i) {
      b9.token = ++token;
      const std::int64_t t0 = now_ns();
      (void)conn.open(b9);
      open_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
      (void)conn.close_session();
    }
    layer.metric("net.open_warm_ms_p50", "ms", median(open_ms), open_ms.size(),
                 "OPEN -> ack for the already-warm B9 config");
  }

  // Cold table builds: never-built configs from the pool.
  {
    ScopedSpan span("arith.warm_tables");
    std::vector<double> ms;
    const double rss0 = rss_now_mb();
    for (std::size_t i = 0; i < kColdBatch; ++i) {
      const pantompkins::PipelineConfig cfg = pool.next().pipeline();
      const std::int64_t t0 = now_ns();
      pantompkins::warm_pipeline_tables(cfg);
      ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
    }
    layer.metric("arith.warm_tables_ms_p50", "ms", median(ms), ms.size(),
                 "warm_pipeline_tables for never-built LPF/HPF configs");
    layer.metric("arith.rss_per_config_mb", "MB", (rss_now_mb() - rss0) / kColdBatch, ms.size(),
                 "resident growth per never-built config");
  }

  // The paper's quality metric: matching detected beats to annotations.
  {
    ScopedSpan span("metrics.peaks");
    const Reference ref = reference_events(b9_config(), adu, adu.size());
    const std::size_t tol = metrics::default_tolerance_samples(rec.fs_hz);
    const double ns = median_ns([&] {
      for (int i = 0; i < 200; ++i) (void)metrics::match_peaks(rec.r_peaks, ref.beats, tol);
    });
    layer.metric("metrics.peaks.ns_per_sample", "ns", ns / 200.0 / n, kReps,
                 "match_peaks over one record's beats, per record sample");
  }

  run_explore_rung(o.seed, layer);
}

}  // namespace perfbench

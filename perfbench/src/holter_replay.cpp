// holter_replay: re-analysis of archived recordings. Set-up generates the
// records, writes them as XBS1 files and warms all 14 Fig. 12 configs. The
// timed phases replay records from kProducers threads through
// store::replay_record into a StreamServer, one session per record, cycling
// through the configs (closed loop):
//   steady  all producers replay;
//   churn   three producers replay, the fourth opens never-built
//           approximate configs (table warm + open) and replays one record
//           on each.
#include <atomic>
#include <barrier>
#include <filesystem>
#include <map>
#include <mutex>
#include <thread>

#include "stats.hpp"
#include "trace.hpp"
#include "workloads.hpp"
#include "xbs/ecg/dataset.hpp"
#include "xbs/metrics/peaks.hpp"
#include "xbs/store/replay.hpp"
#include "xbs/store/store.hpp"
#include "xbs/stream/server.hpp"

namespace perfbench {

using namespace xbs;

namespace {

constexpr std::size_t kProducers = 4;
constexpr int kRecords = 8;
constexpr std::size_t kRecordSamples = ecg::kPaperRecordSamples;
/// Throughput slice: the reported rate is the median slice.
constexpr std::int64_t kRateSlice = 250'000'000;

/// One replayed record: what was asked, what came back, when.
struct Replay {
  int record = 0;
  int config = 0;  ///< Fig. 12 index, or -1 - i for the i-th cold config
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  u64 samples = 0;
  EventDigest digest;
  std::string error;
};

/// Replay one record file into a fresh session and collect its events.
Replay replay_one(stream::StreamServer& server, const std::string& path,
                  const pantompkins::PipelineConfig& cfg, int record, int config) {
  Replay r;
  r.record = record;
  r.config = config;
  r.start_ns = now_ns();
  ScopedSpan span("holter.record", static_cast<u64>(record) + 1);
  try {
    stream::SessionSpec spec;
    spec.config = cfg;
    spec.keep_detection = false;
    stream::SessionId id;
    {
      ScopedSpan s("stream.open");
      id = server.open(spec);
    }
    store::ReplayResult rr;
    {
      ScopedSpan s("store.replay_record");
      store::RecordReader reader(path);
      rr = store::replay_record(reader, server, id);
    }
    std::vector<stream::Event> evs;
    {
      ScopedSpan s("stream.close_drain");
      (void)server.close(id);
      (void)server.drain_events(id, evs);
    }
    const stream::StreamServer::SessionStats st = server.session_stats(id);
    (void)server.release(id);
    for (const stream::Event& e : evs) r.digest.add(e);
    r.samples = rr.samples;
    if (rr.status != stream::PushResult::Ok || rr.samples != kRecordSamples) {
      r.error = "replay refused";
    } else if (st.dropped_chunks + st.rejected_chunks + st.events_dropped != 0) {
      r.error = "replay dropped chunks or events";
    }
  } catch (const std::exception& e) {
    r.error = e.what();
  }
  r.end_ns = now_ns();
  return r;
}

struct ColdOpen {
  WireConfig cfg;
  double open_ms = 0.0;
  u64 tables_built = 0;
  Replay replay;
};

}  // namespace

void run_holter_replay(const RunOptions& o, ColdConfigPool& pool, Report& e2e, Report& layer) {
  namespace fs = std::filesystem;
  const std::vector<pantompkins::PipelineConfig> configs = fig12_configs();
  std::vector<ecg::DigitizedRecord> records;
  std::vector<std::string> paths;
  const double setup_s = timed_setup(o.setup_reps, [&](int rep) {
    records.clear();
    paths.clear();
    const std::string dir = o.work_dir + "/holter_rep" + std::to_string(rep);
    fs::create_directories(dir);
    for (int i = 0; i < kRecords; ++i) {
      records.push_back(make_record(o.seed, 100 + i, kRecordSamples));
      paths.push_back(dir + "/r" + std::to_string(i) + ".xbs");
      store::write_record(paths.back(), records.back());
    }
    for (const pantompkins::PipelineConfig& c : configs) pantompkins::warm_pipeline_tables(c);
  });
  for (int rep = 0; rep + 1 < o.setup_reps; ++rep) {
    fs::remove_all(o.work_dir + "/holter_rep" + std::to_string(rep));
  }

  stream::StreamServer::Options opts;
  opts.max_sessions = 16;
  opts.queue_capacity_chunks = 32;
  opts.workers = kProducers;
  opts.shards = kProducers;
  opts.event_queue_capacity = 8192;
  stream::StreamServer server(opts);

  const double durations[2] = {0.65 * o.seconds, 0.35 * o.seconds};
  std::array<std::vector<Replay>, kProducers> steady;
  std::array<std::vector<Replay>, kProducers> churn;
  std::array<std::vector<double>, kProducers> gaps_ns;  ///< closed loop: done -> next issued
  std::vector<ColdOpen> colds;
  std::vector<std::string> errors;
  std::mutex err_mu;
  std::barrier<> bar(kProducers + 1);
  std::atomic<std::int64_t> t0{0};
  std::atomic<std::int64_t> t_end{0};
  std::array<u64, 2> built{};
  std::array<std::int64_t, 2> win0{};

  const auto producer = [&](std::size_t p) {
    std::size_t n = 0;
    for (int ph = 0; ph < 2; ++ph) {
      bar.arrive_and_wait();
      const std::int64_t start = t0.load();
      const std::int64_t stop = t_end.load();
      ScopedSpan phase_span(ph == 0 ? "holter.steady" : "holter.churn", p + 1);
      try {
        if (ph == 1 && p == kProducers - 1) {
          const double slice = static_cast<double>(stop - start) / kColdBatch;
          while (colds.size() < kColdBatch) {
            const std::int64_t due =
                start + static_cast<std::int64_t>(slice * static_cast<double>(colds.size()));
            while (now_ns() < due) std::this_thread::sleep_for(std::chrono::microseconds(200));
            if (now_ns() >= stop) break;
            ColdOpen c;
            c.cfg = pool.next();
            const pantompkins::PipelineConfig cfg = c.cfg.pipeline();
            const u64 before = tables_total();
            {
              ScopedSpan s("arith.warm_tables");
              const std::int64_t t = now_ns();
              pantompkins::warm_pipeline_tables(cfg);
              c.open_ms = static_cast<double>(now_ns() - t) / 1e6;
            }
            c.tables_built = tables_total() - before;
            c.replay = replay_one(server, paths[0], cfg, 0, -1 - static_cast<int>(colds.size()));
            colds.push_back(std::move(c));
          }
        } else {
          std::int64_t last = start;
          while (now_ns() < stop) {
            const int rec = static_cast<int>((p + kProducers * n) % kRecords);
            const int cfg = static_cast<int>((p + n) % configs.size());
            ++n;
            Replay r = replay_one(server, paths[static_cast<std::size_t>(rec)],
                                  configs[static_cast<std::size_t>(cfg)], rec, cfg);
            gaps_ns[p].push_back(static_cast<double>(r.start_ns - last));
            last = r.end_ns;
            (ph == 0 ? steady : churn)[p].push_back(std::move(r));
          }
        }
      } catch (const std::exception& e) {
        const std::lock_guard<std::mutex> lock(err_mu);
        errors.push_back(e.what());
      }
      bar.arrive_and_wait();
    }
  };
  {
    std::vector<std::thread> threads;
    for (std::size_t p = 0; p < kProducers; ++p) threads.emplace_back(producer, p);
    for (int ph = 0; ph < 2; ++ph) {
      const std::int64_t start = now_ns() + 2'000'000;
      t0 = start;
      t_end = start + static_cast<std::int64_t>(durations[ph] * 1e9);
      win0[static_cast<std::size_t>(ph)] = start;
      const u64 tab0 = tables_total();
      bar.arrive_and_wait();
      bar.arrive_and_wait();
      built[static_cast<std::size_t>(ph)] = tables_total() - tab0;
    }
    for (std::thread& t : threads) t.join();
  }
  for (const std::string& e : errors) e2e.fail("producer: " + e);

  // --- correctness: every replay against its in-process reference ---
  std::map<std::pair<int, int>, Reference> refs;
  for (int r = 0; r < kRecords; ++r) {
    for (std::size_t c = 0; c < configs.size(); ++c) {
      refs[{r, static_cast<int>(c)}] =
          reference_events(configs[c], records[static_cast<std::size_t>(r)].adu, kRecordSamples,
                           store::kSamplesPerPage);
    }
  }
  const auto check = [&](const Replay& r, const Reference& ref) {
    e2e.attempt(1 + ref.digest.count);
    if (!r.error.empty()) e2e.fail("replay: " + r.error);
    else if (!(r.digest == ref.digest)) e2e.fail("replayed events differ from the reference");
  };
  std::vector<double> steady_ms;
  std::vector<std::int64_t> steady_done;
  std::vector<double> steady_samples;
  std::vector<double> churn_ms;
  for (std::size_t p = 0; p < kProducers; ++p) {
    for (const Replay& r : steady[p]) {
      check(r, refs.at({r.record, r.config}));
      steady_ms.push_back(static_cast<double>(r.end_ns - r.start_ns) / 1e6);
      steady_done.push_back(r.end_ns);
      steady_samples.push_back(static_cast<double>(r.samples));
    }
    for (const Replay& r : churn[p]) {
      check(r, refs.at({r.record, r.config}));
      churn_ms.push_back(static_cast<double>(r.end_ns - r.start_ns) / 1e6);
    }
  }
  std::vector<double> cold_ms;
  for (const ColdOpen& c : colds) {
    check(c.replay, reference_events(c.cfg.pipeline(), records[0].adu, kRecordSamples,
                                     store::kSamplesPerPage));
    if (c.tables_built == 0) e2e.fail("cold config opened without a table build");
    cold_ms.push_back(c.open_ms);
  }
  if (built[0] != 0) e2e.fail("lookup tables built during the steady phase", built[0]);

  // Throughput: samples of the records completed in each slice of the
  // steady window, median slice.
  std::vector<double> rates;
  {
    const auto slices = static_cast<std::size_t>(durations[0] * 1e9 / kRateSlice);
    std::vector<double> per_slice(slices, 0.0);
    for (std::size_t i = 0; i < steady_done.size(); ++i) {
      const std::int64_t at = steady_done[i] - win0[0];
      const auto s = static_cast<std::size_t>(at / kRateSlice);
      if (at >= 0 && s < slices) per_slice[s] += steady_samples[i];
    }
    for (const double v : per_slice) rates.push_back(v * 1e9 / static_cast<double>(kRateSlice));
  }

  // The paper's quality metric per served config: Se / PPV of the detected
  // beats against the generator's R annotations.
  for (std::size_t c = 0; c < configs.size(); ++c) {
    int tp = 0;
    int fp = 0;
    int fn = 0;
    for (int r = 0; r < kRecords; ++r) {
      const ecg::DigitizedRecord& rec = records[static_cast<std::size_t>(r)];
      const metrics::PeakMatchResult m = metrics::match_peaks(
          rec.r_peaks, refs.at({r, static_cast<int>(c)}).beats,
          metrics::default_tolerance_samples(rec.fs_hz));
      tp += m.true_positives;
      fp += m.false_positives;
      fn += m.false_negatives;
    }
    const std::string name = "quality.B" + std::to_string(c + 1);
    e2e.fact(name + ".se_pct", tp + fn > 0 ? 100.0 * tp / (tp + fn) : 0.0);
    e2e.fact(name + ".ppv_pct", tp + fp > 0 ? 100.0 * tp / (tp + fp) : 0.0);
  }

  const Summary st = summarize(steady_ms);
  const Summary ch = summarize(churn_ms);
  const Summary cold = summarize(cold_ms);
  e2e.metric("setup_s", "s", setup_s, static_cast<std::size_t>(o.setup_reps),
             "generate + write XBS1 records + warm the 14 Fig. 12 configs, median of repetitions");
  e2e.metric("samples_per_s", "1/s", median(rates), rates.size(),
             "steady: replayed samples per second, 4 closed-loop producers, median 250 ms slice");
  e2e.metric("latency_p50_ms", "ms", st.p50, st.n,
             "steady: record turnaround, open -> replay_record -> close -> drain");
  e2e.metric("cold_open_ms_p50", "ms", cold.p50, cold.n,
             "churn: warm_pipeline_tables for a never-built config (in-process admission)");
  e2e.metric("rss_peak_mb", "MB", rss_peak_mb(), 1, "peak resident set of the process");

  std::vector<double> gaps;
  for (const auto& g : gaps_ns) gaps.insert(gaps.end(), g.begin(), g.end());
  const Summary late = summarize(gaps);
  const stream::StreamServer::ServerStats ss = server.stats();
  layer.metric("stream.peak_queued_chunks", "count", static_cast<double>(ss.peak_queued_chunks), 0);
  layer.metric("stream.rejected_chunks", "count", static_cast<double>(ss.rejected_chunks), 0);
  layer.metric("stream.dropped_chunks", "count", static_cast<double>(ss.dropped_chunks), 0);
  layer.metric("stream.events_dropped", "count", static_cast<double>(ss.events_dropped), 0);
  for (const char* n : {"net.bytes_in", "net.bytes_out", "net.events_sent", "net.events_shed",
                        "net.protocol_errors"}) {
    layer.metric(n, std::string(n).rfind("net.bytes", 0) == 0 ? "bytes" : "count", 0.0, 0,
                 "no network layer in this workload");
  }
  layer.metric("arith.tables_built", "count", static_cast<double>(built[0]), 0,
               "table builds inside the steady window");
  layer.metric("loadgen.churn_latency_p99_ms", "ms", ch.p99, ch.n,
               "churn: record turnaround of the three steady producers, p99 of the phase");
  layer.metric("loadgen.latency_p99_ms", "ms", st.p99, st.n, "steady: record turnaround, p99");
  layer.metric("loadgen.late_p99_ms", "ms", late.p99 / 1e6, late.n,
               "closed loop: previous record done -> next issued");
  layer.metric("loadgen.late_max_ms", "ms", late.max / 1e6, late.n);

  e2e.fact("latency_highest_supported_pct", st.tail_p);
  e2e.fact("latency_at_highest_supported_ms", st.tail);
  e2e.fact("server_workers", static_cast<double>(opts.workers));
  e2e.fact("server_shards", static_cast<double>(opts.shards));
  e2e.fact("queue_capacity_chunks", static_cast<double>(opts.queue_capacity_chunks));
  e2e.fact("event_queue_capacity", static_cast<double>(opts.event_queue_capacity));
  e2e.fact("producers", static_cast<double>(kProducers));
  e2e.fact("cold_opens", static_cast<double>(cold.n));
  fs::remove_all(o.work_dir + "/holter_rep" + std::to_string(o.setup_reps - 1));
}

}  // namespace perfbench

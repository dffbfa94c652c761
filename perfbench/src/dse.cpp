// dse: the XBioSiP methodology itself. One DSE job is the exhaustive grid
// over the pre-processing stages (LPF x HPF LSBs, PSNR quality) plus a batch
// of Algorithm 1 jobs at several accuracy constraints, run through
// exhaustive_explore_parallel and design_generation_batch on NSRDB-like
// records of the paper's 20k-sample unit. Jobs run back to back:
//   steady  jobs on kThreads threads;
//   churn   jobs on kThreads - 1 threads while the last lane evaluates
//           designs of never-built configs.
#include <atomic>
#include <mutex>
#include <thread>
#include <utility>

#include "stats.hpp"
#include "trace.hpp"
#include "workloads.hpp"
#include "xbs/ecg/dataset.hpp"
#include "xbs/explore/parallel.hpp"

namespace perfbench {

using namespace xbs;
using pantompkins::Stage;

namespace {

constexpr unsigned kThreads = 4;
constexpr int kRecords = 2;
constexpr std::size_t kRecordSamples = ecg::kPaperRecordSamples;
constexpr double kPsnrConstraint = 30.0;
constexpr double kAccuracyConstraints[] = {99.5, 99.0, 98.0, 97.0};
constexpr std::size_t kGridDesigns = 9 * 9;

/// Evaluation latencies, from every evaluator of every shard.
struct EvalLog {
  std::mutex mu;
  std::vector<double> ms;
  void add(double v) {
    const std::lock_guard<std::mutex> lock(mu);
    ms.push_back(v);
  }
  std::vector<double> take() {
    const std::lock_guard<std::mutex> lock(mu);
    return std::exchange(ms, {});
  }
};

/// The timing wrapper the factories hand out: times every evaluate() of
/// the evaluator it wraps and forwards everything else.
class TimedEvaluator final : public explore::QualityEvaluator {
 public:
  TimedEvaluator(std::unique_ptr<explore::QualityEvaluator> inner, EvalLog& log)
      : inner_(std::move(inner)), log_(log) {}
  [[nodiscard]] std::string_view metric_name() const noexcept override {
    return inner_->metric_name();
  }
  [[nodiscard]] const explore::StageCacheStats* cache_stats() const noexcept override {
    return inner_->cache_stats();
  }

 protected:
  double evaluate_impl(const explore::Design& d) override {
    ScopedSpan span("explore.evaluate");
    const std::int64_t t0 = now_ns();
    const double q = inner_->evaluate(d);
    log_.add(static_cast<double>(now_ns() - t0) / 1e6);
    return q;
  }

 private:
  std::unique_ptr<explore::QualityEvaluator> inner_;
  EvalLog& log_;
};

struct Problem {
  explore::SharedRecords records;
  explore::SharedPsnrReference psnr_ref;
  std::unique_ptr<explore::StageEnergyModel> energy;
  std::vector<explore::StageSpace> grid_spaces;
  std::vector<explore::Algorithm1Job> jobs;
};

struct JobResult {
  explore::GridResult grid;
  std::vector<explore::Algorithm1Result> alg1;
  double grid_s = 0.0;
  double alg1_s = 0.0;
  std::vector<double> eval_ms;
};

JobResult run_job(const Problem& pb, unsigned threads, EvalLog& log) {
  ScopedSpan span("dse.job");
  const explore::SharedRecords recs = pb.records;
  const explore::SharedPsnrReference ref = pb.psnr_ref;
  const explore::EvaluatorFactory psnr = [recs, ref, &log] {
    return std::make_unique<TimedEvaluator>(
        std::make_unique<explore::PreprocPsnrEvaluator>(recs, ref), log);
  };
  const explore::EvaluatorFactory accuracy = [recs, &log] {
    return std::make_unique<TimedEvaluator>(std::make_unique<explore::AccuracyEvaluator>(recs),
                                            log);
  };
  JobResult r;
  explore::ParallelExploreOptions opts;
  opts.threads = threads;
  std::int64_t t = now_ns();
  {
    ScopedSpan s("explore.grid");
    r.grid = explore::exhaustive_explore_parallel(pb.grid_spaces, explore::ModuleLists{}, psnr,
                                                  *pb.energy, kPsnrConstraint, opts);
  }
  r.grid_s = static_cast<double>(now_ns() - t) / 1e9;
  t = now_ns();
  {
    ScopedSpan s("explore.alg1_batch");
    r.alg1 = explore::design_generation_batch(pb.jobs, accuracy, *pb.energy, threads);
  }
  r.alg1_s = static_cast<double>(now_ns() - t) / 1e9;
  return r;
}

bool same_result(const JobResult& a, const JobResult& b) {
  if (a.grid.evaluations != b.grid.evaluations || a.grid.points.size() != b.grid.points.size() ||
      !(a.grid.cache == b.grid.cache) || a.alg1.size() != b.alg1.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.grid.points.size(); ++i) {
    if (!(a.grid.points[i].design == b.grid.points[i].design) ||
        a.grid.points[i].quality != b.grid.points[i].quality) {
      return false;
    }
  }
  for (std::size_t j = 0; j < a.alg1.size(); ++j) {
    if (!(a.alg1[j].best == b.alg1[j].best) || a.alg1[j].best_quality != b.alg1[j].best_quality ||
        a.alg1[j].evaluations != b.alg1[j].evaluations) {
      return false;
    }
  }
  return true;
}

u64 evaluations(const JobResult& r) {
  u64 n = static_cast<u64>(r.grid.evaluations);
  for (const explore::Algorithm1Result& a : r.alg1) n += static_cast<u64>(a.evaluations);
  return n;
}

}  // namespace

/// The DSE problem of this workload, built from the seed's records.
static Problem make_problem(u64 seed, int n_records = kRecords) {
  Problem pb;
  std::vector<ecg::DigitizedRecord> recs;
  for (int i = 0; i < n_records; ++i) recs.push_back(make_record(seed, 200 + i, kRecordSamples));
  pb.records = explore::share_records(std::move(recs));
  pb.psnr_ref = explore::make_psnr_reference(*pb.records);
  pb.energy = std::make_unique<explore::StageEnergyModel>();
  const auto space_of = [&](Stage s) {
    const std::vector<int> lsbs = explore::default_lsb_list(s);
    return explore::StageSpace{
        s, lsbs,
        pb.energy->stage_energy_reduction(s, explore::StageDesign{s, lsbs.back()}.arith_config())};
  };
  pb.grid_spaces = {space_of(Stage::Lpf), space_of(Stage::Hpf)};
  for (const double q : kAccuracyConstraints) {
    pb.jobs.push_back(explore::Algorithm1Job{
        {space_of(Stage::Lpf), space_of(Stage::Hpf), space_of(Stage::Mwi)},
        explore::ModuleLists{},
        q});
  }
  // Build every table the exploration walks, so the timed jobs never do.
  for (const Stage s : {Stage::Lpf, Stage::Hpf, Stage::Mwi}) {
    for (const int k : explore::default_lsb_list(s)) {
      pantompkins::warm_stage_tables(s, explore::StageDesign{s, k}.arith_config());
    }
  }
  return pb;
}

void run_explore_rung(u64 seed, Report& layer) {
  const Problem pb = make_problem(seed, 1);
  EvalLog log;
  (void)run_job(pb, 1, log);  // warm-up
  (void)log.take();
  ScopedSpan span("ladder.explore");
  const JobResult r = run_job(pb, 1, log);
  const Summary ev = summarize(log.take());
  explore::StageCacheStats cache = r.grid.cache;
  for (const explore::Algorithm1Result& a : r.alg1) cache = cache + a.cache;
  layer.metric("explore.evaluate_ms_p50", "ms", ev.p50, ev.n, "single thread, one record");
  layer.metric("explore.evaluate_ms_p99", "ms", ev.p99, ev.n, "single thread, one record");
  layer.metric("explore.stage_cache.hit_ratio", "ratio", cache.stage_hit_rate(), 1,
               "stage outputs served from cache over stage lookups");
  layer.metric("explore.designs_evaluated", "count", static_cast<double>(evaluations(r)), 0,
               "grid + Algorithm 1 batch");
  layer.metric("explore.grid_s", "s", r.grid_s, 1, "exhaustive LPF x HPF grid, 1 thread");
  layer.metric("explore.alg1_batch_s", "s", r.alg1_s, 1, "Algorithm 1 batch, 1 thread");
}

void run_dse(const RunOptions& o, ColdConfigPool& pool, Report& e2e, Report& layer) {
  Problem pb;
  const double setup_s = timed_setup(o.setup_reps, [&](int) { pb = make_problem(o.seed); });

  EvalLog log;
  const JobResult first = run_job(pb, kThreads, log);  // warm-up: allocator, stage caches
  (void)log.take();

  const double durations[2] = {0.6 * o.seconds, 0.4 * o.seconds};
  std::vector<JobResult> steady;
  std::vector<JobResult> churn;
  std::vector<double> gaps_ns;
  u64 built_steady = 0;
  struct ColdEval {
    WireConfig cfg;
    double ms = 0.0;
    u64 tables_built = 0;
  };
  std::vector<ColdEval> colds;
  std::string cold_error;  ///< what stopped the cold lane, if anything did
  for (int ph = 0; ph < 2; ++ph) {
    const std::int64_t t0 = now_ns();
    const std::int64_t t_end = t0 + static_cast<std::int64_t>(durations[ph] * 1e9);
    const u64 tab0 = tables_total();
    std::atomic<bool> stop{false};
    // The churn lane: one never-built config per slice of the phase.
    const auto open_cold_configs = [&] {
      const double slice = static_cast<double>(t_end - t0) / kColdBatch;
      while (colds.size() < kColdBatch && !stop.load()) {
        const std::int64_t due =
            t0 + static_cast<std::int64_t>(slice * static_cast<double>(colds.size()));
        while (now_ns() < due && !stop.load()) {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
        if (now_ns() >= t_end || stop.load()) break;
        ColdEval c;
        c.cfg = pool.next();
        explore::Design d;
        for (const Stage s : {Stage::Lpf, Stage::Hpf}) {
          explore::StageDesign sd;
          sd.stage = s;
          sd.lsbs = c.cfg.lsbs[static_cast<std::size_t>(s)];
          sd.add_kind = c.cfg.add;
          sd.mult_kind = c.cfg.mult;
          sd.policy = c.cfg.policy;
          d.push_back(sd);
        }
        const u64 before = tables_total();
        ScopedSpan span("arith.warm_tables");
        const std::int64_t t = now_ns();
        pantompkins::warm_pipeline_tables(c.cfg.pipeline());
        c.ms = static_cast<double>(now_ns() - t) / 1e6;
        c.tables_built = tables_total() - before;
        explore::AccuracyEvaluator ev(pb.records);
        (void)ev.evaluate(d);
        colds.push_back(c);
      }
    };
    std::thread cold_lane;
    if (ph == 1) {
      cold_lane = std::thread([&] {
        try {
          open_cold_configs();
        } catch (const std::exception& e) {
          cold_error = e.what();
        }
      });
    }
    std::int64_t last = t0;
    ScopedSpan phase_span(ph == 0 ? "dse.steady" : "dse.churn", 1);
    try {
      while (now_ns() < t_end) {
        const std::int64_t start = now_ns();
        gaps_ns.push_back(static_cast<double>(start - last));
        JobResult r = run_job(pb, ph == 0 ? kThreads : kThreads - 1, log);
        r.eval_ms = log.take();
        last = now_ns();
        (ph == 0 ? steady : churn).push_back(std::move(r));
      }
    } catch (...) {
      stop = true;
      if (cold_lane.joinable()) cold_lane.join();  // never leave a joinable thread behind
      throw;
    }
    stop = true;
    if (cold_lane.joinable()) cold_lane.join();
    if (ph == 0) built_steady = tables_total() - tab0;
  }

  // --- correctness ---
  if (!cold_error.empty()) e2e.fail("cold lane: " + cold_error);
  e2e.attempt(1);
  if (first.grid.evaluations != static_cast<int>(kGridDesigns) ||
      first.grid.points.size() != kGridDesigns) {
    e2e.fail("grid evaluated " + std::to_string(first.grid.evaluations) + " designs, expected " +
             std::to_string(kGridDesigns));
  }
  for (std::size_t j = 0; j < first.alg1.size(); ++j) {
    const explore::Algorithm1Result& a = first.alg1[j];
    e2e.attempt(1);
    explore::AccuracyEvaluator fresh(pb.records);
    const double q = fresh.evaluate(a.best);
    if (q != a.best_quality) {
      e2e.fail("Algorithm 1 result does not re-validate to its reported quality");
    } else if (a.feasible && q < pb.jobs[j].quality_constraint) {
      e2e.fail("Algorithm 1 result violates its constraint");
    }
  }
  for (const std::vector<JobResult>* set : {&steady, &churn}) {
    for (const JobResult& r : *set) {
      e2e.attempt(evaluations(r));
      if (!same_result(first, r)) e2e.fail("a DSE job differs from the first job's results");
    }
  }
  for (const ColdEval& c : colds) {
    e2e.attempt(1);
    if (c.tables_built == 0) e2e.fail("cold design evaluated without a table build");
  }
  if (built_steady != 0) e2e.fail("lookup tables built during the steady phase", built_steady);

  std::vector<double> rates;
  std::vector<double> eval_ms;
  std::vector<double> walls;
  const double design_samples = static_cast<double>(evaluations(first)) * kRecords *
                                static_cast<double>(kRecordSamples);
  for (const JobResult& r : steady) {
    rates.push_back(design_samples / (r.grid_s + r.alg1_s));
    walls.push_back(r.grid_s + r.alg1_s);
    eval_ms.insert(eval_ms.end(), r.eval_ms.begin(), r.eval_ms.end());
  }
  std::vector<double> churn_ms;
  for (const JobResult& r : churn) {
    churn_ms.insert(churn_ms.end(), r.eval_ms.begin(), r.eval_ms.end());
  }
  std::vector<double> cold_ms;
  for (const ColdEval& c : colds) cold_ms.push_back(c.ms);
  const Summary ev = summarize(eval_ms);
  const Summary ch = summarize(churn_ms);
  const Summary cold = summarize(cold_ms);
  e2e.metric("setup_s", "s", setup_s, static_cast<std::size_t>(o.setup_reps),
             "records + PSNR reference + energy model + table warm-up, median of repetitions");
  e2e.metric("samples_per_s", "1/s", median(rates), rates.size(),
             "steady: design-samples evaluated per second (evaluations x record samples / "
             "job wall), median job");
  e2e.metric("latency_p50_ms", "ms", ev.p50, ev.n, "steady: one design evaluation");
  e2e.metric("cold_open_ms_p50", "ms", cold.p50, cold.n,
             "churn: warm_pipeline_tables for a never-built config, before its first evaluation");
  e2e.metric("rss_peak_mb", "MB", rss_peak_mb(), 1, "peak resident set of the process");

  const Summary late = summarize(gaps_ns);
  for (const char* n : {"stream.peak_queued_chunks", "stream.rejected_chunks",
                        "stream.dropped_chunks", "stream.events_dropped", "net.bytes_in",
                        "net.bytes_out", "net.events_sent", "net.events_shed",
                        "net.protocol_errors"}) {
    layer.metric(n, std::string(n).rfind("net.bytes", 0) == 0 ? "bytes" : "count", 0.0, 0,
                 "no serving layer in this workload");
  }
  layer.metric("arith.tables_built", "count", static_cast<double>(built_steady), 0,
               "table builds inside the steady window");
  layer.metric("loadgen.churn_latency_p99_ms", "ms", ch.p99, ch.n,
               "churn: design evaluation on 3 threads while a lane opens never-built configs, "
               "p99 of the phase");
  layer.metric("loadgen.latency_p99_ms", "ms", ev.p99, ev.n, "steady: one evaluation, p99");
  layer.metric("loadgen.late_p99_ms", "ms", late.p99 / 1e6, late.n,
               "closed loop: previous job done -> next issued");
  layer.metric("loadgen.late_max_ms", "ms", late.max / 1e6, late.n);

  e2e.fact("latency_highest_supported_pct", ev.tail_p);
  e2e.fact("latency_at_highest_supported_ms", ev.tail);
  e2e.fact("dse_wall_s_p50", median(walls));
  e2e.fact("dse_jobs", static_cast<double>(walls.size()));
  e2e.fact("dse_threads", static_cast<double>(kThreads));
  e2e.fact("dse_records", static_cast<double>(kRecords));
  e2e.fact("designs_per_job", static_cast<double>(evaluations(first)));
  e2e.fact("cold_opens", static_cast<double>(cold.n));
}

}  // namespace perfbench

/// \file workloads.hpp
/// \brief The three workloads and the traced layer ladder.
#pragma once

#include <string>

#include "common.hpp"

namespace perfbench {

struct RunOptions {
  u64 seed = 1;
  double seconds = 10.0;   ///< measured time of one workload pass
  int setup_reps = 5;      ///< set-up repetitions behind setup_s
  std::string work_dir;    ///< scratch directory for record files
};

/// Each workload pass writes its end-to-end metrics to \p e2e and the
/// per-layer counters only a workload can produce to \p layer; the
/// correctness ledger goes to \p e2e.
void run_wire_serve(const RunOptions& o, ColdConfigPool& pool, Report& e2e, Report& layer);
void run_holter_replay(const RunOptions& o, ColdConfigPool& pool, Report& e2e, Report& layer);
void run_dse(const RunOptions& o, ColdConfigPool& pool, Report& e2e, Report& layer);

/// The single-thread layer ladder over one generated record, exact and B9:
/// kernel stages -> detector -> batch pipeline -> Session::push ->
/// StreamServer loan path -> NetServer loopback / replay_record, plus the
/// table builds, the store, the explorer and the peak metric.
void run_ladder(const RunOptions& o, ColdConfigPool& pool, Report& layer);

/// The explore rung of the ladder: one single-thread DSE job of the dse
/// workload's shape over one record (defined beside the dse workload).
void run_explore_rung(u64 seed, Report& layer);

/// The end-to-end metrics every workload reports (untraced run).
inline constexpr const char* kE2eNames[] = {"setup_s", "samples_per_s", "latency_p50_ms",
                                            "cold_open_ms_p50", "rss_peak_mb"};

/// The per-layer metrics every traced run reports.
inline constexpr const char* kLayerNames[] = {
    "pantompkins.stage.lpf.exact.ns_per_sample", "pantompkins.stage.lpf.b9.ns_per_sample",
    "pantompkins.stage.hpf.exact.ns_per_sample", "pantompkins.stage.hpf.b9.ns_per_sample",
    "pantompkins.stage.der.exact.ns_per_sample", "pantompkins.stage.der.b9.ns_per_sample",
    "pantompkins.stage.sqr.exact.ns_per_sample", "pantompkins.stage.sqr.b9.ns_per_sample",
    "pantompkins.stage.mwi.exact.ns_per_sample", "pantompkins.stage.mwi.b9.ns_per_sample",
    "pantompkins.detector.exact.ns_per_sample",  "pantompkins.detector.b9.ns_per_sample",
    "pantompkins.batch_run.exact.ns_per_sample", "pantompkins.batch_run.b9.ns_per_sample",
    "stream.session_push.exact.ns_per_sample",   "stream.session_push.b9.ns_per_sample",
    "stream.server_loan.exact.ns_per_sample",    "stream.server_loan.b9.ns_per_sample",
    "stream.acquire_wait_us_p50",                "stream.acquire_wait_us_p99",
    "stream.peak_queued_chunks",                 "stream.rejected_chunks",
    "stream.dropped_chunks",                     "stream.events_dropped",
    "net.wire.exact.ns_per_sample",              "net.drain_rtt_us_p50",
    "net.drain_rtt_us_p99",                      "net.open_warm_ms_p50",
    "net.bytes_in",                              "net.bytes_out",
    "net.events_sent",                           "net.events_shed",
    "net.protocol_errors",                       "arith.warm_tables_ms_p50",
    "arith.tables_built",                        "arith.rss_per_config_mb",
    "store.replay.b9.ns_per_sample",             "store.open_verify_ms",
    "store.write_ms",                            "explore.evaluate_ms_p50",
    "explore.evaluate_ms_p99",                   "explore.stage_cache.hit_ratio",
    "explore.designs_evaluated",                 "explore.grid_s",
    "explore.alg1_batch_s",                      "metrics.peaks.ns_per_sample",
    "ecg.dataset_gen_s",                         "loadgen.latency_p99_ms",
    "loadgen.churn_latency_p99_ms",              "loadgen.late_p99_ms",
    "loadgen.late_max_ms",                       "trace.overhead_pct"};

}  // namespace perfbench

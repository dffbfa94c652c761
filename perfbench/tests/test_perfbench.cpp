// Tests of the benchmark's own machinery: the percentile rule, span self
// time, open-loop lateness, the correctness digest and the cold-config
// pool, plus a smoke-sized run of every workload and of the ladder.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <set>
#include <tuple>

#include "common.hpp"
#include "loadgen.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

TEST(Percentile, InterpolatesBetweenClosestRanks) {
  std::vector<double> v;
  for (int i = 1; i <= 101; ++i) v.push_back(i);
  EXPECT_DOUBLE_EQ(percentile(v, 50.0), 51.0);
  EXPECT_DOUBLE_EQ(percentile(v, 99.0), 100.0);
  EXPECT_DOUBLE_EQ(percentile({1.0, 2.0}, 50.0), 1.5);
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_TRUE(std::isnan(median({})));
}

TEST(Percentile, HighestSupportedHasTenSamplesBeyond) {
  EXPECT_EQ(samples_beyond(1000, 99.0), 10u);
  EXPECT_EQ(samples_beyond(999, 99.0), 9u);
  EXPECT_DOUBLE_EQ(highest_supported_percentile(99), 50.0);
  EXPECT_DOUBLE_EQ(highest_supported_percentile(100), 90.0);
  EXPECT_DOUBLE_EQ(highest_supported_percentile(999), 90.0);
  EXPECT_DOUBLE_EQ(highest_supported_percentile(1000), 99.0);
  EXPECT_DOUBLE_EQ(highest_supported_percentile(9999), 99.0);
  EXPECT_DOUBLE_EQ(highest_supported_percentile(10000), 99.9);
  EXPECT_DOUBLE_EQ(highest_supported_percentile(100000), 99.99);
  const Summary s = summarize(std::vector<double>(1000, 2.0));
  EXPECT_EQ(s.n, 1000u);
  EXPECT_DOUBLE_EQ(s.tail_p, 99.0);
  EXPECT_DOUBLE_EQ(s.tail, 2.0);
}

TEST(Percentile, WindowedMedianIgnoresOneBadWindow) {
  std::vector<std::int64_t> at;
  std::vector<double> v;
  for (int w = 0; w < 5; ++w) {
    for (int i = 0; i < 200; ++i) {
      at.push_back(w * 1000 + i);
      v.push_back(w == 2 ? 100.0 : 1.0);  // one stalled window
    }
  }
  EXPECT_DOUBLE_EQ(windowed_percentile(at, v, 0, 1000, 99.0), 1.0);
  // Windows below the sample floor do not count.
  EXPECT_TRUE(std::isnan(windowed_percentile(at, v, 0, 1000, 99.0, 201)));
}

TEST(Trace, SelfTimeSubtractsTheUnionOfChildren) {
  std::vector<SpanRecord> spans = {
      {"root", 0, 100, 1, 0, 7},
      {"a", 10, 30, 2, 1, 7},
      {"b", 20, 50, 3, 1, 7},   // overlaps a: the union 10..50 counts once
      {"c", 70, 80, 4, 1, 7},
      {"d", 90, 120, 5, 1, 7},  // runs past the parent: clipped to 90..100
      {"e", 25, 28, 6, 3, 7},   // grandchild: b's time, not root's
  };
  const std::vector<std::int64_t> self = self_times(spans);
  EXPECT_EQ(self[0], 100 - 40 - 10 - 10);
  EXPECT_EQ(self[1], 20);
  EXPECT_EQ(self[2], 30 - 3);
  EXPECT_EQ(self[5], 3);
  const auto totals = totals_by_name(spans);
  EXPECT_EQ(totals.at("b").self_ns, 27);
}

TEST(Trace, ScopesNestAndInheritTheRequest) {
  SpanRecorder rec;
  rec.enable(true);
  {
    ScopedSpan outer("outer", 42, rec);
    ScopedSpan inner("inner", 0, rec);
  }
  { ScopedSpan off("other", 0, rec); }
  const std::vector<SpanRecord> spans = rec.spans();
  ASSERT_EQ(spans.size(), 3u);
  const SpanRecord& inner = spans[0];  // closes first
  const SpanRecord& outer = spans[1];
  EXPECT_STREQ(inner.name, "inner");
  EXPECT_EQ(inner.parent, outer.id);
  EXPECT_EQ(inner.request, 42u);
  EXPECT_EQ(outer.parent, 0u);
  EXPECT_EQ(spans[2].parent, 0u);  // the thread's span stack unwound
  EXPECT_LE(outer.start_ns, inner.start_ns);
  EXPECT_GE(outer.end_ns, inner.end_ns);

  SpanRecorder off;
  { ScopedSpan s("x", 1, off); }
  EXPECT_TRUE(off.spans().empty());
}

TEST(OpenLoop, LatenessIsMeasuredFromTheDueTime) {
  OpenLoop sched(1000, 10.5);
  EXPECT_EQ(sched.due(0), 1000);
  EXPECT_EQ(sched.due(2), 1021);
  EXPECT_EQ(sched.issued(0, 1000), 0);
  EXPECT_EQ(sched.issued(1, 1040), 30);  // a stall: late by 30
  EXPECT_EQ(sched.issued(2, 1040), 19);  // the catch-up send is late too
  EXPECT_EQ(sched.issued(3, 1020), 0);   // early never counts as negative
  EXPECT_EQ(sched.lateness_ns(), (std::vector<double>{0, 30, 19, 0}));
}

TEST(Reference, DigestIsChunkingInvariantAndCatchesAnyChange) {
  const xbs::ecg::DigitizedRecord rec = make_record(5, 0, 4000);
  const auto cfg = b9_config();
  const Reference a = reference_events(cfg, rec.adu, rec.adu.size(), 64, true);
  const Reference b = reference_events(cfg, rec.adu, rec.adu.size(), 1000);
  EXPECT_GT(a.digest.count, 5u);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.chunk_of.size(), a.digest.count);
  EXPECT_FALSE(a.beats.empty());

  xbs::stream::SessionSpec spec;
  spec.config = cfg;
  xbs::stream::Session s(spec);
  std::vector<xbs::stream::Event> evs;
  for (const auto& e : s.push(rec.adu)) evs.push_back(e);
  for (const auto& e : s.flush()) evs.push_back(e);
  EventDigest same;
  for (const auto& e : evs) same.add(e);
  EXPECT_EQ(same, a.digest);
  EventDigest flipped;
  evs[1].peak.hpf_value ^= 1;
  for (const auto& e : evs) flipped.add(e);
  EXPECT_NE(flipped, a.digest);
  EventDigest swapped;
  std::swap(evs[0], evs[2]);
  for (const auto& e : evs) swapped.add(e);
  EXPECT_NE(swapped, a.digest);
}

TEST(ColdConfigPool, EveryTableKeyIsNewAndTheOrderFollowsTheSeed) {
  ColdConfigPool pool(7);
  std::set<std::tuple<int, int, int, int>> keys;
  std::vector<WireConfig> order;
  for (std::size_t i = 0; i < ColdConfigPool::kCapacity; ++i) {
    const WireConfig c = pool.next();
    EXPECT_FALSE(c.add == xbs::AdderKind::Approx5 && c.mult == xbs::MultKind::V1 &&
                 c.policy == xbs::ApproxPolicy::Moderate);
    for (const int k : {c.lsbs[0], c.lsbs[1]}) {
      EXPECT_TRUE(keys.emplace(static_cast<int>(c.add), static_cast<int>(c.mult),
                               static_cast<int>(c.policy), k)
                      .second);
    }
    order.push_back(c);
  }
  EXPECT_THROW((void)pool.next(), std::runtime_error);
  ColdConfigPool again(7);
  ColdConfigPool other(8);
  bool differs = false;
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(again.next().lsbs, order[i].lsbs);
    differs = differs || other.next().add != order[i].add;
  }
  EXPECT_TRUE(differs);
}

class Smoke : public ::testing::Test {
 protected:
  /// One pool for the whole test process: table caches are process-wide,
  /// so a config is cold only the first time any test opens it.
  static ColdConfigPool& pool() {
    static ColdConfigPool p(3);
    return p;
  }
  RunOptions opts() {
    RunOptions o;
    o.seed = 3;
    o.seconds = 2.0;
    o.setup_reps = 1;
    o.work_dir = (std::filesystem::current_path() / "perfbench_test").string();
    std::filesystem::create_directories(o.work_dir);
    return o;
  }
  static void expect_clean(const Report& e2e) {
    EXPECT_EQ(e2e.failed(), 0u) << (e2e.failures().empty() ? "" : e2e.failures()[0]);
    EXPECT_GT(e2e.attempted(), 0u);
    for (const char* n : kE2eNames) {
      const Metric* m = e2e.find(n);
      ASSERT_NE(m, nullptr) << n;
      EXPECT_GT(m->value, 0.0) << n;
    }
  }
};

TEST_F(Smoke, WireServe) {
  Report e2e;
  Report layer;
  run_wire_serve(opts(), pool(), e2e, layer);
  expect_clean(e2e);
  EXPECT_EQ(layer.find("arith.tables_built")->value, 0.0);
  EXPECT_GT(layer.find("net.events_sent")->value, 0.0);
}

TEST_F(Smoke, HolterReplay) {
  Report e2e;
  Report layer;
  run_holter_replay(opts(), pool(), e2e, layer);
  expect_clean(e2e);
  EXPECT_EQ(layer.find("arith.tables_built")->value, 0.0);
}

TEST_F(Smoke, Dse) {
  Report e2e;
  Report layer;
  run_dse(opts(), pool(), e2e, layer);
  expect_clean(e2e);
}

TEST_F(Smoke, LadderReportsEveryLadderMetric) {
  Report layer;
  run_ladder(opts(), pool(), layer);
  Report wl;
  Report e2e;
  run_holter_replay(opts(), pool(), e2e, wl);
  for (const Metric& m : wl.metrics()) layer.metric(m.name, m.unit, m.value, m.samples);
  for (const char* n : kLayerNames) {
    if (std::string(n) == "trace.overhead_pct") continue;  // main() derives it
    EXPECT_NE(layer.find(n), nullptr) << n;
  }
  EXPECT_GT(layer.find("stream.server_loan.b9.ns_per_sample")->value, 0.0);
}

}  // namespace
}  // namespace perfbench

// perfbench: the repository's seeded benchmark. One workload per run:
//
//   perfbench --workload wire_serve|holter_replay|dse --seed N --seconds S
//             --trace 0|1 [--out DIR]
//
// --trace 0 measures the workload untraced and reports the end-to-end
// metrics. --trace 1 runs the single-thread layer ladder, then the workload
// twice for S/2 each, untraced and traced, and reports the per-layer
// metrics (trace.overhead_pct compares the two passes). Human-readable
// lines come first; the last stdout line is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is non-zero when
// any output failed its correctness check.
#include <cmath>
#include <filesystem>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "trace.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

const char* arg(int argc, char** argv, const char* name, const char* fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  }
  return fallback;
}

using WorkloadFn = void (*)(const RunOptions&, ColdConfigPool&, Report&, Report&);

WorkloadFn workload_fn(const std::string& name) {
  if (name == "wire_serve") return run_wire_serve;
  if (name == "holter_replay") return run_holter_replay;
  if (name == "dse") return run_dse;
  return nullptr;
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_metrics(const char* kind, const Report& r) {
  for (const Metric& m : r.metrics()) {
    std::printf("%-9s %-34s %14.6g %-6s n=%-7zu %s\n", kind, m.name.c_str(), m.value,
                m.unit.c_str(), m.samples, m.note.c_str());
  }
}

std::string metrics_json(const Report& r) {
  std::string out = "{";
  for (std::size_t i = 0; i < r.metrics().size(); ++i) {
    const Metric& m = r.metrics()[i];
    // A metric without a measurement already failed the run; JSON has no NaN.
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    out += (i == 0 ? "" : ", ") + json_string(m.name) + ": {\"value\": " + fmt(v) +
           ", \"unit\": " + json_string(m.unit) + "}";
  }
  return out + "}";
}

std::string detail_json(const Report& r) {
  std::string out = "[";
  for (std::size_t i = 0; i < r.metrics().size(); ++i) {
    const Metric& m = r.metrics()[i];
    out += std::string(i == 0 ? "" : ",\n  ") + "{\"name\": " + json_string(m.name) +
           ", \"value\": " + (std::isfinite(m.value) ? fmt(m.value) : "null") +
           ", \"unit\": " + json_string(m.unit) +
           ", \"samples\": " + std::to_string(m.samples) + ", \"note\": " + json_string(m.note) +
           "}";
  }
  return out + "]";
}

}  // namespace

int main(int argc, char** argv) {
  const std::string workload = arg(argc, argv, "--workload", "");
  const WorkloadFn fn = workload_fn(workload);
  const double seconds = std::atof(arg(argc, argv, "--seconds", "10"));
  const std::string trace_arg = arg(argc, argv, "--trace", "0");
  if (fn == nullptr || !(seconds > 0.0) || (trace_arg != "0" && trace_arg != "1")) {
    std::fprintf(stderr,
                 "usage: perfbench --workload wire_serve|holter_replay|dse --seed N "
                 "--seconds S --trace 0|1 [--out DIR]\n");
    return 2;
  }
  const bool traced = trace_arg == "1";
  RunOptions o;
  o.seed = std::strtoull(arg(argc, argv, "--seed", "1"), nullptr, 10);
  o.seconds = seconds;
  const std::string out_dir = arg(argc, argv, "--out", "perfbench_out");
  o.work_dir = out_dir + "/work_" + workload + "_" + std::to_string(o.seed);
  std::filesystem::create_directories(o.work_dir);
  std::filesystem::create_directories(out_dir + "/results");

  ColdConfigPool pool(o.seed);
  Report run;    // facts + correctness ledger + reported metrics
  Report extra;  // the other metric kind, kept for the results file
  record_host_facts(run);
  run.fact("workload", workload);
  run.fact("seed", static_cast<double>(o.seed));
  run.fact("seconds", o.seconds);
  run.fact("trace", traced ? 1.0 : 0.0);

  try {
    if (!traced) {
      fn(o, pool, run, extra);
    } else {
      Report layer;
      o.setup_reps = 1;
      tracer().enable(true);
      run_ladder(o, pool, layer);
      RunOptions half = o;
      half.seconds = o.seconds / 2.0;
      Report e_plain;
      Report l_plain;
      tracer().enable(false);
      fn(half, pool, e_plain, l_plain);
      Report e_traced;
      tracer().enable(true);
      fn(half, pool, e_traced, layer);
      tracer().enable(false);
      const Metric* a = e_plain.find("samples_per_s");
      const Metric* b = e_traced.find("samples_per_s");
      layer.metric("trace.overhead_pct", "%",
                   a != nullptr && b != nullptr && b->value > 0.0
                       ? (a->value / b->value - 1.0) * 100.0
                       : 0.0,
                   2, "samples_per_s untraced vs traced pass");
      run.merge_ledger(e_plain);
      run.merge_ledger(e_traced);
      for (const auto& [k, v] : e_traced.facts()) run.fact_json("traced_pass." + k, v);
      if (a != nullptr) run.fact("untraced_pass.samples_per_s", a->value);
      for (const Metric& m : e_traced.metrics()) {
        extra.metric(m.name, m.unit, m.value, m.samples, "traced pass: " + m.note);
      }
      const std::string spans_path =
          out_dir + "/spans_" + workload + "_" + std::to_string(o.seed) + ".jsonl";
      const std::vector<SpanRecord> spans = tracer().spans();
      if (!write_spans(spans_path, spans)) run.fail("could not write " + spans_path);
      std::printf("spans     %zu written to %s\n", spans.size(), spans_path.c_str());
      for (const auto& [name, t] : totals_by_name(spans)) {
        std::printf("span      %-34s count=%-8llu total_ms=%-12.3f self_ms=%.3f\n",
                    name.c_str(), static_cast<unsigned long long>(t.count),
                    static_cast<double>(t.total_ns) / 1e6, static_cast<double>(t.self_ns) / 1e6);
      }
      for (const Metric& m : layer.metrics()) {
        run.metric(m.name, m.unit, m.value, m.samples, m.note);
      }
    }
  } catch (const std::exception& e) {
    run.fail(std::string("run aborted: ") + e.what());
  }

  for (const Metric& m : run.metrics()) {
    if (!std::isfinite(m.value)) run.fail("metric " + m.name + " has no measurement");
  }
  const auto require = [&](const char* name) {
    if (run.find(name) == nullptr) run.fail(std::string("metric ") + name + " not reported");
  };
  if (traced) {
    for (const char* n : kLayerNames) require(n);
  } else {
    for (const char* n : kE2eNames) require(n);
  }
  if (run.attempted() == 0) run.attempt(1);
  print_metrics(traced ? "layer" : "e2e", run);
  print_metrics(traced ? "e2e" : "layer", extra);
  std::string facts = "{";
  for (std::size_t i = 0; i < run.facts().size(); ++i) {
    facts += (i == 0 ? "" : ", ") + json_string(run.facts()[i].first) + ": " +
             run.facts()[i].second;
  }
  facts += "}";
  std::printf("facts     %s\n", facts.c_str());
  for (const std::string& f : run.failures()) std::printf("FAILED    %s\n", f.c_str());

  const std::string results_path = out_dir + "/results/" + workload + "_seed" +
                                   std::to_string(o.seed) + "_trace" + trace_arg + ".json";
  if (std::FILE* f = std::fopen(results_path.c_str(), "w")) {
    std::fprintf(f,
                 "{\"facts\": %s,\n \"attempted\": %llu, \"failed\": %llu,\n"
                 " \"metrics\": %s,\n \"other_metrics\": %s}\n",
                 facts.c_str(), static_cast<unsigned long long>(run.attempted()),
                 static_cast<unsigned long long>(run.failed()), detail_json(run).c_str(),
                 detail_json(extra).c_str());
    std::fclose(f);
  }

  std::error_code ec;
  std::filesystem::remove_all(o.work_dir, ec);  // record files of this run

  const bool correct = run.failed() == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(run.attempted()),
              static_cast<unsigned long long>(run.failed()), metrics_json(run).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

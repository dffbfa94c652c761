#include "common.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "stats.hpp"
#include "xbs/arith/isa.hpp"
#include "xbs/arith/kernel.hpp"
#include "xbs/common/rng.hpp"
#include "xbs/core/paper_configs.hpp"
#include "xbs/ecg/adc.hpp"
#include "xbs/ecg/noise.hpp"
#include "xbs/ecg/template_gen.hpp"
#include "xbs/store/crc32c.hpp"

namespace perfbench {

using namespace xbs;

ecg::DigitizedRecord make_record(u64 seed, int index, std::size_t n_samples) {
  // splitmix-style decorrelation of (seed, index) into one generator seed.
  u64 s = seed * 0x9E3779B97F4A7C15ull + static_cast<u64>(index) * 0xBF58476D1CE4E5B9ull;
  s ^= s >> 31;
  Rng param_rng(s);
  ecg::TemplateEcgParams p;
  p.hr_bpm = param_rng.uniform(55.0, 88.0);
  p.hrv_rel_sd = param_rng.uniform(0.02, 0.05);
  p.rsa_rel = param_rng.uniform(0.015, 0.035);
  p.amplitude_scale = param_rng.uniform(0.85, 1.2);
  p.t.amplitude_mv = param_rng.uniform(0.22, 0.38);
  p.p.amplitude_mv = param_rng.uniform(0.08, 0.16);
  ecg::EcgRecord rec = ecg::generate_template_ecg(p, n_samples, s ^ 0xECDA7A5Eull);
  rec.name = "pb" + std::to_string(seed) + "_" + std::to_string(index);
  Rng noise_rng(s ^ 0x9015EEDull);
  ecg::add_standard_noise(rec, noise_rng);
  return ecg::AdcFrontEnd{}.digitize(rec);
}

std::vector<pantompkins::PipelineConfig> fig12_configs() {
  std::vector<pantompkins::PipelineConfig> out;
  for (const core::NamedConfig& c : core::fig12_b_configs()) {
    out.push_back(pantompkins::PipelineConfig::from_lsbs(c.lsbs));
  }
  return out;
}

pantompkins::PipelineConfig b9_config() {
  return pantompkins::PipelineConfig::from_lsbs({10, 12, 2, 8, 16});
}

pantompkins::PipelineConfig WireConfig::pipeline() const {
  return pantompkins::PipelineConfig::from_lsbs(lsbs, add, mult, policy);
}

net::OpenFrame WireConfig::open_frame(u64 token) const {
  net::OpenFrame f;
  f.token = token;
  f.add_kind = add;
  f.mult_kind = mult;
  f.policy = policy;
  std::copy(lsbs.begin(), lsbs.end(), f.lsbs.begin());
  return f;
}

ColdConfigPool::ColdConfigPool(u64 seed) {
  struct Family {
    AdderKind add;
    MultKind mult;
    ApproxPolicy policy;
  };
  std::vector<Family> families;
  // Only the wired adders: their kernels take the carry-free closed form, so
  // a config's run-time cost after the build does not depend on its family.
  for (const AdderKind a : {AdderKind::Approx4, AdderKind::Approx5}) {
    for (const MultKind m : {MultKind::V1, MultKind::V2}) {
      for (const ApproxPolicy p :
           {ApproxPolicy::Conservative, ApproxPolicy::Moderate, ApproxPolicy::Aggressive}) {
        if (a == AdderKind::Approx5 && m == MultKind::V1 && p == ApproxPolicy::Moderate) {
          continue;  // Fig. 12 and the default exploration lists build these
        }
        families.push_back({a, m, p});
      }
    }
  }
  Rng rng(seed ^ 0xC01DC0F1ull);
  for (std::size_t i = families.size(); i > 1; --i) {
    std::swap(families[i - 1],
              families[static_cast<std::size_t>(rng.uniform_int(0, static_cast<i64>(i - 1)))]);
  }
  std::array<int, 8> ks = {2, 4, 6, 8, 10, 12, 14, 16};
  for (std::size_t i = ks.size(); i > 1; --i) {
    std::swap(ks[i - 1], ks[static_cast<std::size_t>(rng.uniform_int(0, static_cast<i64>(i - 1)))]);
  }
  for (const Family& f : families) {
    for (const int k : ks) {
      WireConfig c;
      c.add = f.add;
      c.mult = f.mult;
      c.policy = f.policy;
      c.lsbs = {k, k - 1, 0, 0, 0};
      configs_.push_back(c);
    }
  }
}

WireConfig ColdConfigPool::next() {
  if (next_ >= configs_.size()) throw std::runtime_error("cold config pool exhausted");
  return configs_[next_++];
}

void EventDigest::add(const stream::Event& e) {
  const auto mix = [this](u64 v) {
    for (int i = 0; i < 8; ++i) {
      hash ^= (v >> (8 * i)) & 0xFFu;
      hash *= 0x100000001B3ull;
    }
  };
  const auto bits = [](double d) {
    u64 v = 0;
    std::memcpy(&v, &d, sizeof v);
    return v;
  };
  mix(e.peak.mwi_index);
  mix(e.peak.hpf_index);
  mix(e.peak.raw_index);
  mix(static_cast<u64>(e.peak.mwi_value));
  mix(static_cast<u64>(e.peak.hpf_value));
  mix(static_cast<u64>(e.peak.decision));
  mix(bits(e.time_s));
  mix(bits(e.rr_s));
  mix(bits(e.hr_bpm));
  ++count;
}

Reference reference_events(const pantompkins::PipelineConfig& cfg,
                           const std::vector<i32>& signal, std::size_t n_samples,
                           std::size_t chunk, bool keep_chunk_map) {
  stream::SessionSpec spec;
  spec.config = cfg;
  spec.keep_detection = false;
  stream::Session s(spec);
  Reference ref;
  const auto take = [&](std::span<const stream::Event> evs, std::int64_t k) {
    for (const stream::Event& e : evs) {
      ref.digest.add(e);
      if (e.is_beat()) ref.beats.push_back(e.peak.raw_index);
      if (keep_chunk_map) ref.chunk_of.push_back(k);
    }
  };
  std::vector<i32> buf;
  std::size_t at = 0;
  for (std::size_t done = 0, k = 0; done < n_samples; ++k) {
    const std::size_t n = std::min(chunk, n_samples - done);
    buf.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      buf[i] = signal[at];
      at = at + 1 == signal.size() ? 0 : at + 1;
    }
    done += n;
    take(s.push(buf), static_cast<std::int64_t>(k));
  }
  take(s.flush(), -1);
  return ref;
}

u64 tables_total() {
  const arith::TableCacheStats s = arith::table_cache_stats();
  return s.multiplier_models + s.magnitude_tables + s.signed_tables + s.square_tables;
}

double rss_peak_mb() {
  rusage ru{};
  (void)::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double rss_now_mb() {
  std::ifstream f("/proc/self/statm");
  long pages = 0;
  long resident = 0;
  f >> pages >> resident;
  return static_cast<double>(resident) * static_cast<double>(::sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

double timed_setup(int reps, const std::function<void(int rep)>& setup) {
  std::vector<double> times;
  for (int rep = 0; rep + 1 < reps; ++rep) {
    int fds[2];
    if (::pipe(fds) != 0) throw std::runtime_error("timed_setup: pipe failed");
    std::fflush(nullptr);
    const pid_t pid = ::fork();
    if (pid < 0) throw std::runtime_error("timed_setup: fork failed");
    if (pid == 0) {
      ::close(fds[0]);
      double dt = -1.0;
      try {
        const auto t0 = std::chrono::steady_clock::now();
        setup(rep);
        dt = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
      } catch (...) {
        dt = -1.0;
      }
      const bool ok = ::write(fds[1], &dt, sizeof dt) == static_cast<ssize_t>(sizeof dt);
      ::_exit(ok && dt >= 0.0 ? 0 : 1);  // skip the parent's atexit/stdio state
    }
    ::close(fds[1]);
    double dt = -1.0;
    const bool got = ::read(fds[0], &dt, sizeof dt) == static_cast<ssize_t>(sizeof dt);
    ::close(fds[0]);
    int status = 0;
    (void)::waitpid(pid, &status, 0);
    if (!got || dt < 0.0 || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      throw std::runtime_error("timed_setup: set-up repetition failed");
    }
    times.push_back(dt);
  }
  const auto t0 = std::chrono::steady_clock::now();
  setup(reps - 1);
  times.push_back(std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count());
  return median(times);
}

void Report::metric(std::string name, std::string unit, double value, std::size_t samples,
                    std::string note) {
  metrics_.push_back(Metric{std::move(name), std::move(unit), value, samples, std::move(note)});
}

void Report::fail(const std::string& why, u64 n) {
  failed_ += n;
  if (failures_.size() < 32) failures_.push_back(why);
}

void Report::merge_ledger(const Report& other) {
  attempted_ += other.attempted_;
  failed_ += other.failed_;
  for (const std::string& f : other.failures_) {
    if (failures_.size() < 32) failures_.push_back(f);
  }
}

void Report::fact(const std::string& key, const std::string& value) {
  facts_.emplace_back(key, json_string(value));
}

void Report::fact(const std::string& key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  facts_.emplace_back(key, buf);
}

const Metric* Report::find(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

namespace {

std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string v = line.substr(colon + 1);
        v.erase(0, v.find_first_not_of(' '));
        return v;
      }
    }
  }
  return "unknown";
}

std::string affinity_mask() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof set, &set) != 0) return "unknown";
  std::string cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus += (cpus.empty() ? "" : ",") + std::to_string(c);
  }
  return cpus;
}

std::string env_or(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' ? v : fallback;
}

}  // namespace

void record_host_facts(Report& r) {
  r.fact("nproc", static_cast<double>(::sysconf(_SC_NPROCESSORS_ONLN)));
  r.fact("cpu_model", cpu_model());
  r.fact("affinity_cpus", affinity_mask());
  r.fact("kernel_isa", std::string(to_string(arith::kernel_isa().selected)));
  r.fact("crc32c_tier", std::string(store::to_string(store::crc32c_impl())));
#ifdef PERFBENCH_BUILD_TYPE
  r.fact("build_type", PERFBENCH_BUILD_TYPE);
#else
  r.fact("build_type", "unknown");
#endif
#if defined(__clang__)
  r.fact("compiler", std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
  r.fact("compiler", std::string("gcc ") + __VERSION__);
#else
  r.fact("compiler", "unknown");
#endif
  r.fact("git_sha", env_or("PERFBENCH_GIT_SHA", "unavailable"));
  r.fact("source_digest", env_or("PERFBENCH_SOURCE_DIGEST", "unavailable"));
}

}  // namespace perfbench

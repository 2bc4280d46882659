// End-to-end benchmark for the tsv library: one named workload per run,
// inputs generated from --seed, outputs checked, metrics printed as one JSON
// object on the last line of stdout. NOTES.md (next to this file) gives each
// workload's rationale and the layer -> end-to-end metric map.
//
//   tsvbench --workload <solve-2d-mem|sharded-3d-periodic|serve-mixed>
//            --seed N --seconds S --trace 0|1 [--spans FILE]
//
// --trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
// metrics, records spans (name, start, end, parent, request id) around the
// public library calls and writes them to --spans at exit. The library is
// driven only through public calls; nothing here reaches into src/.
//
// Exit status is non-zero when an output check fails.

#include <malloc.h>
#include <sys/resource.h>
#include <omp.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <functional>
#include <initializer_list>
#include <limits>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "tsv/kernels/reference.hpp"
#include "tsv/layout/block_transpose.hpp"
#include "tsv/tsv.hpp"

namespace {

using tsv::index;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Command line.
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "tsvbench: %s\nusage: tsvbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--spans FILE]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage("missing value");
    const char* v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v, nullptr, 10);
    else if (k == "--seconds") a.seconds = std::atof(v);
    else if (k == "--trace") a.trace = std::atoi(v) != 0;
    else if (k == "--spans") a.spans_path = v;
    else usage("unknown flag");
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  return a;
}

// ---------------------------------------------------------------------------
// Seeded inputs. Every value the program receives is a pure function of the
// seed and a position, so checks can regenerate any input without storing it.
// ---------------------------------------------------------------------------

std::uint64_t mix(std::uint64_t z) {  // splitmix64 finalizer
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double unit(std::uint64_t h) {  // [0, 1)
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// Initial value of cell (x, y, z) of input @p stream: in [0.25, 0.75), so
/// convex-weight stencils keep every field O(1) (the tolerance assumes it).
double cell(std::uint64_t seed, std::uint64_t stream, index x, index y,
            index z) {
  const std::uint64_t pos = static_cast<std::uint64_t>(x + 4) +
                            (static_cast<std::uint64_t>(y + 4) << 21) +
                            (static_cast<std::uint64_t>(z + 4) << 42);
  return 0.25 + 0.5 * unit(mix(mix(seed ^ (stream << 56)) ^ pos));
}

/// Sequential seeded generator for schedules and mixes.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(mix(seed)) {}
  double uniform() { return unit(mix(s_++)); }
  int pick(int n) {
    return std::min(n - 1, static_cast<int>(uniform() * n));
  }

 private:
  std::uint64_t s_;
};

template <typename T>
void fill_2d(tsv::Grid2D<T>& g, std::uint64_t seed, std::uint64_t stream) {
  const index h = g.halo();
#pragma omp parallel for schedule(static)
  for (index y = -h; y < g.ny() + h; ++y) {
    T* row = g.row(y);
    for (index x = -h; x < g.nx() + h; ++x)
      row[x] = static_cast<T>(cell(seed, stream, x, y, 0));
  }
}

template <typename T>
void fill_3d(tsv::Grid3D<T>& g, std::uint64_t seed, std::uint64_t stream) {
  const index h = g.halo();
#pragma omp parallel for schedule(static)
  for (index z = -h; z < g.nz() + h; ++z)
    for (index y = -h; y < g.ny() + h; ++y) {
      T* row = g.row(y, z);
      for (index x = -h; x < g.nx() + h; ++x)
        row[x] = static_cast<T>(cell(seed, stream, x, y, z));
    }
}

/// FNV-1a over the interior bytes (the cells a request's result consists
/// of). Bitwise comparison through a digest keeps sampled outputs O(1).
template <typename T>
std::uint64_t digest(const tsv::Grid2D<T>& g) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (index y = 0; y < g.ny(); ++y) {
    const auto* p = reinterpret_cast<const unsigned char*>(g.row(y));
    for (std::size_t i = 0; i < sizeof(T) * static_cast<std::size_t>(g.nx());
         ++i)
      h = (h ^ p[i]) * 0x100000001b3ull;
  }
  return h;
}

template <typename T>
std::uint64_t digest(const tsv::Grid3D<T>& g) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (index z = 0; z < g.nz(); ++z)
    for (index y = 0; y < g.ny(); ++y) {
      const auto* p = reinterpret_cast<const unsigned char*>(g.row(y, z));
      for (std::size_t i = 0;
           i < sizeof(T) * static_cast<std::size_t>(g.nx()); ++i)
        h = (h ^ p[i]) * 0x100000001b3ull;
    }
  return h;
}

// ---------------------------------------------------------------------------
// Statistics and output.
// ---------------------------------------------------------------------------

/// Linear-interpolated quantile (the "type 7" rule) of @p v; +inf entries
/// (failed requests) sort last and propagate.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  if (std::isinf(v[hi])) return v[hi];
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double now_s() {
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration<double>(Clock::now() - epoch).count();
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct MetricDef {
  const char* name;
  const char* unit;
};

/// The metric sets BENCHMARK.json declares, in the same order: a --trace 0
/// run prints exactly kEndToEnd, a --trace 1 run exactly kPerLayer.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"solve_glups", "GLUP/s"},
    {"interactive_p50_ms", "ms"},
    {"goodput_rps", "req/s"},
    {"peak_rss_mb", "MiB"},
};

/// Batch and tail latencies are printed with every untraced run but are
/// not in the JSON result: on the sizing host their run-to-run spread on
/// serve-mixed (0.36-0.73 of the median over ten seeds for the tails, up to
/// 0.47 for the batch median) exceeded any bound the benchmark may set.
void print_ungated(const char* name, double value_ms, std::size_t samples,
                   const char* how) {
  std::printf("ungated %-28s %12.6g ms    n=%-6zu %s\n", name, value_ms,
              samples, how);
}

constexpr MetricDef kPerLayer[] = {
    {"mem.stream_gbs", "GB/s"},
    {"kernels.flops_per_update", "flop"},
    {"kernels.bytes_per_update", "B"},
    {"tiling.naive_equiv_gbs", "GB/s"},
    {"tiling.reuse_x", "x"},
    {"tiling.scaling_eff", "ratio"},
    {"vectorize.incache_glups", "GLUP/s"},
    {"vectorize.shard_step_ms", "ms"},
    {"layout.transform_ms", "ms"},
    {"halo.fill_us", "us"},
    {"shard.exchange_us", "us"},
    {"shard.exchange_bytes", "B"},
    {"shard.step_overhead_frac", "ratio"},
    {"executor.busy_frac", "ratio"},
    {"executor.gang_task_skew", "x"},
    {"scheduler.queue_ms.interactive.p50", "ms"},
    {"scheduler.queue_ms.interactive.p99", "ms"},
    {"scheduler.queue_ms.batch.p95", "ms"},
    {"scheduler.gang_wait_ms.p99", "ms"},
    {"scheduler.service_ms.interactive.p50", "ms"},
    {"scheduler.service_ms.batch.p50", "ms"},
    {"scheduler.coalesced_frac", "ratio"},
    {"scheduler.shed", "count"},
    {"scheduler.rejected", "count"},
    {"scheduler.deadline_missed", "count"},
    {"plan_cache.hit_ratio", "ratio"},
    {"plan_cache.build_ms.p99", "ms"},
    {"workspace.reuse_ratio", "ratio"},
    {"generic.overhead_x", "x"},
    {"metrics.scrape_ms.p99", "ms"},
    {"loadgen.lag_ms.p99", "ms"},
    {"trace.overhead_frac", "ratio"},
};

struct Metric {
  double value = 0.0;
  std::size_t samples = 0;
  std::string note;  ///< how it was measured, or why it does not apply
  bool set = false;
};

class Report {
 public:
  explicit Report(bool traced) : traced_(traced) {
    values_.resize(defs().size());
  }

  void add(const char* name, double value, std::size_t samples,
           std::string note = {}) {
    Metric& m = values_[slot(name)];
    m = {value, samples, std::move(note), true};
  }
  /// A metric the workload has no mechanism for: reported as 0 with the
  /// reason, so every run prints the full declared set.
  void na(const char* name, const std::string& why) {
    add(name, 0.0, 0, "n/a: " + why);
  }
  void context(const std::string& key, const std::string& value) {
    context_.push_back("\"" + key + "\": " + value);
  }
  std::size_t attempted = 0;
  std::size_t failed = 0;
  bool correct = true;

  void fail_check(const std::string& what) {
    correct = false;
    std::printf("CHECK FAILED: %s\n", what.c_str());
  }

  void print() const {
    std::string ctx = "{";
    for (std::size_t i = 0; i < context_.size(); ++i)
      ctx += (i ? ", " : "") + context_[i];
    std::printf("context %s}\n", ctx.c_str());
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted) +
            ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    for (std::size_t i = 0; i < values_.size(); ++i) {
      const MetricDef& d = defs()[i];
      const Metric& m = values_[i];
      if (!m.set) {  // a workload that forgot a metric is a benchmark bug
        std::fprintf(stderr, "tsvbench: metric %s was not reported\n", d.name);
        std::exit(3);
      }
      std::printf("metric %-38s %14.6g %-7s n=%-6zu %s\n", d.name, m.value,
                  d.unit, m.samples, m.note.c_str());
      char buf[64];
      // A failed request at the tail makes a latency infinite; JSON has no
      // infinity, so it is printed as 1e300.
      std::snprintf(buf, sizeof buf, "%.17g",
                    std::isfinite(m.value) ? m.value : 1e300);
      json += (i ? ", " : "") + std::string("\"") + d.name +
              "\": {\"value\": " + buf + ", \"unit\": \"" + d.unit + "\"}";
    }
    json += "}}";
    std::printf("checks correct=%s attempted=%zu failed=%zu fail_frac=%.6g\n",
                correct ? "true" : "false", attempted, failed,
                attempted ? static_cast<double>(failed) /
                                static_cast<double>(attempted)
                          : 0.0);
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
  }

 private:
  std::span<const MetricDef> defs() const {
    if (traced_) return kPerLayer;
    return kEndToEnd;
  }
  std::size_t slot(const char* name) const {
    const std::span<const MetricDef> d = defs();
    for (std::size_t i = 0; i < d.size(); ++i)
      if (std::strcmp(d[i].name, name) == 0) return i;
    std::fprintf(stderr, "tsvbench: metric %s is not declared for this mode\n",
                 name);
    std::exit(3);
  }

  bool traced_;
  std::vector<Metric> values_;
  std::vector<std::string> context_;
};

// ---------------------------------------------------------------------------
// Tracing: spans recorded by this file around public library calls, kept in
// memory and written once at exit.
// ---------------------------------------------------------------------------

struct Span {
  std::string name;  ///< "<layer>.<call>"; the layer is the part before '.'
  double t0 = 0.0, t1 = 0.0;
  long parent = -1;
  std::uint64_t req = 0;
};

class Tracer {
 public:
  bool on = false;

  long add(std::string name, double t0, double t1, long parent = -1,
           std::uint64_t req = 0) {
    if (!on) return -1;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({std::move(name), t0, t1, parent, req});
    return static_cast<long>(spans_.size()) - 1;
  }

  /// Times @p fn and records it as span @p name. Works with tracing off too
  /// (returns the duration either way).
  template <typename F>
  double time(const char* name, F&& fn, long parent = -1,
              std::uint64_t req = 0) {
    const double t0 = now_s();
    fn();
    const double t1 = now_s();
    add(name, t0, t1, parent, req);
    return t1 - t0;
  }

  /// Self time per layer: each span's duration minus the part of it its
  /// children cover, summed by layer name.
  void print_self_times() const {
    std::vector<std::vector<std::pair<double, double>>> kids(spans_.size());
    for (const Span& s : spans_)
      if (s.parent >= 0)
        kids[static_cast<std::size_t>(s.parent)].push_back({s.t0, s.t1});
    std::vector<std::pair<std::string, double>> by_layer;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      auto& k = kids[i];
      std::sort(k.begin(), k.end());
      double covered = 0.0, reach = s.t0;
      for (auto [a, b] : k) {
        a = std::max(a, reach);
        b = std::min(b, s.t1);
        if (b > a) {
          covered += b - a;
          reach = b;
        }
      }
      const std::string layer = s.name.substr(0, s.name.find('.'));
      auto it = std::find_if(by_layer.begin(), by_layer.end(),
                             [&](const auto& p) { return p.first == layer; });
      if (it == by_layer.end())
        by_layer.push_back({layer, 0.0}), it = by_layer.end() - 1;
      it->second += std::max(0.0, s.t1 - s.t0 - covered);
    }
    for (const auto& [layer, secs] : by_layer)
      std::printf("self_time %-12s %12.3f ms\n", layer.c_str(), secs * 1e3);
    std::printf("spans recorded: %zu\n", spans_.size());
  }

  void write(const std::string& path) const {
    if (path.empty()) return;
    std::ofstream out(path);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[256];
      std::snprintf(buf, sizeof buf,
                    "{\"id\": %zu, \"name\": \"%s\", \"start_s\": %.9f, "
                    "\"end_s\": %.9f, \"parent\": %ld, \"req\": %llu}\n",
                    i, s.name.c_str(), s.t0, s.t1, s.parent,
                    static_cast<unsigned long long>(s.req));
      out << buf;
    }
  }

 private:
  std::mutex mu_;
  std::vector<Span> spans_;
};

Tracer g_trace;

// ---------------------------------------------------------------------------
// Shared context and small helpers.
// ---------------------------------------------------------------------------

int nproc() { return std::max(1, omp_get_num_procs()); }

void record_machine(Report& rep) {
  const tsv::CpuInfo& ci = tsv::cpu_info();
  rep.context("nproc", std::to_string(nproc()));
  rep.context("isa", std::string("\"") + tsv::isa_name(tsv::best_isa()) + "\"");
  rep.context("l1_bytes", std::to_string(ci.l1_bytes));
  rep.context("l2_bytes", std::to_string(ci.l2_bytes));
  rep.context("llc_bytes", std::to_string(ci.l3_bytes));
}

std::string plan_json(const tsv::ResolvedOptions& r) {
  char buf[320];
  std::snprintf(buf, sizeof buf,
                "{\"method\": \"%s\", \"tiling\": \"%s\", \"isa\": \"%s\", "
                "\"width\": %td, \"bx\": %td, \"by\": %td, \"bz\": %td, "
                "\"bt\": %td, \"threads\": %d, \"streaming\": %s}",
                tsv::method_name(r.method), tsv::tiling_name(r.tiling),
                tsv::isa_name(r.isa), r.width, r.bx, r.by, r.bz, r.bt,
                r.threads, r.streaming ? "true" : "false");
  return buf;
}

void record_array(Report& rep, double array_bytes) {
  const double llc = static_cast<double>(tsv::cpu_info().l3_bytes);
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.0f", array_bytes);
  rep.context("array_bytes", buf);
  std::snprintf(buf, sizeof buf, "%.3f", llc > 0 ? array_bytes / llc : 0.0);
  rep.context("array_over_llc", buf);
}

/// Copy bandwidth (read + write bytes per second, GB/s) with @p bytes per
/// array on all cores: the machine's sustainable rate for that working set.
/// Each sample moves at least 4 GiB inside one parallel region, so waking
/// the OpenMP team (milliseconds on a VM) does not count as copy time.
double stream_copy_gbs(std::size_t bytes) {
  const index n = static_cast<index>(bytes / sizeof(double));
  const std::size_t two_gib = std::size_t{1} << 31;
  const int passes =
      static_cast<int>(std::max(std::size_t{1}, two_gib / bytes));
  tsv::AlignedBuffer<double> a(n, tsv::FirstTouch::kParallel);
  tsv::AlignedBuffer<double> b(n, tsv::FirstTouch::kParallel);
  double* pa = a.data();
  double* pb = b.data();
#pragma omp parallel for schedule(static)
  for (index i = 0; i < n; ++i) pa[i] = static_cast<double>(i & 1023);
  std::vector<double> gbs;
  for (int rep = 0; rep < 5; ++rep) {
    const double t0 = now_s();
#pragma omp parallel
    for (int p = 0; p < passes; ++p) {
      const double* src = p % 2 ? pb : pa;
      double* dst = p % 2 ? pa : pb;
#pragma omp for schedule(static)
      for (index i = 0; i < n; ++i) dst[i] = src[i];
    }
    gbs.push_back(2.0 * static_cast<double>(n) * sizeof(double) * passes /
                  (now_s() - t0) / 1e9);
  }
  return median(gbs);
}

/// Calls @p call until @p seconds have passed (and at least @p min_calls
/// times); returns each call's wall time, recording span @p span if given.
template <typename F>
std::vector<double> timed_calls(double seconds, int min_calls, F&& call,
                                const char* span = nullptr) {
  std::vector<double> walls;
  const double start = now_s();
  while (static_cast<int>(walls.size()) < min_calls ||
         now_s() - start < seconds) {
    const double t0 = now_s();
    call();
    const double t1 = now_s();
    if (span != nullptr) g_trace.add(span, t0, t1);
    walls.push_back(t1 - t0);
  }
  return walls;
}

/// End-to-end metrics of a closed-loop solve: @p callers concurrent callers,
/// each call an execute of the workload's constant step count over
/// @p points points, due when the same caller's previous one returned.
/// @p walls holds every caller's call walls. NOTES.md explains the
/// serving-metric analogues.
void report_solve(Report& rep, const std::vector<double>& walls, index steps,
                  double points, const std::vector<double>& setups,
                  int callers = 1) {
  std::vector<double> rate, step_ms, call_ms;
  double total = 0.0;
  for (double w : walls) {
    rate.push_back(callers * points * static_cast<double>(steps) / w / 1e9);
    step_ms.push_back(w * 1e3 / static_cast<double>(steps));
    call_ms.push_back(w * 1e3);
    total += w;
  }
  const std::size_t n = walls.size();
  rep.add("setup_s", median(setups), setups.size(), "median of set-ups");
  rep.add("solve_glups", median(rate), n,
          "callers x updates per call / call wall, median over calls");
  rep.add("interactive_p50_ms", median(step_ms), n,
          "solve: per-step wall (call / steps)");
  print_ungated("interactive_p99_ms", quantile(step_ms, 0.99), n,
                "solve: per-step wall, p99 over calls");
  print_ungated("batch_p50_ms", median(call_ms), n, "solve: call wall");
  print_ungated("batch_p95_ms", quantile(call_ms, 0.95), n,
                "solve: call wall, p95 over calls");
  rep.add("goodput_rps", callers * static_cast<double>(n) / total, n,
          "solve: checked calls per second, all callers");
  rep.add("peak_rss_mb", peak_rss_mib(), 1);
}

void na_all(Report& rep, std::initializer_list<const char*> names,
            const char* why) {
  for (const char* m : names) rep.na(m, why);
}

/// Serving-layer metrics for the two solve workloads, which bypass it.
void na_serving(Report& rep) {
  na_all(rep,
         {"scheduler.queue_ms.interactive.p50",
          "scheduler.queue_ms.interactive.p99", "scheduler.queue_ms.batch.p95",
          "scheduler.gang_wait_ms.p99", "scheduler.service_ms.interactive.p50",
          "scheduler.service_ms.batch.p50", "scheduler.coalesced_frac",
          "scheduler.shed", "scheduler.rejected", "scheduler.deadline_missed",
          "plan_cache.hit_ratio", "plan_cache.build_ms.p99",
          "workspace.reuse_ratio", "generic.overhead_x",
          "metrics.scrape_ms.p99", "loadgen.lag_ms.p99"},
         "no scheduler, plan cache or load generator on this workload");
}

/// Busy fraction and task skew of an executor's gangs between two stats
/// snapshots.
void report_gangs(Report& rep, const tsv::ExecutorStats& before,
                  const tsv::ExecutorStats& after) {
  double busy = 0.0, max_tasks = 0.0, sum_tasks = 0.0;
  for (std::size_t g = 0; g < after.gangs.size(); ++g) {
    busy += after.gangs[g].busy_seconds - before.gangs[g].busy_seconds;
    const double t =
        static_cast<double>(after.gangs[g].tasks - before.gangs[g].tasks);
    max_tasks = std::max(max_tasks, t);
    sum_tasks += t;
  }
  const double gangs = static_cast<double>(after.gangs.size());
  const double wall = after.uptime_seconds - before.uptime_seconds;
  rep.add("executor.busy_frac", busy / (gangs * wall), after.gangs.size(),
          "gang busy / (gangs x wall)");
  rep.add("executor.gang_task_skew",
          sum_tasks > 0 ? max_tasks / (sum_tasks / gangs) : 0.0,
          after.gangs.size(), "max gang tasks / mean");
}

// ---------------------------------------------------------------------------
// solve-2d-mem: the paper's headline configuration, memory-bound.
// ---------------------------------------------------------------------------

// 12544^2 f64 is 1.26 GB per array: >= 4x a 300 MiB LLC, and a multiple of
// the 64-element transpose block of the widest f64 kernel.
constexpr index kMemN = 12544;
constexpr index kMemSteps = 32;
constexpr int kMemSetups = 3;
constexpr int kMemSamples = 16;  // oracle-checked interior points

using MemPlan =
    tsv::TypedPlan<tsv::Grid2D<double>, tsv::Stencil2D<1, 3, double>>;

tsv::Options mem_options(int threads) {
  tsv::Options o;
  o.method = tsv::Method::kTransposeUJ;
  o.tiling = tsv::Tiling::kTessellate;
  o.steps = kMemSteps;
  o.bx = 256;
  o.by = 128;
  o.bt = 32;
  o.threads = threads;
  o.tune = tsv::Tune::kOff;
  o.boundary = tsv::BoundarySpec::uniform(tsv::Boundary::kZero);
  return o;
}

/// Recomputes interior point (px, py) after @p steps steps with the scalar
/// oracle over the point's dependence cone (zero outside the domain) and
/// compares it with @p g within the dtype tolerance.
bool cone_check(const tsv::Grid2D<double>& g, std::uint64_t seed,
                const tsv::Stencil2D<1, 3, double>& s, index steps, index px,
                index py) {
  const index x0 = std::max<index>(0, px - steps);
  const index x1 = std::min<index>(g.nx(), px + steps + 1);
  const index y0 = std::max<index>(0, py - steps);
  const index y1 = std::min<index>(g.ny(), py + steps + 1);
  tsv::Grid2D<double> w(x1 - x0, y1 - y0, 1);
  w.fill([&](index x, index y) {
    const bool inside = x >= 0 && x < w.nx() && y >= 0 && y < w.ny();
    return inside ? cell(seed, 0, x + x0, y + y0, 0) : 0.0;
  });
  // Ghosts stay zero: exact on the domain faces; on the window's inner
  // faces the error travels one cell per step and never reaches (px, py).
  tsv::reference_run(w, s, steps,
                     tsv::BoundarySpec::uniform(tsv::Boundary::kZero));
  return std::fabs(g.at(px, py) - w.at(px - x0, py - y0)) <=
         tsv::accuracy_tolerance<double>(steps);
}

void run_solve_2d_mem(const Args& args, Report& rep) {
  const int threads = nproc();
  const tsv::Shape shape = tsv::shape2d(kMemN, kMemN);
  const auto stencil = tsv::make_2d5p<double>();
  const double points = static_cast<double>(kMemN) * kMemN;
  record_machine(rep);
  record_array(rep, points * sizeof(double));

  double stream_gbs = 0.0;
  if (args.trace)  // before the grid exists: at most two arrays live at once
    stream_gbs = stream_copy_gbs(static_cast<std::size_t>(points) * 8);

  // Set-up: grid construction, plan construction and one warm-up execute.
  // The seeded fill is input generation and stays outside the timing.
  std::unique_ptr<tsv::Grid2D<double>> grid;
  std::unique_ptr<MemPlan> plan;
  std::vector<double> setups;
  const int reps = args.trace ? 1 : kMemSetups;
  g_trace.on = args.trace;  // set-up spans; the first timed phase is untraced
  for (int r = 0; r < reps; ++r) {
    plan.reset();
    grid.reset();
    double s = g_trace.time("grid.construct", [&] {
      grid = std::make_unique<tsv::Grid2D<double>>(kMemN, kMemN, 1);
    });
    fill_2d(*grid, args.seed, 0);
    s += g_trace.time("plan.make_plan", [&] {
      plan = std::make_unique<MemPlan>(
          tsv::make_plan(shape, stencil, mem_options(threads)));
    });
    s += g_trace.time("plan.execute", [&] { plan->execute(*grid); });
    setups.push_back(s);
  }
  g_trace.on = false;
  rep.context("plan", plan_json(plan->config()));

  const auto exec = [&] { plan->execute(*grid); };
  const std::vector<double> walls = timed_calls(args.seconds, 2, exec);
  const index steps_done = kMemSteps * (1 + static_cast<index>(walls.size()));
  rep.attempted = static_cast<std::size_t>(reps) + walls.size();

  // Output check: sampled interior points (four near the corners, the rest
  // seeded) against the scalar oracle over their dependence cones.
  Rng rng(args.seed ^ 0x5a5a);
  int bad = 0;
  for (int i = 0; i < kMemSamples; ++i) {
    index px = static_cast<index>(rng.uniform() * kMemN);
    index py = static_cast<index>(rng.uniform() * kMemN);
    if (i < 4) {
      px = (i & 1) ? kMemN - 1 - i : i;
      py = (i & 2) ? kMemN - 1 - i : i;
    }
    if (!cone_check(*grid, args.seed, stencil, steps_done, px, py)) ++bad;
  }
  if (bad > 0) {
    rep.failed = 1;
    rep.fail_check(std::to_string(bad) + " of " + std::to_string(kMemSamples) +
                   " sampled points differ from the scalar oracle");
  }

  if (!args.trace) {
    report_solve(rep, walls, kMemSteps, points, setups);
    return;
  }

  // Traced run: the same calls again with spans on, then the layer probes.
  g_trace.on = true;
  const std::vector<double> traced =
      timed_calls(args.seconds, 2, exec, "plan.execute");
  const double glups = points * kMemSteps / median(walls) / 1e9;
  const double glups_traced = points * kMemSteps / median(traced) / 1e9;

  const auto plan1 = tsv::make_plan(shape, stencil, mem_options(1));
  const double single_s =
      g_trace.time("plan.execute", [&] { plan1.execute(*grid); });

  tsv::Grid2D<double> small(256, 256, 1);  // 512 KiB: L2-resident
  fill_2d(small, args.seed, 1);
  const auto incache =
      tsv::make_plan(tsv::shape_of(small), stencil, mem_options(1));
  incache.execute(small);
  const std::vector<double> incache_walls = timed_calls(
      1.0, 3, [&] { incache.execute(small); }, "plan.execute");
  const std::vector<double> fill_walls = timed_calls(
      0.2, 5,
      [&] {
        tsv::fill_ghosts(*grid,
                         tsv::BoundarySpec::uniform(tsv::Boundary::kZero), 1);
      },
      "halo.fill_ghosts");

  const double bytes_per_update = 2.0 * sizeof(double);
  const double naive_gbs = glups * bytes_per_update;
  rep.add("mem.stream_gbs", stream_gbs, 5, "copy, all cores, array-sized");
  rep.add("kernels.flops_per_update", stencil.flops_per_point, 1, "computed");
  rep.add("kernels.bytes_per_update", bytes_per_update, 1,
          "computed: one read + one write per update, no reuse");
  rep.add("tiling.naive_equiv_gbs", naive_gbs, walls.size(),
          "solve_glups x bytes_per_update");
  rep.add("tiling.reuse_x", naive_gbs / stream_gbs, walls.size(),
          "naive_equiv / stream");
  rep.add("tiling.scaling_eff",
          glups / (threads * points * kMemSteps / single_s / 1e9), 1,
          "vs the same problem on 1 thread");
  rep.add("vectorize.incache_glups",
          256.0 * 256.0 * kMemSteps / median(incache_walls) / 1e9,
          incache_walls.size(), "256^2 f64, same options, 1 thread");
  rep.add("halo.fill_us", median(fill_walls) * 1e6, fill_walls.size(),
          "fill_ghosts (zero) on the whole grid");
  na_all(rep,
         {"vectorize.shard_step_ms", "layout.transform_ms",
          "shard.exchange_us", "shard.exchange_bytes",
          "shard.step_overhead_frac", "executor.busy_frac",
          "executor.gang_task_skew"},
         "no shards or executor on this workload");
  na_serving(rep);
  rep.add("trace.overhead_frac", (glups - glups_traced) / glups, traced.size(),
          "solve_glups untraced vs traced");
}

// ---------------------------------------------------------------------------
// sharded-3d-periodic: per-step halo refresh, shard exchange, layout
// transform and executor wave barrier around a compute-bound 27-point
// kernel. nproc closed-loop callers each own one sharded grid and share one
// Executor of nproc gangs: while a caller waits at its wave barrier the
// gangs run the other callers' shards, so a slow vCPU costs the run a share
// of its throughput instead of every barrier's wait. One caller alone
// spread 0.09-0.32 across runs on the sizing VM (NOTES.md).
// ---------------------------------------------------------------------------

constexpr index kShNx = 256, kShNy = 128, kShNz = 64;
constexpr index kShSteps = 8;
constexpr int kShSetups = 7;

using Grid3 = tsv::Grid3D<double>;
using Sten27 = tsv::Stencil3D<1, 9, double>;
using ShGrid = tsv::ShardedGrid<Grid3>;
using ShPlan = tsv::ShardedPlan<Grid3, Sten27>;

// Centre weight that makes the 27 taps of make_3d27p sum to 1 (the others
// are wc / (2d + 1) at Manhattan distance d). With the factory default the
// taps sum to 0.654, so the periodic field decays into subnormal numbers
// after ~1600 steps and every call then runs ~40x slower.
constexpr double kSten27Centre = 1.0 / (1.0 + 6.0 / 3 + 12.0 / 5 + 8.0 / 7);

tsv::Options sharded_options() {
  tsv::Options o;
  o.method = tsv::Method::kTranspose;
  o.tiling = tsv::Tiling::kNone;
  o.steps = kShSteps;
  o.boundary = tsv::BoundarySpec::uniform(tsv::Boundary::kPeriodic);
  return o;
}

/// block_transpose_grid at the plan's resolved kernel width.
void transform_shard(Grid3& g, index width) {
  switch (width) {
    case 2: tsv::block_transpose_grid<double, 2>(g); break;
    case 4: tsv::block_transpose_grid<double, 4>(g); break;
    default: tsv::block_transpose_grid<double, 8>(g); break;
  }
}

/// Runs every caller's calls concurrently, one thread per caller, and
/// returns the walls of the calls that ended within @p seconds (at least
/// @p min_calls per caller). A caller past the deadline keeps calling,
/// unrecorded, until every caller is past it, so each recorded call ran
/// against all the others. Spans, if @p span is given, carry the caller
/// index as request id.
std::vector<double> timed_callers(double seconds, int min_calls,
                                  std::vector<std::function<void()>>& calls,
                                  const char* span = nullptr) {
  const int n = static_cast<int>(calls.size());
  std::vector<std::vector<double>> per(calls.size());
  std::atomic<int> past{0};
  std::vector<std::thread> threads;
  const double deadline = now_s() + seconds;
  for (int c = 0; c < n; ++c)
    threads.emplace_back([&, c] {
      std::vector<double>& walls = per[static_cast<std::size_t>(c)];
      bool is_past = false;
      while (!is_past || past.load() < n) {
        const double t0 = now_s();
        calls[static_cast<std::size_t>(c)]();
        const double t1 = now_s();
        if (t1 <= deadline || static_cast<int>(walls.size()) < min_calls) {
          if (span != nullptr)
            g_trace.add(span, t0, t1, -1, static_cast<std::uint64_t>(c));
          walls.push_back(t1 - t0);
        }
        if (!is_past && t1 > deadline &&
            static_cast<int>(walls.size()) >= min_calls) {
          is_past = true;
          ++past;
        }
      }
    });
  for (std::thread& t : threads) t.join();
  std::vector<double> walls;
  for (const auto& w : per) walls.insert(walls.end(), w.begin(), w.end());
  return walls;
}

void run_sharded_3d_periodic(const Args& args, Report& rep) {
  const tsv::Shape shape = tsv::shape3d(kShNx, kShNy, kShNz);
  const Sten27 stencil = tsv::make_3d27p<double>(kSten27Centre);
  const tsv::Options opts = sharded_options();
  const int callers = nproc();
  const tsv::ShardSpec spec{.count = nproc(), .threads_per_shard = 1};
  const tsv::ExecutorConfig ex_cfg{.gangs = nproc(), .threads_per_gang = 1};
  const double points = static_cast<double>(kShNx) * kShNy * kShNz;
  record_machine(rep);
  record_array(rep, callers * points * sizeof(double));
  rep.context("callers", std::to_string(callers));

  std::vector<Grid3> inits;
  for (int c = 0; c < callers; ++c) {
    inits.emplace_back(kShNx, kShNy, kShNz, 1);
    fill_3d(inits.back(), args.seed, static_cast<std::uint64_t>(c));
  }

  // Set-up: executor, then per caller sharded grid, sharded plan and
  // scatter, then one warm-up execute per caller over the executor, all
  // callers at once as in the timed phase.
  std::unique_ptr<tsv::Executor> ex;
  std::vector<std::unique_ptr<ShGrid>> sgs(callers);
  std::vector<std::unique_ptr<ShPlan>> plans(callers);
  std::vector<std::function<void()>> calls;
  for (int c = 0; c < callers; ++c)
    calls.push_back([&, c] { plans[c]->execute(*sgs[c], *ex); });
  std::vector<double> setups;
  const int reps = args.trace ? 1 : kShSetups;
  g_trace.on = args.trace;  // set-up spans; the first timed phase is untraced
  for (int r = 0; r < reps; ++r) {
    for (auto& p : plans) p.reset();
    for (auto& g : sgs) g.reset();
    ex.reset();
    double s = g_trace.time("executor.construct", [&] {
      ex = std::make_unique<tsv::Executor>(ex_cfg);
    });
    for (int c = 0; c < callers; ++c) {
      s += g_trace.time("shard.construct_grid", [&] {
        sgs[c] = std::make_unique<ShGrid>(inits[c], spec);
      });
      s += g_trace.time("plan.make_sharded_plan", [&] {
        plans[c] = std::make_unique<ShPlan>(
            tsv::make_sharded_plan(shape, stencil, spec, opts));
      });
      s += g_trace.time("shard.scatter", [&] { sgs[c]->scatter(inits[c]); });
    }
    s += g_trace.time("plan.execute_sharded", [&] {
      std::vector<std::thread> threads;
      for (auto& call : calls) threads.emplace_back(call);
      for (std::thread& t : threads) t.join();
    });
    setups.push_back(s);
  }
  g_trace.on = false;
  rep.context("shards", std::to_string(plans[0]->shards()));
  rep.context("gangs", std::to_string(ex_cfg.gangs));
  rep.context("plan", plan_json(plans[0]->shard_plan(0).config()));

  // Checks: every caller's sharded result equals the monolithic plan's bit
  // for bit, once after the warm-up and once for a step block after the
  // timed phase.
  const auto mono = tsv::make_plan(shape, stencil, opts);
  Grid3 got = inits[0];
  std::vector<Grid3> want = inits;
  const auto check_equal = [&](int c, const char* when) {
    sgs[c]->gather(got);
    mono.execute(want[c]);
    if (tsv::max_abs_diff(got, want[c]) != 0.0) {
      ++rep.failed;
      rep.fail_check("caller " + std::to_string(c) +
                     ": sharded result differs from the monolithic plan " +
                     when);
    }
  };
  for (int c = 0; c < callers; ++c) check_equal(c, "after the warm-up execute");

  const tsv::ExecutorStats ex_before = ex->stats();
  const std::vector<double> walls = timed_callers(args.seconds, 5, calls);
  const tsv::ExecutorStats ex_after = ex->stats();

  for (int c = 0; c < callers; ++c) {
    sgs[c]->gather(want[c]);
    plans[c]->execute(*sgs[c], *ex);
    check_equal(c, "after the timed phase");
  }
  rep.attempted = static_cast<std::size_t>(reps + 1) * callers + walls.size();

  if (!args.trace) {
    report_solve(rep, walls, kShSteps, points, setups, callers);
    return;
  }

  g_trace.on = true;
  const std::vector<double> traced =
      timed_callers(args.seconds, 5, calls, "plan.execute_sharded");
  const double glups = callers * points * kShSteps / median(walls) / 1e9;
  const double glups_traced =
      callers * points * kShSteps / median(traced) / 1e9;

  // Layer probes: each public call of the step loop, made directly and one
  // at a time on caller 0's (already checked) sharded grid.
  ShGrid& sg = *sgs[0];
  const ShPlan& plan = *plans[0];
  const tsv::BoundarySpec bc = plan.boundary();
  std::vector<double> sweep, fill, exch, transform;
  for (int r = 0; r < 20; ++r)
    for (int i = 0; i < plan.shards(); ++i) {
      Grid3& shard = sg.shard(i);
      fill.push_back(g_trace.time("halo.fill_shard_ghosts",
                                  [&] { sg.fill_shard_ghosts(i, bc, 1); }));
      exch.push_back(g_trace.time("shard.exchange_shard_ghosts", [&] {
        sg.exchange_shard_ghosts(i, bc, 1);
      }));
      sweep.push_back(g_trace.time("vectorize.shard_plan_execute", [&] {
        plan.shard_plan(i).execute(shard);
      }));
      const index w = plan.shard_plan(i).config().width;
      transform.push_back(g_trace.time("layout.block_transpose_grid",
                                       [&] { transform_shard(shard, w); }));
      transform_shard(shard, w);  // self-inverse: restore the layout
    }

  Grid3 small(64, 32, 32, 1);  // 512 KiB: L2-resident
  fill_3d(small, args.seed, static_cast<std::uint64_t>(callers));
  const auto incache = tsv::make_plan(tsv::shape_of(small), stencil, opts);
  incache.execute(small);
  const std::vector<double> incache_walls = timed_calls(
      1.0, 3, [&] { incache.execute(small); }, "plan.execute");

  const double face_bytes =
      static_cast<double>((kShNx + 2) * (kShNy + 2)) * sizeof(double);
  rep.add("mem.stream_gbs",
          stream_copy_gbs(static_cast<std::size_t>(callers * points) * 8), 5,
          "copy, all cores, size of all callers' grids (L3-resident)");
  rep.add("kernels.flops_per_update", stencil.flops_per_point, 1, "computed");
  rep.add("kernels.bytes_per_update", 2.0 * sizeof(double), 1,
          "computed: one read + one write per update, no reuse");
  na_all(rep,
         {"tiling.naive_equiv_gbs", "tiling.reuse_x", "tiling.scaling_eff"},
         "periodic boundaries force bt=1: no temporal tiling");
  rep.add("vectorize.incache_glups",
          64.0 * 32 * 32 * kShSteps / median(incache_walls) / 1e9,
          incache_walls.size(), "64x32x32 f64, same options, 1 thread");
  rep.add("vectorize.shard_step_ms", median(sweep) * 1e3, sweep.size(),
          "shard_plan(i).execute, one step");
  rep.add("layout.transform_ms", median(transform) * 1e3, transform.size(),
          "block_transpose_grid on one shard");
  rep.add("halo.fill_us", median(fill) * 1e6, fill.size(),
          "fill_shard_ghosts per call");
  rep.add("shard.exchange_us", median(exch) * 1e6, exch.size(),
          "exchange_shard_ghosts per call");
  rep.add("shard.exchange_bytes", 2.0 * plan.shards() * face_bytes, 1,
          "computed per step and grid: two extended planes per shard");
  rep.add("shard.step_overhead_frac",
          (median(fill) + median(exch)) /
              (median(fill) + median(exch) + median(sweep)),
          sweep.size(), "(fill + exchange) / (fill + exchange + sweep), probes");
  report_gangs(rep, ex_before, ex_after);
  na_serving(rep);
  rep.add("trace.overhead_frac", (glups - glups_traced) / glups, traced.size(),
          "solve_glups untraced vs traced");
}

// ---------------------------------------------------------------------------
// serve-mixed: open-loop Poisson arrivals into a Scheduler.
// ---------------------------------------------------------------------------

// Offered load, frozen: about 0.3 of gang capacity (nproc - 1 gangs;
// executor.busy_frac 0.28 on the sizing host). At 0.6 the latency tails
// spread by 0.4-1.5 across runs on that host; NOTES.md has the figures.
constexpr double kInteractiveRate = 400.0;  // requests / s
constexpr double kBatchRate = 60.0;         // requests / s
// Tails are taken per slice of the arrival window: 5 s holds 2000
// interactive arrivals (p99 with 20 beyond) and 300 batch ones (p95 with 15).
constexpr double kTailSliceS = 5.0;
constexpr double kPopularShare = 0.25;  // interactive arrivals that repeat
constexpr int kVariants = 4;  // seeded source grids per request type
constexpr double kInteractiveDeadlineMs = 20.0;
constexpr double kBatchDeadlineMs = 250.0;
constexpr double kScrapeIntervalS = 0.01;
// One request in flight per tenant: the two batch tenants hold at most two
// of the three gangs, so interactive work always finds one batch cannot take.
constexpr int kTenantQuota = 1;
constexpr int kServeSetups = 5;
constexpr int kVerifyOneIn = 8;  // sampled re-execution rate (plus followers)

const char* const kInteractiveTenants[] = {"web-a", "web-b", "web-c"};
const char* const kBatchTenants[] = {"sim-a", "sim-b"};

using AnyGrid =
    std::variant<tsv::Grid2D<double>, tsv::Grid2D<float>, tsv::Grid3D<double>>;

struct ReqType {
  const char* name;
  tsv::ServiceClass cls;
  int grid_kind;  ///< AnyGrid alternative: 0 2D f64, 1 2D f32, 2 3D f64
  index nx, ny, nz;
  tsv::StencilSpec spec;
  tsv::Options options;
  double deadline_ms;
};

tsv::Options serve_options(tsv::Method m, tsv::Tiling t, tsv::Dtype d,
                           index steps, tsv::Boundary b, index bx = 0,
                           index by = 0, index bz = 0, index bt = 0) {
  tsv::Options o;
  o.method = m;
  o.tiling = t;
  o.dtype = d;
  o.steps = steps;
  o.boundary = tsv::BoundarySpec::uniform(b);
  o.bx = bx;
  o.by = by;
  o.bz = bz;
  o.bt = bt;
  return o;
}

/// Seeded 2d9p coefficients (center, edge, corner) whose nine taps sum to 1.
std::vector<double> seeded_2d9p(Rng& rng) {
  const double c = 0.5 + rng.uniform(), e = 0.5 + rng.uniform(),
               k = 0.5 + rng.uniform();
  const double sum = c + 4 * e + 4 * k;
  return {c / sum, e / sum, k / sum};
}

/// @p gs with seeded positive tap weights summing to 1.
std::shared_ptr<const tsv::GenericStencil> seeded_taps(Rng& rng,
                                                       tsv::GenericStencil gs) {
  double sum = 0.0;
  for (tsv::GenericTap& t : gs.taps) sum += (t.weight = 0.2 + rng.uniform());
  for (tsv::GenericTap& t : gs.taps) t.weight /= sum;
  return std::make_shared<const tsv::GenericStencil>(std::move(gs));
}

/// The request mix. Interactive: small 2D 5-point grids, f64 and f32, zero
/// and periodic. Batch: tiled compiled 2D/3D stencils plus GenericStencil
/// requests from a pool of seeded tap sets. "g-box9" is the 2d9p box with
/// the same seeded weights as "b-2d9p-tiled", so the traced run can time
/// the interpreter against the compiled kernel on the same taps.
std::vector<ReqType> request_types(std::uint64_t seed) {
  using tsv::Boundary;
  using tsv::Dtype;
  using tsv::Method;
  using tsv::StencilKind;
  using tsv::Tiling;
  Rng rng(seed ^ 0x7a95);
  std::vector<ReqType> t;
  const auto inter = [&](const char* name, int kind, index nx, index ny,
                         Dtype d, Boundary b) {
    t.push_back({name, tsv::ServiceClass::kInteractive, kind, nx, ny, 1,
                 {.kind = StencilKind::k2d5p},
                 serve_options(Method::kTranspose, Tiling::kNone, d, 8, b),
                 kInteractiveDeadlineMs});
  };
  inter("i-f64-zero", 0, 256, 64, Dtype::kF64, Boundary::kZero);
  inter("i-f64-periodic", 0, 256, 64, Dtype::kF64, Boundary::kPeriodic);
  inter("i-f32-zero", 1, 512, 32, Dtype::kF32, Boundary::kZero);
  inter("i-f32-periodic", 1, 512, 32, Dtype::kF32, Boundary::kPeriodic);

  const auto batch = [&](const char* name, int kind, index nx, index ny,
                         index nz, tsv::StencilSpec spec, tsv::Options o) {
    t.push_back({name, tsv::ServiceClass::kBatch, kind, nx, ny, nz,
                 std::move(spec), o, kBatchDeadlineMs});
  };
  const std::vector<double> box = seeded_2d9p(rng);
  batch("b-2d9p-tiled", 0, 256, 256, 1,
        {.kind = StencilKind::k2d9p, .coeffs = box},
        serve_options(Method::kTransposeUJ, Tiling::kTessellate, Dtype::kF64,
                      128, Boundary::kZero, 256, 64, 0, 8));
  batch("b-3d7p-tiled", 2, 64, 32, 32, {.kind = StencilKind::k3d7p},
        serve_options(Method::kTransposeUJ, Tiling::kTessellate, Dtype::kF64,
                      96, Boundary::kZero, 64, 16, 16, 4));
  const auto gen2 = [](index steps) {
    return serve_options(Method::kGeneric, Tiling::kNone, Dtype::kF64, steps,
                         Boundary::kZero);
  };
  batch("g-box9", 0, 256, 256, 1,
        {.generic = std::make_shared<const tsv::GenericStencil>(
             tsv::generic_from_kind(StencilKind::k2d9p, box))},
        gen2(160));
  batch("g-star2", 0, 256, 256, 1,
        {.generic = seeded_taps(rng, tsv::generic_star(2, 2, 0.0, 0.0))},
        gen2(128));
  batch("g-upwind", 0, 256, 256, 1,
        {.generic = seeded_taps(
             rng, {.rank = 2,
                   .taps = {{0, 0, 0, 0.0}, {-1, 0, 0, 0.0}, {-2, 0, 0, 0.0},
                            {0, -1, 0, 0.0}, {1, 1, 0, 0.0}}})},
        gen2(160));
  batch("g-star3d", 2, 32, 32, 32,
        {.generic = seeded_taps(rng, tsv::generic_star(3, 1, 0.0, 0.0))},
        serve_options(Method::kGeneric, Tiling::kTessellate, Dtype::kF64, 128,
                      Boundary::kPeriodic, 32, 16, 16, 1));
  return t;
}

/// Grids carry exactly the halo their stencil's radius needs.
AnyGrid make_grid(const ReqType& rt, std::uint64_t seed, std::uint64_t stream) {
  const index halo = rt.spec.generic ? rt.spec.generic->effective_radius()
                                     : tsv::stencil_kind_radius(rt.spec.kind);
  if (rt.grid_kind == 0) {
    tsv::Grid2D<double> g(rt.nx, rt.ny, halo);
    fill_2d(g, seed, stream);
    return g;
  }
  if (rt.grid_kind == 1) {
    tsv::Grid2D<float> g(rt.nx, rt.ny, halo);
    fill_2d(g, seed, stream);
    return g;
  }
  tsv::Grid3D<double> g(rt.nx, rt.ny, rt.nz, halo);
  fill_3d(g, seed, stream);
  return g;
}

std::uint64_t digest_any(const AnyGrid& g) {
  return std::visit([](const auto& grid) { return digest(grid); }, g);
}

tsv::Scheduler::GridRef ref_of(AnyGrid& g) {
  return std::visit([](auto& grid) { return tsv::Scheduler::GridRef{&grid}; },
                    g);
}

struct Arrival {
  double due_s = 0.0;  ///< scheduled time, relative to the window start
  int type = 0;
  int variant = 0;
  bool popular = false;
  bool sample = false;  ///< re-executed serially after the window
  int tenant = 0;
};

/// Open-loop arrival schedule of one window. Each class gets exactly
/// rate x seconds arrivals at uniform random times (a Poisson process
/// conditioned on its count) and each type of a class an equal share in a
/// seeded order; a fixed share of the interactive arrivals repeats its
/// type's popular input. Fixed counts keep the offered work the same for
/// every seed, so seeds differ in arrival pattern, tenants and contents.
std::vector<Arrival> make_schedule(std::uint64_t seed, double seconds,
                                   const std::vector<ReqType>& types) {
  Rng rng(seed ^ 0xa881);
  const auto shuffle = [&](auto& v) {
    for (std::size_t i = v.size(); i > 1; --i)
      std::swap(v[i - 1],
                v[static_cast<std::size_t>(rng.pick(static_cast<int>(i)))]);
  };
  std::vector<Arrival> out;
  const auto add_class = [&](tsv::ServiceClass cls, double rate, int tenants,
                             double popular_share) {
    std::vector<int> ids;
    for (std::size_t i = 0; i < types.size(); ++i)
      if (types[i].cls == cls) ids.push_back(static_cast<int>(i));
    const auto n = static_cast<std::size_t>(std::llround(rate * seconds));
    const std::size_t popular =
        static_cast<std::size_t>(std::llround(popular_share * n));
    std::vector<int> deck(n);
    std::vector<char> repeats(n);
    for (std::size_t k = 0; k < n; ++k) {
      deck[k] = ids[k % ids.size()];
      repeats[k] = k < popular;
    }
    shuffle(deck);
    shuffle(repeats);
    for (std::size_t k = 0; k < n; ++k) {
      Arrival a;
      a.due_s = rng.uniform() * seconds;
      a.type = deck[k];
      a.popular = repeats[k];
      a.variant = a.popular ? 0 : rng.pick(kVariants);
      a.tenant = rng.pick(tenants);
      a.sample = rng.pick(kVerifyOneIn) == 0;
      out.push_back(a);
    }
  };
  add_class(tsv::ServiceClass::kInteractive, kInteractiveRate,
            std::size(kInteractiveTenants), kPopularShare);
  add_class(tsv::ServiceClass::kBatch, kBatchRate, std::size(kBatchTenants),
            0.0);
  std::sort(out.begin(), out.end(), [](const Arrival& x, const Arrival& y) {
    return x.due_s < y.due_s;
  });
  return out;
}

/// A request's input: its type's seeded source grid. A popular arrival
/// repeats variant 0 unchanged; every other request gets one interior cell
/// with a request-specific value, so that only the popular share coalesces.
/// A pure function of (seed, arrival index): the verifier rebuilds it after
/// the window.
AnyGrid request_input(const std::vector<std::vector<AnyGrid>>& sources,
                      const Arrival& a, std::uint64_t seed, std::size_t idx) {
  AnyGrid g = sources[static_cast<std::size_t>(a.type)]
                     [static_cast<std::size_t>(a.variant)];
  if (!a.popular) {
    const double v = 0.25 + 0.5 * unit(mix(seed ^ (0x1000000ull + idx)));
    std::visit(
        [&](auto& grid) {
          using G = std::decay_t<decltype(grid)>;
          using T = typename G::value_type;
          if constexpr (G::kRank == 2) grid.at(0, 0) = static_cast<T>(v);
          else grid.at(0, 0, 0) = static_cast<T>(v);
        },
        g);
  }
  return g;
}

struct Outcome {
  double latency_s = std::numeric_limits<double>::infinity();
  bool ok = false;
  bool coalesced = false;
  std::uint64_t dispatch_seq = 0;
  std::uint64_t digest = 0;
  double submit_s = 0.0;  ///< benchmark clock, just before submit()
  double submit_end_s = 0.0;
};

struct WindowResult {
  std::vector<Outcome> outcomes;
  std::vector<double> lag_ms;
  std::vector<double> scrape_ms;
  std::size_t scrape_bytes = 0;  ///< size of the last Prometheus page
  double start_s = 0.0;  ///< benchmark clock at the window's t = 0
  tsv::SchedulerStats stats;
  tsv::ExecutorStats ex_before;
  std::vector<std::string> invariant_violations;
};

tsv::SchedulerConfig serve_config(bool traced) {
  tsv::SchedulerConfig c;
  c.executor = {.gangs = std::max(1, nproc() - 1), .threads_per_gang = 1};
  c.queue_capacity = 1024;
  c.max_inflight_per_tenant = kTenantQuota;
  c.trace_capacity = traced ? (1u << 16) : 0;
  return c;
}

/// Set-up: scheduler construction plus one warm-up request of every type,
/// which builds every plan and workspace. Returns the wall time.
double serve_setup(std::unique_ptr<tsv::Scheduler>& sched, bool traced,
                   const std::vector<ReqType>& types,
                   const std::vector<std::vector<AnyGrid>>& sources) {
  std::vector<AnyGrid> warm;
  for (const auto& s : sources) warm.push_back(s[0]);
  sched.reset();
  const double t0 = now_s();
  g_trace.time("scheduler.construct", [&] {
    sched = std::make_unique<tsv::Scheduler>(serve_config(traced));
  });
  std::vector<std::future<tsv::Scheduler::Result>> futs;
  for (std::size_t i = 0; i < types.size(); ++i)
    futs.push_back(sched->submit({.grid = ref_of(warm[i]),
                                  .stencil = types[i].spec,
                                  .options = types[i].options,
                                  .cls = types[i].cls,
                                  .tenant = "warmup"}));
  // Every warm-up must finish before `warm` goes out of scope, so a failure
  // is rethrown only after the rest have drained.
  std::exception_ptr first;
  for (auto& f : futs) try {
      f.get();
    } catch (...) {
      if (!first) first = std::current_exception();
    }
  if (first) std::rethrow_exception(first);
  const double t1 = now_s();
  g_trace.add("scheduler.warmup", t0, t1);
  return t1 - t0;
}

/// One open-loop arrival window. This thread is the generator: it prepares
/// each request's input before the request is due, waits until due,
/// submits, and scrapes the metrics registry at a fixed interval. A
/// collector thread retires futures in order, fingerprints the outputs that
/// will be verified and frees the grids.
WindowResult serve_window(tsv::Scheduler& sched,
                          const std::vector<ReqType>& types,
                          const std::vector<std::vector<AnyGrid>>& sources,
                          const std::vector<Arrival>& schedule,
                          std::uint64_t seed) {
  WindowResult w;
  w.outcomes.resize(schedule.size());
  w.ex_before = sched.executor().stats();
  tsv::MetricsRegistry registry;
  registry.attach(&sched);

  struct InFlight {
    std::size_t idx = 0;
    std::unique_ptr<AnyGrid> grid;
    std::future<tsv::Scheduler::Result> fut;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::deque<InFlight> pending;  // guarded by mu
  bool done = false;             // guarded by mu

  std::thread collector([&] {
    for (;;) {
      InFlight f;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return done || !pending.empty(); });
        if (pending.empty()) return;
        f = std::move(pending.front());
        pending.pop_front();
      }
      Outcome& o = w.outcomes[f.idx];
      try {
        const tsv::Scheduler::Result r = f.fut.get();
        o.ok = true;
        o.coalesced = r.coalesced;
        o.dispatch_seq = r.dispatch_seq;
        // Scheduled arrival -> ready: the generator's lag plus the
        // scheduler's admission -> completion time.
        o.latency_s = o.submit_s - (w.start_s + schedule[f.idx].due_s) +
                      r.latency_seconds;
      } catch (...) {
        o.ok = false;  // rejected, shed or failed: latency stays +inf
      }
      if (o.ok && (schedule[f.idx].sample || o.coalesced))
        o.digest = digest_any(*f.grid);
    }
  });

  const auto stop_collector = [&] {
    {
      std::lock_guard<std::mutex> lock(mu);
      done = true;
    }
    cv.notify_one();
    collector.join();
  };
  // The generator spins rather than sleeps: on the sizing VM a sleeping
  // generator woke 0.1-0.5 ms late at the median, which is comparable to
  // the interactive service time it would be charged to.
  const auto wait_for = [](double s) {
    for (const double until = now_s() + s; now_s() < until;) {
    }
  };
  try {
    w.start_s = now_s();
    double next_scrape = 0.0;
    for (std::size_t i = 0; i < schedule.size(); ++i) {
      const Arrival& a = schedule[i];
      const ReqType& rt = types[static_cast<std::size_t>(a.type)];
      auto grid =
          std::make_unique<AnyGrid>(request_input(sources, a, seed, i));
      for (;;) {
        const double now = now_s() - w.start_s;
        if (next_scrape < a.due_s) {  // a scrape falls due first
          if (now < next_scrape) {
            wait_for(next_scrape - now);
            continue;
          }
          const double t0 = now_s();
          w.scrape_bytes =
              tsv::metrics_to_prometheus(registry.snapshot()).size();
          const double t1 = now_s();
          g_trace.add("metrics.scrape", t0, t1);
          w.scrape_ms.push_back((t1 - t0) * 1e3);
          next_scrape += kScrapeIntervalS;
          continue;
        }
        if (now >= a.due_s) break;
        wait_for(a.due_s - now);
      }
      Outcome& o = w.outcomes[i];
      o.submit_s = now_s();
      w.lag_ms.push_back((o.submit_s - w.start_s - a.due_s) * 1e3);
      const char* tenant = rt.cls == tsv::ServiceClass::kInteractive
                               ? kInteractiveTenants[a.tenant]
                               : kBatchTenants[a.tenant];
      auto fut = sched.submit({.grid = ref_of(*grid),
                               .stencil = rt.spec,
                               .options = rt.options,
                               .cls = rt.cls,
                               .deadline_ms = rt.deadline_ms,
                               .tenant = tenant});
      o.submit_end_s = now_s();
      {
        std::lock_guard<std::mutex> lock(mu);
        pending.push_back({i, std::move(grid), std::move(fut)});
      }
      cv.notify_one();
    }
  } catch (...) {
    stop_collector();  // the collector writes into `w`: join before unwinding
    throw;
  }
  stop_collector();
  sched.wait_idle();
  sched.executor().wait_idle();
  w.stats = sched.stats();
  w.invariant_violations =
      tsv::metrics_check_invariants(registry.snapshot(), /*idle=*/true);
  return w;
}

/// Re-executes the sampled requests and every coalesced follower serially
/// through Plan::execute and compares bitwise; marks mismatches in @p wrong.
std::size_t verify_window(const WindowResult& w,
                          const std::vector<ReqType>& types,
                          const std::vector<std::vector<AnyGrid>>& sources,
                          const std::vector<Arrival>& schedule,
                          std::uint64_t seed, std::vector<bool>& wrong) {
  std::size_t checked = 0;
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const Outcome& o = w.outcomes[i];
    if (!o.ok || !(schedule[i].sample || o.coalesced)) continue;
    const ReqType& rt = types[static_cast<std::size_t>(schedule[i].type)];
    AnyGrid g = request_input(sources, schedule[i], seed, i);
    tsv::Options serial = rt.options;
    serial.max_threads = 1;
    std::visit(
        [&](auto& grid) {
          tsv::make_plan(tsv::shape_of(grid), rt.spec, serial).execute(grid);
        },
        g);
    ++checked;
    wrong[i] = digest_any(g) != o.digest;
  }
  return checked;
}

/// Spans for one traced window: per request, a root span from the scheduled
/// arrival to completion whose children are the generator's lag, the submit
/// call and the scheduler's own TraceSpan phases (queue, gang wait,
/// service). Rejected or shed requests get only the first two.
void trace_requests(const WindowResult& w,
                    const std::vector<Arrival>& schedule) {
  std::vector<const tsv::TraceSpan*> leaders;
  for (const tsv::TraceSpan& ts : w.stats.traces)
    if (!ts.coalesced) leaders.push_back(&ts);
  std::sort(leaders.begin(), leaders.end(), [](const auto* a, const auto* b) {
    return a->dispatch_seq < b->dispatch_seq;
  });
  const auto find = [&](std::uint64_t seq) -> const tsv::TraceSpan* {
    auto it = std::lower_bound(leaders.begin(), leaders.end(), seq,
                               [](const tsv::TraceSpan* p, std::uint64_t s) {
                                 return p->dispatch_seq < s;
                               });
    return it != leaders.end() && (*it)->dispatch_seq == seq ? *it : nullptr;
  };
  // The scheduler's clock counts from its construction; align it with ours
  // through the admission time both sides recorded for each leader.
  std::vector<double> offsets;
  for (const Outcome& o : w.outcomes)
    if (o.ok && !o.coalesced)
      if (const tsv::TraceSpan* ts = find(o.dispatch_seq))
        offsets.push_back(o.submit_s - ts->submit_s);
  const double off = median(offsets);
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const Outcome& o = w.outcomes[i];
    const double due = w.start_s + schedule[i].due_s;
    const long root = g_trace.add(
        "request", due, o.ok ? due + o.latency_s : o.submit_end_s, -1, i);
    g_trace.add("loadgen.lag", due, o.submit_s, root, i);
    g_trace.add("scheduler.submit", o.submit_s, o.submit_end_s, root, i);
    const tsv::TraceSpan* ts = o.ok ? find(o.dispatch_seq) : nullptr;
    if (ts == nullptr) continue;
    g_trace.add("scheduler.queue", ts->submit_s + off, ts->dispatch_s + off,
                root, i);
    g_trace.add("executor.gang_wait", ts->dispatch_s + off, ts->sweep_s + off,
                root, i);
    g_trace.add("plan.service", ts->sweep_s + off, ts->complete_s + off, root,
                i);
  }
}

/// Latencies (ms; +inf for a failed, rejected, shed or wrong request) of
/// one service class, whole window and per kTailSliceS slice of it.
struct ClassSamples {
  std::vector<double> all;
  std::vector<std::vector<double>> slices;

  /// Quantile @p q of each slice, median over the slices. A slice holds at
  /// least 10 / (1 - q) samples at the frozen rates, so each slice's tail
  /// has ten samples beyond it; the median keeps a host stall that covers
  /// a minority of the window from setting the whole run's tail.
  double tail(double q) const {
    std::vector<double> per_slice;
    for (const std::vector<double>& sl : slices)
      if (!sl.empty()) per_slice.push_back(quantile(sl, q));
    return median(per_slice);
  }
};

/// Per-class latencies, the count of correct requests within deadline, and
/// the service span: window start to the last completion.
struct ClassLatencies {
  ClassSamples inter, batch;
  std::size_t good = 0, failed = 0;
  double served_updates = 0.0;
  double span_s = 0.0;
};

ClassLatencies class_latencies(const WindowResult& w,
                               const std::vector<ReqType>& types,
                               const std::vector<Arrival>& schedule,
                               const std::vector<bool>& wrong, double seconds) {
  ClassLatencies c;
  const std::size_t n_slices = static_cast<std::size_t>(
      std::max(1.0, std::floor(seconds / kTailSliceS)));
  c.inter.slices.resize(n_slices);
  c.batch.slices.resize(n_slices);
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const Outcome& o = w.outcomes[i];
    const ReqType& rt = types[static_cast<std::size_t>(schedule[i].type)];
    const bool ok = o.ok && !wrong[i];
    const double ms =
        ok ? o.latency_s * 1e3 : std::numeric_limits<double>::infinity();
    ClassSamples& cs =
        rt.cls == tsv::ServiceClass::kInteractive ? c.inter : c.batch;
    cs.all.push_back(ms);
    cs.slices[std::min(n_slices - 1, static_cast<std::size_t>(
                                         schedule[i].due_s / kTailSliceS))]
        .push_back(ms);
    if (!ok) {
      ++c.failed;
      continue;
    }
    if (ms <= rt.deadline_ms) ++c.good;
    c.span_s = std::max(c.span_s, schedule[i].due_s + o.latency_s);
    c.served_updates += static_cast<double>(rt.nx * rt.ny * rt.nz) *
                        static_cast<double>(rt.options.steps);
  }
  return c;
}

/// Service time of the interpreter on "g-box9" over the compiled 2d9p
/// kernel with the same taps, shape, options and steps, one thread.
double generic_overhead(const std::vector<ReqType>& types,
                        const std::vector<std::vector<AnyGrid>>& sources) {
  for (std::size_t t = 0; t < types.size(); ++t) {
    const ReqType& gen = types[t];
    if (std::strcmp(gen.name, "g-box9") != 0) continue;
    const ReqType& twin = *std::find_if(
        types.begin(), types.end(),
        [](const ReqType& r) { return !std::strcmp(r.name, "b-2d9p-tiled"); });
    tsv::Grid2D<double> g = std::get<0>(sources[t][0]);
    tsv::Options co = gen.options;
    co.method = tsv::Method::kTranspose;
    const tsv::Shape shape = tsv::shape_of(g);
    const tsv::Plan pg = tsv::make_plan(shape, gen.spec, gen.options);
    const tsv::Plan pc = tsv::make_plan(
        shape, {.kind = tsv::StencilKind::k2d9p, .coeffs = twin.spec.coeffs},
        co);
    const auto tg = timed_calls(0.5, 5, [&] { pg.execute(g); }, "plan.execute");
    const auto tc = timed_calls(0.5, 5, [&] { pc.execute(g); }, "plan.execute");
    return median(tg) / median(tc);
  }
  return 0.0;
}

void run_serve_mixed(const Args& args, Report& rep) {
  record_machine(rep);
  const std::vector<ReqType> types = request_types(args.seed);
  std::vector<std::vector<AnyGrid>> sources(types.size());
  for (std::size_t t = 0; t < types.size(); ++t)
    for (int v = 0; v < kVariants; ++v)
      sources[t].push_back(make_grid(types[t], args.seed, 16 * t + v + 1));
  const std::vector<Arrival> schedule =
      make_schedule(args.seed, args.seconds, types);
  {
    char buf[200];
    std::snprintf(buf, sizeof buf,
                  "{\"gangs\": %d, \"interactive_rps\": %.1f, "
                  "\"batch_rps\": %.1f, \"arrivals\": %zu}",
                  std::max(1, nproc() - 1), kInteractiveRate, kBatchRate,
                  schedule.size());
    rep.context("offered", buf);
  }

  std::unique_ptr<tsv::Scheduler> sched;
  std::vector<double> setups;
  for (int r = 0; r < (args.trace ? 1 : kServeSetups); ++r)
    setups.push_back(serve_setup(sched, false, types, sources));
  const WindowResult w =
      serve_window(*sched, types, sources, schedule, args.seed);

  std::vector<bool> wrong(schedule.size(), false);
  const std::size_t checked =
      verify_window(w, types, sources, schedule, args.seed, wrong);
  const auto n_wrong = std::count(wrong.begin(), wrong.end(), true);
  if (n_wrong > 0)
    rep.fail_check(std::to_string(n_wrong) + " of " + std::to_string(checked) +
                   " re-executed requests differ bitwise");
  for (const std::string& v : w.invariant_violations)
    rep.fail_check("metrics invariant after drain: " + v);
  rep.context("verified_requests", std::to_string(checked));
  rep.context("scrape_bytes", std::to_string(w.scrape_bytes));
  {
    char buf[200];
    std::snprintf(buf, sizeof buf,
                  "{\"p50_ms\": %.4f, \"p99_ms\": %.4f, \"max_ms\": %.4f}",
                  median(w.lag_ms), quantile(w.lag_ms, 0.99),
                  quantile(w.lag_ms, 1.0));
    rep.context("generator_lag", buf);
  }

  const ClassLatencies c =
      class_latencies(w, types, schedule, wrong, args.seconds);
  rep.attempted = schedule.size();
  rep.failed = c.failed;
  if (!args.trace) {
    rep.add("setup_s", median(setups), setups.size(), "median of set-ups");
    rep.add("solve_glups", c.served_updates / c.span_s / 1e9, schedule.size(),
            "served updates / service span");
    rep.add("interactive_p50_ms", median(c.inter.all), c.inter.all.size(),
            "scheduled arrival -> ready");
    print_ungated("interactive_p99_ms", c.inter.tail(0.99), c.inter.all.size(),
                  "scheduled arrival -> ready; median of per-slice p99");
    print_ungated("batch_p50_ms", median(c.batch.all), c.batch.all.size(),
                  "scheduled arrival -> ready");
    print_ungated("batch_p95_ms", c.batch.tail(0.95), c.batch.all.size(),
                  "scheduled arrival -> ready; median of per-slice p95");
    rep.add("goodput_rps", static_cast<double>(c.good) / c.span_s,
            schedule.size(), "correct within deadline / service span");
    rep.add("peak_rss_mb", peak_rss_mib(), 1);
    return;
  }

  // Traced run: a second window with the scheduler's trace ring and the
  // benchmark's spans on, then the layer probes.
  g_trace.on = true;
  serve_setup(sched, true, types, sources);
  const WindowResult wt =
      serve_window(*sched, types, sources, schedule, args.seed);
  trace_requests(wt, schedule);
  const ClassLatencies ct =
      class_latencies(wt, types, schedule, wrong, args.seconds);

  std::vector<double> q_i, q_b, gang_wait, svc_i, svc_b;
  for (const tsv::TraceSpan& ts : wt.stats.traces) {
    const bool inter = ts.cls == tsv::ServiceClass::kInteractive;
    (inter ? q_i : q_b).push_back((ts.dispatch_s - ts.submit_s) * 1e3);
    gang_wait.push_back((ts.sweep_s - ts.dispatch_s) * 1e3);
    if (!ts.coalesced)
      (inter ? svc_i : svc_b).push_back((ts.complete_s - ts.sweep_s) * 1e3);
  }

  std::vector<double> build_ms;  // plan construction, outside the scheduler
  for (int r = 0; r < 5; ++r)
    for (std::size_t t = 0; t < types.size(); ++t)
      std::visit(
          [&](const auto& grid) {
            build_ms.push_back(1e3 * g_trace.time("plan.make_plan", [&] {
              (void)tsv::make_plan(tsv::shape_of(grid), types[t].spec,
                                   types[t].options);
            }));
          },
          sources[t][0]);

  const tsv::SchedulerStats& s = wt.stats;
  const tsv::ExecutorStats& ex = s.executor;
  const double lookups =
      static_cast<double>(ex.plan_cache.hits + ex.plan_cache.misses);
  const double checkouts =
      static_cast<double>(ex.workspaces.reused + ex.workspaces.created);
  na_all(rep,
         {"mem.stream_gbs", "kernels.flops_per_update",
          "kernels.bytes_per_update", "tiling.naive_equiv_gbs",
          "tiling.reuse_x", "tiling.scaling_eff", "vectorize.incache_glups",
          "vectorize.shard_step_ms", "layout.transform_ms", "halo.fill_us",
          "shard.exchange_us", "shard.exchange_bytes",
          "shard.step_overhead_frac"},
         "solve-workload layer metric; the request mix has no single kernel");
  report_gangs(rep, wt.ex_before, ex);
  rep.add("scheduler.queue_ms.interactive.p50", median(q_i), q_i.size());
  rep.add("scheduler.queue_ms.interactive.p99", quantile(q_i, 0.99),
          q_i.size());
  rep.add("scheduler.queue_ms.batch.p95", quantile(q_b, 0.95), q_b.size());
  rep.add("scheduler.gang_wait_ms.p99", quantile(gang_wait, 0.99),
          gang_wait.size());
  rep.add("scheduler.service_ms.interactive.p50", median(svc_i), svc_i.size());
  rep.add("scheduler.service_ms.batch.p50", median(svc_b), svc_b.size());
  rep.add("scheduler.coalesced_frac",
          s.admitted ? static_cast<double>(s.coalesced) / s.admitted : 0.0,
          s.admitted, "followers / admitted");
  rep.add("scheduler.shed", static_cast<double>(s.shed), 1);
  rep.add("scheduler.rejected", static_cast<double>(s.rejected), 1);
  rep.add("scheduler.deadline_missed", static_cast<double>(s.deadline_missed),
          1);
  rep.add("plan_cache.hit_ratio",
          lookups > 0 ? static_cast<double>(ex.plan_cache.hits) / lookups : 0.0,
          static_cast<std::size_t>(lookups));
  rep.add("plan_cache.build_ms.p99", quantile(build_ms, 0.99), build_ms.size(),
          "make_plan per distinct configuration");
  rep.add("workspace.reuse_ratio",
          checkouts > 0 ? static_cast<double>(ex.workspaces.reused) / checkouts
                        : 0.0,
          static_cast<std::size_t>(checkouts));
  rep.add("generic.overhead_x", generic_overhead(types, sources), 1,
          "g-box9 interpreter / compiled 2d9p, same taps");
  rep.add("metrics.scrape_ms.p99", quantile(wt.scrape_ms, 0.99),
          wt.scrape_ms.size(), "snapshot + Prometheus export");
  rep.add("loadgen.lag_ms.p99", quantile(wt.lag_ms, 0.99), wt.lag_ms.size());
  const double p50 = median(c.inter.all);
  rep.add("trace.overhead_frac", (median(ct.inter.all) - p50) / p50,
          ct.inter.all.size(), "interactive_p50_ms traced vs untraced");
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  // A fixed mmap threshold: every buffer above 128 KiB is mapped on
  // allocation and unmapped on free. glibc's default raises the threshold
  // after a free, so freed grids are then reused through the worker threads'
  // arenas and peak_rss_mb spread 0.13 across runs on sharded-3d-periodic
  // (450-523 MiB) and serve-mixed (38-45 MiB); fixed, it counts live memory.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  Report rep(args.trace);
  try {
    if (args.workload == "solve-2d-mem") run_solve_2d_mem(args, rep);
    else if (args.workload == "sharded-3d-periodic")
      run_sharded_3d_periodic(args, rep);
    else if (args.workload == "serve-mixed") run_serve_mixed(args, rep);
    else usage("unknown workload");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tsvbench: %s\n", e.what());
    return 1;
  }
  if (args.trace) {
    g_trace.print_self_times();
    g_trace.write(args.spans_path);
  }
  rep.print();
  return rep.correct ? 0 : 1;
}

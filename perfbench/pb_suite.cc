// pb_suite — the `bench_suite` driver with outside-in timing hooks, plus the
// benchmark's layer probes.
//
//   pb_suite [--pb-stamp=FILE] [--pb-trace | --pb-setup-only] <bench_suite arguments...>
//   pb_suite pb-enumerate --grid=FILE
//   pb_suite pb-layers --seed=N
//   pb_suite pb-cdn-ref --keys=CAP:TTL:FRONTENDS:PROBES,...
//   pb_suite pb-table1-ref --days=N
//   pb_suite pb-queue-probe --queue=DIR --scratch=DIR
//
// The driver part compiles bench/bench_suite.cc unchanged (its main renamed)
// and reaches the benches only through the registry and the public
// BenchContext::rewrite hook: every registered bench's run function is
// wrapped so that the rewrite applied right before each sweep executes also
//  * stamps the monotonic time of the first sweep that executes (the end of
//    set-up: process start, spec and population construction, grid
//    loading and enumeration all happen before it), and
//  * with --pb-trace, wraps the sweep's runner to time every runner call
//    (per-thread log histograms, plus the first spans for interval
//    analysis);
//  * with --pb-setup-only, ends the process right after that stamp, so a
//    run can sample its set-up time many times at little cost.
// Nothing inside src/ is instrumented. At exit the stamp file receives one
// JSON document with what the hooks saw and the process's peak resident set.
// Everything bench_suite.cc includes comes first, so that the `main`
// rename below touches that file's own text only.
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/experiment.h"
#include "core/scenario.h"
#include "core/sweep.h"
#include "core/sweep_partial.h"
#include "core/thread_pool.h"
#include "dist/collect.h"
#include "dist/work_queue.h"
#include "dist/worker.h"
#include "obs/telemetry.h"
#include "registry.h"

#define main quicer_bench_suite_main
#include "bench_suite.cc"
#undef main

#include "probes.h"

namespace {

namespace core = quicer::core;
namespace bench = quicer::bench;
using Clock = std::chrono::steady_clock;

double MonoSeconds(Clock::time_point t) {
  return std::chrono::duration<double>(t.time_since_epoch()).count();
}

// ---------------------------------------------------------------------------
// Runner-call trace: per-thread aggregates, merged at exit.
// ---------------------------------------------------------------------------

/// Log-scale duration histogram: 16 sub-buckets per power of two of ns.
constexpr int kSubBuckets = 16;
constexpr int kBuckets = 64 * kSubBuckets;

int BucketOf(std::uint64_t ns) {
  if (ns < kSubBuckets) return static_cast<int>(ns);
  const int msb = 63 - __builtin_clzll(ns);
  const int sub = static_cast<int>((ns >> (msb - 4)) & (kSubBuckets - 1));
  return (msb - 3) * kSubBuckets + sub;
}

/// [lo, hi) in ns of a bucket.
std::pair<double, double> BucketRange(int bucket) {
  if (bucket < kSubBuckets) return {static_cast<double>(bucket), bucket + 1.0};
  const int msb = bucket / kSubBuckets + 3;
  const int sub = bucket % kSubBuckets;
  const double unit = static_cast<double>(1ULL << (msb - 4));
  const double lo = (kSubBuckets + sub) * unit;
  return {lo, lo + unit};
}

struct SweepAgg {
  std::uint64_t calls = 0;
  std::uint64_t sum_ns = 0;
  std::vector<std::uint64_t> hist = std::vector<std::uint64_t>(kBuckets, 0);

  void Add(const SweepAgg& other) {
    calls += other.calls;
    sum_ns += other.sum_ns;
    for (int b = 0; b < kBuckets; ++b) hist[b] += other.hist[b];
  }
  /// Percentile in µs, interpolated linearly inside the bucket by rank.
  double PercentileUs(double p) const {
    if (calls == 0) return 0.0;
    const double rank = p / 100.0 * static_cast<double>(calls);
    double seen = 0.0;
    for (int b = 0; b < kBuckets; ++b) {
      if (hist[b] == 0) continue;
      const double next = seen + static_cast<double>(hist[b]);
      if (next >= rank) {
        const auto [lo, hi] = BucketRange(b);
        const double frac = (rank - seen) / static_cast<double>(hist[b]);
        return (lo + frac * (hi - lo)) / 1000.0;
      }
      seen = next;
    }
    return BucketRange(kBuckets - 1).second / 1000.0;
  }
};

struct Span {
  std::uint32_t sweep = 0;
  std::uint32_t point = 0;
  double start = 0.0;  // monotonic seconds
  double end = 0.0;
};

struct ThreadTrace {
  std::vector<SweepAgg> sweeps;  // by sweep id
  std::vector<Span> spans;
};

/// Spans kept per process: enough for every runner call of the cdn and
/// queue rounds, bounded for the scan round's tens of millions of calls.
constexpr std::int64_t kSpanBudget = 200000;

struct TraceState {
  std::mutex mutex;
  std::vector<std::unique_ptr<ThreadTrace>> threads;  // guarded by mutex
  std::vector<std::string> sweep_names;               // guarded by mutex
  std::atomic<std::int64_t> spans_left{kSpanBudget};
};

TraceState& Trace() {
  static TraceState* state = new TraceState();  // leaked: read at exit
  return *state;
}

ThreadTrace& ThisThreadTrace() {
  thread_local ThreadTrace* mine = nullptr;
  if (mine == nullptr) {
    auto fresh = std::make_unique<ThreadTrace>();
    mine = fresh.get();
    std::lock_guard<std::mutex> lock(Trace().mutex);
    Trace().threads.push_back(std::move(fresh));
  }
  return *mine;
}

std::uint32_t RegisterSweep(const std::string& name) {
  std::lock_guard<std::mutex> lock(Trace().mutex);
  Trace().sweep_names.push_back(name);
  return static_cast<std::uint32_t>(Trace().sweep_names.size() - 1);
}

/// The runner RunSweep would build for a spec without one (the experiment
/// runner, no qlog capture).
core::SweepRunner ExperimentRunnerOf(const core::SweepSpec& spec) {
  std::vector<core::MetricSpec> metrics = spec.metrics;
  if (metrics.empty()) metrics.emplace_back();
  return [metrics](const core::SweepRunContext& ctx) {
    core::ExperimentConfig run = ctx.point.config;
    run.seed = ctx.seed;
    const core::ExperimentResult experiment = core::RunExperiment(run);
    std::vector<double> values;
    values.reserve(metrics.size());
    for (const core::MetricSpec& metric : metrics) {
      values.push_back(metric.extract ? metric.extract(experiment) : experiment.TtfbMs());
    }
    return values;
  };
}

void WrapRunner(core::SweepSpec& spec) {
  if (!spec.runner && !spec.qlog_dir.empty()) return;  // keep qlog capture intact
  core::SweepRunner inner = spec.runner ? spec.runner : ExperimentRunnerOf(spec);
  const std::uint32_t id = RegisterSweep(spec.name);
  spec.runner = [inner = std::move(inner), id](const core::SweepRunContext& ctx) {
    const Clock::time_point start = Clock::now();
    std::vector<double> values = inner(ctx);
    const Clock::time_point end = Clock::now();
    ThreadTrace& trace = ThisThreadTrace();
    if (trace.sweeps.size() <= id) trace.sweeps.resize(id + 1);
    SweepAgg& agg = trace.sweeps[id];
    const auto ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - start).count());
    ++agg.calls;
    agg.sum_ns += ns;
    ++agg.hist[static_cast<std::size_t>(BucketOf(ns))];
    std::atomic<std::int64_t>& left = Trace().spans_left;
    if (left.load(std::memory_order_relaxed) > 0 &&
        left.fetch_sub(1, std::memory_order_relaxed) > 0) {
      trace.spans.push_back({id, static_cast<std::uint32_t>(ctx.point.index),
                             MonoSeconds(start), MonoSeconds(end)});
    }
    return values;
  };
}

// ---------------------------------------------------------------------------
// Hooks.
// ---------------------------------------------------------------------------

struct HookState {
  bool trace = false;
  /// Exit right after the set-up stamp: a set-up-only sample.
  bool setup_only = false;
  std::string stamp_path;
  std::atomic<bool> stamped{false};
  double first_exec = 0.0;  // written once, before `stamped` is released
};

HookState& Hooks() {
  static HookState* state = new HookState();  // leaked: read at exit
  return *state;
}

bool WriteStamp(const std::string& path);

std::function<void(core::SweepSpec&)> HookedRewrite(
    std::function<void(core::SweepSpec&)> previous) {
  return [previous = std::move(previous)](core::SweepSpec& spec) {
    if (previous) previous(spec);
    // Enumerate-only passes (queue-init, grid loading) and sibling sweeps a
    // unit deselects execute nothing.
    if (spec.enumerate_sink) return;
    if (!spec.only_sweep.empty() && spec.only_sweep != spec.name) return;
    if (!Hooks().stamped.load(std::memory_order_acquire)) {
      Hooks().first_exec = MonoSeconds(Clock::now());
      Hooks().stamped.store(true, std::memory_order_release);
      if (Hooks().setup_only) {
        std::fflush(stdout);
        std::_Exit(WriteStamp(Hooks().stamp_path) ? 0 : 1);
      }
    }
    if (Hooks().trace) WrapRunner(spec);
  };
}

void InstallHooks() {
  bench::Registry& registry = bench::Registry::Instance();
  for (const bench::BenchInfo& info : registry.Benches()) {
    // The registry hands out const views; its entries are plain mutable
    // objects, and replacing `run` before any bench executes is the only
    // way in from outside the bench bodies.
    auto* entry = const_cast<bench::BenchInfo*>(registry.Find(info.name));
    entry->run = [run = entry->run](const bench::BenchContext& ctx) {
      bench::BenchContext hooked = ctx;
      hooked.rewrite = HookedRewrite(ctx.rewrite);
      return run(hooked);
    };
  }
}

/// Peak resident set of this process image in KiB (VmHWM): unlike
/// getrusage's ru_maxrss it does not carry over the forking parent's pages.
long PeakRssKib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtol(line.c_str() + 6, nullptr, 10);
  }
  return 0;
}

bool WriteStamp(const std::string& path) {
  SweepAgg all;
  std::vector<SweepAgg> per_sweep;
  std::vector<Span> spans;
  std::vector<std::string> names;
  {
    std::lock_guard<std::mutex> lock(Trace().mutex);
    names = Trace().sweep_names;
    per_sweep.resize(names.size());
    for (const auto& thread : Trace().threads) {
      for (std::size_t id = 0; id < thread->sweeps.size(); ++id) {
        per_sweep[id].Add(thread->sweeps[id]);
      }
      spans.insert(spans.end(), thread->spans.begin(), thread->spans.end());
    }
  }
  std::ofstream out(path, std::ios::trunc);
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer),
                "{\"first_exec\": %.9f, \"traced\": %s, \"peak_rss_kib\": %ld",
                Hooks().first_exec, Hooks().trace ? "true" : "false", PeakRssKib());
  out << buffer << ", \"sweeps\": [";
  for (std::size_t id = 0; id < names.size(); ++id) {
    all.Add(per_sweep[id]);
    std::snprintf(buffer, sizeof(buffer),
                  "%s{\"name\": \"%s\", \"calls\": %llu, \"sum_ns\": %llu, \"p50_us\": %.6f, "
                  "\"p99_us\": %.6f}",
                  id == 0 ? "" : ", ", names[id].c_str(),
                  static_cast<unsigned long long>(per_sweep[id].calls),
                  static_cast<unsigned long long>(per_sweep[id].sum_ns),
                  per_sweep[id].PercentileUs(50.0), per_sweep[id].PercentileUs(99.0));
    out << buffer;
  }
  std::snprintf(buffer, sizeof(buffer),
                "], \"calls\": %llu, \"sum_ns\": %llu, \"p50_us\": %.6f, \"p99_us\": %.6f",
                static_cast<unsigned long long>(all.calls),
                static_cast<unsigned long long>(all.sum_ns), all.PercentileUs(50.0),
                all.PercentileUs(99.0));
  out << buffer << ", \"spans\": [";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    std::snprintf(buffer, sizeof(buffer), "%s[%u, %u, %.9f, %.9f]", i == 0 ? "" : ", ",
                  spans[i].sweep, spans[i].point, spans[i].start, spans[i].end);
    out << buffer;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

// ---------------------------------------------------------------------------
// pb-enumerate: enumeration cost and grid sizes of a scenario file.
// ---------------------------------------------------------------------------

int RunEnumerateProbe(int argc, char** argv) {
  std::string grid_path;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--grid=", 0) == 0) grid_path = arg.substr(std::strlen("--grid="));
  }
  const std::optional<std::string> text = SlurpFile(grid_path);
  if (!text) {
    std::fprintf(stderr, "pb-enumerate: cannot read '%s'\n", grid_path.c_str());
    return 2;
  }
  std::string error;
  const std::optional<GridPlan> plan = LoadGrid(*text, error);
  if (!plan) {
    std::fprintf(stderr, "pb-enumerate: %s\n", error.c_str());
    return 1;
  }
  // Median of five enumerate passes over every applied spec.
  std::vector<double> passes;
  std::vector<std::size_t> points(plan->entries.size(), 0);
  for (int pass = 0; pass < 5; ++pass) {
    const Clock::time_point start = Clock::now();
    for (std::size_t i = 0; i < plan->entries.size(); ++i) {
      points[i] = core::Enumerate(plan->entries[i].applied).size();
    }
    passes.push_back(std::chrono::duration<double, std::milli>(Clock::now() - start).count());
  }
  std::sort(passes.begin(), passes.end());
  std::printf("{\"enumerate_ms\": %.6f, \"points\": {", passes[passes.size() / 2]);
  for (std::size_t i = 0; i < plan->entries.size(); ++i) {
    std::printf("%s\"%s\": %zu", i == 0 ? "" : ", ", plan->entries[i].scenario.sweep.c_str(),
                points[i]);
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strncmp(argv[1], "pb-", 3) == 0) {
    const std::string command = argv[1];
    if (command == "pb-enumerate") return RunEnumerateProbe(argc, argv);
    return perfbench::RunProbe(command, argc, argv);
  }
  std::string& stamp_path = Hooks().stamp_path;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], "--pb-stamp=", 11) == 0) {
      stamp_path = argv[i] + 11;
    } else if (std::strcmp(argv[i], "--pb-trace") == 0) {
      Hooks().trace = true;
    } else if (std::strcmp(argv[i], "--pb-setup-only") == 0) {
      Hooks().setup_only = true;
    } else {
      args.push_back(argv[i]);
    }
  }
  const int forwarded = static_cast<int>(args.size());
  args.push_back(nullptr);
  InstallHooks();
  const int code = quicer_bench_suite_main(forwarded, args.data());
  if (!stamp_path.empty() && !WriteStamp(stamp_path)) {
    std::fprintf(stderr, "pb_suite: cannot write the stamp file '%s'\n", stamp_path.c_str());
    return code != 0 ? code : 1;
  }
  return code;
}

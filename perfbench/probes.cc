// Layer probes and reference computations of the end-to-end benchmark.
//
//   pb-layers --seed=N [--memo]
//       Times public module functions on fixed inputs: stats::Accumulator
//       Add (reservoir and overflow regimes) and Merge, TrancoPopulation
//       construction, Prober::Probe, FrontendCertCache::OnConnection over
//       one caching-study cluster stream; with --memo also a small keyed
//       sweep through core::KeyedOutcomeRunner, to measure how long runner
//       calls wait for another thread's keyed compute.
//   pb-cdn-ref --keys=CAP:TTL:FRONTENDS:PROBES,...
//       Probe hit counts of the caching-study cluster streams, computed by
//       an LRU+TTL cache written here (not scan::FrontendCertCache).
//   pb-table1-ref --days=N
//       Per (day, vantage, CDN) cell of Table 1: CountQuic of a population
//       built here, and direct Prober::Probe counts of successful probes
//       and observed instant ACKs.
//   pb-queue-probe --queue=DIR --scratch=DIR
//       Partial-result sizes, SweepPartialJson / ParseSweepPartialJson
//       times over a collected queue's unit results, and WorkQueue
//       TryClaim / Publish times replaying those units in a scratch queue.
//
// The population, prober and cluster constants mirror the compiled-in
// values of bench/bench_table1_cdn_deployment.cc and
// bench/bench_caching_study.cc; the benchmark's README lists them.
#include "probes.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "core/sweep.h"
#include "core/sweep_partial.h"
#include "dist/work_queue.h"
#include "scan/cdn_model.h"
#include "scan/frontend_cache.h"
#include "scan/population.h"
#include "scan/prober.h"
#include "sim/rng.h"
#include "sim/time.h"
#include "stats/accumulator.h"

namespace perfbench {
namespace {

using namespace quicer;
using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

double MedianOf(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values.empty() ? 0.0 : values[values.size() / 2];
}

/// Value of `--name=value`, or `fallback`.
std::string Flag(int argc, char** argv, const std::string& name,
                 const std::string& fallback = "") {
  const std::string prefix = "--" + name + "=";
  for (int i = 2; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return argv[i] + prefix.size();
    }
  }
  return fallback;
}

bool HasFlag(int argc, char** argv, const std::string& name) {
  const std::string flag = "--" + name;
  for (int i = 2; i < argc; ++i) {
    if (flag == argv[i]) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// The caching study's cluster stream and a reference cache.
// ---------------------------------------------------------------------------

struct DomainLoad {
  const char* name;
  double organic_per_minute;
};

constexpr std::array<DomainLoad, 6> kDomains = {{{"discord.example", 20000.0},
                                                 {"cloudflare.example", 600.0},
                                                 {"tinyurl.example", 160.0},
                                                 {"docker.example", 6.0},
                                                 {"own-domain (1/min probes)", 0.0},
                                                 {"own-domain (60/min probes)", 0.0}}};

struct ClusterKey {
  std::int64_t capacity = 65536;
  std::int64_t ttl_s = 300;
  std::int64_t frontends = 4096;
  std::int64_t probe_per_min = 1;
};

/// Replays one cluster's three-hour connection stream (organic arrivals at
/// random seconds of each minute, then the probe stream), calling
/// sink(domain, time, is_probe) per connection.
template <typename Sink>
void ClusterStream(const ClusterKey& key, Sink&& sink) {
  sim::Rng rng(23);
  for (int minute = 0; minute < 3 * 60; ++minute) {
    const sim::Time base = sim::Seconds(minute * 60);
    for (int d = 0; d < static_cast<int>(kDomains.size()); ++d) {
      const double rate = kDomains[static_cast<std::size_t>(d)].organic_per_minute;
      const int arrivals = static_cast<int>(rate) +
                           (rng.Bernoulli(rate - static_cast<int>(rate)) ? 1 : 0);
      for (int a = 0; a < arrivals; ++a) {
        sink(d, base + rng.UniformInt(0, 59) * sim::kSecond, false);
      }
      const int probes = d == 5 ? 60 : static_cast<int>(key.probe_per_min);
      for (int p = 0; p < probes; ++p) sink(d, base + p * sim::kSecond, true);
    }
  }
}

/// LRU + TTL cache over the six stream domains with per-machine touch
/// times: recency stamps instead of a list, a linear scan for the least
/// recent domain.
class ReferenceCache {
 public:
  explicit ReferenceCache(const ClusterKey& key)
      : capacity_(static_cast<std::size_t>(key.capacity)),
        ttl_(sim::Seconds(key.ttl_s)),
        machines_(std::max<std::int64_t>(1, key.frontends)),
        rng_(11) {}

  bool OnConnection(int domain, sim::Time now) {
    for (int lru = LeastRecent(); lru >= 0 && slots_[lru].last_touch + ttl_ < now;
         lru = LeastRecent()) {
      Drop(lru);
    }
    const auto machine = static_cast<std::size_t>(rng_.UniformInt(0, machines_ - 1));
    Slot& slot = slots_[static_cast<std::size_t>(domain)];
    slot.recency = ++clock_;
    slot.last_touch = now;
    if (slot.present) {
      const sim::Time touched = slot.machine_touch[machine];
      slot.machine_touch[machine] = now;
      return touched >= 0 && touched + ttl_ >= now;
    }
    slot.present = true;
    slot.machine_touch.assign(static_cast<std::size_t>(machines_), -1);
    slot.machine_touch[machine] = now;
    if (++size_ > capacity_) Drop(LeastRecent());
    return false;
  }

 private:
  struct Slot {
    bool present = false;
    sim::Time last_touch = 0;
    std::uint64_t recency = 0;
    std::vector<sim::Time> machine_touch;
  };

  int LeastRecent() const {
    int best = -1;
    for (int d = 0; d < static_cast<int>(slots_.size()); ++d) {
      const Slot& slot = slots_[static_cast<std::size_t>(d)];
      if (slot.present && (best < 0 || slot.recency < slots_[best].recency)) best = d;
    }
    return best;
  }

  void Drop(int domain) {
    slots_[static_cast<std::size_t>(domain)].present = false;
    --size_;
  }

  std::size_t capacity_;
  sim::Duration ttl_;
  std::int64_t machines_;
  sim::Rng rng_;
  std::array<Slot, kDomains.size()> slots_{};
  std::uint64_t clock_ = 0;
  std::size_t size_ = 0;
};

/// Probe hits and totals per domain of one key, through `cache`.
template <typename Cache>
std::pair<std::array<int, 6>, std::array<int, 6>> ProbeHits(const ClusterKey& key,
                                                            Cache& cache) {
  std::array<int, 6> hits{};
  std::array<int, 6> totals{};
  ClusterStream(key, [&](int d, sim::Time now, bool probe) {
    const bool hit = cache.OnConnection(d, now);
    if (!probe) return;
    ++totals[static_cast<std::size_t>(d)];
    if (hit) ++hits[static_cast<std::size_t>(d)];
  });
  return {hits, totals};
}

/// scan::FrontendCertCache keyed by the stream's domain names.
struct ProgramCache {
  scan::FrontendCertCache cache;
  std::vector<std::string> names;

  explicit ProgramCache(const ClusterKey& key) : cache(ConfigOf(key), sim::Rng(11)) {
    for (const DomainLoad& load : kDomains) names.emplace_back(load.name);
  }
  bool OnConnection(int d, sim::Time now) {
    return cache.OnConnection(names[static_cast<std::size_t>(d)], now);
  }
  static scan::FrontendCertCache::Config ConfigOf(const ClusterKey& key) {
    scan::FrontendCertCache::Config config;
    config.capacity = static_cast<std::size_t>(key.capacity);
    config.ttl = sim::Seconds(key.ttl_s);
    config.frontends_per_cluster = static_cast<int>(key.frontends);
    return config;
  }
};

bool ParseKeys(const std::string& text, std::vector<ClusterKey>& keys) {
  std::stringstream list(text);
  std::string item;
  while (std::getline(list, item, ',')) {
    ClusterKey key;
    long long capacity = 0, ttl = 0, frontends = 0, probes = 0;
    if (std::sscanf(item.c_str(), "%lld:%lld:%lld:%lld", &capacity, &ttl, &frontends,
                    &probes) != 4 ||
        capacity < 1 || ttl < 1 || frontends < 1 || probes < 0) {
      return false;
    }
    key.capacity = capacity;
    key.ttl_s = ttl;
    key.frontends = frontends;
    key.probe_per_min = probes;
    keys.push_back(key);
  }
  return !keys.empty();
}

int RunCdnRef(int argc, char** argv) {
  std::vector<ClusterKey> keys;
  if (!ParseKeys(Flag(argc, argv, "keys"), keys)) {
    std::fprintf(stderr, "pb-cdn-ref: pass --keys=CAP:TTL:FRONTENDS:PROBES,...\n");
    return 2;
  }
  std::printf("{\"keys\": [");
  for (std::size_t k = 0; k < keys.size(); ++k) {
    ReferenceCache cache(keys[k]);
    const auto [hits, totals] = ProbeHits(keys[k], cache);
    std::printf("%s{\"key\": [%lld, %lld, %lld, %lld], \"hits\": [", k == 0 ? "" : ", ",
                static_cast<long long>(keys[k].capacity), static_cast<long long>(keys[k].ttl_s),
                static_cast<long long>(keys[k].frontends),
                static_cast<long long>(keys[k].probe_per_min));
    for (std::size_t d = 0; d < hits.size(); ++d) std::printf("%s%d", d ? ", " : "", hits[d]);
    std::printf("], \"totals\": [");
    for (std::size_t d = 0; d < totals.size(); ++d) {
      std::printf("%s%d", d ? ", " : "", totals[d]);
    }
    std::printf("]}");
  }
  std::printf("]}\n");
  return 0;
}

// ---------------------------------------------------------------------------
// Table 1 reference.
// ---------------------------------------------------------------------------

constexpr std::size_t kTable1Population = 100000;
constexpr std::uint64_t kTable1PopulationSeed = 2024;
constexpr std::uint64_t kTable1ProberSeed = 7;

int RunTable1Ref(int argc, char** argv) {
  const int days = std::atoi(Flag(argc, argv, "days", "0").c_str());
  if (days < 1) {
    std::fprintf(stderr, "pb-table1-ref: pass --days=N (N >= 1)\n");
    return 2;
  }
  const scan::TrancoPopulation population(kTable1Population, kTable1PopulationSeed);
  const scan::Prober prober(kTable1ProberSeed);
  std::printf("{\"cells\": [");
  bool first = true;
  for (int day = 0; day < days; ++day) {
    for (scan::Vantage vantage : scan::kAllVantages) {
      std::array<int, scan::kAllCdns.size()> samples{};
      std::array<int, scan::kAllCdns.size()> iacks{};
      for (const scan::Domain& domain : population.domains()) {
        const scan::ProbeResult result =
            prober.Probe(domain, vantage, static_cast<std::uint64_t>(day));
        if (!result.success) continue;
        const auto cdn = static_cast<std::size_t>(domain.cdn);
        ++samples[cdn];
        if (result.iack_observed) ++iacks[cdn];
      }
      for (scan::Cdn cdn : scan::kAllCdns) {
        const auto c = static_cast<std::size_t>(cdn);
        std::printf("%s{\"day\": \"%d\", \"vantage\": \"%s\", \"cdn\": \"%s\", "
                    "\"count_quic\": %d, \"samples\": %d, \"iack\": %d}",
                    first ? "" : ", ", day, std::string(scan::Name(vantage)).c_str(),
                    std::string(scan::Name(cdn)).c_str(), population.CountQuic(cdn),
                    samples[c], iacks[c]);
        first = false;
      }
    }
  }
  std::printf("]}\n");
  return 0;
}

// ---------------------------------------------------------------------------
// Layer probes.
// ---------------------------------------------------------------------------

/// Runner calls of a small keyed sweep (2 keys x 6 domains, the caching
/// study's layout) that waited for another thread's compute, in seconds.
double MemoWaitSeconds() {
  struct Call {
    std::int64_t key = 0;
    double start = 0.0;
    double end = 0.0;
  };
  const std::array<ClusterKey, 2> keys = {{{4, 300, 64, 1}, {4, 60, 64, 1}}};
  core::SweepSpec spec;
  spec.name = "pb_memo_probe";
  core::SweepExtraAxis key_axis{"key", {{"0", 0}, {"1", 1}}};
  core::SweepExtraAxis domain_axis;
  domain_axis.name = "domain";
  for (int d = 0; d < static_cast<int>(kDomains.size()); ++d) {
    domain_axis.values.push_back({std::to_string(d), d});
  }
  spec.axes.extras = {key_axis, domain_axis};
  spec.repetitions = 1;
  spec.metrics = {{"hits", core::MetricMode::kSummary, false, nullptr}};
  using Outcome = std::array<int, 6>;
  core::SweepRunner keyed = core::KeyedOutcomeRunner<Outcome, std::int64_t>(
      [](const core::SweepRunContext& run) { return run.point.Extra("key")->value; },
      [&keys](const std::int64_t& key, const core::SweepRunContext&) {
        ProgramCache cache(keys[static_cast<std::size_t>(key)]);
        return ProbeHits(keys[static_cast<std::size_t>(key)], cache).first;
      },
      [](const Outcome& hits, const core::SweepRunContext& run) {
        return std::vector<double>{
            static_cast<double>(hits[static_cast<std::size_t>(run.point.Extra("domain")->value)])};
      });
  std::mutex mutex;
  std::vector<Call> calls;
  spec.runner = [&](const core::SweepRunContext& run) {
    const Clock::time_point start = Clock::now();
    std::vector<double> values = keyed(run);
    const Clock::time_point end = Clock::now();
    std::lock_guard<std::mutex> lock(mutex);
    calls.push_back({run.point.Extra("key")->value,
                     std::chrono::duration<double>(start.time_since_epoch()).count(),
                     std::chrono::duration<double>(end.time_since_epoch()).count()});
    return values;
  };
  core::RunSweep(spec);
  double wait = 0.0;
  for (std::int64_t key = 0; key < static_cast<std::int64_t>(keys.size()); ++key) {
    const Call* first = nullptr;
    for (const Call& call : calls) {
      if (call.key == key && (first == nullptr || call.start < first->start)) first = &call;
    }
    for (const Call& call : calls) {
      if (call.key != key || &call == first) continue;
      wait += std::max(0.0, std::min(call.end, first->end) - call.start);
    }
  }
  return wait;
}

int RunLayers(int argc, char** argv) {
  const std::uint64_t seed = std::strtoull(Flag(argc, argv, "seed", "1").c_str(), nullptr, 10);
  sim::Rng rng(seed);
  // `sink` folds every timed loop's result into the printed checksum, so no
  // timed call can be optimised away.
  double sink = 0.0;
  std::vector<double> values(1 << 20);
  for (double& v : values) v = rng.NextDouble() * 100.0;

  // Reservoir regime: fresh accumulators, fewer values than the capacity.
  constexpr std::size_t kFill = 4000;
  constexpr int kRounds = 200;
  Clock::time_point start = Clock::now();
  for (int round = 0; round < kRounds; ++round) {
    stats::Accumulator acc;
    for (std::size_t i = 0; i < kFill; ++i) acc.Add(values[(round * kFill + i) % values.size()]);
    sink += acc.mean();
  }
  const double add_ns_reservoir = MsSince(start) * 1e6 / (kRounds * kFill);

  // Overflow regime: a full reservoir spills into the histogram.
  stats::Accumulator overflow;
  for (std::size_t i = 0; i < stats::Accumulator::kDefaultReservoirCapacity + 1; ++i) {
    overflow.Add(values[i]);
  }
  start = Clock::now();
  for (double v : values) overflow.Add(v);
  const double add_ns_overflow = MsSince(start) * 1e6 / static_cast<double>(values.size());
  sink += overflow.mean();

  // Merge: pairs of half-full accumulators, as partial results carry them.
  constexpr int kMerges = 64;
  std::vector<stats::Accumulator> left(kMerges);
  std::vector<stats::Accumulator> right(kMerges);
  for (int m = 0; m < kMerges; ++m) {
    for (std::size_t i = 0; i < 2048; ++i) {
      left[m].Add(values[(m * 4096 + i) % values.size()]);
      right[m].Add(values[(m * 4096 + 2048 + i) % values.size()]);
    }
  }
  start = Clock::now();
  for (int m = 0; m < kMerges; ++m) left[m].Merge(right[m]);
  const double merge_us = MsSince(start) * 1e3 / kMerges;
  for (const stats::Accumulator& acc : left) sink += acc.mean();

  std::vector<double> builds;
  std::unique_ptr<scan::TrancoPopulation> population;
  for (int i = 0; i < 3; ++i) {
    start = Clock::now();
    population = std::make_unique<scan::TrancoPopulation>(kTable1Population,
                                                          kTable1PopulationSeed);
    builds.push_back(MsSince(start));
  }

  const scan::Prober prober(kTable1ProberSeed);
  std::vector<double> probe_ns;
  for (int pass = 0; pass < 3; ++pass) {
    int observed = 0;
    start = Clock::now();
    for (const scan::Domain& domain : population->domains()) {
      observed += prober.Probe(domain, scan::Vantage::kSaoPaulo, static_cast<std::uint64_t>(pass))
                      .iack_observed;
    }
    probe_ns.push_back(MsSince(start) * 1e6 / static_cast<double>(population->size()));
    sink += observed;
  }

  // One base-tuple cluster: the stream alone, then through the cache.
  const ClusterKey base;
  std::uint64_t connections = 0;
  start = Clock::now();
  ClusterStream(base, [&](int d, sim::Time now, bool) {
    ++connections;
    sink += static_cast<double>(now % 7 + d);
  });
  const double stream_ms = MsSince(start);
  ProgramCache cache(base);
  start = Clock::now();
  sink += ProbeHits(base, cache).first[0];
  const double cluster_ms = MsSince(start);

  std::printf("{\"stats.add_ns_reservoir\": %.6f, \"stats.add_ns_overflow\": %.6f, "
              "\"stats.merge_us\": %.6f, \"scan.population_build_ms\": %.6f, "
              "\"scan.probe_ns\": %.6f, \"scan.cluster_s\": %.9f, "
              "\"scan.on_connection_ns\": %.6f, \"scan.connections\": %llu",
              add_ns_reservoir, add_ns_overflow, merge_us, MedianOf(builds),
              MedianOf(probe_ns), cluster_ms / 1e3,
              (cluster_ms - stream_ms) * 1e6 / static_cast<double>(connections),
              static_cast<unsigned long long>(connections));
  if (HasFlag(argc, argv, "memo")) std::printf(", \"core.memo_wait_s\": %.9f", MemoWaitSeconds());
  std::printf(", \"checksum\": %.3f}\n", sink);
  return 0;
}

// ---------------------------------------------------------------------------
// Queue probe.
// ---------------------------------------------------------------------------

std::string ReadFile(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

int RunQueueProbe(int argc, char** argv) {
  const std::string queue_dir = Flag(argc, argv, "queue");
  const std::string scratch_dir = Flag(argc, argv, "scratch");
  std::string error;
  const std::optional<dist::WorkQueue> queue = dist::WorkQueue::Open(queue_dir, &error);
  if (!queue || scratch_dir.empty()) {
    std::fprintf(stderr, "pb-queue-probe: pass --queue=DIR --scratch=DIR (%s)\n",
                 error.c_str());
    return 2;
  }
  std::vector<dist::WorkUnit> units = queue->Units(&error);
  std::uintmax_t bytes = 0;
  std::size_t files = 0;
  std::size_t points = 0;
  std::size_t executed = 0;
  double parse_ms = 0.0;
  double write_ms = 0.0;
  std::size_t rewritten_bytes = 0;
  for (const dist::WorkUnit& unit : units) {
    for (const auto& file : std::filesystem::directory_iterator(queue->ResultDir(unit.id))) {
      const std::string text = ReadFile(file.path());
      bytes += text.size();
      ++files;
      Clock::time_point start = Clock::now();
      const std::optional<core::SweepResult> result = core::ParseSweepPartialJson(text, &error);
      parse_ms += MsSince(start);
      if (!result) {
        std::fprintf(stderr, "pb-queue-probe: %s: %s\n", file.path().c_str(), error.c_str());
        return 1;
      }
      start = Clock::now();
      const std::string again = core::SweepPartialJson(*result);
      write_ms += MsSince(start);
      rewritten_bytes += again.size();
      for (const core::PointSummary& point : result->points) {
        ++points;
        if (point.executed) ++executed;
      }
    }
  }

  // Replay every unit through a fresh queue: claim, stage its results,
  // publish.
  const std::filesystem::path replay = std::filesystem::path(scratch_dir) / "replay";
  std::filesystem::remove_all(replay);
  for (dist::WorkUnit& unit : units) unit.attempt = 0;
  if (!dist::WorkQueue::Init(replay.string(), queue->manifest(), units, &error)) {
    std::fprintf(stderr, "pb-queue-probe: %s\n", error.c_str());
    return 1;
  }
  const std::optional<dist::WorkQueue> copy = dist::WorkQueue::Open(replay.string(), &error);
  double claim_ms = 0.0;
  double publish_ms = 0.0;
  std::size_t replayed = 0;
  while (copy) {
    Clock::time_point start = Clock::now();
    const std::optional<dist::WorkQueue::Claim> claim = copy->TryClaim("pb-probe");
    claim_ms += MsSince(start);
    if (!claim) break;
    const std::string stage = copy->StageDir(*claim);
    for (const auto& file :
         std::filesystem::directory_iterator(queue->ResultDir(claim->unit.id))) {
      std::filesystem::copy_file(file.path(),
                                 std::filesystem::path(stage) / file.path().filename());
    }
    start = Clock::now();
    if (!copy->Publish(*claim)) {
      std::fprintf(stderr, "pb-queue-probe: publish of %s failed\n", claim->unit.id.c_str());
      return 1;
    }
    publish_ms += MsSince(start);
    ++replayed;
  }
  std::filesystem::remove_all(replay);
  if (replayed != units.size() || files == 0) {
    std::fprintf(stderr, "pb-queue-probe: replayed %zu of %zu units, %zu files\n", replayed,
                 units.size(), files);
    return 1;
  }
  std::printf("{\"units\": %zu, \"files\": %zu, \"rewritten_bytes\": %zu, \"core.partial_bytes_per_unit\": %.3f, "
              "\"core.partial_write_ms\": %.6f, \"core.partial_parse_ms\": %.6f, "
              "\"core.partial_executed_point_share\": %.9f, \"dist.claim_ms\": %.6f, "
              "\"dist.publish_ms\": %.6f}\n",
              units.size(), files, rewritten_bytes, static_cast<double>(bytes) / units.size(),
              write_ms / files, parse_ms / files,
              static_cast<double>(executed) / static_cast<double>(points),
              claim_ms / (replayed + 1), publish_ms / replayed);
  return 0;
}

}  // namespace

int RunProbe(const std::string& command, int argc, char** argv) {
  if (command == "pb-layers") return RunLayers(argc, argv);
  if (command == "pb-cdn-ref") return RunCdnRef(argc, argv);
  if (command == "pb-table1-ref") return RunTable1Ref(argc, argv);
  if (command == "pb-queue-probe") return RunQueueProbe(argc, argv);
  std::fprintf(stderr, "unknown probe '%s'\n", command.c_str());
  return 2;
}

}  // namespace perfbench

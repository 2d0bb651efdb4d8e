// The repo benchmark's workload runner (run through perfbench/run.py,
// which builds it, validates arguments and checks digests across runs).
//
//   perfbench --workload churn-1shard|churn-2shard|fig-sweep
//             --seed N --seconds S --trace 0|1
//             [--peers N] [--spans-out FILE] [--inject-fault digest]
//
// Workloads (why each exists: BENCHMARK.json):
//  * churn-1shard / churn-2shard — one 20k-peer Nylon universe on the
//    sharded engine at K=1 / K=2. Warm-up, a one-shot rebind of 10% of
//    the natted peers, Poisson arrivals with Pareto sessions, a short
//    steady tail. The churn schedule is generated here from --seed and
//    every add_peer / remove_peer call is made by this program.
//  * fig-sweep — ten n=1000 cells (natted 40..80% x {Nylon + paper mix,
//    reference + PRC only}) on the default engine, each warmed up for the
//    paper's 100 periods with a passive probe timeline every shuffle
//    period, then the randomness battery and the check probes.
//
// A run repeats the workload's fixed-size episode a whole number of
// times (see run_shape), so the work done is a pure function of the
// arguments. --trace 0 reports the end-to-end metrics; --trace 1 runs
// the warm-up, then untraced, traced and untraced episodes, and reports
// the per-layer metrics (from the traced episode), the isolated layer timings and
// the tracing overhead. The last stdout line is one JSON object.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "layers.h"
#include "metrics/graph_analysis.h"
#include "metrics/probe.h"
#include "obs/counters.h"
#include "obs/profile.h"
#include "runtime/experiment_config.h"
#include "runtime/scenario.h"
#include "spans.h"
#include "util/flags.h"
#include "util/json.h"

namespace {

using namespace nylon;
using perfbench::span_log;

// --- workload shapes ---------------------------------------------------------

constexpr std::int64_t kChurnPeers = 20000;
constexpr std::int64_t kChurnWarmupPeriods = 8;
constexpr double kRebindFraction = 0.1;
constexpr std::int64_t kChurnPeriods = 16;
constexpr double kArrivalsPerSecond = 50.0;
constexpr double kSessionMeanPeriods = 20.0;
constexpr double kParetoShape = 2.0;
constexpr std::int64_t kChurnTailPeriods = 2;
constexpr std::size_t kChurnMeasureRepeats = 3;

constexpr std::int64_t kFigPeers = 1000;
constexpr std::int64_t kFigWarmupPeriods = 100;
constexpr std::array<double, 5> kFigNatted{0.4, 0.5, 0.6, 0.7, 0.8};

/// Passive probes evaluated every shuffle period of a fig-sweep cell.
const std::vector<std::string> kTimelineProbes{
    "biggest_cluster_pct", "stale_pct", "fresh_natted_pct", "in_degree",
    "shuffle_success_pct"};
/// End-of-cell probes: the randomness battery, then the checks.
const std::vector<std::string> kFinalProbes{
    "sample_birthday_p",  "sample_chi2_p",      "sample_runs_p",
    "sample_serial",      "indegree_chi2_p",    "check_connected",
    "check_no_dead_refs", "check_sampling_random"};

/// How a run spends its --seconds on a workload.
struct run_shape {
  /// Wall seconds of one measured episode on the reference host (4
  /// cores, build included), rounded up; a run measures
  /// ceil(--seconds / nominal) episodes, so 4 / 6 / 2 at --seconds 30.
  /// The fig-sweep episode (12-20 s) is the whole sweep.
  double nominal_episode_s;
  /// Unmeasured episodes first. A churn universe touches ~1.6 GB, and
  /// the first episode of a fresh process pays those page faults (it
  /// runs ~1.5x slower); the 80 MB sweep does not need one.
  std::size_t warmup_episodes;
};

run_shape shape_of(const std::string& workload) {
  if (workload == "churn-1shard") return {7.5, 1};
  if (workload == "churn-2shard") return {5.0, 1};
  return {15.0, 0};
}

// --- small helpers ------------------------------------------------------------

/// splitmix64: derives independent streams from the run seed.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// The benchmark's own generator for churn schedules, so the workload does
/// not change when the simulator's rng does.
class schedule_rng {
 public:
  explicit schedule_rng(std::uint64_t seed) : state_(seed) {}
  /// Uniform in [0, 1).
  double next01() {
    state_ += 0x9E3779B97F4A7C15ull;
    return static_cast<double>(mix(state_) >> 11) * 0x1.0p-53;
  }

 private:
  std::uint64_t state_;
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Linear-interpolated percentile (q in [0, 100]) of sorted samples.
double percentile_sorted(const std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  const double pos = q / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/// The highest of a fixed ladder of percentiles that still has at least
/// ten samples beyond it (falls back to the median).
struct tail_stat {
  double value = 0.0;
  double percentile = 50.0;
  std::size_t samples = 0;
};
tail_stat tail_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  tail_stat out;
  out.samples = v.size();
  for (const double q : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (static_cast<double>(v.size()) * (1.0 - q / 100.0) >= 10.0 ||
        q == 50.0) {
      out.percentile = q;
      out.value = percentile_sorted(v, q);
      break;
    }
  }
  return out;
}

double rss_mb_now() {
  std::ifstream statm("/proc/self/statm");
  std::uint64_t size_pages = 0;
  std::uint64_t resident_pages = 0;
  statm >> size_pages >> resident_pages;
  return static_cast<double>(resident_pages) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Sum of additive counters, max of high-water marks.
void accumulate(obs::counter_snapshot& into, const obs::counter_snapshot& add) {
  for (std::size_t i = 0; i < obs::counter_count; ++i) {
    const auto c = static_cast<obs::counter>(i);
    into.values[i] = obs::is_peak(c) ? std::max(into.values[i], add.values[i])
                                     : into.values[i] + add.values[i];
  }
}

// --- checks ---------------------------------------------------------------------

struct check_tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void expect(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::cerr << "CHECK FAILED: " << what << "\n";
    }
  }
};

// --- one episode --------------------------------------------------------------

struct episode {
  std::vector<double> build_s;
  double run_s = 0.0;        ///< wall after setup, measurement included
  double run_until_s = 0.0;  ///< self time inside run_until slices
  double measure_s = 0.0;    ///< oracle + probes / final connectivity (median)
  std::uint64_t events = 0;
  std::vector<double> period_ms;
  std::vector<std::uint64_t> digests;  ///< one per universe
  std::vector<double> probe_values;    ///< fig-sweep, in evaluation order
  obs::counter_snapshot counters;
  obs::epoch_profile profile;
  std::size_t peak_population = 0;
  double rss_before_mb = 0.0;
  double rss_after_build_mb = 0.0;
  std::uint64_t joins = 0;
  std::uint64_t departures = 0;
  double rebind_ms = 0.0;
  std::size_t rebind_peers = 0;
};

/// One control action of the churn schedule. Actions at the same sim
/// time run in kind order, then arrival order.
struct churn_action {
  enum class kind : std::uint8_t { period_end, rebind, join, leave };
  sim::sim_time at = 0;
  kind k = kind::period_end;
  std::uint32_t arrival = 0;
};

std::vector<churn_action> churn_schedule(std::uint64_t seed,
                                         sim::sim_time period) {
  const sim::sim_time warm_end = kChurnWarmupPeriods * period;
  const sim::sim_time churn_end = warm_end + kChurnPeriods * period;
  const std::int64_t total_periods =
      kChurnWarmupPeriods + kChurnPeriods + kChurnTailPeriods;
  const sim::sim_time end = total_periods * period;
  std::vector<churn_action> actions;
  for (std::int64_t p = 1; p <= total_periods; ++p) {
    actions.push_back({p * period, churn_action::kind::period_end, 0});
  }
  actions.push_back({warm_end, churn_action::kind::rebind, 0});

  schedule_rng rng(mix(seed ^ 0xC4A2'0000'0000'0001ull));
  // Lomax (Pareto II) sessions with the requested mean.
  const double mean_ms =
      kSessionMeanPeriods * static_cast<double>(period);
  const double scale_ms = mean_ms * (kParetoShape - 1.0);
  double t_ms = static_cast<double>(warm_end);
  for (std::uint32_t i = 0;; ++i) {
    t_ms += -std::log(1.0 - rng.next01()) / kArrivalsPerSecond * 1000.0;
    const auto join_at = static_cast<sim::sim_time>(std::ceil(t_ms));
    if (join_at >= churn_end) break;
    actions.push_back({join_at, churn_action::kind::join, i});
    const double session_ms =
        scale_ms * (std::pow(1.0 - rng.next01(), -1.0 / kParetoShape) - 1.0);
    const sim::sim_time leave_at =
        join_at + 1 + static_cast<sim::sim_time>(session_ms);
    if (leave_at < end) {
      actions.push_back({leave_at, churn_action::kind::leave, i});
    }
  }
  std::sort(actions.begin(), actions.end(),
            [](const churn_action& a, const churn_action& b) {
              if (a.at != b.at) return a.at < b.at;
              if (a.k != b.k) return a.k < b.k;
              return a.arrival < b.arrival;
            });
  return actions;
}

struct run_args {
  std::string workload;
  std::uint64_t seed = 0;
  std::int64_t peers = 0;
};

episode churn_episode(const run_args& args, std::size_t shards, span_log& log,
                      check_tally& checks) {
  episode ep;
  runtime::experiment_config cfg;
  cfg.peer_count = static_cast<std::size_t>(args.peers);
  cfg.protocol = core::protocol_kind::nylon;
  cfg.gossip.view_size = 15;
  cfg.shards = shards;
  cfg.seed = mix(args.seed);
  cfg.validate();
  const sim::sim_time period = cfg.gossip.shuffle_period;
  const std::vector<churn_action> actions = churn_schedule(args.seed, period);

  log.timed("bench.episode", [&] {
    ep.rss_before_mb = rss_mb_now();
    std::optional<runtime::scenario> world;
    ep.build_s.push_back(
        log.timed("runtime.build", [&] { world.emplace(cfg); }).wall_s);
    ep.rss_after_build_mb = rss_mb_now();
    const auto run_start = std::chrono::steady_clock::now();
    obs::reset_counters();

    const std::size_t initial = world->alive_count();
    ep.peak_population = initial;
    std::vector<net::node_id> joined_ids;
    auto period_start = run_start;
    for (const churn_action& a : actions) {
      if (a.at > world->scheduler().now()) {
        ep.run_until_s +=
            log.timed("sim.run_until", [&] { world->run_until(a.at); })
                .self_s;
      }
      switch (a.k) {
        case churn_action::kind::period_end: {
          const auto now = std::chrono::steady_clock::now();
          ep.period_ms.push_back(
              std::chrono::duration<double, std::milli>(now - period_start)
                  .count());
          period_start = now;
          break;
        }
        case churn_action::kind::rebind:
          ep.rebind_ms = 1e3 * log.timed("runtime.rebind", [&] {
                                   ep.rebind_peers =
                                       world->rebind_fraction(kRebindFraction);
                                 }).wall_s;
          break;
        case churn_action::kind::join: {
          log.timed("runtime.add_peer",
                    [&] { joined_ids.push_back(world->add_peer()); });
          ++ep.joins;
          ep.peak_population = std::max<std::size_t>(
              ep.peak_population, initial + ep.joins - ep.departures);
          break;
        }
        case churn_action::kind::leave: {
          const net::node_id id = joined_ids.at(a.arrival);
          log.timed("runtime.remove_peer", [&] { world->remove_peer(id); });
          ++ep.departures;
          break;
        }
      }
    }
    ep.events = world->events_executed();
    ep.counters = obs::read_counters();
    ep.profile = world->shard_profile();

    // The final connectivity measurement: wall time, biggest cluster %.
    const auto measure = [&](span_log& to) -> std::pair<double, double> {
      std::optional<metrics::reachability_oracle> oracle;
      double wall_s =
          to.timed("metrics.oracle", [&] { oracle.emplace(world->oracle()); })
              .wall_s;
      double pct = 0.0;
      wall_s += to.timed("metrics.measure_clusters", [&] {
                    pct = metrics::measure_clusters(world->transport(),
                                                    world->peers(), *oracle)
                              .biggest_cluster_pct;
                  }).wall_s;
      return {wall_s, pct};
    };
    const auto [first_s, biggest_pct] = measure(log);
    std::uint64_t digest = 0;
    log.timed("runtime.state_digest",
              [&] { digest = world->state_digest(); });
    ep.digests.push_back(digest);
    ep.run_s = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - run_start)
                   .count();
    // One ~0.25 s measurement per episode is too few samples for a
    // steady median, so it is repeated (untraced, outside run_s) and
    // must give the same answer each time.
    std::vector<double> measure_samples{first_s};
    span_log untraced(false);
    for (std::size_t i = 1; i < kChurnMeasureRepeats; ++i) {
      const auto [again_s, again_pct] = measure(untraced);
      measure_samples.push_back(again_s);
      checks.expect(again_pct == biggest_pct,
                    "churn: repeated measurement gave a different "
                    "biggest_cluster_pct");
    }
    ep.measure_s = median(measure_samples);

    checks.expect(biggest_pct == 100.0,
                  "churn: biggest_cluster_pct " + std::to_string(biggest_pct) +
                      " != 100");
    checks.expect(world->alive_count() == initial + ep.joins - ep.departures,
                  "churn: alive " + std::to_string(world->alive_count()) +
                      " != initial + joins - departures");
    world.reset();
  });
  return ep;
}

/// Records a probe value as plain numbers so traced and untraced runs can
/// be compared exactly.
void record_value(const metrics::probe_value& v, std::vector<double>& out) {
  switch (v.kind) {
    case metrics::probe_kind::scalar:
      out.push_back(v.scalar);
      break;
    case metrics::probe_kind::per_class:
      for (const auto& [key, value] : v.classes) out.push_back(value);
      break;
    case metrics::probe_kind::distribution:
      out.insert(out.end(), {static_cast<double>(v.dist.count), v.dist.mean,
                             v.dist.stddev, v.dist.min, v.dist.max,
                             v.dist.p50, v.dist.p90, v.dist.p99});
      break;
    case metrics::probe_kind::check:
      out.push_back(v.check.passed ? 1.0 : 0.0);
      break;
  }
}

struct named_probe {
  const metrics::probe* p = nullptr;
  std::string span_name;
};

std::vector<named_probe> resolve(const std::vector<std::string>& names) {
  std::vector<named_probe> out;
  for (const std::string& name : names) {
    const metrics::probe* p = metrics::find_probe(name);
    if (p == nullptr) throw std::runtime_error("unknown probe " + name);
    out.push_back({p, "metrics.probe." + name});
  }
  return out;
}

episode fig_episode(const run_args& args, span_log& log, check_tally& checks) {
  episode ep;
  const std::vector<named_probe> timeline = resolve(kTimelineProbes);
  const std::vector<named_probe> final_probes = resolve(kFinalProbes);
  log.timed("bench.episode", [&] {
    const auto episode_start = std::chrono::steady_clock::now();
    ep.rss_before_mb = rss_mb_now();
    std::size_t cell = 0;
    std::size_t random_fails = 0;
    for (const double natted : kFigNatted) {
      for (const bool nylon : {true, false}) {
        runtime::experiment_config cfg;
        cfg.peer_count = static_cast<std::size_t>(args.peers);
        cfg.natted_fraction = natted;
        cfg.protocol = nylon ? core::protocol_kind::nylon
                             : core::protocol_kind::reference;
        cfg.mix = nylon ? nat::paper_mix() : nat::prc_only_mix();
        cfg.seed = mix(args.seed * 16 + cell);
        cfg.validate();
        const sim::sim_time period = cfg.gossip.shuffle_period;
        const std::string label = std::string(nylon ? "nylon" : "reference") +
                                  " natted=" + std::to_string(natted);
        log.timed("bench.cell", [&] {
          std::optional<runtime::scenario> world;
          ep.build_s.push_back(
              log.timed("runtime.build", [&] { world.emplace(cfg); }).wall_s);
          if (cell == 0) ep.rss_after_build_mb = rss_mb_now();
          ep.peak_population =
              std::max(ep.peak_population, world->alive_count());
          obs::reset_counters();

          // Evaluates `probes` against one fresh oracle.
          const auto evaluate = [&](const std::vector<named_probe>& probes,
                                    bool final_set) {
            std::optional<metrics::reachability_oracle> oracle;
            ep.measure_s += log.timed("metrics.oracle", [&] {
                                 oracle.emplace(world->oracle());
                               }).wall_s;
            const metrics::probe_context ctx(*world, *oracle);
            for (const named_probe& np : probes) {
              metrics::probe_value v;
              ep.measure_s +=
                  log.timed(np.span_name, [&] { v = np.p->run(ctx); }).wall_s;
              record_value(v, ep.probe_values);
              if (!final_set || !nylon ||
                  v.kind != metrics::probe_kind::check) {
                continue;
              }
              const std::string what =
                  label + " " + std::string(np.p->name) + ": " +
                  v.check.detail;
              if (np.p->name == "check_sampling_random") {
                if (!v.check.passed) {
                  ++random_fails;
                  std::cerr << "note: " << what << "\n";
                }
              } else {
                checks.expect(v.check.passed, what);
              }
            }
          };

          // Period i of the sweep is period i of every cell: the sweep's
          // per-period wall is their sum. (Per cell, Nylon periods cost
          // ~4x reference ones, and the median of that two-mode mix
          // falls between the modes.)
          std::size_t tick = 0;
          auto last_tick = std::chrono::steady_clock::now();
          world->set_sampler(runtime::scenario::sampler_timeline, period,
                             [&](sim::sim_time) {
                               evaluate(timeline, false);
                               const auto now = std::chrono::steady_clock::now();
                               if (tick == ep.period_ms.size()) {
                                 ep.period_ms.push_back(0.0);
                               }
                               ep.period_ms[tick++] +=
                                   std::chrono::duration<double, std::milli>(
                                       now - last_tick)
                                       .count();
                               last_tick = now;
                             });
          ep.run_until_s +=
              log.timed("sim.run_until", [&] {
                   world->run_until(kFigWarmupPeriods * period);
                 }).self_s;
          world->clear_sampler(runtime::scenario::sampler_timeline);
          ep.events += world->events_executed();
          accumulate(ep.counters, obs::read_counters());

          evaluate(final_probes, true);
          std::uint64_t digest = 0;
          log.timed("runtime.state_digest",
                    [&] { digest = world->state_digest(); });
          ep.digests.push_back(digest);
          world.reset();
        });
        ++cell;
      }
    }
    // check_sampling_random is a 1%-level hypothesis test, so a correct
    // sampler fails it in ~1% of cells. Judged per cell, five Nylon cells
    // would fail ~5% of correct runs; the family-wise rule flags a run
    // only when two or more cells fail (~0.1% of correct runs under
    // independence), which a biased sampler, failing most cells, trips.
    checks.expect(random_fails <= 1,
                  std::to_string(random_fails) +
                      " Nylon cells failed check_sampling_random");
    double build_total = 0.0;
    for (const double b : ep.build_s) build_total += b;
    ep.run_s = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - episode_start)
                   .count() -
               build_total;
  });
  return ep;
}

episode run_episode(const run_args& args, span_log& log, check_tally& checks) {
  if (args.workload == "fig-sweep") return fig_episode(args, log, checks);
  return churn_episode(args, args.workload == "churn-2shard" ? 2 : 1, log,
                       checks);
}

// --- reporting ----------------------------------------------------------------

/// Ordered (name -> {value, unit}) metric block.
class metric_block {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    entries_.push_back({name, value, unit});
  }
  [[nodiscard]] util::json to_json() const {
    util::json out = util::json::object();
    for (const entry& e : entries_) {
      util::json m = util::json::object();
      m["value"] = e.value;
      m["unit"] = e.unit;
      out[e.name] = std::move(m);
    }
    return out;
  }
  void print(std::ostream& os) const {
    for (const entry& e : entries_) {
      os << "  " << e.name << " = " << e.value << " " << e.unit << "\n";
    }
  }

 private:
  struct entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<entry> entries_;
};

void end_to_end_metrics(const std::vector<episode>& eps,
                        double rss_before_mb, double peak_rss,
                        metric_block& m) {
  std::vector<double> builds;
  std::vector<double> run_s;
  std::vector<double> eps_rate;
  std::vector<double> measure_s;
  std::vector<double> periods;
  for (const episode& e : eps) {
    builds.insert(builds.end(), e.build_s.begin(), e.build_s.end());
    run_s.push_back(e.run_s);
    eps_rate.push_back(static_cast<double>(e.events) / e.run_until_s);
    measure_s.push_back(e.measure_s);
    periods.insert(periods.end(), e.period_ms.begin(), e.period_ms.end());
  }
  const tail_stat tail = tail_of(periods);
  std::cout << "# period_wall_ms_tail is p" << tail.percentile << " of "
            << tail.samples << " periods\n";
  m.add("setup_s", median(builds), "s");
  m.add("run_s", median(run_s), "s");
  m.add("sim_events_per_s", median(eps_rate), "1/s");
  m.add("period_wall_ms_p50", median(periods), "ms");
  m.add("period_wall_ms_tail", tail.value, "ms");
  m.add("measure_s", median(measure_s), "s");
  m.add("peak_rss_mb", peak_rss, "MB");
  m.add("rss_bytes_per_peer",
        (peak_rss - rss_before_mb) * 1024.0 * 1024.0 /
            static_cast<double>(eps.front().peak_population),
        "B");
}

double p50_ms(const span_log& log, const std::string& name) {
  return median(log.durations_ms(name));
}

void per_layer_metrics(const episode& e, const span_log& log,
                       double first_build_rss_mb, double untraced_run_s,
                       double peak_rss,
                       const check_tally& checks, std::uint64_t seed,
                       metric_block& m) {
  const obs::counter_snapshot& c = e.counters;
  const auto events = static_cast<double>(e.events);
  const auto cnt = [&](obs::counter k) { return static_cast<double>(c[k]); };
  const double run_until_s = log.self_total_s("sim.run_until");
  m.add("sim.run_until_s", run_until_s, "s");
  m.add("sim.ns_per_event", run_until_s * 1e9 / events, "ns");
  m.add("sim.events", events, "count");
  m.add("sim.event_queue.peak_depth", cnt(obs::counter::queue_peak_depth),
        "count");
  const double allocs = cnt(obs::counter::pool_event_allocs);
  const double reuses = cnt(obs::counter::pool_event_reuses);
  m.add("sim.event_queue.slab_reuse_ratio",
        allocs + reuses > 0 ? reuses / (allocs + reuses) : 0.0, "ratio");

  const obs::epoch_profile& p = e.profile;
  double work_max = 0.0;
  double wait_total = 0.0;
  double spins = 0.0;
  double parks = 0.0;
  for (const obs::shard_profile& s : p.shards) {
    work_max = std::max(work_max, s.work_s);
    wait_total += s.wait_s;
    spins += static_cast<double>(s.spin_waits);
    parks += static_cast<double>(s.park_waits);
  }
  m.add("sim.shard_engine.epochs", static_cast<double>(p.epochs), "count");
  m.add("sim.shard_engine.events_per_epoch", p.events_per_epoch, "count");
  m.add("sim.shard_engine.epoch_width_ms_mean", p.epoch_width_ms_mean, "ms");
  m.add("sim.shard_engine.work_s_max", work_max, "s");
  m.add("sim.shard_engine.wait_s_total", wait_total, "s");
  m.add("sim.shard_engine.barrier_share", p.barrier_overhead(), "ratio");
  m.add("sim.shard_engine.imbalance", p.imbalance(), "ratio");
  m.add("sim.spin_barrier.park_ratio",
        spins + parks > 0 ? parks / (spins + parks) : 0.0, "ratio");
  m.add("sim.shard_channel.drain_bytes_peak",
        cnt(obs::counter::drain_bytes_peak), "B");

  m.add("net.transport.msgs_per_event",
        static_cast<double>(c.messages_total()) / events, "count");
  m.add("net.transport.msg_request", cnt(obs::counter::msg_request), "count");
  m.add("net.transport.msg_response", cnt(obs::counter::msg_response),
        "count");
  m.add("net.transport.msg_open_hole", cnt(obs::counter::msg_open_hole),
        "count");
  m.add("net.transport.msg_ping", cnt(obs::counter::msg_ping), "count");
  m.add("net.transport.msg_pong", cnt(obs::counter::msg_pong), "count");
  m.add("net.payload_arena.bytes_peak", cnt(obs::counter::arena_bytes_peak),
        "B");
  m.add("util.flat_hash.probes_per_event",
        cnt(obs::counter::hash_probes) / events, "count");
  m.add("util.flat_hash.rehashes", cnt(obs::counter::hash_rehashes),
        "count");

  const tail_stat add_tail = tail_of(log.durations_ms("runtime.add_peer"));
  m.add("runtime.add_peer_us_p50", 1e3 * p50_ms(log, "runtime.add_peer"),
        "us");
  m.add("runtime.add_peer_us_tail", 1e3 * add_tail.value, "us");
  m.add("runtime.remove_peer_us_p50",
        1e3 * p50_ms(log, "runtime.remove_peer"), "us");
  m.add("runtime.add_peer_calls", static_cast<double>(e.joins), "count");
  m.add("runtime.remove_peer_calls", static_cast<double>(e.departures),
        "count");
  m.add("runtime.rebind_ms", e.rebind_ms, "ms");
  m.add("runtime.rebind_peers", static_cast<double>(e.rebind_peers), "count");
  std::cout << "# runtime.add_peer_us_tail is p" << add_tail.percentile
            << " of " << add_tail.samples << " calls\n";

  m.add("runtime.build_s", median(e.build_s), "s");
  m.add("proc.rss_after_build_mb", first_build_rss_mb, "MB");
  m.add("core.routing_table.peak", cnt(obs::counter::route_table_peak),
        "count");
  m.add("nat.nat_device.table_peak", cnt(obs::counter::nat_table_peak),
        "count");
  m.add("proc.rss_growth_mb", peak_rss - first_build_rss_mb, "MB");

  m.add("metrics.oracle_ms", p50_ms(log, "metrics.oracle"), "ms");
  for (const auto* set : {&kTimelineProbes, &kFinalProbes}) {
    for (const std::string& name : *set) {
      m.add("metrics.probe." + name + "_ms",
            p50_ms(log, "metrics.probe." + name), "ms");
    }
  }
  m.add("metrics.measure_clusters_ms",
        p50_ms(log, "metrics.measure_clusters"), "ms");
  m.add("metrics.probe_share", log.outermost_total_s("metrics.") / e.run_s,
        "ratio");
  m.add("runtime.state_digest_ms", p50_ms(log, "runtime.state_digest"), "ms");
  m.add("bench.trace_overhead_pct",
        100.0 * (e.run_s - untraced_run_s) / untraced_run_s, "%");
  m.add("bench.check_fail_frac",
        static_cast<double>(checks.failed) /
            static_cast<double>(std::max<std::uint64_t>(checks.attempted, 1)),
        "ratio");

  perfbench::layer_sizes sizes;
  sizes.queue_depth = c[obs::counter::queue_peak_depth];
  sizes.routing_entries = c[obs::counter::route_table_peak];
  sizes.nat_rules = c[obs::counter::nat_table_peak];
  for (const auto& [name, ns] : perfbench::time_layers(sizes, seed)) {
    m.add(name, ns, "ns");
  }
}

util::json manifest(const std::string& workload, std::uint64_t seed,
                    bool trace) {
  util::json out = util::json::object();
  out["workload"] = workload;
  out["seed"] = static_cast<std::int64_t>(seed);
  out["trace"] = trace;
  out["nproc"] = static_cast<std::int64_t>(std::thread::hardware_concurrency());
  out["compiler"] = PERFBENCH_COMPILER;
  out["build_type"] = PERFBENCH_BUILD_TYPE;
  out["flags"] = PERFBENCH_FLAGS;
  out["nylon_obs"] = PERFBENCH_NYLON_OBS;
  return out;
}

int run(int argc, char** argv) {
  util::flag_set flags;
  const auto* workload = flags.add_string(
      "workload", "", "churn-1shard | churn-2shard | fig-sweep");
  const auto* seed = flags.add_int("seed", -1, "workload seed (>= 0)");
  const auto* seconds =
      flags.add_int("seconds", 0, "measured wall time budget (>= 1)");
  const auto* trace = flags.add_int(
      "trace", -1, "0 = end-to-end metrics, 1 = traced per-layer metrics");
  const auto* peers = flags.add_int(
      "peers", 0, "universe size (default: 20000 churn, 1000 per fig cell)");
  const auto* spans_out =
      flags.add_string("spans-out", "", "write the traced run's spans here");
  const auto* inject = flags.add_string(
      "inject-fault", "", "'digest': corrupt the reported digests (test aid)");
  const auto positional = flags.parse(argc, argv);

  std::vector<std::string> errors;
  if (!positional.empty()) errors.push_back("unexpected argument " + positional[0]);
  if (*workload != "churn-1shard" && *workload != "churn-2shard" &&
      *workload != "fig-sweep") {
    errors.push_back("unknown --workload '" + *workload +
                     "' (churn-1shard | churn-2shard | fig-sweep)");
  }
  if (*seed < 0) errors.push_back("--seed must be a non-negative integer");
  if (*seconds < 1 || *seconds > 3600) {
    errors.push_back("--seconds must be in [1, 3600]");
  }
  if (*trace != 0 && *trace != 1) errors.push_back("--trace must be 0 or 1");
  if (flags.provided("peers") && (*peers < 100 || *peers > 1000000)) {
    errors.push_back("--peers must be in [100, 1000000]");
  }
  if (!inject->empty() && *inject != "digest") {
    errors.push_back("--inject-fault must be 'digest'");
  }
  if (!errors.empty()) {
    for (const std::string& e : errors) std::cerr << "perfbench: " << e << "\n";
    std::cerr << flags.usage("perfbench");
    return 2;
  }

  run_args args;
  args.workload = *workload;
  args.seed = static_cast<std::uint64_t>(*seed);
  args.peers = flags.provided("peers")
                   ? *peers
                   : (args.workload == "fig-sweep" ? kFigPeers : kChurnPeers);

  check_tally checks;
  metric_block metrics_out;
  std::vector<std::uint64_t> digests;
  const auto check_same = [&](const episode& a, const episode& b,
                              const std::string& what) {
    checks.expect(a.digests == b.digests, what + ": state digests differ");
    if (!a.probe_values.empty() || !b.probe_values.empty()) {
      checks.expect(a.probe_values == b.probe_values,
                    what + ": probe values differ");
    }
  };

  const run_shape shape = shape_of(args.workload);
  std::vector<episode> done;  // every untraced episode, in run order
  const auto untraced_episode = [&]() -> episode {
    span_log untraced_log(false);
    done.push_back(run_episode(args, untraced_log, checks));
    if (done.size() > 1) check_same(done.front(), done.back(), "episode repeat");
    return done.back();
  };
  for (std::size_t i = 0; i < shape.warmup_episodes; ++i) untraced_episode();

  if (*trace == 0) {
    const auto count = static_cast<std::size_t>(std::max(
        1.0, std::ceil(static_cast<double>(*seconds) /
                           shape.nominal_episode_s -
                       1e-9)));
    std::vector<episode> measured;
    for (std::size_t i = 0; i < count; ++i) {
      measured.push_back(untraced_episode());
      std::cout << "# episode " << i << ": build_s "
                << median(measured.back().build_s) << " run_s "
                << measured.back().run_s << " measure_s "
                << measured.back().measure_s << "\n";
    }
    end_to_end_metrics(measured, done.front().rss_before_mb, peak_rss_mb(),
                       metrics_out);
    digests = measured.front().digests;
    std::cout << "# " << count << " measured episode(s) after "
              << shape.warmup_episodes << " warm-up\n";
  } else {
    // Episodes keep getting a little faster as the allocator warms, so
    // the traced episode is timed against the mean of the untraced ones
    // right before and after it.
    const double before_s = untraced_episode().run_s;
    span_log log(true);
    const episode traced = run_episode(args, log, checks);
    check_same(done.front(), traced, "traced vs untraced");
    const double after_s = untraced_episode().run_s;
    std::cout << "# run_s untraced " << before_s << ", traced "
              << traced.run_s << ", untraced " << after_s << "\n";
    if (!spans_out->empty() && !log.write_trace(*spans_out)) {
      std::cerr << "perfbench: cannot write " << *spans_out << "\n";
      return 2;
    }
    per_layer_metrics(traced, log, done.front().rss_after_build_mb,
                      0.5 * (before_s + after_s), peak_rss_mb(), checks,
                      args.seed, metrics_out);
    digests = traced.digests;
    std::cout << "# " << log.spans().size() << " spans recorded\n";
  }
  if (*inject == "digest") {
    for (std::uint64_t& d : digests) d ^= 1;
  }

  std::cout << "# workload " << args.workload << " seed " << args.seed
            << " peers " << args.peers << "\n";
  metrics_out.print(std::cout);
  util::json digest_list = util::json::array();
  for (const std::uint64_t d : digests) digest_list.push_back(hex64(d));
  util::json result = util::json::object();
  result["correct"] = checks.failed == 0;
  result["attempted"] = checks.attempted;
  result["failed"] = checks.failed;
  result["metrics"] = metrics_out.to_json();
  result["digests"] = std::move(digest_list);
  result["manifest"] = manifest(args.workload, args.seed, *trace == 1);
  std::cout << result.dump_string(-1) << "\n";
  return checks.failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}

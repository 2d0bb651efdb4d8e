// Layer timings: each inner layer's public entry point timed in
// isolation, at the sizes a traced workload run observed. These are
// isolated timings of one operation on warm caches; they do not say how
// much of a workload's run_s each layer accounts for.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Sizes observed in the traced run (obs counters).
struct layer_sizes {
  std::uint64_t queue_depth = 0;        ///< sim.event_queue.peak_depth
  std::uint64_t routing_entries = 0;    ///< core.routing_table.peak
  std::uint64_t nat_rules = 0;          ///< nat.nat_device.table_peak
  std::size_t view_size = 15;
  /// churn-2shard's start/finish barriers: 2 workers + the coordinator.
  std::size_t barrier_workers = 3;
};

/// ("<module>.<op>_ns", median ns per operation) for every layer.
[[nodiscard]] std::vector<std::pair<std::string, double>> time_layers(
    const layer_sizes& sizes, std::uint64_t seed);

}  // namespace perfbench

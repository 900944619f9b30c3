// Cold set-up, as a fresh process pays it: load the machine registry,
// calibrate every targeted machine, fill the grid caches. The benchmark
// repeats it several times per run with the process-wide caches cleared
// in between and reports the median.
#pragma once

#include <string>
#include <vector>

#include "core/grophecy.h"
#include "exec/sweep.h"

namespace perfbench {

/// Empties the process-wide caches set-up fills: calibration and the
/// skeleton and machine parse caches, plus the built-skeleton and usage
/// artifact caches when `artifacts` is set.
void clear_process_caches(bool artifacts);

/// Builds a registry the way hw::MachineRegistry::global() does (builtins
/// plus the shipped specs); returns the number of machines.
std::size_t load_registry();

/// Calibrates each named machine for `seed` through the calibration
/// cache, as the first projection on it would.
void calibrate_machines(const std::vector<std::string>& machines,
                        const grophecy::core::ProjectionOptions& options,
                        std::uint64_t seed);

/// Builds the skeleton and usage artifact of every spec (paper labels or
/// generated ones) into the process-wide caches.
void fill_grid_caches(const std::vector<grophecy::exec::JobSpec>& specs);

/// Hit and miss counts of the three process-wide caches a projection
/// consults, for per-layer hit ratios over a stretch of the run.
struct CacheCounts {
  enum Cache { kCalibration, kSkeleton, kUsage, kCaches };
  std::uint64_t hits[kCaches] = {};
  std::uint64_t misses[kCaches] = {};

  /// The caches' counters right now.
  static CacheCounts now();
  /// Adds the counts between two snapshots.
  void add_delta(const CacheCounts& before, const CacheCounts& after);
  /// Hits over lookups; 0 when there were none.
  double hit_ratio(Cache cache) const;
};

/// Seconds spent in each step of one set-up.
struct SetupTimes {
  double registry_s = 0.0;
  double calibrate_s = 0.0;
  double grid_s = 0.0;
  double other_s = 0.0;  ///< Workload-specific (e.g. starting the daemon).
  double total_s() const {
    return registry_s + calibrate_s + grid_s + other_s;
  }
};

/// Medians over several set-ups of each step and of the total.
struct SetupSummary {
  double total_s = 0.0;
  double registry_ms = 0.0;
  double calibrate_ms = 0.0;
};
SetupSummary summarize(const std::vector<SetupTimes>& runs);

}  // namespace perfbench

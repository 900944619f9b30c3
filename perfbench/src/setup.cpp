#include "setup.h"

#include "dataflow/usage_cache.h"
#include "hw/machine_file.h"
#include "hw/machine_registry.h"
#include "hw/registry.h"
#include "pcie/calibration_cache.h"
#include "skeleton/parse.h"
#include "stats.h"
#include "traced_job.h"
#include "workloads/skeleton_cache.h"

namespace perfbench {

using namespace grophecy;

void clear_process_caches(bool artifacts) {
  pcie::CalibrationCache::instance().clear();
  skeleton::skeleton_parse_cache().clear();
  hw::machine_parse_cache().clear();
  if (!artifacts) return;
  workloads::skeleton_cache().clear();
  dataflow::usage_cache().clear();
}

std::size_t load_registry() {
  hw::MachineRegistry registry;
  for (hw::MachineSpec& machine : hw::builtin_machines())
    registry.add(std::move(machine));
  registry.scan_directory(GROPHECY_MACHINE_DIR);
  return registry.size();
}

void calibrate_machines(const std::vector<std::string>& machines,
                        const core::ProjectionOptions& options,
                        std::uint64_t seed) {
  for (const std::string& name : machines)
    calibrate_bus(hw::MachineRegistry::global().find(name), options, seed);
}

void fill_grid_caches(const std::vector<exec::JobSpec>& specs) {
  const workloads::PaperSuite& suite = workloads::PaperSuite::instance();
  for (const exec::JobSpec& spec : specs) {
    const workloads::Workload& workload = suite.find(spec.workload);
    const auto built = workloads::cached_skeleton(
        workload, resolve_size(workload, spec.size_label), spec.iterations);
    dataflow::cached_usage(built->usage_key, built->app);
  }
}

CacheCounts CacheCounts::now() {
  const auto calibration = pcie::CalibrationCache::instance().stats();
  const auto skeleton = workloads::skeleton_cache().stats();
  const auto usage = dataflow::usage_cache().stats();
  CacheCounts counts;
  counts.hits[kCalibration] = calibration.hits;
  counts.misses[kCalibration] = calibration.misses;
  counts.hits[kSkeleton] = skeleton.hits;
  counts.misses[kSkeleton] = skeleton.misses;
  counts.hits[kUsage] = usage.hits;
  counts.misses[kUsage] = usage.misses;
  return counts;
}

void CacheCounts::add_delta(const CacheCounts& before,
                            const CacheCounts& after) {
  for (int i = 0; i < kCaches; ++i) {
    hits[i] += after.hits[i] - before.hits[i];
    misses[i] += after.misses[i] - before.misses[i];
  }
}

double CacheCounts::hit_ratio(Cache cache) const {
  const std::uint64_t total = hits[cache] + misses[cache];
  return total == 0 ? 0.0
                    : static_cast<double>(hits[cache]) /
                          static_cast<double>(total);
}

SetupSummary summarize(const std::vector<SetupTimes>& runs) {
  std::vector<double> total, registry, calibrate;
  for (const SetupTimes& run : runs) {
    total.push_back(run.total_s());
    registry.push_back(run.registry_s * 1e3);
    calibrate.push_back(run.calibrate_s * 1e3);
  }
  return {median(total), median(registry), median(calibrate)};
}

}  // namespace perfbench

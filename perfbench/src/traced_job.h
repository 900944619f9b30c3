// The traced job: core::Grophecy::project re-composed from the public
// calls of each layer, in the same order and with the same per-component
// seeds, with one span around every layer call. It reproduces the
// pipeline's predicted and measured seconds bit for bit (the benchmark
// checks this on every traced job), so its per-layer self times describe
// the untraced job.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>

#include "core/grophecy.h"
#include "exec/sweep.h"
#include "hw/machine.h"
#include "trace.h"
#include "workloads/workload.h"

namespace perfbench {

namespace core = grophecy::core;
namespace exec = grophecy::exec;
namespace hw = grophecy::hw;
namespace pcie = grophecy::pcie;
namespace workloads = grophecy::workloads;

/// The reconciliation expects the per-layer self times of a traced job to
/// sum to the untraced job time plus the measured tracing overhead
/// (trace.overhead_pct). This is how many percentage points the two may
/// differ before it fails: noise between two means taken from different
/// jobs and rounds (observed up to ~6 on a shared 4-core host). A layer
/// left out of the re-composition moves the sum far more.
inline constexpr double kReconcileSlackPct = 10.0;

/// Counts gathered where the work happens, summed over traced jobs.
struct LayerCounters {
  std::atomic<std::uint64_t> jobs{0};
  std::atomic<std::uint64_t> variants{0};           ///< ExploreStats.
  std::atomic<std::uint64_t> projection_hits{0};    ///< ExploreStats.
  std::atomic<std::uint64_t> projection_misses{0};  ///< ExploreStats.
  std::atomic<std::uint64_t> cohort_events{0};      ///< CohortSimStats.
  std::atomic<std::uint64_t> next_id{0};            ///< Span ids.
};

/// The bus-model calibration of core::Grophecy's constructor: through the
/// process-wide pcie::CalibrationCache unless the options bypass it.
pcie::CalibrationReport calibrate_bus(const hw::MachineSpec& machine,
                                      const core::ProjectionOptions& options,
                                      std::uint64_t seed);

/// Resolves a spec's data size: a Table I label of the workload, or a
/// generated label (generators.h).
workloads::DataSize resolve_size(const workloads::Workload& workload,
                                 const std::string& label);

/// The options of a reference run: the same projection with every
/// process-wide cache bypassed, so a cache that served a wrong artifact
/// cannot agree with it.
core::ProjectionOptions reference_options(core::ProjectionOptions options);

/// A SweepEngine job function mirroring exec::SweepRequest::job_fn
/// (per-job stream seed, shared calibration seed, registry lookup of a
/// named machine) that also accepts generated size labels. Untraced.
exec::SweepEngine::JobFn mirror_job_fn(hw::MachineSpec machine,
                                       core::ProjectionOptions options,
                                       std::uint64_t base_seed);

/// The same job function, traced: each call records its spans into
/// `store` under a fresh id and adds its counts to `counters`. Both must
/// outlive every call.
exec::SweepEngine::JobFn traced_job_fn(hw::MachineSpec machine,
                                       core::ProjectionOptions options,
                                       std::uint64_t base_seed,
                                       TraceStore& store,
                                       LayerCounters& counters);

/// Per-job layer metrics of the traced jobs in `store`: mean self time
/// per layer (pcie.transfer_us, gpumodel.explore_us, core.self_us, ...),
/// variants and cohort events per job, and the explorer's projection
/// memo hit ratio. Keys are per_layer_metrics() names.
std::map<std::string, double> pipeline_layer_values(
    const TraceStore& store, const LayerCounters& counters);

/// The per-job self times of every pipeline layer in `values` (from
/// pipeline_layer_values), summed: the traced job's duration, in us.
double layer_sum_us(const std::map<std::string, double>& values);

}  // namespace perfbench

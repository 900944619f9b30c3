// Test oracle: the original per-block fluid event simulator.
//
// sim::EventGpuSimulator runs the fluid model on the cohort engine
// (sim/cohort_sim.h). This is the per-block O(events x resident) loop it
// replaced, kept verbatim as the executable specification the cohort
// engine is pinned against:
//
//   * tests/sim_equivalence_test.cpp checks jitter-free results bitwise
//     and jittered runs per-run (same placement policy, same RNG draw
//     order) and distributionally;
//   * bench/micro_sim measures the cohort/reference speedup that
//     scripts/bench_compare gates against bench/BENCH_sim.json.
//
// Lives with the tests: no product path constructs it.
#pragma once

#include <cstdint>
#include <vector>

#include "gpumodel/characteristics.h"
#include "hw/machine.h"
#include "sim/gpu_sim.h"
#include "util/rng.h"

namespace grophecy::sim {

/// Fluid discrete-event simulator of a GpuSpec, one block at a time.
/// Continuous jitter only (no EventSimOptions::jitter_quantum lattice).
class ReferenceEventSimulator final : public KernelTimer {
 public:
  ReferenceEventSimulator(hw::GpuSpec gpu, std::uint64_t seed);

  /// Deterministic launch time with per-block jitter disabled.
  SimBreakdown expected_launch(const gpumodel::KernelCharacteristics& kc) const;

  /// One observation with per-block lognormal jitter (plus launch jitter),
  /// drawing from the RNG in the same order as EventGpuSimulator.
  double run_launch_seconds(const gpumodel::KernelCharacteristics& kc) override;

 private:
  /// One resident block's remaining demands.
  struct RunningBlock {
    int sm = 0;
    double compute_left = 0.0;
    double memory_left = 0.0;
    double floor_left = 0.0;

    bool done() const;
  };

  /// Core fluid simulation; block_jitter_sigma = 0 gives the expectation.
  double simulate(const gpumodel::KernelCharacteristics& kc,
                  double block_jitter_sigma, util::Rng* rng) const;

  hw::GpuSpec gpu_;
  util::Rng rng_;
  // Scratch, hoisted so repeated simulations do not reallocate per call.
  mutable std::vector<int> sm_load_;
  mutable std::vector<RunningBlock> running_;
  mutable std::vector<int> compute_consumers_;
};

}  // namespace grophecy::sim

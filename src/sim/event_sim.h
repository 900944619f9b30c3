// Discrete-event GPU timing simulator (higher-fidelity cross-check).
//
// The wave-based GpuSimulator assumes blocks execute in synchronized waves
// and every SM gets an equal slice of DRAM bandwidth. Real devices are
// messier: the block scheduler is greedy (a finishing block's slot is
// refilled immediately), DRAM bandwidth is shared chip-wide, and
// block-to-block variation skews the tail. EventGpuSimulator models those
// effects with a fluid discrete-event simulation:
//
//   * every thread block carries a compute demand (issue cycles on its SM)
//     and a memory demand (bytes from the shared DRAM controller);
//   * resident blocks progress concurrently: compute rate is an equal
//     share of the SM's issue bandwidth, memory rate an equal share of
//     chip DRAM bandwidth — recomputed at every block start/finish event;
//   * the scheduler backfills the earliest free SM slot greedily.
//
// For homogeneous, fully occupied kernels the fluid model converges to the
// wave model (the cross-validation tests pin this), while partially filled
// tails and jittered blocks show the greedy scheduler's advantage. The
// projection pipeline can opt in via ProjectionOptions::detailed_sim.
//
// The fluid model runs on the cohort engine in sim/cohort_sim.h:
// closed-form generations when jitter is off, per-stream threshold heaps
// when it is on. The original per-block O(events x resident) loop is the
// executable specification; it lives with the tests as a test oracle
// (tests/oracles/reference_event_sim.h), and the equivalence suite
// (tests/sim_equivalence_test.cpp) pins the engine to it — bitwise when
// jitter is off.
#pragma once

#include <cstdint>

#include "gpumodel/characteristics.h"
#include "hw/machine.h"
#include "sim/cohort_sim.h"
#include "sim/gpu_sim.h"
#include "util/rng.h"

namespace grophecy::sim {

/// Tuning knobs for EventGpuSimulator. Defaults reproduce the reference
/// oracle exactly (bitwise when jitter is off).
struct EventSimOptions {
  /// When > 0, jittered runs snap each block's lognormal draw onto a
  /// lattice with step `jitter_quantum * sigma` in log space, letting
  /// same-jitter blocks share cohorts (fewer events, small documented
  /// accuracy cost — see docs/performance.md). 0 keeps draws continuous.
  double jitter_quantum = 0.0;
};

/// Fluid discrete-event simulator of a GpuSpec.
class EventGpuSimulator final : public KernelTimer {
 public:
  EventGpuSimulator(hw::GpuSpec gpu, std::uint64_t seed,
                    EventSimOptions options = {});

  /// Deterministic launch time with per-block jitter disabled.
  SimBreakdown expected_launch(const gpumodel::KernelCharacteristics& kc) const;

  /// One observation with per-block lognormal jitter (plus launch jitter).
  double run_launch_seconds(const gpumodel::KernelCharacteristics& kc) override;

  const hw::GpuSpec& gpu() const { return gpu_; }
  const EventSimOptions& options() const { return options_; }

  /// Counters from the cohort engine's most recent simulation. For
  /// benches and tests.
  const CohortSimStats& last_stats() const { return engine_.stats(); }

 private:
  /// Core fluid simulation; block_jitter_sigma = 0 gives the expectation.
  double simulate(const gpumodel::KernelCharacteristics& kc,
                  double block_jitter_sigma, util::Rng* rng) const;

  hw::GpuSpec gpu_;
  util::Rng rng_;
  EventSimOptions options_;
  mutable CohortEngine engine_;
};

}  // namespace grophecy::sim

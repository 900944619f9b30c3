// Process-wide cache of PCIe calibration results.
//
// The paper notes calibration is "automatically invoked when run on a new
// system" (§III-C) — i.e. once per system, not once per projection. The
// framework's calibration is a pure function of
//
//   (machine PCIe spec, calibration options, host memory mode, RNG seed)
//
// so two engines targeting the same system with the same procedure must
// arrive at the same model — and the second one has no reason to re-run
// the probes. This cache provides that sharing process-wide: the seven
// paper benches and every per-job engine a parallel sweep constructs
// calibrate the Argonne testbed once, and every later construction is a
// lookup.
//
// The sharing itself is a util::ArtifactCache keyed by the readable
// calibration_cache_key string: single-flight per key (concurrent sweep
// workers constructing engines for one machine run one calibration; the
// rest wait on it), distinct keys calibrate concurrently, and a throwing
// calibration is evicted, never cached. This class only stamps each
// returned report with its cache accounting.
//
// Determinism: the key includes the calibration seed, so a cached report
// is bit-identical to what the caller would have measured itself. Cache
// hits change wall-clock time, never results.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "hw/machine.h"
#include "pcie/calibrator.h"
#include "util/artifact_cache.h"

namespace grophecy::pcie {

/// Deterministic fingerprint of everything the calibration result depends
/// on: every field of the machine's PCIe spec (profiles + noise), the
/// full CalibrationOptions (probe sizes, replication, fit, estimator,
/// robustness), the host memory mode, and the calibration RNG seed.
/// A util::KeyBuilder hash over the fields, prefixed with the link name
/// for readability; stable within a process lifetime, which is all a
/// process-wide cache needs.
std::string calibration_cache_key(const hw::PcieSpec& spec,
                                  const CalibrationOptions& options,
                                  hw::HostMemory memory, std::uint64_t seed);

/// The process-wide calibration cache. Thread-safe; see file comment.
class CalibrationCache {
 public:
  using Factory = std::function<CalibrationReport()>;
  using Stats = util::ArtifactCache<CalibrationReport, std::string>::Stats;

  /// The singleton instance shared by every engine in the process.
  static CalibrationCache& instance();

  /// Returns the cached report for `key`, running `factory` exactly once
  /// per key to produce it (ArtifactCache::get_or_build semantics: every
  /// waiter joined to a failed flight rethrows its typed exception, and
  /// the next request for the key retriggers calibration). The returned
  /// copy has from_cache/cache_hits/cache_misses stamped; the stored
  /// entry keeps from_cache = false.
  CalibrationReport get_or_calibrate(const std::string& key,
                                     const Factory& factory);

  Stats stats() const { return cache_.stats(); }

  /// Cached entries (completed or in flight).
  std::size_t size() const { return cache_.size(); }

  /// Drops every entry and zeroes the counters (tests; a long-lived
  /// daemon recalibrating on a schedule would also use this).
  void clear() { cache_.clear(); }

 private:
  CalibrationCache() = default;

  util::ArtifactCache<CalibrationReport, std::string> cache_;
};

}  // namespace grophecy::pcie

// Seeded input generators. The benchmark derives every input from the
// workload seed given on the command line; the framework only ever sees
// the generated job specs and request lines. Same seed, same inputs.
#pragma once

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "exec/sweep.h"
#include "util/rng.h"
#include "workloads/workload.h"

namespace perfbench {

namespace exec = grophecy::exec;
namespace util = grophecy::util;
namespace workloads = grophecy::workloads;

/// Iteration counts every sweep and the serve mix draw from.
inline const std::vector<int> kIterationLadder{1, 2, 4, 8, 16, 32, 64, 128};

/// The paper workloads, in Table I order.
const std::vector<std::string>& paper_workload_names();

/// Derives decorrelated seeds from the workload seed: stream `stream`
/// (e.g. a round number) of seed `seed`.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

/// The label of a generated data size, and its inverse. Generated labels
/// never collide with Table I labels.
std::string generated_label(std::int64_t param);
std::optional<workloads::DataSize> parse_generated_label(
    const std::string& label);

/// A workload's paper size range widened by x1/4 below and x4 above.
struct SizeRange {
  std::int64_t lo = 0;
  std::int64_t hi = 0;
  std::int64_t count() const { return hi - lo + 1; }
};
SizeRange widened_range(const workloads::Workload& workload);

/// Jobs for the cold sweep: every job gets a data size no earlier job of
/// the same workload had, so every content-keyed lookup misses. Each
/// round of kColdRoundJobs jobs holds a fixed count per workload
/// (kColdShare), spread round-robin over the machines in a seeded order;
/// iteration counts come from the ladder.
class ColdJobGenerator {
 public:
  static constexpr std::size_t kColdRoundJobs = 80;
  /// Jobs per round of CFD, HotSpot, SRAD, Stassuij. Stassuij's widened
  /// range holds 496 sizes and HotSpot's 4081, which bounds the rounds a
  /// run can take (max_rounds() = 248).
  static constexpr std::size_t kColdShare[4] = {36, 14, 28, 2};
  static_assert(kColdShare[0] + kColdShare[1] + kColdShare[2] +
                    kColdShare[3] ==
                kColdRoundJobs);

  ColdJobGenerator(std::uint64_t seed, std::vector<std::string> machines);

  /// The next round. Throws std::length_error once a workload has no
  /// unused size left.
  std::vector<exec::JobSpec> next_round();

  /// Rounds the size spaces allow.
  static std::size_t max_rounds();

 private:
  util::Rng rng_;
  std::vector<std::string> machines_;
  std::vector<std::set<std::int64_t>> used_;  ///< Per workload.
};

/// The serve population: paper grid x ladder x machines, in that order.
std::vector<exec::JobSpec> serve_population(
    const std::vector<std::string>& machines);

/// `count` indices into a population of `size`, each drawn uniformly and
/// independently. The mix assumes no popularity skew: how often a spec
/// repeats follows from the population size and the request count alone
/// (repeat_share).
std::vector<std::size_t> uniform_mix(std::uint64_t seed, std::size_t size,
                                     std::size_t count);

/// Share of the mix's entries whose index already occurred earlier in it:
/// the requests a result cache keyed on the spec could have answered.
double repeat_share(const std::vector<std::size_t>& mix);

}  // namespace perfbench

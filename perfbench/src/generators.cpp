#include "generators.h"

#include <algorithm>
#include <stdexcept>

namespace perfbench {

namespace {

constexpr const char* kGeneratedPrefix = "gen ";

}  // namespace

const std::vector<std::string>& paper_workload_names() {
  static const std::vector<std::string> names{"CFD", "HotSpot", "SRAD",
                                              "Stassuij"};
  return names;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  util::Rng rng(seed ^ (0x9e3779b97f4a7c15ULL * (stream + 1)));
  return rng.next_u64();
}

std::string generated_label(std::int64_t param) {
  return kGeneratedPrefix + std::to_string(param);
}

std::optional<workloads::DataSize> parse_generated_label(
    const std::string& label) {
  const std::string prefix = kGeneratedPrefix;
  if (label.compare(0, prefix.size(), prefix) != 0) return std::nullopt;
  const std::string digits = label.substr(prefix.size());
  if (digits.empty() ||
      !std::all_of(digits.begin(), digits.end(),
                   [](char c) { return c >= '0' && c <= '9'; }))
    return std::nullopt;
  return workloads::DataSize{label, std::stoll(digits)};
}

SizeRange widened_range(const workloads::Workload& workload) {
  const std::vector<workloads::DataSize> sizes = workload.paper_data_sizes();
  std::int64_t lo = sizes.front().param;
  std::int64_t hi = sizes.front().param;
  for (const workloads::DataSize& size : sizes) {
    lo = std::min(lo, size.param);
    hi = std::max(hi, size.param);
  }
  return {std::max<std::int64_t>(lo / 4, 1), hi * 4};
}

ColdJobGenerator::ColdJobGenerator(std::uint64_t seed,
                                   std::vector<std::string> machines)
    : rng_(derive_seed(seed, 0xc01d)),
      machines_(std::move(machines)),
      used_(paper_workload_names().size()) {}

std::size_t ColdJobGenerator::max_rounds() {
  const workloads::PaperSuite& suite = workloads::PaperSuite::instance();
  std::size_t rounds = static_cast<std::size_t>(-1);
  for (std::size_t w = 0; w < paper_workload_names().size(); ++w) {
    const SizeRange range =
        widened_range(suite.find(paper_workload_names()[w]));
    rounds = std::min(rounds,
                      static_cast<std::size_t>(range.count()) / kColdShare[w]);
  }
  return rounds;
}

std::vector<exec::JobSpec> ColdJobGenerator::next_round() {
  const workloads::PaperSuite& suite = workloads::PaperSuite::instance();
  std::vector<std::size_t> order;
  for (std::size_t w = 0; w < paper_workload_names().size(); ++w)
    order.insert(order.end(), kColdShare[w], w);
  // Seeded Fisher-Yates, so workloads interleave within the round.
  for (std::size_t i = order.size(); i > 1; --i)
    std::swap(order[i - 1],
              order[static_cast<std::size_t>(rng_.uniform_int(
                  0, static_cast<std::int64_t>(i - 1)))]);

  std::vector<exec::JobSpec> specs;
  specs.reserve(order.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    const std::size_t w = order[i];
    const std::string& name = paper_workload_names()[w];
    const SizeRange range = widened_range(suite.find(name));
    std::set<std::int64_t>& used = used_[w];
    if (static_cast<std::int64_t>(used.size()) >= range.count())
      throw std::length_error("sweep_cold: no unused " + name + " size left");
    std::int64_t param = rng_.uniform_int(range.lo, range.hi);
    while (!used.insert(param).second)  // probe upward to the next unused
      param = param == range.hi ? range.lo : param + 1;
    const auto rung = rng_.uniform_int(
        0, static_cast<std::int64_t>(kIterationLadder.size()) - 1);
    const int iterations = kIterationLadder[static_cast<std::size_t>(rung)];
    specs.push_back({name, generated_label(param), iterations,
                     machines_[i % machines_.size()]});
  }
  return specs;
}

std::vector<exec::JobSpec> serve_population(
    const std::vector<std::string>& machines) {
  const workloads::PaperSuite& suite = workloads::PaperSuite::instance();
  std::vector<exec::JobSpec> population;
  for (const std::string& machine : machines)
    for (const std::string& name : paper_workload_names())
      for (const workloads::DataSize& size :
           suite.find(name).paper_data_sizes())
        for (int iterations : kIterationLadder)
          population.push_back({name, size.label, iterations, machine});
  return population;
}

std::vector<std::size_t> uniform_mix(std::uint64_t seed, std::size_t size,
                                     std::size_t count) {
  util::Rng rng(derive_seed(seed, 0x5e7e));
  std::vector<std::size_t> mix;
  mix.reserve(count);
  for (std::size_t i = 0; i < count; ++i)
    mix.push_back(static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(size) - 1)));
  return mix;
}

double repeat_share(const std::vector<std::size_t>& mix) {
  if (mix.empty()) return 0.0;
  const std::set<std::size_t> distinct(mix.begin(), mix.end());
  return 1.0 - static_cast<double>(distinct.size()) /
                   static_cast<double>(mix.size());
}

}  // namespace perfbench

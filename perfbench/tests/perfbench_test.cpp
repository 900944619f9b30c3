// Tests of the benchmark's own statistics, span arithmetic and seeded
// generators.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <set>
#include <stdexcept>

#include "generators.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(Stats, MedianOfOddAndEvenCounts) {
  EXPECT_EQ(median({3, 1, 2}), 2.0);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_THROW(median({}), std::invalid_argument);
}

TEST(Stats, TailLeavesTenSamplesBeyond) {
  // 100 samples 1..100: the 90th value has exactly 10 above it.
  const Tail t = tail(one_to(100));
  EXPECT_EQ(t.value, 90.0);
  EXPECT_DOUBLE_EQ(t.percentile, 90.0);
  EXPECT_EQ(t.samples, 100u);
  // 1000 samples: p99.
  const Tail big = tail(one_to(1000));
  EXPECT_EQ(big.value, 990.0);
  EXPECT_DOUBLE_EQ(big.percentile, 99.0);
  // Order does not matter.
  std::vector<double> shuffled = one_to(100);
  std::reverse(shuffled.begin(), shuffled.end());
  EXPECT_EQ(tail(shuffled).value, 90.0);
}

TEST(Stats, TailNeedsMoreThanTenSamples) {
  EXPECT_THROW(tail(one_to(10)), std::invalid_argument);
  EXPECT_EQ(tail(one_to(11)).value, 1.0);
}

TEST(Stats, NearestRankQuantile) {
  EXPECT_EQ(quantile(one_to(100), 0.99), 99.0);
  EXPECT_EQ(quantile(one_to(100), 0.5), 50.0);
  EXPECT_EQ(quantile(one_to(100), 0.0), 1.0);
  EXPECT_EQ(quantile(one_to(100), 1.0), 100.0);
}

TEST(Stats, WindowedRateIsTheMedianWindow) {
  // Three windows of two rounds: 10/1, 10/2, 10/4 jobs per second.
  const std::vector<double> counts{5, 5, 5, 5, 5, 5};
  const std::vector<double> seconds{0.5, 0.5, 1, 1, 2, 2};
  EXPECT_DOUBLE_EQ(windowed_rate(counts, seconds, 2), 5.0);
  // One slow window does not move the median.
  const std::vector<double> slow{0.5, 0.5, 0.5, 0.5, 50, 50};
  EXPECT_DOUBLE_EQ(windowed_rate(counts, slow, 2), 10.0);
}

TEST(Stats, WindowedRateFoldsAShortTail) {
  // 5 rounds in windows of 2: the fifth joins the second window.
  const std::vector<double> counts{1, 1, 1, 1, 1};
  const std::vector<double> seconds{1, 1, 1, 1, 1};
  EXPECT_DOUBLE_EQ(windowed_rate(counts, seconds, 2), 1.0);
  // Fewer samples than a window: one window.
  EXPECT_DOUBLE_EQ(windowed_rate({4}, {2}, 10), 2.0);
  EXPECT_THROW(windowed_rate({1, 2}, {1}, 1), std::invalid_argument);
}

TEST(Stats, WindowedTailIsTheMedianOfWindowTails) {
  std::vector<double> samples;
  for (int w = 0; w < 3; ++w)
    for (int i = 1; i <= 100; ++i) samples.push_back(i + 1000.0 * w);
  // Window tails 90, 1090, 2090; the median is 1090.
  EXPECT_EQ(windowed_tail(samples, 100), 1090.0);
  // A single window when there are fewer samples than the window.
  EXPECT_EQ(windowed_tail(one_to(50), 100), 40.0);
}

TEST(Stats, OpenLoopLatencyCountsFromTheDueTime) {
  // Requests due every 1 s; the generator stalled so request 1 was sent
  // at 2.5 s and answered at 2.6 s. Its latency includes the stall.
  const std::vector<double> due{0, 1, 2};
  const std::vector<double> reply{0.1, 2.6, 2.7};
  const std::vector<double> latency = open_loop_latencies(due, reply);
  EXPECT_NEAR(latency[0], 0.1, 1e-12);
  EXPECT_NEAR(latency[1], 1.6, 1e-12);
  EXPECT_NEAR(latency[2], 0.7, 1e-12);
  EXPECT_THROW(open_loop_latencies({0}, {}), std::invalid_argument);
}

Span span(const char* name, std::int32_t parent, std::int64_t start,
          std::int64_t end) {
  return {name, 0, parent, start, end};
}

TEST(Trace, SelfTimeIsDurationMinusChildren) {
  const std::vector<Span> spans{
      span("job", -1, 0, 100),
      span("a", 0, 10, 30),
      span("b", 0, 40, 70),
      span("a.inner", 1, 15, 20),
  };
  const std::vector<std::int64_t> self = self_times(spans);
  EXPECT_EQ(self[0], 100 - 20 - 30);
  EXPECT_EQ(self[1], 20 - 5);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 5);
  // Self times of a tree sum to the root's duration.
  EXPECT_EQ(std::accumulate(self.begin(), self.end(), std::int64_t{0}), 100);
}

TEST(Trace, OverlappingAndOverhangingChildrenCountOnce) {
  const std::vector<Span> spans{
      span("request", -1, 0, 100),
      span("x", 0, 10, 50),
      span("y", 0, 30, 60),    // overlaps x by 20
      span("z", 0, 90, 130),   // overhangs the parent by 30
  };
  const std::vector<std::int64_t> self = self_times(spans);
  EXPECT_EQ(self[0], 100 - 50 - 10);  // covered: [10, 60) and [90, 100)
}

TEST(Trace, JobTraceNestsAndStoreRebasesParents) {
  TraceStore store;
  for (std::uint64_t id = 0; id < 2; ++id) {
    JobTrace trace(id);
    {
      SpanScope job(trace, "core.job");
      SpanScope layer(trace, "gpumodel.explore");
    }
    trace.add("serve.request", 0, 10);
    store.append(trace);
  }
  const std::vector<Span> spans = store.spans();
  ASSERT_EQ(spans.size(), 6u);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[4].parent, 3);  // second job's child, rebased
  EXPECT_EQ(spans[2].parent, -1);
  EXPECT_EQ(spans[4].id, 1u);
  EXPECT_EQ(spans[5].duration_ns(), 10);
  EXPECT_EQ(store.self_ns_by_name().at("serve.request"), 20);
}

TEST(Generators, SameSeedSameInputs) {
  const std::vector<std::string> machines{"anl_eureka", "volta_v100"};
  ColdJobGenerator a(7, machines), b(7, machines), c(8, machines);
  bool differs = false;
  for (int round = 0; round < 3; ++round) {
    const auto ra = a.next_round(), rb = b.next_round(), rc = c.next_round();
    ASSERT_EQ(ra.size(), ColdJobGenerator::kColdRoundJobs);
    for (std::size_t i = 0; i < ra.size(); ++i) {
      EXPECT_EQ(ra[i].key(), rb[i].key());
      differs |= ra[i].key() != rc[i].key();
    }
  }
  EXPECT_TRUE(differs);
  EXPECT_EQ(uniform_mix(3, 240, 500), uniform_mix(3, 240, 500));
  EXPECT_NE(uniform_mix(3, 240, 500), uniform_mix(4, 240, 500));
  EXPECT_EQ(derive_seed(3, 1), derive_seed(3, 1));
  EXPECT_NE(derive_seed(3, 1), derive_seed(3, 2));
}

TEST(Generators, ColdSizesNeverRepeatWithinARun) {
  ColdJobGenerator generator(11, {"anl_eureka", "volta_v100", "hopper_h100"});
  const workloads::PaperSuite& suite = workloads::PaperSuite::instance();
  std::map<std::string, std::set<std::int64_t>> seen;
  std::size_t jobs = 0;
  for (std::size_t r = 0; r < ColdJobGenerator::max_rounds(); ++r) {
    for (const exec::JobSpec& spec : generator.next_round()) {
      const auto size = parse_generated_label(spec.size_label);
      ASSERT_TRUE(size.has_value()) << spec.size_label;
      const SizeRange range = widened_range(suite.find(spec.workload));
      EXPECT_GE(size->param, range.lo);
      EXPECT_LE(size->param, range.hi);
      EXPECT_TRUE(seen[spec.workload].insert(size->param).second)
          << spec.workload << " size " << size->param << " repeated";
      EXPECT_NE(std::find(kIterationLadder.begin(), kIterationLadder.end(),
                          spec.iterations),
                kIterationLadder.end());
      ++jobs;
    }
  }
  EXPECT_EQ(jobs, ColdJobGenerator::max_rounds() *
                      ColdJobGenerator::kColdRoundJobs);
  // One round past the size space cannot keep the promise, so it throws.
  EXPECT_THROW(generator.next_round(), std::length_error);
}

TEST(Generators, WidenedRangesAndLabels) {
  const workloads::PaperSuite& suite = workloads::PaperSuite::instance();
  const SizeRange stassuij = widened_range(suite.find("Stassuij"));
  EXPECT_EQ(stassuij.lo, 33);
  EXPECT_EQ(stassuij.hi, 528);
  const SizeRange hotspot = widened_range(suite.find("HotSpot"));
  EXPECT_EQ(hotspot.lo, 16);
  EXPECT_EQ(hotspot.hi, 4096);
  EXPECT_EQ(parse_generated_label(generated_label(12345))->param, 12345);
  EXPECT_FALSE(parse_generated_label("97K").has_value());
  EXPECT_FALSE(parse_generated_label("gen ").has_value());
  EXPECT_FALSE(parse_generated_label("gen 12x").has_value());
}

TEST(Generators, UniformMixCoversThePopulation) {
  const std::vector<std::size_t> mix = uniform_mix(5, 240, 24000);
  std::map<std::size_t, int> counts;
  for (std::size_t i : mix) {
    ASSERT_LT(i, 240u);
    ++counts[i];
  }
  EXPECT_EQ(counts.size(), 240u);
  // 100 draws expected per spec; no spec is favoured.
  for (const auto& [item, count] : counts) {
    EXPECT_GT(count, 50) << item;
    EXPECT_LT(count, 150) << item;
  }
  EXPECT_DOUBLE_EQ(repeat_share(mix), 1.0 - 240.0 / 24000.0);
  EXPECT_DOUBLE_EQ(repeat_share({1, 2, 1, 3}), 0.25);
  EXPECT_DOUBLE_EQ(repeat_share({}), 0.0);
  EXPECT_EQ(serve_population({"anl_eureka"}).size(), 80u);
}

}  // namespace
}  // namespace perfbench

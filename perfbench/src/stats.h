// Summary statistics the benchmark reports: medians, the tail percentile
// with at least ten samples beyond it, windowed medians (so one slow
// stretch of a noisy host moves one window, not the reported value), and
// open-loop latency taken from each request's due time.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

/// Median of `values` (mean of the middle two for an even count).
/// Requires a non-empty input.
double median(std::vector<double> values);

/// The highest percentile of a sample that still has `beyond` samples
/// above it: the (n - beyond)-th smallest value, reported with the
/// percentile it sits at and the sample count it was taken from.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;  ///< 100 * (n - beyond) / n.
  std::size_t samples = 0;
};

/// Requires more than `beyond` samples.
Tail tail(std::vector<double> values, std::size_t beyond = 10);

/// Nearest-rank quantile, q in [0, 1]. Requires a non-empty input.
double quantile(std::vector<double> values, double q);

/// Splits `samples` into consecutive windows of `window` entries (a short
/// final window is folded into the one before it, so every window holds
/// at least `window` samples) and returns the median of each window's
/// tail(). With fewer than 2 * window samples there is one window.
double windowed_tail(const std::vector<double>& samples, std::size_t window,
                     std::size_t beyond = 10);

/// Work rate per window: consecutive groups of `window` (count, seconds)
/// pairs are summed and divided, and the median of those rates is
/// returned. A short final group is folded into the one before it.
/// Requires non-empty inputs of equal length and positive total time.
double windowed_rate(const std::vector<double>& counts,
                     const std::vector<double>& seconds, std::size_t window);

/// Open-loop latency: each reply time minus the time its request was due
/// (not the time it was actually sent), so a stall that delays later
/// sends is charged to those requests too.
std::vector<double> open_loop_latencies(const std::vector<double>& due_s,
                                        const std::vector<double>& reply_s);

}  // namespace perfbench

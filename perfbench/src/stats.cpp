#include "stats.h"

#include <algorithm>
#include <stdexcept>

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("median of no samples");
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower =
      *std::max_element(values.begin(), values.begin() + mid);
  return 0.5 * (lower + upper);
}

Tail tail(std::vector<double> values, std::size_t beyond) {
  if (values.size() <= beyond)
    throw std::invalid_argument("tail needs more samples than `beyond`");
  const std::size_t n = values.size();
  const std::size_t index = n - 1 - beyond;
  std::nth_element(values.begin(), values.begin() + index, values.end());
  Tail result;
  result.value = values[index];
  result.percentile = 100.0 * static_cast<double>(n - beyond) /
                      static_cast<double>(n);
  result.samples = n;
  return result;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) throw std::invalid_argument("quantile of no samples");
  q = std::clamp(q, 0.0, 1.0);
  // Nearest rank: the smallest value with at least q of the sample at or
  // below it.
  std::size_t rank = static_cast<std::size_t>(
      q * static_cast<double>(values.size()) + 0.999999999);
  rank = std::clamp<std::size_t>(rank, 1, values.size());
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

namespace {

/// Half-open [begin, end) index ranges of consecutive windows; a short
/// remainder joins the last full window.
std::vector<std::pair<std::size_t, std::size_t>> windows(std::size_t n,
                                                         std::size_t window) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  if (window == 0) window = 1;
  const std::size_t full = std::max<std::size_t>(n / window, 1);
  for (std::size_t w = 0; w < full; ++w)
    out.emplace_back(w * window, w + 1 == full ? n : (w + 1) * window);
  return out;
}

}  // namespace

double windowed_tail(const std::vector<double>& samples, std::size_t window,
                     std::size_t beyond) {
  std::vector<double> tails;
  for (const auto& [begin, end] : windows(samples.size(), window))
    tails.push_back(tail({samples.begin() + static_cast<std::ptrdiff_t>(begin),
                          samples.begin() + static_cast<std::ptrdiff_t>(end)},
                         beyond)
                        .value);
  return median(std::move(tails));
}

double windowed_rate(const std::vector<double>& counts,
                     const std::vector<double>& seconds, std::size_t window) {
  if (counts.empty() || counts.size() != seconds.size())
    throw std::invalid_argument("windowed_rate needs matching samples");
  std::vector<double> rates;
  for (const auto& [begin, end] : windows(counts.size(), window)) {
    double count = 0.0;
    double time = 0.0;
    for (std::size_t i = begin; i < end; ++i) {
      count += counts[i];
      time += seconds[i];
    }
    if (time <= 0.0)
      throw std::invalid_argument("windowed_rate window without time");
    rates.push_back(count / time);
  }
  return median(std::move(rates));
}

std::vector<double> open_loop_latencies(const std::vector<double>& due_s,
                                        const std::vector<double>& reply_s) {
  if (due_s.size() != reply_s.size())
    throw std::invalid_argument("open_loop_latencies needs matching samples");
  std::vector<double> latencies(due_s.size());
  for (std::size_t i = 0; i < due_s.size(); ++i)
    latencies[i] = reply_s[i] - due_s[i];
  return latencies;
}

}  // namespace perfbench

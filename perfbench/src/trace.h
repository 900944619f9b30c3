// Spans recorded by the traced run around the calls into each layer.
//
// A span has a name (a static string naming the layer, e.g.
// "gpumodel.explore"), a start and end on the steady clock, the span that
// caused it, and the id of the job or request it belongs to. A job
// records its spans into its own JobTrace (no locking on the hot path)
// and hands them to the shared TraceStore once, when it finishes. The
// store keeps every span in memory and writes them out when the run ends.
//
// A span's self time is its duration minus the part of its interval its
// children cover; per-layer metrics are sums of self time.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Nanoseconds on the steady clock (the one every span uses).
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";    ///< Static string: the layer.
  std::uint64_t id = 0;     ///< Job or request id shared by its spans.
  std::int32_t parent = -1; ///< Index of the causing span; -1 for a root.
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;

  std::int64_t duration_ns() const { return end_ns - start_ns; }
};

/// Self time of every span: duration minus the union of its children's
/// intervals clipped to its own. Parent indices refer into `spans`.
std::vector<std::int64_t> self_times(const std::vector<Span>& spans);

/// The spans of one job, recorded by one thread.
class JobTrace {
 public:
  explicit JobTrace(std::uint64_t id) : id_(id) {}

  /// Opens a span whose parent is the innermost open span.
  std::int32_t open(const char* name);
  void close(std::int32_t index);

  /// A finished span with explicit times (e.g. a request's client send to
  /// reply, measured by the load generator).
  void add(const char* name, std::int64_t start_ns, std::int64_t end_ns);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::uint64_t id_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

/// Opens a span for the lifetime of the scope.
class SpanScope {
 public:
  SpanScope(JobTrace& trace, const char* name)
      : trace_(trace), index_(trace.open(name)) {}
  ~SpanScope() { trace_.close(index_); }

  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  JobTrace& trace_;
  std::int32_t index_;
};

/// Every span of the run. Thread-safe.
class TraceStore {
 public:
  /// Appends a finished job's spans (parent indices are rebased).
  void append(const JobTrace& trace);

  /// Sum of self time per span name, in nanoseconds.
  std::map<std::string, std::int64_t> self_ns_by_name() const;
  /// A copy of every span.
  std::vector<Span> spans() const;

  /// Writes one tab-separated line per span after a header: index, name,
  /// id, parent index, start, end and self time (ns; times relative to
  /// the earliest start). Returns false if the file could not be written.
  bool write(const std::string& path) const;

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  ///< Guarded by mutex_.
};

}  // namespace perfbench

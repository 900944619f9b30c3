#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <limits>

namespace perfbench {

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::int32_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i)
    if (spans[i].parent >= 0)
      children[static_cast<std::size_t>(spans[i].parent)].push_back(
          static_cast<std::int32_t>(i));

  std::vector<std::int64_t> self(spans.size());
  std::vector<std::pair<std::int64_t, std::int64_t>> covered;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    covered.clear();
    for (std::int32_t c : children[i]) {
      const Span& child = spans[static_cast<std::size_t>(c)];
      const std::int64_t lo = std::max(child.start_ns, span.start_ns);
      const std::int64_t hi = std::min(child.end_ns, span.end_ns);
      if (hi > lo) covered.emplace_back(lo, hi);
    }
    std::sort(covered.begin(), covered.end());
    std::int64_t union_ns = 0;
    std::int64_t reach = std::numeric_limits<std::int64_t>::min();
    for (const auto& [lo, hi] : covered) {
      const std::int64_t from = std::max(lo, reach);
      if (hi > from) union_ns += hi - from;
      reach = std::max(reach, hi);
    }
    self[i] = span.duration_ns() - union_ns;
  }
  return self;
}

std::int32_t JobTrace::open(const char* name) {
  const std::int32_t parent = open_.empty() ? -1 : open_.back();
  const auto index = static_cast<std::int32_t>(spans_.size());
  spans_.push_back({name, id_, parent, now_ns(), 0});
  open_.push_back(index);
  return index;
}

void JobTrace::close(std::int32_t index) {
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

void JobTrace::add(const char* name, std::int64_t start_ns,
                   std::int64_t end_ns) {
  const std::int32_t parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({name, id_, parent, start_ns, end_ns});
}

void TraceStore::append(const JobTrace& trace) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto base = static_cast<std::int32_t>(spans_.size());
  for (Span span : trace.spans()) {
    if (span.parent >= 0) span.parent += base;
    spans_.push_back(span);
  }
}

std::map<std::string, std::int64_t> TraceStore::self_ns_by_name() const {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::vector<std::int64_t> self = self_times(spans_);
  std::map<std::string, std::int64_t> totals;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    totals[spans_[i].name] += self[i];
  return totals;
}

std::vector<Span> TraceStore::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

bool TraceStore::write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (!out) return false;
  std::int64_t origin = std::numeric_limits<std::int64_t>::max();
  for (const Span& span : spans_) origin = std::min(origin, span.start_ns);
  const std::vector<std::int64_t> self = self_times(spans_);
  std::fprintf(out, "index\tname\tid\tparent\tstart_ns\tend_ns\tself_ns\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::fprintf(out, "%zu\t%s\t%llu\t%d\t%lld\t%lld\t%lld\n", i, span.name,
                 static_cast<unsigned long long>(span.id), span.parent,
                 static_cast<long long>(span.start_ns - origin),
                 static_cast<long long>(span.end_ns - origin),
                 static_cast<long long>(self[i]));
  }
  return std::fclose(out) == 0;
}

}  // namespace perfbench

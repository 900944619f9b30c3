// The pinned pre-rewrite SectionSet: linear scan per add/covers query,
// member-by-member subtraction. Kept verbatim as the semantic baseline the
// fast SectionSet (brs/section_set.h) is measured and property-tested
// against:
//
//   * tests/brs_property_test.cpp checks both implementations against a
//     brute-force rasterized oracle on small arrays and pins their
//     bounding unions to the same box and stride;
//   * bench/micro_brs measures the fast/reference speedup and gates it in
//     CI via scripts/bench_compare.
//
// Lives with the tests: no product path constructs it, and every
// operation is O(members) or worse.
#pragma once

#include <vector>

#include "brs/section.h"

namespace grophecy::brs {

/// The O(n)-scan SectionSet this repo shipped before the sorted-window
/// rewrite; same conservative contract, insertion-order member list.
class ReferenceSectionSet {
 public:
  bool empty() const { return sections_.empty(); }
  const std::vector<Section>& sections() const { return sections_; }

  /// Adds a section, merging with the first existing member whose union
  /// with it is exact.
  void add(const Section& section);

  /// Conservative containment query; see SectionSet::covers.
  bool covers(const Section& section) const;

  /// The smallest single regular section enclosing the whole set.
  /// Requires a non-empty set.
  Section bounding_union() const;

  /// Conservative difference; see SectionSet::subtract_from.
  std::vector<Section> subtract_from(const Section& section) const;

 private:
  std::vector<Section> sections_;
};

}  // namespace grophecy::brs

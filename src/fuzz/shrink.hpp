// rw::fuzz — auto-shrink for failing cases.
//
// Given a case that violates an invariant, shrink_case() greedily walks
// toward a local minimum: at each step it proposes single-step
// reductions along every axis (drop fault-plan events — chunks first,
// then one at a time — fewer cores/tiles/items/tasks/tenants/jobs,
// smaller compute blocks and scale, mesh -> bus, recovery -> none,
// heap -> calendar) and accepts the first candidate that still violates
// the SAME invariant. It stops when no candidate reproduces — which is
// exactly 1-minimality: removing any one remaining element makes the
// failure disappear. The property tests in tests/test_fuzz_shrink.cpp
// hold both halves of that contract against synthetic predicates.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "fuzz/case.hpp"

namespace rw::fuzz {

/// "Does this candidate still fail the way the original did?" Must be
/// deterministic; the shrinker calls it once per candidate.
using FailPredicate = std::function<bool(const CampaignCase&)>;

/// All single-step reductions of `c`, in the fixed priority order the
/// greedy loop tries them (plan chunks, plan singles, structure, knobs).
/// Every candidate of a valid case is valid (fields clamped to their
/// floors); every candidate is distinct from `c` and has no count above
/// `c`'s. Exposed so the 1-minimality property test can
/// enumerate exactly the neighbourhood the shrinker searched.
[[nodiscard]] std::vector<CampaignCase> shrink_candidates(
    const CampaignCase& c);

struct ShrinkResult {
  CampaignCase minimal;      // locally 1-minimal unless at_budget
  std::size_t steps = 0;     // accepted reductions
  std::size_t attempts = 0;  // predicate evaluations
  bool at_budget = false;    // stopped on max_attempts, not minimality
};

/// Greedy fixed-point shrink. `still_fails` should already have returned
/// true for `c` (the result is just `c` otherwise).
[[nodiscard]] ShrinkResult shrink_case(const CampaignCase& c,
                                       const FailPredicate& still_fails,
                                       std::size_t max_attempts = 2'000);

}  // namespace rw::fuzz

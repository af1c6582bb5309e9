#include "fuzz/shrink.hpp"

#include <algorithm>
#include <cstdint>
#include <string>

namespace rw::fuzz {
namespace {

/// Raise `v` to `floor`, but never above `parent`, the value the
/// candidate was reduced from.
template <typename T>
void raise_to_floor(T& v, T floor, T parent) {
  v = std::max(v, std::min(floor, parent));
}

/// Clamp every field to its documented floor so candidates of a valid
/// case are valid cases (from_json would accept them). A floor never
/// lifts a field above the parent's own value: shrinking must not grow
/// a hand-built case that is already below a floor.
void sanitize(CampaignCase& c, const CampaignCase& parent) {
  raise_to_floor<std::uint32_t>(c.cores, 2, parent.cores);
  raise_to_floor<std::uint32_t>(c.tiles, 1, parent.tiles);
  if (c.tiles > c.cores) c.tiles = c.cores;
  raise_to_floor<std::uint64_t>(c.scale, 1, parent.scale);
  raise_to_floor<std::uint64_t>(c.items, 1, parent.items);
  raise_to_floor<std::uint64_t>(c.compute_cycles, 100, parent.compute_cycles);
  raise_to_floor<std::uint32_t>(c.graph_tasks, 2, parent.graph_tasks);
  raise_to_floor<std::uint32_t>(c.tenants, 1, parent.tenants);
  raise_to_floor<std::uint32_t>(c.jobs_per_tenant, 1, parent.jobs_per_tenant);
}

/// Rebuild the plan without events [begin, end) of the sorted order.
fault::FaultPlan without_range(const fault::FaultPlan& plan,
                               std::size_t begin, std::size_t end) {
  fault::FaultPlan out;
  const std::vector<fault::FaultEvent> evs = plan.events();
  for (std::size_t i = 0; i < evs.size(); ++i)
    if (i < begin || i >= end) out.add(evs[i]);
  return out;
}

class CandidateSet {
 public:
  explicit CandidateSet(const CampaignCase& orig)
      : orig_(orig), orig_key_(orig.to_json()) {}

  void add(CampaignCase cand) {
    sanitize(cand, orig_);
    std::string key = cand.to_json();
    if (key == orig_key_) return;  // clamping undid the reduction
    for (const std::string& seen : keys_)
      if (seen == key) return;
    keys_.push_back(std::move(key));
    out_.push_back(std::move(cand));
  }

  std::vector<CampaignCase> take() { return std::move(out_); }

 private:
  const CampaignCase& orig_;
  std::string orig_key_;
  std::vector<std::string> keys_;
  std::vector<CampaignCase> out_;
};

}  // namespace

std::vector<CampaignCase> shrink_candidates(const CampaignCase& c) {
  CandidateSet set(c);
  const std::size_t n = c.plan.size();

  // Plan events first: most failures hinge on one or two faults, so
  // halving the plan converges in O(log n) accepted steps.
  if (n >= 4) {
    for (std::size_t q = 0; q < 4; ++q) {
      CampaignCase cand = c;
      cand.plan = without_range(c.plan, q * n / 4, (q + 1) * n / 4);
      set.add(std::move(cand));
    }
  }
  if (n >= 2) {
    for (const auto& [b, e] :
         {std::pair<std::size_t, std::size_t>{0, n / 2}, {n / 2, n}}) {
      CampaignCase cand = c;
      cand.plan = without_range(c.plan, b, e);
      set.add(std::move(cand));
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    CampaignCase cand = c;
    cand.plan = without_range(c.plan, i, i + 1);
    set.add(std::move(cand));
  }

  // Structural simplifications: drop whole mechanisms before trimming
  // counts, so the minimal case names only the machinery it needs.
  if (c.recovery != fault::RecoveryPolicy::kNone) {
    CampaignCase cand = c;
    cand.recovery = fault::RecoveryPolicy::kNone;
    set.add(std::move(cand));
  }
  if (c.recovery == fault::RecoveryPolicy::kWatchdogRemap) {
    CampaignCase cand = c;
    cand.recovery = fault::RecoveryPolicy::kWatchdogRestart;
    set.add(std::move(cand));
  }
  if (c.mesh) {
    CampaignCase cand = c;
    cand.mesh = false;
    set.add(std::move(cand));
  }
  if (c.queue != sim::QueuePolicy::kCalendar) {
    CampaignCase cand = c;
    cand.queue = sim::QueuePolicy::kCalendar;
    set.add(std::move(cand));
  }
  if (c.tiles > 1) {
    for (const std::uint32_t t : {1u, c.tiles / 2}) {
      CampaignCase cand = c;
      cand.tiles = t;
      set.add(std::move(cand));
    }
  }
  if (c.dynamic_mapper) {
    CampaignCase cand = c;
    cand.dynamic_mapper = false;
    set.add(std::move(cand));
  }
  if (c.static_admission) {
    CampaignCase cand = c;
    cand.static_admission = false;
    set.add(std::move(cand));
  }

  // Count axes: halve (fast) then decrement (the last unit of
  // 1-minimality). Only values below the parent's are candidates: a count
  // already at 0 would wrap on its decrement.
  const auto reduce = [&](auto CampaignCase::*field) {
    const auto v = c.*field;
    for (const auto n : {v / 2, v - 1}) {
      if (n >= v) continue;
      CampaignCase cand = c;
      cand.*field = n;
      set.add(std::move(cand));
    }
  };
  reduce(&CampaignCase::cores);
  reduce(&CampaignCase::items);
  {
    CampaignCase cand = c;
    cand.compute_cycles = c.compute_cycles / 2;
    set.add(std::move(cand));
  }
  reduce(&CampaignCase::scale);
  reduce(&CampaignCase::graph_tasks);
  reduce(&CampaignCase::tenants);
  reduce(&CampaignCase::jobs_per_tenant);
  return set.take();
}

ShrinkResult shrink_case(const CampaignCase& c,
                         const FailPredicate& still_fails,
                         std::size_t max_attempts) {
  ShrinkResult r;
  r.minimal = c;
  bool progress = true;
  while (progress) {
    progress = false;
    for (const CampaignCase& cand : shrink_candidates(r.minimal)) {
      if (r.attempts >= max_attempts) {
        r.at_budget = true;
        return r;
      }
      ++r.attempts;
      if (still_fails(cand)) {
        r.minimal = cand;
        ++r.steps;
        progress = true;
        break;
      }
    }
  }
  return r;
}

}  // namespace rw::fuzz

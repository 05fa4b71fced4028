// Allocation for homogeneous requests: the paper's Algorithm 1 and the
// adapted-TIVC baseline.
//
// Both walk the topology bottom-up (machines first) computing, for every
// vertex v, the *allocable VM set*: the numbers of VMs that can be placed in
// the subtree T_v while satisfying condition (4) on every link of T_v and on
// v's uplink.  A vertex whose allocable set contains N hosts the request;
// the first level at which such a vertex exists gives the most-localized
// ("lowest subtree") allocation.
//
// The difference between the two modes is what they remember per count:
//
//   * optimize_occupancy = true  (Algorithm 1, "svc-dp"): for each count the
//     DP keeps the child split minimizing the maximum bandwidth-occupancy
//     ratio O_L over the subtree's links (recurrences (11)/(12)), so the
//     returned placement is the min-max-optimal one within the chosen
//     subtree.
//   * optimize_occupancy = false ("tivc-adapted"): the plain feasibility
//     union of TIVC — the first split realizing a count is kept, mirroring
//     TIVC's indifference between valid allocations (the suboptimality the
//     paper's Fig. 3 illustrates).
//
// Complexity O(|V| * Delta * N^2): each edge contributes one O(N^2) table
// combination.  Deterministic requests (sigma = 0) run through the same
// code and reproduce Oktopus-style virtual-cluster allocation.
#pragma once

#include <string>

#include "svc/allocator.h"

namespace svc::core {

struct HomogeneousSearchOptions {
  // Algorithm 1's min-max occupancy optimization (see above).
  bool optimize_occupancy = true;
  // Stop at the lowest feasible level (paper's locality rule).  When false
  // the search continues to the root and returns the global min-max
  // placement regardless of level — the ablation DESIGN.md calls out.
  bool lowest_subtree_first = true;
};

class HomogeneousSearchAllocator : public Allocator {
 public:
  HomogeneousSearchAllocator(HomogeneousSearchOptions options,
                             std::string name)
      : options_(options), name_(std::move(name)) {}

  std::string_view name() const override { return name_; }

  util::Result<Placement> Allocate(const Request& request,
                                   const net::LinkLedger& ledger,
                                   const SlotMap& slots) const override;

  // The bottom-up DP is a complete search: a rejection means no vertex's
  // allocable set contains N, and condition-(4) slack only tightens as
  // tenants are added, so the rejection holds against any fuller books.
  bool monotone_rejections() const override { return true; }

  // The search scans levels bottom-up and vertices in id order, keeping the
  // first strict improvement of the min-max occupancy score; occupancy only
  // rises as tenants are added, so both the lowest feasible level and the
  // within-level argmin are stable under load added outside the chosen
  // subtree's links (which the pipeline's shard-freshness check covers).
  bool monotone_placements() const override { return true; }

 private:
  HomogeneousSearchOptions options_;
  std::string name_;
};

// Algorithm 1: lowest subtree + min-max occupancy.
class HomogeneousDpAllocator : public HomogeneousSearchAllocator {
 public:
  HomogeneousDpAllocator()
      : HomogeneousSearchAllocator({.optimize_occupancy = true}, "svc-dp") {}
};

// The paper's baseline: TIVC's search with condition (4) substituted in,
// no occupancy optimization.
class TivcAdaptedAllocator : public HomogeneousSearchAllocator {
 public:
  TivcAdaptedAllocator()
      : HomogeneousSearchAllocator({.optimize_occupancy = false},
                                   "tivc-adapted") {}
};

// Deterministic virtual clusters <N, B> (Oktopus).  Behaviourally the
// feasibility search above restricted to sigma = 0 requests; kept as its own
// type so simulation configs read naturally.
class OktopusAllocator : public HomogeneousSearchAllocator {
 public:
  OktopusAllocator()
      : HomogeneousSearchAllocator({.optimize_occupancy = false}, "oktopus") {}
};

}  // namespace svc::core

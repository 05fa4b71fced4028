// Max-min fair bandwidth allocation with per-flow demand caps
// (progressive filling / water-filling).
//
// Every simulated second the engine hands each flow a desired rate (its
// source's data-generation draw, clipped by the hypervisor rate limit for
// deterministic abstractions) and this module computes the rates the
// network actually delivers: the unique max-min fair allocation where no
// flow exceeds its desired rate and no link its capacity.
//
// Algorithm: classic progressive filling with two freeze rules.
//   1. Any unfrozen flow whose desired rate is at or below the current
//      bottleneck share is demand-limited: it freezes at its desire.
//      (Freezing such a flow can only *raise* link shares, so a whole batch
//      can be frozen per scan.)
//   2. Otherwise the bottleneck link saturates: every unfrozen flow through
//      it freezes at the bottleneck share.
// Each round freezes at least one flow or saturates one link, so the loop
// terminates in O(#links + #batches) rounds.  Flows with an empty path
// (both endpoints on one machine) bypass the network entirely.
//
// Every call starts with one pass over the flow links that sums each
// link's offered load (the positive desires crossing it), counts its
// unfrozen flows and lists the active links.  When every active link
// carries at most capacity * (1 - kUncongestedSlack) the rates are the
// desires and the call returns there (the uncongested fast path; it is
// exact, see docs/PERFORMANCE.md §2).  Otherwise the full filling runs on
// a radix-sorted desire order, and the per-link flow lists rule 2 needs
// are built once per call, when it first fires, over the flows still
// unfrozen then.  The rates are bit-identical to plain progressive
// filling: tests/maxmin_reference_test holds a verbatim reference.
#pragma once

#include <cstdint>
#include <vector>

#include "topology/topology.h"

namespace svc::sim {

struct SimFlow {
  // Capacity-array indices of the links on the flow's path (empty =
  // intra-machine).  The engine uses Topology::PathLinksDirected encodings
  // (one capacity slot per link direction); tests may use any indexing —
  // the allocator is agnostic as long as `capacity` is indexed the same way.
  std::vector<int32_t> links;
  double desired = 0;  // offered rate this step, Mbps
  double rate = 0;     // output: delivered rate, Mbps
};

// Reusable scratch buffers so the per-second call does not allocate.
class MaxMinScratch {
 public:
  // Relative headroom under which a link counts as uncongested.  It must
  // dwarf the rounding of the k additions and k subtractions a link
  // carrying k flows sees (2k * 2^-53) for the fast path to stay exact.
  static constexpr double kUncongestedSlack = 1e-9;

  explicit MaxMinScratch(int num_vertices);

  // Computes flow.rate for every flow.  `capacity[v]` is the capacity of
  // vertex v's uplink (index 0 / root unused).
  //
  // `flows_changed` tells whether the flow set may differ from the previous
  // call (membership, order, or any `links` vector).  Nothing is cached
  // across calls, so it only selects which of the maxmin/{cold,
  // incremental}_solves counters the call adds to.
  void Allocate(std::vector<SimFlow>& flows,
                const std::vector<double>& capacity,
                bool flows_changed = true);

  // Links crossed by any networked flow in the last Allocate — zero-desire
  // flows included — in order of first appearance over the flows.
  const std::vector<topology::VertexId>& active_links() const {
    return active_links_;
  }
  // Sum of the positive desires crossing `link` in the last Allocate
  // (flow order); meaningful for the links in active_links().
  double offered_load(topology::VertexId link) const {
    return offered_[link];
  }
  // True iff the last Allocate took the uncongested fast path: every
  // active link's offered load is at most capacity * (1 - kUncongestedSlack).
  bool uncongested() const { return uncongested_; }

 private:
  // A networked flow's desire bit pattern (positive doubles order like
  // their bits) and its index.
  struct DesireKey {
    uint64_t bits;
    int32_t flow;
  };

  // Sorts order_ by desire (ties in any order).
  void SortByDesire();
  // Builds the per-link lists of the flows order_[first..] (CSR over
  // live_links_, sized by count_), which must be exactly the unfrozen flows.
  void BuildLinkFlows(const std::vector<SimFlow>& flows, size_t first);

  // Per link (indexed like `capacity`).
  std::vector<double> offered_;
  std::vector<double> remaining_;
  std::vector<int> count_;         // unfrozen flows crossing the link
  std::vector<uint32_t> seen_;     // epoch_ of the last call that saw it
  // The link's range [begin, end) in link_flows_, valid for the live
  // links once rule 2 has fired in the current call.
  std::vector<int> flows_begin_;
  std::vector<int> flows_end_;
  uint32_t epoch_ = 0;

  std::vector<topology::VertexId> active_links_;
  std::vector<topology::VertexId> live_links_;  // active, count_ > 0
  std::vector<int> link_flows_;  // unfrozen flow indices, by link (CSR)
  bool uncongested_ = false;

  // Per flow.
  std::vector<char> frozen_;
  std::vector<DesireKey> order_;  // live flows, ascending by desire
  std::vector<DesireKey> sort_buffer_;
};

}  // namespace svc::sim

#include "sim/max_min.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <limits>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace svc::sim {

MaxMinScratch::MaxMinScratch(int num_vertices) {
  offered_.resize(num_vertices);
  remaining_.resize(num_vertices);
  count_.resize(num_vertices);
  seen_.resize(num_vertices, 0);
  flows_begin_.resize(num_vertices);
  flows_end_.resize(num_vertices);
}

void MaxMinScratch::SortByDesire() {
  const size_t n = order_.size();
  if (n < 2) return;
  // Every key is a positive double, whose bit pattern orders like its
  // value.  One read pass fills all eight byte histograms.
  constexpr int kBytes = 8;
  uint32_t histogram[kBytes][256] = {};
  for (const DesireKey& key : order_) {
    for (int b = 0; b < kBytes; ++b) {
      ++histogram[b][(key.bits >> (8 * b)) & 0xff];
    }
  }
  sort_buffer_.resize(n);
  for (int b = 0; b < kBytes; ++b) {
    uint32_t* offsets = histogram[b];
    const int shift = 8 * b;
    // A byte every key shares would leave the order as it is.
    if (offsets[(order_[0].bits >> shift) & 0xff] == n) continue;
    uint32_t sum = 0;
    for (int digit = 0; digit < 256; ++digit) {
      const uint32_t c = offsets[digit];
      offsets[digit] = sum;
      sum += c;
    }
    for (const DesireKey& key : order_) {
      sort_buffer_[offsets[(key.bits >> shift) & 0xff]++] = key;
    }
    order_.swap(sort_buffer_);
  }
}

void MaxMinScratch::BuildLinkFlows(const std::vector<SimFlow>& flows) {
  // Count, prefix-sum over the active links, then fill in flow order.
  for (topology::VertexId link : active_links_) flows_end_[link] = 0;
  for (const SimFlow& flow : flows) {
    for (topology::VertexId link : flow.links) ++flows_end_[link];
  }
  int offset = 0;
  for (topology::VertexId link : active_links_) {
    const int incidences = flows_end_[link];
    flows_begin_[link] = offset;
    flows_end_[link] = offset;
    offset += incidences;
  }
  link_flows_.resize(offset);
  const int n = static_cast<int>(flows.size());
  for (int f = 0; f < n; ++f) {
    for (topology::VertexId link : flows[f].links) {
      link_flows_[flows_end_[link]++] = f;
    }
  }
  have_link_flows_ = true;
}

void MaxMinScratch::Allocate(std::vector<SimFlow>& flows,
                             const std::vector<double>& capacity,
                             bool flows_changed) {
  SVC_TRACE_SPAN("maxmin/solve");
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const int n = static_cast<int>(flows.size());

  if (flows_changed) {
    SVC_METRIC_INC("maxmin/cold_solves");
    have_link_flows_ = false;
  } else {
    SVC_METRIC_INC("maxmin/incremental_solves");
  }

  // The one pass over the flow links: offered loads, unfrozen counts and
  // the active links in first-appearance order (the bottleneck tie-break
  // below depends on that order).
  if (++epoch_ == 0) {
    std::fill(seen_.begin(), seen_.end(), 0);
    epoch_ = 1;
  }
  frozen_.resize(n);
  order_.clear();
  active_links_.clear();
  size_t incidences = 0;
  for (int f = 0; f < n; ++f) {
    SimFlow& flow = flows[f];
    const double desired = flow.desired;
    // Pathless and zero-desire flows get their desire outright.  The rest
    // start at it too: the fast path keeps that, the full solve overwrites
    // it.
    flow.rate = std::max(0.0, desired);
    const bool live = desired > 0 && !flow.links.empty();
    frozen_[f] = !live;
    if (live) order_.push_back({std::bit_cast<uint64_t>(desired), f});
    incidences += flow.links.size();
    for (topology::VertexId link : flow.links) {
      if (seen_[link] != epoch_) {
        seen_[link] = epoch_;
        active_links_.push_back(link);
        offered_[link] = 0;
        count_[link] = 0;
      }
      if (live) {
        offered_[link] += desired;
        ++count_[link];
      }
    }
  }
  if (flows_changed && obs::MetricsEnabled()) {
    // Mean flows crossing an active link — a congestion/sharing signal
    // the registry exposes alongside the solve counters.
    SVC_METRIC_GAUGE_SET(
        "maxmin/flows_per_link",
        active_links_.empty()
            ? 0.0
            : static_cast<double>(incidences) / active_links_.size());
  }

  // Uncongested fast path: every link's offered load is at most
  // (1 - kUncongestedSlack) of its capacity, so rule 1 would freeze every
  // flow at its desire (proof in docs/PERFORMANCE.md §2).
  const double safe_fraction = 1 - kUncongestedSlack;
  bool congested = false;
  for (topology::VertexId link : active_links_) {
    if (!(offered_[link] <= capacity[link] * safe_fraction)) {
      congested = true;
      break;
    }
  }
  if (!congested) {
    SVC_METRIC_INC("maxmin/uncongested_solves");
    return;
  }

  for (topology::VertexId link : active_links_) {
    remaining_[link] = capacity[link];
  }
  // Ascending desire; the front of this order is the candidate set for
  // demand-limited freezing.  Ties may come in any order: equal desires
  // subtract equal values from every link.
  SortByDesire();
  live_links_.assign(active_links_.begin(), active_links_.end());
  int unfrozen = static_cast<int>(order_.size());
  size_t next_demand = 0;

  auto freeze = [&](int f, double rate) {
    SimFlow& flow = flows[f];
    flow.rate = rate;
    frozen_[f] = 1;
    --unfrozen;
    for (topology::VertexId link : flow.links) {
      remaining_[link] -= rate;
      if (remaining_[link] < 0) remaining_[link] = 0;  // fp guard
      --count_[link];
    }
  };

  while (unfrozen > 0) {
    // Current bottleneck share over links that still carry unfrozen flows
    // (links that ran out of them drop from live_links_ for good).
    double level = kInf;
    topology::VertexId bottleneck = topology::kNoVertex;
    size_t kept = 0;
    for (size_t i = 0; i < live_links_.size(); ++i) {
      const topology::VertexId link = live_links_[i];
      if (count_[link] == 0) continue;
      live_links_[kept++] = link;
      const double share = remaining_[link] / count_[link];
      if (share < level) {
        level = share;
        bottleneck = link;
      }
    }
    live_links_.resize(kept);
    assert(bottleneck != topology::kNoVertex);

    // Rule 1: batch-freeze demand-limited flows.  Freezing a flow with
    // desired <= level only raises link shares, so one pass is safe.
    bool any_demand_frozen = false;
    while (next_demand < order_.size()) {
      const int f = order_[next_demand].flow;
      if (frozen_[f]) {
        ++next_demand;
        continue;
      }
      if (flows[f].desired > level) break;
      freeze(f, flows[f].desired);
      ++next_demand;
      any_demand_frozen = true;
    }
    if (any_demand_frozen) continue;  // shares changed; recompute level

    // Rule 2: saturate the bottleneck link.
    if (!have_link_flows_) BuildLinkFlows(flows);
    for (int i = flows_begin_[bottleneck]; i < flows_end_[bottleneck]; ++i) {
      const int f = link_flows_[i];
      if (!frozen_[f]) freeze(f, level);
    }
  }
}

}  // namespace svc::sim

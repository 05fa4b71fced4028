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
  // value.  An LSD radix sort over the top three bytes (sign, exponent and
  // 12 mantissa bits) leaves only keys that share those 24 bits out of
  // order, and those are rare and adjacent.  One read pass fills the three
  // byte histograms.
  constexpr int kLowByte = 5;
  constexpr int kBytes = 3;
  uint32_t histogram[kBytes][256] = {};
  for (const DesireKey& key : order_) {
    for (int b = 0; b < kBytes; ++b) {
      ++histogram[b][(key.bits >> (8 * (kLowByte + b))) & 0xff];
    }
  }
  sort_buffer_.resize(n);
  for (int b = 0; b < kBytes; ++b) {
    uint32_t* offsets = histogram[b];
    const int shift = 8 * (kLowByte + b);
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
  // Insertion pass on the full bits.  Many distinct keys sharing their top
  // 24 bits would make it quadratic, so past a linear budget of moves the
  // order is finished with a comparison sort instead.
  size_t budget = 8 * n;
  for (size_t i = 1; i < n; ++i) {
    const DesireKey key = order_[i];
    if (order_[i - 1].bits <= key.bits) continue;
    size_t j = i;
    do {
      order_[j] = order_[j - 1];
      --j;
    } while (j > 0 && order_[j - 1].bits > key.bits);
    order_[j] = key;
    if (i - j > budget) {
      std::sort(order_.begin(), order_.end(),
                [](const DesireKey& lhs, const DesireKey& rhs) {
                  return lhs.bits < rhs.bits;
                });
      return;
    }
    budget -= i - j;
  }
}

void MaxMinScratch::BuildLinkFlows(const std::vector<SimFlow>& flows,
                                   size_t first) {
  // Offsets from the unfrozen counts, then fill in sorted order.  The
  // order within a list does not matter: every flow a rule-2 event freezes
  // subtracts the same level from each of its links.
  int offset = 0;
  for (topology::VertexId link : live_links_) {
    flows_begin_[link] = offset;
    flows_end_[link] = offset;
    offset += count_[link];
  }
  link_flows_.resize(offset);
  for (size_t i = first; i < order_.size(); ++i) {
    const int f = order_[i].flow;
    for (topology::VertexId link : flows[f].links) {
      link_flows_[flows_end_[link]++] = f;
    }
  }
}

void MaxMinScratch::Allocate(std::vector<SimFlow>& flows,
                             const std::vector<double>& capacity,
                             bool flows_changed) {
  SVC_TRACE_SPAN("maxmin/solve");
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const int n = static_cast<int>(flows.size());

  if (flows_changed) {
    SVC_METRIC_INC("maxmin/cold_solves");
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
  if (order_.size() < static_cast<size_t>(n)) order_.resize(n);
  active_links_.clear();
  size_t live_flows = 0;
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
    order_[live_flows] = {std::bit_cast<uint64_t>(desired), f};
    live_flows += live;
    incidences += flow.links.size();
    // A flow that is not live adds +0.0 and 0, which leaves the link's
    // (non-negative) sums as they are.
    const double load = live ? desired : 0.0;
    const int unfrozen = live;
    for (topology::VertexId link : flow.links) {
      const bool first_seen = seen_[link] != epoch_;
      if (first_seen) {
        seen_[link] = epoch_;
        active_links_.push_back(link);
      }
      offered_[link] = (first_seen ? 0.0 : offered_[link]) + load;
      count_[link] = (first_seen ? 0 : count_[link]) + unfrozen;
    }
  }
  order_.resize(live_flows);
  if (flows_changed && !active_links_.empty()) {
    // Mean flows crossing an active link: how much the links are shared.
    SVC_METRIC_HIST("maxmin/flows_per_link",
                    static_cast<double>(incidences) / active_links_.size());
  }

  // Uncongested fast path: every link's offered load is at most
  // (1 - kUncongestedSlack) of its capacity, so rule 1 would freeze every
  // flow at its desire (proof in docs/PERFORMANCE.md §2).
  const double safe_fraction = 1 - kUncongestedSlack;
  uncongested_ = true;
  for (topology::VertexId link : active_links_) {
    if (!(offered_[link] <= capacity[link] * safe_fraction)) {
      uncongested_ = false;
      break;
    }
  }
  if (uncongested_) {
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
  bool have_link_flows = false;

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
    // desired <= level only raises link shares, so one pass is safe.  The
    // level is a non-negative double (+0.0 added turns a -0.0 into +0.0),
    // so comparing bit patterns compares values.
    const uint64_t level_bits = std::bit_cast<uint64_t>(level + 0.0);
    bool any_demand_frozen = false;
    while (next_demand < order_.size()) {
      const DesireKey key = order_[next_demand];
      if (frozen_[key.flow]) {
        ++next_demand;
        continue;
      }
      if (key.bits > level_bits) break;
      freeze(key.flow, std::bit_cast<double>(key.bits));
      ++next_demand;
      any_demand_frozen = true;
    }
    if (any_demand_frozen) continue;  // shares changed; recompute level

    // Rule 2: saturate the bottleneck link.  Until the first saturation
    // only rule 1 has frozen flows, so order_[next_demand..] is exactly the
    // unfrozen set the lists are built over.
    if (!have_link_flows) {
      BuildLinkFlows(flows, next_demand);
      have_link_flows = true;
    }
    for (int i = flows_begin_[bottleneck]; i < flows_end_[bottleneck]; ++i) {
      const int f = link_flows_[i];
      if (!frozen_[f]) freeze(f, level);
    }
  }
}

}  // namespace svc::sim

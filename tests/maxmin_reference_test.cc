// Differential test of MaxMinScratch against plain progressive filling.
//
// ReferenceAllocate below is the solver as it stood before the
// uncongested fast path, the radix-sorted desire order and the lazily
// built per-link flow lists: a full rebuild of the per-link flow lists, an
// std::sort by desire and the two freeze rules, with no caching.  Every
// instance here must come out bit-identical (EXPECT_EQ on the doubles) from
// both a fresh and a persistent scratch — the figures' outage and running
// time columns depend on the exact rates.
#include "sim/max_min.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "stats/rng.h"

namespace svc::sim {
namespace {

// Counts what a solve exercised: rule-2 saturations, and frozen flows that
// rule 1 stepped over in the desire order (flows a saturation froze ahead
// of unfrozen ones with smaller desires).
struct ReferenceStats {
  int saturations = 0;
  int frozen_skipped = 0;
};

void ReferenceAllocate(std::vector<SimFlow>& flows,
                       const std::vector<double>& capacity,
                       ReferenceStats* stats = nullptr) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const int n = static_cast<int>(flows.size());
  const size_t num_links = capacity.size();
  std::vector<double> remaining(num_links);
  std::vector<int> count(num_links);
  std::vector<std::vector<int>> flows_on(num_links);
  std::vector<topology::VertexId> active_links;
  std::vector<char> networked(n, 0);
  for (int f = 0; f < n; ++f) {
    if (flows[f].links.empty()) continue;
    networked[f] = 1;
    for (topology::VertexId link : flows[f].links) {
      if (flows_on[link].empty()) active_links.push_back(link);
      flows_on[link].push_back(f);
    }
  }

  std::vector<char> frozen(n, 0);
  int unfrozen = 0;
  for (int f = 0; f < n; ++f) {
    SimFlow& flow = flows[f];
    flow.rate = 0;
    if (!networked[f] || flow.desired <= 0) {
      flow.rate = std::max(0.0, flow.desired);
      frozen[f] = 1;
    } else {
      ++unfrozen;
    }
  }
  for (topology::VertexId link : active_links) {
    remaining[link] = capacity[link];
    count[link] = 0;
  }
  for (int f = 0; f < n; ++f) {
    if (frozen[f]) continue;
    for (topology::VertexId link : flows[f].links) ++count[link];
  }

  std::vector<int> order;
  for (int f = 0; f < n; ++f) {
    if (!frozen[f]) order.push_back(f);
  }
  std::sort(order.begin(), order.end(), [&](int lhs, int rhs) {
    return flows[lhs].desired < flows[rhs].desired;
  });
  size_t next_demand = 0;

  auto freeze = [&](int f, double rate) {
    SimFlow& flow = flows[f];
    flow.rate = rate;
    frozen[f] = 1;
    --unfrozen;
    for (topology::VertexId link : flow.links) {
      remaining[link] -= rate;
      if (remaining[link] < 0) remaining[link] = 0;  // fp guard
      --count[link];
    }
  };

  while (unfrozen > 0) {
    double level = kInf;
    topology::VertexId bottleneck = topology::kNoVertex;
    for (topology::VertexId link : active_links) {
      if (count[link] == 0) continue;
      const double share = remaining[link] / count[link];
      if (share < level) {
        level = share;
        bottleneck = link;
      }
    }
    assert(bottleneck != topology::kNoVertex);

    bool any_demand_frozen = false;
    while (next_demand < order.size()) {
      const int f = order[next_demand];
      if (frozen[f]) {
        ++next_demand;
        if (stats != nullptr) ++stats->frozen_skipped;
        continue;
      }
      if (flows[f].desired > level) break;
      freeze(f, flows[f].desired);
      ++next_demand;
      any_demand_frozen = true;
    }
    if (any_demand_frozen) continue;

    if (stats != nullptr) ++stats->saturations;
    for (int f : flows_on[bottleneck]) {
      if (!frozen[f]) freeze(f, level);
    }
  }
}

// Solves `flows` with the reference, with a fresh scratch and with the
// persistent `warm` scratch (given `flows_changed`), and checks that all
// three agree bit for bit; also checks the scratch's offered loads against
// a flow-order sum.  Leaves the solved rates in `flows`.
void ExpectMatchesReference(MaxMinScratch& warm, std::vector<SimFlow>& flows,
                            const std::vector<double>& capacity,
                            bool flows_changed = true) {
  std::vector<SimFlow> reference = flows;
  ReferenceAllocate(reference, capacity);
  std::vector<SimFlow> fresh_flows = flows;
  MaxMinScratch fresh(static_cast<int>(capacity.size()));
  fresh.Allocate(fresh_flows, capacity);
  warm.Allocate(flows, capacity, flows_changed);
  for (size_t f = 0; f < flows.size(); ++f) {
    EXPECT_EQ(fresh_flows[f].rate, reference[f].rate) << "flow " << f;
    EXPECT_EQ(flows[f].rate, reference[f].rate) << "flow " << f;
  }

  std::vector<double> offered(capacity.size(), 0.0);
  std::vector<topology::VertexId> active;
  std::vector<char> seen(capacity.size(), 0);
  for (const SimFlow& flow : flows) {
    for (topology::VertexId link : flow.links) {
      if (!seen[link]) {
        seen[link] = 1;
        active.push_back(link);
      }
      offered[link] += flow.desired;
    }
  }
  EXPECT_EQ(warm.active_links(), active);
  for (topology::VertexId link : active) {
    EXPECT_EQ(warm.offered_load(link), offered[link]) << "link " << link;
  }
}

void ExpectMatchesReference(std::vector<SimFlow>& flows,
                            const std::vector<double>& capacity) {
  MaxMinScratch scratch(static_cast<int>(capacity.size()));
  ExpectMatchesReference(scratch, flows, capacity);
}

TEST(MaxMinReference, RandomizedInstances) {
  stats::Rng rng(7);
  for (int instance = 0; instance < 300; ++instance) {
    const int links = static_cast<int>(rng.UniformInt(1, 24));
    std::vector<double> capacity(links + 1, 0.0);
    for (int v = 1; v <= links; ++v) {
      // Round capacities half the time, so bottleneck shares tie.
      capacity[v] = rng.UniformInt(0, 1) == 0
                        ? rng.Uniform(0, 2000)
                        : 100.0 * static_cast<double>(rng.UniformInt(0, 20));
    }
    std::vector<SimFlow> flows(rng.UniformInt(0, 60));
    for (SimFlow& flow : flows) {
      const int hops = static_cast<int>(rng.UniformInt(0, 4));
      for (int h = 0; h < hops; ++h) {
        flow.links.push_back(static_cast<int32_t>(rng.UniformInt(1, links)));
      }
      // A mix of zero, round (tied, mean-VC-like) and random desires.
      const int64_t kind = rng.UniformInt(0, 9);
      flow.desired = kind == 0   ? 0.0
                     : kind <= 3 ? 50.0 * static_cast<double>(
                                              rng.UniformInt(1, 12))
                                 : rng.Uniform(0, 600);
    }
    SCOPED_TRACE("instance " + std::to_string(instance));
    ExpectMatchesReference(flows, capacity);
  }
}

// Mean-VC shape: hard caps make integer desires that sum to exactly C on a
// link, and the shares land exactly on the caps.
TEST(MaxMinReference, IntegerDesiresSummingToCapacity) {
  std::vector<double> capacity{0, 1000, 1000, 600};
  std::vector<SimFlow> flows;
  for (int i = 0; i < 4; ++i) flows.push_back({{1, 3}, 150, 0});
  for (int i = 0; i < 4; ++i) flows.push_back({{1, 2}, 100, 0});
  flows.push_back({{2}, 600, 0});
  ExpectMatchesReference(flows, capacity);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(flows[i].rate, 150);
}

// Offered load a relative 1e-9 either side of capacity, and exactly at the
// fast path's threshold.
TEST(MaxMinReference, LoadsAtCapacityTimesOnePlusMinusDelta) {
  const double kDelta = MaxMinScratch::kUncongestedSlack;
  for (double factor : {1 - 2 * kDelta, 1 - kDelta, 1 - kDelta / 2, 1.0,
                        1 + kDelta / 2, 1 + kDelta, 1 + 2 * kDelta}) {
    for (int k : {1, 2, 3, 7, 50}) {
      const double capacity_mbps = 1000;
      std::vector<double> capacity{0, capacity_mbps, 3 * capacity_mbps};
      std::vector<SimFlow> flows;
      const double each = capacity_mbps * factor / k;
      for (int i = 0; i < k; ++i) {
        // Slightly uneven desires around the mean keep rule 1 and rule 2
        // both in play.
        const double skew = (i % 2 == 0 ? 1 : -1) * each * 1e-12;
        flows.push_back({{1, 2}, each + skew, 0});
      }
      SCOPED_TRACE("factor " + std::to_string(factor) + " k " +
                   std::to_string(k));
      ExpectMatchesReference(flows, capacity);
    }
  }
}

// Capacity set to the link's own offered load, summed in flow order: the
// filling loop subtracts in desire order, so its last share can round to
// an ulp below the last desire and rule 2 then fires.  Only the slack
// keeps the fast path off such links.
TEST(MaxMinReference, RandomLoadsExactlyAtCapacity) {
  stats::Rng rng(2014);
  for (int instance = 0; instance < 500; ++instance) {
    const int k = static_cast<int>(rng.UniformInt(2, 40));
    std::vector<SimFlow> flows(k);
    double offered = 0;
    for (SimFlow& flow : flows) {
      flow.links = {1};
      flow.desired = rng.Uniform(0, 300);
      offered += flow.desired;
    }
    std::vector<double> capacity{0, offered};
    SCOPED_TRACE("instance " + std::to_string(instance));
    ExpectMatchesReference(flows, capacity);
  }
}

TEST(MaxMinReference, ZeroCapacityLinks) {
  std::vector<double> capacity{0, 0, 500, 0};
  std::vector<SimFlow> flows;
  flows.push_back({{1}, 300, 0});
  flows.push_back({{2}, 300, 0});
  flows.push_back({{1, 2}, 300, 0});
  flows.push_back({{3}, 0, 0});  // dead link, nothing offered
  ExpectMatchesReference(flows, capacity);
  EXPECT_EQ(flows[0].rate, 0);
  EXPECT_EQ(flows[1].rate, 300);

  // All flows on a dead link want nothing: uncongested.
  std::vector<SimFlow> idle;
  idle.push_back({{3}, 0, 0});
  idle.push_back({{3, 2}, 0, 0});
  ExpectMatchesReference(idle, capacity);
}

TEST(MaxMinReference, ZeroDesiresAndEmptyPaths) {
  std::vector<double> capacity{0, 100, 100};
  std::vector<SimFlow> flows;
  flows.push_back({{}, 7000, 0});
  flows.push_back({{1}, 0, 0});
  flows.push_back({{}, 0, 0});
  flows.push_back({{2, 1}, 90, 0});
  flows.push_back({{1}, 40, 0});
  ExpectMatchesReference(flows, capacity);
  EXPECT_EQ(flows[0].rate, 7000);
  EXPECT_EQ(flows[1].rate, 0);

  std::vector<SimFlow> all_empty(3);
  for (SimFlow& flow : all_empty) flow.desired = 12.5;
  ExpectMatchesReference(all_empty, capacity);
}

TEST(MaxMinReference, AllEqualDesires) {
  std::vector<double> capacity{0, 900, 900, 1e9};
  for (int k : {1, 3, 6, 64}) {
    std::vector<SimFlow> flows;
    for (int i = 0; i < k; ++i) {
      flows.push_back({{1 + i % 2, 3}, 250, 0});
    }
    SCOPED_TRACE("k " + std::to_string(k));
    ExpectMatchesReference(flows, capacity);
  }
}

// Several links tie on the bottleneck share: the tie goes to the link that
// first appears over the flows, including flows that offer nothing.
TEST(MaxMinReference, EqualBottleneckSharesOnSeveralLinks) {
  std::vector<double> capacity{0, 600, 600, 600, 1200};
  std::vector<SimFlow> flows;
  flows.push_back({{3}, 0, 0});  // puts link 3 first in the order
  flows.push_back({{1, 4}, 1000, 0});
  flows.push_back({{1}, 1000, 0});
  flows.push_back({{2, 4}, 1000, 0});
  flows.push_back({{2}, 1000, 0});
  flows.push_back({{3, 4}, 1000, 0});
  flows.push_back({{3}, 1000, 0});
  flows.push_back({{4}, 1000, 0});
  ExpectMatchesReference(flows, capacity);
  for (int f = 1; f <= 7; ++f) EXPECT_EQ(flows[f].rate, 300) << f;
}

// Desires that differ only in their low mantissa bits: nextafter chains
// whose keys share the top 24 bits the radix passes sort by, in ascending,
// descending and shuffled order, short enough for the insertion pass and
// long enough to exhaust its budget.  Link 1's capacity puts the level in
// the middle of the chain, so a misordered flow below it would be
// saturated at the level instead of frozen at its desire.
TEST(MaxMinReference, DesiresSharingTheirTopBits) {
  stats::Rng rng(24);
  for (const int k : {2, 3, 17, 200, 2000}) {
    for (const int shape : {0, 1, 2}) {
      std::vector<double> chain(k);
      double desire = 300.0;
      for (double& d : chain) {
        d = desire;
        desire = std::nextafter(desire, 1000.0);
      }
      const double middle = chain[k / 2];
      if (shape == 1) std::reverse(chain.begin(), chain.end());
      if (shape == 2) {
        for (int i = k - 1; i > 0; --i) {
          std::swap(chain[i], chain[rng.UniformInt(0, i)]);
        }
      }
      // Link 2 carries the odd flows and stays loose.
      std::vector<double> capacity{0, middle * k, 1000.0 * k};
      std::vector<SimFlow> flows;
      for (int i = 0; i < k; ++i) {
        SimFlow flow;
        flow.links = i % 2 == 1 ? std::vector<int32_t>{1, 2}
                                : std::vector<int32_t>{1};
        flow.desired = chain[i];
        flows.push_back(flow);
      }
      SCOPED_TRACE("k " + std::to_string(k) + " shape " +
                   std::to_string(shape));
      ExpectMatchesReference(flows, capacity);
    }
  }
}

// Subnormal and huge positive desires: bit patterns at both ends of the
// positive range, mixed with ordinary ones, on loose and tight links.
TEST(MaxMinReference, SubnormalAndHugeDesires) {
  const double kTiny = std::numeric_limits<double>::denorm_min();
  const double kSmallestNormal = std::numeric_limits<double>::min();
  stats::Rng rng(300);
  for (int instance = 0; instance < 200; ++instance) {
    const int links = static_cast<int>(rng.UniformInt(1, 6));
    std::vector<double> capacity(links + 1, 0.0);
    for (int v = 1; v <= links; ++v) {
      const int64_t kind = rng.UniformInt(0, 3);
      capacity[v] = kind == 0   ? 1e300
                    : kind == 1 ? 1e-310
                    : kind == 2 ? 1000.0
                                : 3e300;
    }
    std::vector<SimFlow> flows(rng.UniformInt(1, 30));
    for (SimFlow& flow : flows) {
      const int hops = static_cast<int>(rng.UniformInt(1, 3));
      for (int h = 0; h < hops; ++h) {
        flow.links.push_back(static_cast<int32_t>(rng.UniformInt(1, links)));
      }
      const int64_t kind = rng.UniformInt(0, 5);
      flow.desired = kind == 0   ? kTiny * static_cast<double>(
                                                rng.UniformInt(1, 1000))
                     : kind == 1 ? kSmallestNormal * rng.Uniform(0.001, 1)
                     : kind == 2 ? 1e300 * rng.Uniform(0.5, 1.5)
                     : kind == 3 ? 1e300
                                 : rng.Uniform(0, 600);
    }
    SCOPED_TRACE("instance " + std::to_string(instance));
    ExpectMatchesReference(flows, capacity);
  }
}

// Many exact ties: a handful of distinct desires shared by hundreds of
// flows over shared links.
TEST(MaxMinReference, ManyExactTies) {
  stats::Rng rng(4096);
  for (int instance = 0; instance < 40; ++instance) {
    const int links = 8;
    std::vector<double> capacity(links + 1, 0.0);
    for (int v = 1; v <= links; ++v) {
      capacity[v] = 1000.0 * static_cast<double>(rng.UniformInt(1, 30));
    }
    std::vector<SimFlow> flows(rng.UniformInt(100, 600));
    for (SimFlow& flow : flows) {
      const int hops = static_cast<int>(rng.UniformInt(1, 3));
      for (int h = 0; h < hops; ++h) {
        flow.links.push_back(static_cast<int32_t>(rng.UniformInt(1, links)));
      }
      flow.desired = 100.0 * static_cast<double>(rng.UniformInt(1, 4));
    }
    SCOPED_TRACE("instance " + std::to_string(instance));
    ExpectMatchesReference(flows, capacity);
  }
}

// Mean-VC shape under overload: hard caps make many desires equal their
// flow's cap, each flow crosses several links that saturate, so a solve
// makes many rule-2 saturations and leaves frozen flows between unfrozen
// ones in the desire order.  The reference counts both to show the
// instances reach them.
TEST(MaxMinReference, HardCappedManySaturations) {
  stats::Rng rng(1412);
  ReferenceStats total;
  int solves = 0;
  for (int instance = 0; instance < 150; ++instance) {
    const int links = static_cast<int>(rng.UniformInt(4, 24));
    std::vector<double> capacity(links + 1, 0.0);
    for (int v = 1; v <= links; ++v) {
      capacity[v] = 250.0 * static_cast<double>(rng.UniformInt(1, 8));
    }
    std::vector<SimFlow> flows(rng.UniformInt(20, 120));
    for (SimFlow& flow : flows) {
      // Distinct links per flow, like a path up and down a tree.
      const int hops = static_cast<int>(rng.UniformInt(1, 4));
      while (static_cast<int>(flow.links.size()) < hops) {
        const int32_t link = static_cast<int32_t>(rng.UniformInt(1, links));
        if (std::find(flow.links.begin(), flow.links.end(), link) ==
            flow.links.end()) {
          flow.links.push_back(link);
        }
      }
      const double cap = 50.0 * static_cast<double>(rng.UniformInt(1, 6));
      flow.desired = std::min(std::max(0.0, rng.Uniform(-100, 2 * cap)), cap);
    }
    std::vector<SimFlow> probe = flows;
    ReferenceAllocate(probe, capacity, &total);
    ++solves;
    SCOPED_TRACE("instance " + std::to_string(instance));
    ExpectMatchesReference(flows, capacity);
  }
  EXPECT_GE(total.saturations, 3 * solves);
  EXPECT_GT(total.frozen_skipped, solves);
}

// A persistent scratch fed the same flow set (flows_changed = false) with
// fresh desires every tick — congested and uncongested ticks mixed — keeps
// matching the reference.
TEST(MaxMinReference, PersistentScratchAcrossTicks) {
  stats::Rng rng(99);
  const int kLinks = 16;
  std::vector<double> capacity(kLinks + 1, 0.0);
  for (int v = 1; v <= kLinks; ++v) capacity[v] = 1000;
  MaxMinScratch scratch(kLinks + 1);
  for (int epoch = 0; epoch < 20; ++epoch) {
    std::vector<SimFlow> flows(rng.UniformInt(1, 40));
    for (SimFlow& flow : flows) {
      const int hops = static_cast<int>(rng.UniformInt(0, 3));
      for (int h = 0; h < hops; ++h) {
        flow.links.push_back(static_cast<int32_t>(rng.UniformInt(1, kLinks)));
      }
    }
    // Alternate light and heavy epochs so both paths run on warm state.
    const double scale = epoch % 2 == 0 ? 60 : 600;
    for (int tick = 0; tick < 10; ++tick) {
      for (SimFlow& flow : flows) flow.desired = rng.Uniform(0, scale);
      SCOPED_TRACE("epoch " + std::to_string(epoch) + " tick " +
                   std::to_string(tick));
      ExpectMatchesReference(scratch, flows, capacity, tick == 0);
    }
  }
}

}  // namespace
}  // namespace svc::sim

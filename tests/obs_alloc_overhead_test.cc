// Regression gate for the observability overhead budget: with the metrics
// registry and tracing armed, the allocators' Allocate() hot paths must
// stay heap-allocation-free after warm-up (the same guarantee
// bench/alloc_microbench and perf_suite measure).  The test links the
// global operator-new counter from bench/alloc_counter.cc.
//
// Covered paths:
//   * homogeneous serial DP — hard zero, obs on and off;
//   * hetero exact DP — hard zero (mask tables live in the arena);
//   * hetero heuristic — bounded (std::stable_sort's temporary buffer is
//     the one per-call allocation; the DP itself is arena-resident).
#include <gtest/gtest.h>

#include <utility>

#include "alloc_counter.h"
#include "obs/decision_log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stats/rng.h"
#include "svc/hetero_exact.h"
#include "svc/hetero_heuristic.h"
#include "svc/homogeneous_search.h"
#include "svc/manager.h"
#include "svc/scratch_arena.h"
#include "topology/builders.h"

namespace svc {
namespace {

core::NetworkManager LoadedManager(const topology::Topology& topo) {
  core::NetworkManager manager(topo, 0.05);
  core::HomogeneousDpAllocator alloc;
  stats::Rng rng(7);
  int64_t id = 1'000'000;
  while (manager.slots().total_free() > topo.total_slots() * 6 / 10) {
    const int n = static_cast<int>(rng.UniformInt(2, 60));
    const double mu = 100.0 * static_cast<double>(rng.UniformInt(1, 5));
    const core::Request r =
        core::Request::Homogeneous(id++, n, mu, mu * rng.Uniform(0, 1));
    if (!manager.Admit(r, alloc).ok()) break;
  }
  return manager;
}

// Runs `iters` warm Allocate() calls of `alloc` and returns the
// operator-new delta across the loop.
int64_t SteadyAllocations(const core::Allocator& alloc, const core::Request& r,
                          const core::NetworkManager& manager, int iters) {
  // Warm-up sizes the thread-local DP arena, seeds the VM-buffer pool, and
  // (with obs on) registers metric handles and this thread's trace ring.
  if (auto warm = alloc.Allocate(r, manager.ledger(), manager.slots())) {
    core::RecycleVmBuffer(std::move(warm->vm_machine));
  }
  const int64_t before = bench::AllocationCount();
  for (int i = 0; i < iters; ++i) {
    auto result = alloc.Allocate(r, manager.ledger(), manager.slots());
    EXPECT_TRUE(result.ok());
    if (result.ok()) core::RecycleVmBuffer(std::move(result->vm_machine));
  }
  return bench::AllocationCount() - before;
}

int64_t AllocationsDuringSteadyCalls(int iters) {
  topology::ThreeTierConfig config;
  config.racks = 20;
  config.machines_per_rack = 10;
  config.racks_per_agg = 4;
  const topology::Topology topo = topology::BuildThreeTier(config);
  const core::NetworkManager manager = LoadedManager(topo);
  const core::HomogeneousDpAllocator alloc;
  const core::Request r = core::Request::Homogeneous(1, 30, 200, 100);
  return SteadyAllocations(alloc, r, manager, iters);
}

TEST(ObsAllocOverhead, AllocateStaysZeroAllocWithObsDisabled) {
  obs::SetMetricsEnabled(false);
  obs::SetTraceEnabled(false);
  EXPECT_EQ(AllocationsDuringSteadyCalls(200), 0);
}

TEST(ObsAllocOverhead, AllocateStaysZeroAllocWithObsEnabled) {
  obs::SetMetricsEnabled(true);
  obs::SetTraceEnabled(true);
  const int64_t allocations = AllocationsDuringSteadyCalls(200);
  obs::SetMetricsEnabled(false);
  obs::SetTraceEnabled(false);
  EXPECT_EQ(allocations, 0);
}

// Decision logging rides the same budget: arming it on top of metrics +
// tracing must not add heap traffic to the allocator hot path (Allocate
// itself records nothing — the decision is the *admission's* — but the
// enabled-flag checks it introduces must stay free).
TEST(ObsAllocOverhead, AllocateStaysZeroAllocWithDecisionsEnabled) {
  obs::SetMetricsEnabled(true);
  obs::SetTraceEnabled(true);
  obs::SetDecisionsEnabled(true);
  const int64_t allocations = AllocationsDuringSteadyCalls(200);
  obs::SetMetricsEnabled(false);
  obs::SetTraceEnabled(false);
  obs::SetDecisionsEnabled(false);
  EXPECT_EQ(allocations, 0);
}

// The decision write path itself: after the first record materializes this
// thread's ring, every further RecordDecision (including binding-link
// insertion and stage stamps) is a fixed-size copy — hard zero heap.
TEST(ObsAllocOverhead, RecordDecisionStaysZeroAllocAfterWarmup) {
  obs::SetDecisionsEnabled(true);
  obs::DecisionRecord rec;
  rec.tenant_id = 42;
  rec.outcome = obs::DecisionOutcome::kAdmit;
  rec.path = obs::CommitPath::kShardDispatch;
  rec.shard = 2;
  rec.set_allocator("svc-dp");
  rec.set_reason("ok");
  rec.AddBindingLink(3, 0.25);
  rec.AddBindingLink(7, 0.10);
  obs::RecordDecision(rec);  // warm-up: registers this thread's ring
  const int64_t before = bench::AllocationCount();
  for (int i = 0; i < 5000; ++i) {
    obs::DecisionRecord r = rec;
    r.tenant_id = i;
    r.AddBindingLink(i, 0.5 + i * 1e-6);
    obs::RecordDecision(r);
  }
  const int64_t allocations = bench::AllocationCount() - before;
  obs::SetDecisionsEnabled(false);
  EXPECT_EQ(allocations, 0);
}

std::vector<stats::Normal> MixedDemands(int count) {
  std::vector<stats::Normal> demands;
  demands.reserve(count);
  for (int i = 0; i < count; ++i) {
    const double mean = 60.0 + 25.0 * (i % 4);
    demands.push_back({mean, mean * mean / 4.0});
  }
  return demands;
}

TEST(ObsAllocOverhead, HeteroExactStaysZeroAllocWithObsEnabled) {
  obs::SetMetricsEnabled(true);
  obs::SetTraceEnabled(true);
  const topology::Topology topo = topology::BuildTwoTier(4, 3, 4, 1000, 2.0);
  const core::NetworkManager manager = LoadedManager(topo);
  const core::HeteroExactAllocator alloc;
  const core::Request r = core::Request::Heterogeneous(1, MixedDemands(8));
  const int64_t allocations = SteadyAllocations(alloc, r, manager, 50);
  obs::SetMetricsEnabled(false);
  obs::SetTraceEnabled(false);
  EXPECT_EQ(allocations, 0);
}

TEST(ObsAllocOverhead, HeteroHeuristicStaysBoundedWithObsEnabled) {
  obs::SetMetricsEnabled(true);
  obs::SetTraceEnabled(true);
  const topology::Topology topo = topology::BuildTwoTier(4, 3, 4, 1000, 2.0);
  const core::NetworkManager manager = LoadedManager(topo);
  const core::HeteroHeuristicAllocator alloc;
  const core::Request r = core::Request::Heterogeneous(1, MixedDemands(12));
  const int iters = 50;
  const int64_t allocations = SteadyAllocations(alloc, r, manager, iters);
  obs::SetMetricsEnabled(false);
  obs::SetTraceEnabled(false);
  // std::stable_sort's temporary buffer is the only tolerated allocation;
  // the DP tables, candidate arrays, and placement buffers are recycled.
  EXPECT_LE(allocations, static_cast<int64_t>(iters) * 2);
}

}  // namespace
}  // namespace svc

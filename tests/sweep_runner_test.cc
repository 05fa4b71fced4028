// Parallel sweep determinism: an N-thread SweepRunner must return results
// bit-identical to the serial (threads == 1) run, because every replica
// owns its engine and derives its seed from ReplicaSeed(base, index) alone.
// Also smoke-tests the underlying work-stealing ThreadPool.
#include "sim/sweep_runner.h"

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <set>
#include <vector>

#include "sim/engine.h"
#include "svc/homogeneous_search.h"
#include "topology/builders.h"
#include "util/thread_pool.h"
#include "workload/workload.h"

namespace svc::sim {
namespace {

TEST(ReplicaSeed, DeterministicAndDistinct) {
  EXPECT_EQ(ReplicaSeed(42, 0), ReplicaSeed(42, 0));
  std::set<uint64_t> seen;
  for (uint64_t base : {0ull, 1ull, 42ull}) {
    for (uint64_t index = 0; index < 64; ++index) {
      seen.insert(ReplicaSeed(base, index));
    }
  }
  // 3 bases x 64 indices, no collisions.
  EXPECT_EQ(seen.size(), 3u * 64u);
}

TEST(ThreadPool, RunsEverySubmittedTask) {
  util::ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
  std::atomic<int> count{0};
  for (int i = 0; i < 1000; ++i) {
    pool.Submit([&count] { count.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 1000);
  // The pool is reusable after Wait().
  for (int i = 0; i < 10; ++i) {
    pool.Submit([&count] { count.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 1010);
}

TEST(ThreadPool, ZeroThreadsClampsToAtLeastOne) {
  // ThreadPool(0) means "size to the host"; even when
  // hardware_concurrency() reports 0 (unknown), the pool must still have a
  // worker — an empty pool would deadlock the first Submit+Wait.
  util::ThreadPool pool(0);
  EXPECT_GE(pool.num_threads(), 1);
  std::atomic<int> count{0};
  for (int i = 0; i < 32; ++i) {
    pool.Submit([&count] { count.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 32);
}

TEST(ThreadPool, SubmitFromWorkerIsAllowed) {
  util::ThreadPool pool(2);
  std::atomic<int> count{0};
  for (int i = 0; i < 16; ++i) {
    pool.Submit([&pool, &count] {
      pool.Submit([&count] { count.fetch_add(1); });
    });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 16);
}

TEST(SweepRunner, ResultsArriveInSubmissionOrder) {
  SweepRunner runner(4);
  std::vector<std::function<int()>> tasks;
  for (int i = 0; i < 64; ++i) {
    tasks.push_back([i] { return i * i; });
  }
  const std::vector<int> results = runner.Run(tasks);
  ASSERT_EQ(results.size(), 64u);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(results[i], i * i);
}

TEST(SweepRunner, SerialRunnerExecutesInline) {
  SweepRunner runner(1);
  EXPECT_EQ(runner.num_threads(), 1);
  std::vector<int> order;
  std::vector<std::function<int()>> tasks;
  for (int i = 0; i < 5; ++i) {
    tasks.push_back([&order, i] {
      order.push_back(i);
      return i;
    });
  }
  runner.Run(tasks);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

// The headline guarantee: full simulation replicas fanned across 4 threads
// produce field-for-field identical BatchResults to the serial baseline.
TEST(SweepRunner, ParallelSweepBitIdenticalToSerial) {
  const topology::Topology topo = topology::BuildStar(16, 2, 2000);
  core::HomogeneousDpAllocator alloc;
  workload::WorkloadConfig wconfig;
  wconfig.num_jobs = 12;
  wconfig.mean_job_size = 6;
  wconfig.max_job_size = 16;
  wconfig.rate_means = {100, 200, 300};

  auto make_tasks = [&] {
    std::vector<std::function<BatchResult()>> tasks;
    for (uint64_t k = 0; k < 8; ++k) {
      tasks.push_back([&, k] {
        const uint64_t seed = ReplicaSeed(7, k);
        workload::WorkloadGenerator gen(wconfig, seed);
        SimConfig config;
        config.abstraction = workload::Abstraction::kSvc;
        config.allocator = &alloc;
        config.seed = seed + 1;
        Engine engine(topo, config);
        return engine.RunBatch(gen.GenerateBatch());
      });
    }
    return tasks;
  };

  SweepRunner serial(1);
  SweepRunner parallel(4);
  const auto expected = serial.Run(make_tasks());
  const auto actual = parallel.Run(make_tasks());
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    const BatchResult& a = expected[i];
    const BatchResult& b = actual[i];
    EXPECT_EQ(a.total_completion_time, b.total_completion_time)
        << "replica " << i;
    EXPECT_EQ(a.simulated_seconds, b.simulated_seconds) << "replica " << i;
    EXPECT_EQ(a.unallocatable_jobs, b.unallocatable_jobs) << "replica " << i;
    EXPECT_EQ(a.outage.outage_link_seconds, b.outage.outage_link_seconds)
        << "replica " << i;
    EXPECT_EQ(a.outage.busy_link_seconds, b.outage.busy_link_seconds)
        << "replica " << i;
    EXPECT_EQ(a.placement_levels, b.placement_levels) << "replica " << i;
    ASSERT_EQ(a.jobs.size(), b.jobs.size()) << "replica " << i;
    for (size_t j = 0; j < a.jobs.size(); ++j) {
      EXPECT_EQ(a.jobs[j].id, b.jobs[j].id);
      EXPECT_EQ(a.jobs[j].arrival_time, b.jobs[j].arrival_time);
      EXPECT_EQ(a.jobs[j].start_time, b.jobs[j].start_time);
      EXPECT_EQ(a.jobs[j].finish_time, b.jobs[j].finish_time);
    }
  }
  // And a second parallel run is identical too (no run-to-run drift).
  const auto again = parallel.Run(make_tasks());
  ASSERT_EQ(again.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(again[i].total_completion_time,
              expected[i].total_completion_time);
  }
}

TEST(SweepRunner, EmptyTaskList) {
  SweepRunner runner(4);
  std::vector<std::function<int()>> tasks;
  EXPECT_TRUE(runner.Run(tasks).empty());
  runner.RunAll({});
}

}  // namespace
}  // namespace svc::sim

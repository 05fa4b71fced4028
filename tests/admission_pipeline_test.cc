// Concurrent admission pipeline: serial equivalence of its decisions, FIFO
// abort semantics, quiesce rules, epoch semantics, and the bounded queue /
// snapshot plumbing underneath.
//
// Every fixture name contains "Pipeline" so the TSan CI job can select the
// whole file with a single -R regex.
#include "svc/admission_pipeline.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "sim/engine.h"
#include "sim/event_log.h"
#include "stats/rng.h"
#include "svc/first_fit.h"
#include "svc/hetero_exact.h"
#include "svc/hetero_heuristic.h"
#include "svc/homogeneous_search.h"
#include "svc/oktopus_greedy.h"
#include "topology/builders.h"
#include "util/bounded_queue.h"

namespace svc::core {
namespace {

topology::Topology TestTopo() {
  return topology::BuildTwoTier(2, 3, 4, 1000, 2.0);  // 24 slots
}

// A request mix sized so a 24-slot fabric admits some and rejects others.
std::vector<Request> ChurnRequests(int count, uint64_t seed) {
  stats::Rng rng(seed);
  std::vector<Request> requests;
  requests.reserve(count);
  for (int i = 0; i < count; ++i) {
    const int n = static_cast<int>(rng.UniformInt(2, 8));
    const double mu = 100.0 * static_cast<double>(rng.UniformInt(1, 5));
    requests.push_back(
        Request::Homogeneous(1000 + i, n, mu, mu * rng.Uniform(0, 1)));
  }
  return requests;
}

// --- Deterministic discipline: serial equivalence --------------------------

TEST(PipelineDeterministic, MatchesSerialDecisionsAndBooks) {
  const topology::Topology topo = TestTopo();
  const HomogeneousDpAllocator alloc;
  const std::vector<Request> requests = ChurnRequests(40, 17);

  NetworkManager serial(topo, 0.05);
  std::vector<util::Result<Placement>> expected;
  for (const Request& r : requests) expected.push_back(serial.Admit(r, alloc));

  NetworkManager piped(topo, 0.05);
  PipelineConfig config;
  config.workers = 4;
  AdmissionPipeline pipeline(piped, config);
  const auto decisions = pipeline.AdmitBatch(requests, alloc);

  ASSERT_EQ(decisions.size(), expected.size());
  for (size_t i = 0; i < decisions.size(); ++i) {
    ASSERT_EQ(decisions[i].ok(), expected[i].ok()) << "request " << i;
    if (decisions[i].ok()) {
      EXPECT_EQ(decisions[i]->vm_machine, expected[i]->vm_machine)
          << "request " << i;
      EXPECT_EQ(decisions[i]->subtree_root, expected[i]->subtree_root);
    }
  }
  EXPECT_EQ(piped.live_count(), serial.live_count());
  EXPECT_EQ(piped.slots().total_free(), serial.slots().total_free());
  EXPECT_EQ(piped.ledger().TotalRecords(), serial.ledger().TotalRecords());
  EXPECT_EQ(piped.MaxOccupancy(), serial.MaxOccupancy());  // bit-identical
  EXPECT_TRUE(piped.StateValid());
}

TEST(PipelineDeterministic, IdenticalAcrossWorkerCounts) {
  const topology::Topology topo = TestTopo();
  const HomogeneousDpAllocator alloc;
  const std::vector<Request> requests = ChurnRequests(30, 23);

  auto run = [&](int workers) {
    NetworkManager manager(topo, 0.05);
    PipelineConfig config;
    config.workers = workers;
    AdmissionPipeline pipeline(manager, config);
    std::vector<char> verdicts;
    for (const auto& d : pipeline.AdmitBatch(requests, alloc)) {
      verdicts.push_back(d.ok() ? 1 : 0);
    }
    return std::make_pair(verdicts, manager.MaxOccupancy());
  };
  const auto base = run(1);
  for (int workers : {2, 3, 4, 8}) {
    EXPECT_EQ(run(workers), base) << workers << " workers";
  }
}

TEST(PipelineDeterministic, StatsAccountForEveryRequest) {
  const topology::Topology topo = TestTopo();
  const HomogeneousDpAllocator alloc;
  const std::vector<Request> requests = ChurnRequests(30, 31);
  NetworkManager manager(topo, 0.05);
  PipelineConfig config;
  config.workers = 4;
  AdmissionPipeline pipeline(manager, config);
  int64_t admitted = 0;
  for (const auto& d : pipeline.AdmitBatch(requests, alloc)) {
    if (d.ok()) ++admitted;
  }
  const PipelineStats& stats = pipeline.stats();
  EXPECT_EQ(stats.committed, admitted);
  EXPECT_EQ(stats.committed + stats.rejected,
            static_cast<int64_t>(requests.size()));
  EXPECT_GE(stats.proposed, static_cast<int64_t>(requests.size()));
  EXPECT_EQ(stats.committed, static_cast<int64_t>(manager.live_count()));
  // Every conflict is resolved by a serial fallback (or absorbed outright
  // for monotone rejections — those are not conflicts at all).
  EXPECT_EQ(stats.fallbacks, stats.conflicts);
}

TEST(PipelineDeterministic, DecisionObserverRunsInRequestOrder) {
  const topology::Topology topo = TestTopo();
  const HomogeneousDpAllocator alloc;
  const std::vector<Request> requests = ChurnRequests(20, 41);
  NetworkManager manager(topo, 0.05);
  PipelineConfig config;
  config.workers = 4;
  AdmissionPipeline pipeline(manager, config);
  std::vector<size_t> order;
  pipeline.AdmitBatch(requests, alloc, /*stop_on_failure=*/false,
                      [&](size_t i, util::Result<Placement>&) {
                        order.push_back(i);
                      });
  ASSERT_EQ(order.size(), requests.size());
  for (size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

// --- FIFO abort (stop_on_failure) ------------------------------------------

TEST(PipelineFifo, StopOnFailureMatchesSerialPrefix) {
  const topology::Topology topo = TestTopo();
  const HomogeneousDpAllocator alloc;
  // Requests 0..4 are small enough to always fit an empty fabric; request
  // 5 can never fit (more VMs than the fabric has slots), so the FIFO
  // admission stops there.
  std::vector<Request> requests;
  for (int i = 0; i < 12; ++i) {
    requests.push_back(Request::Homogeneous(2000 + i, 2, 100, 10));
  }
  requests[5] = Request::Homogeneous(2005, 100, 100, 10);

  NetworkManager manager(topo, 0.05);
  PipelineConfig config;
  config.workers = 4;
  AdmissionPipeline pipeline(manager, config);
  std::vector<size_t> observed;
  const auto decisions = pipeline.AdmitBatch(
      requests, alloc, /*stop_on_failure=*/true,
      [&](size_t i, util::Result<Placement>&) { observed.push_back(i); });

  ASSERT_EQ(decisions.size(), requests.size());
  EXPECT_FALSE(decisions[5].ok());
  for (size_t i = 6; i < decisions.size(); ++i) {
    ASSERT_FALSE(decisions[i].ok());
    EXPECT_EQ(decisions[i].status().code(),
              util::ErrorCode::kFailedPrecondition)
        << "request " << i;
  }
  // The observer sees exactly the attempted prefix, in order.
  ASSERT_EQ(observed.size(), 6u);
  for (size_t i = 0; i < observed.size(); ++i) EXPECT_EQ(observed[i], i);
  // Decisions before the failure match a serial FIFO run.
  NetworkManager serial(topo, 0.05);
  for (size_t i = 0; i < 6; ++i) {
    const auto expected = serial.Admit(requests[i], alloc);
    EXPECT_EQ(decisions[i].ok(), expected.ok()) << "request " << i;
  }
  EXPECT_EQ(manager.live_count(), serial.live_count());
}

// --- Quiesce rules: faults refuse while proposals are in flight -------------

TEST(PipelineQuiesce, FaultPlaneRefusesWithProposalsInFlight) {
  const topology::Topology topo = TestTopo();
  const HomogeneousDpAllocator alloc;
  NetworkManager manager(topo, 0.05);
  ASSERT_TRUE(manager.Admit(Request::Homogeneous(1, 4, 100, 50), alloc).ok());
  const topology::VertexId machine = topo.machines()[0];

  manager.BeginProposal();
  const auto fault =
      manager.HandleFault(FaultKind::kMachine, machine,
                          RecoveryPolicy::kReallocate, alloc);
  ASSERT_FALSE(fault.ok());
  EXPECT_EQ(fault.status().code(), util::ErrorCode::kFailedPrecondition);
  manager.EndProposal();

  ASSERT_TRUE(manager
                  .HandleFault(FaultKind::kMachine, machine,
                               RecoveryPolicy::kReallocate, alloc)
                  .ok());
  manager.BeginProposal();
  EXPECT_EQ(manager.HandleRecovery(machine).code(),
            util::ErrorCode::kFailedPrecondition);
  manager.EndProposal();
  EXPECT_TRUE(manager.HandleRecovery(machine).ok());
}

TEST(PipelineQuiesce, BatchDrainsInFlightCounter) {
  const topology::Topology topo = TestTopo();
  const HomogeneousDpAllocator alloc;
  NetworkManager manager(topo, 0.05);
  PipelineConfig config;
  config.workers = 4;
  AdmissionPipeline pipeline(manager, config);
  pipeline.AdmitBatch(ChurnRequests(20, 67), alloc);
  EXPECT_EQ(manager.InFlightProposals(), 0);
  // Drained: the fault plane is usable again.
  EXPECT_TRUE(manager
                  .HandleFault(FaultKind::kMachine, topo.machines()[0],
                               RecoveryPolicy::kReallocate, alloc)
                  .ok());
}

// --- Epoch semantics ---------------------------------------------------------

TEST(PipelineEpoch, BumpsOnMutationsNotRejections) {
  const topology::Topology topo = TestTopo();
  const HomogeneousDpAllocator alloc;
  NetworkManager manager(topo, 0.05);
  const uint64_t e0 = manager.epoch();
  EXPECT_FALSE(
      manager.Admit(Request::Homogeneous(1, 100, 100, 10), alloc).ok());
  EXPECT_EQ(manager.epoch(), e0);  // rejections leave the books untouched
  ASSERT_TRUE(manager.Admit(Request::Homogeneous(2, 4, 100, 50), alloc).ok());
  const uint64_t e1 = manager.epoch();
  EXPECT_GT(e1, e0);
  manager.Release(2);
  EXPECT_GT(manager.epoch(), e1);
}

TEST(PipelineEpoch, StaleProposalDetected) {
  const topology::Topology topo = TestTopo();
  const HomogeneousDpAllocator alloc;
  NetworkManager manager(topo, 0.05);
  AdmissionSnapshot snapshot(topo, 0.05);
  snapshot.Capture(manager);
  AdmissionProposal stale =
      manager.Propose(Request::Homogeneous(1, 4, 100, 50), alloc, snapshot);
  ASSERT_TRUE(stale.ok);
  EXPECT_EQ(stale.epoch, manager.epoch());
  ASSERT_TRUE(manager.Admit(Request::Homogeneous(2, 4, 100, 50), alloc).ok());
  EXPECT_NE(stale.epoch, manager.epoch());
}

// --- Snapshot capture fidelity ----------------------------------------------

TEST(PipelineSnapshot, ProposalAgainstFreshSnapshotMatchesLiveBooks) {
  const topology::Topology topo = TestTopo();
  const HomogeneousDpAllocator alloc;
  NetworkManager manager(topo, 0.05);
  ASSERT_TRUE(manager.Admit(Request::Homogeneous(1, 6, 200, 90), alloc).ok());
  ASSERT_TRUE(manager.Admit(Request::Homogeneous(2, 3, 300, 40), alloc).ok());

  AdmissionSnapshot snapshot(topo, 0.05);
  snapshot.Capture(manager);
  EXPECT_EQ(snapshot.epoch(), manager.epoch());
  EXPECT_EQ(snapshot.slots.total_free(), manager.slots().total_free());

  const Request probe = Request::Homogeneous(3, 5, 250, 60);
  const AdmissionProposal speculative = manager.Propose(probe, alloc, snapshot);
  const auto live = alloc.Allocate(probe, manager.ledger(), manager.slots());
  ASSERT_EQ(speculative.ok, live.ok());
  ASSERT_TRUE(speculative.ok);
  EXPECT_EQ(speculative.placement.vm_machine, live->vm_machine);
  EXPECT_EQ(speculative.placement.max_occupancy, live->max_occupancy);
}

TEST(PipelineSnapshot, CaptureReusesStorageAcrossEpochs) {
  const topology::Topology topo = TestTopo();
  const HomogeneousDpAllocator alloc;
  NetworkManager manager(topo, 0.05);
  AdmissionSnapshot snapshot(topo, 0.05);
  for (int64_t id = 1; id <= 3; ++id) {
    ASSERT_TRUE(
        manager.Admit(Request::Homogeneous(id, 2, 100, 20), alloc).ok());
    snapshot.Capture(manager);
    EXPECT_EQ(snapshot.epoch(), manager.epoch());
    EXPECT_EQ(snapshot.slots.total_free(), manager.slots().total_free());
  }
}

// --- Monotone-rejection declarations ----------------------------------------

TEST(PipelineMonotone, CompleteSearchesDeclareMonotoneGreedyHeuristicsDoNot) {
  EXPECT_TRUE(HomogeneousDpAllocator().monotone_rejections());
  EXPECT_TRUE(TivcAdaptedAllocator().monotone_rejections());
  EXPECT_TRUE(OktopusAllocator().monotone_rejections());
  EXPECT_TRUE(HeteroExactAllocator().monotone_rejections());
  EXPECT_FALSE(FirstFitAllocator().monotone_rejections());
  EXPECT_FALSE(OktopusGreedyAllocator().monotone_rejections());
  EXPECT_FALSE(HeteroHeuristicAllocator().monotone_rejections());
}

// --- Bounded queue ----------------------------------------------------------

TEST(PipelineQueue, FifoOrderAndTryPushBackpressure) {
  util::BoundedQueue<int> queue(2);
  EXPECT_TRUE(queue.TryPush(1));
  EXPECT_TRUE(queue.TryPush(2));
  EXPECT_FALSE(queue.TryPush(3));  // full
  int out = 0;
  EXPECT_TRUE(queue.Pop(out));
  EXPECT_EQ(out, 1);
  EXPECT_TRUE(queue.TryPush(3));
  EXPECT_TRUE(queue.Pop(out));
  EXPECT_EQ(out, 2);
  EXPECT_TRUE(queue.Pop(out));
  EXPECT_EQ(out, 3);
  EXPECT_FALSE(queue.TryPop(out));  // empty, non-blocking
}

TEST(PipelineQueue, CloseDrainsThenReportsClosed) {
  util::BoundedQueue<int> queue(4);
  ASSERT_TRUE(queue.Push(1));
  ASSERT_TRUE(queue.Push(2));
  queue.Close();
  EXPECT_FALSE(queue.Push(3));  // closed: dropped
  int out = 0;
  EXPECT_TRUE(queue.Pop(out));
  EXPECT_EQ(out, 1);
  EXPECT_TRUE(queue.Pop(out));
  EXPECT_EQ(out, 2);
  EXPECT_FALSE(queue.Pop(out));  // drained + closed
}

TEST(PipelineQueue, PushBlocksUntilConsumerMakesRoom) {
  util::BoundedQueue<int> queue(1);
  ASSERT_TRUE(queue.TryPush(1));
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    queue.Push(2);  // blocks until the pop below
    pushed.store(true);
  });
  int out = 0;
  ASSERT_TRUE(queue.Pop(out));
  EXPECT_EQ(out, 1);
  ASSERT_TRUE(queue.Pop(out));  // waits for the producer if needed
  EXPECT_EQ(out, 2);
  producer.join();
  EXPECT_TRUE(pushed.load());
}

TEST(PipelineQueue, ConcurrentProducersConsumersLoseNothing) {
  constexpr int kPerProducer = 200;
  util::BoundedQueue<int> queue(8);
  std::atomic<int64_t> sum{0};
  std::atomic<int> popped{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < 2; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) queue.Push(p * kPerProducer + i);
    });
  }
  for (int c = 0; c < 2; ++c) {
    threads.emplace_back([&] {
      int v = 0;
      while (queue.Pop(v)) {
        sum.fetch_add(v);
        popped.fetch_add(1);
      }
    });
  }
  threads[0].join();
  threads[1].join();
  queue.Close();
  threads[2].join();
  threads[3].join();
  EXPECT_EQ(popped.load(), 2 * kPerProducer);
  const int64_t n = 2 * kPerProducer;
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);
}

}  // namespace
}  // namespace svc::core

// --- Engine integration: bit-identical simulations for any worker count -----

namespace svc::sim {
namespace {

workload::JobSpec MakeJob(int64_t id, int size, double compute,
                          double rate_mean, double rate_stddev,
                          double flow_mbits, double arrival = 0) {
  workload::JobSpec job;
  job.id = id;
  job.size = size;
  job.compute_time = compute;
  job.rate_mean = rate_mean;
  job.rate_stddev = rate_stddev;
  job.flow_mbits = flow_mbits;
  job.arrival_time = arrival;
  return job;
}

std::vector<workload::JobSpec> PipelineJobs() {
  std::vector<workload::JobSpec> jobs;
  // Same-instant arrival groups so RunOnline hands the pipeline real
  // batches; sizes chosen so the 16-slot star rejects some arrivals.
  for (int j = 0; j < 12; ++j) {
    jobs.push_back(MakeJob(j + 1, 2 + (j % 5), 20 + 3 * j, 100 + 10 * (j % 3),
                           10 * (j % 4), 400, 50.0 * (j / 4)));
  }
  return jobs;
}

void ExpectSameEvents(const EventLog& a, const EventLog& b) {
  ASSERT_EQ(a.events().size(), b.events().size());
  for (size_t i = 0; i < a.events().size(); ++i) {
    EXPECT_EQ(a.events()[i].time, b.events()[i].time) << i;
    EXPECT_EQ(a.events()[i].kind, b.events()[i].kind) << i;
    EXPECT_EQ(a.events()[i].job_id, b.events()[i].job_id) << i;
  }
}

TEST(PipelineEngine, RunBatchBitIdenticalAcrossWorkerCounts) {
  const topology::Topology topo = topology::BuildStar(8, 2, 2000);
  const core::HomogeneousDpAllocator alloc;
  auto run = [&](int workers, EventLog& events) {
    SimConfig config;
    config.abstraction = workload::Abstraction::kSvc;
    config.allocator = &alloc;
    config.seed = 7;
    config.admission_workers = workers;
    config.admission_window = 4;
    config.events = &events;
    Engine engine(topo, config);
    return engine.RunBatch(PipelineJobs());
  };
  EventLog serial_events, piped_events;
  const BatchResult serial = run(0, serial_events);
  const BatchResult piped = run(4, piped_events);
  ASSERT_EQ(piped.jobs.size(), serial.jobs.size());
  for (size_t i = 0; i < serial.jobs.size(); ++i) {
    EXPECT_EQ(piped.jobs[i].id, serial.jobs[i].id);
    EXPECT_EQ(piped.jobs[i].start_time, serial.jobs[i].start_time);
    EXPECT_EQ(piped.jobs[i].finish_time, serial.jobs[i].finish_time);
  }
  EXPECT_EQ(piped.total_completion_time, serial.total_completion_time);
  EXPECT_EQ(piped.placement_levels, serial.placement_levels);
  EXPECT_EQ(piped.unallocatable_jobs, serial.unallocatable_jobs);
  ExpectSameEvents(piped_events, serial_events);
}

TEST(PipelineEngine, RunOnlineBitIdenticalAcrossWorkerCounts) {
  const topology::Topology topo = topology::BuildStar(8, 2, 2000);
  const core::HomogeneousDpAllocator alloc;
  auto run = [&](int workers, EventLog& events) {
    SimConfig config;
    config.abstraction = workload::Abstraction::kSvc;
    config.allocator = &alloc;
    config.seed = 9;
    config.admission_workers = workers;
    config.events = &events;
    Engine engine(topo, config);
    return engine.RunOnline(PipelineJobs());
  };
  EventLog serial_events, piped_events;
  const OnlineResult serial = run(0, serial_events);
  const OnlineResult piped = run(4, piped_events);
  EXPECT_EQ(piped.accepted, serial.accepted);
  EXPECT_EQ(piped.rejected, serial.rejected);
  ASSERT_EQ(piped.jobs.size(), serial.jobs.size());
  for (size_t i = 0; i < serial.jobs.size(); ++i) {
    EXPECT_EQ(piped.jobs[i].id, serial.jobs[i].id);
    EXPECT_EQ(piped.jobs[i].start_time, serial.jobs[i].start_time);
    EXPECT_EQ(piped.jobs[i].finish_time, serial.jobs[i].finish_time);
  }
  EXPECT_EQ(piped.concurrency_samples, serial.concurrency_samples);
  EXPECT_EQ(piped.max_occupancy_samples, serial.max_occupancy_samples);
  EXPECT_EQ(piped.placement_levels, serial.placement_levels);
  ExpectSameEvents(piped_events, serial_events);
}

TEST(PipelineEngine, RunBatchScriptedFaultsBitIdenticalWithWorkers) {
  // Satellite: scripted faults now fire inside RunBatch too, and the
  // pipeline quiesces around them — the fault plane refuses while
  // proposals are in flight, so the engine must drain the batch first.
  const topology::Topology topo = topology::BuildStar(8, 2, 2000);
  const core::HomogeneousDpAllocator alloc;
  auto run = [&](int workers, EventLog& events) {
    SimConfig config;
    config.abstraction = workload::Abstraction::kSvc;
    config.allocator = &alloc;
    config.seed = 11;
    config.admission_workers = workers;
    config.admission_window = 4;
    config.events = &events;
    config.faults.policy = core::RecoveryPolicy::kReallocate;
    config.faults.scripted.push_back(
        {30.0, topo.machines()[0], core::FaultKind::kMachine, /*fail=*/true});
    config.faults.scripted.push_back(
        {90.0, topo.machines()[0], core::FaultKind::kMachine,
         /*fail=*/false});
    Engine engine(topo, config);
    return engine.RunBatch(PipelineJobs());
  };
  EventLog serial_events, piped_events;
  const BatchResult serial = run(0, serial_events);
  const BatchResult piped = run(4, piped_events);
  EXPECT_GT(serial.faults_injected, 0);
  EXPECT_EQ(piped.faults_injected, serial.faults_injected);
  EXPECT_EQ(piped.fault_recoveries, serial.fault_recoveries);
  EXPECT_EQ(piped.tenants_affected, serial.tenants_affected);
  EXPECT_EQ(piped.tenants_recovered, serial.tenants_recovered);
  EXPECT_EQ(piped.tenants_evicted, serial.tenants_evicted);
  ASSERT_EQ(piped.jobs.size(), serial.jobs.size());
  for (size_t i = 0; i < serial.jobs.size(); ++i) {
    EXPECT_EQ(piped.jobs[i].id, serial.jobs[i].id);
    EXPECT_EQ(piped.jobs[i].finish_time, serial.jobs[i].finish_time);
  }
  ExpectSameEvents(piped_events, serial_events);
}

}  // namespace
}  // namespace svc::sim

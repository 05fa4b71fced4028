// Declarative scenario layer (sim/scenario.h): canonical serialization
// round-trips, every registry entry validates, the strict parser rejects
// unknown keys, and RunScenario replays bit-identically — across repeated
// runs (decision-stream identity) and across sweep thread counts
// (result-level identity), which is what makes the figure benches safe as
// thin shims.
#include "sim/scenario.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "obs/decision_log.h"

namespace svc::sim {
namespace {

// Every deterministic field of two cells must match exactly; the one
// wall-clock output (recovery_latency_us) is excluded by contract (see
// sim/metrics.h).
void ExpectCellsIdentical(const ScenarioCell& a, const ScenarioCell& b) {
  EXPECT_EQ(a.label, b.label);
  EXPECT_EQ(a.axis_index, b.axis_index);
  EXPECT_EQ(a.axis_value, b.axis_value);
  ASSERT_EQ(a.online, b.online);
  if (a.online) {
    const OnlineResult& x = a.online_result;
    const OnlineResult& y = b.online_result;
    EXPECT_EQ(x.accepted, y.accepted);
    EXPECT_EQ(x.rejected, y.rejected);
    EXPECT_EQ(x.simulated_seconds, y.simulated_seconds);
    EXPECT_EQ(x.outage.outage_link_seconds, y.outage.outage_link_seconds);
    EXPECT_EQ(x.outage.busy_link_seconds, y.outage.busy_link_seconds);
    EXPECT_EQ(x.placement_levels, y.placement_levels);
    EXPECT_EQ(x.concurrency_samples, y.concurrency_samples);
    EXPECT_EQ(x.max_occupancy_samples, y.max_occupancy_samples);
    EXPECT_EQ(x.faults_injected, y.faults_injected);
    EXPECT_EQ(x.tenants_affected, y.tenants_affected);
    EXPECT_EQ(x.tenants_recovered, y.tenants_recovered);
    EXPECT_EQ(x.tenants_evicted, y.tenants_evicted);
    EXPECT_EQ(x.tenants_switched, y.tenants_switched);
    ASSERT_EQ(x.jobs.size(), y.jobs.size());
    for (size_t i = 0; i < x.jobs.size(); ++i) {
      EXPECT_EQ(x.jobs[i].id, y.jobs[i].id);
      EXPECT_EQ(x.jobs[i].arrival_time, y.jobs[i].arrival_time);
      EXPECT_EQ(x.jobs[i].start_time, y.jobs[i].start_time);
      EXPECT_EQ(x.jobs[i].finish_time, y.jobs[i].finish_time);
    }
  } else {
    const BatchResult& x = a.batch;
    const BatchResult& y = b.batch;
    EXPECT_EQ(x.total_completion_time, y.total_completion_time);
    EXPECT_EQ(x.unallocatable_jobs, y.unallocatable_jobs);
    EXPECT_EQ(x.simulated_seconds, y.simulated_seconds);
    EXPECT_EQ(x.placement_levels, y.placement_levels);
    EXPECT_EQ(x.jobs.size(), y.jobs.size());
  }
}

TEST(ScenarioSerialization, RoundTripIsIdenticalForEveryBuiltin) {
  for (const std::string& name : RegisteredScenarioNames()) {
    SCOPED_TRACE(name);
    const Scenario* scenario = FindScenario(name);
    ASSERT_NE(scenario, nullptr);
    const std::string once = SerializeScenario(*scenario);
    util::Result<Scenario> parsed = ParseScenario(once);
    ASSERT_TRUE(parsed) << parsed.status().ToText();
    const std::string twice = SerializeScenario(*parsed);
    EXPECT_EQ(once, twice);
    EXPECT_EQ(ScenarioConfigHash(*scenario), ScenarioConfigHash(*parsed));
  }
}

TEST(ScenarioSerialization, EveryBuiltinValidates) {
  ASSERT_FALSE(RegisteredScenarioNames().empty());
  for (const std::string& name : RegisteredScenarioNames()) {
    SCOPED_TRACE(name);
    const Scenario* scenario = FindScenario(name);
    ASSERT_NE(scenario, nullptr);
    EXPECT_EQ(scenario->name, name);
    const util::Status status = ValidateScenario(*scenario);
    EXPECT_TRUE(status.ok()) << status.ToText();
  }
}

TEST(ScenarioSerialization, DefaultScenarioRoundTrips) {
  Scenario scenario;
  scenario.name = "unit";
  util::Result<Scenario> parsed = ParseScenario(SerializeScenario(scenario));
  ASSERT_TRUE(parsed) << parsed.status().ToText();
  EXPECT_EQ(SerializeScenario(scenario), SerializeScenario(*parsed));
}

TEST(ScenarioSerialization, UnknownTopLevelKeyIsRejected) {
  Scenario scenario;
  scenario.name = "unit";
  std::string text = SerializeScenario(scenario);
  ASSERT_EQ(text.front(), '{');
  text.insert(1, "\"bogus_key\":1,");
  util::Result<Scenario> parsed = ParseScenario(text);
  ASSERT_FALSE(parsed);
  EXPECT_NE(parsed.status().ToText().find("bogus_key"), std::string::npos)
      << parsed.status().ToText();
}

TEST(ScenarioSerialization, UnknownNestedKeyIsRejected) {
  Scenario scenario;
  scenario.name = "unit";
  std::string text = SerializeScenario(scenario);
  const std::string anchor = "\"admission\":{";
  const size_t pos = text.find(anchor);
  ASSERT_NE(pos, std::string::npos);
  text.insert(pos + anchor.size(), "\"mystery\":true,");
  util::Result<Scenario> parsed = ParseScenario(text);
  ASSERT_FALSE(parsed);
  EXPECT_NE(parsed.status().ToText().find("mystery"), std::string::npos)
      << parsed.status().ToText();
}

TEST(ScenarioSerialization, TypeMismatchIsRejected) {
  util::Result<Scenario> parsed = ParseScenario("{\"seed\":\"not-a-number\"}");
  EXPECT_FALSE(parsed);
}

TEST(ScenarioValidation, CatchesBadSweepParameter) {
  const Scenario* fig7 = FindScenario("fig7");
  ASSERT_NE(fig7, nullptr);
  Scenario broken = *fig7;
  broken.sweep.parameter = "voltage";
  EXPECT_FALSE(ValidateScenario(broken).ok());
}

TEST(ScenarioAllocator, NameDerivesFromAbstraction) {
  Scenario scenario;
  EXPECT_EQ(ScenarioAllocatorName(scenario), "svc-dp");
  scenario.admission.abstraction = "mean_vc";
  EXPECT_EQ(ScenarioAllocatorName(scenario), "oktopus");
  scenario.admission.allocator = "first-fit";
  EXPECT_EQ(ScenarioAllocatorName(scenario), "first-fit");
}

// fig7 at a reduced job count: the sweep fans cells across threads, and the
// per-cell results must not depend on the thread count (each cell rebuilds
// topology/workload/engine from the scenario's fixed seeds).
TEST(ScenarioRun, Fig7ResultsIdenticalAcrossThreadCounts) {
  const Scenario* fig7 = FindScenario("fig7");
  ASSERT_NE(fig7, nullptr);
  Scenario reduced = *fig7;
  reduced.workload.num_jobs = 48;

  ScenarioRunOptions serial;
  serial.threads = 1;
  util::Result<ScenarioRunResult> a = RunScenario(reduced, serial);
  ASSERT_TRUE(a) << a.status().ToText();

  ScenarioRunOptions fanned;
  fanned.threads = 4;
  util::Result<ScenarioRunResult> b = RunScenario(reduced, fanned);
  ASSERT_TRUE(b) << b.status().ToText();

  ASSERT_EQ(a->cells.size(), b->cells.size());
  ASSERT_FALSE(a->cells.empty());
  for (size_t i = 0; i < a->cells.size(); ++i) {
    SCOPED_TRACE(a->cells[i].label + " axis " +
                 std::to_string(a->cells[i].axis_index));
    ExpectCellsIdentical(a->cells[i], b->cells[i]);
  }
}

// fig7 at 60 jobs, all 16 cells, against values pinned from the progressive
// filling solver before its uncongested fast path and radix-sorted cold
// solve (printed with %.17g, so any drift in a pinned field shows).  Rate
// drift below a tick's completion threshold leaves these fields unchanged;
// tests/maxmin_reference_test.cc catches that bit for bit.
TEST(ScenarioRun, Fig7ReducedMatchesPinnedGolden) {
  const Scenario* fig7 = FindScenario("fig7");
  ASSERT_NE(fig7, nullptr);
  Scenario reduced = *fig7;
  reduced.workload.num_jobs = 60;
  ScenarioRunOptions options;
  options.threads = 4;
  util::Result<ScenarioRunResult> result = RunScenario(reduced, options);
  ASSERT_TRUE(result) << result.status().ToText();

  // label axis accepted rejected outage_rate steady_outage_rate
  // mean_running_seconds
  const std::vector<std::string> pinned = {
      "mean-VC 0 60 0 0 0 491.13333333333333",
      "percentile-VC 0 60 0 0 0 420.16666666666669",
      "SVC(e=0.05) 0 60 0 0.00047955480565599893 0.00047955480565599893 "
      "418.01666666666665",
      "SVC(e=0.02) 0 60 0 6.3785096012357895e-05 6.3785096012357895e-05 "
      "417.78333333333336",
      "mean-VC 1 60 0 0 0 491.91666666666669",
      "percentile-VC 1 60 0 0 0 419.18333333333334",
      "SVC(e=0.05) 1 60 0 0.00068607663054351831 0.00068607663054351831 "
      "417.63333333333333",
      "SVC(e=0.02) 1 60 0 9.8204620067040001e-05 9.8204620067040001e-05 "
      "417.73333333333335",
      "mean-VC 2 60 0 0 0 492.89999999999998",
      "percentile-VC 2 55 5 0 0 416.05454545454546",
      "SVC(e=0.05) 2 60 0 0.00027298318022900536 0.00027298318022900536 "
      "417.76666666666665",
      "SVC(e=0.02) 2 60 0 0.00017904353937284561 0.00017904353937284561 "
      "417.96666666666664",
      "mean-VC 3 60 0 0 0 492.55000000000001",
      "percentile-VC 3 55 5 0 0 414.36363636363637",
      "SVC(e=0.05) 3 60 0 0.0005923300067306105 0.0005923300067306105 "
      "417.16666666666669",
      "SVC(e=0.02) 3 60 0 0.0003286816876310652 0.0003286816876310652 "
      "417.78333333333336",
  };
  ASSERT_EQ(result->cells.size(), pinned.size());
  for (size_t i = 0; i < pinned.size(); ++i) {
    const ScenarioCell& cell = result->cells[i];
    ASSERT_TRUE(cell.online);
    const OnlineResult& r = cell.online_result;
    char line[256];
    std::snprintf(line, sizeof line, "%s %d %lld %lld %.17g %.17g %.17g",
                  cell.label.c_str(), cell.axis_index,
                  static_cast<long long>(r.accepted),
                  static_cast<long long>(r.rejected), r.outage.OutageRate(),
                  r.steady_outage().OutageRate(), r.MeanRunningTime());
    EXPECT_EQ(line, pinned[i]) << "cell " << i;
  }
}

// ablation_enforcement saturates links far more often per solve than fig7
// (hard caps and token buckets fill links to exactly C), so it pins the
// solver's rule-2 path.  The values were recorded before the per-solve
// saturation lists, the three-byte desire sort and the batched normal
// draws; they must not move.
TEST(ScenarioRun, AblationEnforcementReducedMatchesPinnedGolden) {
  const Scenario* ablation = FindScenario("ablation_enforcement");
  ASSERT_NE(ablation, nullptr);
  Scenario reduced = *ablation;
  reduced.workload.num_jobs = 60;
  ScenarioRunOptions options;
  options.threads = 4;
  util::Result<ScenarioRunResult> result = RunScenario(reduced, options);
  ASSERT_TRUE(result) << result.status().ToText();

  // label completed unallocatable total_completion_time simulated_seconds
  // outage_rate mean_running_seconds
  const std::vector<std::string> pinned = {
      "mean-VC/hard_cap 60 0 735 735 0 551.75",
      "mean-VC/token_bucket 60 0 568 568 0.14310858008962304 "
      "437.98333333333335",
      "percentile-VC/hard_cap 60 0 1271 1271 0 419.73333333333335",
      "percentile-VC/token_bucket 60 0 1249 1249 0.00087319469582240608 "
      "416.38333333333333",
      "SVC/hard_cap 60 0 861 861 0.0054830169825932874 416.46666666666664",
  };
  ASSERT_EQ(result->cells.size(), pinned.size());
  for (size_t i = 0; i < pinned.size(); ++i) {
    const ScenarioCell& cell = result->cells[i];
    ASSERT_FALSE(cell.online);
    const BatchResult& r = cell.batch;
    char line[256];
    std::snprintf(line, sizeof line, "%s %zu %lld %.17g %.17g %.17g %.17g",
                  cell.label.c_str(), r.jobs.size(),
                  static_cast<long long>(r.unallocatable_jobs),
                  r.total_completion_time, r.simulated_seconds,
                  r.outage.OutageRate(), r.MeanRunningTime());
    EXPECT_EQ(line, pinned[i]) << "cell " << i;
  }
}

// fig7 at a reduced job count replays its decision stream bit-identically:
// two runs of the registry entry publish the same records in the same
// order, modulo the wall-clock stamps (ts_ns, stage latencies, worker tid).
TEST(ScenarioRun, Fig7DecisionStreamReplaysBitIdentically) {
  const Scenario* fig7 = FindScenario("fig7");
  ASSERT_NE(fig7, nullptr);
  Scenario reduced = *fig7;
  reduced.workload.num_jobs = 32;
  // One sweep value keeps the stream well inside the ring window.
  reduced.sweep.values.resize(1);

  const bool was_enabled = obs::DecisionsEnabled();
  obs::SetDecisionsEnabled(true);

  ScenarioRunOptions serial;
  serial.threads = 1;

  obs::ClearDecisions();
  util::Result<ScenarioRunResult> a = RunScenario(reduced, serial);
  ASSERT_TRUE(a) << a.status().ToText();
  const std::vector<obs::DecisionRecord> first = obs::CollectDecisions();

  obs::ClearDecisions();
  util::Result<ScenarioRunResult> b = RunScenario(reduced, serial);
  ASSERT_TRUE(b) << b.status().ToText();
  const std::vector<obs::DecisionRecord> second = obs::CollectDecisions();

  obs::ClearDecisions();
  obs::SetDecisionsEnabled(was_enabled);

  ASSERT_FALSE(first.empty());
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    SCOPED_TRACE("record " + std::to_string(i));
    const obs::DecisionRecord& x = first[i];
    const obs::DecisionRecord& y = second[i];
    EXPECT_EQ(x.tenant_id, y.tenant_id);
    EXPECT_EQ(x.outcome, y.outcome);
    EXPECT_EQ(x.path, y.path);
    EXPECT_EQ(x.shard, y.shard);
    EXPECT_EQ(x.epoch_delta, y.epoch_delta);
    EXPECT_STREQ(x.allocator, y.allocator);
    EXPECT_STREQ(x.reason, y.reason);
    ASSERT_EQ(x.num_links, y.num_links);
    for (int l = 0; l < x.num_links; ++l) {
      EXPECT_EQ(x.links[l].link, y.links[l].link);
      EXPECT_EQ(x.links[l].slack, y.links[l].slack);
    }
  }
}

TEST(ScenarioRun, FindCellLooksUpByLabelAndAxis) {
  const Scenario* fig7 = FindScenario("fig7");
  ASSERT_NE(fig7, nullptr);
  Scenario reduced = *fig7;
  reduced.workload.num_jobs = 24;
  reduced.sweep.values.resize(1);
  util::Result<ScenarioRunResult> result = RunScenario(reduced);
  ASSERT_TRUE(result) << result.status().ToText();
  ASSERT_FALSE(result->cells.empty());
  const ScenarioCell& cell = result->cells.front();
  EXPECT_EQ(FindCell(*result, cell.label, cell.axis_index), &cell);
  EXPECT_EQ(FindCell(*result, "no-such-variant", 0), nullptr);
}

TEST(ShapeArrivals, BatchAndPoissonAreNoOps) {
  std::vector<workload::JobSpec> jobs(4);
  for (size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].id = static_cast<int64_t>(i + 1);
    jobs[i].arrival_time = 100.0 * static_cast<double>(i);
  }
  std::vector<workload::JobSpec> original = jobs;

  ArrivalConfig arrivals;
  arrivals.mode = "batch";
  ShapeArrivals(arrivals, &jobs);
  arrivals.mode = "poisson";
  ShapeArrivals(arrivals, &jobs);
  ASSERT_EQ(jobs.size(), original.size());
  for (size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(jobs[i].id, original[i].id);
    EXPECT_EQ(jobs[i].arrival_time, original[i].arrival_time);
  }
}

TEST(ShapeArrivals, WarpsPreserveOrderPayloadAndDeterminism) {
  for (const char* mode : {"flash_crowd", "diurnal"}) {
    SCOPED_TRACE(mode);
    std::vector<workload::JobSpec> jobs(16);
    for (size_t i = 0; i < jobs.size(); ++i) {
      jobs[i].id = static_cast<int64_t>(i + 1);
      jobs[i].arrival_time = 250.0 * static_cast<double>(i);
    }
    ArrivalConfig arrivals;
    arrivals.mode = mode;

    std::vector<workload::JobSpec> warped = jobs;
    ShapeArrivals(arrivals, &warped);
    std::vector<workload::JobSpec> again = jobs;
    ShapeArrivals(arrivals, &again);

    ASSERT_EQ(warped.size(), jobs.size());
    for (size_t i = 0; i < warped.size(); ++i) {
      EXPECT_EQ(warped[i].id, jobs[i].id);  // payload/order preserved
      EXPECT_EQ(warped[i].arrival_time, again[i].arrival_time);  // pure
      if (i > 0) {
        EXPECT_GE(warped[i].arrival_time, warped[i - 1].arrival_time);
      }
    }
  }
}

}  // namespace
}  // namespace svc::sim

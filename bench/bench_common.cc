#include "bench_common.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <utility>

#include "obs/decision_log.h"
#include "obs/exporter.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "svc/homogeneous_search.h"
#include "util/strings.h"
#include "util/thread_pool.h"

namespace svc::bench {
namespace {

// Sink of the live ObsScope, attached to every engine RunBatch/RunOnline
// constructs while the scope exists.  Benches are single-ObsScope programs;
// concurrent sweep replicas share the sink (it is internally locked).
obs::TimeSeriesSink* g_active_series = nullptr;
double g_active_series_period = 100.0;

}  // namespace

CommonOptions::CommonOptions(util::FlagSet& flags)
    : racks_(flags.Int("racks", 50, "number of racks")),
      machines_per_rack_(
          flags.Int("machines-per-rack", 20, "machines per rack")),
      slots_(flags.Int("slots", 4, "VM slots per machine")),
      oversubscription_(flags.Double(
          "oversub", 2.0, "network oversubscription factor (paper default 2)")),
      jobs_(flags.Int("jobs", 300,
                      "tenant jobs per simulation (paper uses 500)")),
      mean_job_size_(flags.Double("mean-job-size", 49,
                                  "mean VMs per job (exponential)")),
      max_job_size_(flags.Int("max-job-size", 400, "job size clamp")),
      rate_menu_(flags.String(
          "rate-menu", "50,100,150,200,250",
          "mu_d menu in Mbps.  The paper's menu is 100..500, but with rho "
          "up to 1 that makes ~10% of jobs infeasible on 1 Gbps access "
          "links under EVERY abstraction (95th-pct demand up to 1.32 Gbps), "
          "contradicting the paper's near-zero low-load rejection; the "
          "halved default restores that regime (see EXPERIMENTS.md)")),
      epsilon_(flags.Double("epsilon", 0.05, "SVC risk factor epsilon")),
      seed_(flags.Int("seed", 42, "workload / simulation seed")),
      threads_(flags.Int("threads", 0,
                         "sweep worker threads (0 = all cores, 1 = serial); "
                         "results are identical for every value")),
      metrics_out_(flags.String(
          "metrics-out", "",
          "write a metrics + time-series JSONL snapshot here (enables the "
          "metrics registry for the run)")),
      trace_out_(flags.String(
          "trace-out", "",
          "write a Chrome trace-event JSON file here (open in Perfetto); "
          "enables span/counter tracing for the run")),
      series_period_(flags.Double(
          "series-period", 100.0,
          "simulated seconds between engine time-series samples when "
          "--metrics-out is set")),
      decisions_out_(flags.String(
          "decisions-out", "",
          "write per-admission decision-provenance records here (JSONL; "
          "enables decision logging for the run)")),
      flight_dir_(flags.String(
          "flight-dir", "",
          "arm the flight recorder: postmortem bundles (decision ring + "
          "metrics + trace) are dumped into this directory on faults, "
          "invariant failures, and SLO breaches")),
      flight_admit_slo_us_(flags.Double(
          "flight-admit-slo-us", 0.0,
          "mean admit latency (us) per SLO window that latches a "
          "flight-recorder dump (0 = off; needs --flight-dir)")),
      flight_reject_rate_(flags.Double(
          "flight-reject-rate", 0.0,
          "rejection rate per SLO window that latches a flight-recorder "
          "dump (0 = off; needs --flight-dir)")) {}

topology::ThreeTierConfig CommonOptions::TopologyConfig() const {
  topology::ThreeTierConfig config;
  config.racks = static_cast<int>(racks_);
  config.machines_per_rack = static_cast<int>(machines_per_rack_);
  config.slots_per_machine = static_cast<int>(slots_);
  config.racks_per_agg = static_cast<int>(std::max<int64_t>(1, racks_ / 5));
  config.oversubscription = oversubscription_;
  return config;
}

workload::WorkloadConfig CommonOptions::WorkloadConfig() const {
  workload::WorkloadConfig config;
  config.num_jobs = static_cast<int>(jobs_);
  config.mean_job_size = mean_job_size_;
  config.max_job_size = static_cast<int>(max_job_size_);
  config.rate_means = util::ParseDoubleList(rate_menu_);
  return config;
}

const core::Allocator& AllocatorFor(workload::Abstraction abstraction) {
  static const core::HomogeneousDpAllocator svc_dp;
  static const core::OktopusAllocator oktopus;
  return abstraction == workload::Abstraction::kSvc
             ? static_cast<const core::Allocator&>(svc_dp)
             : oktopus;
}

sim::BatchResult RunBatch(const topology::Topology& topo,
                          const std::vector<workload::JobSpec>& jobs,
                          workload::Abstraction abstraction,
                          const core::Allocator& allocator, double epsilon,
                          uint64_t seed) {
  sim::SimConfig config;
  config.abstraction = abstraction;
  config.allocator = &allocator;
  config.epsilon = epsilon;
  config.seed = seed;
  config.sample_occupancy = false;
  config.series = g_active_series;
  config.series_period = g_active_series_period;
  sim::Engine engine(topo, config);
  return engine.RunBatch(jobs);
}

sim::OnlineResult RunOnline(const topology::Topology& topo,
                            std::vector<workload::JobSpec> jobs,
                            workload::Abstraction abstraction,
                            const core::Allocator& allocator, double epsilon,
                            uint64_t seed) {
  sim::SimConfig config;
  config.abstraction = abstraction;
  config.allocator = &allocator;
  config.epsilon = epsilon;
  config.seed = seed;
  config.series = g_active_series;
  config.series_period = g_active_series_period;
  sim::Engine engine(topo, config);
  return engine.RunOnline(std::move(jobs));
}

namespace {
ObsOptions ToObsOptions(const CommonOptions& options) {
  ObsOptions obs;
  obs.metrics_out = options.metrics_out();
  obs.trace_out = options.trace_out();
  obs.series_period = options.series_period();
  obs.decisions_out = options.decisions_out();
  obs.flight_dir = options.flight_dir();
  obs.flight_admit_slo_us = options.flight_admit_slo_us();
  obs.flight_reject_rate = options.flight_reject_rate();
  return obs;
}
}  // namespace

ObsScope::ObsScope(const CommonOptions& options)
    : ObsScope(ToObsOptions(options)) {}

ObsScope::ObsScope(const ObsOptions& options)
    : metrics_out_(options.metrics_out),
      trace_out_(options.trace_out),
      decisions_out_(options.decisions_out),
      flight_(!options.flight_dir.empty()) {
  if (!metrics_out_.empty()) {
    obs::SetMetricsEnabled(true);
    g_active_series = &sink_;
    g_active_series_period = options.series_period;
  }
  if (!trace_out_.empty()) obs::SetTraceEnabled(true);
  if (!decisions_out_.empty()) obs::SetDecisionsEnabled(true);
  if (flight_) {
    obs::FlightRecorderConfig flight;
    flight.dir = options.flight_dir;
    flight.admit_latency_slo_us = options.flight_admit_slo_us;
    flight.rejection_rate_slo = options.flight_reject_rate;
    obs::FlightRecorder::Global().Configure(flight);
  }
}

ObsScope::~ObsScope() {
  if (!metrics_out_.empty()) {
    g_active_series = nullptr;
    std::string out = sink_.ToJsonl();
    if (!out.empty() && out.back() != '\n') out.push_back('\n');
    out += obs::Registry::Global().Collect().ToJsonl();
    WriteFile(metrics_out_, out);
  }
  if (!trace_out_.empty()) {
    WriteFile(trace_out_, obs::SerializeChromeTrace());
  }
  if (!decisions_out_.empty()) {
    std::string out;
    for (const obs::DecisionRecord& rec : obs::CollectDecisions()) {
      obs::AppendDecisionJson(out, rec);
      out.push_back('\n');
    }
    WriteFile(decisions_out_, out);
  }
  if (flight_) {
    // Flush an SLO breach latched in the run's tail, then disarm so a later
    // scope (or test) starts from a clean recorder.
    obs::FlightRecorder::Global().MaybeTriggerPending();
    obs::FlightRecorder::Global().Reset();
  }
}

void ApplyCommonOverrides(const CommonOptions& options,
                          sim::Scenario* scenario) {
  const topology::ThreeTierConfig topo = options.TopologyConfig();
  scenario->topology.racks = topo.racks;
  scenario->topology.machines_per_rack = topo.machines_per_rack;
  scenario->topology.slots_per_machine = topo.slots_per_machine;
  scenario->topology.racks_per_agg = topo.racks_per_agg;
  scenario->topology.oversubscription = topo.oversubscription;
  const workload::WorkloadConfig wconfig = options.WorkloadConfig();
  scenario->workload.num_jobs = wconfig.num_jobs;
  scenario->workload.mean_job_size = wconfig.mean_job_size;
  scenario->workload.max_job_size = wconfig.max_job_size;
  scenario->workload.rate_means = wconfig.rate_means;
  scenario->seed = options.seed();
}

sim::ScenarioRunResult RunScenarioOrDie(const sim::Scenario& scenario,
                                        const CommonOptions& options) {
  return RunScenarioOrDie(scenario, options.threads());
}

sim::ScenarioRunResult RunScenarioOrDie(const sim::Scenario& scenario,
                                        int threads) {
  sim::ScenarioRunOptions run;
  run.threads = threads;
  run.series = g_active_series;
  run.series_period = g_active_series_period;
  util::Result<sim::ScenarioRunResult> result =
      sim::RunScenario(scenario, run);
  if (!result) {
    std::fprintf(stderr, "scenario '%s': %s\n", scenario.name.c_str(),
                 result.status().ToText().c_str());
    std::exit(1);
  }
  return std::move(*result);
}

std::vector<double> RunCells(int threads,
                             std::vector<std::function<double()>> cells) {
  sim::SweepRunner runner(threads);
  return runner.Run(std::move(cells));
}

void EmitTable(const std::string& title, const util::Table& table, bool csv) {
  std::printf("=== %s ===\n%s\n", title.c_str(), table.ToText().c_str());
  if (csv) std::printf("--- csv ---\n%s\n", table.ToCsv().c_str());
}

void AddBenchmarksMember(util::JsonWriter& w,
                         const std::vector<BenchRecord>& records) {
  w.Key("benchmarks");
  w.BeginArray();
  for (const BenchRecord& record : records) {
    w.BeginObject();
    w.Member("name", record.name);
    w.Member("iterations", record.iterations);
    w.Member("real_ns_per_iter", record.real_ns_per_iter);
    w.Member("cpu_ns_per_iter", record.cpu_ns_per_iter);
    for (const auto& [key, value] : record.counters) w.Member(key, value);
    w.EndObject();
  }
  w.EndArray();
}

HostShape DetectHostShape(const std::string& sysfs_root) {
  HostShape shape;
  shape.cpus = util::ThreadPool::HardwareThreads();
  int nodes = 0;
  std::error_code ec;
  for (std::filesystem::directory_iterator it(
           std::filesystem::path(sysfs_root) / "devices/system/node", ec);
       !ec && it != std::filesystem::directory_iterator(); it.increment(ec)) {
    const std::string name = it->path().filename().string();
    if (name.size() > 4 && name.compare(0, 4, "node") == 0 &&
        name.find_first_not_of("0123456789", 4) == std::string::npos) {
      ++nodes;
    }
  }
  shape.nodes = std::max(nodes, 1);
  shape.summary = std::to_string(shape.nodes) + " nodes / " +
                  std::to_string(shape.cpus) + " cpus";
  return shape;
}

bool WriteFile(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  const size_t written = std::fwrite(content.data(), 1, content.size(), f);
  std::fclose(f);
  return written == content.size();
}

}  // namespace svc::bench

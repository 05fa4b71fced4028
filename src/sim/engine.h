// Time-stepped flow-level datacenter simulator (paper Section VI).
//
// Jobs occupy VM slots from allocation until max(Tc, Tn): Tc is the job's
// compute time, Tn the time its last flow finishes.  Every simulated second
// each task draws a fresh data-generation rate from N(mu_d, sigma_d^2)
// (rectified at 0); deterministic abstractions (mean-VC / percentile-VC)
// cap that rate at the reserved bandwidth (hypervisor rate limiting), SVC
// leaves it uncapped and the network's max-min fair sharing arbitrates —
// the "statistical sharing" the paper's framework relies on.
//
// Two scenarios:
//   RunBatch  — all jobs queued FIFO at t=0; whenever a job completes the
//               topmost job(s) that fit are started (paper VI-B1).
//   RunOnline — Poisson arrivals; a job that cannot be allocated at its
//               arrival instant is rejected (paper VI-B2).  Concurrency and
//               max-occupancy are sampled at every arrival.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "enforce/token_bucket.h"
#include "obs/time_series.h"
#include "sim/event_log.h"
#include "sim/fault_injector.h"
#include "sim/max_min.h"
#include "sim/metrics.h"
#include "stats/rng.h"
#include "svc/admission_pipeline.h"
#include "svc/allocator.h"
#include "svc/manager.h"
#include "topology/topology.h"
#include "workload/workload.h"

namespace svc::sim {

// How a job's tasks are paired into flows.  Every task is a source and a
// destination for exactly one flow (paper's workload model) — i.e. the
// pairing is a fixed-point-free permutation of the tasks.
enum class FlowPattern {
  // dst(i) drawn as a random derangement: the expected traffic crossing a
  // link that splits the job m / N-m is ~2*m*(N-m)/N * mu, which matches
  // the hose-model demand min(m, N-m)*mu the SVC reservation is based on.
  kRandomPermutation,
  // dst(i) = (i+1) mod N: a ring (pipeline-shaped jobs).  Only ~2 flows
  // cross any link under contiguous placement — far below the hose bound,
  // making the reservation very conservative for such jobs.
  kRing,
};

// How deterministic reservations are enforced at the hypervisor (see
// enforce/token_bucket.h).  SVC flows are never rate limited either way.
enum class Enforcement {
  kHardCap,      // idealized limiter: rate clipped at B every second
  kTokenBucket,  // realistic limiter: bursts above B ride on saved credit
};

struct SimConfig {
  workload::Abstraction abstraction = workload::Abstraction::kSvc;
  double epsilon = 0.05;           // SVC risk factor
  const core::Allocator* allocator = nullptr;  // required
  // Admission-wide policy knobs installed on the manager (survivable
  // admission etc., see core::AdmissionOptions).
  core::AdmissionOptions admission;
  double time_step = 1.0;          // seconds; the paper redraws rates at 1 s
  double max_seconds = 2e6;        // safety stop, flagged in the result log
  uint64_t seed = 1;
  // Concurrent admission pipeline (docs/CONCURRENCY.md): > 1 admits
  // same-instant arrival groups (RunOnline) and FIFO windows (RunBatch)
  // through core::AdmissionPipeline with that many speculation workers,
  // under the deterministic commit discipline — every decision, event, RNG
  // draw, and sample is bit-identical to the serial path (0 or 1).
  int admission_workers = 0;
  // Max FIFO window RunBatch hands the pipeline per admission round.
  int admission_window = 128;
  // Cross-window pipelining: RunBatch hands the pipeline up to
  // admission_window * admission_lookahead queued requests per AdmitBatch
  // call, with a commit-plane barrier every admission_window requests —
  // window N+1's speculation overlaps window N's commit drain.  1 = one
  // window per call (the PR-5 behavior).  Decisions are identical either
  // way (every barrier placement yields the serial decision sequence).
  int admission_lookahead = 1;
  // Aggregation-level commit shards for the pipeline (see
  // PipelineConfig::shards): 0 = unsharded; >= 1 installs a ShardMap on
  // the manager and runs per-shard commit workers when admission_workers
  // > 1.  Bit-identical to the serial path for any value.
  int admission_shards = 0;
  bool sample_occupancy = true;    // record MaxOccupancy at arrivals
  FlowPattern flow_pattern = FlowPattern::kRandomPermutation;
  // Count bandwidth outages: (link, second) pairs where offered demand
  // exceeded capacity, over (link, second) pairs carrying any demand.
  // This measures the paper's constraint (1) end to end.
  bool measure_outage = true;
  Enforcement enforcement = Enforcement::kHardCap;
  // Token-bucket depth as seconds of the reservation rate (B * this).
  double burst_seconds = 5.0;
  // Reserved percentile for Abstraction::kPercentileVc (paper: 0.95).
  double vc_quantile = 0.95;
  // Fault plane (RunOnline and RunBatch): seeded failure schedule +
  // recovery policy.  Horizon defaults to max_seconds when left 0.  Fault
  // events are applied before admissions at the same instant; fault events
  // mark the flow set dirty, so the steady-tick fast path never replays
  // stale rates across a capacity change.
  FaultConfig faults;
  // Optional structured event log (borrowed; must outlive the run).
  EventLog* events = nullptr;
  // Optional JSONL time-series sink (borrowed; must outlive the run).  Every
  // `series_period` simulated seconds the engine appends one sample line
  // with the active-job/flow counts, busy/outage link counts, the mean and
  // max offered link utilization of that tick (requires measure_outage),
  // and the ledger's max occupancy.  The sink may be shared by concurrent
  // sweep replicas; lines carry the engine's seed to tell streams apart.
  obs::TimeSeriesSink* series = nullptr;
  double series_period = 100.0;  // simulated seconds between samples
  // Cross-check the incremental Step() fast path (cached max-min rates and
  // outage counts) against a from-scratch recompute every tick.  Costs a
  // full re-solve per step, so it defaults to off except in Debug builds
  // (see the SVC_SIM_CHECK_INCREMENTAL define in the top-level CMakeLists).
#ifdef SVC_SIM_CHECK_INCREMENTAL
  bool check_incremental = true;
#else
  bool check_incremental = false;
#endif
};

class Engine {
 public:
  Engine(const topology::Topology& topo, SimConfig config);

  BatchResult RunBatch(const std::vector<workload::JobSpec>& jobs);
  OnlineResult RunOnline(std::vector<workload::JobSpec> jobs);

  const core::NetworkManager& manager() const { return manager_; }

 private:
  struct ActiveJob {
    workload::JobSpec spec;
    double start_time = 0;
    double compute_done = 0;
    int flows_left = 0;
    double last_flow_finish = 0;
  };

  // Per-flow state parallel to the SimFlow rate-allocation records.
  struct FlowMeta {
    int64_t job_id = 0;
    double remaining_mbits = 0;
    double rate_mean = 0;
    double rate_stddev = 0;
    double rate_cap = 0;
    enforce::TokenBucket bucket{0, 0};  // used when enforcement=kTokenBucket
    workload::RateDistribution distribution =
        workload::RateDistribution::kNormal;
    // Underlying-normal parameters when distribution == kLogNormal.
    double log_mu = 0;
    double log_sigma = 0;
    // Endpoint task indices + the flow's ECMP hash, kept so a recovered
    // tenant's flows can be re-pathed onto its new placement without any
    // fresh RNG draws (seed-stream stability under faults).
    int src_vm = 0;
    int dst_vm = 0;
    uint64_t ecmp_hash = 0;
  };

  // The admission request a job spec maps to under the configured
  // abstraction (pure; shared by the serial and pipelined admit paths).
  core::Request MakeRequest(const workload::JobSpec& spec) const;

  // Attempts admission; on success registers flows and the active record.
  bool TryStart(const workload::JobSpec& spec, double now);

  // Second half of TryStart, shared with the pipeline's decision callback:
  // consumes an admission decision — on success registers the flows (all
  // RNG draws happen here, in decision order) and the active record; on
  // failure logs allocator inconsistencies.  Returns result.ok().
  bool FinishStart(const workload::JobSpec& spec, double now,
                   util::Result<core::Placement>& result);

  // True if the job could not be placed even on an empty datacenter (e.g.
  // per-VM effective demand above the machine link): such jobs can never
  // run and must not block the FIFO queue until the fabric drains.
  bool UnallocatableEvenEmpty(const workload::JobSpec& spec);

  // Advances one time step; returns ids of jobs that completed at `now+dt`.
  void Step(double now, std::vector<int64_t>& completed);

  // Asserts that the current flow rates equal a from-scratch max-min solve
  // (SimConfig.check_incremental).
  void CheckIncrementalRates();

  // Applies every scheduled fault/recovery event with time <= now: drives
  // the manager's HandleFault/HandleRecovery, drains/restores the cable
  // capacities the max-min solver sees, re-paths the flows of recovered
  // tenants, and drops the flows and active records of evicted jobs.
  // Accounting lands in the fault accumulator members (both run modes
  // share this path).  Returns true iff any event applied — capacity
  // changed, so queued FIFO admissions are worth retrying.
  bool ApplyFaultEvents(double now);

  // Drains (up=false) or restores (up=true) every cable of vertex's uplink.
  void SetUplinkCables(topology::VertexId vertex, bool up);

  // Removes all sim-side state of an evicted job (flows, active record).
  void EvictJob(int64_t job_id, double now);

  const topology::Topology* topo_;
  SimConfig config_;
  core::NetworkManager manager_;
  // Pristine state used only for UnallocatableEvenEmpty checks.
  core::NetworkManager empty_manager_;
  // Non-null iff config_.admission_workers > 1 (deterministic discipline).
  std::unique_ptr<core::AdmissionPipeline> pipeline_;
  MaxMinScratch scratch_;
  std::vector<double> capacity_;  // uplink capacity per vertex
  stats::Rng rng_;

  std::vector<SimFlow> flows_;
  std::vector<FlowMeta> meta_;
  std::unordered_map<int64_t, ActiveJob> active_;

  std::vector<int> placement_levels_;  // locality of accepted placements

  // Outage accounting totals (see SimConfig.measure_outage).
  int64_t outage_link_seconds_ = 0;
  int64_t busy_link_seconds_ = 0;

  // Incremental-step state: when the flow set and every desired rate are
  // unchanged since the previous tick, the max-min rates and the per-tick
  // outage counts are unchanged too, so Step() reuses them instead of
  // re-solving (the steady-state fast path).
  bool flows_dirty_ = true;          // flows added/removed since last solve
  int64_t cached_busy_links_ = 0;    // loaded links in the last outage pass
  int64_t cached_outage_links_ = 0;  // over-capacity links in that pass
  std::vector<SimFlow> check_flows_;  // scratch for CheckIncrementalRates
  // The tick's standard normal draws (one per flow) and their scratch.
  std::vector<double> normals_;
  std::vector<double> normal_scratch_;

  // Fault-plane state (RunOnline): the pre-built schedule, a cursor into
  // it, and whether any element is currently down (failure epoch — outage
  // accounting is split on this flag).
  std::vector<FaultEvent> fault_schedule_;
  size_t next_fault_ = 0;
  bool failure_epoch_ = false;
  int64_t failure_outage_link_seconds_ = 0;
  int64_t failure_busy_link_seconds_ = 0;
  // Fault accounting shared by RunOnline and RunBatch (copied into the
  // result record when the run finishes).
  int64_t faults_injected_ = 0;
  int64_t fault_recoveries_ = 0;
  int64_t tenants_affected_ = 0;
  int64_t tenants_recovered_ = 0;
  int64_t tenants_evicted_ = 0;
  int64_t tenants_switched_ = 0;
  int64_t planned_drains_ = 0;
  int64_t tenants_migrated_ = 0;
  std::vector<double> recovery_latency_us_;

  // Re-paths every flow of `job_id` onto the tenant's current placement
  // with the original ECMP hashes (no fresh RNG draws).
  void RepathJob(int64_t job_id);

  // Time-series sampler state (SimConfig.series): utilization aggregates of
  // the last non-steady outage pass, replayed on steady ticks.
  double next_sample_time_ = 0;
  double cached_util_sum_ = 0;
  double cached_util_max_ = 0;

  // Appends one JSONL sample to config_.series (call once per period).
  void AppendSeriesSample(double now);
};

}  // namespace svc::sim

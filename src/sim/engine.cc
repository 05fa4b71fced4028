#include "sim/engine.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <cstdio>

#include "obs/exporter.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stats/lognormal.h"
#include "svc/scratch_arena.h"
#include "svc/survivable.h"
#include "util/logging.h"

namespace svc::sim {

Engine::Engine(const topology::Topology& topo, SimConfig config)
    : topo_(&topo),
      config_(config),
      manager_(topo, config.epsilon),
      empty_manager_(topo, config.epsilon),
      scratch_(topo.directed_cable_slots()),
      rng_(config.seed) {
  assert(config_.allocator != nullptr && "SimConfig.allocator is required");
  assert(config_.time_step > 0);
  manager_.set_admission_options(config_.admission);
  empty_manager_.set_admission_options(config_.admission);
  if (config_.admission_workers > 1) {
    core::PipelineConfig pipeline;
    pipeline.workers = config_.admission_workers;
    pipeline.shards = config_.admission_shards;
    pipeline_ =
        std::make_unique<core::AdmissionPipeline>(manager_, pipeline);
  }
  // Full-duplex links, one capacity slot per cable and direction; on
  // untrunked fabrics each link simply has one cable per direction.
  topo.FillCableCapacities(capacity_);
}

core::Request Engine::MakeRequest(const workload::JobSpec& spec) const {
  return workload::MakeRequest(spec, config_.abstraction,
                               config_.vc_quantile);
}

bool Engine::UnallocatableEvenEmpty(const workload::JobSpec& spec) {
  const core::Request request = MakeRequest(spec);
  util::Result<core::Placement> placed = config_.allocator->Allocate(
      request, empty_manager_.ledger(), empty_manager_.slots());
  if (!placed) return true;
  if (config_.admission.survivability) {
    // Survivable admission also needs a backup group; a job whose backup
    // cannot fit even in an empty datacenter can never be admitted either.
    return !core::PlanBackup(*topo_, request, *std::move(placed),
                             empty_manager_.ledger(), empty_manager_.slots())
                .ok();
  }
  return false;
}

bool Engine::TryStart(const workload::JobSpec& spec, double now) {
  util::Result<core::Placement> result =
      manager_.Admit(MakeRequest(spec), *config_.allocator);
  return FinishStart(spec, now, result);
}

bool Engine::FinishStart(const workload::JobSpec& spec, double now,
                         util::Result<core::Placement>& result) {
  if (!result) {
    if (result.status().code() == util::ErrorCode::kFailedPrecondition) {
      // An allocator bug, not a capacity condition — fail loudly.  This may
      // run inside a pipeline decision callback (workers still recording),
      // so the flight-recorder dump is latched, not taken inline.
      SVC_LOG(Error) << "admission inconsistency: " << result.status().ToText();
      char detail[96];
      std::snprintf(detail, sizeof detail, "job=%lld",
                    static_cast<long long>(spec.id));
      obs::FlightRecorder::Global().LatchTrigger("admission-inconsistency",
                                                 detail);
    }
    return false;
  }
  core::Placement& placement = *result;
  if (placement.subtree_root != topology::kNoVertex) {
    placement_levels_.push_back(topo_->level(placement.subtree_root));
  }

  ActiveJob job;
  job.spec = spec;
  job.start_time = now;
  job.compute_done = now + spec.compute_time;
  job.last_flow_finish = now;
  const double cap = workload::RateCap(spec, config_.abstraction, config_.vc_quantile);

  // One flow per task; every task is a source and a destination for exactly
  // one flow (paper's workload model), i.e. dst is a fixed-point-free
  // permutation of the tasks.
  std::vector<int> dst_of(spec.size);
  if (spec.size > 1) {
    if (config_.flow_pattern == FlowPattern::kRing) {
      for (int i = 0; i < spec.size; ++i) dst_of[i] = (i + 1) % spec.size;
    } else {
      // Random derangement: shuffle, then use the cyclic structure of the
      // shuffled order (i -> next in shuffled sequence), which has no fixed
      // points and is exactly one big cycle over a random order.
      std::vector<int> order(spec.size);
      for (int i = 0; i < spec.size; ++i) order[i] = i;
      for (int i = spec.size - 1; i > 0; --i) {
        const int j = static_cast<int>(rng_.UniformInt(0, i));
        std::swap(order[i], order[j]);
      }
      for (int i = 0; i < spec.size; ++i) {
        dst_of[order[i]] = order[(i + 1) % spec.size];
      }
    }
  }
  if (spec.size > 1) {
    for (int i = 0; i < spec.size; ++i) {
      const topology::VertexId src = placement.vm_machine[i];
      const topology::VertexId dst = placement.vm_machine[dst_of[i]];
      SimFlow flow;
      // Per-flow ECMP: one hash pins the flow to a cable on every trunk.
      const uint64_t ecmp_hash = rng_.NextU64();
      topo_->PathCablesDirected(src, dst, ecmp_hash, flow.links);
      flows_.push_back(std::move(flow));
      // Heterogeneous jobs: the source task's own distribution drives the
      // per-second generation-rate draws.
      const double rate_mean = spec.vm_demands.empty()
                                   ? spec.rate_mean
                                   : spec.vm_demands[i].mean;
      const double rate_stddev = spec.vm_demands.empty()
                                     ? spec.rate_stddev
                                     : spec.vm_demands[i].stddev();
      FlowMeta meta{spec.id, spec.flow_mbits, rate_mean, rate_stddev, cap,
                    enforce::TokenBucket{0, 0}};
      if (config_.enforcement == Enforcement::kTokenBucket &&
          std::isfinite(cap)) {
        meta.bucket = enforce::TokenBucket(cap, cap * config_.burst_seconds);
      }
      meta.src_vm = i;
      meta.dst_vm = dst_of[i];
      meta.ecmp_hash = ecmp_hash;
      meta.distribution = spec.rate_distribution;
      if (meta.distribution == workload::RateDistribution::kLogNormal &&
          rate_stddev > 0 && rate_mean > 0) {
        const stats::LogNormal lognormal = stats::LogNormal::FromMeanVariance(
            rate_mean, rate_stddev * rate_stddev);
        meta.log_mu = lognormal.mu_log();
        meta.log_sigma = lognormal.sigma_log();
      } else {
        meta.distribution = workload::RateDistribution::kNormal;
      }
      meta_.push_back(std::move(meta));
      ++job.flows_left;
    }
    flows_dirty_ = true;
  }
  active_.emplace(spec.id, std::move(job));
  // The manager keeps its own copy of the placement; hand this one's
  // buffer back to the allocator's recycling pool.
  core::RecycleVmBuffer(std::move(placement.vm_machine));
  if (config_.events != nullptr) {
    config_.events->Record(now, EventKind::kAdmit, spec.id);
  }
  return true;
}

void Engine::CheckIncrementalRates() {
  // From-scratch solve on a cold scratch over a copy of the flows; the
  // incremental path must agree bit for bit.
  check_flows_ = flows_;
  MaxMinScratch fresh(static_cast<int>(capacity_.size()));
  fresh.Allocate(check_flows_, capacity_);
  for (size_t f = 0; f < flows_.size(); ++f) {
    if (flows_[f].rate != check_flows_[f].rate) {
      SVC_LOG(Error) << "incremental max-min mismatch on flow " << f << ": "
                     << flows_[f].rate << " vs " << check_flows_[f].rate;
      assert(false && "incremental max-min diverged from full recompute");
    }
  }
}

void Engine::AppendSeriesSample(double now) {
  const int64_t busy = cached_busy_links_;
  const double util_mean =
      busy > 0 ? cached_util_sum_ / static_cast<double>(busy) : 0.0;
  char line[320];
  std::snprintf(
      line, sizeof line,
      "{\"type\":\"sample\",\"t\":%.17g,\"seed\":%llu,\"active_jobs\":%zu,"
      "\"flows\":%zu,\"busy_links\":%lld,\"outage_links\":%lld,"
      "\"util_mean\":%.17g,\"util_max\":%.17g,\"max_occupancy\":%.17g}",
      now, static_cast<unsigned long long>(config_.seed), active_.size(),
      flows_.size(), static_cast<long long>(busy),
      static_cast<long long>(cached_outage_links_), util_mean,
      cached_util_max_, manager_.MaxOccupancy());
  config_.series->Append(line);
}

void Engine::Step(double now, std::vector<int64_t>& completed) {
  SVC_TRACE_SPAN("engine/step");
  const double dt = config_.time_step;
  const double end = now + dt;

  // Redraw per-source generation rates and apply hypervisor rate limiting.
  // The draws happen every tick (the RNG stream must not depend on the
  // fast path below), but a bit-identical redraw — common under hard-cap
  // enforcement of deterministic reservations, where the cap binds — means
  // the previous max-min solution is still exact.
  const bool token_bucket =
      config_.enforcement == Enforcement::kTokenBucket;
  // The tick's standard normals first, one per flow in flow order: the
  // same values per-flow Normal() calls would draw.
  const size_t n = flows_.size();
  if (normals_.size() < n) normals_.resize(n);
  rng_.FillStandardNormal(normals_.data(), n, normal_scratch_);
  bool desires_changed = false;
  for (size_t f = 0; f < n; ++f) {
    FlowMeta& m = meta_[f];
    const double z = normals_[f];
    const double draw =
        m.distribution == workload::RateDistribution::kLogNormal
            ? std::exp(m.log_mu + m.log_sigma * z)
            : std::max(0.0, m.rate_mean + m.rate_stddev * z);
    double desired;
    if (token_bucket && std::isfinite(m.rate_cap)) {
      desired = m.bucket.Admit(draw, dt);
    } else {
      desired = std::min(draw, m.rate_cap);
    }
    if (desired != flows_[f].desired) {
      flows_[f].desired = desired;
      desires_changed = true;
    }
  }

  // Steady state: same flows, same desires — the offered loads, the outage
  // verdicts, and the max-min rates of the previous tick all still hold.
  const bool steady = !flows_dirty_ && !desires_changed;

  if (steady) {
    SVC_METRIC_INC("engine/steady_ticks");
  } else {
    SVC_METRIC_INC("engine/solve_ticks");
    SVC_METRIC_HIST("engine/flows", static_cast<double>(flows_.size()));
    scratch_.Allocate(flows_, capacity_, flows_dirty_);
  }

  if (config_.measure_outage) {
    if (steady) {
      busy_link_seconds_ += cached_busy_links_;
      outage_link_seconds_ += cached_outage_links_;
    } else {
      // A bandwidth outage (paper constraint (1)) is a loaded link whose
      // offered demand exceeds its capacity this second.  The solve just
      // summed every link's offered load.
      const bool metrics = obs::MetricsEnabled();
      const bool want_util = metrics || config_.series != nullptr;
      cached_busy_links_ = 0;
      cached_outage_links_ = 0;
      cached_util_sum_ = 0;
      cached_util_max_ = 0;
      if (scratch_.uncongested() && !want_util) {
        // Every active link carries at most C(1 - 1e-9), so none exceeds
        // C(1 + 1e-9): all are busy and none is in outage.
        cached_busy_links_ =
            static_cast<int64_t>(scratch_.active_links().size());
      } else {
        for (topology::VertexId link : scratch_.active_links()) {
          const double offered = scratch_.offered_load(link);
          ++cached_busy_links_;
          if (offered > capacity_[link] * (1 + 1e-9)) {
            ++cached_outage_links_;
          }
          // Offered utilization of the loaded link this second (may exceed
          // 1 when the link is in outage; max-min then throttles the flows).
          if (want_util && capacity_[link] > 0) {
            const double util = offered / capacity_[link];
            cached_util_sum_ += util;
            cached_util_max_ = std::max(cached_util_max_, util);
            if (metrics) {
              SVC_METRIC_HIST("engine/link_utilization", util);
            }
          }
        }
      }
      busy_link_seconds_ += cached_busy_links_;
      outage_link_seconds_ += cached_outage_links_;
    }
    // Epoch split: ticks with any element down are charged to the failure
    // bucket too, so steady-epoch outage (where epsilon must still hold)
    // can be reported separately from outage caused by the faults
    // themselves.
    if (failure_epoch_) {
      failure_busy_link_seconds_ += cached_busy_links_;
      failure_outage_link_seconds_ += cached_outage_links_;
    }
  }

  if (config_.series != nullptr && now >= next_sample_time_) {
    next_sample_time_ = now + config_.series_period;
    AppendSeriesSample(now);
  }
  if (config_.check_incremental) CheckIncrementalRates();
  flows_dirty_ = false;

  // Progress transfers; swap-erase finished flows.
  for (size_t f = 0; f < flows_.size();) {
    meta_[f].remaining_mbits -= flows_[f].rate * dt;
    if (meta_[f].remaining_mbits <= 1e-9) {
      ActiveJob& job = active_.at(meta_[f].job_id);
      --job.flows_left;
      job.last_flow_finish = end;
      if (job.flows_left == 0 && config_.events != nullptr) {
        config_.events->Record(end, EventKind::kNetworkDone,
                               meta_[f].job_id);
      }
      flows_[f] = std::move(flows_.back());
      flows_.pop_back();
      meta_[f] = meta_.back();
      meta_.pop_back();
      flows_dirty_ = true;
    } else {
      ++f;
    }
  }

  // Completions: network done and compute done.
  for (auto it = active_.begin(); it != active_.end();) {
    const ActiveJob& job = it->second;
    if (job.flows_left == 0 && end >= job.compute_done - 1e-9) {
      completed.push_back(it->first);
      if (config_.events != nullptr) {
        config_.events->Record(end, EventKind::kComplete, it->first);
      }
      it = active_.erase(it);
    } else {
      ++it;
    }
  }
}

void Engine::SetUplinkCables(topology::VertexId vertex, bool up) {
  const int width = topo_->trunk_width(vertex);
  const double cap = up ? topo_->cable_capacity(vertex) : 0.0;
  for (int cable = 0; cable < width; ++cable) {
    capacity_[topo_->DirectedCableSlot(vertex, true, cable)] = cap;
    capacity_[topo_->DirectedCableSlot(vertex, false, cable)] = cap;
  }
}

void Engine::EvictJob(int64_t job_id, double now) {
  for (size_t f = 0; f < flows_.size();) {
    if (meta_[f].job_id == job_id) {
      flows_[f] = std::move(flows_.back());
      flows_.pop_back();
      meta_[f] = meta_.back();
      meta_.pop_back();
    } else {
      ++f;
    }
  }
  active_.erase(job_id);
  if (config_.events != nullptr) {
    config_.events->Record(now, EventKind::kEvict, job_id);
  }
}

void Engine::RepathJob(int64_t job_id) {
  const core::Placement* placement = manager_.placement_of(job_id);
  assert(placement != nullptr);
  // Re-path the tenant's flows onto the current placement with their
  // original ECMP hashes: no fresh RNG draws, so the seed stream (and
  // everything downstream) is fault-schedule-stable.
  for (size_t f = 0; f < flows_.size(); ++f) {
    if (meta_[f].job_id != job_id) continue;
    flows_[f].links.clear();
    topo_->PathCablesDirected(placement->vm_machine[meta_[f].src_vm],
                              placement->vm_machine[meta_[f].dst_vm],
                              meta_[f].ecmp_hash, flows_[f].links);
  }
}

bool Engine::ApplyFaultEvents(double now) {
  bool applied = false;
  while (next_fault_ < fault_schedule_.size() &&
         fault_schedule_[next_fault_].time <= now) {
    const FaultEvent event = fault_schedule_[next_fault_++];
    if (event.fail && event.drain) {
      // Planned drain: migrate the machine's tenants off (switchover
      // preferred) BEFORE the teardown below takes it down.  Tenants the
      // drain could not move are restored in place and handled reactively
      // by the machine failure that follows.
      util::Result<core::FaultOutcome> drained =
          manager_.DrainMachine(event.vertex, *config_.allocator);
      if (drained) {
        ++planned_drains_;
        for (const core::TenantOutcome& tenant : drained->tenants) {
          if (!tenant.recovered) continue;
          ++tenants_migrated_;
          if (tenant.switched_over) ++tenants_switched_;
          RepathJob(tenant.id);
        }
        if (!drained->tenants.empty()) flows_dirty_ = true;
      } else {
        SVC_LOG(Warning) << "drain event at t=" << event.time
                         << " skipped: " << drained.status().ToText();
      }
    }
    if (event.fail) {
      const auto start = std::chrono::steady_clock::now();
      util::Result<core::FaultOutcome> outcome = manager_.HandleFault(
          event.kind, event.vertex, config_.faults.policy,
          *config_.allocator);
      if (!outcome) {
        // Scripted schedules may name an element the random schedule
        // already took down; skipping keeps the run going.
        SVC_LOG(Warning) << "fault event at t=" << event.time
                         << " skipped: " << outcome.status().ToText();
        continue;
      }
      recovery_latency_us_.push_back(
          std::chrono::duration<double, std::micro>(
              std::chrono::steady_clock::now() - start)
              .count());
      ++faults_injected_;
      tenants_affected_ += static_cast<int64_t>(outcome->tenants.size());
      SetUplinkCables(event.vertex, false);
      if (config_.events != nullptr) {
        config_.events->Record(now, EventKind::kFault, event.vertex);
      }
      for (const core::TenantOutcome& tenant : outcome->tenants) {
        if (tenant.recovered) {
          ++tenants_recovered_;
          if (tenant.switched_over) ++tenants_switched_;
          RepathJob(tenant.id);
        } else {
          ++tenants_evicted_;
          EvictJob(tenant.id, now);
        }
      }
    } else {
      const util::Status status = manager_.HandleRecovery(event.vertex);
      if (!status.ok()) {
        SVC_LOG(Warning) << "recovery event at t=" << event.time
                         << " skipped: " << status.ToText();
        continue;
      }
      ++fault_recoveries_;
      SetUplinkCables(event.vertex, true);
      if (config_.events != nullptr) {
        config_.events->Record(now, EventKind::kRecover, event.vertex);
      }
    }
    // Any applied event changes link capacities: invalidate the cached
    // max-min solution (the steady fast path must not replay stale rates)
    // and re-evaluate which epoch the following ticks belong to.
    applied = true;
    flows_dirty_ = true;
    failure_epoch_ = !manager_.Faults().empty();
  }
  return applied;
}

BatchResult Engine::RunBatch(const std::vector<workload::JobSpec>& jobs) {
  BatchResult result;
  std::deque<workload::JobSpec> queue(jobs.begin(), jobs.end());

  if (config_.faults.enabled()) {
    FaultConfig faults = config_.faults;
    if (faults.horizon_seconds <= 0) {
      faults.horizon_seconds = config_.max_seconds;
    }
    fault_schedule_ = BuildFaultSchedule(*topo_, faults);
  }
  next_fault_ = 0;
  failure_epoch_ = false;

  double now = 0;
  std::unordered_map<int64_t, double> start_times;
  // Strict-FIFO admission of the queue head(s).  With the pipeline on,
  // whole windows are speculated concurrently and committed in FIFO order
  // with stop_on_failure, which is exactly the serial head-by-head rule.
  auto admit_fifo = [&] {
    while (!queue.empty()) {
      if (pipeline_ != nullptr && queue.size() > 1) {
        const size_t window =
            static_cast<size_t>(std::max(config_.admission_window, 1));
        const size_t lookahead =
            static_cast<size_t>(std::max(config_.admission_lookahead, 1));
        // Cross-window pipelining: hand up to `lookahead` windows in one
        // AdmitBatch call; the pipeline drains its commit plane at every
        // window boundary while speculation for the next window runs on.
        const size_t span = std::min(queue.size(), window * lookahead);
        std::vector<core::Request> requests;
        requests.reserve(span);
        for (size_t i = 0; i < span; ++i) {
          requests.push_back(MakeRequest(queue[i]));
        }
        size_t committed = 0;
        pipeline_->AdmitBatch(
            requests, *config_.allocator, /*stop_on_failure=*/true,
            [&](size_t i, util::Result<core::Placement>& r) {
              if (FinishStart(queue[i], now, r)) {
                start_times[queue[i].id] = now;
                ++committed;
              }
            },
            span > window ? static_cast<int>(window) : 0);
        // stop_on_failure commits exactly the FIFO prefix that fits.
        queue.erase(queue.begin(),
                    queue.begin() + static_cast<ptrdiff_t>(committed));
        if (committed == span) continue;  // whole span admitted
      } else {
        if (TryStart(queue.front(), now)) {
          start_times[queue.front().id] = now;
          queue.pop_front();
          continue;
        }
      }
      if (UnallocatableEvenEmpty(queue.front())) {
        if (config_.events != nullptr) {
          config_.events->Record(now, EventKind::kSkipUnallocatable,
                                 queue.front().id);
        }
        // The head job cannot fit even in an empty datacenter; skip it
        // immediately so it neither deadlocks the batch nor stalls the
        // FIFO queue until the fabric drains.
        SVC_LOG(Debug) << "job " << queue.front().id
                       << " unallocatable on an empty datacenter; skipped";
        ++result.unallocatable_jobs;
        queue.pop_front();
        continue;
      }
      break;  // strict FIFO: wait for completions (or a recovery)
    }
  };

  // Faults precede admissions at the same instant, as in RunOnline.
  ApplyFaultEvents(now);
  admit_fifo();
  // Quiesced here and at every loop bottom: AdmitBatch is synchronous, so
  // an SLO breach latched mid-batch dumps with no speculation in flight.
  obs::FlightRecorder::Global().MaybeTriggerPending();
  std::vector<int64_t> completed;
  while (!active_.empty() || !queue.empty()) {
    if (now >= config_.max_seconds) {
      SVC_LOG(Error) << "batch simulation hit the max_seconds safety stop at "
                     << now;
      break;
    }
    if (active_.empty()) {
      // Queue blocked with nothing running: only a scheduled recovery (or
      // an eviction by a later fault — it frees capacity too) can change
      // the verdict, so jump straight to the next fault event.
      if (next_fault_ >= fault_schedule_.size()) break;
      now = std::max(now, fault_schedule_[next_fault_].time);
      ApplyFaultEvents(now);
      admit_fifo();
      continue;
    }
    completed.clear();
    Step(now, completed);
    now += config_.time_step;
    const bool capacity_changed = ApplyFaultEvents(now);
    if (!completed.empty()) {
      for (int64_t id : completed) {
        manager_.Release(id);
        JobRecord record;
        record.id = id;
        record.arrival_time = 0;
        record.start_time = start_times.at(id);
        record.finish_time = now;
        result.jobs.push_back(record);
        result.total_completion_time = now;
      }
    }
    if (!completed.empty() || capacity_changed) admit_fifo();
    obs::FlightRecorder::Global().MaybeTriggerPending();
  }
  obs::FlightRecorder::Global().MaybeTriggerPending();
  result.simulated_seconds = now;
  result.outage = {outage_link_seconds_, busy_link_seconds_};
  result.failure_outage = {failure_outage_link_seconds_,
                           failure_busy_link_seconds_};
  result.placement_levels = placement_levels_;
  result.faults_injected = faults_injected_;
  result.fault_recoveries = fault_recoveries_;
  result.tenants_affected = tenants_affected_;
  result.tenants_recovered = tenants_recovered_;
  result.tenants_evicted = tenants_evicted_;
  result.tenants_switched = tenants_switched_;
  result.planned_drains = planned_drains_;
  result.tenants_migrated = tenants_migrated_;
  result.recovery_latency_us = std::move(recovery_latency_us_);
  return result;
}

OnlineResult Engine::RunOnline(std::vector<workload::JobSpec> jobs) {
  std::sort(jobs.begin(), jobs.end(),
            [](const auto& lhs, const auto& rhs) {
              return lhs.arrival_time < rhs.arrival_time;
            });
  OnlineResult result;
  size_t next = 0;
  double now = 0;
  std::vector<int64_t> completed;
  std::unordered_map<int64_t, double> start_times;
  std::unordered_map<int64_t, double> arrival_times;

  if (config_.faults.enabled()) {
    FaultConfig faults = config_.faults;
    if (faults.horizon_seconds <= 0) {
      faults.horizon_seconds = config_.max_seconds;
    }
    fault_schedule_ = BuildFaultSchedule(*topo_, faults);
  }
  next_fault_ = 0;
  failure_epoch_ = false;

  while (next < jobs.size() || !active_.empty()) {
    if (now >= config_.max_seconds) {
      SVC_LOG(Error) << "online simulation hit the max_seconds safety stop";
      break;
    }
    // Faults precede arrivals at the same instant: an arrival at the fault
    // time already sees the degraded datacenter.
    ApplyFaultEvents(now);
    // Per-arrival bookkeeping, in arrival order: the admission decision,
    // then the samples the paper takes at every arrival.
    auto settle = [&](const workload::JobSpec& spec,
                      util::Result<core::Placement>& admitted) {
      if (config_.events != nullptr) {
        config_.events->Record(spec.arrival_time, EventKind::kArrival,
                               spec.id);
      }
      if (FinishStart(spec, now, admitted)) {
        ++result.accepted;
        start_times[spec.id] = now;
        arrival_times[spec.id] = spec.arrival_time;
      } else {
        ++result.rejected;
        if (config_.events != nullptr) {
          config_.events->Record(now, EventKind::kReject, spec.id);
        }
      }
      result.concurrency_samples.push_back(
          static_cast<int>(active_.size()));
      if (config_.sample_occupancy) {
        result.max_occupancy_samples.push_back(manager_.MaxOccupancy());
        if (config_.admission.survivability) {
          result.backup_share_samples.push_back(
              manager_.ledger().MaxBackupShare());
        }
      }
    };
    size_t group_end = next;
    while (group_end < jobs.size() && jobs[group_end].arrival_time <= now) {
      ++group_end;
    }
    if (pipeline_ != nullptr && group_end - next > 1) {
      // The arrivals due this instant are admitted as one pipeline batch;
      // the deterministic discipline settles them in arrival order with
      // decisions identical to the serial loop below.
      std::vector<core::Request> requests;
      requests.reserve(group_end - next);
      for (size_t j = next; j < group_end; ++j) {
        requests.push_back(MakeRequest(jobs[j]));
      }
      pipeline_->AdmitBatch(requests, *config_.allocator,
                            /*stop_on_failure=*/false,
                            [&](size_t i, util::Result<core::Placement>& r) {
                              settle(jobs[next + i], r);
                            });
      next = group_end;
    } else {
      while (next < group_end) {
        util::Result<core::Placement> admitted =
            manager_.Admit(MakeRequest(jobs[next]), *config_.allocator);
        settle(jobs[next], admitted);
        ++next;
      }
    }
    // The admission group settled (AdmitBatch is synchronous), so a latched
    // SLO breach or inconsistency dumps here with the pipeline drained.
    obs::FlightRecorder::Global().MaybeTriggerPending();
    if (active_.empty()) {
      // Idle period: jump to the next arrival instead of stepping through
      // empty seconds.
      if (next < jobs.size()) {
        now = std::max(now, jobs[next].arrival_time);
        continue;
      }
      break;
    }
    completed.clear();
    Step(now, completed);
    now += config_.time_step;
    for (int64_t id : completed) {
      manager_.Release(id);
      JobRecord record;
      record.id = id;
      record.arrival_time = arrival_times.at(id);
      record.start_time = start_times.at(id);
      record.finish_time = now;
      result.jobs.push_back(record);
    }
  }
  obs::FlightRecorder::Global().MaybeTriggerPending();
  result.simulated_seconds = now;
  result.outage = {outage_link_seconds_, busy_link_seconds_};
  result.failure_outage = {failure_outage_link_seconds_,
                           failure_busy_link_seconds_};
  result.placement_levels = placement_levels_;
  result.faults_injected = faults_injected_;
  result.fault_recoveries = fault_recoveries_;
  result.tenants_affected = tenants_affected_;
  result.tenants_recovered = tenants_recovered_;
  result.tenants_evicted = tenants_evicted_;
  result.tenants_switched = tenants_switched_;
  result.planned_drains = planned_drains_;
  result.tenants_migrated = tenants_migrated_;
  result.recovery_latency_us = std::move(recovery_latency_us_);
  return result;
}

}  // namespace svc::sim

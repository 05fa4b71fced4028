// Decision provenance: a zero-alloc, per-thread ring of fixed-size
// DecisionRecords answering "why was this tenant admitted / rejected /
// evicted, which links were binding, and which commit path did it take".
//
// The paper's whole contribution is a per-request admission decision —
// condition (4) says *this* tenant fits on *these* links with *this much*
// stochastic slack — and once admission is a sharded, speculative,
// multi-worker pipeline (docs/CONCURRENCY.md) the decision's provenance
// spans several threads: a speculation worker runs the allocator against an
// epoch snapshot, the sequencer validates and routes, a shard worker may
// apply the rows.  One DecisionRecord folds that whole story into 160
// fixed bytes: outcome + reason, the commit path taken, the snapshot-to-
// commit epoch delta, the top-k binding links with their condition-(4)
// occupancy slack at commit time, and a stage-latency breakdown measured
// on whichever thread ran each stage.
//
// Design mirrors the metrics/trace layers (docs/OBSERVABILITY.md):
//
//   * Write path: RecordDecision() copies one POD record into the calling
//     thread's pre-sized ring — no locks, no heap after the thread's first
//     record.  When the ring wraps, the oldest records are overwritten:
//     the log keeps the most recent window, which is what a postmortem
//     needs.  A global relaxed fetch_add stamps each record with a
//     publication sequence number so readers can merge rings into the true
//     decision order.
//   * Disabled cost: call sites check DecisionsEnabled() first — a relaxed
//     atomic-bool load and one predicted branch.  Compiling with
//     -DSVC_DECISIONS_ENABLED=0 makes DecisionsEnabled() constexpr false,
//     so every recording block compiles out (same switch design as
//     SVC_METRICS_ENABLED).
//   * Read path (CollectDecisions / FindDecision): reads rings owned by
//     other threads without locking against writers — call only when
//     recording threads are quiescent (after AdmitBatch returns, after
//     joins, at scope exit), the same single-consumer contract as the
//     trace rings.
//
// This header intentionally depends on nothing outside the standard
// library (records carry plain integer link/shard ids, not topology
// types) so every layer can link it.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"  // SVC_METRICS_ENABLED-style switch + ThreadId()

#ifndef SVC_DECISIONS_ENABLED
#define SVC_DECISIONS_ENABLED 1
#endif

namespace svc::obs {

namespace internal {
extern std::atomic<bool> g_decisions_enabled;
}  // namespace internal

#if SVC_DECISIONS_ENABLED
// Runtime switch; defaults to off so instrumented admission paths cost one
// predicted branch unless a tool/bench/test opts in.
inline bool DecisionsEnabled() {
  return internal::g_decisions_enabled.load(std::memory_order_relaxed);
}
#else
// Compiled out: every `if (DecisionsEnabled()) { ... }` block is dead code.
inline constexpr bool DecisionsEnabled() { return false; }
#endif
void SetDecisionsEnabled(bool enabled);

enum class DecisionOutcome : uint8_t {
  kAdmit = 0,
  kReject = 1,
  kEvict = 2,
};

// Which route carried the decision through the admission plane
// (docs/CONCURRENCY.md defines the routes; docs/OBSERVABILITY.md maps them
// to records).
enum class CommitPath : uint8_t {
  kSerial = 0,           // direct Manager::Admit (no pipeline)
  kFresh = 1,            // pipeline: strictly fresh, committed inline
  kShardFresh = 2,       // pipeline: stale but shard-freshness lemma held
  kShardDispatch = 3,    // pipeline: fresh single-shard, applied by worker
  kStaleRerun = 4,       // pipeline: stale admit, drained serial re-run
  // 5 and 6 are retired (a removed commit discipline); the numbers of
  // the remaining paths stay stable.
  kFaultEvict = 7,       // fault plane: recovery failed, tenant evicted
};

const char* ToString(DecisionOutcome outcome);
const char* ToString(CommitPath path);

// One admission/eviction decision.  Fixed-size POD: recording it never
// allocates, and rings can be pre-sized.
struct DecisionRecord {
  static constexpr int kMaxBindingLinks = 4;

  // A link that constrains the tenant, with its condition-(4) occupancy
  // slack at commit time: slack = 1 - occupancy (Eq. 6), so 0 means the
  // link is exactly at its admissible load and negative means a violated /
  // drained link (clamped at -1 for serialization sanity).
  struct BindingLink {
    int32_t link = -1;  // topology vertex id of the link's lower endpoint
    float slack = 0;
  };

  // Per-stage latency breakdown in microseconds, each measured on the
  // thread that ran the stage and folded into the one record (correlated
  // by request id).  Stages that a path skips stay 0.
  struct StageLatencies {
    float queue_wait_us = 0;  // feed -> speculation worker pop
    float snapshot_us = 0;    // epoch-snapshot (re-)capture cost
    float speculate_us = 0;   // allocator search against the snapshot
    float sequence_us = 0;    // sequencer validate + route
    float apply_us = 0;       // row writes (commit or shard apply)
  };

  int64_t tenant_id = 0;
  uint64_t seq = 0;    // global publication order; stamped by RecordDecision
  uint64_t ts_ns = 0;  // steady-clock ns; stamped by RecordDecision
  DecisionOutcome outcome = DecisionOutcome::kReject;
  CommitPath path = CommitPath::kSerial;
  uint8_t num_links = 0;
  int16_t shard = -1;      // commit shard id; -1 = unsharded / cross-shard
  uint32_t worker_tid = 0; // ThreadId() of the deciding thread (stamped)
  uint32_t epoch_delta = 0;  // commit-time epoch - speculation-snapshot epoch
  char allocator[20] = {};   // NUL-terminated, truncated
  char reason[20] = {};      // NUL-terminated reason code, e.g. "capacity"
  BindingLink links[kMaxBindingLinks];
  StageLatencies stages;

  void set_allocator(std::string_view name);
  void set_reason(std::string_view code);

  // Inserts (link, slack) keeping the kMaxBindingLinks *lowest-slack*
  // (most binding) links in ascending slack order.  No-op once the link is
  // looser than every kept entry and the array is full.
  void AddBindingLink(int32_t link, double slack);
};

// Copies `record` into the calling thread's ring, stamping seq, ts_ns, and
// worker_tid.  No-op (beyond the stamp work) when decisions are disabled —
// but call sites should gate record *construction* on DecisionsEnabled()
// themselves, since filling binding links costs occupancy evaluations.
void RecordDecision(const DecisionRecord& record);

// Total records ever published (monotone; survives ring wraparound).
uint64_t DecisionCount();

// Records each thread's ring retains (wraparound window size).
size_t DecisionRingCapacity();

// All retained records across threads, merged in publication (seq) order.
// Quiesced-threads contract above.
std::vector<DecisionRecord> CollectDecisions();

// Newest retained record for `tenant_id`; returns false if none survives
// in any ring.  Quiesced-threads contract above.
bool FindDecision(int64_t tenant_id, DecisionRecord* out);

// Drops every retained record (rings stay registered); the global seq
// counter keeps counting.
void ClearDecisions();

// Appends one {"type":"decision",...} JSON object (no trailing newline) —
// the same line-oriented schema family as MetricsSnapshot::ToJsonl and the
// engine time series.
void AppendDecisionJson(std::string& out, const DecisionRecord& record);

// One-line human summary for `svcctl tail` / `explain`.
std::string FormatDecision(const DecisionRecord& record);

}  // namespace svc::obs

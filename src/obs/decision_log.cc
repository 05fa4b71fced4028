#include "obs/decision_log.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>

namespace svc::obs {

namespace internal {
std::atomic<bool> g_decisions_enabled{false};
}  // namespace internal

void SetDecisionsEnabled(bool enabled) {
  internal::g_decisions_enabled.store(enabled, std::memory_order_relaxed);
}

const char* ToString(DecisionOutcome outcome) {
  switch (outcome) {
    case DecisionOutcome::kAdmit:
      return "admit";
    case DecisionOutcome::kReject:
      return "reject";
    case DecisionOutcome::kEvict:
      return "evict";
  }
  return "unknown";
}

const char* ToString(CommitPath path) {
  switch (path) {
    case CommitPath::kSerial:
      return "serial";
    case CommitPath::kFresh:
      return "fresh";
    case CommitPath::kShardFresh:
      return "shard-fresh";
    case CommitPath::kShardDispatch:
      return "shard-dispatch";
    case CommitPath::kStaleRerun:
      return "stale-rerun";
    case CommitPath::kFaultEvict:
      return "fault-evict";
  }
  return "unknown";
}

namespace {

void CopyBounded(char* dst, size_t cap, std::string_view src) {
  const size_t n = std::min(cap - 1, src.size());
  std::memcpy(dst, src.data(), n);
  dst[n] = '\0';
}

// Records kept per thread: 4K x ~160 B.  Wrapping keeps the most recent
// window — the postmortem regime the flight recorder dumps.
constexpr size_t kRingCapacity = 1u << 12;

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Per-thread ring, same publication protocol as the trace rings: the
// writer fills the slot then release-stores head; a quiesced-thread reader
// acquires head and walks the last min(head, capacity) slots.
struct Ring {
  Ring() { slots.resize(kRingCapacity); }

  void Push(const DecisionRecord& record) {
    const uint64_t h = head.load(std::memory_order_relaxed);
    slots[h % kRingCapacity] = record;
    head.store(h + 1, std::memory_order_release);
  }

  std::vector<DecisionRecord> slots;
  std::atomic<uint64_t> head{0};
};

std::atomic<uint64_t> g_decision_seq{0};

// Rings are owned by this global list (never freed) so records survive the
// recording thread's exit; the thread_local below is a cached pointer.
std::mutex g_rings_mu;
std::vector<std::unique_ptr<Ring>>& GlobalRings() {
  static auto* rings = new std::vector<std::unique_ptr<Ring>>();
  return *rings;
}

Ring& LocalRing() {
  thread_local Ring* ring = [] {
    auto owned = std::make_unique<Ring>();
    Ring* raw = owned.get();
    std::lock_guard<std::mutex> lock(g_rings_mu);
    GlobalRings().push_back(std::move(owned));
    return raw;
  }();
  return *ring;
}

void AppendJsonEscaped(std::string& out, const char* s) {
  out.push_back('"');
  for (const char* p = s; *p; ++p) {
    const char c = *p;
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  out.push_back('"');
}

}  // namespace

void DecisionRecord::set_allocator(std::string_view name) {
  CopyBounded(allocator, sizeof allocator, name);
}

void DecisionRecord::set_reason(std::string_view code) {
  CopyBounded(reason, sizeof reason, code);
}

void DecisionRecord::AddBindingLink(int32_t link, double slack) {
  const float s =
      static_cast<float>(std::max(-1.0, std::min(slack, 1e9)));
  int pos = num_links;
  if (pos == kMaxBindingLinks) {
    if (s >= links[kMaxBindingLinks - 1].slack) return;
    pos = kMaxBindingLinks - 1;
  } else {
    ++num_links;
  }
  while (pos > 0 && links[pos - 1].slack > s) {
    links[pos] = links[pos - 1];
    --pos;
  }
  links[pos] = BindingLink{link, s};
}

void RecordDecision(const DecisionRecord& record) {
  if (!DecisionsEnabled()) return;
  Ring& ring = LocalRing();
  const uint64_t h = ring.head.load(std::memory_order_relaxed);
  DecisionRecord& slot = ring.slots[h % kRingCapacity];
  slot = record;
  slot.seq = g_decision_seq.fetch_add(1, std::memory_order_relaxed);
  slot.ts_ns = NowNs();
  slot.worker_tid = ThreadId();
  ring.head.store(h + 1, std::memory_order_release);
}

uint64_t DecisionCount() {
  return g_decision_seq.load(std::memory_order_relaxed);
}

size_t DecisionRingCapacity() { return kRingCapacity; }

std::vector<DecisionRecord> CollectDecisions() {
  std::vector<DecisionRecord> records;
  {
    std::lock_guard<std::mutex> lock(g_rings_mu);
    for (const auto& ring : GlobalRings()) {
      const uint64_t head = ring->head.load(std::memory_order_acquire);
      const uint64_t count = std::min<uint64_t>(head, kRingCapacity);
      for (uint64_t i = head - count; i < head; ++i) {
        records.push_back(ring->slots[i % kRingCapacity]);
      }
    }
  }
  std::sort(records.begin(), records.end(),
            [](const DecisionRecord& a, const DecisionRecord& b) {
              return a.seq < b.seq;
            });
  return records;
}

bool FindDecision(int64_t tenant_id, DecisionRecord* out) {
  bool found = false;
  std::lock_guard<std::mutex> lock(g_rings_mu);
  for (const auto& ring : GlobalRings()) {
    const uint64_t head = ring->head.load(std::memory_order_acquire);
    const uint64_t count = std::min<uint64_t>(head, kRingCapacity);
    for (uint64_t i = head - count; i < head; ++i) {
      const DecisionRecord& r = ring->slots[i % kRingCapacity];
      if (r.tenant_id != tenant_id) continue;
      if (!found || r.seq > out->seq) {
        *out = r;
        found = true;
      }
    }
  }
  return found;
}

void ClearDecisions() {
  std::lock_guard<std::mutex> lock(g_rings_mu);
  for (const auto& ring : GlobalRings()) {
    ring->head.store(0, std::memory_order_release);
  }
}

void AppendDecisionJson(std::string& out, const DecisionRecord& r) {
  char buf[192];
  std::snprintf(buf, sizeof buf,
                "{\"type\":\"decision\",\"seq\":%llu,\"tenant\":%lld,"
                "\"outcome\":\"%s\",\"path\":\"%s\",",
                static_cast<unsigned long long>(r.seq),
                static_cast<long long>(r.tenant_id), ToString(r.outcome),
                ToString(r.path));
  out += buf;
  out += "\"allocator\":";
  AppendJsonEscaped(out, r.allocator);
  out += ",\"reason\":";
  AppendJsonEscaped(out, r.reason);
  std::snprintf(buf, sizeof buf,
                ",\"shard\":%d,\"worker\":%u,\"epoch_delta\":%u,"
                "\"ts_ns\":%llu,\"links\":[",
                r.shard, r.worker_tid, r.epoch_delta,
                static_cast<unsigned long long>(r.ts_ns));
  out += buf;
  for (int i = 0; i < r.num_links; ++i) {
    std::snprintf(buf, sizeof buf, "%s{\"link\":%d,\"slack\":%.6g}",
                  i > 0 ? "," : "", r.links[i].link,
                  static_cast<double>(r.links[i].slack));
    out += buf;
  }
  std::snprintf(buf, sizeof buf,
                "],\"stages_us\":{\"queue_wait\":%.3f,\"snapshot\":%.3f,"
                "\"speculate\":%.3f,\"sequence\":%.3f,\"apply\":%.3f}}",
                static_cast<double>(r.stages.queue_wait_us),
                static_cast<double>(r.stages.snapshot_us),
                static_cast<double>(r.stages.speculate_us),
                static_cast<double>(r.stages.sequence_us),
                static_cast<double>(r.stages.apply_us));
  out += buf;
}

std::string FormatDecision(const DecisionRecord& r) {
  char buf[160];
  std::string out;
  std::snprintf(buf, sizeof buf, "tenant %lld %s via %s",
                static_cast<long long>(r.tenant_id), ToString(r.outcome),
                ToString(r.path));
  out += buf;
  std::snprintf(buf, sizeof buf,
                " alloc=%s reason=%s shard=%d worker=t%u epoch_delta=%u",
                r.allocator[0] ? r.allocator : "-",
                r.reason[0] ? r.reason : "-", r.shard, r.worker_tid,
                r.epoch_delta);
  out += buf;
  out += " binding=[";
  for (int i = 0; i < r.num_links; ++i) {
    std::snprintf(buf, sizeof buf, "%sL%d slack=%.3f", i > 0 ? ", " : "",
                  r.links[i].link, static_cast<double>(r.links[i].slack));
    out += buf;
  }
  out += "]";
  std::snprintf(buf, sizeof buf,
                " stages_us[queue=%.1f snap=%.1f spec=%.1f seq=%.1f "
                "apply=%.1f]",
                static_cast<double>(r.stages.queue_wait_us),
                static_cast<double>(r.stages.snapshot_us),
                static_cast<double>(r.stages.speculate_us),
                static_cast<double>(r.stages.sequence_us),
                static_cast<double>(r.stages.apply_us));
  out += buf;
  return out;
}

}  // namespace svc::obs

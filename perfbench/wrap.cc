// Layer-boundary timing wrappers for the traced benchmark binaries.
//
// The traced scenario_run and svcd are the repository's own unchanged
// objects re-linked with `-Wl,--wrap=<mangled symbol>` for every symbol
// named in a WRAP_* line below (CMakeLists.txt extracts that list from
// this file).  The linker then routes every cross-object call of the
// symbol to __wrap_<sym>, which times it and forwards to __real_<sym>.
//
// The wrappers spell each signature in ABI terms (pointers, integers,
// doubles; a class returned by value is the hidden result pointer, which
// the callee hands back) and include no repository header, so a later
// change to a wrapped function's types cannot break this build.  Every
// __real_<sym> is declared weak: when a later change renames a function
// or alters its signature the mangled name no longer exists, the link
// still succeeds, the boundary reports zero calls and run.py flags it as
// "boundary not found".
//
// --wrap only sees calls that cross an object file.  A call inside one
// translation unit (StateValid() inside manager.cc, the allocators
// reached through Allocator's vtable, NetworkManager::Admit re-run by
// HandleFault's reallocate path) is not a boundary here: its time lands
// in the self time of the enclosing wrapped caller.
//
// Aggregates (calls, total, self, p50, p99) stay in memory and are
// written as JSON at process exit to $PERFBENCH_TRACE_OUT.  Self time is
// the span's duration minus the time of the wrapped spans it encloses on
// the same thread.  The ledger kernels run millions of times per run, so
// they are counted, never timed.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace {

using Clock = std::chrono::steady_clock;

struct Stat {
  int64_t calls = 0;
  double total_s = 0;
  double self_s = 0;
  std::vector<float> micros;  // one sample per call, for p50 / p99
};

// Nearest-rank percentile of an unsorted sample (reordered in place).
double Percentile(std::vector<float>& v, double q) {
  if (v.empty()) return 0;
  size_t rank = static_cast<size_t>(q * static_cast<double>(v.size()));
  rank = std::min(rank, v.size() - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank),
                   v.end());
  return v[rank];
}

class Recorder {
 public:
  ~Recorder() { Write(); }

  void Add(const std::string& name, double seconds, double self_seconds) {
    const std::lock_guard<std::mutex> lock(mu_);
    Stat& s = timed_[name];
    ++s.calls;
    s.total_s += seconds;
    s.self_s += self_seconds;
    s.micros.push_back(static_cast<float>(seconds * 1e6));
  }

  // A boundary wrapping several symbols is found only if all of them are.
  void Declare(const std::string& name, bool found) {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto [it, inserted] = boundaries_.emplace(name, found);
    if (!inserted) it->second = it->second && found;
  }

  std::atomic<int64_t>& Counter(int index) { return counters_[index]; }

 private:
  void Write();

  std::mutex mu_;
  std::map<std::string, Stat> timed_;
  std::map<std::string, bool> boundaries_;  // name -> real symbol linked
  std::atomic<int64_t> counters_[4] = {};
};

Recorder& Rec() {
  static Recorder recorder;
  return recorder;
}

const char* const kCounterNames[4] = {
    "net.occupancy_batch", "net.valid_with", "net.feasible_frontier",
    "net.occupancy_with"};

void Recorder::Write() {
  const char* path = std::getenv("PERFBENCH_TRACE_OUT");
  if (path == nullptr || *path == '\0') return;
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) return;
  const std::lock_guard<std::mutex> lock(mu_);
  std::fprintf(f, "{\"timed\": {");
  const char* sep = "";
  for (auto& [name, s] : timed_) {
    std::fprintf(f,
                 "%s\"%s\": {\"calls\": %lld, \"total_s\": %.9f, "
                 "\"self_s\": %.9f, \"p50_us\": %.3f, \"p99_us\": %.3f}",
                 sep, name.c_str(), static_cast<long long>(s.calls),
                 s.total_s, s.self_s, Percentile(s.micros, 0.50),
                 Percentile(s.micros, 0.99));
    sep = ", ";
  }
  std::fprintf(f, "}, \"counts\": {");
  for (int i = 0; i < 4; ++i) {
    std::fprintf(f, "%s\"%s\": %lld", i > 0 ? ", " : "", kCounterNames[i],
                 static_cast<long long>(counters_[i].load()));
  }
  std::fprintf(f, "}, \"boundaries\": {");
  sep = "";
  for (const auto& [name, found] : boundaries_) {
    std::fprintf(f, "%s\"%s\": %s", sep, name.c_str(),
                 found ? "true" : "false");
    sep = ", ";
  }
  std::fprintf(f, "}}\n");
  std::fclose(f);
}

// One open span on this thread's wrapper stack.
struct Frame {
  double child_s = 0;  // time of wrapped spans nested directly inside
};
thread_local std::vector<Frame*> t_stack;

class Span {
 public:
  explicit Span(std::string name)
      : name_(std::move(name)), start_(Clock::now()) {
    t_stack.push_back(&frame_);
  }
  ~Span() {
    const double seconds =
        std::chrono::duration<double>(Clock::now() - start_).count();
    t_stack.pop_back();
    if (!t_stack.empty()) t_stack.back()->child_s += seconds;
    Rec().Add(name_, seconds, seconds - frame_.child_s);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::string name_;
  Clock::time_point start_;
  Frame frame_;
};

// The command verb of an interpreter line, for cli.execute.<verb>; a verb
// that is not a lower-case word is reported as "other".
std::string Verb(const std::string& line) {
  const size_t begin = line.find_first_not_of(" \t");
  if (begin == std::string::npos) return "blank";
  const size_t end = line.find_first_of(" \t", begin);
  std::string verb =
      line.substr(begin, end == std::string::npos ? end : end - begin);
  for (const char c : verb) {
    if (c < 'a' || c > 'z') return "other";
  }
  return verb;
}

// Records at start-up whether the link resolved a wrapped symbol.
struct Registration {
  Registration(const char* name, const void* real) {
    Rec().Declare(name, real != nullptr);
  }
};

}  // namespace

// WRAP_TIMED(symbol, boundary name, return type, (params), (args)) times
// every call; WRAP_TIMED_AS names each span by an expression over the
// arguments; WRAP_COUNT(symbol, counter index, ...) only counts calls.
#define WRAP_TIMED_AS(sym, boundary, span_name, ret, params, args)    \
  extern "C" ret __real_##sym params __attribute__((weak));          \
  extern "C" ret __wrap_##sym params {                               \
    const Span span(span_name);                                      \
    return __real_##sym args;                                        \
  }                                                                  \
  static const Registration reg_##sym(                               \
      boundary, reinterpret_cast<const void*>(&__real_##sym));
#define WRAP_TIMED(sym, name, ret, params, args) \
  WRAP_TIMED_AS(sym, name, name, ret, params, args)
#define WRAP_COUNT(sym, index, ret, params, args)                     \
  extern "C" ret __real_##sym params __attribute__((weak));          \
  extern "C" ret __wrap_##sym params {                               \
    Rec().Counter(index).fetch_add(1, std::memory_order_relaxed);    \
    return __real_##sym args;                                        \
  }                                                                  \
  static const Registration reg_##sym(                               \
      kCounterNames[index], reinterpret_cast<const void*>(&__real_##sym));

// sim: void MaxMinScratch::Allocate(std::vector<SimFlow>&,
//                                   const std::vector<double>&, bool)
WRAP_TIMED(_ZN3svc3sim13MaxMinScratch8AllocateERSt6vectorINS0_7SimFlowESaIS3_EERKS2_IdSaIdEEb,
           "sim.maxmin_allocate", void,
           (void* self, void* flows, const void* capacity, bool changed),
           (self, flows, capacity, changed))
// sim: Result<ScenarioRunResult> RunScenario(const Scenario&,
//                                            const ScenarioRunOptions&)
// The root span of scenario_run: its self time is the engine loop.
WRAP_TIMED(_ZN3svc3sim11RunScenarioERKNS0_8ScenarioERKNS0_18ScenarioRunOptionsE,
           "sim.run_scenario", void*,
           (void* result, const void* scenario, const void* options),
           (result, scenario, options))
// svc: Result<Placement> NetworkManager::Admit(const Request&,
//                                             const Allocator&, CommitPath)
WRAP_TIMED(_ZN3svc4core14NetworkManager5AdmitERKNS0_7RequestERKNS0_9AllocatorENS_3obs10CommitPathE,
           "svc.admit", void*,
           (void* result, void* self, const void* request,
            const void* allocator, std::uint8_t path),
           (result, self, request, allocator, path))
// svc: void NetworkManager::Release(RequestId)
WRAP_TIMED(_ZN3svc4core14NetworkManager7ReleaseEl, "svc.release", void,
           (void* self, std::int64_t id), (self, id))
// svc: Result<FaultOutcome> NetworkManager::HandleFault(FaultKind,
//          VertexId, RecoveryPolicy, const Allocator&)
WRAP_TIMED(_ZN3svc4core14NetworkManager11HandleFaultENS0_9FaultKindEiNS0_14RecoveryPolicyERKNS0_9AllocatorE,
           "svc.handle_fault", void*,
           (void* result, void* self, int kind, int vertex, int policy,
            const void* allocator),
           (result, self, kind, vertex, policy, allocator))
// svc: Status NetworkManager::HandleRecovery(VertexId)
WRAP_TIMED(_ZN3svc4core14NetworkManager14HandleRecoveryEi,
           "svc.handle_recovery", void*,
           (void* result, void* self, int vertex), (result, self, vertex))
// svc: Result<Placement> PlanBackup(const Topology&, const Request&,
//          Placement (by value, so a pointer to the caller's copy),
//          const LinkLedger&, const SlotMap&)
WRAP_TIMED(_ZN3svc4core10PlanBackupERKNS_8topology8TopologyERKNS0_7RequestENS0_9PlacementERKNS_3net10LinkLedgerERKNS0_7SlotMapE,
           "svc.plan_backup", void*,
           (void* result, const void* topo, const void* request,
            void* placement, const void* ledger, const void* slots),
           (result, topo, request, placement, ledger, slots))
// svc: Status SaveSnapshot(const NetworkManager&, std::ostream&)
WRAP_TIMED(_ZN3svc4core12SaveSnapshotERKNS0_14NetworkManagerERSo,
           "svc.save_snapshot", void*,
           (void* result, const void* manager, void* out),
           (result, manager, out))
// svc: Status RestoreSnapshot(std::istream&, NetworkManager&)
WRAP_TIMED(_ZN3svc4core15RestoreSnapshotERSiRNS0_14NetworkManagerE,
           "svc.restore_snapshot", void*,
           (void* result, void* in, void* manager), (result, in, manager))
// topology: Topology BuildThreeTier(const ThreeTierConfig&)
WRAP_TIMED(_ZN3svc8topology14BuildThreeTierERKNS0_15ThreeTierConfigE,
           "topology.build", void*, (void* result, const void* config),
           (result, config))
// workload: std::vector<JobSpec> WorkloadGenerator::GenerateOnline(double,
//                                                                  int)
WRAP_TIMED(_ZN3svc8workload17WorkloadGenerator14GenerateOnlineEdi,
           "workload.generate", void*,
           (void* result, void* self, double load, int total_slots),
           (result, self, load, total_slots))
// workload: std::vector<JobSpec> WorkloadGenerator::GenerateBatch()
WRAP_TIMED(_ZN3svc8workload17WorkloadGenerator13GenerateBatchEv,
           "workload.generate", void*, (void* result, void* self),
           (result, self))

// cli: bool Interpreter::Execute(const std::string&, std::ostream&),
// reported per command verb as cli.execute.<verb>.
WRAP_TIMED_AS(_ZN3svc3cli11Interpreter7ExecuteERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEERSo,
              "cli.execute", "cli.execute." + Verb(*line), bool,
              (void* self, const std::string* line, void* out),
              (self, line, out))

// net: the LinkLedger read kernels (const member functions).  Both
// frontier directions count as net.feasible_frontier.
WRAP_COUNT(_ZNK3svc3net10LinkLedger18OccupancyWithBatchEiPKdS3_S3_iPd, 0,
           void,
           (const void* self, int v, const double* mean, const double* var,
            const double* det, int count, double* out),
           (self, v, mean, var, det, count, out))
WRAP_COUNT(_ZNK3svc3net10LinkLedger9ValidWithEiddd, 1, bool,
           (const void* self, int v, double mean, double var, double det),
           (self, v, mean, var, det))
WRAP_COUNT(_ZNK3svc3net10LinkLedger16FeasibleFrontierEiPKdS3_S3_ii, 2, int,
           (const void* self, int v, const double* mean, const double* var,
            const double* det, int lo, int hi),
           (self, v, mean, var, det, lo, hi))
WRAP_COUNT(_ZNK3svc3net10LinkLedger26FeasibleFrontierDescendingEiPKdS3_S3_ii,
           2, int,
           (const void* self, int v, const double* mean, const double* var,
            const double* det, int lo, int hi),
           (self, v, mean, var, det, lo, hi))
WRAP_COUNT(_ZNK3svc3net10LinkLedger13OccupancyWithEiddd, 3, double,
           (const void* self, int v, double mean, double var, double det),
           (self, v, mean, var, det))

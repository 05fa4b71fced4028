#include "svc/homogeneous_search.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "svc/demand_profile.h"
#include "svc/scratch_arena.h"
#include "util/logging.h"

namespace svc::core {
namespace {

constexpr double kInfeasible = std::numeric_limits<double>::infinity();

// Flattened per-call DP tables, reused across calls.
//
// opt[v*(n+1) + x] is the paper's combination of Opt(T_v, x) and the uplink
// ratio O_{L_v}(N, x): the minimum achievable value of the maximum occupancy
// over all links of T_v *plus v's uplink* when x VMs are placed in T_v, or
// +inf when no valid placement of x VMs exists.  Folding the uplink in here
// is equivalent to the paper's recurrence (11), which maxes O_{L_vi} in at
// the parent.  opt_len[v] is the number of valid entries in v's row (the
// original per-vertex table size); 0 marks a row not computed this call.
// opt_lo/opt_hi[v] bound the feasible (finite) window of the row, so the
// child-fold skips infeasible prefixes and suffixes without probing them.
//
// The choice table is the paper's D_v[i, x] — how many of the x VMs
// assigned to T_v^[i] (v plus its first i child subtrees) go to the i-th
// child — flattened with rows keyed by the *child* vertex: every non-root
// vertex is exactly one child edge of its parent, so the parent's stage-i
// row can live at row children[i] without collisions.
//
// Choice rows are written only during reconstruction (the winning subtree
// is refolded with the reference recurrence); the DP pass itself runs the
// branchless fold kernel and records no per-cell winners.
//
// The arena is thread-local so one allocator instance can serve concurrent
// sweep-runner replicas without sharing mutable state.  After the first call on a topology/request-size combination no Allocate()
// call touches the heap (see bench/alloc_microbench's allocation-counter
// benchmark).
struct DpArena {
  std::vector<double> opt;
  std::vector<int> opt_len;
  std::vector<int> opt_lo;
  std::vector<int> opt_hi;
  std::vector<int> choice;
  std::vector<double> current;
  std::vector<double> next;
  std::vector<double> row;  // uplink occupancy row scratch
  std::vector<std::pair<topology::VertexId, int>> stack;
  HomogeneousProfile profile;  // table capacity reused across requests
  int stride = 0;

  void Prepare(int num_vertices, int n) {
    stride = n + 1;
    if (current.size() < static_cast<size_t>(stride)) {
      current.resize(stride);
      next.resize(stride);
      row.resize(stride);
    }
    const size_t cells = static_cast<size_t>(num_vertices) * stride;
    if (opt.size() < cells) opt.resize(cells);
    if (choice.size() < cells) choice.resize(cells);
    if (opt_len.size() < static_cast<size_t>(num_vertices)) {
      opt_len.resize(num_vertices);
      opt_lo.resize(num_vertices);
      opt_hi.resize(num_vertices);
    }
    std::fill(opt_len.begin(), opt_len.begin() + num_vertices, 0);
    stack.clear();
  }

  double* opt_row(topology::VertexId v) {
    return opt.data() + static_cast<size_t>(v) * stride;
  }
  int* choice_row(topology::VertexId v) {
    return choice.data() + static_cast<size_t>(v) * stride;
  }
};

DpArena& LocalArena() {
  thread_local DpArena arena;
  return arena;
}

// Kernel/pruning tallies, accumulated locally per vertex and flushed to the
// metrics registry once per Allocate() (keeps the DP loops free of even the
// disabled-metrics branch).
struct KernelStats {
  int64_t kernel_cells = 0;  // fused occupancy evaluations
  int64_t pruned_cells = 0;  // cells resolved without a quantile evaluation
};

// Everything a per-vertex DP step needs; points into the calling thread's
// arena.
struct DpShared {
  const topology::Topology* topo;
  const net::LinkLedger* ledger;
  const SlotMap* slots;
  const HomogeneousProfile* profile;
  double* opt;
  int* opt_len;
  int* opt_lo;
  int* opt_hi;
  int* choice;
  int stride;
  int n;
  bool optimize;
  bool monotone;  // quantile >= 0: occupancy monotone in the moment adds

  double* opt_row(topology::VertexId v) const {
    return opt + static_cast<size_t>(v) * stride;
  }
  int* choice_row(topology::VertexId v) const {
    return choice + static_cast<size_t>(v) * stride;
  }
};

// Fills row[x] for x in [x_lo, x_hi] with the fused occupancy of v's uplink
// when x of the n VMs land below it (+inf on a condition-(4) violation).
// On the profile's verified monotone segments the feasibility frontier is
// binary-searched, so infeasible spans cost O(log) probes instead of one
// sqrt per cell; segments too short to amortize the search (or profiles
// with a negative quantile, where occupancy is not monotone in the
// variance) are evaluated densely by the batch kernel.
void UplinkRow(const DpShared& s, topology::VertexId v, int x_lo, int x_hi,
               double* row, KernelStats& stats) {
  const double* mean = s.profile->mean_adds();
  const double* var = s.profile->var_adds();
  const double* det = s.profile->det_adds();
  auto batch = [&](int a, int b) {
    if (b < a) return;
    s.ledger->OccupancyWithBatch(v, mean + a, var + a, det + a, b - a + 1,
                                 row + a);
    stats.kernel_cells += b - a + 1;
  };
  auto fill_infeasible = [&](int a, int b) {
    if (b < a) return;
    std::fill(row + a, row + b + 1, kInfeasible);
    stats.pruned_cells += b - a + 1;
  };
  constexpr int kMinSearchLen = 8;  // below this, dense batch is cheaper
  if (!s.monotone || x_hi - x_lo + 1 < kMinSearchLen) {
    batch(x_lo, x_hi);
    return;
  }
  // Rising segment: moments non-decreasing, so feasible cells are a prefix.
  const int rise_end = std::min(x_hi, s.profile->rise_end());
  if (x_lo <= rise_end) {
    const int frontier =
        s.ledger->FeasibleFrontier(v, mean, var, det, x_lo, rise_end);
    batch(x_lo, frontier - 1);
    fill_infeasible(frontier, rise_end);
  }
  // Middle cells between the verified segments: probe densely.
  const int fall_begin =
      std::max(x_lo, std::max(s.profile->fall_begin(), rise_end + 1));
  batch(std::max(x_lo, rise_end + 1), std::min(x_hi, fall_begin - 1));
  // Falling segment: moments non-increasing, so feasible cells are a suffix.
  if (fall_begin <= x_hi) {
    const int first_feasible = s.ledger->FeasibleFrontierDescending(
        v, mean, var, det, fall_begin, x_hi);
    fill_infeasible(fall_begin, first_feasible - 1);
    batch(first_feasible, x_hi);
  }
}

// Folds v's children into scratch.current one at a time (T_v^[i]) and
// reports the resulting row's length and feasible window.
//
// kRecordChoices selects between the two callers:
//   * the DP pass (<false>) needs only the folded values, so the inner
//     loop is the branchless min/max kernel — +inf cells are absorbed by
//     the max and never improve the min, and ties keep the incumbent
//     exactly as the reference's strict `<` does, so the produced row is
//     bit-identical to the reference recurrence;
//   * reconstruction (<true>) refolds just the winning subtree with the
//     reference loop to recover the children's choice rows (first strict
//     improvement in (h, e) order).  Same inputs, same order — the same
//     choices the reference DP would have recorded, at a cost bounded by
//     one subtree instead of every fold in the fabric.
template <bool kRecordChoices>
void FoldChildren(const DpShared& s, topology::VertexId v, DpArena& scratch,
                  KernelStats& stats, int* out_len, int* out_lo,
                  int* out_hi) {
  const topology::Topology& topo = *s.topo;
  const int n = s.n;
  double* current = scratch.current.data();
  current[0] = 0.0;  // T_v^[0] = {v}: zero VMs, no links
  int cur_len = 1;
  int cur_lo = 0;  // feasible window of `current`
  int cur_hi = 0;
  for (topology::VertexId child : topo.children(v)) {
    const double* child_opt = s.opt_row(child);
    const int prev_max = cur_len - 1;
    const int child_max = s.opt_len[child] - 1;
    const int child_lo = s.opt_lo[child];
    const int child_hi = s.opt_hi[child];
    const int next_max = std::min(n, prev_max + child_max);
    double* next = scratch.next.data();
    std::fill(next, next + next_max + 1, kInfeasible);
    int* choice = s.choice_row(child);
    if (kRecordChoices) std::fill(choice, choice + next_max + 1, -1);
    if (cur_lo <= cur_hi && child_lo <= child_hi) {
      const int h_hi = std::min(cur_hi, prev_max);
      const bool fused = !kRecordChoices && s.optimize;
      // In the fused (min,max) fold the final next[k] is the min of
      // max(current[h], child_opt[e]) over the same {h + e = k} pair set
      // whichever loop runs inside, and min over a set of doubles is
      // order-independent, so the kernel sweeps whichever window is
      // longer: a rack folding 4-slot machine rows wants the vectorized
      // inner loop over its ~n-wide accumulated row, not the 5-cell
      // child row.
      if (fused && h_hi - cur_lo > child_hi - child_lo) {
        for (int h = cur_lo; h <= h_hi; ++h) {
          if (current[h] == kInfeasible) continue;
          const int e_limit = std::min(child_hi, n - h);
          stats.pruned_cells +=
              std::min(child_max, n - h) - e_limit + child_lo;
        }
        for (int e = child_lo; e <= child_hi; ++e) {
          const double ce = child_opt[e];
          if (ce == kInfeasible) continue;
          const int h_limit = std::min(h_hi, n - e);
          const double* __restrict cur = current;
          double* __restrict out = next + e;
          for (int h = cur_lo; h <= h_limit; ++h) {
            out[h] = std::min(out[h], std::max(ce, cur[h]));
          }
        }
      } else {
        for (int h = cur_lo; h <= h_hi; ++h) {
          if (current[h] == kInfeasible) continue;
          // Skip the child's infeasible prefix/suffix outright; cells
          // inside the window are still checked (windows are bounds, not
          // dense guarantees).
          const int e_limit = std::min(child_hi, n - h);
          stats.pruned_cells +=
              std::min(child_max, n - h) - e_limit + child_lo;
          if (fused) {
            // Branchless kernel: contiguous loads, one max + one min per
            // cell, no data-dependent branches — auto-vectorizable.
            // +inf child cells are absorbed by the max and never improve
            // the min; ties keep the incumbent, as the reference's
            // strict `<` does.
            const double c = current[h];
            const double* __restrict ch = child_opt;
            double* __restrict out = next + h;
            for (int e = child_lo; e <= e_limit; ++e) {
              out[e] = std::min(out[e], std::max(c, ch[e]));
            }
            continue;
          }
          for (int e = child_lo; e <= e_limit; ++e) {
            if (child_opt[e] == kInfeasible) continue;
            const double value = std::max(current[h], child_opt[e]);
            const int total = h + e;
            const bool better = s.optimize ? value < next[total]
                                           : next[total] == kInfeasible;
            if (better) {
              next[total] = value;
              if (kRecordChoices) choice[total] = e;
            }
          }
        }
      }
    }
    std::swap(scratch.current, scratch.next);
    current = scratch.current.data();
    cur_len = next_max + 1;
    // Rescan the window (cheap: one pass over the row the fold just
    // wrote; dwarfed by the fold's O(window^2) work).
    cur_lo = 0;
    while (cur_lo < cur_len && current[cur_lo] == kInfeasible) ++cur_lo;
    cur_hi = cur_len - 1;
    while (cur_hi > cur_lo && current[cur_hi] == kInfeasible) --cur_hi;
    if (cur_lo >= cur_len) {  // empty row: nothing feasible any more
      cur_lo = 1;
      cur_hi = 0;
    }
  }
  *out_len = cur_len;
  *out_lo = cur_lo;
  *out_hi = cur_hi;
}

// Computes vertex v's opt row from the children's already-computed rows.
// Pure with respect to the shared tables except for v's own rows, so
// vertices within a level can run concurrently in any order.  Choice rows
// are NOT produced here — reconstruction refolds the winning subtree.
void ComputeVertexRow(const DpShared& s, topology::VertexId v,
                      DpArena& scratch, KernelStats& stats) {
  const topology::Topology& topo = *s.topo;
  const int n = s.n;
  double* vopt = s.opt_row(v);

  if (topo.is_machine(v)) {
    // Leaf: S_v = {0..free slots}; no links inside a machine, so the
    // subtree cost is just the uplink's.
    const int cap = std::min(n, s.slots->free_slots(v));
    s.opt_len[v] = cap + 1;
    UplinkRow(s, v, 0, cap, vopt, stats);
  } else {
    int cur_len = 0;
    int cur_lo = 0;
    int cur_hi = 0;
    FoldChildren<false>(s, v, scratch, stats, &cur_len, &cur_lo, &cur_hi);
    const double* current = scratch.current.data();
    // Apply v's own uplink (root has none), only across the fold's
    // feasible window — everything outside is already infeasible.
    s.opt_len[v] = cur_len;
    std::fill(vopt, vopt + cur_len, kInfeasible);
    if (cur_lo <= cur_hi) {
      if (v == topo.root()) {
        std::copy(current + cur_lo, current + cur_hi + 1, vopt + cur_lo);
      } else {
        double* up = scratch.row.data();
        UplinkRow(s, v, cur_lo, cur_hi, up, stats);
        for (int x = cur_lo; x <= cur_hi; ++x) {
          if (current[x] == kInfeasible || up[x] == kInfeasible) continue;
          vopt[x] = std::max(current[x], up[x]);
        }
      }
    }
  }

  // Record the row's feasible window for the parent's fold.
  const int len = s.opt_len[v];
  int lo = 0;
  while (lo < len && vopt[lo] == kInfeasible) ++lo;
  int hi = len - 1;
  while (hi > lo && vopt[hi] == kInfeasible) --hi;
  if (lo >= len) {
    lo = 1;
    hi = 0;
  }
  s.opt_lo[v] = lo;
  s.opt_hi[v] = hi;
}

}  // namespace

util::Result<Placement> HomogeneousSearchAllocator::Allocate(
    const Request& request, const net::LinkLedger& ledger,
    const SlotMap& slots) const {
  SVC_TRACE_SPAN("alloc/homogeneous_search");
  if (!request.homogeneous()) {
    return {util::ErrorCode::kInvalidArgument,
            std::string(name()) + " handles homogeneous requests only"};
  }
  if (util::Status s = request.Validate(); !s.ok()) return s;
  const int n = request.n();
  if (n > slots.total_free()) {
    return {util::ErrorCode::kCapacity,
            "request needs " + std::to_string(n) + " VMs, only " +
                std::to_string(slots.total_free()) + " slots free"};
  }

  const topology::Topology& topo = ledger.topo();

  DpArena& arena = LocalArena();
  arena.profile.Reset(request);
  const HomogeneousProfile& profile = arena.profile;
  arena.Prepare(topo.num_vertices(), n);

  const DpShared shared{&topo,
                        &ledger,
                        &slots,
                        &profile,
                        arena.opt.data(),
                        arena.opt_len.data(),
                        arena.opt_lo.data(),
                        arena.opt_hi.data(),
                        arena.choice.data(),
                        arena.stride,
                        n,
                        options_.optimize_occupancy,
                        ledger.quantile() >= 0};

  topology::VertexId best_vertex = topology::kNoVertex;
  double best_value = kInfeasible;
  KernelStats stats;

  for (int level = 0; level <= topo.height(); ++level) {
    for (topology::VertexId v : topo.vertices_at_level(level)) {
      // Early level termination: once this level holds a best subtree (and
      // the search will stop at this level), a vertex can only win by
      // strictly beating best_value.  Every link's occupancy is monotone in
      // the added moments, so max over the children's base-occupancy cells
      // (their x = 0 entries) lower-bounds the vertex's eventual vopt[n];
      // if the bound can't beat best_value the whole subtree fold is
      // skipped.  Skipped rows are never read: the level break below runs
      // before any parent could fold them.
      if (options_.lowest_subtree_first && best_vertex != topology::kNoVertex) {
        if (!options_.optimize_occupancy) {
          stats.pruned_cells += n + 1;
          continue;  // first feasible vertex already found
        }
        if (shared.monotone) {
          double bound = 0;
          if (topo.is_machine(v)) {
            if (n > slots.free_slots(v)) bound = kInfeasible;
          } else {
            for (topology::VertexId child : topo.children(v)) {
              bound = std::max(bound, shared.opt_row(child)[0]);
            }
          }
          if (!(bound < best_value)) {
            stats.pruned_cells += n + 1;
            continue;
          }
        }
      }
      ComputeVertexRow(shared, v, arena, stats);

      // Can this subtree host the whole request?
      if (arena.opt_len[v] > n) {
        const double whole = shared.opt_row(v)[n];
        if (whole != kInfeasible) {
          const bool better = options_.optimize_occupancy
                                  ? whole < best_value
                                  : best_vertex == topology::kNoVertex;
          if (better) {
            best_vertex = v;
            best_value = whole;
          }
        }
      }
    }
    if (options_.lowest_subtree_first && best_vertex != topology::kNoVertex) {
      break;  // lowest feasible level found; stop for locality
    }
  }

  SVC_METRIC_ADD("alloc/kernel_cells", stats.kernel_cells);
  SVC_METRIC_ADD("alloc/pruned_cells", stats.pruned_cells);

  if (best_vertex == topology::kNoVertex) {
    return {util::ErrorCode::kInfeasible,
            "no subtree satisfies the probabilistic guarantee for " +
                request.Describe()};
  }

  // Reconstruct the chosen split top-down.  The DP pass does not record
  // choice rows (the branchless fold kernel has no per-cell winner store),
  // so each visited internal vertex refolds its children once with the
  // reference recurrence — same child rows, same order, same tie-breaks,
  // so the recovered choices match what the reference DP records.  Cost is
  // bounded by the winning subtree, not the whole fabric; the stats sink
  // is a local discard (the per-call metrics were flushed above).
  Placement placement;
  placement.subtree_root = best_vertex;
  placement.max_occupancy = best_value;
  placement.vm_machine = TakeVmBuffer();
  placement.vm_machine.reserve(n);
  KernelStats refold_stats;
  // Explicit stack (arena-owned) to avoid recursion on deep topologies.
  auto& stack = arena.stack;
  stack.emplace_back(best_vertex, n);
  while (!stack.empty()) {
    const auto [v, x] = stack.back();
    stack.pop_back();
    if (x == 0) continue;
    if (topo.is_machine(v)) {
      for (int k = 0; k < x; ++k) placement.vm_machine.push_back(v);
      continue;
    }
    int refold_len = 0, refold_lo = 0, refold_hi = 0;
    FoldChildren<true>(shared, v, arena, refold_stats, &refold_len,
                       &refold_lo, &refold_hi);
    const auto& children = topo.children(v);
    int remaining = x;
    for (size_t i = children.size(); i-- > 0;) {
      assert(remaining <= n);
      const int e = arena.choice_row(children[i])[remaining];
      assert(e >= 0 && "reconstruction hit an unreachable table entry");
      if (e > 0) stack.emplace_back(children[i], e);
      remaining -= e;
    }
    assert(remaining == 0 && "vertex itself holds no VMs");
  }
  assert(static_cast<int>(placement.vm_machine.size()) == n);
  return placement;
}

}  // namespace svc::core

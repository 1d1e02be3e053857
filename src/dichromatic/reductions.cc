// Copyright 2026 The balanced-clique Authors.
#include "src/dichromatic/reductions.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "src/common/logging.h"

namespace mbc {

Bitset KCoreWithin(const DichromaticGraph& graph, const Bitset& candidates,
                   uint32_t k) {
  Bitset alive = candidates;
  std::vector<uint32_t> pending;
  size_t alive_count = alive.Count();
  KCoreWithinInPlace(graph, &alive, k, &pending, &alive_count);
  return alive;
}

void KCoreWithinInPlace(const DichromaticGraph& graph, Bitset* alive_set,
                        uint32_t k, std::vector<uint32_t>* pending_stack,
                        size_t* alive_count,
                        std::vector<uint32_t>* degrees) {
  Bitset& alive = *alive_set;
  MBC_DCHECK_EQ(*alive_count, alive.Count());
  std::vector<uint32_t>& pending = *pending_stack;
  if (degrees != nullptr) {
    // Decrement-maintained peel: one intersect+popcount sweep total, and
    // the caller keeps the surviving degrees.
    std::vector<uint32_t>& deg = *degrees;
    pending.clear();
    alive.ForEach([&](size_t v) {
      const uint32_t d = graph.DegreeWithin(static_cast<uint32_t>(v), alive);
      deg[v] = d;
      if (d < k) pending.push_back(static_cast<uint32_t>(v));
    });
    while (!pending.empty()) {
      const uint32_t v = pending.back();
      pending.pop_back();
      if (!alive.Test(v)) continue;
      alive.Reset(v);
      --*alive_count;
      // A neighbor is pushed exactly when its degree crosses below k;
      // anything already below entered via the initial sweep.
      graph.AdjacencyOf(v).ForEachAnd(alive, [&](size_t u) {
        if (--deg[u] == k - 1) pending.push_back(static_cast<uint32_t>(u));
      });
    }
    return;
  }
  if (k == 0) return;
  pending.clear();
  alive.ForEach([&](size_t v) {
    if (graph.DegreeWithin(static_cast<uint32_t>(v), alive) < k) {
      pending.push_back(static_cast<uint32_t>(v));
    }
  });
  while (!pending.empty()) {
    const uint32_t v = pending.back();
    pending.pop_back();
    if (!alive.Test(v)) continue;
    alive.Reset(v);
    --*alive_count;
    // Neighbors of v inside `alive` may have dropped below k.
    graph.AdjacencyOf(v).ForEachAnd(alive, [&](size_t u) {
      if (graph.DegreeWithin(static_cast<uint32_t>(u), alive) < k) {
        pending.push_back(static_cast<uint32_t>(u));
      }
    });
  }
}

Bitset TwoSidedCoreWithin(const DichromaticGraph& graph,
                          const Bitset& candidates, int32_t tau_l,
                          int32_t tau_r) {
  Bitset alive = candidates;
  std::vector<uint32_t> pending;
  size_t alive_count = alive.Count();
  TwoSidedCoreWithinInPlace(graph, &alive, tau_l, tau_r, &pending,
                            &alive_count);
  return alive;
}

void TwoSidedCoreWithinInPlace(const DichromaticGraph& graph,
                               Bitset* alive_set, int32_t tau_l,
                               int32_t tau_r,
                               std::vector<uint32_t>* pending_stack,
                               size_t* alive_count,
                               std::vector<uint32_t>* degrees) {
  Bitset& alive = *alive_set;
  MBC_DCHECK_EQ(*alive_count, alive.Count());
  const auto need_l = [&](uint32_t v) -> uint32_t {
    const int32_t need = graph.IsLeft(v) ? tau_l - 1 : tau_l;
    return need > 0 ? static_cast<uint32_t>(need) : 0;
  };
  const auto need_r = [&](uint32_t v) -> uint32_t {
    const int32_t need = graph.IsLeft(v) ? tau_r : tau_r - 1;
    return need > 0 ? static_cast<uint32_t>(need) : 0;
  };
  // Side degrees within `alive`: the L-degree is one fused three-operand
  // popcount over v's row and the side mask, the R-degree the rest of v's
  // alive degree.
  const Bitset& left_mask = graph.LeftMask();
  auto violates = [&](uint32_t v) {
    const Bitset& row = graph.AdjacencyOf(v);
    const size_t dl = row.CountAndAnd(left_mask, alive);
    return dl < need_l(v) || row.CountAnd(alive) - dl < need_r(v);
  };

  std::vector<uint32_t>& pending = *pending_stack;
  pending.clear();
  if (degrees != nullptr) {
    // Record total degrees during the violation sweep (both side counts
    // are in hand anyway) and keep them current by decrement in the peel.
    std::vector<uint32_t>& deg = *degrees;
    alive.ForEach([&](size_t v) {
      const uint32_t u = static_cast<uint32_t>(v);
      const Bitset& row = graph.AdjacencyOf(u);
      const size_t degree = row.CountAnd(alive);
      const size_t dl = row.CountAndAnd(left_mask, alive);
      const size_t dr = degree - dl;
      deg[u] = static_cast<uint32_t>(degree);
      if (dl < need_l(u) || dr < need_r(u)) pending.push_back(u);
    });
  } else {
    alive.ForEach([&](size_t v) {
      if (violates(static_cast<uint32_t>(v))) {
        pending.push_back(static_cast<uint32_t>(v));
      }
    });
  }
  while (!pending.empty()) {
    const uint32_t v = pending.back();
    pending.pop_back();
    if (!alive.Test(v)) continue;
    alive.Reset(v);
    --*alive_count;
    graph.AdjacencyOf(v).ForEachAnd(alive, [&](size_t u) {
      if (degrees != nullptr) --(*degrees)[u];
      if (violates(static_cast<uint32_t>(u))) {
        pending.push_back(static_cast<uint32_t>(u));
      }
    });
  }
}

namespace {

// Shared greedy-coloring body; the two public overloads differ only in
// where the scratch lives.
uint32_t ColoringBoundImpl(
    const DichromaticGraph& graph, const Bitset& candidates,
    uint32_t early_exit_above,
    std::vector<std::pair<uint32_t, uint32_t>>* by_degree_scratch,
    std::vector<Bitset>* color_rows,
    const std::vector<uint32_t>* degrees = nullptr) {
  // Collect candidates with their induced degrees; color in descending
  // degree order (a standard effective heuristic for clique bounding).
  // When the caller already holds the degrees (the branch-and-bound
  // kernels compute them once per node), reuse them instead of paying a
  // second intersect+popcount sweep.
  std::vector<std::pair<uint32_t, uint32_t>>& by_degree = *by_degree_scratch;
  by_degree.clear();
  if (degrees != nullptr) {
    candidates.ForEach([&](size_t v) {
      by_degree.emplace_back((*degrees)[v], static_cast<uint32_t>(v));
    });
  } else {
    candidates.ForEach([&](size_t v) {
      by_degree.emplace_back(
          graph.DegreeWithin(static_cast<uint32_t>(v), candidates),
          static_cast<uint32_t>(v));
    });
  }
  std::sort(by_degree.begin(), by_degree.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });

  // (*color_rows)[c], for c < num_colors, holds the vertices assigned
  // color c. Rows past num_colors are retained capacity from earlier
  // calls and must be Reshaped before first use in this call.
  size_t num_colors = 0;
  for (const auto& [degree, v] : by_degree) {
    (void)degree;
    bool placed = false;
    for (size_t c = 0; c < num_colors; ++c) {
      Bitset& members = (*color_rows)[c];
      if (!graph.AdjacencyOf(v).Intersects(members)) {
        members.Set(v);
        placed = true;
        break;
      }
    }
    if (!placed) {
      if (num_colors > early_exit_above) {
        return static_cast<uint32_t>(num_colors + 1);
      }
      if (color_rows->size() == num_colors) {
        color_rows->emplace_back(graph.NumVertices());
      } else {
        (*color_rows)[num_colors].Reshape(graph.NumVertices());
      }
      (*color_rows)[num_colors].Set(v);
      ++num_colors;
    }
  }
  return static_cast<uint32_t>(num_colors);
}

}  // namespace

uint32_t ColoringBoundWithin(const DichromaticGraph& graph,
                             const Bitset& candidates,
                             uint32_t early_exit_above) {
  std::vector<std::pair<uint32_t, uint32_t>> by_degree;
  std::vector<Bitset> color_rows;
  return ColoringBoundImpl(graph, candidates, early_exit_above, &by_degree,
                           &color_rows);
}

uint32_t ColoringBoundWithin(const DichromaticGraph& graph,
                             const Bitset& candidates,
                             uint32_t early_exit_above, SearchArena* arena,
                             const std::vector<uint32_t>* degrees) {
  return ColoringBoundImpl(graph, candidates, early_exit_above,
                           &arena->pairs(), &arena->color_rows(), degrees);
}

}  // namespace mbc

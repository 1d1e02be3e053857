// Copyright 2026 The balanced-clique Authors.
#include "src/core/mbc_heu.h"

#include <algorithm>
#include <vector>

#include "src/common/arena.h"
#include "src/common/bitset.h"
#include "src/common/random.h"
#include "src/dichromatic/network_builder.h"
#include "src/dichromatic/reductions.h"
#include "src/graph/graph_index.h"

namespace mbc {
namespace {

/// Algorithm 3 Lines 5-7: pick from the right side when the left side is
/// exhausted or already at least as large as the right side.
bool PickRight(size_t left_avail, size_t right_avail, size_t left_size,
               size_t right_size) {
  return left_avail == 0 || (right_avail != 0 && left_size >= right_size);
}

/// Alternating-side greedy growth (Algorithm 3 Lines 5-7) from the current
/// clique state. Consumes `*candidates`; members join `*members` and the
/// side counters. Without `rng` the first max-degree candidate (ascending
/// local id) wins — the paper's deterministic rule. With `rng`, ties among
/// max-degree candidates of the chosen side break uniformly at random (the
/// local-search move randomization); `ties` is caller-owned scratch.
void GrowAlternating(const DichromaticGraph& g, Bitset* candidates,
                     Bitset* members, size_t* left_size, size_t* right_size,
                     Rng* rng, std::vector<uint32_t>* ties,
                     ExecutionContext* exec) {
  const Bitset& left_mask = g.LeftMask();
  while (candidates->Any()) {
    if (exec != nullptr && exec->Checkpoint()) return;
    const size_t left_avail = candidates->CountAnd(left_mask);
    const size_t total_avail = candidates->Count();
    const size_t right_avail = total_avail - left_avail;

    const bool pick_right =
        PickRight(left_avail, right_avail, *left_size, *right_size);

    uint32_t best = 0;
    uint32_t best_degree = 0;
    bool found = false;
    if (rng != nullptr) ties->clear();
    candidates->ForEach([&](size_t v) {
      const bool is_left = left_mask.Test(v);
      if (pick_right == is_left) return;
      const uint32_t degree =
          g.DegreeWithin(static_cast<uint32_t>(v), *candidates);
      if (!found || degree > best_degree) {
        found = true;
        best = static_cast<uint32_t>(v);
        best_degree = degree;
        if (rng != nullptr) {
          ties->clear();
          ties->push_back(best);
        }
      } else if (rng != nullptr && degree == best_degree) {
        ties->push_back(static_cast<uint32_t>(v));
      }
    });
    MBC_CHECK(found);
    if (rng != nullptr && ties->size() > 1) {
      best = (*ties)[rng->NextBounded(ties->size())];
    }

    members->Set(best);
    (g.IsLeft(best) ? *left_size : *right_size) += 1;
    *candidates &= g.AdjacencyOf(best);
    candidates->Reset(best);
  }
}

/// Turns a member bitset of `net` into a canonical BalancedClique in the
/// ids of the graph the network was built from.
BalancedClique MaterializeLocal(const DichromaticNetwork& net,
                                const Bitset& members) {
  BalancedClique result;
  members.ForEach([&](size_t local) {
    auto& side = net.graph.IsLeft(local) ? result.left : result.right;
    side.push_back(net.to_original[local]);
  });
  result.Canonicalize();
  return result;
}

/// The five degree/polar anchors, in order. The paper anchors at the vertex
/// with the largest min{d+(u), d-(u)}. We additionally try the vertices
/// maximizing d+, d- and the total degree: a large balanced clique with
/// skewed sides (e.g. TripAdvisor's 45|1871 optimum) is anchored by a
/// big-d+ or big-d- member rather than a balanced one, and a greedy run
/// costs only O(m). The raw-degree anchors can all be "saturated hubs"
/// whose neighborhoods hold no large balanced clique, so the vertex of
/// maximum polar-core number pn (Lemma 5, the principled anchor for a
/// *balanced* core) rides along, read from the graph's index: the first
/// vertex of maximum pn.
std::vector<VertexId> DegreeAndPolarAnchors(const SignedGraph& graph) {
  const VertexId n = graph.NumVertices();
  VertexId by_min = 0;
  VertexId by_pos = 0;
  VertexId by_neg = 0;
  VertexId by_total = 0;
  uint32_t best_min = 0;
  uint32_t best_pos = 0;
  uint32_t best_neg = 0;
  uint32_t best_total = 0;
  for (VertexId v = 0; v < n; ++v) {
    const uint32_t pos = graph.PositiveDegree(v);
    const uint32_t neg = graph.NegativeDegree(v);
    if (std::min(pos, neg) > best_min) {
      best_min = std::min(pos, neg);
      by_min = v;
    }
    if (pos > best_pos) {
      best_pos = pos;
      by_pos = v;
    }
    if (neg > best_neg) {
      best_neg = neg;
      by_neg = v;
    }
    if (pos + neg > best_total) {
      best_total = pos + neg;
      by_total = v;
    }
  }
  const PolarCoreNumbers& polar = graph.Index().Polar(graph);
  const VertexId by_polar = static_cast<VertexId>(
      std::find(polar.pn.begin(), polar.pn.end(), polar.max) -
      polar.pn.begin());
  return {by_min, by_pos, by_neg, by_total, by_polar};
}

}  // namespace

MbcHeuResult MbcHeuristicSearch(const SignedGraph& graph, uint32_t tau,
                                const MbcHeuOptions& options) {
  MbcHeuResult result;
  ExecutionScope scope(options.exec);
  ExecutionContext* exec = scope.get();
  const auto finish = [&]() -> MbcHeuResult& {
    result.stats.interrupt_reason = exec->reason();
    result.stats.timed_out = exec->Interrupted();
    return result;
  };
  if (graph.NumVertices() == 0) return finish();

  // ---- Anchor pool: degree/polar anchors + the densest tail of the
  // degeneracy order (promoted from the brownout tier — the last vertices
  // of the peeling order live in the region of highest core numbers, the
  // natural place to grow a large dichromatic neighborhood).
  std::vector<VertexId> anchors = DegreeAndPolarAnchors(graph);
  if (options.degeneracy_anchors > 0) {
    const std::vector<VertexId>& order =
        graph.Index().DegeneracyOrder(graph);
    const size_t n = order.size();
    const size_t take = std::min<size_t>(options.degeneracy_anchors, n);
    for (size_t i = 0; i < take; ++i) anchors.push_back(order[n - 1 - i]);
  }
  // Dedupe, preserving first-seen order (the pool is tiny).
  {
    std::vector<VertexId> unique;
    unique.reserve(anchors.size());
    for (VertexId anchor : anchors) {
      if (std::find(unique.begin(), unique.end(), anchor) == unique.end()) {
        unique.push_back(anchor);
      }
    }
    anchors.swap(unique);
  }

  // ---- Per-anchor state, hoisted and arena-backed: after the largest
  // network has been seen, an entire anchor (greedy + every local-search
  // round) runs without heap allocation.
  DichromaticNetworkBuilder builder(graph);
  DichromaticNetwork net;
  SearchArena arena;
  Rng rng;
  std::vector<uint32_t> ties;
  BalancedClique best;
  // Each anchor's network is the induced subgraph of g_u over the vertices
  // marked in `in_network`, an alive filter kept all-zero between anchors.
  // kCovered marks a member whose g_u-neighborhood is in the network.
  constexpr uint8_t kInNetwork = 1;
  constexpr uint8_t kCovered = 2;
  std::vector<uint8_t> in_network(graph.NumVertices(), 0);
  std::vector<VertexId> grown;
  std::vector<VertexId> previous;
  std::vector<uint32_t> remap;
  std::vector<uint32_t> saved;

  bool first_anchor = true;
  for (VertexId anchor : anchors) {
    // The first anchor's greedy runs ungoverned (see mbc_heu.h).
    ExecutionContext* grow_exec = first_anchor ? nullptr : exec;
    first_anchor = false;

    // The greedy's first step, the only one that looks at all of N(u),
    // runs on the signed graph; it takes the one checkpoint tick that
    // GrowAlternating's first iteration would. Every later pick lies in
    // the pick's g_u-neighborhood, so the network is built over u, the
    // pick and those neighbors.
    VertexId pick = anchor;
    grown.clear();
    const bool picked = graph.Degree(anchor) > 0 &&
                        (grow_exec == nullptr || !grow_exec->Checkpoint());
    if (picked) {
      const bool right = PickRight(graph.PositiveDegree(anchor),
                                   graph.NegativeDegree(anchor), 1, 0);
      pick = builder.MaxDegreeMember(
          anchor, right ? Side::kRight : Side::kLeft, &grown);
    }
    in_network[anchor] = kInNetwork;
    in_network[pick] = picked ? kInNetwork | kCovered : kInNetwork;
    for (VertexId v : grown) in_network[v] = kInNetwork;
    // Local order within a side is id order with or without the filter,
    // so every later pick and tie resolves as in the full g_u.
    builder.BuildInto(anchor, nullptr, in_network.data(), &net);
    const DichromaticGraph& g = net.graph;
    const uint32_t full_k = 1 + graph.Degree(anchor);
    uint32_t k = g.NumVertices();
    bool full = k == full_k;
    result.stats.max_network_vertices =
        std::max(result.stats.max_network_vertices, k);
    arena.BindNetwork(k);
    SearchArena::Frame& frame = arena.FrameAt(0);
    SearchArena::Frame& scratch = arena.FrameAt(1);
    Bitset& members = frame.cand;       // current clique
    Bitset& candidates = frame.pool;    // growth frontier
    Bitset& anchor_best = frame.remaining;
    Bitset& backup = scratch.cand;      // revert state for rejected moves

    // Greedy seed (Algorithm 3), continued from {u, pick}.
    members.Reshape(k);
    members.Set(0);
    size_t left_size = 1;
    size_t right_size = 0;
    if (picked) {
      const uint32_t b = static_cast<uint32_t>(
          std::find(net.to_original.begin() + 1, net.to_original.end(),
                    pick) -
          net.to_original.begin());
      members.Set(b);
      (g.IsLeft(b) ? left_size : right_size) += 1;
      candidates.AssignAnd(g.AdjacencyOf(0), g.AdjacencyOf(b));
    } else {
      candidates.Reshape(k);
    }
    GrowAlternating(g, &candidates, &members, &left_size, &right_size,
                    /*rng=*/nullptr, /*ties=*/nullptr, grow_exec);
    result.stats.greedy_size =
        std::max(result.stats.greedy_size, left_size + right_size);
    result.anchor_cliques.push_back(MaterializeLocal(net, members));

    size_t anchor_best_size = 0;
    if (std::min(left_size, right_size) >= tau) {
      anchor_best.CopyFrom(members);
      anchor_best_size = left_size + right_size;
    } else {
      anchor_best.Reshape(k);
    }

    // Grows the network by y, which becomes covered, and the vertices in
    // `grown` (y's g_u-neighbors), or builds the whole g_u once the
    // network would pass half of it. The bitsets that outlive a move and
    // the dropped vertex move to the new local ids: the old network is an
    // induced subgraph of the new one in the same local order, so its ids
    // map by one merge walk.
    const auto extend = [&](VertexId y, uint32_t* drop) {
      size_t size = net.to_original.size();
      for (VertexId v : grown) {
        if (in_network[v] == 0) {
          in_network[v] = kInNetwork;
          ++size;
        }
      }
      if (in_network[y] == 0) ++size;
      in_network[y] = kInNetwork | kCovered;
      previous.assign(net.to_original.begin(), net.to_original.end());
      full = 2 * size > full_k;
      builder.BuildInto(anchor, nullptr, full ? nullptr : in_network.data(),
                        &net);
      k = g.NumVertices();
      result.stats.max_network_vertices =
          std::max(result.stats.max_network_vertices, k);
      arena.BindNetwork(k);
      remap.resize(previous.size());
      uint32_t next = 0;
      for (size_t i = 0; i < previous.size(); ++i) {
        while (net.to_original[next] != previous[i]) ++next;
        remap[i] = next;
      }
      for (Bitset* bits : {&members, &backup, &anchor_best}) {
        saved.clear();
        bits->ForEach(
            [&](size_t v) { saved.push_back(static_cast<uint32_t>(v)); });
        bits->Reshape(k);
        for (uint32_t v : saved) bits->Set(remap[v]);
      }
      *drop = remap[*drop];
    };

    // ---- Local search: seeded drop-and-regrow. Each round removes one
    // random member, regrows with randomized degree tie-breaks (the
    // removed vertex tabu for the round), then closes with the
    // deterministic add pass — a (1, ≥1) swap when the regrowth finds a
    // different filling, a no-op plateau step otherwise. The current
    // state never shrinks (worse moves revert), so the per-anchor best is
    // monotone in the iteration count and a shorter run is a prefix of a
    // longer one under the same seed.
    //
    // A round only reads the common g_u-neighborhood of the members it
    // keeps, which lies inside N_gu(y) for any kept member y other than
    // u. So the round runs in the current network when a kept member is
    // covered, grows the network by the thinnest kept member otherwise,
    // and, when u is the only member kept, makes the regrowth's first
    // pick (over all of N(u)) on the signed graph and grows by it.
    rng.Reseed(options.seed ^
               (0x9e3779b97f4a7c15ull * (static_cast<uint64_t>(anchor) + 1)));
    bool interrupted = false;
    for (uint32_t iter = 0; iter < options.local_search_iterations; ++iter) {
      if (exec->Checkpoint()) {
        interrupted = true;
        break;
      }
      const size_t size_before = left_size + right_size;
      // Nothing to swap; the bound is the whole g_u, not the network.
      if (size_before == 0 || size_before >= full_k) break;
      ++result.stats.ls_iterations;
      backup.CopyFrom(members);
      const size_t backup_left = left_size;
      const size_t backup_right = right_size;

      // Drop a uniformly random member.
      size_t drop_index = rng.NextBounded(size_before);
      uint32_t drop = 0;
      members.ForEach([&](size_t v) {
        if (drop_index == 0) drop = static_cast<uint32_t>(v);
        --drop_index;
      });
      members.Reset(drop);
      (g.IsLeft(drop) ? left_size : right_size) -= 1;

      bool covered = full;
      uint32_t thinnest = 0;
      if (!covered) {
        members.ForEach([&](size_t m) {
          if (m == 0) return;
          const VertexId v = net.to_original[m];
          if ((in_network[v] & kCovered) != 0) {
            covered = true;
          } else if (thinnest == 0 ||
                     graph.Degree(v) <
                         graph.Degree(net.to_original[thinnest])) {
            thinnest = static_cast<uint32_t>(m);
          }
        });
      }
      if (!covered && thinnest != 0) {
        const VertexId y = net.to_original[thinnest];
        grown.clear();
        builder.AppendNetworkNeighbors(anchor, y, &grown);
        extend(y, &drop);
        covered = true;
      } else if (!covered && !exec->Checkpoint()) {
        // C = {u, drop}: the regrowth's first pick ranges over all of N(u),
        // so it is made on the signed graph, with the dense loop's first
        // tick; the network then grows by the pick, which covers the rest.
        MBC_DCHECK(members.Count() == 1 && members.Test(0));
        const bool drop_left = g.IsLeft(drop);
        const bool right =
            PickRight(graph.PositiveDegree(anchor) - (drop_left ? 1 : 0),
                      graph.NegativeDegree(anchor) - (drop_left ? 0 : 1),
                      left_size, right_size);
        grown.clear();
        const VertexId p = builder.MaxDegreeMember(
            anchor, right ? Side::kRight : Side::kLeft,
            net.to_original[drop], &rng, &ties, &grown);
        extend(p, &drop);
        const uint32_t local = static_cast<uint32_t>(
            std::find(net.to_original.begin() + 1, net.to_original.end(),
                      p) -
            net.to_original.begin());
        members.Set(local);
        (g.IsLeft(local) ? left_size : right_size) += 1;
        covered = true;
      }

      // Regrow (drop is tabu) with randomized tie-breaks; skipped only when
      // the first pick's tick found the run interrupted.
      if (covered) {
        candidates.ReshapeUninit(k);
        candidates.SetAll();
        members.ForEach(
            [&](size_t m) { candidates &= g.AdjacencyOf(m); });
        candidates.AndNot(members);
        candidates.Reset(drop);
        GrowAlternating(g, &candidates, &members, &left_size, &right_size,
                        &rng, &ties, exec);
      }

      // Closing add pass: the tabu lifts, so `drop` (or anything the new
      // filling made compatible) can re-join deterministically.
      candidates.ReshapeUninit(k);
      candidates.SetAll();
      members.ForEach(
          [&](size_t m) { candidates &= g.AdjacencyOf(m); });
      candidates.AndNot(members);
      GrowAlternating(g, &candidates, &members, &left_size, &right_size,
                      /*rng=*/nullptr, /*ties=*/nullptr, exec);

      const size_t size_after = left_size + right_size;
      if (size_after < size_before) {
        // Worse move: revert (plateau moves — equal size, different
        // members — are kept, they are how the search drifts).
        members.CopyFrom(backup);
        left_size = backup_left;
        right_size = backup_right;
        continue;
      }
      if (std::min(left_size, right_size) >= tau &&
          size_after > anchor_best_size) {
        anchor_best.CopyFrom(members);
        anchor_best_size = size_after;
        ++result.stats.ls_improvements;
      }
    }

    if (anchor_best_size > best.size()) {
      best = MaterializeLocal(net, anchor_best);
    }
    for (VertexId v : net.to_original) in_network[v] = 0;
    if (interrupted || exec->Probe()) break;
  }

  result.clique = std::move(best);
  return finish();
}

BalancedClique MbcHeuristic(const SignedGraph& graph, uint32_t tau,
                            ExecutionContext* exec) {
  MbcHeuOptions options;
  options.local_search_iterations = 0;
  options.degeneracy_anchors = 0;
  options.exec = exec;
  return MbcHeuristicSearch(graph, tau, options).clique;
}

}  // namespace mbc

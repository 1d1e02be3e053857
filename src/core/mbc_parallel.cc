// Copyright 2026 The balanced-clique Authors.
#include "src/core/mbc_parallel.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/arena.h"
#include "src/common/bitset.h"
#include "src/core/mbc_heu.h"
#include "src/core/mdc_solver.h"
#include "src/core/reductions.h"
#include "src/core/work_steal.h"
#include "src/dichromatic/network_builder.h"
#include "src/dichromatic/reductions.h"
#include "src/graph/cores.h"

namespace mbc {
namespace {

/// Ego networks with at least this many pruned candidates are split into
/// per-branch subtasks (ParallelMbcOptions::split_threshold = 0). Below
/// it, the split bookkeeping (snapshot clones, task allocation) costs more
/// than the imbalance it cures.
constexpr uint32_t kDefaultSplitThreshold = 96;

/// Canonical total order on canonicalized cliques: lexicographic on the
/// left side, then the right. Distinct cliques never compare equal, so the
/// publisher's choice among equal-size witnesses is schedule-independent.
bool CanonicalLess(const BalancedClique& a, const BalancedClique& b) {
  if (a.left != b.left) return a.left < b.left;
  return a.right < b.right;
}

// The shared incumbent. `best_size` is the atomic pruning bound every
// MdcSolver node reads; the witness itself is guarded by the mutex and
// only ever replaced by a strictly larger clique or an equal-size,
// canonically smaller one — so the final witness is the lex-min maximum
// clique no matter in which order the offers arrived.
struct GlobalIncumbent {
  std::atomic<size_t> best_size{0};
  std::mutex mutex;
  BalancedClique best;  // input-graph ids, canonicalized
  std::atomic<uint64_t> updates{0};

  /// `clique` must be canonicalized. Cheap relaxed reject for offers that
  /// cannot matter; the mutex settles the rest.
  void Offer(BalancedClique&& clique) {
    const size_t sz = clique.size();
    if (sz < best_size.load(std::memory_order_relaxed)) return;
    std::lock_guard<std::mutex> lock(mutex);
    if (sz > best.size() || (sz == best.size() && CanonicalLess(clique, best))) {
      best = std::move(clique);
      updates.fetch_add(1, std::memory_order_relaxed);
      // CAS-max publish: the atomic only ever grows, so a stale larger
      // value from a racing publisher is kept.
      size_t cur = best_size.load(std::memory_order_relaxed);
      while (cur < sz && !best_size.compare_exchange_weak(
                             cur, sz, std::memory_order_relaxed)) {
      }
    }
  }
};

/// A split ego network, shared by its subtasks (the last finishing subtask
/// releases it).
struct EgoContext {
  DichromaticNetwork net;
};

/// One unit of schedulable work: either a whole ego network (build, prune,
/// maybe split, else solve) or one top-level MDC branch of a split one.
struct TaskNode {
  enum class Kind { kEgo, kSub };
  Kind kind = Kind::kEgo;
  VertexId ego = 0;  // kEgo: the ego vertex (work-graph id)
  // kSub fields:
  std::shared_ptr<EgoContext> ctx;
  uint32_t branch_vertex = 0;  // local id within ctx->net
  int32_t tau_l = 0;           // residual thresholds after seeding {0, v}
  int32_t tau_r = 0;
  /// The branching frontier cloned from the splitter's SearchArena: `cand`
  /// is this subtask's candidate set (adj(v) ∩ remaining at split time);
  /// `pool`/`remaining` carry the split root's state for context.
  SearchArena::FrameSnapshot frame;
};

struct Scheduler {
  std::vector<std::unique_ptr<WorkStealingDeque<TaskNode*>>> deques;
  /// Tasks pushed but not yet finished executing. Zero means no task
  /// exists anywhere and none can appear — the termination condition.
  std::atomic<size_t> outstanding{0};
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> networks_built{0};
  std::atomic<uint64_t> mdc_instances{0};
  std::atomic<uint64_t> steals{0};
  std::atomic<uint64_t> splits{0};
};

// Per-thread search state plus the scheduler loop. All scratch (network,
// solver arena, pruning bitsets) is reused across every task this worker
// executes, preserving the zero-steady-state-allocation discipline of the
// sequential engine for unsplit egos.
class Worker {
 public:
  Worker(uint32_t id, uint32_t num_threads, const SignedGraph& work,
         const std::vector<VertexId>& to_input,
         const RankedOutLists& out_lists, uint32_t tau,
         uint32_t split_threshold, ExecutionContext* exec,
         GlobalIncumbent* global, Scheduler* sched)
      : id_(id),
        num_threads_(num_threads),
        to_input_(to_input),
        out_lists_(out_lists),
        tau_(tau),
        split_threshold_(split_threshold),
        exec_(exec),
        global_(global),
        sched_(sched),
        builder_(work, out_lists) {
    solver_.SetExecution(exec_);
    // One offer closure for the worker's lifetime; `cur_net_` re-points it
    // at whichever network the solver is currently searching.
    solver_.SetSharedIncumbent(
        &global_->best_size,
        [this](const std::vector<uint32_t>& local) { OfferLocal(local); });
  }

  void Run() {
    WorkStealingDeque<TaskNode*>& own = *sched_->deques[id_];
    uint64_t steals = 0;
    while (!sched_->stop.load(std::memory_order_relaxed)) {
      TaskNode* node = nullptr;
      if (!own.Pop(&node)) {
        node = StealOne(&steals);
        if (node == nullptr) {
          if (sched_->outstanding.load(std::memory_order_acquire) == 0) break;
          if (exec_->Probe()) {
            sched_->stop.store(true, std::memory_order_relaxed);
            break;
          }
          std::this_thread::yield();
          continue;
        }
      }
      RunTask(node);
      delete node;
      sched_->outstanding.fetch_sub(1, std::memory_order_release);
      // One probe per task keeps cancellation latency bounded by a single
      // (sub)search's checkpoint stride.
      if (exec_->Probe()) {
        sched_->stop.store(true, std::memory_order_relaxed);
        break;
      }
    }
    sched_->steals.fetch_add(steals, std::memory_order_relaxed);
    sched_->splits.fetch_add(splits_, std::memory_order_relaxed);
    sched_->networks_built.fetch_add(networks_built_,
                                     std::memory_order_relaxed);
    sched_->mdc_instances.fetch_add(mdc_instances_,
                                    std::memory_order_relaxed);
  }

 private:
  TaskNode* StealOne(uint64_t* steals) {
    for (uint32_t i = 1; i < num_threads_; ++i) {
      TaskNode* node = nullptr;
      if (sched_->deques[(id_ + i) % num_threads_]->Steal(&node)) {
        ++*steals;
        return node;
      }
    }
    return nullptr;
  }

  void RunTask(TaskNode* node) {
    if (node->kind == TaskNode::Kind::kEgo) {
      RunEgo(node->ego);
    } else {
      RunSub(node);
    }
  }

  /// Maps a solver-offered clique (local ids of *cur_net_) to canonical
  /// input-graph form and offers it to the global incumbent.
  void OfferLocal(const std::vector<uint32_t>& local) {
    BalancedClique clique;
    for (uint32_t lv : local) {
      const VertexId v = to_input_[cur_net_->to_original[lv]];
      (cur_net_->graph.IsLeft(lv) ? clique.left : clique.right).push_back(v);
    }
    clique.Canonicalize();
    global_->Offer(std::move(clique));
  }

  /// Ego-level prechecks, tie-preserving: an ego is skipped only when it
  /// cannot contain a clique of size >= bound — one that merely *ties* the
  /// incumbent must survive to be offered, or the canonical tie-break
  /// would depend on the schedule.
  void RunEgo(VertexId u) {
    size_t bound = global_->best_size.load(std::memory_order_relaxed);
    if (size_t{out_lists_.Degree(u)} + 1 < bound) return;

    builder_.BuildInto(u, out_lists_.rank(), nullptr, &net_);
    ++networks_built_;
    bound = global_->best_size.load(std::memory_order_relaxed);
    const uint32_t k = net_.graph.NumVertices();
    if (static_cast<size_t>(k) < bound) return;

    prune_arena_.BindNetwork(k);
    alive_.ReshapeUninit(k);
    alive_.SetAll();
    size_t alive_count = k;
    const uint32_t peel =
        bound > 0 ? static_cast<uint32_t>(bound - 1) : 0;
    KCoreWithinInPlace(net_.graph, &alive_, peel, &prune_arena_.pending(),
                       &alive_count);
    if (!alive_.Test(0) || alive_count < bound) return;
    if (bound > 0 &&
        ColoringBoundWithin(net_.graph, alive_,
                            static_cast<uint32_t>(bound - 1),
                            &prune_arena_) < bound) {
      return;
    }

    candidates_.CopyFrom(alive_);
    candidates_.Reset(0);
    const size_t cand_count = alive_count - 1;

    if (cand_count >= split_threshold_ && cand_count >= 2) {
      SplitEgo(cand_count);
      return;
    }

    cur_net_ = &net_;
    solver_.Rebind(net_.graph);
    ++mdc_instances_;
    // Results flow through the offer callback; the return value and
    // `solution_` are not consulted (tie mode).
    solver_.Solve(seed_one_, candidates_, static_cast<int32_t>(tau_) - 1,
                  static_cast<int32_t>(tau_), bound, &solution_);
  }

  /// Splits the (already pruned) ego network in `net_` at the top-level
  /// MDC branching frontier: one subtask per branchable root candidate,
  /// each carrying its candidate set cloned out of a SearchArena frame
  /// snapshot. Enumeration is in ascending local id; tie-preserving search
  /// makes any complete branch partition equivalent, so no min-degree
  /// replication is needed for determinism.
  void SplitEgo(size_t cand_count) {
    auto ctx = std::make_shared<EgoContext>();
    ctx->net = std::move(net_);  // BuildInto refills net_ on the next ego
    const DichromaticGraph& g = ctx->net.graph;
    const uint32_t k = g.NumVertices();

    split_arena_.BindNetwork(k);
    SearchArena::Frame& root = split_arena_.FrameAt(0);
    root.cand.CopyFrom(candidates_);
    const int32_t tau_l0 = static_cast<int32_t>(tau_) - 1;
    const int32_t tau_r0 = static_cast<int32_t>(tau_);

    // The root branching pool, side-restricted exactly as MdcSolver
    // restricts it: once a side's quota is met, only the other side's
    // vertices can make a candidate clique feasible... unless both quotas
    // are met, in which case every candidate branches.
    root.pool.CopyFrom(candidates_);
    if (tau_l0 > 0 && tau_r0 <= 0) {
      root.pool &= g.LeftMask();
    } else if (tau_l0 <= 0 && tau_r0 > 0) {
      root.pool.AndNot(g.LeftMask());
    }
    root.remaining.CopyFrom(candidates_);

    // The split skips MDC's root-node record; when {u} alone is feasible
    // (tau = 0) offer it so the root clique is not lost.
    if (tau_l0 <= 0 && tau_r0 <= 0) {
      cur_net_ = &ctx->net;
      OfferLocal(seed_one_);
    }

    std::vector<TaskNode*> subs;
    subs.reserve(cand_count);
    root.pool.ForEach([&](size_t v) {
      TaskNode* node = new TaskNode;
      node->kind = TaskNode::Kind::kSub;
      node->ctx = ctx;
      node->branch_vertex = static_cast<uint32_t>(v);
      const bool v_left = g.IsLeft(static_cast<uint32_t>(v));
      node->tau_l = v_left ? tau_l0 - 1 : tau_l0;
      node->tau_r = v_left ? tau_r0 : tau_r0 - 1;
      // This branch's candidates: adj(v) ∩ remaining. Built in the arena
      // frame, then cloned out with the snapshot (the clone is what
      // crosses threads; the frame itself is worker-confined).
      root.cand.AssignAnd(g.AdjacencyOf(static_cast<uint32_t>(v)),
                          root.remaining);
      split_arena_.SnapshotFrame(0, &node->frame);
      subs.push_back(node);
      root.remaining.Reset(v);
    });

    ++splits_;
    // Publish: count first, then expose the tasks to thieves.
    sched_->outstanding.fetch_add(subs.size(), std::memory_order_release);
    WorkStealingDeque<TaskNode*>& own = *sched_->deques[id_];
    for (TaskNode* node : subs) own.Push(node);
  }

  void RunSub(TaskNode* node) {
    const DichromaticGraph& g = node->ctx->net.graph;
    const size_t bound = global_->best_size.load(std::memory_order_relaxed);
    const size_t cand_count = node->frame.cand.Count();
    // Tie-preserving skip: the subtree tops out at |{0, v}| + |cand|.
    if (2 + cand_count < bound) return;

    cur_net_ = &node->ctx->net;
    solver_.Rebind(g);
    ++mdc_instances_;
    seed_two_[0] = 0;
    seed_two_[1] = node->branch_vertex;
    solver_.Solve(seed_two_, node->frame.cand, node->tau_l, node->tau_r,
                  bound, &solution_);
  }

  const uint32_t id_;
  const uint32_t num_threads_;
  const std::vector<VertexId>& to_input_;
  const RankedOutLists& out_lists_;
  const uint32_t tau_;
  const uint32_t split_threshold_;
  ExecutionContext* const exec_;
  GlobalIncumbent* const global_;
  Scheduler* const sched_;

  DichromaticNetworkBuilder builder_;
  DichromaticNetwork net_;
  MdcSolver solver_;
  SearchArena prune_arena_;
  SearchArena split_arena_;
  Bitset alive_;
  Bitset candidates_;
  std::vector<uint32_t> solution_;
  const std::vector<uint32_t> seed_one_{0};
  std::vector<uint32_t> seed_two_{0, 0};
  /// The network whose local ids the solver's offers are in.
  const DichromaticNetwork* cur_net_ = nullptr;

  uint64_t networks_built_ = 0;
  uint64_t mdc_instances_ = 0;
  uint64_t splits_ = 0;
};

}  // namespace

ParallelMbcResult ParallelMaxBalancedCliqueStar(
    const SignedGraph& graph, uint32_t tau,
    const ParallelMbcOptions& options) {
  ParallelMbcResult result;
  ExecutionScope scope(options.exec);
  ExecutionContext* exec = scope.get();

  // Sequential preamble, identical to MBC* (and to every thread count —
  // the deterministic baseline the parallel phase refines).
  ReducedSignedGraph reduced = ApplyVertexReduction(graph, tau);
  BalancedClique best;
  if (options.run_heuristic && reduced.graph.NumVertices() > 0) {
    best = MbcHeuristic(reduced.graph, tau, exec);
    best.MapToOriginal(reduced.to_original);
    best.Canonicalize();
  }
  if (options.initial_clique != nullptr && !options.initial_clique->empty()) {
    // Warm start: adopt the caller's incumbent when it beats the built-in
    // heuristic (equal sizes keep the canonically smaller witness, so the
    // preamble stays deterministic whatever the caller passes).
    MBC_CHECK(options.initial_clique->SatisfiesThreshold(tau));
    BalancedClique seed = *options.initial_clique;
    seed.Canonicalize();
    if (seed.size() > best.size() ||
        (seed.size() == best.size() && CanonicalLess(seed, best))) {
      best = std::move(seed);
    }
  }
  size_t prune_bound = best.size();
  if (tau >= 1) {
    prune_bound = std::max<size_t>(prune_bound, 2 * size_t{tau} - 1);
  }

  // Tie-preserving outer core (MBC* peels at prune_bound): members of a
  // clique that merely *ties* the heuristic have degree prune_bound - 1,
  // and the canonical tie-break needs those cliques to stay reachable.
  const ReducedSignedGraph cored = ApplyCoreReduction(
      reduced, prune_bound > 0 ? static_cast<uint32_t>(prune_bound - 1) : 0);
  const SignedGraph& work = cored.graph;
  const std::vector<VertexId>& to_input = cored.to_original;

  GlobalIncumbent global;
  global.best = std::move(best);
  global.best_size.store(prune_bound, std::memory_order_relaxed);

  // One clamp for every path: the empty-work case and the pool case report
  // the same number, computed the same way.
  uint32_t threads = options.num_threads;
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  threads =
      std::min<uint32_t>(threads, std::max<uint32_t>(1, work.NumVertices()));
  result.threads_used = threads;

  Scheduler sched;
  if (work.NumVertices() > 0) {
    const DegeneracyResult degeneracy = DegeneracyDecompose(work);
    // One oriented copy of the graph, shared read-only by every worker.
    const RankedOutLists out_lists(work, degeneracy.rank.data());
    const uint32_t split_threshold = options.split_threshold > 0
                                         ? options.split_threshold
                                         : kDefaultSplitThreshold;

    const size_t n = degeneracy.order.size();
    sched.deques.reserve(threads);
    for (uint32_t t = 0; t < threads; ++t) {
      sched.deques.push_back(
          std::make_unique<WorkStealingDeque<TaskNode*>>());
    }
    // Seed the deques round-robin, in reverse degeneracy order (the
    // MBC* visit order), before any worker exists — single-threaded, so
    // the owner-only Push contract holds trivially.
    sched.outstanding.store(n, std::memory_order_relaxed);
    for (size_t i = 0; i < n; ++i) {
      TaskNode* node = new TaskNode;
      node->kind = TaskNode::Kind::kEgo;
      node->ego = degeneracy.order[n - 1 - i];
      sched.deques[i % threads]->Push(node);
    }

    std::vector<std::unique_ptr<Worker>> workers;
    workers.reserve(threads);
    for (uint32_t t = 0; t < threads; ++t) {
      workers.push_back(std::make_unique<Worker>(
          t, threads, work, to_input, out_lists, tau, split_threshold, exec,
          &global, &sched));
    }
    if (threads == 1) {
      // No pool for a single worker: run the scheduler loop inline (the
      // service's intra-query-off clamp lands here; same answer, no spawn).
      workers[0]->Run();
    } else {
      std::vector<std::thread> pool;
      pool.reserve(threads);
      for (uint32_t t = 0; t < threads; ++t) {
        pool.emplace_back([&workers, t] { workers[t]->Run(); });
      }
      for (std::thread& thread : pool) thread.join();
    }

    // An interrupted run may leave unexecuted tasks behind; reclaim them.
    for (auto& deque : sched.deques) {
      TaskNode* node = nullptr;
      while (deque->Pop(&node)) delete node;
    }
  }

  result.clique = std::move(global.best);
  result.num_networks_built =
      sched.networks_built.load(std::memory_order_relaxed);
  result.num_mdc_instances =
      sched.mdc_instances.load(std::memory_order_relaxed);
  result.num_steals = sched.steals.load(std::memory_order_relaxed);
  result.num_splits = sched.splits.load(std::memory_order_relaxed);
  result.num_incumbent_updates = global.updates.load(std::memory_order_relaxed);
  result.interrupt_reason = exec->reason();
  result.timed_out = exec->Interrupted();
  return result;
}

}  // namespace mbc

// Copyright 2026 The balanced-clique Authors.
//
// GraphStore: named, immutable, reference-counted SignedGraph snapshots.
// Queries resolve a name to a shared_ptr snapshot and keep it alive for
// the duration of the solve, so Evict never invalidates a running query —
// it only unlinks the name; the bytes go away when the last query drops
// its reference. Each snapshot carries a content fingerprint (FNV-1a over
// the CSR arrays) that the ResultCache keys on.
#ifndef MBC_SERVICE_GRAPH_STORE_H_
#define MBC_SERVICE_GRAPH_STORE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/core/incremental_core.h"
#include "src/graph/delta_graph.h"
#include "src/graph/signed_graph.h"

namespace mbc {

class GraphStore {
 public:
  /// One immutable snapshot. The MemoryTracker account is settled by the
  /// snapshot's own lifetime (registered on load, released when the last
  /// reference — store entry or in-flight query — drops).
  ///
  /// `version` tags the snapshot's place in a name's mutation lineage:
  /// fresh loads are version 0, every effective mutation batch mints a
  /// new snapshot with version + 1. In-flight queries hold their
  /// snapshot's shared_ptr, so they keep reading their version while new
  /// queries resolve the name to the head.
  class Snapshot {
   public:
    Snapshot(std::string name, SignedGraph graph, uint64_t version = 0);
    ~Snapshot();
    Snapshot(const Snapshot&) = delete;
    Snapshot& operator=(const Snapshot&) = delete;

    const std::string& name() const { return name_; }
    const SignedGraph& graph() const { return graph_; }
    uint64_t fingerprint() const { return fingerprint_; }
    uint64_t version() const { return version_; }
    /// Heap bytes owned by the snapshot (CSR arrays and the parts of the
    /// graph's index built so far) plus, for mapped graphs, the bytes of
    /// the mapping resident when last sampled. A cold mmap load charges
    /// only its faulted header/offset pages, not the file size.
    size_t memory_bytes() const {
      return memory_bytes_.load(std::memory_order_relaxed);
    }
    bool mapped() const { return graph_.IsMapped(); }
    size_t mapped_bytes() const { return graph_.MappedBytes(); }

    /// Re-samples the charge. Queries fault adjacency pages in and build
    /// the graph's index after load, so the load-time charge goes stale;
    /// Evict calls this so the MemoryTracker uncharge (when the last
    /// reference drops) matches what the snapshot actually holds.
    void RefreshMemoryAccounting() const;

   private:
    const std::string name_;
    const SignedGraph graph_;
    const uint64_t fingerprint_;
    const uint64_t version_;
    /// Mutable + atomic: RefreshMemoryAccounting re-samples through the
    /// const shared_ptr the store hands out.
    mutable std::atomic<size_t> memory_bytes_;
  };

  using SnapshotPtr = std::shared_ptr<const Snapshot>;

  struct ListEntry {
    std::string name;
    uint64_t fingerprint = 0;
    VertexId num_vertices = 0;
    EdgeCount num_edges = 0;
    size_t memory_bytes = 0;
    bool mapped = false;
    size_t mapped_bytes = 0;
  };

  /// Result of one applied mutation batch against a named graph.
  struct MutationOutcome {
    /// Fingerprint the mutated snapshot replaced (cache entries keyed
    /// under it are what ApplyDelta re-examines).
    uint64_t old_fingerprint = 0;
    /// Per-batch apply stats, including the new version/fingerprint,
    /// dirty region and add-clique bound (see DeltaApplyResult).
    DeltaApplyResult stats;
    /// Vertices whose core number changed / were examined by the bounded
    /// incremental maintenance traversal.
    uint32_t core_affected = 0;
    uint32_t core_visited = 0;
  };

  struct CompactionOutcome {
    uint64_t old_fingerprint = 0;
    uint64_t fingerprint = 0;
    uint64_t version = 0;
    /// False when the name had no drift to compact (fingerprint already
    /// content-addressed).
    bool changed = false;
  };

  /// Registers `graph` under `name`. Fails with InvalidArgument if the
  /// name is already bound (evict first — silent rebinding would make two
  /// same-name responses incomparable).
  Status Load(const std::string& name, SignedGraph graph);

  /// Loads from a graph file. Sniffs the content: binary-v2 files are
  /// mmap'ed zero-copy (O(header + offsets) work, adjacency pages fault
  /// on demand), binary-v1 files go through the copying reader, anything
  /// else is parsed as a text edge list.
  Status LoadFromFile(const std::string& name, const std::string& path);

  /// Unbinds `name` (and its mutation log). In-flight queries holding
  /// the snapshot are unaffected. NotFound if the name is not bound.
  Status Evict(const std::string& name);

  /// Applies one mutation batch to `name`: patch-merges a new immutable
  /// head snapshot (version + 1, derived fingerprint), updates the
  /// incremental core tracker from the effective skeleton edits, and
  /// compacts if `budget` is exceeded. Heavy work runs under a per-name
  /// mutation lock — concurrent queries (even of other graphs) are never
  /// blocked; the store lock is only taken briefly to swap the head
  /// pointer. A batch with no effective ops leaves the snapshot in place.
  Result<MutationOutcome> Mutate(const std::string& name,
                                 const MutationBatch& batch,
                                 const DeltaBudget& budget);

  /// Forces compaction of `name`'s mutation log: re-fingerprints the head
  /// by content (O(m)) and re-bases the log. The snapshot is replaced
  /// in-place (same version, same adjacency, content fingerprint).
  Result<CompactionOutcome> Compact(const std::string& name);

  /// Snapshot bound to `name`, or NotFound.
  Result<SnapshotPtr> Find(const std::string& name) const;

  /// All bound snapshots, sorted by name.
  std::vector<ListEntry> List() const;

  size_t size() const;
  /// Sum of memory_bytes over currently bound snapshots.
  size_t TotalMemoryBytes() const;

 private:
  /// Per-name streaming state: the mutation log and the dynamic core
  /// tracker, created lazily on the first mutation. The per-state mutex
  /// serializes mutations of one name and is never held together with
  /// mutex_ while doing O(m) work.
  struct DeltaState {
    std::mutex mutex;
    std::optional<DeltaSignedGraph> log;
    std::optional<DynamicCoreTracker> cores;
  };

  /// Fetches the head snapshot and (creating it if needed) the delta
  /// state for `name`, or NotFound.
  Status AcquireForMutation(const std::string& name, SnapshotPtr* head,
                            std::shared_ptr<DeltaState>* state);
  /// Swaps `name` from `expected` to `next`; fails if the head moved
  /// (concurrent evict/reload).
  Status SwapHead(const std::string& name, const SnapshotPtr& expected,
                  SnapshotPtr next);

  mutable std::shared_mutex mutex_;
  std::map<std::string, SnapshotPtr> snapshots_;
  std::map<std::string, std::shared_ptr<DeltaState>> deltas_;
};

}  // namespace mbc

#endif  // MBC_SERVICE_GRAPH_STORE_H_

// Copyright 2026 The balanced-clique Authors.
#include "src/service/graph_store.h"

#include <cstdio>
#include <cstring>
#include <mutex>
#include <utility>

#include "src/common/fingerprint.h"
#include "src/common/memory.h"
#include "src/graph/binary_io.h"
#include "src/graph/graph_index.h"
#include "src/graph/graph_io.h"

namespace mbc {

namespace {

size_t SnapshotMemoryBytes(const SignedGraph& graph) {
  // The index is built by the first query that needs it, after load.
  size_t bytes = graph.MemoryBytes() + graph.Index().MemoryBytes() +
                 sizeof(GraphStore::Snapshot);
  if (graph.IsMapped()) {
    // Charge only the pages the load actually faulted (header + offset
    // arrays for a cold load), not the file size: mapped adjacency is
    // reclaimable clean page cache, shared across processes.
    bytes += MappedResidentBytes(graph.MappedBase(), graph.MappedBytes());
  }
  return bytes;
}

}  // namespace

GraphStore::Snapshot::Snapshot(std::string name, SignedGraph graph,
                               uint64_t version)
    : name_(std::move(name)),
      graph_(std::move(graph)),
      fingerprint_(graph_.FingerprintHint()
                       ? *graph_.FingerprintHint()
                       : FingerprintSignedGraph(graph_)),
      version_(version),
      memory_bytes_(SnapshotMemoryBytes(graph_)) {
  MemoryTracker::Global().Add(memory_bytes_.load(std::memory_order_relaxed));
}

GraphStore::Snapshot::~Snapshot() {
  MemoryTracker::Global().Sub(memory_bytes_.load(std::memory_order_relaxed));
}

void GraphStore::Snapshot::RefreshMemoryAccounting() const {
  const size_t current = SnapshotMemoryBytes(graph_);
  const size_t charged =
      memory_bytes_.exchange(current, std::memory_order_relaxed);
  if (current > charged) {
    MemoryTracker::Global().Add(current - charged);
  } else if (charged > current) {
    MemoryTracker::Global().Sub(charged - current);
  }
}

Status GraphStore::Load(const std::string& name, SignedGraph graph) {
  if (name.empty()) {
    return Status::InvalidArgument("graph name must be non-empty");
  }
  auto snapshot = std::make_shared<const Snapshot>(name, std::move(graph));
  std::unique_lock lock(mutex_);
  const auto [it, inserted] = snapshots_.emplace(name, std::move(snapshot));
  (void)it;
  if (!inserted) {
    return Status::InvalidArgument("graph '" + name +
                                   "' is already loaded; evict it first");
  }
  return Status::OK();
}

namespace {

// Peeks the magic + version words so binary files of either version are
// recognized regardless of extension.
enum class SniffedFormat { kBinaryV2, kBinaryLegacy, kOther };

SniffedFormat SniffFormat(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return SniffedFormat::kOther;
  char magic[4] = {};
  uint32_t version = 0;
  const bool is_binary =
      std::fread(magic, 1, sizeof(magic), f) == sizeof(magic) &&
      std::memcmp(magic, "MBCG", 4) == 0 &&
      std::fread(&version, 1, sizeof(version), f) == sizeof(version);
  std::fclose(f);
  if (!is_binary) return SniffedFormat::kOther;
  return version == 2 ? SniffedFormat::kBinaryV2 : SniffedFormat::kBinaryLegacy;
}

}  // namespace

Status GraphStore::LoadFromFile(const std::string& name,
                                const std::string& path) {
  Result<SignedGraph> graph = [&]() -> Result<SignedGraph> {
    switch (SniffFormat(path)) {
      case SniffedFormat::kBinaryV2:
        return MmapSignedGraphBinary(path);
      case SniffedFormat::kBinaryLegacy:
        return ReadSignedGraphBinary(path);
      case SniffedFormat::kOther:
        // Binary extensions with non-binary content still go through the
        // binary reader so the error names the real problem.
        if (path.ends_with(".bin") || path.ends_with(".mbcg")) {
          return ReadSignedGraphBinary(path);
        }
        return ReadSignedEdgeList(path);
    }
    return Status::InvalidArgument("unreachable");
  }();
  if (!graph.ok()) return graph.status();
  return Load(name, std::move(graph).value());
}

Status GraphStore::Evict(const std::string& name) {
  std::unique_lock lock(mutex_);
  const auto it = snapshots_.find(name);
  if (it == snapshots_.end()) {
    return Status::NotFound("graph '" + name + "' is not loaded");
  }
  // Queries fault mapped adjacency pages in and build the graph's index
  // after load, so the load-time charge understates what eviction gives
  // back; re-sample before the uncharge happens.
  it->second->RefreshMemoryAccounting();
  snapshots_.erase(it);
  deltas_.erase(name);
  return Status::OK();
}

Status GraphStore::AcquireForMutation(const std::string& name,
                                      SnapshotPtr* head,
                                      std::shared_ptr<DeltaState>* state) {
  std::unique_lock lock(mutex_);
  const auto it = snapshots_.find(name);
  if (it == snapshots_.end()) {
    return Status::NotFound("graph '" + name + "' is not loaded");
  }
  *head = it->second;
  auto& slot = deltas_[name];
  if (slot == nullptr) slot = std::make_shared<DeltaState>();
  *state = slot;
  return Status::OK();
}

Status GraphStore::SwapHead(const std::string& name,
                            const SnapshotPtr& expected, SnapshotPtr next) {
  std::unique_lock lock(mutex_);
  const auto it = snapshots_.find(name);
  if (it == snapshots_.end() || it->second != expected) {
    return Status::InvalidArgument("graph '" + name +
                                   "' was evicted or replaced concurrently "
                                   "with a mutation");
  }
  it->second = std::move(next);
  return Status::OK();
}

Result<GraphStore::MutationOutcome> GraphStore::Mutate(
    const std::string& name, const MutationBatch& batch,
    const DeltaBudget& budget) {
  SnapshotPtr head;
  std::shared_ptr<DeltaState> state;
  MBC_RETURN_NOT_OK(AcquireForMutation(name, &head, &state));

  // Mutations of one name serialize here; queries and other names run on.
  std::lock_guard delta_lock(state->mutex);
  {
    // Re-fetch the head under the mutation lock: a batch that raced us to
    // the lock swapped it, and our patch must stack on the new head.
    std::shared_lock lock(mutex_);
    const auto it = snapshots_.find(name);
    if (it == snapshots_.end()) {
      return Status::NotFound("graph '" + name + "' is not loaded");
    }
    head = it->second;
  }
  if (!state->log) {
    state->log.emplace(head->fingerprint(), head->version(),
                       head->graph().NumEdges());
  }
  if (!state->cores) state->cores.emplace(head->graph());

  DeltaSignedGraph::Patch patch;
  {
    auto result = state->log->Apply(head->graph(), batch, budget);
    if (!result.ok()) return result.status();
    patch = std::move(result).value();
  }

  MutationOutcome outcome;
  outcome.old_fingerprint = head->fingerprint();
  for (const auto& [u, v] : patch.stats.skeleton_adds) {
    const auto stats = state->cores->InsertEdge(u, v);
    outcome.core_affected += stats.affected;
    outcome.core_visited += stats.visited;
  }
  for (const auto& [u, v] : patch.stats.skeleton_removes) {
    const auto stats = state->cores->RemoveEdge(u, v);
    outcome.core_affected += stats.affected;
    outcome.core_visited += stats.visited;
  }

  const bool effective =
      patch.stats.added + patch.stats.removed + patch.stats.flipped > 0;
  if (effective) {
    auto next = std::make_shared<const Snapshot>(name, std::move(patch.graph),
                                                 patch.stats.version);
    MBC_RETURN_NOT_OK(SwapHead(name, head, std::move(next)));
  }
  outcome.stats = std::move(patch.stats);
  return outcome;
}

Result<GraphStore::CompactionOutcome> GraphStore::Compact(
    const std::string& name) {
  SnapshotPtr head;
  std::shared_ptr<DeltaState> state;
  MBC_RETURN_NOT_OK(AcquireForMutation(name, &head, &state));

  std::lock_guard delta_lock(state->mutex);
  {
    std::shared_lock lock(mutex_);
    const auto it = snapshots_.find(name);
    if (it == snapshots_.end()) {
      return Status::NotFound("graph '" + name + "' is not loaded");
    }
    head = it->second;
  }

  CompactionOutcome outcome;
  outcome.old_fingerprint = head->fingerprint();
  outcome.fingerprint = head->fingerprint();
  outcome.version = head->version();
  if (!state->log) return outcome;  // Never mutated: already compact.

  const auto compacted = state->log->Compact(head->graph());
  if (!compacted.changed) return outcome;

  // Same adjacency, new (content) fingerprint: republish the head under
  // its true content address so it can share cache entries with fresh
  // loads of the same bytes.
  SignedGraph rebased = head->graph();
  rebased.SetFingerprintHint(compacted.fingerprint);
  auto next = std::make_shared<const Snapshot>(name, std::move(rebased),
                                               head->version());
  MBC_RETURN_NOT_OK(SwapHead(name, head, std::move(next)));
  outcome.fingerprint = compacted.fingerprint;
  outcome.changed = true;
  return outcome;
}

Result<GraphStore::SnapshotPtr> GraphStore::Find(
    const std::string& name) const {
  std::shared_lock lock(mutex_);
  const auto it = snapshots_.find(name);
  if (it == snapshots_.end()) {
    return Status::NotFound("graph '" + name + "' is not loaded");
  }
  return it->second;
}

std::vector<GraphStore::ListEntry> GraphStore::List() const {
  std::shared_lock lock(mutex_);
  std::vector<ListEntry> entries;
  entries.reserve(snapshots_.size());
  for (const auto& [name, snapshot] : snapshots_) {
    entries.push_back({name, snapshot->fingerprint(),
                       snapshot->graph().NumVertices(),
                       snapshot->graph().NumEdges(),
                       snapshot->memory_bytes(), snapshot->mapped(),
                       snapshot->mapped_bytes()});
  }
  return entries;
}

size_t GraphStore::size() const {
  std::shared_lock lock(mutex_);
  return snapshots_.size();
}

size_t GraphStore::TotalMemoryBytes() const {
  std::shared_lock lock(mutex_);
  size_t total = 0;
  for (const auto& [name, snapshot] : snapshots_) {
    total += snapshot->memory_bytes();
  }
  return total;
}

}  // namespace mbc

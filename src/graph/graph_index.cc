// Copyright 2026 The balanced-clique Authors.
#include "src/graph/graph_index.h"

#include <utility>

#include "src/common/logging.h"
#include "src/graph/cores.h"
#include "src/graph/signed_graph.h"
#include "src/pf/pdecompose.h"

namespace mbc {

const PolarCoreNumbers& GraphIndex::Polar(const SignedGraph& graph) {
  MBC_DCHECK(&graph.Index() == this);
  std::call_once(polar_once_, [&] {
    PolarDecomposition polar = PDecompose(graph);
    polar_.pn = std::move(polar.polar_core_number);
    polar_.max = polar.max_polar_core;
    memory_bytes_.fetch_add(polar_.pn.capacity() * sizeof(uint32_t),
                            std::memory_order_release);
  });
  return polar_;
}

const std::vector<VertexId>& GraphIndex::DegeneracyOrder(
    const SignedGraph& graph) {
  MBC_DCHECK(&graph.Index() == this);
  std::call_once(order_once_, [&] {
    order_ = std::move(DegeneracyDecompose(graph).order);
    memory_bytes_.fetch_add(order_.capacity() * sizeof(VertexId),
                            std::memory_order_release);
  });
  return order_;
}

void GraphIndex::SeedPolar(PolarCoreNumbers polar) {
  std::call_once(polar_once_, [&] {
    polar_ = std::move(polar);
    memory_bytes_.fetch_add(polar_.pn.capacity() * sizeof(uint32_t),
                            std::memory_order_release);
  });
}

}  // namespace mbc

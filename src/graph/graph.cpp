#include "src/graph/graph.hpp"

#include <algorithm>

#include "src/support/check.hpp"

namespace beepmis::graph {

bool Graph::has_edge(VertexId u, VertexId v) const {
  BEEPMIS_CHECK(u < vertex_count() && v < vertex_count(), "vertex out of range");
  const auto nb = neighbors(u);
  return std::binary_search(nb.begin(), nb.end(), v);
}

GraphBuilder::GraphBuilder(std::size_t vertex_count, std::string name)
    : n_(vertex_count), name_(std::move(name)) {}

void GraphBuilder::add_edge(VertexId u, VertexId v) {
  BEEPMIS_CHECK(u < n_ && v < n_, "edge endpoint out of range");
  BEEPMIS_CHECK(u != v, "self-loops are not allowed in a simple graph");
  if (u > v) std::swap(u, v);
  edges_.emplace_back(u, v);
}

Graph GraphBuilder::build() && {
  std::sort(edges_.begin(), edges_.end());
  edges_.erase(std::unique(edges_.begin(), edges_.end()), edges_.end());

  Graph g;
  g.name_ = std::move(name_);
  g.offsets_.assign(n_ + 1, 0);
  for (const auto& [u, v] : edges_) {
    ++g.offsets_[u + 1];
    ++g.offsets_[v + 1];
  }
  for (std::size_t i = 1; i <= n_; ++i) g.offsets_[i] += g.offsets_[i - 1];

  g.adjacency_.resize(edges_.size() * 2);
  std::vector<std::size_t> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
  for (const auto& [u, v] : edges_) {
    g.adjacency_[cursor[u]++] = v;
    g.adjacency_[cursor[v]++] = u;
  }
  // Each vertex's edges were appended in globally sorted order, so
  // neighborhoods are already sorted — required by has_edge's binary search
  // and by is_triangle_free's merge.
  for (std::size_t v = 0; v < n_; ++v) {
    const auto nb = g.neighbors(static_cast<VertexId>(v));
    BEEPMIS_CHECK(std::is_sorted(nb.begin(), nb.end()),
                  "CSR neighborhood not sorted after build");
    g.max_degree_ = std::max(g.max_degree_, g.offsets_[v + 1] - g.offsets_[v]);
  }
  return g;
}

StreamingCsrBuilder::StreamingCsrBuilder(std::size_t vertex_count,
                                         std::string name)
    : n_(vertex_count) {
  g_.name_ = std::move(name);
  g_.offsets_.assign(n_ + 1, 0);
}

void StreamingCsrBuilder::count_edge(VertexId u, VertexId v) {
  BEEPMIS_CHECK(!filling_, "count_edge after begin_fill");
  BEEPMIS_CHECK(u < n_ && v < n_, "edge endpoint out of range");
  BEEPMIS_CHECK(u != v, "self-loops are not allowed in a simple graph");
  ++g_.offsets_[u + 1];
  ++g_.offsets_[v + 1];
}

void StreamingCsrBuilder::begin_fill() {
  BEEPMIS_CHECK(!filling_, "begin_fill called twice");
  filling_ = true;
  for (std::size_t i = 1; i <= n_; ++i) g_.offsets_[i] += g_.offsets_[i - 1];
  // During the fill pass offsets_[v] doubles as row v's write cursor: it
  // starts at the row head, ends at the row end, and finish() shifts the
  // whole array one slot right to recover the real offsets.
  g_.adjacency_.resize(g_.offsets_[n_]);
}

Graph StreamingCsrBuilder::finish(bool sort_rows) && {
  BEEPMIS_CHECK(filling_, "finish before begin_fill");
  BEEPMIS_CHECK(filled_ * 2 == g_.adjacency_.size(),
                "fill pass replayed a different edge count than pass 1");
  for (std::size_t v = n_; v >= 1; --v) g_.offsets_[v] = g_.offsets_[v - 1];
  g_.offsets_[0] = 0;
  for (std::size_t v = 0; v < n_; ++v) {
    const auto first = g_.adjacency_.begin() +
                       static_cast<std::ptrdiff_t>(g_.offsets_[v]);
    const auto last = g_.adjacency_.begin() +
                      static_cast<std::ptrdiff_t>(g_.offsets_[v + 1]);
    if (sort_rows) std::sort(first, last);
    BEEPMIS_CHECK(std::adjacent_find(first, last,
                                     [](VertexId a, VertexId b) {
                                       return a >= b;
                                     }) == last,
                  "streamed CSR row not strictly ascending "
                  "(duplicate or out-of-order edge)");
    g_.max_degree_ =
        std::max(g_.max_degree_, g_.offsets_[v + 1] - g_.offsets_[v]);
  }
  return std::move(g_);
}

}  // namespace beepmis::graph

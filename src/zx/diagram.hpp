/// \file diagram.hpp
/// \brief ZX-diagrams: spiders, boundaries, simple and Hadamard wires.
#pragma once

#include "ir/types.hpp"
#include "zx/rational.hpp"

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace veriqc::zx {

using Vertex = std::uint32_t;

enum class VertexType : std::uint8_t {
  Boundary, ///< input or output wire end (no phase)
  Z,        ///< green spider
  X,        ///< red spider
};

enum class EdgeType : std::uint8_t {
  Simple,   ///< plain wire
  Hadamard, ///< wire with a Hadamard box
};

/// Parallel edges between one pair of vertices, by type.
struct EdgeMultiplicity {
  int simple = 0;
  int hadamard = 0;

  [[nodiscard]] int total() const noexcept { return simple + hadamard; }
};

/// One adjacency slot: the neighbor id plus the parallel-edge multiplicities
/// towards it. Structured bindings decompose it like the map entries it
/// replaced: `for (const auto& [w, mult] : diagram.neighbors(v))`.
struct NeighborEntry {
  Vertex vertex;
  EdgeMultiplicity edges;
};

/// Flat adjacency row, sorted by neighbor id. Lookups are a binary search on
/// a contiguous array (one cache line for typical spider degrees) instead of
/// a pointer-chasing tree walk; iteration order matches the previous
/// std::map-based representation exactly (ascending neighbor id).
using NeighborList = std::vector<NeighborEntry>;

/// A ZX-diagram as an undirected multigraph. Vertices are never reindexed;
/// removed vertices leave holes (test with isPresent). Self-loops are allowed
/// transiently and resolved by the simplifier.
///
/// Scalar factors are intentionally not tracked: every consumer in this
/// library decides questions that are invariant under nonzero global scalars
/// (equivalence up to global phase).
class ZXDiagram {
public:
  ZXDiagram() = default;

  // --- construction -----------------------------------------------------------
  Vertex addVertex(VertexType type, PiRational phase = {});

  /// Add one edge of the given type (u == v records a self-loop).
  void addEdge(Vertex u, Vertex v, EdgeType type);

  /// Remove one edge of the given type. \throws CircuitError if absent.
  void removeEdge(Vertex u, Vertex v, EdgeType type);

  /// Remove all edges between u and v.
  void removeAllEdges(Vertex u, Vertex v);

  /// Remove a vertex and all incident edges.
  void removeVertex(Vertex v);

  /// Toggle one Hadamard edge between every pair of vertices that lie in
  /// different parts ({A, B, C} for a pivot, singletons for a local
  /// complementation): a pair with a Hadamard edge loses one, any other
  /// pair gains one, and an entry left with no edges is erased. Each
  /// affected row is rebuilt by one merge with its sorted toggle list.
  /// \throws CircuitError if a vertex is absent or listed twice.
  void toggleHadamardAcross(std::span<const std::span<const Vertex>> parts);

  /// Declare boundary vertices as the diagram interface, in qubit order.
  void setInputs(std::vector<Vertex> inputs) { inputs_ = std::move(inputs); }
  void setOutputs(std::vector<Vertex> outputs) {
    outputs_ = std::move(outputs);
  }

  // --- queries ---------------------------------------------------------------
  [[nodiscard]] bool isPresent(Vertex v) const {
    return v < present_.size() && present_[v] != 0;
  }
  [[nodiscard]] VertexType type(Vertex v) const { return types_.at(v); }
  void setType(Vertex v, VertexType type) { types_.at(v) = type; }
  [[nodiscard]] const PiRational& phase(Vertex v) const {
    return phases_.at(v);
  }
  void setPhase(Vertex v, PiRational phase) { phases_.at(v) = phase; }
  void addPhase(Vertex v, const PiRational& delta) { phases_.at(v) += delta; }

  /// Adjacency of v, sorted by neighbor id. Self-loops appear under v
  /// itself.
  [[nodiscard]] const NeighborList& neighbors(Vertex v) const {
    return adj_.at(v);
  }

  [[nodiscard]] EdgeMultiplicity edge(Vertex u, Vertex v) const;
  [[nodiscard]] bool connected(Vertex u, Vertex v) const {
    return edge(u, v).total() > 0;
  }

  /// Total incident edge count (self-loops count twice); kept up to date
  /// by every mutator, so O(1).
  [[nodiscard]] std::size_t degree(Vertex v) const { return degrees_.at(v); }

  [[nodiscard]] const std::vector<Vertex>& inputs() const noexcept {
    return inputs_;
  }
  [[nodiscard]] const std::vector<Vertex>& outputs() const noexcept {
    return outputs_;
  }
  [[nodiscard]] bool isBoundary(Vertex v) const {
    return type(v) == VertexType::Boundary;
  }

  /// Number of live vertices.
  [[nodiscard]] std::size_t vertexCount() const noexcept { return liveCount_; }
  /// Number of live non-boundary vertices.
  [[nodiscard]] std::size_t spiderCount() const;
  /// Total number of edges (by multiplicity).
  [[nodiscard]] std::size_t edgeCount() const;
  /// Largest vertex id ever allocated (for iteration).
  [[nodiscard]] Vertex vertexBound() const {
    return static_cast<Vertex>(types_.size());
  }

  /// All live vertices.
  [[nodiscard]] std::vector<Vertex> vertices() const;

  // --- whole-diagram operations ---------------------------------------------
  /// The adjoint diagram: inputs and outputs exchanged, all phases negated.
  [[nodiscard]] ZXDiagram adjoint() const;

  /// Sequential composition: `this` followed by `next` (this' outputs fused
  /// with next's inputs). \throws CircuitError on interface mismatch.
  [[nodiscard]] ZXDiagram compose(const ZXDiagram& next) const;

  [[nodiscard]] std::string toString() const;

private:
  friend struct ZXDiagramTestAccess; ///< mutation tests corrupt state here

  std::vector<VertexType> types_;
  std::vector<PiRational> phases_;
  /// One byte per vertex (nonzero = live).
  std::vector<std::uint8_t> present_;
  std::vector<NeighborList> adj_;
  /// degrees_[v] == the degree recounted from adj_[v] (0 once removed).
  std::vector<std::size_t> degrees_;
  std::vector<Vertex> inputs_;
  std::vector<Vertex> outputs_;
  std::size_t liveCount_ = 0;

  /// Scratch for toggleHadamardAcross, kept to reuse its capacity: every
  /// member with the index of its part, and the row being merged.
  struct ToggleMember {
    Vertex vertex;
    std::size_t part;
  };
  std::vector<ToggleMember> toggleMembers_;
  NeighborList toggleRow_;
};

} // namespace veriqc::zx

#include "zx/diagram.hpp"

#include <algorithm>
#include <sstream>

namespace veriqc::zx {

namespace {

NeighborList::iterator lowerBound(NeighborList& list, const Vertex key) {
  return std::lower_bound(
      list.begin(), list.end(), key,
      [](const NeighborEntry& e, const Vertex k) { return e.vertex < k; });
}

NeighborList::const_iterator lowerBound(const NeighborList& list,
                                        const Vertex key) {
  return std::lower_bound(
      list.begin(), list.end(), key,
      [](const NeighborEntry& e, const Vertex k) { return e.vertex < k; });
}

} // namespace

Vertex ZXDiagram::addVertex(const VertexType type, const PiRational phase) {
  const auto v = static_cast<Vertex>(types_.size());
  types_.push_back(type);
  phases_.push_back(phase);
  present_.push_back(true);
  adj_.emplace_back();
  degrees_.push_back(0);
  ++liveCount_;
  return v;
}

void ZXDiagram::addEdge(const Vertex u, const Vertex v, const EdgeType type) {
  const auto bump = [type](NeighborList& list, const Vertex key) {
    auto it = lowerBound(list, key);
    if (it == list.end() || it->vertex != key) {
      it = list.insert(it, NeighborEntry{key, {}});
    }
    if (type == EdgeType::Simple) {
      ++it->edges.simple;
    } else {
      ++it->edges.hadamard;
    }
  };
  bump(adj_.at(u), v);
  ++degrees_[u];
  if (u != v) {
    bump(adj_.at(v), u);
  }
  ++degrees_[v]; // for u == v, the loop's second end
}

void ZXDiagram::removeEdge(const Vertex u, const Vertex v,
                           const EdgeType type) {
  const auto update = [type](NeighborList& list, const Vertex key) {
    const auto it = lowerBound(list, key);
    if (it == list.end() || it->vertex != key ||
        (type == EdgeType::Simple ? it->edges.simple
                                  : it->edges.hadamard) <= 0) {
      throw CircuitError("ZXDiagram::removeEdge: edge not present");
    }
    if (type == EdgeType::Simple) {
      --it->edges.simple;
    } else {
      --it->edges.hadamard;
    }
    if (it->edges.total() == 0) {
      list.erase(it);
    }
  };
  update(adj_.at(u), v);
  --degrees_[u];
  if (u != v) {
    update(adj_.at(v), u);
  }
  --degrees_[v];
}

void ZXDiagram::removeAllEdges(const Vertex u, const Vertex v) {
  const auto drop = [](NeighborList& list, const Vertex key) {
    const auto it = lowerBound(list, key);
    if (it == list.end() || it->vertex != key) {
      return std::size_t{0};
    }
    const auto count = static_cast<std::size_t>(it->edges.total());
    list.erase(it);
    return count;
  };
  const std::size_t count = drop(adj_.at(u), v);
  degrees_[u] -= count;
  if (u != v) {
    drop(adj_.at(v), u);
  }
  degrees_[v] -= count;
}

void ZXDiagram::removeVertex(const Vertex v) {
  if (!isPresent(v)) {
    throw CircuitError("ZXDiagram::removeVertex: vertex not present");
  }
  for (const auto& [neighbor, mult] : adj_.at(v)) {
    if (neighbor != v) {
      auto& list = adj_.at(neighbor);
      const auto it = lowerBound(list, v);
      if (it != list.end() && it->vertex == v) {
        list.erase(it);
      }
      degrees_[neighbor] -= static_cast<std::size_t>(mult.total());
    }
  }
  adj_.at(v).clear();
  degrees_[v] = 0;
  present_[v] = false;
  --liveCount_;
}

void ZXDiagram::toggleHadamardAcross(
    const std::span<const std::span<const Vertex>> parts) {
  // Every member with the index of its part, in ascending vertex order: the
  // toggle list of a member is this list without its own part.
  auto& members = toggleMembers_;
  members.clear();
  for (std::size_t p = 0; p < parts.size(); ++p) {
    for (const Vertex v : parts[p]) {
      if (!isPresent(v)) {
        throw CircuitError("ZXDiagram::toggleHadamardAcross: absent vertex");
      }
      members.push_back({v, p});
    }
  }
  const auto byVertex = [](const ToggleMember& a, const ToggleMember& b) {
    return a.vertex < b.vertex;
  };
  if (!std::is_sorted(members.begin(), members.end(), byVertex)) {
    std::sort(members.begin(), members.end(), byVertex);
  }
  for (std::size_t i = 1; i < members.size(); ++i) {
    if (members[i].vertex == members[i - 1].vertex) {
      throw CircuitError(
          "ZXDiagram::toggleHadamardAcross: vertex listed twice");
    }
  }
  // One merge per row into the reused buffer, then copied back so the row
  // keeps its own capacity.
  auto& merged = toggleRow_;
  for (const auto& [x, part] : members) {
    if (parts[part].size() == members.size()) {
      continue; // every other part is empty: nothing to toggle
    }
    auto& row = adj_[x];
    auto& degree = degrees_[x];
    merged.clear();
    merged.reserve(row.size() + members.size());
    auto it = row.begin();
    for (const auto& [y, yPart] : members) {
      if (yPart == part) {
        continue;
      }
      while (it != row.end() && it->vertex < y) {
        merged.push_back(*it++);
      }
      if (it == row.end() || it->vertex != y) {
        merged.push_back(NeighborEntry{y, {0, 1}});
        ++degree;
        continue;
      }
      NeighborEntry entry = *it++;
      if (entry.edges.hadamard > 0) {
        --entry.edges.hadamard;
        --degree;
      } else {
        ++entry.edges.hadamard;
        ++degree;
      }
      if (entry.edges.total() > 0) {
        merged.push_back(entry);
      }
    }
    merged.insert(merged.end(), it, row.end());
    row.assign(merged.begin(), merged.end());
  }
}

EdgeMultiplicity ZXDiagram::edge(const Vertex u, const Vertex v) const {
  const auto& list = adj_.at(u);
  const auto it = lowerBound(list, v);
  return (it == list.end() || it->vertex != v) ? EdgeMultiplicity{}
                                               : it->edges;
}

std::size_t ZXDiagram::spiderCount() const {
  std::size_t count = 0;
  for (Vertex v = 0; v < vertexBound(); ++v) {
    if (isPresent(v) && !isBoundary(v)) {
      ++count;
    }
  }
  return count;
}

std::size_t ZXDiagram::edgeCount() const {
  std::size_t count = 0;
  for (Vertex v = 0; v < vertexBound(); ++v) {
    if (!isPresent(v)) {
      continue;
    }
    for (const auto& [neighbor, mult] : adj_[v]) {
      if (neighbor >= v) {
        count += static_cast<std::size_t>(mult.total());
      }
    }
  }
  return count;
}

std::vector<Vertex> ZXDiagram::vertices() const {
  std::vector<Vertex> live;
  live.reserve(liveCount_);
  for (Vertex v = 0; v < vertexBound(); ++v) {
    if (isPresent(v)) {
      live.push_back(v);
    }
  }
  return live;
}

ZXDiagram ZXDiagram::adjoint() const {
  ZXDiagram result = *this;
  for (Vertex v = 0; v < result.vertexBound(); ++v) {
    if (result.isPresent(v)) {
      result.phases_[v] = -result.phases_[v];
    }
  }
  std::swap(result.inputs_, result.outputs_);
  return result;
}

ZXDiagram ZXDiagram::compose(const ZXDiagram& next) const {
  if (outputs_.size() != next.inputs_.size()) {
    throw CircuitError("ZXDiagram::compose: interface mismatch");
  }
  ZXDiagram result = *this;
  // Import `next` with an index offset.
  const auto offset = result.vertexBound();
  for (Vertex v = 0; v < next.vertexBound(); ++v) {
    result.types_.push_back(next.types_[v]);
    result.phases_.push_back(next.phases_[v]);
    result.present_.push_back(next.present_[v]);
    result.adj_.emplace_back();
    result.degrees_.push_back(0); // the edges below are added one by one
    if (next.present_[v]) {
      ++result.liveCount_;
    }
  }
  for (Vertex v = 0; v < next.vertexBound(); ++v) {
    for (const auto& [neighbor, mult] : next.adj_[v]) {
      if (neighbor < v) {
        continue; // add each edge once
      }
      for (int i = 0; i < mult.simple; ++i) {
        result.addEdge(offset + v, offset + neighbor, EdgeType::Simple);
      }
      for (int i = 0; i < mult.hadamard; ++i) {
        result.addEdge(offset + v, offset + neighbor, EdgeType::Hadamard);
      }
    }
  }
  // Fuse interface pairs: this.output[i] -- next.input[i].
  for (std::size_t i = 0; i < outputs_.size(); ++i) {
    const Vertex out = outputs_[i];
    const Vertex in = offset + next.inputs_[i];
    // A boundary vertex has exactly one incident edge.
    const auto takeNeighbor = [&result](const Vertex b) {
      const auto& adj = result.adj_.at(b);
      if (adj.size() != 1 || adj.front().edges.total() != 1) {
        throw CircuitError("ZXDiagram::compose: malformed boundary");
      }
      const Vertex neighbor = adj.front().vertex;
      const EdgeType type = adj.front().edges.hadamard > 0
                                ? EdgeType::Hadamard
                                : EdgeType::Simple;
      return std::pair{neighbor, type};
    };
    const auto [n1, t1] = takeNeighbor(out);
    result.removeVertex(out);
    // n1 might itself be `in` (bare wire meeting bare wire is impossible
    // since out != in, but out's neighbor can be in's partner).
    const auto [n2, t2] = takeNeighbor(in);
    result.removeVertex(in);
    const EdgeType combined = (t1 == t2) ? EdgeType::Simple
                                         : EdgeType::Hadamard;
    if (n1 == in) {
      // out and in were directly connected (cannot happen: different
      // diagrams), guarded for robustness.
      throw CircuitError("ZXDiagram::compose: interface self-connection");
    }
    result.addEdge(n1, n2, combined);
  }
  result.outputs_.clear();
  result.outputs_.reserve(next.outputs_.size());
  for (const auto out : next.outputs_) {
    result.outputs_.push_back(offset + out);
  }
  return result;
}

std::string ZXDiagram::toString() const {
  std::ostringstream os;
  os << "ZXDiagram (" << vertexCount() << " vertices, " << edgeCount()
     << " edges, " << inputs_.size() << " in / " << outputs_.size()
     << " out)\n";
  for (Vertex v = 0; v < vertexBound(); ++v) {
    if (!isPresent(v)) {
      continue;
    }
    os << "  " << v << ": ";
    switch (type(v)) {
    case VertexType::Boundary:
      os << "B";
      break;
    case VertexType::Z:
      os << "Z(" << phase(v).toString() << ")";
      break;
    case VertexType::X:
      os << "X(" << phase(v).toString() << ")";
      break;
    }
    os << " --";
    for (const auto& [neighbor, mult] : adj_[v]) {
      for (int i = 0; i < mult.simple; ++i) {
        os << " " << neighbor;
      }
      for (int i = 0; i < mult.hadamard; ++i) {
        os << " h" << neighbor;
      }
    }
    os << "\n";
  }
  return os.str();
}

} // namespace veriqc::zx

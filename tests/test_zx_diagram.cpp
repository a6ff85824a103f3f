#include "circuits/benchmarks.hpp"
#include "sim/dense.hpp"
#include "zx/circuit_to_zx.hpp"
#include "zx/diagram.hpp"
#include "zx/tensor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <span>
#include <string>
#include <vector>

namespace veriqc::zx {
namespace {

TEST(ZXDiagramTest, AddRemoveVertices) {
  ZXDiagram d;
  const auto a = d.addVertex(VertexType::Z, PiRational(1, 2));
  const auto b = d.addVertex(VertexType::X);
  EXPECT_EQ(d.vertexCount(), 2U);
  EXPECT_EQ(d.phase(a), PiRational(1, 2));
  d.addEdge(a, b, EdgeType::Hadamard);
  EXPECT_TRUE(d.connected(a, b));
  EXPECT_EQ(d.degree(a), 1U);
  d.removeVertex(b);
  EXPECT_EQ(d.vertexCount(), 1U);
  EXPECT_FALSE(d.isPresent(b));
  EXPECT_EQ(d.degree(a), 0U);
}

TEST(ZXDiagramTest, ParallelEdgesAndLoops) {
  ZXDiagram d;
  const auto a = d.addVertex(VertexType::Z);
  const auto b = d.addVertex(VertexType::Z);
  d.addEdge(a, b, EdgeType::Simple);
  d.addEdge(a, b, EdgeType::Hadamard);
  EXPECT_EQ(d.edge(a, b).simple, 1);
  EXPECT_EQ(d.edge(a, b).hadamard, 1);
  EXPECT_EQ(d.degree(a), 2U);
  d.addEdge(a, a, EdgeType::Simple);
  EXPECT_EQ(d.degree(a), 4U); // self-loop counts twice
  d.removeEdge(a, b, EdgeType::Simple);
  EXPECT_EQ(d.edge(a, b).simple, 0);
  EXPECT_THROW(d.removeEdge(a, b, EdgeType::Simple), CircuitError);
}

TEST(ZXDiagramTest, EdgeAndSpiderCounts) {
  const auto d = circuitToZX(circuits::ghz(3));
  // h: 0 spiders (edge toggle); each cx: 2 spiders.
  EXPECT_EQ(d.spiderCount(), 4U);
  EXPECT_EQ(d.inputs().size(), 3U);
  EXPECT_EQ(d.outputs().size(), 3U);
}

TEST(ZXDiagramTest, AdjointNegatesPhases) {
  QuantumCircuit c(1);
  c.t(0);
  const auto d = circuitToZX(c).adjoint();
  bool found = false;
  for (const auto v : d.vertices()) {
    if (!d.isBoundary(v)) {
      EXPECT_EQ(d.phase(v), PiRational(-1, 4));
      found = true;
    }
  }
  EXPECT_TRUE(found);
  EXPECT_EQ(d.inputs().size(), 1U);
}

TEST(ZXDiagramTest, AdjointSemantics) {
  // Small: dense tensor validation is exponential in the spider count, and
  // randomCircuit may emit CCX which the converter rejects — Clifford+T+
  // rotations stay in the supported set.
  auto c = circuits::randomCliffordT(3, 2, 0.3, 17);
  c.rz(0, 0.4);
  c.cp(1, 2, -0.9);
  const auto m = toMatrix(circuitToZX(c).adjoint());
  const auto expected = sim::circuitUnitary(c).adjoint();
  EXPECT_TRUE(proportional(m, expected, 1e-6));
}

TEST(ZXDiagramTest, ComposeSemantics) {
  const auto c1 = circuits::randomCliffordT(2, 3, 0.3, 1);
  const auto c2 = circuits::randomCliffordT(2, 3, 0.3, 2);
  const auto composed = circuitToZX(c1).compose(circuitToZX(c2));
  // compose = run c1 then c2 => matrix U2 * U1
  const auto expected =
      sim::circuitUnitary(c2).multiply(sim::circuitUnitary(c1));
  EXPECT_TRUE(proportional(toMatrix(composed), expected, 1e-6));
}

TEST(ZXDiagramTest, ComposeInterfaceMismatchThrows) {
  const auto d1 = circuitToZX(circuits::ghz(2));
  const auto d2 = circuitToZX(circuits::ghz(3));
  EXPECT_THROW((void)d1.compose(d2), CircuitError);
}

TEST(ZXDiagramTest, ToStringShowsStructure) {
  const auto d = circuitToZX(circuits::ghz(2));
  const auto str = d.toString();
  EXPECT_NE(str.find("ZXDiagram"), std::string::npos);
  EXPECT_NE(str.find("Z("), std::string::npos);
  EXPECT_NE(str.find("X("), std::string::npos);
}

// --- toggleHadamardAcross ----------------------------------------------------

/// A seeded random multigraph over `n` vertices: plain, single and double
/// Hadamard, and plain+Hadamard pairs, self-loops, and a few removed
/// vertices so the live ids have holes.
ZXDiagram randomMultigraph(const std::size_t n, std::mt19937_64& rng) {
  ZXDiagram d;
  for (std::size_t i = 0; i < n; ++i) {
    d.addVertex(i % 5 == 4 ? VertexType::X : VertexType::Z);
  }
  std::uniform_int_distribution<int> form(0, 9);
  for (Vertex a = 0; a < n; ++a) {
    for (Vertex b = a; b < n; ++b) {
      const int f = form(rng);
      if (a == b) {
        if (f == 0) {
          d.addEdge(a, a, EdgeType::Simple);
        } else if (f == 1) {
          d.addEdge(a, a, EdgeType::Hadamard);
        }
        continue;
      }
      if (f == 0 || f == 3) {
        d.addEdge(a, b, EdgeType::Simple);
      }
      if (f == 1 || f == 2 || f == 3) {
        d.addEdge(a, b, EdgeType::Hadamard);
      }
      if (f == 2) {
        d.addEdge(a, b, EdgeType::Hadamard);
      }
    }
  }
  for (Vertex v = 0; v < n; v += 6) {
    d.removeVertex(v);
  }
  return d;
}

std::size_t recountedDegree(const ZXDiagram& d, const Vertex v) {
  std::size_t degree = 0;
  for (const auto& [w, mult] : d.neighbors(v)) {
    degree += static_cast<std::size_t>(mult.total()) * (w == v ? 2 : 1);
  }
  return degree;
}

/// Per toggled pair, what the oracle found before toggling it.
struct ToggleCoverage {
  std::size_t doubleHadamard = 0;
  std::size_t plainAndHadamard = 0;
  std::size_t absent = 0;
};

/// The pairwise definition: one edge() lookup and one addEdge/removeEdge
/// per pair lying in different parts.
void togglePairwise(ZXDiagram& d, const std::vector<std::vector<Vertex>>& parts,
                    ToggleCoverage& coverage) {
  for (std::size_t p = 0; p < parts.size(); ++p) {
    for (std::size_t q = p + 1; q < parts.size(); ++q) {
      for (const Vertex a : parts[p]) {
        for (const Vertex b : parts[q]) {
          const auto mult = d.edge(a, b);
          coverage.doubleHadamard += mult.hadamard == 2 ? 1 : 0;
          coverage.plainAndHadamard +=
              mult.simple > 0 && mult.hadamard > 0 ? 1 : 0;
          coverage.absent += mult.total() == 0 ? 1 : 0;
          if (mult.hadamard > 0) {
            d.removeEdge(a, b, EdgeType::Hadamard);
          } else {
            d.addEdge(a, b, EdgeType::Hadamard);
          }
        }
      }
    }
  }
}

void expectSameRowsAndDegrees(const ZXDiagram& actual,
                              const ZXDiagram& expected,
                              const std::string& label) {
  ASSERT_EQ(actual.vertexBound(), expected.vertexBound()) << label;
  for (Vertex v = 0; v < expected.vertexBound(); ++v) {
    if (!expected.isPresent(v)) {
      continue;
    }
    const auto& row = actual.neighbors(v);
    const auto& want = expected.neighbors(v);
    ASSERT_EQ(row.size(), want.size()) << label << " vertex " << v;
    for (std::size_t i = 0; i < row.size(); ++i) {
      EXPECT_EQ(row[i].vertex, want[i].vertex) << label << " vertex " << v;
      EXPECT_EQ(row[i].edges.simple, want[i].edges.simple)
          << label << " edge " << v << "-" << row[i].vertex;
      EXPECT_EQ(row[i].edges.hadamard, want[i].edges.hadamard)
          << label << " edge " << v << "-" << row[i].vertex;
    }
    EXPECT_EQ(actual.degree(v), recountedDegree(expected, v))
        << label << " vertex " << v;
    EXPECT_EQ(actual.degree(v), expected.degree(v)) << label << " vertex " << v;
  }
}

TEST(ZXDiagramTest, ToggleHadamardAcrossMatchesPairwiseToggles) {
  ToggleCoverage coverage;
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    std::mt19937_64 rng(seed);
    const auto base = randomMultigraph(16, rng);
    auto live = base.vertices();
    std::shuffle(live.begin(), live.end(), rng);
    // Always an empty and a single-vertex part, then 1-3 parts of 0-4
    // vertices each (the pivot's shape) or, every third seed, all
    // singletons (the local complementation's shape).
    std::vector<std::vector<Vertex>> parts(2);
    std::size_t next = 0;
    parts[1].push_back(live[next++]);
    if (seed % 3 == 0) {
      while (next < 9) {
        parts.push_back({live[next++]});
      }
    } else {
      const auto extra = 1 + static_cast<std::size_t>(rng() % 3);
      for (std::size_t p = 0; p < extra; ++p) {
        parts.emplace_back();
        const auto size = static_cast<std::size_t>(rng() % 5);
        for (std::size_t i = 0; i < size; ++i) {
          parts.back().push_back(live[next++]);
        }
      }
    }
    std::shuffle(parts.begin(), parts.end(), rng);

    auto expected = base;
    togglePairwise(expected, parts, coverage);
    auto actual = base;
    std::vector<std::span<const Vertex>> spans(parts.begin(), parts.end());
    actual.toggleHadamardAcross(spans);
    expectSameRowsAndDegrees(actual, expected, "seed " + std::to_string(seed));
  }
  // The cases the multiplicity rule has to get right all occurred.
  EXPECT_GT(coverage.doubleHadamard, 0U);
  EXPECT_GT(coverage.plainAndHadamard, 0U);
  EXPECT_GT(coverage.absent, 0U);
}

TEST(ZXDiagramTest, ToggleHadamardAcrossRejectsBadParts) {
  ZXDiagram d;
  const auto a = d.addVertex(VertexType::Z);
  const auto b = d.addVertex(VertexType::Z);
  const auto c = d.addVertex(VertexType::Z);
  d.removeVertex(c);
  const std::vector<Vertex> ab = {a, b};
  const std::vector<Vertex> onlyA = {a};
  const std::vector<Vertex> onlyC = {c};
  const std::vector<std::span<const Vertex>> twice = {ab, onlyA};
  EXPECT_THROW(d.toggleHadamardAcross(twice), CircuitError);
  const std::vector<std::span<const Vertex>> absent = {onlyA, onlyC};
  EXPECT_THROW(d.toggleHadamardAcross(absent), CircuitError);
  EXPECT_EQ(d.degree(a), 0U);
}

} // namespace
} // namespace veriqc::zx

#include "circuits/benchmarks.hpp"
#include "circuits/error_injection.hpp"
#include "compile/architecture.hpp"
#include "compile/decompose.hpp"
#include "compile/mapper.hpp"
#include "opt/optimizer.hpp"
#include "sim/dense.hpp"
#include "zx/circuit_to_zx.hpp"
#include "zx/simplify.hpp"
#include "zx/tensor.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace veriqc::zx {

/// Befriended by Simplifier: mutates the diagram through the same tracked
/// helpers the rewrite rules use.
struct SimplifierTestAccess {
  static Vertex addVertex(Simplifier& s, const VertexType type,
                          const PiRational phase) {
    return s.addVertex(type, phase);
  }
  static void addEdge(Simplifier& s, const Vertex u, const Vertex v,
                      const EdgeType type) {
    s.addEdge(u, v, type);
  }
};

namespace {

/// Every pass must preserve the linear map up to a scalar.
void expectSoundness(const QuantumCircuit& c,
                     const std::function<void(Simplifier&)>& pass,
                     const std::string& label) {
  auto d = circuitToZX(c);
  const auto before = toMatrix(d);
  Simplifier s(d);
  s.toGraphLike();
  pass(s);
  const auto after = toMatrix(d);
  EXPECT_TRUE(proportional(after, before)) << label << " on " << c.name();
}

QuantumCircuit zxFriendlyRandom(const std::uint64_t seed) {
  // Kept small: dense tensor validation is exponential in the spider count.
  auto c = circuits::randomCliffordT(2, 2, 0.25, seed);
  c.rz(0, PI / 8.0);
  c.cp(0, 1, PI / 4.0);
  c.swap(0, 1);
  return c;
}

TEST(ZXSimplifyTest, ToGraphLikeIsSound) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const auto c = zxFriendlyRandom(seed);
    auto d = circuitToZX(c);
    const auto before = toMatrix(d);
    Simplifier s(d);
    s.toGraphLike();
    EXPECT_TRUE(proportional(toMatrix(d), before)) << "seed " << seed;
    // Graph-like: only Z spiders, no plain edges between spiders.
    for (const auto v : d.vertices()) {
      if (d.isBoundary(v)) {
        continue;
      }
      EXPECT_EQ(d.type(v), VertexType::Z);
      for (const auto& [w, mult] : d.neighbors(v)) {
        EXPECT_EQ(mult.total() > 0 && w == v, false) << "self loop remains";
        if (!d.isBoundary(w)) {
          EXPECT_EQ(mult.simple, 0) << "plain spider-spider edge remains";
          EXPECT_LE(mult.hadamard, 1) << "parallel Hadamard edges remain";
        }
      }
    }
  }
}

TEST(ZXSimplifyTest, IdSimpIsSound) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    expectSoundness(zxFriendlyRandom(seed),
                    [](Simplifier& s) { s.idSimp(); }, "idSimp");
  }
}

TEST(ZXSimplifyTest, LcompIsSound) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    expectSoundness(zxFriendlyRandom(seed),
                    [](Simplifier& s) { s.lcompSimp(); }, "lcompSimp");
  }
}

TEST(ZXSimplifyTest, PivotIsSound) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    expectSoundness(zxFriendlyRandom(seed),
                    [](Simplifier& s) { s.pivotSimp(); }, "pivotSimp");
  }
}

TEST(ZXSimplifyTest, PivotGadgetIsSound) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    expectSoundness(zxFriendlyRandom(seed),
                    [](Simplifier& s) { s.pivotGadgetSimp(); },
                    "pivotGadgetSimp");
  }
}

TEST(ZXSimplifyTest, PivotBoundaryIsSound) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    expectSoundness(zxFriendlyRandom(seed),
                    [](Simplifier& s) { s.pivotBoundarySimp(); },
                    "pivotBoundarySimp");
  }
}

TEST(ZXSimplifyTest, FullReduceIsSound) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const auto c = zxFriendlyRandom(seed);
    auto d = circuitToZX(c);
    const auto before = toMatrix(d);
    EXPECT_TRUE(fullReduce(d));
    EXPECT_TRUE(proportional(toMatrix(d), before)) << "seed " << seed;
  }
}

TEST(ZXSimplifyTest, FullReduceShrinksCliffordDiagrams) {
  const auto c = circuits::randomClifford(4, 10, 3);
  auto d = circuitToZX(c);
  const auto before = d.spiderCount();
  fullReduce(d);
  // Graph-theoretic simplification reduces any Clifford circuit to a
  // bounded-size normal form (pseudo-normal form near the boundary).
  EXPECT_LT(d.spiderCount(), std::min<std::size_t>(before, 16));
}

TEST(ZXSimplifyTest, SwapEqualsThreeCnots) {
  // The paper's Example 6: SWAP = 3 alternating CNOTs.
  QuantumCircuit threeCx(2);
  threeCx.cx(0, 1);
  threeCx.cx(1, 0);
  threeCx.cx(0, 1);
  QuantumCircuit swapC(2);
  swapC.swap(0, 1);
  auto composed = circuitToZX(threeCx).compose(circuitToZX(swapC).adjoint());
  fullReduce(composed);
  const auto perm = extractWirePermutation(composed);
  ASSERT_TRUE(perm.has_value());
  EXPECT_TRUE(perm->isIdentity());
}

TEST(ZXSimplifyTest, CliffordEquivalenceReducesToIdentityWires) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const auto c = circuits::randomClifford(4, 8, seed);
    auto composed = circuitToZX(c).compose(circuitToZX(c).adjoint());
    ASSERT_TRUE(fullReduce(composed)) << "seed " << seed;
    const auto perm = extractWirePermutation(composed);
    ASSERT_TRUE(perm.has_value())
        << "seed " << seed << ": " << composed.spiderCount()
        << " spiders remain";
    EXPECT_TRUE(perm->isIdentity()) << "seed " << seed;
  }
}

TEST(ZXSimplifyTest, CliffordTEquivalenceReducesToIdentityWires) {
  // Sec. 6.2: phases cancel when composing a circuit with its inverse, so
  // the rewriting succeeds even beyond Clifford.
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const auto c = circuits::randomCliffordT(4, 6, 0.3, seed);
    auto composed = circuitToZX(c).compose(circuitToZX(c).adjoint());
    ASSERT_TRUE(fullReduce(composed)) << "seed " << seed;
    const auto perm = extractWirePermutation(composed);
    ASSERT_TRUE(perm.has_value())
        << "seed " << seed << ": " << composed.spiderCount()
        << " spiders remain";
    EXPECT_TRUE(perm->isIdentity()) << "seed " << seed;
  }
}

TEST(ZXSimplifyTest, PaperExample7CompiledGhz) {
  // G = GHZ(3) (Fig. 1a); G' = compiled version (Fig. 2) with the SWAP
  // decomposed into CNOTs and the output permutation exchanging q1 and q2.
  const auto g = circuits::ghz(3);
  QuantumCircuit gPrime(3);
  gPrime.h(0);
  gPrime.cx(0, 1);
  gPrime.cx(1, 2); // decomposed SWAP(1,2)
  gPrime.cx(2, 1);
  gPrime.cx(1, 2);
  gPrime.cx(0, 1);
  gPrime.outputPermutation() = Permutation({0, 2, 1});
  auto composed = circuitToZX(g).compose(circuitToZX(gPrime).adjoint());
  ASSERT_TRUE(fullReduce(composed));
  const auto perm = extractWirePermutation(composed);
  ASSERT_TRUE(perm.has_value());
  EXPECT_TRUE(perm->isIdentity());
}

TEST(ZXSimplifyTest, NonEquivalentCircuitsDoNotReduceToIdentity) {
  auto damaged = circuits::ghz(3);
  damaged.ops().pop_back();
  auto composed =
      circuitToZX(circuits::ghz(3)).compose(circuitToZX(damaged).adjoint());
  fullReduce(composed);
  const auto perm = extractWirePermutation(composed);
  EXPECT_TRUE(!perm.has_value() || !perm->isIdentity());
}

TEST(ZXSimplifyTest, SpiderCountIsNonIncreasing) {
  // Sec. 5.1: the number of spiders never grows during the procedure.
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const auto c = zxFriendlyRandom(seed);
    auto d = circuitToZX(c);
    Simplifier s(d);
    s.toGraphLike();
    const auto before = d.spiderCount();
    s.fullReduce();
    EXPECT_LE(d.spiderCount(), before) << "seed " << seed;
  }
}

TEST(ZXSimplifyTest, StopCallbackAborts) {
  const auto c = circuits::randomCliffordT(4, 10, 0.2, 1);
  auto composed = circuitToZX(c).compose(circuitToZX(c).adjoint());
  EXPECT_FALSE(fullReduce(composed, [] { return true; }));
}

/// The sweep-replay order stated as two ordered sets and a scan position:
/// the reference the bitset worklist must pop identically to.
struct ReferenceWorklist {
  std::set<Vertex> sweep;
  std::set<Vertex> next;
  std::int64_t position = -1;

  void restart() {
    sweep.clear();
    next.clear();
    position = -1;
  }
  bool push(const Vertex v) {
    if (sweep.count(v) != 0 || next.count(v) != 0) {
      return false;
    }
    (static_cast<std::int64_t>(v) > position ? sweep : next).insert(v);
    return true;
  }
  [[nodiscard]] bool empty() const { return sweep.empty() && next.empty(); }
  Vertex pop() {
    if (sweep.empty()) {
      std::swap(sweep, next);
      position = -1;
    }
    const Vertex v = *sweep.begin();
    sweep.erase(sweep.begin());
    position = static_cast<std::int64_t>(v);
    return v;
  }
};

TEST(ZXWorklistTest, PopOrderMatchesTwoSetReference) {
  std::size_t below = 0;
  std::size_t at = 0;
  std::size_t above = 0;
  std::size_t sweepSwaps = 0;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    std::mt19937_64 rng(seed);
    // 150 live ids with holes; pushes reach past the bound, as vertices
    // added mid-pass do.
    ZXDiagram g;
    for (int i = 0; i < 150; ++i) {
      g.addVertex(VertexType::Z);
    }
    for (Vertex v = 3; v < 150; v += 7) {
      g.removeVertex(v);
    }
    Simplifier::Worklist worklist;
    ReferenceWorklist reference;
    const auto label = "seed " + std::to_string(seed);
    for (int step = 0; step < 3000; ++step) {
      const auto op = rng() % 100;
      if (op < 2) {
        worklist.restart(g);
        reference.restart();
      } else if (op < 4) {
        worklist.reset(g);
        reference.restart();
        for (const Vertex v : g.vertices()) {
          reference.push(v);
        }
      } else if (op < 55) {
        Vertex v = 0;
        const auto kind = rng() % 3;
        if (kind == 0 && reference.position > 0) {
          v = static_cast<Vertex>(rng() %
                                  static_cast<std::uint64_t>(
                                      reference.position));
          ++below;
        } else if (kind == 1 && reference.position >= 0) {
          v = static_cast<Vertex>(reference.position);
          ++at;
        } else {
          v = static_cast<Vertex>(reference.position + 1 +
                                  static_cast<std::int64_t>(rng() % 100));
          ++above;
        }
        ASSERT_EQ(worklist.push(v), reference.push(v)) << label;
      } else if (!reference.empty()) {
        sweepSwaps += reference.sweep.empty() ? 1 : 0;
        ASSERT_FALSE(worklist.empty()) << label;
        ASSERT_EQ(worklist.pop(), reference.pop()) << label;
      }
      ASSERT_EQ(worklist.empty(), reference.empty()) << label;
      const auto issues = worklist.checkInvariant();
      ASSERT_TRUE(issues.empty()) << label << ": " << issues.front();
    }
    while (!reference.empty()) {
      ASSERT_EQ(worklist.pop(), reference.pop()) << label;
    }
    EXPECT_TRUE(worklist.empty()) << label;
  }
  // Every push position and the sweep swap were exercised.
  EXPECT_GT(below, 0U);
  EXPECT_GT(at, 0U);
  EXPECT_GT(above, 0U);
  EXPECT_GT(sweepSwaps, 0U);
}

TEST(ZXSimplifyTest, StatsMatchScanEngineBaselines) {
  // The worklist scheduler must replay the rewrite order of the original
  // scan-to-fixpoint engine exactly, so the per-rule counts on fixed seeds
  // are part of the contract. These baselines were recorded from the
  // scan-based engine before the worklist rewrite.
  struct Expected {
    std::size_t spider, id, lcomp, pivot, gadgetPivot, boundaryPivot, gadget;
    std::size_t spiders;
  };
  const auto run = [](ZXDiagram d, const Expected& e, const char* label) {
    Simplifier s(d);
    ASSERT_TRUE(s.fullReduce()) << label;
    const auto& st = s.stats();
    EXPECT_EQ(st.spiderFusions, e.spider) << label;
    EXPECT_EQ(st.idRemovals, e.id) << label;
    EXPECT_EQ(st.localComplementations, e.lcomp) << label;
    EXPECT_EQ(st.pivots, e.pivot) << label;
    EXPECT_EQ(st.gadgetPivots, e.gadgetPivot) << label;
    EXPECT_EQ(st.boundaryPivots, e.boundaryPivot) << label;
    EXPECT_EQ(st.gadgetFusions, e.gadget) << label;
    EXPECT_EQ(d.spiderCount(), e.spiders) << label;
  };
  run(circuitToZX(circuits::randomClifford(4, 10, 3)),
      {24, 2, 2, 3, 0, 1, 0, 8}, "clifford(4,10,3)");
  run(circuitToZX(circuits::randomClifford(10, 100, 1)),
      {629, 19, 174, 87, 0, 0, 0, 20}, "clifford(10,100,1)");
  run(circuitToZX(circuits::randomCliffordT(8, 80, 0.2, 1)),
      {424, 7, 77, 36, 12, 4, 0, 73}, "cliffordT(8,80,0.2,1)");
  const Expected inverses[] = {{31, 9, 0, 0, 0, 0, 0, 0},
                               {42, 10, 0, 0, 0, 0, 0, 0},
                               {36, 10, 0, 0, 0, 0, 0, 0},
                               {42, 12, 0, 0, 0, 0, 0, 0}};
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const auto c = circuits::randomCliffordT(4, 6, 0.3, seed);
    run(circuitToZX(c).compose(circuitToZX(c).adjoint()), inverses[seed],
        "cliffordT-inv");
  }
}

TEST(ZXSimplifyTest, RuleStatsAreConsistent) {
  const auto c = circuits::randomCliffordT(6, 40, 0.2, 2);
  auto d = circuitToZX(c).compose(circuitToZX(c).adjoint());
  Simplifier s(d);
  ASSERT_TRUE(s.fullReduce());
  const auto& st = s.stats();
  std::size_t perRuleRewrites = 0;
  for (const auto& r : st.rules) {
    EXPECT_LE(r.matches, r.candidates);
    EXPECT_GE(r.seconds, 0.0);
    perRuleRewrites += r.rewrites;
  }
  // Per-rule counters attribute rewrites to the pass they ran in; the
  // legacy family counters count events by type. Fusions also fire inside
  // toGraphLike and as by-products of other passes, so the per-pass sum is
  // a (positive) lower bound on the event total.
  EXPECT_GT(perRuleRewrites, 0U);
  EXPECT_LE(perRuleRewrites, st.total());
  EXPECT_LE(st.rules[static_cast<std::size_t>(SimplifyRule::Spider)].rewrites,
            st.spiderFusions);
  EXPECT_EQ(st.rules[static_cast<std::size_t>(SimplifyRule::Pivot)].rewrites,
            st.pivots);
  EXPECT_GT(st.totalSeconds(), 0.0);
  const auto digest = st.digest();
  EXPECT_NE(digest.find("spider"), std::string::npos) << digest;
}

TEST(ZXSimplifyTest, GadgetRulesCanBeDisabled) {
  // With the gadget families off, fullReduce stops at the Clifford fixed
  // point: still sound, and on pure Clifford input exactly as strong.
  const auto c = circuits::randomClifford(4, 12, 5);
  auto composed = circuitToZX(c).compose(circuitToZX(c).adjoint());
  SimplifierOptions options;
  options.gadgetRules = false;
  Simplifier s(composed, {}, options);
  ASSERT_TRUE(s.fullReduce());
  EXPECT_EQ(s.stats().gadgetPivots, 0U);
  EXPECT_EQ(s.stats().gadgetFusions, 0U);
  const auto perm = extractWirePermutation(composed);
  ASSERT_TRUE(perm.has_value());
  EXPECT_TRUE(perm->isIdentity());
}

TEST(ZXSimplifyTest, GadgetFusionFiresOnPhasePolynomials) {
  // Two CZ-conjugated T gates on the same qubit pair create equal-support
  // gadgets that must fuse.
  QuantumCircuit c(2);
  c.cx(0, 1);
  c.t(1);
  c.cx(0, 1);
  c.cx(0, 1);
  c.t(1);
  c.cx(0, 1);
  auto d = circuitToZX(c);
  const auto before = toMatrix(d);
  Simplifier s(d);
  ASSERT_TRUE(s.fullReduce());
  EXPECT_TRUE(proportional(toMatrix(d), before));
}

TEST(SimplifierBudgetTest, VertexBudgetThrowsResourceLimitError) {
  auto d = circuitToZX(circuits::qft(4));
  ASSERT_GT(d.vertexCount(), 4U);
  SimplifierOptions options;
  options.maxVertices = 4;
  Simplifier s(d, {}, options);
  try {
    (void)s.fullReduce();
    FAIL() << "expected ResourceLimitError";
  } catch (const ResourceLimitError& e) {
    EXPECT_EQ(e.resource(), "ZX vertices");
    EXPECT_EQ(e.limit(), 4U);
    EXPECT_GE(e.observed(), d.vertexCount());
  }
}

TEST(SimplifierBudgetTest, GenerousBudgetDoesNotInterfere) {
  auto c = circuits::ghz(3);
  auto d = circuitToZX(c);
  const auto before = toMatrix(d);
  SimplifierOptions options;
  options.maxVertices = 1U << 20U;
  Simplifier s(d, {}, options);
  ASSERT_TRUE(s.fullReduce());
  EXPECT_TRUE(proportional(toMatrix(d), before));
}

// --- incremental scheduling ---------------------------------------------------

/// FNV-1a of the diagram's text form: a platform-independent fingerprint of
/// a reduced diagram (vertex ids, phases and every edge).
std::uint64_t fingerprint(const ZXDiagram& d) {
  std::uint64_t hash = 14695981039346656037ULL;
  for (const char c : d.toString()) {
    hash = (hash ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
  }
  return hash;
}

/// One fullReduce as text: family counts (f), per-rule matches (m) and
/// rewrites (r) in SimplifyRule order, remaining spiders (s) and the reduced
/// diagram's fingerprint (h). Candidates and seconds are left out: they
/// depend on how passes are seeded, the rest is the rewrite contract.
std::string reductionDigest(ZXDiagram d) {
  Simplifier s(d);
  EXPECT_TRUE(s.fullReduce());
  const auto& st = s.stats();
  std::ostringstream os;
  os << "f" << st.spiderFusions << ',' << st.idRemovals << ','
     << st.localComplementations << ',' << st.pivots << ','
     << st.gadgetPivots << ',' << st.boundaryPivots << ','
     << st.gadgetFusions;
  const auto perRule = [&os, &st](const char* tag, auto field) {
    os << tag;
    for (std::size_t i = 0; i < st.rules.size(); ++i) {
      os << (i == 0 ? "" : ",") << st.rules[i].*field;
    }
  };
  perRule(" m", &RuleStats::matches);
  perRule(" r", &RuleStats::rewrites);
  os << " s" << d.spiderCount() << " h" << std::hex << fingerprint(d);
  return os.str();
}

/// G composed with the adjoint of G', aligned and decomposed as zxCheck
/// builds it.
ZXDiagram checkDiagram(const QuantumCircuit& g, const QuantumCircuit& gPrime) {
  const auto [a, b] = alignCircuits(g, gPrime);
  return circuitToZX(compile::decomposeForZX(a))
      .compose(circuitToZX(compile::decomposeForZX(b)).adjoint());
}

QuantumCircuit flippedCnot(const QuantumCircuit& c, const std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  auto flipped = circuits::flipRandomCnot(c, rng);
  EXPECT_TRUE(flipped.has_value());
  return *flipped;
}

/// Compiled to the 65-qubit heavy hex, as in the paper's Table 1.
QuantumCircuit compiled(const QuantumCircuit& c) {
  return compile::compileForArchitecture(
      c, compile::Architecture::ibmManhattanLike());
}

TEST(ZXIncrementalTest, RandomCliffordTReductionsMatchRecordedBaselines) {
  // Recorded before passes were seeded incrementally: seeding may only
  // change how many candidates a pass examines, never what it rewrites.
  const char* const expected[] = {
      "f240,5,36,15,8,1,0 m64,5,36,15,8,1,0 r235,5,36,15,8,1,0 s43 "
      "hbeaf89a15f67ed55",
      "f236,2,49,10,10,2,0 m69,2,49,10,10,2,0 r234,2,49,10,10,2,0 s49 "
      "hcb6565014c8d95c1",
      "f227,6,35,21,10,1,0 m86,6,35,21,10,1,0 r223,6,35,21,10,1,0 s58 "
      "he1ee7aa01f4626af",
      "f240,8,29,22,7,2,0 m71,8,29,22,7,2,0 r232,8,29,22,7,2,0 s41 "
      "h982fac7c90eaf91e",
      "f307,79,0,0,0,0,0 m73,79,0,0,0,0,0 r233,79,0,0,0,0,0 s0 "
      "had0d6fcd31818bda",
      "f302,65,2,4,0,1,0 m73,65,2,4,0,1,0 r237,65,2,4,0,1,0 s8 "
      "hf91f99577cb17f8c",
      "f335,53,0,0,0,0,0 m61,53,0,0,0,0,0 r287,53,0,0,0,0,0 s0 "
      "hbd3099bbde92fe56",
      "f333,45,0,0,0,1,0 m60,45,0,0,0,1,0 r289,45,0,0,0,1,0 s9 "
      "hc36fa54ea22ade39",
  };
  std::size_t i = 0;
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const auto c = circuits::randomCliffordT(6, 60, 0.2, seed);
    EXPECT_EQ(reductionDigest(circuitToZX(c)), expected[i++])
        << "cliffordT(6,60) seed " << seed;
  }
  for (std::uint64_t seed = 0; seed < 2; ++seed) {
    const auto c = circuits::randomCliffordT(5, 40, 0.25, seed);
    EXPECT_EQ(reductionDigest(checkDiagram(c, c)), expected[i++])
        << "cliffordT(5,40) equivalent seed " << seed;
    EXPECT_EQ(reductionDigest(checkDiagram(c, flippedCnot(c, seed))),
              expected[i++])
        << "cliffordT(5,40) flipped seed " << seed;
  }
}

TEST(ZXIncrementalTest, CompiledReductionsMatchRecordedBaselines) {
  const char* const expected[] = {
      "f2333,680,152,1105,984,2,221 m703,680,152,1105,984,2,221 "
      "r1662,680,152,1105,984,2,221 s0 hc0cb8fb2422cefe0",
      "f1913,253,66,873,961,0,209 m704,253,66,873,961,0,209 "
      "r1662,253,66,873,961,0,209 s1422 h9fdc32233d39baf6",
      "f2497,789,218,1166,1029,4,121 m714,789,218,1166,1029,4,121 "
      "r1716,789,218,1166,1029,4,121 s0 h31b66330f05b0366",
      "f1989,275,148,926,1024,0,139 m715,275,148,926,1024,0,139 "
      "r1716,275,148,926,1024,0,139 s1536 hb4f81eb6d73213de",
  };
  std::size_t i = 0;
  for (const auto& g : {circuits::grover(5, 19), circuits::quantumWalk(4, 3)}) {
    const auto gPrime = compiled(g);
    EXPECT_EQ(reductionDigest(checkDiagram(g, gPrime)), expected[i++])
        << g.name() << " equivalent";
    EXPECT_EQ(reductionDigest(checkDiagram(g, flippedCnot(gPrime, 1001))),
              expected[i++])
        << g.name() << " flipped";
  }
}

TEST(ZXIncrementalTest, OptimizedReductionsMatchRecordedBaselines) {
  // The paper's optimized flow (decomposed vs optimized), where gadget
  // pivoting dominates the rule time. Recorded before the pivot rewrites
  // expanded each neighborhood once and merged each adjacency row once.
  const char* const expected[] = {
      "f662,182,121,92,217,8,29 m158,182,121,92,217,8,29 "
      "r496,182,121,92,217,8,29 s0 h821b9da796acd779",
      "f641,151,113,89,217,4,35 m158,151,113,89,217,4,35 "
      "r496,151,113,89,217,4,35 s57 h37f678568b21b082",
  };
  const auto original = circuits::mixedReversible(8, 80, 231);
  const auto g = compile::decomposeToCnot(original);
  const auto gPrime = opt::optimize(g);
  EXPECT_EQ(reductionDigest(checkDiagram(g, gPrime)), expected[0])
      << "equivalent";
  EXPECT_EQ(reductionDigest(checkDiagram(g, flippedCnot(gPrime, 2002))),
            expected[1])
      << "flipped";
}

TEST(ZXIncrementalTest, CompiledGroverExaminesFarFewerCandidates) {
  // Every pass seeding every live vertex examined 902,882 candidates here;
  // seeding from the changes since each rule's last fixpoint drops that
  // below 200,000 for the same 5,477 rewrites.
  const auto g = circuits::grover(5, 19);
  auto d = checkDiagram(g, compiled(g));
  Simplifier s(d);
  ASSERT_TRUE(s.fullReduce());
  std::size_t candidates = 0;
  for (const auto& r : s.stats().rules) {
    candidates += r.candidates;
  }
  EXPECT_EQ(s.stats().total(), 5477U);
  EXPECT_LT(candidates, 200000U);
}

TEST(ZXIncrementalTest, CompiledGroverQueuesTheRecordedCandidates) {
  // Recorded before rewrites expanded each neighborhood at most once per
  // candidate and depth. A skipped expansion may only be one that would
  // re-queue vertices already pending, so every pass must still examine
  // exactly the same candidates.
  const std::size_t expected[kSimplifyRuleCount] = {
      14978, 16439, 13487, 33323, 12845, 4226, 12762};
  const auto g = circuits::grover(5, 19);
  auto d = checkDiagram(g, compiled(g));
  Simplifier s(d);
  ASSERT_TRUE(s.fullReduce());
  for (std::size_t i = 0; i < kSimplifyRuleCount; ++i) {
    EXPECT_EQ(s.stats().rules[i].candidates, expected[i])
        << kSimplifyRuleNames[i];
  }
}

// Hand-built graph-like diagrams for the read-radius tests: Z spiders with
// phases in units of pi/4, Hadamard wires between spiders, plain wires to
// boundaries.
Vertex spider(ZXDiagram& d, const std::int64_t quarterPis) {
  return d.addVertex(VertexType::Z, PiRational(quarterPis, 4));
}

void hadamard(ZXDiagram& d, const Vertex a, const Vertex b) {
  d.addEdge(a, b, EdgeType::Hadamard);
}

void boundary(ZXDiagram& d, const Vertex v) {
  d.addEdge(d.addVertex(VertexType::Boundary), v, EdgeType::Simple);
}

using Pass = std::size_t (Simplifier::*)();

/// `s` drained `pass` before one change enabled the rule at its read radius.
/// The next pass, seeded from that change, must rewrite exactly what a fresh
/// simplifier's pass (seeding every vertex) rewrites on a copy.
void expectIncrementalPassMatchesFresh(ZXDiagram& d, Simplifier& s,
                                       const Pass pass) {
  auto copy = d;
  Simplifier fresh(copy);
  const std::size_t expected = (fresh.*pass)();
  ASSERT_GT(expected, 0U) << "the change must enable the rule";
  EXPECT_EQ((s.*pass)(), expected);
  EXPECT_EQ(d.toString(), copy.toString());
}

TEST(ZXIncrementalTest, PivotGadgetReseedsTwoHopsFromADegreeChange) {
  // u -- v would pivot (v gadgetized) but for v's leaf w. Once w gains an
  // edge it is no leaf: the only changes are at w and its new neighbor,
  // two and three hops from the candidate u.
  ZXDiagram d;
  const Vertex u = spider(d, 0);
  const Vertex v = spider(d, 1);
  const Vertex w = spider(d, 1);
  const Vertex a = spider(d, 1);
  const Vertex b = spider(d, 1);
  hadamard(d, u, v);
  hadamard(d, u, a);
  hadamard(d, v, w);
  hadamard(d, v, b);
  boundary(d, a);
  boundary(d, b);
  Simplifier s(d);
  ASSERT_EQ(s.pivotGadgetSimp(), 0U);
  const Vertex y =
      SimplifierTestAccess::addVertex(s, VertexType::Z, PiRational(1, 4));
  SimplifierTestAccess::addEdge(s, w, y, EdgeType::Hadamard);
  expectIncrementalPassMatchesFresh(d, s, &Simplifier::pivotGadgetSimp);
}

TEST(ZXIncrementalTest, PivotBoundaryReseedsOneHopFromAPhaseChange) {
  // u -- v would be a boundary pivot but for v's phase pi/2. Complementing
  // v's leaf x takes v to phase 0; the change is at v, the match at u.
  ZXDiagram d;
  const Vertex u = spider(d, 0);
  const Vertex v = spider(d, 2);
  const Vertex x = spider(d, 2);
  const Vertex a = spider(d, 1);
  hadamard(d, u, v);
  hadamard(d, u, a);
  hadamard(d, v, x);
  boundary(d, v);
  boundary(d, a);
  Simplifier s(d);
  ASSERT_EQ(s.pivotBoundarySimp(), 0U);
  ASSERT_EQ(s.lcompSimp(), 1U);
  expectIncrementalPassMatchesFresh(d, s, &Simplifier::pivotBoundarySimp);
}

/// Two phase gadgets (a phase-0 hub with a pi/4 leaf) on the same targets
/// x (phase 0, on a boundary) and t. gadgetSimp fuses the second into the
/// first: x loses the second hub, and the first leaf gains pi/4.
struct TwinGadgets {
  ZXDiagram d;
  Vertex x = 0;
  Vertex keptLeaf = 0;
};

TwinGadgets twinGadgets() {
  TwinGadgets g;
  g.x = spider(g.d, 0);
  const Vertex t = spider(g.d, 1);
  boundary(g.d, g.x);
  boundary(g.d, t);
  for (int i = 0; i < 2; ++i) {
    const Vertex hub = spider(g.d, 0);
    const Vertex leaf = spider(g.d, 1);
    hadamard(g.d, hub, leaf);
    hadamard(g.d, hub, g.x);
    hadamard(g.d, hub, t);
    if (i == 0) {
      g.keptLeaf = leaf;
    }
  }
  return g;
}

TEST(ZXIncrementalTest, IdReseedsTheNeighborsOfARemovedVertex) {
  // The removed hub is the only change at x, which drops to degree 2.
  auto g = twinGadgets();
  Simplifier s(g.d);
  ASSERT_EQ(s.idSimp(), 0U);
  ASSERT_EQ(s.gadgetSimp(), 1U);
  ASSERT_EQ(g.d.degree(g.x), 2U);
  expectIncrementalPassMatchesFresh(g.d, s, &Simplifier::idSimp);
}

TEST(ZXIncrementalTest, LcompReseedsAVertexWhosePhaseChanged) {
  // The kept leaf's only change is its phase, now pi/2.
  auto g = twinGadgets();
  Simplifier s(g.d);
  ASSERT_EQ(s.lcompSimp(), 0U);
  ASSERT_EQ(s.gadgetSimp(), 1U);
  ASSERT_EQ(g.d.phase(g.keptLeaf), PiRational(1, 2));
  expectIncrementalPassMatchesFresh(g.d, s, &Simplifier::lcompSimp);
}

} // namespace
} // namespace veriqc::zx

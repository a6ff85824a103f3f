#include "circuits/benchmarks.hpp"
#include "dd/compute_table.hpp"
#include "dd/package.hpp"
#include "dd/unique_table.hpp"
#include "sim/dd_simulator.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>

namespace veriqc::dd {
namespace {

NodeSlab<mEdge>::Children terminalChildren() {
  return {kTerminalIndex, kTerminalIndex, kTerminalIndex, kTerminalIndex};
}

TEST(NodeSlabTest, DeduplicatesEqualNodes) {
  NodeSlab<mEdge> slab(0);
  const auto children = terminalChildren();
  const NodeSlab<mEdge>::Weights weights{{{1.0, 0.0},
                                          {0.0, 0.0},
                                          {0.0, 0.0},
                                          {1.0, 0.0}}};
  const auto a = slab.lookup(children, weights);
  EXPECT_EQ(levelOfIndex(a), 0);
  const auto b = slab.lookup(children, weights);
  EXPECT_EQ(a, b);
  EXPECT_EQ(slab.size(), 1U);
  EXPECT_EQ(slab.stats().hits, 1U);
}

TEST(NodeSlabTest, RemoveRecyclesTheSlot) {
  NodeSlab<mEdge> slab(0);
  const NodeSlab<mEdge>::Weights w1{{{1.0, 0.0},
                                     {0.0, 0.0},
                                     {0.0, 0.0},
                                     {1.0, 0.0}}};
  const NodeSlab<mEdge>::Weights w2{{{1.0, 0.0},
                                     {0.5, 0.0},
                                     {0.0, 0.0},
                                     {1.0, 0.0}}};
  const auto a = slab.lookup(terminalChildren(), w1);
  slab.remove(a);
  EXPECT_FALSE(slab.contains(a));
  EXPECT_EQ(slab.size(), 0U);
  // The freed slot is reused for the next insertion (free-list first).
  const auto b = slab.lookup(terminalChildren(), w2);
  EXPECT_EQ(slotOfIndex(b), slotOfIndex(a));
  EXPECT_EQ(slab.stats().allocatedSlots, 1U);
}

TEST(NodeSlabTest, GrowsBeyondInitialBuckets) {
  NodeSlab<mEdge> slab(0);
  // Insert far more distinct nodes than the initial bucket count.
  for (int i = 1; i <= 3000; ++i) {
    const NodeSlab<mEdge>::Weights weights{{{static_cast<double>(i), 0.0},
                                            {0.0, 0.0},
                                            {0.0, 0.0},
                                            {1.0, 0.0}}};
    const auto n = slab.lookup(terminalChildren(), weights);
    ASSERT_TRUE(slab.contains(n)) << i;
  }
  EXPECT_EQ(slab.size(), 3000U);
  const auto stats = slab.stats();
  EXPECT_GT(stats.buckets, 64U);
  EXPECT_GT(stats.slabGrowths, 0U);
  EXPECT_GE(stats.meanProbeLength(), 1.0);
}

TEST(NodeSlabTest, GarbageCollectRemovesOnlyDeadNodes) {
  NodeSlab<mEdge> slab(0);
  const NodeSlab<mEdge>::Weights w1{{{1.0, 0.0},
                                     {0.0, 0.0},
                                     {0.0, 0.0},
                                     {1.0, 0.0}}};
  const NodeSlab<mEdge>::Weights w2{{{1.0, 0.0},
                                     {0.0, 0.0},
                                     {0.0, 0.0},
                                     {0.5, 0.0}}};
  const auto alive = slab.lookup(terminalChildren(), w1);
  slab.ref(slotOfIndex(alive)) = 1;
  const auto dead = slab.lookup(terminalChildren(), w2);
  EXPECT_EQ(slab.garbageCollect(), 1U);
  EXPECT_EQ(slab.size(), 1U);
  EXPECT_TRUE(slab.contains(alive));
  EXPECT_FALSE(slab.contains(dead));
}

TEST(ComputeTableTest, InsertLookupAndClear) {
  ComputeTable<mEdge, mEdge, mEdge> table;
  const auto n = makeNodeIndex(0, 1);
  const mEdge key1{n, {1.0, 0.0}};
  const mEdge key2{n, {0.5, 0.0}};
  const mEdge value{n, {0.25, 0.0}};
  EXPECT_EQ(table.lookup(key1, key2), nullptr);
  table.insert(key1, key2, value);
  const auto* hit = table.lookup(key1, key2);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, value);
  // Different weight misses.
  EXPECT_EQ(table.lookup(key2, key1), nullptr);
  table.clear();
  EXPECT_EQ(table.lookup(key1, key2), nullptr);
  EXPECT_GE(table.lookups(), 3U);
  EXPECT_EQ(table.hits(), 1U);
}

TEST(ComputeTableTest, GenerationBumpInvalidatesInConstantTime) {
  ComputeTable<mEdge, mEdge, mEdge> table(8);
  const auto n = makeNodeIndex(0, 1);
  const mEdge key{n, {1.0, 0.0}};
  const mEdge value{n, {0.5, 0.0}};
  table.insert(key, key, value);
  ASSERT_NE(table.lookup(key, key), nullptr);
  table.clear();
  EXPECT_EQ(table.lookup(key, key), nullptr);
  EXPECT_EQ(table.stats().invalidations, 1U);
  // A stale entry must not resurface in the new generation, but fresh
  // inserts behave as in an empty table.
  table.insert(key, key, value);
  const auto* hit = table.lookup(key, key);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, value);
}

TEST(ComputeTableTest, CollisionStressNeverReturnsWrongValue) {
  // Two slots: nearly every insert evicts and mismatched lookups collide.
  ComputeTable<mEdge, mEdge, mEdge> table(2);
  EXPECT_EQ(table.capacity(), 2U);
  const auto n = makeNodeIndex(0, 1);
  constexpr int kKeys = 256;
  for (int i = 0; i < kKeys; ++i) {
    const mEdge lhs{n, {static_cast<double>(i), 0.0}};
    const mEdge rhs{n, {0.0, static_cast<double>(i)}};
    table.insert(lhs, rhs, mEdge{n, {static_cast<double>(i), -1.0}});
  }
  for (int i = 0; i < kKeys; ++i) {
    const mEdge lhs{n, {static_cast<double>(i), 0.0}};
    const mEdge rhs{n, {0.0, static_cast<double>(i)}};
    const auto* hit = table.lookup(lhs, rhs);
    if (hit != nullptr) {
      // A hit must carry exactly the value inserted under this key.
      EXPECT_EQ(hit->w, (std::complex<double>{static_cast<double>(i), -1.0}))
          << i;
    }
  }
  EXPECT_GT(table.stats().collisions, 0U);
  EXPECT_LT(table.stats().hits, static_cast<std::size_t>(kKeys));
}

TEST(NodePairComputeTableTest, PackedKeysDistinguishOperandOrder) {
  NodePairComputeTable<mEdge> table(8);
  const auto a = makeNodeIndex(1, 3);
  const auto b = makeNodeIndex(1, 7);
  const mEdge resAB{a, {0.5, 0.0}};
  table.insert(a, b, resAB);
  const auto* hit = table.lookup(a, b);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, resAB);
  // The reversed pair is a different key (xy != yx in general).
  const auto* reversed = table.lookup(b, a);
  if (reversed != nullptr) {
    // If the hash buckets collide, the key compare must still reject it.
    EXPECT_EQ(*reversed, resAB) << "stale value surfaced for a reversed key";
    FAIL() << "reversed operand pair must not hit";
  }
  table.clear();
  EXPECT_EQ(table.lookup(a, b), nullptr);
  EXPECT_EQ(table.stats().invalidations, 1U);
}

TEST(UnaryComputeTableTest, CountsLookupsHitsAndInvalidations) {
  UnaryComputeTable<mEdge> table(4);
  const auto a = makeNodeIndex(0, 0);
  const auto b = makeNodeIndex(1, 0);
  EXPECT_EQ(table.lookup(a), nullptr); // miss on an empty table is counted
  table.insert(a, mEdge{a, {1.0, 0.0}});
  ASSERT_NE(table.lookup(a), nullptr);
  EXPECT_EQ(table.lookup(b), nullptr);
  EXPECT_EQ(table.stats().lookups, 3U);
  EXPECT_EQ(table.stats().hits, 1U);
  table.clear();
  EXPECT_EQ(table.lookup(a), nullptr);
  EXPECT_EQ(table.stats().invalidations, 1U);
}

TEST(RealTableTest, NeighborBucketLookupAcrossBoundary) {
  RealTable table(1e-6);
  // Two values within tolerance but in adjacent buckets must unify.
  const double v1 = 1.0 - 1e-7;
  const double v2 = 1.0 + 1e-7;
  const double a = table.lookup(v1);
  const double b = table.lookup(v2);
  EXPECT_EQ(a, b);
}

TEST(RealTableTest, CountsDistinctValues) {
  RealTable table(1e-10);
  (void)table.lookup(0.123);
  (void)table.lookup(0.456);
  (void)table.lookup(0.123 + 1e-12); // unifies
  EXPECT_EQ(table.size(), 2U);
  table.clear();
  EXPECT_EQ(table.size(), 0U);
}

TEST(PackageTest, ZeroMatrixAbsorbsMultiplication) {
  Package p(3);
  const auto h = p.makeOperationDD(Operation(OpType::H, {}, {0}));
  const auto zero = p.zeroMatrix();
  EXPECT_TRUE(p.multiply(h, zero).isZero());
  EXPECT_TRUE(p.multiply(zero, h).isZero());
  // Adding zero is the identity of addition.
  const auto sum = p.add(h, zero);
  EXPECT_EQ(sum.n, h.n);
  EXPECT_EQ(sum.w, h.w);
}

TEST(PackageTest, ConjugateTransposeIsInvolution) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    Package p(3);
    auto e = sim::buildUnitaryDD(p, circuits::randomCircuit(3, 15, seed));
    const auto twice = p.conjugateTranspose(p.conjugateTranspose(e));
    EXPECT_EQ(twice.n, e.n) << "seed " << seed;
    EXPECT_NEAR(std::abs(twice.w - e.w), 0.0, 1e-12) << "seed " << seed;
    p.decRef(e);
  }
}

TEST(PackageTest, MultiplicationIsAssociative) {
  Package p(2);
  const auto a = p.makeOperationDD(Operation(OpType::H, {}, {0}));
  const auto b = p.makeOperationDD(Operation(OpType::X, {0}, {1}));
  const auto c = p.makeOperationDD(Operation(OpType::S, {}, {1}));
  const auto left = p.multiply(p.multiply(a, b), c);
  const auto right = p.multiply(a, p.multiply(b, c));
  EXPECT_EQ(left.n, right.n);
  EXPECT_NEAR(std::abs(left.w - right.w), 0.0, 1e-12);
}

TEST(PackageTest, BasisStateSizeMismatchThrows) {
  Package p(3);
  EXPECT_THROW((void)p.makeBasisState({true, false}), std::invalid_argument);
}

TEST(PackageTest, GetEntryOnZeroEdge) {
  Package p(2);
  EXPECT_EQ(p.getEntry(p.zeroMatrix(), 0, 0), std::complex<double>{});
  EXPECT_EQ(p.getAmplitude(p.zeroVectorEdge(), 1), std::complex<double>{});
}

TEST(PackageTest, StatsReflectLiveNodes) {
  Package p(4);
  auto e = sim::buildUnitaryDD(p, circuits::qft(4));
  const auto stats = p.stats();
  EXPECT_GT(stats.matrixNodes, 4U);
  EXPECT_GT(stats.allocations, 0U);
  EXPECT_GT(stats.realNumbers, 0U);
  // Slab metrics are populated and consistent with the node counts.
  EXPECT_EQ(stats.matrixStore.liveNodes, stats.matrixNodes);
  EXPECT_GE(stats.matrixStore.allocatedSlots, stats.matrixNodes);
  EXPECT_GT(stats.matrixStore.lookups, 0U);
  EXPECT_GE(stats.matrixStore.meanProbeLength(), 1.0);
  EXPECT_GT(stats.storeTotal().occupancy(), 0.0);
  p.decRef(e);
}

TEST(PackageTest, IsIdentityStrictVsGlobalPhase) {
  Package p(2);
  const auto ident = p.makeIdent();
  EXPECT_TRUE(p.isIdentity(ident, false));
  const mEdge phased{ident.n, std::complex<double>{0.0, 1.0}};
  EXPECT_TRUE(p.isIdentity(phased, true));
  EXPECT_FALSE(p.isIdentity(phased, false));
  EXPECT_FALSE(p.isIdentity(p.zeroMatrix(), true));
}

TEST(PackageTest, TraceFidelityDistinguishes) {
  Package p(2);
  const auto x = p.makeOperationDD(Operation(OpType::X, {}, {0}));
  EXPECT_LT(p.traceFidelity(x), 0.1);
  EXPECT_NEAR(p.traceFidelity(p.makeIdent()), 1.0, 1e-12);
}

TEST(PackageTest, SwapDDEqualsThreeCnotProduct) {
  Package p(3);
  const auto swap = p.makeSwapDD(0, 2);
  QuantumCircuit c(3);
  c.cx(0, 2);
  c.cx(2, 0);
  c.cx(0, 2);
  auto viaCx = sim::buildUnitaryDD(p, c);
  EXPECT_EQ(swap.n, viaCx.n);
  p.decRef(viaCx);
}

TEST(PackageTest, GarbageCollectionInvalidatesComputeCaches) {
  Package p(3);
  auto e = sim::buildUnitaryDD(p, circuits::randomCircuit(3, 20, 1));
  (void)p.multiply(e, e);
  const auto before = p.stats();
  EXPECT_GT(before.multiply.lookups, 0U);
  p.garbageCollect(true);
  const auto after = p.stats();
  EXPECT_GT(after.multiply.invalidations, before.multiply.invalidations);
  // Recomputation after the generation bump still yields canonical results.
  const auto prod1 = p.multiply(e, e);
  const auto prod2 = p.multiply(e, e);
  EXPECT_EQ(prod1.n, prod2.n);
  EXPECT_EQ(prod1.w, prod2.w);
  p.decRef(e);
}

TEST(PackageTest, GateCacheHitsAcrossGarbageCollection) {
  Package p(3);
  const auto matrix = gateMatrix(OpType::H, {});
  const auto first = p.makeGateDD(matrix, {}, 1);
  // Create garbage and force a collection; the cached gate DD holds its own
  // reference, so the identical canonical node must come back afterwards.
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    auto tmp = sim::buildUnitaryDD(p, circuits::randomCircuit(3, 15, seed));
    p.decRef(tmp);
  }
  EXPECT_GT(p.garbageCollect(true), 0U);
  const auto second = p.makeGateDD(matrix, {}, 1);
  EXPECT_EQ(second.n, first.n);
  EXPECT_EQ(second.w, first.w);
  EXPECT_GE(p.stats().gateCache.hits, 1U);
}

TEST(PackageTest, GateCacheFlushPreservesCorrectness) {
  PackageConfig config;
  config.gateCacheMaxEntries = 2; // force frequent wholesale flushes
  Package p(2, RealTable::kDefaultTolerance, config);
  const auto reference =
      p.makeOperationDD(Operation(OpType::P, {}, {0}, {0.1}));
  for (int i = 1; i <= 8; ++i) {
    (void)p.makeOperationDD(
        Operation(OpType::P, {}, {0}, {0.1 * i + 0.05}));
  }
  const auto stats = p.stats();
  EXPECT_GT(stats.gateCache.invalidations, 0U);
  EXPECT_LE(stats.gateCacheEntries, 2U);
  // Rebuilding an evicted gate still yields the canonical node.
  const auto again = p.makeOperationDD(Operation(OpType::P, {}, {0}, {0.1}));
  EXPECT_EQ(again.n, reference.n);
  EXPECT_EQ(again.w, reference.w);
}

TEST(PackageTest, NestedGateBuildsDoNotPoisonTheGateCache) {
  // makeSwapDD builds nested CX gate DDs (buildSwapDD -> makeGateDD) while
  // the swap's own cache key is still live. With a single scratch key the
  // nested build clobbered the outer key, so the swap could be inserted
  // under the CX's key — poisoning later CX lookups. Build the swap first so
  // the nested CX enters the cache cold, then exercise both entries.
  Package p(2);
  const auto swap = p.makeSwapDD(0, 1);
  const auto cx = p.makeOperationDD(Operation(OpType::X, {0}, {1}));
  // The CX cache hit must return a CX, not the swap...
  EXPECT_FALSE(cx.n == swap.n && cx.w == swap.w);
  // ... and both entries must still be involutions.
  EXPECT_TRUE(p.isIdentity(p.multiply(cx, cx), false));
  EXPECT_TRUE(p.isIdentity(p.multiply(swap, swap), false));
  // Cached round trips stay canonical.
  const auto swapAgain = p.makeSwapDD(0, 1);
  EXPECT_EQ(swapAgain.n, swap.n);
  EXPECT_EQ(swapAgain.w, swap.w);
  const auto cxAgain = p.makeOperationDD(Operation(OpType::X, {0}, {1}));
  EXPECT_EQ(cxAgain.n, cx.n);
  EXPECT_EQ(cxAgain.w, cx.w);
}

TEST(PackageTest, TinyComputeTablesRemainCorrect) {
  // Shrunken tables make collisions the common case; results must not change.
  PackageConfig config;
  config.computeTableEntries = 4;
  config.unaryTableEntries = 2;
  Package p(4, RealTable::kDefaultTolerance, config);
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    auto e = sim::buildUnitaryDD(p, circuits::randomCircuit(4, 30, seed));
    const auto ct = p.conjugateTranspose(e);
    EXPECT_TRUE(p.isIdentity(p.multiply(ct, e), false)) << "seed " << seed;
    p.decRef(e);
  }
  const auto stats = p.stats();
  EXPECT_GT(stats.computeTotal().collisions, 0U);
  EXPECT_GT(stats.conjugateTranspose.lookups, 0U);
}

TEST(PackageTest, GcThresholdIsConfigurableAndExposed) {
  PackageConfig config;
  config.gcInitialThreshold = 128;
  Package p(2, RealTable::kDefaultTolerance, config);
  EXPECT_EQ(p.stats().gcThreshold, 128U);
  Package q(2);
  EXPECT_EQ(q.stats().gcThreshold, kGcInitialThreshold);
}

TEST(PackageTest, NodeBudgetThrowsWhenLiveNodesCannotBeCollected) {
  PackageConfig config;
  config.maxNodes = 2;
  Package p(8, RealTable::kDefaultTolerance, config);
  // An empty package is under any budget.
  EXPECT_NO_THROW((void)p.garbageCollect(true));
  // The 8-qubit identity holds 8 live nodes (referenced and additionally
  // pinned by the package's identity cache), so a forced collection cannot
  // shrink below the budget and must throw.
  const auto ident = p.makeIdent();
  p.incRef(ident);
  try {
    (void)p.garbageCollect(true);
    FAIL() << "expected ResourceLimitError";
  } catch (const ResourceLimitError& e) {
    EXPECT_EQ(e.resource(), "DD nodes");
    EXPECT_EQ(e.limit(), 2U);
    EXPECT_GE(e.observed(), 8U);
  }
}

TEST(PackageTest, UnlimitedBudgetNeverThrows) {
  Package p(8);
  const auto ident = p.makeIdent();
  p.incRef(ident);
  EXPECT_NO_THROW((void)p.garbageCollect(true));
}

TEST(PackageTest, PeakResidentSetIsReported) {
  // getrusage-backed watermark: any live process has a nonzero peak RSS.
  EXPECT_GT(Package::peakResidentSetKB(), 0U);
}

// --- eager release (lookahead loser reclamation) -----------------------------

TEST(PackageReleaseTest, ReleaseReclaimsUnreferencedDiagramImmediately) {
  Package p(4);
  auto kept = sim::buildUnitaryDD(p, circuits::qft(4));
  const auto baseline = p.stats().matrixNodes;
  // An unreferenced product — exactly a lookahead oracle's losing candidate.
  auto loser = p.multiply(kept, kept);
  const auto afterMultiply = p.stats().matrixNodes;
  ASSERT_GT(afterMultiply, baseline);
  const auto loserNodes = p.nodeCount(loser);
  const auto removed = p.release(loser);
  // The loser's exclusive nodes are reclaimed immediately — no GC sweep —
  // which is what keeps node budgets and the adaptive GC threshold honest
  // between lookahead steps. (Orphaned multiply intermediates outside the
  // product DAG stay until the next sweep, so the count need not return all
  // the way to the baseline.)
  EXPECT_GT(removed, 0U);
  EXPECT_LE(removed, loserNodes);
  EXPECT_EQ(p.stats().matrixNodes, afterMultiply - removed);
  EXPECT_EQ(p.stats().releasedNodes, removed);
  p.decRef(kept);
}

TEST(PackageReleaseTest, ReleaseStopsAtSharedReferencedNodes) {
  Package p(3);
  auto winner = sim::buildUnitaryDD(p, circuits::randomCircuit(3, 20, 5));
  // Loser shares winner's entire DAG as a subcomputation: releasing it must
  // not reclaim anything the winner still references.
  auto loser = p.multiply(p.makeOperationDD(Operation(OpType::H, {}, {0})),
                          winner);
  const auto winnerNodes = p.nodeCount(winner);
  (void)p.release(loser);
  EXPECT_EQ(p.nodeCount(winner), winnerNodes);
  // The winner's diagram is still canonical and usable after the release.
  const auto prod1 = p.multiply(winner, winner);
  const auto prod2 = p.multiply(winner, winner);
  EXPECT_EQ(prod1.n, prod2.n);
  EXPECT_EQ(prod1.w, prod2.w);
  p.decRef(winner);
}

TEST(PackageReleaseTest, ReleaseOnReferencedRootIsANoOp) {
  Package p(3);
  auto e = sim::buildUnitaryDD(p, circuits::qft(3));
  const auto before = p.stats().matrixNodes;
  EXPECT_EQ(p.release(e), 0U); // root is incRef'd — nothing may be touched
  EXPECT_EQ(p.stats().matrixNodes, before);
  p.decRef(e);
}

TEST(PackageReleaseTest, SubsequentGarbageCollectionSurvivesEagerRelease) {
  // The hazard pair: eager removal followed by a threshold sweep must not
  // double-free or trip over already-reclaimed slots.
  Package p(4);
  auto kept = sim::buildUnitaryDD(p, circuits::qft(4));
  for (int i = 0; i < 4; ++i) {
    auto loser = p.multiply(kept, kept);
    (void)p.release(loser);
  }
  EXPECT_NO_THROW((void)p.garbageCollect(true));
  const auto prod = p.multiply(kept, kept);
  EXPECT_FALSE(prod.isZero());
  p.decRef(kept);
}

} // namespace
} // namespace veriqc::dd

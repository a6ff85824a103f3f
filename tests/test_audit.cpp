#include "audit/checkpoint.hpp"
#include "audit/dd_audit.hpp"
#include "audit/ir_audit.hpp"
#include "audit/zx_audit.hpp"
#include "dd/package.hpp"
#include "ir/circuit.hpp"
#include "zx/circuit_to_zx.hpp"
#include "zx/diagram.hpp"
#include "zx/simplify.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <utility>
#include <vector>

namespace veriqc::zx {

/// Befriended by ZXDiagram: reaches the raw adjacency rows so mutation tests
/// can plant exactly the corruption an auditor claims to detect.
struct ZXDiagramTestAccess {
  static std::vector<NeighborList>& adjacency(ZXDiagram& g) { return g.adj_; }
  static std::vector<std::size_t>& degrees(ZXDiagram& g) { return g.degrees_; }
};

/// Befriended by Simplifier::Worklist: plants sweep corruption.
struct WorklistTestAccess {
  static std::vector<std::uint64_t>& sweep(Simplifier::Worklist& wl) {
    return wl.sweep_;
  }
  static std::vector<std::uint64_t>& nextSweep(Simplifier::Worklist& wl) {
    return wl.nextSweep_;
  }
  static std::size_t& sweepCount(Simplifier::Worklist& wl) {
    return wl.sweepCount_;
  }
  static std::size_t& nextCount(Simplifier::Worklist& wl) {
    return wl.nextCount_;
  }
  static std::int64_t& position(Simplifier::Worklist& wl) {
    return wl.position_;
  }
};

/// Befriended by Simplifier::ChangeMask: plants byte/list corruption.
struct ChangeMaskTestAccess {
  static std::vector<std::uint8_t>& bits(Simplifier::ChangeMask& mask) {
    return mask.bits_;
  }
  static std::vector<Vertex>& listed(Simplifier::ChangeMask& mask) {
    return mask.listed_;
  }
};

} // namespace veriqc::zx

namespace veriqc {
namespace {

bool hasCode(const audit::AuditReport& report, const std::string& code) {
  for (const auto& finding : report.findings) {
    if (finding.code == code) {
      return true;
    }
  }
  return false;
}

// --- IR auditors -------------------------------------------------------------

TEST(IrAuditTest, CleanOperationAndCircuitHaveNoFindings) {
  QuantumCircuit c(3);
  c.h(0);
  c.cx(0, 1);
  c.ccx(0, 1, 2);
  c.rz(2, 0.25);
  EXPECT_TRUE(audit::auditCircuit(c).empty());
}

TEST(IrAuditTest, FlagsAliasedOperands) {
  // Bypasses Operation::validate on purpose: the auditor must re-derive the
  // violation from the stored operand lists.
  const Operation op(OpType::X, {0}, {0});
  const auto report = audit::auditOperation(op, 2);
  EXPECT_TRUE(report.hasErrors());
  EXPECT_TRUE(hasCode(report, "ir.op.alias"));
}

TEST(IrAuditTest, FlagsOutOfRangeQubit) {
  const Operation op(OpType::X, {}, {5});
  const auto report = audit::auditOperation(op, 2);
  EXPECT_TRUE(hasCode(report, "ir.op.range"));
}

TEST(IrAuditTest, FlagsWrongArity) {
  const Operation op(OpType::RZ, {}, {0}); // RZ needs one parameter
  EXPECT_TRUE(hasCode(audit::auditOperation(op, 1), "ir.op.arity"));
}

TEST(IrAuditTest, FlagsNonFiniteParameter) {
  const Operation op(OpType::RZ, {}, {0},
                     {std::numeric_limits<double>::quiet_NaN()});
  EXPECT_TRUE(hasCode(audit::auditOperation(op, 1), "ir.op.param"));
}

TEST(IrAuditTest, FlagsNoneType) {
  const Operation op(OpType::None, {}, {0});
  EXPECT_TRUE(hasCode(audit::auditOperation(op, 1), "ir.op.type"));
}

TEST(IrAuditTest, FlagsNonBijectivePermutation) {
  auto perm = Permutation::identity(3);
  perm.set(0, 2); // image {2, 1, 2}: 2 hit twice, 0 never
  ASSERT_FALSE(perm.isValid());
  const auto report = audit::auditPermutation(perm);
  EXPECT_TRUE(report.hasErrors());
  EXPECT_TRUE(hasCode(report, "ir.perm.bijection"));
}

TEST(IrAuditTest, FlagsPermutationSizeMismatch) {
  const auto perm = Permutation::identity(2);
  EXPECT_TRUE(hasCode(audit::auditPermutation(perm, 3), "ir.perm.size"));
  EXPECT_FALSE(audit::auditPermutation(perm, 2).hasErrors());
}

TEST(IrAuditTest, FlagsNonFiniteGlobalPhase) {
  QuantumCircuit c(1);
  c.x(0);
  c.setGlobalPhase(std::numeric_limits<double>::infinity());
  EXPECT_TRUE(hasCode(audit::auditCircuit(c), "ir.phase.nonfinite"));
}

// --- invert() round-trip property (audit-backed) -----------------------------

QuantumCircuit randomCircuit(const std::size_t nqubits,
                             const std::size_t gates, std::mt19937_64& rng) {
  QuantumCircuit c(nqubits);
  std::uniform_int_distribution<std::size_t> pick(0, 9);
  std::uniform_int_distribution<Qubit> qubit(
      0, static_cast<Qubit>(nqubits - 1));
  std::uniform_real_distribution<double> angle(-3.0, 3.0);
  for (std::size_t i = 0; i < gates; ++i) {
    const Qubit q = qubit(rng);
    Qubit r = qubit(rng);
    while (r == q) {
      r = qubit(rng);
    }
    switch (pick(rng)) {
    case 0: c.h(q); break;
    case 1: c.s(q); break;
    case 2: c.t(q); break;
    case 3: c.sx(q); break;
    case 4: c.rz(q, angle(rng)); break;
    case 5: c.rx(q, angle(rng)); break;
    case 6: c.u2(q, angle(rng), angle(rng)); break;
    case 7: c.u3(q, angle(rng), angle(rng), angle(rng)); break;
    case 8: c.cx(q, r); break;
    default: c.swap(q, r); break;
    }
  }
  c.setGlobalPhase(angle(rng));
  return c;
}

TEST(IrAuditTest, InvertRoundTripHoldsOnRandomCircuits) {
  std::mt19937_64 rng(7);
  for (int trial = 0; trial < 25; ++trial) {
    const auto c = randomCircuit(4, 40, rng);
    const auto report = audit::auditInvertRoundTrip(c);
    EXPECT_FALSE(report.hasErrors()) << report.toString();
  }
}

TEST(IrAuditTest, InvertRoundTripSkipsNonInvertibleCircuits) {
  QuantumCircuit c(1);
  c.x(0);
  c.append(Operation(OpType::Measure, {}, {0}));
  const auto report = audit::auditInvertRoundTrip(c);
  EXPECT_FALSE(report.hasErrors());
  EXPECT_FALSE(report.empty()); // the skip is recorded as an Info finding
}

// --- DD auditors -------------------------------------------------------------

// White-box helpers: plant corruption directly in a node's slab slot.
dd::NodeSlab<dd::mEdge>& slabOf(dd::Package& package, const dd::mEdge& e) {
  return dd::PackageTestAccess::matrixSlab(package, dd::levelOfIndex(e.n));
}

std::uint32_t slotOf(const dd::mEdge& e) { return dd::slotOfIndex(e.n); }

TEST(DdAuditTest, CleanPackageHasNoFindings) {
  dd::Package package(2);
  QuantumCircuit c(2);
  c.h(0);
  c.cx(0, 1);
  c.t(1);
  dd::mEdge e = package.makeIdent();
  package.incRef(e);
  for (const auto& op : c.ops()) {
    const auto next = package.multiply(package.makeOperationDD(op), e);
    package.incRef(next);
    package.decRef(e);
    e = next;
    package.garbageCollect();
  }
  const std::array roots{e};
  const auto report = audit::auditPackage(package, roots);
  EXPECT_TRUE(report.empty()) << report.toString();
}

TEST(DdAuditTest, FlagsDuplicateUniqueTableNodes) {
  dd::Package package(1);
  const auto h = package.makeOperationDD(Operation(OpType::H, {}, {0}));
  const auto x = package.makeOperationDD(Operation(OpType::X, {}, {0}));
  ASSERT_NE(h.n, x.n);
  // Overwrite X's children with H's: two slab-resident nodes now carry an
  // identical child tuple — canonicity is broken.
  auto& slab = slabOf(package, x);
  slab.children(slotOf(x)) = slab.children(slotOf(h));
  slab.weights(slotOf(x)) = slab.weights(slotOf(h));
  const auto report = audit::auditPackage(package);
  EXPECT_TRUE(report.hasErrors());
  EXPECT_TRUE(hasCode(report, "dd.unique.duplicate"));
}

TEST(DdAuditTest, FlagsSkewedRefcount) {
  dd::Package package(2);
  const auto e =
      package.makeOperationDD(Operation(OpType::X, {0}, {1})); // CX
  slabOf(package, e).ref(slotOf(e)) += 1; // one phantom reference
  const auto report = audit::auditPackage(package);
  EXPECT_TRUE(report.hasErrors());
  EXPECT_TRUE(hasCode(report, "dd.ref.mismatch"));
}

TEST(DdAuditTest, FlagsMisplacedNode) {
  dd::Package package(1);
  const auto h = package.makeOperationDD(Operation(OpType::H, {}, {0}));
  // Mutating a child weight in place invalidates the hash the slab cached at
  // insert time: the node would now probe the wrong bucket.
  slabOf(package, h).weights(slotOf(h))[0] = {1.0 / 3.0, 0.0};
  const auto report = audit::auditPackage(package);
  EXPECT_TRUE(report.hasErrors());
  EXPECT_TRUE(hasCode(report, "dd.unique.misplaced"));
}

TEST(DdAuditTest, FlagsDenormalizedWeights) {
  dd::Package package(1);
  const auto h = package.makeOperationDD(Operation(OpType::H, {}, {0}));
  for (auto& w : slabOf(package, h).weights(slotOf(h))) {
    w *= 0.5; // max child magnitude now 0.5, not 1
  }
  const auto report = audit::auditPackage(package);
  EXPECT_TRUE(report.hasErrors());
  EXPECT_TRUE(hasCode(report, "dd.node.normalization"));
}

TEST(DdAuditTest, FlagsNonInternedWeight) {
  dd::Package package(1);
  const auto h = package.makeOperationDD(Operation(OpType::H, {}, {0}));
  // Never interned by this package.
  slabOf(package, h).weights(slotOf(h))[0] = {0.123456789, 0.0};
  EXPECT_TRUE(hasCode(audit::auditPackage(package), "dd.node.weight"));
}

TEST(DdAuditTest, FlagsRealTableCollision) {
  dd::RealTable reals(1e-9);
  (void)reals.lookup(0.5);
  (void)reals.lookup(0.5 + 4e-9); // distinct under the current tolerance
  EXPECT_TRUE(audit::auditRealTable(reals).empty());
  // Raising the tolerance afterwards makes the two representatives
  // indistinguishable — the canonical-representative invariant is broken.
  reals.setTolerance(1e-8);
  const auto report = audit::auditRealTable(reals);
  EXPECT_TRUE(report.hasErrors());
  EXPECT_TRUE(hasCode(report, "dd.reals.collision"));
}

TEST(DdAuditTest, FlagsStaleComputeCacheEntry) {
  dd::Package package(1);
  const auto h = package.makeOperationDD(Operation(OpType::H, {}, {0}));
  const auto x = package.makeOperationDD(Operation(OpType::X, {}, {0}));
  const auto product = package.multiply(h, x); // seeds the multiply cache
  ASSERT_FALSE(product.isTerminal());
  // Detach the result node from its slab without bumping the compute-table
  // generations: the live cache entry now references a dead handle.
  dd::PackageTestAccess::detachMatrixNode(package, product.n);
  EXPECT_TRUE(hasCode(audit::auditPackage(package), "dd.cache.stale"));
}

TEST(DdAuditTest, FlagsSkewedVectorRefcount) {
  dd::Package package(2);
  auto state = package.makeZeroState();
  package.incRef(state);
  const auto h = package.makeOperationDD(Operation(OpType::H, {}, {0}));
  const auto next = package.multiply(h, state);
  package.incRef(next);
  package.decRef(state);
  state = next;
  const std::array roots{state};
  EXPECT_TRUE(audit::auditPackage(package, {}, roots).empty());
  dd::PackageTestAccess::vectorSlab(package, dd::levelOfIndex(state.n))
      .ref(dd::slotOfIndex(state.n)) += 2;
  EXPECT_TRUE(hasCode(audit::auditPackage(package, {}, roots),
                      "dd.ref.mismatch"));
}

// --- checkpoint gating -------------------------------------------------------

TEST(CheckpointTest, LevelZeroNeverAudits) {
  if (audit::auditLevelFromEnv() != 0) {
    GTEST_SKIP() << "VERIQC_AUDIT overrides the configured level";
  }
  dd::Package package(1);
  const auto h = package.makeOperationDD(Operation(OpType::H, {}, {0}));
  slabOf(package, h).ref(slotOf(h)) += 5; // flagged if any audit ran
  audit::DDCheckpoint checkpoint(audit::kAuditOff, "test");
  EXPECT_FALSE(checkpoint.enabled());
  EXPECT_NO_THROW(checkpoint.postGate(package));
  EXPECT_NO_THROW(checkpoint.boundary(package));
}

TEST(CheckpointTest, LevelOneThrottlesPostGateButNotBoundary) {
  if (audit::auditLevelFromEnv() > 1) {
    GTEST_SKIP() << "VERIQC_AUDIT overrides the configured level";
  }
  dd::Package package(1);
  const auto h = package.makeOperationDD(Operation(OpType::H, {}, {0}));
  slabOf(package, h).ref(slotOf(h)) += 5;
  audit::DDCheckpoint checkpoint(audit::kAuditThrottled, "test");
  for (std::size_t i = 0; i + 1 < audit::kCheckpointStride; ++i) {
    EXPECT_NO_THROW(checkpoint.postGate(package));
  }
  EXPECT_THROW(checkpoint.postGate(package), audit::AuditError);
  EXPECT_THROW(checkpoint.boundary(package), audit::AuditError);
}

TEST(CheckpointTest, LevelTwoAuditsEveryPostGate) {
  dd::Package package(1);
  const auto h = package.makeOperationDD(Operation(OpType::H, {}, {0}));
  slabOf(package, h).ref(slotOf(h)) += 5;
  audit::DDCheckpoint checkpoint(audit::kAuditEveryCheckpoint, "test");
  EXPECT_THROW(checkpoint.postGate(package), audit::AuditError);
}

TEST(CheckpointTest, AuditErrorCarriesContextAndReport) {
  dd::Package package(1);
  const auto h = package.makeOperationDD(Operation(OpType::H, {}, {0}));
  slabOf(package, h).ref(slotOf(h)) += 5;
  audit::DDCheckpoint checkpoint(audit::kAuditEveryCheckpoint,
                                 "unit-test checkpoint");
  try {
    checkpoint.boundary(package);
    FAIL() << "expected AuditError";
  } catch (const audit::AuditError& e) {
    EXPECT_NE(std::string(e.what()).find("unit-test checkpoint"),
              std::string::npos);
    EXPECT_TRUE(e.report().hasErrors());
  }
}

TEST(CheckpointTest, EffectiveLevelIsMaxOfConfiguredAndEnv) {
  EXPECT_EQ(audit::effectiveAuditLevel(audit::kAuditEveryCheckpoint),
            audit::kAuditEveryCheckpoint);
  EXPECT_GE(audit::effectiveAuditLevel(audit::kAuditThrottled),
            audit::kAuditThrottled);
  EXPECT_EQ(audit::effectiveAuditLevel(0), audit::auditLevelFromEnv());
}

// --- ZX auditors -------------------------------------------------------------

zx::ZXDiagram bellDiagram() {
  QuantumCircuit c(2);
  c.h(0);
  c.cx(0, 1);
  return zx::circuitToZX(c);
}

TEST(ZxAuditTest, CleanDiagramHasNoFindings) {
  const auto diagram = bellDiagram();
  const auto report = audit::auditDiagram(diagram);
  EXPECT_TRUE(report.empty()) << report.toString();
}

TEST(ZxAuditTest, FlagsAsymmetricEdge) {
  auto diagram = bellDiagram();
  auto& adj = zx::ZXDiagramTestAccess::adjacency(diagram);
  // Find any edge u-v and bump the multiplicity in one direction only.
  for (zx::Vertex u = 0; u < adj.size(); ++u) {
    if (!adj[u].empty()) {
      adj[u].front().edges.simple += 1;
      break;
    }
  }
  const auto report = audit::auditDiagram(diagram);
  EXPECT_TRUE(report.hasErrors());
  EXPECT_TRUE(hasCode(report, "zx.adj.symmetry"));
}

TEST(ZxAuditTest, FlagsUnsortedAdjacencyRow) {
  auto diagram = bellDiagram();
  auto& adj = zx::ZXDiagramTestAccess::adjacency(diagram);
  bool corrupted = false;
  for (auto& row : adj) {
    if (row.size() >= 2) {
      std::swap(row.front(), row.back());
      corrupted = true;
      break;
    }
  }
  ASSERT_TRUE(corrupted) << "test needs a vertex of degree >= 2";
  EXPECT_TRUE(hasCode(audit::auditDiagram(diagram), "zx.adj.order"));
}

TEST(ZxAuditTest, FlagsStaleDegree) {
  auto diagram = bellDiagram();
  ASSERT_TRUE(audit::auditDiagram(diagram).empty());
  // The stored degree of a live spider drifts from its (intact) row.
  const auto spiders = diagram.vertices();
  const auto spider = std::find_if(
      spiders.begin(), spiders.end(),
      [&diagram](const zx::Vertex v) { return !diagram.isBoundary(v); });
  ASSERT_NE(spider, spiders.end());
  zx::ZXDiagramTestAccess::degrees(diagram)[*spider] += 1;
  const auto report = audit::auditDiagram(diagram);
  EXPECT_TRUE(report.hasErrors());
  EXPECT_TRUE(hasCode(report, "zx.degree"));
  EXPECT_FALSE(hasCode(report, "zx.adj.symmetry"));
}

TEST(ZxAuditTest, FlagsBoundaryPhase) {
  auto diagram = bellDiagram();
  ASSERT_FALSE(diagram.inputs().empty());
  diagram.addPhase(diagram.inputs().front(), zx::PiRational(1, 2));
  EXPECT_TRUE(hasCode(audit::auditDiagram(diagram), "zx.boundary.phase"));
}

TEST(ZxAuditTest, FlagsBoundaryDegree) {
  auto diagram = bellDiagram();
  ASSERT_GE(diagram.inputs().size(), 2U);
  // A second wire into an input vertex breaks the degree-1 invariant.
  diagram.addEdge(diagram.inputs()[0], diagram.inputs()[1],
                  zx::EdgeType::Simple);
  const auto report = audit::auditDiagram(diagram);
  EXPECT_TRUE(hasCode(report, "zx.boundary.degree"));
  // Mid-rewrite audits skip the degree check but keep the rest.
  EXPECT_FALSE(hasCode(audit::auditDiagram(diagram, false),
                       "zx.boundary.degree"));
}

bool mentions(const audit::AuditReport& report, const std::string& code,
              const std::string& fragment) {
  for (const auto& finding : report.findings) {
    if (finding.code == code &&
        finding.message.find(fragment) != std::string::npos) {
      return true;
    }
  }
  return false;
}

TEST(ZxAuditTest, FlagsWorklistSweepCorruption) {
  auto diagram = bellDiagram().compose(bellDiagram().adjoint());
  zx::Simplifier simplifier(diagram);
  ASSERT_TRUE(simplifier.fullReduce()); // sizes, fills and drains the sweeps
  EXPECT_TRUE(audit::auditWorklist(simplifier).empty());
  auto& worklist =
      const_cast<zx::Simplifier::Worklist&>(simplifier.worklist());
  auto& sweep = zx::WorklistTestAccess::sweep(worklist);
  auto& next = zx::WorklistTestAccess::nextSweep(worklist);
  ASSERT_FALSE(sweep.empty());
  // Vertex 0 queued in both sweeps, with both counts matching their bits.
  zx::WorklistTestAccess::position(worklist) = -1;
  sweep[0] |= 1U;
  next[0] |= 1U;
  zx::WorklistTestAccess::sweepCount(worklist) = 1;
  zx::WorklistTestAccess::nextCount(worklist) = 1;
  const auto both = audit::auditWorklist(simplifier);
  EXPECT_TRUE(both.hasErrors());
  EXPECT_TRUE(mentions(both, "zx.worklist.sweep", "queued in both sweeps"))
      << both.toString();
  // Only in the current sweep, but at the scan position: pop() would skip
  // past it to a higher id.
  next[0] &= ~std::uint64_t{1};
  zx::WorklistTestAccess::nextCount(worklist) = 0;
  EXPECT_TRUE(audit::auditWorklist(simplifier).empty());
  zx::WorklistTestAccess::position(worklist) = 0;
  EXPECT_TRUE(mentions(audit::auditWorklist(simplifier), "zx.worklist.sweep",
                       "at or below the scan position"));
}

TEST(ZxAuditTest, FlagsSweepCountWithoutMatchingBits) {
  auto diagram = bellDiagram().compose(bellDiagram().adjoint());
  zx::Simplifier simplifier(diagram);
  ASSERT_TRUE(simplifier.fullReduce()); // populates and drains the worklist
  EXPECT_TRUE(audit::auditWorklist(simplifier).empty());
  auto& worklist =
      const_cast<zx::Simplifier::Worklist&>(simplifier.worklist());
  // A pending count with no bit behind it: empty() would report work that
  // pop() cannot find.
  zx::WorklistTestAccess::sweepCount(worklist) = 1;
  EXPECT_TRUE(mentions(audit::auditWorklist(simplifier), "zx.worklist.sweep",
                       "current sweep counts 1 vertices but holds 0"));
  zx::WorklistTestAccess::sweepCount(worklist) = 0;
  // A bit the count misses: empty() would end the pass with it queued.
  auto& next = zx::WorklistTestAccess::nextSweep(worklist);
  ASSERT_FALSE(next.empty());
  next[0] |= 1U;
  EXPECT_TRUE(mentions(audit::auditWorklist(simplifier), "zx.worklist.sweep",
                       "next sweep counts 0 vertices but holds 1"));
}

TEST(ZxAuditTest, FlagsChangeMaskCorruption) {
  auto diagram = bellDiagram().compose(bellDiagram().adjoint());
  zx::Simplifier simplifier(diagram);
  ASSERT_TRUE(simplifier.fullReduce());
  EXPECT_TRUE(audit::auditWorklist(simplifier).empty());
  auto& mask =
      const_cast<zx::Simplifier::ChangeMask&>(simplifier.changeMask());
  auto& bits = zx::ChangeMaskTestAccess::bits(mask);
  auto& listed = zx::ChangeMaskTestAccess::listed(mask);
  bits.assign(3, 0);
  listed.clear();
  EXPECT_TRUE(audit::auditWorklist(simplifier).empty());
  // Marked but unlisted: the rule's next pass would never seed vertex 1.
  bits[1] = 1;
  EXPECT_TRUE(hasCode(audit::auditWorklist(simplifier), "zx.worklist.mask"));
  listed = {1};
  EXPECT_TRUE(audit::auditWorklist(simplifier).empty());
  listed = {1, 1};
  EXPECT_TRUE(hasCode(audit::auditWorklist(simplifier), "zx.worklist.mask"));
  listed = {1, 2}; // vertex 2 is listed with an empty mask
  EXPECT_TRUE(hasCode(audit::auditWorklist(simplifier), "zx.worklist.mask"));
}

TEST(ZxAuditTest, CleanAfterFullReduce) {
  auto diagram = bellDiagram().compose(bellDiagram().adjoint());
  zx::Simplifier simplifier(diagram);
  ASSERT_TRUE(simplifier.fullReduce());
  audit::AuditReport report = audit::auditDiagram(diagram);
  report.merge(audit::auditWorklist(simplifier));
  EXPECT_FALSE(report.hasErrors()) << report.toString();
}

} // namespace
} // namespace veriqc

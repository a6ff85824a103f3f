#include "circuits/benchmarks.hpp"
#include "compile/architecture.hpp"
#include "compile/decompose.hpp"
#include "compile/mapper.hpp"
#include "ir/gate_matrix.hpp"
#include "opt/optimizer.hpp"
#include "sim/dense.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <random>

namespace veriqc {
namespace {

/// The quadratic restart-from-the-front passes the optimizer started from,
/// kept as oracles: the indexed passes must reproduce them exactly.
namespace reference {

constexpr double kAngleTol = 1e-12;

bool isZeroAngle(const double theta) {
  return std::abs(std::remainder(theta, 4.0 * PI)) < kAngleTol;
}

std::size_t nextOnSameQubits(const std::vector<Operation>& ops,
                             const std::size_t i, bool& blocked) {
  blocked = false;
  const auto qubits = ops[i].usedQubits();
  for (std::size_t j = i + 1; j < ops.size(); ++j) {
    const auto& candidate = ops[j];
    if (candidate.type == OpType::Barrier) {
      blocked = true;
      return j;
    }
    bool touches = false;
    for (const auto q : qubits) {
      if (candidate.actsOn(q)) {
        touches = true;
        break;
      }
    }
    if (!touches) {
      continue;
    }
    const auto otherQubits = candidate.usedQubits();
    if (otherQubits.size() != qubits.size()) {
      blocked = true;
      return j;
    }
    for (const auto q : otherQubits) {
      if (!ops[i].actsOn(q)) {
        blocked = true;
        return j;
      }
    }
    return j;
  }
  blocked = true;
  return ops.size();
}

std::size_t removeIdentities(QuantumCircuit& circuit,
                             const bool dropBarriers) {
  auto& ops = circuit.ops();
  std::size_t removed = 0;
  for (std::size_t i = 0; i < ops.size();) {
    const auto& op = ops[i];
    const bool zeroRotation =
        (op.type == OpType::RX || op.type == OpType::RY ||
         op.type == OpType::RZ || op.type == OpType::P) &&
        isZeroAngle(op.params[0]);
    if (op.type == OpType::I || zeroRotation ||
        (dropBarriers && op.type == OpType::Barrier)) {
      ops.erase(ops.begin() + static_cast<std::ptrdiff_t>(i));
      ++removed;
    } else {
      ++i;
    }
  }
  return removed;
}

std::size_t cancelInversePairs(QuantumCircuit& circuit) {
  auto& ops = circuit.ops();
  std::size_t removed = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < ops.size(); ++i) {
      if (ops[i].isNonUnitary()) {
        continue;
      }
      bool blocked = false;
      const auto j = nextOnSameQubits(ops, i, blocked);
      if (blocked || j >= ops.size()) {
        continue;
      }
      if (ops[j].isInverseOf(ops[i])) {
        ops.erase(ops.begin() + static_cast<std::ptrdiff_t>(j));
        ops.erase(ops.begin() + static_cast<std::ptrdiff_t>(i));
        removed += 2;
        changed = true;
        break;
      }
    }
  }
  return removed;
}

std::size_t mergeRotations(QuantumCircuit& circuit) {
  auto& ops = circuit.ops();
  std::size_t merged = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const auto& op = ops[i];
      if (op.type != OpType::RX && op.type != OpType::RY &&
          op.type != OpType::RZ && op.type != OpType::P) {
        continue;
      }
      bool blocked = false;
      const auto j = nextOnSameQubits(ops, i, blocked);
      if (blocked || j >= ops.size()) {
        continue;
      }
      const auto& other = ops[j];
      if (other.type != op.type || other.targets != op.targets) {
        continue;
      }
      auto c1 = op.controls;
      auto c2 = other.controls;
      std::sort(c1.begin(), c1.end());
      std::sort(c2.begin(), c2.end());
      if (c1 != c2) {
        continue;
      }
      const double total = op.params[0] + other.params[0];
      ops[i].params[0] = total;
      ops.erase(ops.begin() + static_cast<std::ptrdiff_t>(j));
      ++merged;
      if (isZeroAngle(total)) {
        ops.erase(ops.begin() + static_cast<std::ptrdiff_t>(i));
      }
      changed = true;
      break;
    }
  }
  return merged;
}

struct ZYZ {
  double theta;
  double phi;
  double lambda;
  double gamma;
};

ZYZ zyzDecompose(const GateMatrix& m) {
  const double c = std::abs(m[0]);
  const double s = std::abs(m[2]);
  ZYZ result{};
  result.theta = 2.0 * std::atan2(s, c);
  if (c > 1e-12 && s > 1e-12) {
    result.gamma = std::arg(m[0]);
    result.phi = std::arg(m[2]) - result.gamma;
    result.lambda = std::arg(-m[1]) - result.gamma;
  } else if (c > 1e-12) {
    result.gamma = std::arg(m[0]);
    result.phi = 0.0;
    result.lambda = std::arg(m[3]) - result.gamma;
  } else {
    result.gamma = 0.0;
    result.phi = std::arg(m[2]);
    result.lambda = std::arg(-m[1]);
  }
  return result;
}

GateMatrix multiply2x2(const GateMatrix& a, const GateMatrix& b) {
  return {a[0] * b[0] + a[1] * b[2], a[0] * b[1] + a[1] * b[3],
          a[2] * b[0] + a[3] * b[2], a[2] * b[1] + a[3] * b[3]};
}

bool isPlainSingleQubit(const Operation& op) {
  return !op.isNonUnitary() && op.controls.empty() &&
         isSingleTargetType(op.type);
}

std::size_t fuseSingleQubitGates(QuantumCircuit& circuit) {
  auto& ops = circuit.ops();
  std::size_t fused = 0;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (!isPlainSingleQubit(ops[i])) {
      continue;
    }
    const Qubit q = ops[i].targets[0];
    std::vector<std::size_t> run{i};
    for (std::size_t j = i + 1; j < ops.size(); ++j) {
      if (!ops[j].actsOn(q)) {
        if (ops[j].type == OpType::Barrier) {
          break;
        }
        continue;
      }
      if (isPlainSingleQubit(ops[j])) {
        run.push_back(j);
      } else {
        break;
      }
    }
    if (run.size() < 2) {
      continue;
    }
    GateMatrix total = gateMatrix(OpType::I, {});
    for (const auto idx : run) {
      total = multiply2x2(gateMatrix(ops[idx].type, ops[idx].params), total);
    }
    const auto zyz = zyzDecompose(total);
    circuit.addGlobalPhase(zyz.gamma);
    ops[i] = Operation(OpType::U3, {}, {q},
                       {zyz.theta, zyz.phi, zyz.lambda});
    for (std::size_t k = run.size(); k-- > 1;) {
      ops.erase(ops.begin() + static_cast<std::ptrdiff_t>(run[k]));
    }
    fused += run.size() - 1;
  }
  return fused;
}

std::size_t reconstructSwaps(QuantumCircuit& circuit) {
  auto& ops = circuit.ops();
  std::size_t reconstructed = 0;
  bool changed = true;
  const auto isCx = [](const Operation& op) {
    return op.type == OpType::X && op.controls.size() == 1;
  };
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < ops.size(); ++i) {
      if (!isCx(ops[i])) {
        continue;
      }
      bool blocked1 = false;
      const auto j = nextOnSameQubits(ops, i, blocked1);
      if (blocked1 || j >= ops.size() || !isCx(ops[j])) {
        continue;
      }
      bool blocked2 = false;
      const auto k = nextOnSameQubits(ops, j, blocked2);
      if (blocked2 || k >= ops.size() || !isCx(ops[k])) {
        continue;
      }
      const Qubit a = ops[i].controls[0];
      const Qubit b = ops[i].targets[0];
      if (ops[j].controls[0] == b && ops[j].targets[0] == a &&
          ops[k].controls[0] == a && ops[k].targets[0] == b) {
        ops[i] = Operation(OpType::SWAP, {}, {a, b});
        ops.erase(ops.begin() + static_cast<std::ptrdiff_t>(k));
        ops.erase(ops.begin() + static_cast<std::ptrdiff_t>(j));
        ++reconstructed;
        changed = true;
        break;
      }
    }
  }
  return reconstructed;
}

} // namespace reference

using Pass = std::size_t (*)(QuantumCircuit&);

struct PassPair {
  const char* name;
  Pass pass;
  Pass oracle;
};

const PassPair kPasses[] = {
    {"removeIdentities",
     [](QuantumCircuit& c) { return opt::removeIdentities(c); },
     [](QuantumCircuit& c) { return reference::removeIdentities(c, false); }},
    {"removeIdentities(dropBarriers)",
     [](QuantumCircuit& c) { return opt::removeIdentities(c, true); },
     [](QuantumCircuit& c) { return reference::removeIdentities(c, true); }},
    {"cancelInversePairs", opt::cancelInversePairs,
     reference::cancelInversePairs},
    {"mergeRotations", opt::mergeRotations, reference::mergeRotations},
    {"fuseSingleQubitGates", opt::fuseSingleQubitGates,
     reference::fuseSingleQubitGates},
    {"reconstructSwaps", opt::reconstructSwaps, reference::reconstructSwaps},
};

::testing::AssertionResult sameCircuit(const QuantumCircuit& expected,
                                       const QuantumCircuit& actual) {
  const auto& e = expected.ops();
  const auto& a = actual.ops();
  for (std::size_t i = 0; i < std::min(e.size(), a.size()); ++i) {
    if (!(e[i] == a[i])) {
      return ::testing::AssertionFailure()
             << "op " << i << ": expected " << e[i].toString() << ", got "
             << a[i].toString();
    }
  }
  if (e.size() != a.size()) {
    return ::testing::AssertionFailure()
           << "expected " << e.size() << " ops, got " << a.size();
  }
  if (expected.globalPhase() != actual.globalPhase()) {
    return ::testing::AssertionFailure()
           << "expected global phase " << expected.globalPhase() << ", got "
           << actual.globalPhase();
  }
  return ::testing::AssertionSuccess();
}

/// Apply the oracle of `pair` to `c` and the pass to a copy; both must return
/// the same count and leave the same circuit. Returns the count.
std::size_t expectMatchesOracle(QuantumCircuit& c, const PassPair& pair,
                                const std::string& label) {
  auto actual = c;
  const auto count = pair.oracle(c);
  EXPECT_EQ(count, pair.pass(actual)) << label << " " << pair.name;
  EXPECT_TRUE(sameCircuit(c, actual)) << label << " " << pair.name;
  return count;
}

void expectAllPassesMatchOracle(const QuantumCircuit& c,
                                const std::string& label) {
  for (const auto& pair : kPasses) {
    auto copy = c;
    expectMatchesOracle(copy, pair, label);
  }
}

/// Replay the `opt::optimize` fixpoint with the oracles, checking each pass
/// and `reconstructSwaps` on every intermediate circuit, and the end result
/// against `optimize`.
void expectOptimizeMatchesOracle(const QuantumCircuit& c,
                                 const std::string& label) {
  const auto& swaps = kPasses[5];
  // removeIdentities, cancelInversePairs, mergeRotations and
  // fuseSingleQubitGates, in the order `optimize` runs them.
  const PassPair* pipeline[] = {&kPasses[0], &kPasses[2], &kPasses[3],
                                &kPasses[4]};
  auto current = c;
  for (std::size_t round = 0;; ++round) {
    const auto roundLabel = label + " round " + std::to_string(round);
    std::size_t changes = 0;
    for (const auto* pair : pipeline) {
      auto copy = current;
      expectMatchesOracle(copy, swaps, roundLabel);
      changes += expectMatchesOracle(current, *pair, roundLabel);
    }
    if (changes == 0) {
      break;
    }
  }
  EXPECT_TRUE(sameCircuit(current, opt::optimize(c))) << label;
}

void expectEquivalent(const QuantumCircuit& a, const QuantumCircuit& b,
                      const std::string& label) {
  const auto ua = sim::circuitUnitary(a);
  const auto ub = sim::circuitUnitary(b);
  EXPECT_TRUE(ua.equalsUpToGlobalPhase(ub, 1e-8)) << label;
}

TEST(OptimizerTest, RemoveIdentities) {
  QuantumCircuit c(2);
  c.i(0);
  c.rz(1, 0.0);
  c.h(0);
  c.rx(1, 4.0 * PI);
  EXPECT_EQ(opt::removeIdentities(c), 3U);
  EXPECT_EQ(c.size(), 1U);
}

TEST(OptimizerTest, CancelInversePairs) {
  QuantumCircuit c(2);
  c.h(0);
  c.h(0);
  c.cx(0, 1);
  c.cx(0, 1);
  c.t(0);
  c.tdg(0);
  c.s(1);
  c.x(0); // acts on wire 0, so s and sdg on wire 1 stay adjacent
  c.sdg(1);
  EXPECT_GE(opt::cancelInversePairs(c), 8U);
  // Only the lone x survives.
  EXPECT_EQ(c.gateCount(), 1U);
  EXPECT_EQ(c.ops()[0].type, OpType::X);
}

TEST(OptimizerTest, CancellationBlockedByInterveningGate) {
  QuantumCircuit c(2);
  c.h(0);
  c.cx(0, 1); // touches qubit 0: blocks
  c.h(0);
  EXPECT_EQ(opt::cancelInversePairs(c), 0U);
  EXPECT_EQ(c.size(), 3U);
}

TEST(OptimizerTest, CancellationCascadesThroughUncoveredPredecessor) {
  // Cancelling the CX pair makes the two H gates adjacent.
  QuantumCircuit c(2);
  c.h(0);
  c.cx(0, 1);
  c.cx(0, 1);
  c.h(0);
  EXPECT_EQ(opt::cancelInversePairs(c), 4U);
  EXPECT_TRUE(c.empty());
}

TEST(OptimizerTest, MergeRotations) {
  QuantumCircuit c(2);
  c.rz(0, 0.3);
  c.rz(0, 0.4);
  c.crz(0, 1, 0.2);
  c.crz(0, 1, -0.2);
  const auto merged = opt::mergeRotations(c);
  EXPECT_EQ(merged, 2U);
  ASSERT_EQ(c.size(), 1U);
  EXPECT_NEAR(c.ops()[0].params[0], 0.7, 1e-12);
}

TEST(OptimizerTest, MergedRotationsThatSumToZeroVanish) {
  QuantumCircuit c(1);
  c.rz(0, 0.3);
  c.rz(0, 0.4);
  c.rz(0, -0.3 - 0.4);
  EXPECT_EQ(opt::mergeRotations(c), 2U);
  EXPECT_TRUE(c.empty());
}

TEST(OptimizerTest, FuseSingleQubitGates) {
  QuantumCircuit c(2);
  c.h(0);
  c.t(0);
  c.rx(0, 0.3);
  c.cx(0, 1);
  const auto before = c;
  EXPECT_EQ(opt::fuseSingleQubitGates(c), 2U);
  EXPECT_EQ(c.size(), 2U);
  EXPECT_EQ(c.ops()[0].type, OpType::U3);
  expectEquivalent(before, c, "fusion");
  // Strict equality including global phase.
  const auto ua = sim::circuitUnitary(before);
  const auto ub = sim::circuitUnitary(c);
  EXPECT_TRUE(ua.equals(ub, 1e-9));
}

TEST(OptimizerTest, FusionHandlesDiagonalAndAntidiagonalRuns) {
  QuantumCircuit diag(1);
  diag.t(0);
  diag.s(0);
  auto diagOpt = diag;
  opt::fuseSingleQubitGates(diagOpt);
  EXPECT_TRUE(sim::circuitUnitary(diag).equals(sim::circuitUnitary(diagOpt),
                                               1e-9));
  QuantumCircuit anti(1);
  anti.x(0);
  anti.z(0);
  auto antiOpt = anti;
  opt::fuseSingleQubitGates(antiOpt);
  EXPECT_TRUE(sim::circuitUnitary(anti).equals(sim::circuitUnitary(antiOpt),
                                               1e-9));
}

TEST(OptimizerTest, ReconstructSwaps) {
  QuantumCircuit c(3);
  c.cx(0, 1);
  c.cx(1, 0);
  c.cx(0, 1);
  c.h(2);
  const auto before = c;
  EXPECT_EQ(opt::reconstructSwaps(c), 1U);
  EXPECT_EQ(c.gateCount(), 2U);
  EXPECT_TRUE(c.ops()[0].isBareSwap());
  expectEquivalent(before, c, "swap reconstruction");
}

TEST(OptimizerTest, ReconstructSwapsIgnoresWrongPattern) {
  QuantumCircuit c(2);
  c.cx(0, 1);
  c.cx(0, 1);
  c.cx(1, 0);
  EXPECT_EQ(opt::reconstructSwaps(c), 0U);
}

TEST(OptimizerTest, QubitlessBarrierBlocksSwapReconstruction) {
  QuantumCircuit c(3);
  c.cx(0, 1);
  c.cx(1, 0);
  c.barrier();
  c.cx(0, 1);
  EXPECT_EQ(opt::reconstructSwaps(c), 0U);
  EXPECT_EQ(c.size(), 4U);
}

TEST(OptimizerTest, GateSharingOneWireBlocksSwapReconstruction) {
  QuantumCircuit c(3);
  c.cx(0, 1);
  c.cx(1, 2);
  c.cx(1, 0);
  c.cx(0, 1);
  EXPECT_EQ(opt::reconstructSwaps(c), 0U);
  EXPECT_EQ(c.size(), 4U);
}

TEST(OptimizerTest, AlternatingCxChainYieldsOneLeadingSwap) {
  QuantumCircuit c(2);
  for (int k = 0; k < 5; ++k) {
    if (k % 2 == 0) {
      c.cx(0, 1);
    } else {
      c.cx(1, 0);
    }
  }
  EXPECT_EQ(opt::reconstructSwaps(c), 1U);
  ASSERT_EQ(c.size(), 3U);
  EXPECT_TRUE(c.ops()[0].isBareSwap());
  EXPECT_EQ(c.ops()[1], Operation(OpType::X, {1}, {0}));
  EXPECT_EQ(c.ops()[2], Operation(OpType::X, {0}, {1}));
}

TEST(OptimizerTest, OptimizePreservesSemantics) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const auto c = circuits::randomCircuit(4, 40, seed);
    const auto optimized = opt::optimize(c);
    expectEquivalent(c, optimized, "seed " + std::to_string(seed));
  }
}

TEST(OptimizerTest, OptimizeShrinksDecomposedBenchmarks) {
  // Sec. 6.1's second use case: optimized versions are smaller (|G'| < |G|).
  const std::vector<QuantumCircuit> cases = {
      compile::decomposeToCnot(circuits::grover(3, 5)),
      compile::decomposeToCnot(circuits::quantumWalk(3, 2)),
      compile::decomposeToCnot(circuits::urfLike(4, 12, 7))};
  for (const auto& c : cases) {
    const auto optimized = opt::optimize(c);
    EXPECT_LT(optimized.gateCount(), c.gateCount()) << c.name();
    expectEquivalent(c, optimized, c.name());
  }
}

TEST(OptimizerTest, OptimizeKeepsPermutations) {
  auto c = circuits::qft(3, false);
  const auto optimized = opt::optimize(c);
  EXPECT_EQ(optimized.outputPermutation(), c.outputPermutation());
}

TEST(OptimizerDifferentialTest, CompiledPairsMatchOracle) {
  const auto arch = compile::Architecture::ibmManhattanLike();
  const std::vector<QuantumCircuit> originals = {
      circuits::grover(6, 37), circuits::quantumWalk(5, 3),
      circuits::qft(16), circuits::ghz(65)};
  for (const auto& original : originals) {
    const auto compiled = compile::compileForArchitecture(original, arch);
    const auto [g, gPrime] = alignCircuits(original, compiled);
    expectAllPassesMatchOracle(g, original.name());
    expectAllPassesMatchOracle(gPrime, original.name() + " compiled");
  }
}

TEST(OptimizerDifferentialTest, OptimizePipelineMatchesOracle) {
  const std::vector<QuantumCircuit> originals = {
      circuits::urfLike(8, 60, 154), circuits::constantAdder(8, 13),
      circuits::mixedReversible(8, 80, 231), circuits::quantumWalk(5, 3)};
  for (const auto& original : originals) {
    expectOptimizeMatchesOracle(compile::decomposeToCnot(original),
                                original.name());
  }
}

/// A random circuit rich in the patterns the passes look for: qubit-less and
/// partial barriers, measurements, SWAPs, Toffolis with permuted controls,
/// overlapping CX chains, inverse pairs and rotations that sum to zero.
QuantumCircuit patternedRandomCircuit(const std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const auto pick = [&](const std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  const std::size_t n = 2 + pick(4);
  QuantumCircuit c(n);
  const auto qubit = [&] { return static_cast<Qubit>(pick(n)); };
  const auto otherThan = [&](const Qubit a) {
    return static_cast<Qubit>((a + 1 + pick(n - 1)) % n);
  };
  const double angles[] = {PI_4, -PI_4, PI_2, 0.3, -0.3, 0.0, 2.0 * PI,
                           4.0 * PI};
  const OpType oneQubit[] = {OpType::H,  OpType::X,   OpType::Z, OpType::S,
                             OpType::Sdg, OpType::T, OpType::Tdg, OpType::SX,
                             OpType::I};
  const OpType rotations[] = {OpType::RX, OpType::RY, OpType::RZ, OpType::P};
  const std::size_t length = 10 + pick(50);
  while (c.size() < length) {
    const Qubit a = qubit();
    const Qubit b = otherThan(a);
    switch (pick(10)) {
    case 0:
      c.append(Operation(oneQubit[pick(std::size(oneQubit))], {}, {a}));
      break;
    case 1: { // a run of CX alternating between a and b
      for (auto k = 1 + pick(5); k-- > 0;) {
        if (k % 2 == 0) {
          c.cx(a, b);
        } else {
          c.cx(b, a);
        }
        if (pick(4) == 0) {
          c.cx(b, otherThan(b)); // overlaps the chain on one wire
        }
      }
      break;
    }
    case 2: {
      const Operation op(rotations[pick(std::size(rotations))],
                         pick(3) == 0 ? std::vector<Qubit>{b}
                                      : std::vector<Qubit>{},
                         {a}, {angles[pick(std::size(angles))]});
      c.append(op);
      if (pick(2) == 0) {
        c.append(op.inverse());
      }
      break;
    }
    case 3: {
      const auto op = Operation(oneQubit[pick(std::size(oneQubit))], {}, {a});
      c.append(op);
      c.append(op.inverse());
      break;
    }
    case 4:
      if (n >= 3) {
        Qubit t = otherThan(a);
        while (t == b) {
          t = otherThan(a);
        }
        c.ccx(a, b, t);
        if (pick(2) == 0) {
          c.ccx(b, a, t);
        }
      }
      break;
    case 5:
      c.swap(a, b);
      break;
    case 6:
      if (pick(2) == 0) {
        c.barrier();
      } else {
        c.append(Operation(OpType::Barrier, {}, {a}));
      }
      break;
    case 7: // meta operations may list a qubit twice
      c.append(Operation(OpType::Measure, {},
                         pick(4) == 0 ? std::vector<Qubit>{a, a}
                                      : std::vector<Qubit>{a}));
      break;
    case 8:
      c.u3(a, angles[pick(std::size(angles))], 0.1, -0.2);
      break;
    default:
      c.cx(a, b);
      break;
    }
  }
  return c;
}

TEST(OptimizerDifferentialTest, RandomCircuitsMatchOracle) {
  for (std::uint64_t seed = 0; seed < 5000; ++seed) {
    const auto c = patternedRandomCircuit(seed);
    const auto label = "seed " + std::to_string(seed);
    expectAllPassesMatchOracle(c, label);
    if (seed % 10 == 0) {
      expectOptimizeMatchesOracle(c, label);
    }
    if (HasFailure()) {
      return;
    }
  }
}

} // namespace
} // namespace veriqc

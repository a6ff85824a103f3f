#include "opt/optimizer.hpp"

#include "ir/gate_matrix.hpp"

#include <algorithm>
#include <cmath>
#include <complex>
#include <functional>
#include <limits>
#include <queue>

namespace veriqc::opt {

namespace {

constexpr double kAngleTol = 1e-12;
constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

bool isZeroAngle(const double theta) {
  return std::abs(std::remainder(theta, 4.0 * PI)) < kAngleTol;
}

bool isRotation(const Operation& op) {
  return op.type == OpType::RX || op.type == OpType::RY ||
         op.type == OpType::RZ || op.type == OpType::P;
}

/// Per-wire successor index over an op list that passes rewrite in place.
///
/// Every non-barrier op owns one link per qubit it lists; the link points to
/// the previous and next live op on that wire. Barriers are not linked: they
/// are never erased, so a static "next barrier" array answers whether one
/// lies between two ops. Erasing an op unlinks it and leaves a tombstone;
/// `compact()` removes the tombstones in one stable pass. All queries are
/// O(arity), so a pass is linear apart from its own bookkeeping.
class WireIndex {
public:
  explicit WireIndex(std::vector<Operation>& ops)
      : ops_(ops), alive_(ops.size(), 1), nextBarrier_(ops.size(), kNone) {
    std::vector<std::size_t> last; // last link on each wire
    const auto link = [&](const std::size_t i, const Qubit q) {
      if (q >= last.size()) {
        last.resize(q + 1, kNone);
      }
      if (last[q] != kNone) {
        links_[last[q]].next = links_.size();
      }
      links_.push_back({last[q], kNone});
      owner_.push_back(i);
      last[q] = links_.size() - 1;
    };
    firstLink_.reserve(ops_.size() + 1);
    for (std::size_t i = 0; i < ops_.size(); ++i) {
      firstLink_.push_back(links_.size());
      if (ops_[i].type == OpType::Barrier) {
        continue;
      }
      for (const auto q : ops_[i].controls) {
        link(i, q);
      }
      for (const auto q : ops_[i].targets) {
        link(i, q);
      }
    }
    firstLink_.push_back(links_.size());
    for (std::size_t i = ops_.size(), barrier = kNone; i-- > 0;) {
      nextBarrier_[i] = barrier;
      if (ops_[i].type == OpType::Barrier) {
        barrier = i;
      }
    }
  }

  [[nodiscard]] bool alive(const std::size_t i) const { return alive_[i] != 0; }

  /// The first live op after `i` on any of its wires, or kNone if there is
  /// none or a barrier (whatever its qubits) comes first. Every pass matches
  /// only ops on identical qubit sets, so an op sharing just some of i's
  /// wires blocks i without a separate check.
  [[nodiscard]] std::size_t next(const std::size_t i) const {
    std::size_t j = kNone;
    for (auto s = firstLink_[i]; s < firstLink_[i + 1]; ++s) {
      if (links_[s].next != kNone) {
        j = std::min(j, owner_[links_[s].next]);
      }
    }
    return j < nextBarrier_[i] ? j : kNone;
  }

  /// Call `visit` with the op directly before `i` on each of its wires.
  template <typename Visit>
  void forEachPredecessor(const std::size_t i, Visit visit) const {
    for (auto s = firstLink_[i]; s < firstLink_[i + 1]; ++s) {
      if (links_[s].prev != kNone) {
        visit(owner_[links_[s].prev]);
      }
    }
  }

  void erase(const std::size_t i) {
    for (auto s = firstLink_[i]; s < firstLink_[i + 1]; ++s) {
      const auto [prev, next] = links_[s];
      if (prev != kNone) {
        links_[prev].next = next;
      }
      if (next != kNone) {
        links_[next].prev = prev;
      }
    }
    alive_[i] = 0;
  }

  /// Drop the erased ops, keeping the order of the rest.
  void compact() {
    std::size_t out = 0;
    for (std::size_t i = 0; i < ops_.size(); ++i) {
      if (alive(i)) {
        if (out != i) {
          ops_[out] = std::move(ops_[i]);
        }
        ++out;
      }
    }
    ops_.resize(out);
  }

private:
  struct Link {
    std::size_t prev; ///< link of the previous op on this wire
    std::size_t next; ///< link of the next op on this wire
  };

  std::vector<Operation>& ops_;
  std::vector<char> alive_;
  std::vector<std::size_t> nextBarrier_;
  std::vector<std::size_t> firstLink_; ///< op i owns [first[i], first[i+1])
  std::vector<Link> links_;
  std::vector<std::size_t> owner_; ///< op owning each link
};

using DirtySet = std::priority_queue<std::size_t, std::vector<std::size_t>,
                                     std::greater<>>;

/// Apply `rewrite` at the first op, in list order, where it matches, until no
/// op matches: the order of a loop that restarts from the front after every
/// rewrite. When `rewrite(i, dirty)` rewrites at op i, it must push into
/// `dirty` every live op before the cursor whose match may have changed; ops
/// at or after the cursor are still to be tried.
template <typename Rewrite>
void rewriteInFirstMatchOrder(const WireIndex& index, const std::size_t n,
                              Rewrite rewrite) {
  DirtySet dirty;
  std::size_t cursor = 0;
  while (true) {
    std::size_t i = cursor;
    if (!dirty.empty() && dirty.top() < cursor) {
      i = dirty.top();
    } else if (cursor == n) {
      break;
    } else {
      ++cursor;
    }
    while (!dirty.empty() && dirty.top() == i) {
      dirty.pop();
    }
    if (index.alive(i)) {
      rewrite(i, dirty);
    }
  }
}

} // namespace

std::size_t removeIdentities(QuantumCircuit& circuit,
                             const bool dropBarriers) {
  auto& ops = circuit.ops();
  return std::erase_if(ops, [dropBarriers](const Operation& op) {
    const bool zeroRotation = isRotation(op) && isZeroAngle(op.params[0]);
    return op.type == OpType::I || zeroRotation ||
           (dropBarriers && op.type == OpType::Barrier);
  });
}

std::size_t cancelInversePairs(QuantumCircuit& circuit) {
  auto& ops = circuit.ops();
  WireIndex index(ops);
  std::size_t removed = 0;
  rewriteInFirstMatchOrder(
      index, ops.size(), [&](const std::size_t i, DirtySet& dirty) {
        if (ops[i].isNonUnitary()) {
          return;
        }
        const auto j = index.next(i);
        if (j == kNone || !ops[j].isInverseOf(ops[i])) {
          return;
        }
        // j's only predecessor is i, so only i's predecessors gain new
        // successors.
        index.forEachPredecessor(i, [&](const auto p) { dirty.push(p); });
        index.erase(i);
        index.erase(j);
        removed += 2;
      });
  index.compact();
  return removed;
}

std::size_t mergeRotations(QuantumCircuit& circuit) {
  auto& ops = circuit.ops();
  WireIndex index(ops);
  std::size_t merged = 0;
  rewriteInFirstMatchOrder(
      index, ops.size(), [&](const std::size_t i, DirtySet& dirty) {
        const auto& op = ops[i];
        if (!isRotation(op)) {
          return;
        }
        const auto j = index.next(i);
        if (j == kNone) {
          return;
        }
        const auto& other = ops[j];
        if (other.type != op.type || other.targets != op.targets) {
          return;
        }
        auto c1 = op.controls;
        auto c2 = other.controls;
        std::sort(c1.begin(), c1.end());
        std::sort(c2.begin(), c2.end());
        if (c1 != c2) {
          return;
        }
        const double total = op.params[0] + other.params[0];
        ops[i].params[0] = total;
        index.erase(j);
        ++merged;
        if (isZeroAngle(total)) {
          index.forEachPredecessor(i, [&](const auto p) { dirty.push(p); });
          index.erase(i);
        } else {
          // i now borders j's successors; its predecessors still see the
          // same type and qubits, which is all a merge looks at.
          dirty.push(i);
        }
      });
  index.compact();
  return merged;
}

namespace {

/// ZYZ decomposition of a 2x2 unitary into u3(theta, phi, lambda) plus a
/// global phase gamma: m = e^{i gamma} u3(theta, phi, lambda).
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
    // Diagonal: theta ~ 0; split the relative phase evenly.
    result.gamma = std::arg(m[0]);
    result.phi = 0.0;
    result.lambda = std::arg(m[3]) - result.gamma;
  } else {
    // Anti-diagonal: theta ~ pi.
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

} // namespace

std::size_t fuseSingleQubitGates(QuantumCircuit& circuit) {
  auto& ops = circuit.ops();
  WireIndex index(ops);
  std::size_t fused = 0;
  std::vector<std::size_t> run;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (!index.alive(i) || !isPlainSingleQubit(ops[i])) {
      continue;
    }
    // The maximal run of plain 1q gates on i's wire, up to the first barrier.
    run.assign(1, i);
    for (auto j = index.next(i); j != kNone && isPlainSingleQubit(ops[j]);
         j = index.next(j)) {
      run.push_back(j);
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
    ops[i] = Operation(OpType::U3, {}, {ops[i].targets[0]},
                       {zyz.theta, zyz.phi, zyz.lambda});
    for (std::size_t k = 1; k < run.size(); ++k) {
      index.erase(run[k]);
    }
    fused += run.size() - 1;
  }
  index.compact();
  return fused;
}

std::size_t reconstructSwaps(QuantumCircuit& circuit) {
  auto& ops = circuit.ops();
  WireIndex index(ops);
  std::size_t reconstructed = 0;
  const auto isCx = [&](const std::size_t i) {
    return i != kNone && ops[i].type == OpType::X &&
           ops[i].controls.size() == 1;
  };
  // One forward pass finds the matches of a restart-from-the-front loop: a
  // match at i leaves no live op linked to the erased j and k, and turns i
  // into a SWAP, so no op before i can start a new triple.
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (!index.alive(i) || !isCx(i)) {
      continue;
    }
    const auto j = index.next(i);
    if (!isCx(j)) {
      continue;
    }
    const auto k = index.next(j);
    if (!isCx(k)) {
      continue;
    }
    const Qubit a = ops[i].controls[0];
    const Qubit b = ops[i].targets[0];
    if (ops[j].controls[0] == b && ops[j].targets[0] == a &&
        ops[k].controls[0] == a && ops[k].targets[0] == b) {
      ops[i] = Operation(OpType::SWAP, {}, {a, b});
      index.erase(j);
      index.erase(k);
      ++reconstructed;
    }
  }
  index.compact();
  return reconstructed;
}

QuantumCircuit optimize(const QuantumCircuit& circuit) {
  QuantumCircuit result = circuit;
  result.setName(circuit.name() + "_opt");
  while (true) {
    std::size_t changes = 0;
    changes += removeIdentities(result);
    changes += cancelInversePairs(result);
    changes += mergeRotations(result);
    changes += fuseSingleQubitGates(result);
    if (changes == 0) {
      break;
    }
  }
  return result;
}

} // namespace veriqc::opt

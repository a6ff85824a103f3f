#include "dd/package.hpp"

#include "fault/fault.hpp"

#include <algorithm>
#include <tuple>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <set>
#include <stdexcept>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#include <unistd.h>
#endif

namespace veriqc::dd {

Package::Package(const std::size_t nqubits, const double tolerance,
                 const PackageConfig& config)
    : nqubits_(nqubits), reals_(tolerance),
      multiplyTable_(config.computeTableEntries),
      multiplyVectorTable_(config.computeTableEntries),
      addTable_(config.computeTableEntries),
      addVectorTable_(config.computeTableEntries),
      conjTransTable_(config.unaryTableEntries),
      traceTable_(config.unaryTableEntries),
      innerProductTable_(config.computeTableEntries),
      gateCacheMaxEntries_(std::max<std::size_t>(1, config.gateCacheMaxEntries)),
      gcInitialThreshold_(config.gcInitialThreshold),
      gcThreshold_(config.gcInitialThreshold), maxNodes_(config.maxNodes),
      maxMemoryKB_(config.maxMemoryMB * 1024) {
  if (nqubits > kMaxLevels) {
    throw std::invalid_argument(
        "dd::Package: at most 255 qubits addressable by 32-bit node handles");
  }
  mSlabs_.reserve(nqubits);
  vSlabs_.reserve(nqubits);
  for (std::size_t q = 0; q < nqubits; ++q) {
    mSlabs_.emplace_back(static_cast<Level>(q));
    vSlabs_.emplace_back(static_cast<Level>(q));
  }
  idTable_.reserve(nqubits);
}

Package::~Package() = default;

mEdge Package::makeIdent() {
  if (nqubits_ == 0) {
    return oneMatrixScalar();
  }
  for (std::size_t k = idTable_.size(); k < nqubits_; ++k) {
    const mEdge below = (k == 0) ? oneMatrixScalar() : idTable_[k - 1];
    const auto node = makeMatrixNode(
        static_cast<Level>(k), {below, zeroMatrix(), zeroMatrix(), below});
    incRef(node); // identity chain is permanently alive
    idTable_.push_back(node);
  }
  return idTable_[nqubits_ - 1];
}

mEdge Package::makeMatrixNode(const Level v,
                              const std::array<mEdge, 4>& children) {
  std::array<mEdge, 4> e = children;
  // Canonicalize child weights: intern, route zeros to the terminal.
  for (auto& child : e) {
    child.w = reals_.lookup(child.w);
    if (child.w == std::complex<double>{0.0, 0.0}) {
      child = zeroMatrix();
    }
  }
  // Normalize by the child weight of largest magnitude (lowest index wins
  // ties) so that equal-up-to-scalar submatrices share one node.
  std::size_t maxIdx = 0;
  double maxMag = std::norm(e[0].w);
  for (std::size_t i = 1; i < 4; ++i) {
    const double mag = std::norm(e[i].w);
    if (mag > maxMag) {
      maxMag = mag;
      maxIdx = i;
    }
  }
  if (maxMag == 0.0) {
    return zeroMatrix();
  }
  const auto topWeight = e[maxIdx].w;
  // One reciprocal instead of a full complex division per child; the rounding
  // difference is absorbed by interning.
  const auto invTop = std::conj(topWeight) / std::norm(topWeight);
  NodeSlab<mEdge>::Children childIdx;
  NodeSlab<mEdge>::Weights childW;
  for (std::size_t i = 0; i < 4; ++i) {
    childIdx[i] = e[i].n;
    // The normalizing child's weight is exactly 1 by definition; dividing it
    // by itself would only reproduce that modulo rounding and interning.
    childW[i] = i == maxIdx ? std::complex<double>{1.0, 0.0}
                : e[i].isZero() ? e[i].w
                                : reals_.lookup(e[i].w * invTop);
  }
  const auto n = mSlabs_[static_cast<std::size_t>(v)].lookup(childIdx, childW);
  return {n, topWeight};
}

vEdge Package::makeVectorNode(const Level v,
                              const std::array<vEdge, 2>& children) {
  std::array<vEdge, 2> e = children;
  for (auto& child : e) {
    child.w = reals_.lookup(child.w);
    if (child.w == std::complex<double>{0.0, 0.0}) {
      child = zeroVectorEdge();
    }
  }
  std::size_t maxIdx = 0;
  double maxMag = std::norm(e[0].w);
  if (std::norm(e[1].w) > maxMag) {
    maxMag = std::norm(e[1].w);
    maxIdx = 1;
  }
  if (maxMag == 0.0) {
    return zeroVectorEdge();
  }
  const auto topWeight = e[maxIdx].w;
  const auto invTop = std::conj(topWeight) / std::norm(topWeight);
  NodeSlab<vEdge>::Children childIdx;
  NodeSlab<vEdge>::Weights childW;
  for (std::size_t i = 0; i < 2; ++i) {
    childIdx[i] = e[i].n;
    childW[i] = i == maxIdx ? std::complex<double>{1.0, 0.0}
                : e[i].isZero() ? e[i].w
                                : reals_.lookup(e[i].w * invTop);
  }
  const auto n = vSlabs_[static_cast<std::size_t>(v)].lookup(childIdx, childW);
  return {n, topWeight};
}

std::int64_t Package::quantize(const double value) const noexcept {
  const double scaled = value / reals_.tolerance();
  if (std::abs(scaled) < 9.0e18) {
    return static_cast<std::int64_t>(std::llround(scaled));
  }
  // Out of quantization range (absurdly large entry): key on the bit pattern.
  std::int64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

Package::GateKey& Package::gateKeySlot() {
  if (gateKeyDepth_ >= gateKeyScratch_.size()) {
    // First use of this nesting depth. The deque grows without relocating
    // shallower slots, so GateKey references held by outer cachedGateDD
    // frames stay valid.
    gateKeyScratch_.resize(gateKeyDepth_ + 1);
  }
  return gateKeyScratch_[gateKeyDepth_];
}

Package::GateKey& Package::makeGateKey(const GateMatrix& matrix,
                                       const std::span<const Qubit> controls,
                                       const Qubit target) {
  GateKey& key = gateKeySlot();
  key.kind = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    key.matrix[2 * i] = quantize(matrix[i].real());
    key.matrix[2 * i + 1] = quantize(matrix[i].imag());
  }
  key.controls.assign(controls.begin(), controls.end());
  std::sort(key.controls.begin(), key.controls.end());
  key.target = target;
  key.target2 = 0;
  return key;
}

template <typename Builder>
mEdge Package::cachedGateDD(GateKey& key, Builder&& build) {
  ++gateCacheStats_.lookups;
  if (const auto it = gateCache_.find(key); it != gateCache_.end()) {
    ++gateCacheStats_.hits;
    return it->second;
  }
  // `key` lives in this depth's scratch slot. The build runs one depth
  // deeper, so nested gate construction (e.g. buildSwapDD -> makeGateDD)
  // fills deeper slots and cannot clobber the key inserted below.
  ++gateKeyDepth_;
  mEdge result;
  try {
    result = build(key);
    --gateKeyDepth_;
  } catch (...) {
    --gateKeyDepth_;
    throw;
  }
  if (gateCache_.size() >= gateCacheMaxEntries_) {
    clearGateCache();
  }
  // Referenced so the cached diagram survives garbage collection; released
  // again when the cache is flushed.
  incRef(result);
  gateCache_.emplace(key, result);
  ++gateCacheStats_.inserts;
  return result;
}

void Package::clearGateCache() {
  for (auto& [key, edge] : gateCache_) {
    decRef(edge);
  }
  gateCache_.clear();
  ++gateCacheStats_.invalidations;
}

mEdge Package::makeGateDD(const GateMatrix& matrix,
                          const std::span<const Qubit> controls,
                          const Qubit target) {
  if (target >= nqubits_) {
    throw std::out_of_range("makeGateDD: target out of range");
  }
  return cachedGateDD(makeGateKey(matrix, controls, target),
                      [this, &matrix](const GateKey& key) {
                        return buildGateDD(matrix, key.controls, key.target);
                      });
}

mEdge Package::buildGateDD(const GateMatrix& matrix,
                           const std::vector<Qubit>& sortedControls,
                           const Qubit target) {
  const auto& ctrls = sortedControls;
  const auto isControl = [&ctrls](const Level z) {
    return std::binary_search(ctrls.begin(), ctrls.end(),
                              static_cast<Qubit>(z));
  };
  std::ignore = makeIdent(); // ensure the identity chain for control levels
  const auto idBelow = [this](const Level z) -> mEdge {
    return (z <= 0) ? oneMatrixScalar() : idTable_[static_cast<std::size_t>(z) - 1];
  };

  // Blocks T_ij of the target level, built bottom-up (em[2i+j] = T_ij).
  std::array<mEdge, 4> em;
  for (std::size_t i = 0; i < 4; ++i) {
    em[i] = {kTerminalIndex, matrix[i]};
  }
  for (Level z = 0; z < static_cast<Level>(target); ++z) {
    for (std::size_t i = 0; i < 4; ++i) {
      if (isControl(z)) {
        const bool diagonal = (i == 0 || i == 3);
        em[i] = makeMatrixNode(
            z, {diagonal ? idBelow(z) : zeroMatrix(), zeroMatrix(),
                zeroMatrix(), em[i]});
      } else {
        em[i] = makeMatrixNode(z, {em[i], zeroMatrix(), zeroMatrix(), em[i]});
      }
    }
  }
  mEdge e = makeMatrixNode(static_cast<Level>(target), em);
  for (Level z = static_cast<Level>(target) + 1;
       z < static_cast<Level>(nqubits_); ++z) {
    if (isControl(z)) {
      e = makeMatrixNode(z, {idBelow(z), zeroMatrix(), zeroMatrix(), e});
    } else {
      e = makeMatrixNode(z, {e, zeroMatrix(), zeroMatrix(), e});
    }
  }
  return e;
}

mEdge Package::makeSwapDD(const Qubit a, const Qubit b,
                          const std::span<const Qubit> controls) {
  GateKey& key = gateKeySlot();
  key.kind = 1;
  key.matrix.fill(0); // the scratch may hold a previous matrix gate's entries
  key.controls.assign(controls.begin(), controls.end());
  std::sort(key.controls.begin(), key.controls.end());
  key.target = a;
  key.target2 = b;
  return cachedGateDD(key, [this, a, b](const GateKey& k) {
    return buildSwapDD(a, b, k.controls);
  });
}

mEdge Package::buildSwapDD(const Qubit a, const Qubit b,
                           const std::vector<Qubit>& controls) {
  const GateMatrix x = gateMatrix(OpType::X, {});
  // swap(a,b) = cx(b,a) . c{a, controls}x(b) . cx(b,a)
  const std::array<Qubit, 1> outerCtrl{b};
  const mEdge outer = makeGateDD(x, outerCtrl, a);
  std::vector<Qubit> middleCtrls(controls.begin(), controls.end());
  middleCtrls.push_back(a);
  const mEdge middle = makeGateDD(x, middleCtrls, b);
  return multiply(outer, multiply(middle, outer));
}

mEdge Package::makeOperationDD(const Operation& op, const Permutation& perm) {
  if (op.isNonUnitary() || op.type == OpType::I) {
    return makeIdent();
  }
  std::vector<Qubit> controls;
  controls.reserve(op.controls.size());
  for (const auto c : op.controls) {
    controls.push_back(perm[c]);
  }
  if (op.type == OpType::SWAP) {
    return makeSwapDD(perm[op.targets[0]], perm[op.targets[1]], controls);
  }
  if (!isSingleTargetType(op.type)) {
    throw CircuitError("makeOperationDD: unsupported operation " +
                       op.toString());
  }
  return makeGateDD(gateMatrix(op.type, op.params), controls,
                    perm[op.targets[0]]);
}

mEdge Package::makeOperationDD(const Operation& op) {
  return makeOperationDD(op, Permutation::identity(nqubits_));
}

vEdge Package::makeZeroState() {
  return makeBasisState(std::vector<bool>(nqubits_, false));
}

vEdge Package::makeBasisState(const std::vector<bool>& bits) {
  if (bits.size() != nqubits_) {
    throw std::invalid_argument("makeBasisState: wrong number of bits");
  }
  vEdge e{kTerminalIndex, {1.0, 0.0}};
  for (std::size_t q = 0; q < nqubits_; ++q) {
    if (bits[q]) {
      e = makeVectorNode(static_cast<Level>(q), {zeroVectorEdge(), e});
    } else {
      e = makeVectorNode(static_cast<Level>(q), {e, zeroVectorEdge()});
    }
  }
  return e;
}

mEdge Package::multiply(const mEdge& x, const mEdge& y) {
  if (x.isZero() || y.isZero()) {
    return zeroMatrix();
  }
  const auto w = x.w * y.w;
  auto e = multiplyMatrixNodes(x.n, y.n, static_cast<Level>(nqubits_) - 1);
  if (e.isZero()) {
    return zeroMatrix();
  }
  e.w = reals_.lookup(e.w * w);
  if (e.w == std::complex<double>{0.0, 0.0}) {
    return zeroMatrix();
  }
  return e;
}

mEdge Package::multiplyMatrixNodes(const NodeIndex x, const NodeIndex y,
                                   const Level var) {
  if (var == kTerminalLevel) {
    return oneMatrixScalar();
  }
  assert(levelOfIndex(x) == var && levelOfIndex(y) == var);
  // Identity absorption: gate DDs embed the canonical identity chain for
  // untouched qubits, so identity factors are recognised by handle compare
  // and the whole subtree multiplication collapses.
  if (static_cast<std::size_t>(var) < idTable_.size()) {
    const auto idn = idTable_[static_cast<std::size_t>(var)].n;
    if (x == idn) {
      return {y, {1.0, 0.0}};
    }
    if (y == idn) {
      return {x, {1.0, 0.0}};
    }
  }
  if (const auto* cached = multiplyTable_.lookup(x, y)) {
    return *cached;
  }
  // Stack copies of both child tuples: the recursion below allocates slab
  // slots, which may reallocate the backing vectors.
  const auto& slab = mSlabs_[static_cast<std::size_t>(var)];
  const auto xc = slab.children(slotOfIndex(x));
  const auto xw = slab.weights(slotOfIndex(x));
  const auto yc = slab.children(slotOfIndex(y));
  const auto yw = slab.weights(slotOfIndex(y));
  std::array<mEdge, 4> r;
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t j = 0; j < 2; ++j) {
      mEdge sum = zeroMatrix();
      for (std::size_t k = 0; k < 2; ++k) {
        const auto xi = 2 * i + k;
        const auto yi = 2 * k + j;
        if (xw[xi] == std::complex<double>{0.0, 0.0} ||
            yw[yi] == std::complex<double>{0.0, 0.0}) {
          continue;
        }
        auto term = multiplyMatrixNodes(xc[xi], yc[yi], var - 1);
        if (term.isZero()) {
          continue;
        }
        term.w = reals_.lookup(term.w * xw[xi] * yw[yi]);
        sum = sum.isZero() ? term : add(sum, term);
      }
      r[2 * i + j] = sum;
    }
  }
  const auto result = makeMatrixNode(var, r);
  multiplyTable_.insert(x, y, result);
  return result;
}

vEdge Package::multiply(const mEdge& m, const vEdge& v) {
  if (m.isZero() || v.isZero()) {
    return zeroVectorEdge();
  }
  const auto w = m.w * v.w;
  auto e = multiplyVectorNodes(m.n, v.n, static_cast<Level>(nqubits_) - 1);
  if (e.isZero()) {
    return zeroVectorEdge();
  }
  e.w = reals_.lookup(e.w * w);
  if (e.w == std::complex<double>{0.0, 0.0}) {
    return zeroVectorEdge();
  }
  return e;
}

vEdge Package::multiplyVectorNodes(const NodeIndex m, const NodeIndex v,
                                   const Level var) {
  if (var == kTerminalLevel) {
    return {kTerminalIndex, {1.0, 0.0}};
  }
  assert(levelOfIndex(m) == var && levelOfIndex(v) == var);
  // Identity absorption (see multiplyMatrixNodes).
  if (static_cast<std::size_t>(var) < idTable_.size() &&
      m == idTable_[static_cast<std::size_t>(var)].n) {
    return {v, {1.0, 0.0}};
  }
  if (const auto* cached = multiplyVectorTable_.lookup(m, v)) {
    return *cached;
  }
  const auto mc = mSlabs_[static_cast<std::size_t>(var)].children(slotOfIndex(m));
  const auto mw = mSlabs_[static_cast<std::size_t>(var)].weights(slotOfIndex(m));
  const auto vc = vSlabs_[static_cast<std::size_t>(var)].children(slotOfIndex(v));
  const auto vw = vSlabs_[static_cast<std::size_t>(var)].weights(slotOfIndex(v));
  std::array<vEdge, 2> r;
  for (std::size_t i = 0; i < 2; ++i) {
    vEdge sum = zeroVectorEdge();
    for (std::size_t k = 0; k < 2; ++k) {
      const auto mi = 2 * i + k;
      if (mw[mi] == std::complex<double>{0.0, 0.0} ||
          vw[k] == std::complex<double>{0.0, 0.0}) {
        continue;
      }
      auto term = multiplyVectorNodes(mc[mi], vc[k], var - 1);
      if (term.isZero()) {
        continue;
      }
      term.w = reals_.lookup(term.w * mw[mi] * vw[k]);
      sum = sum.isZero() ? term : add(sum, term);
    }
    r[i] = sum;
  }
  const auto result = makeVectorNode(var, r);
  multiplyVectorTable_.insert(m, v, result);
  return result;
}

mEdge Package::add(const mEdge& x, const mEdge& y) {
  if (x.isZero()) {
    return y;
  }
  if (y.isZero()) {
    return x;
  }
  if (x.isTerminal() && y.isTerminal()) {
    const auto w = reals_.lookup(x.w + y.w);
    if (w == std::complex<double>{0.0, 0.0}) {
      return zeroMatrix();
    }
    return {kTerminalIndex, w};
  }
  if (const auto* cached = addTable_.lookup(x, y)) {
    return *cached;
  }
  assert(levelOfIndex(x.n) == levelOfIndex(y.n));
  const auto var = levelOfIndex(x.n);
  const auto& slab = mSlabs_[static_cast<std::size_t>(var)];
  const auto xc = slab.children(slotOfIndex(x.n));
  const auto xw = slab.weights(slotOfIndex(x.n));
  const auto yc = slab.children(slotOfIndex(y.n));
  const auto yw = slab.weights(slotOfIndex(y.n));
  std::array<mEdge, 4> r;
  for (std::size_t i = 0; i < 4; ++i) {
    const mEdge xe{xc[i], x.w * xw[i]};
    const mEdge ye{yc[i], y.w * yw[i]};
    r[i] = add(xe.isZero() ? zeroMatrix() : xe,
               ye.isZero() ? zeroMatrix() : ye);
  }
  const auto result = makeMatrixNode(var, r);
  addTable_.insert(x, y, result);
  return result;
}

vEdge Package::add(const vEdge& x, const vEdge& y) {
  if (x.isZero()) {
    return y;
  }
  if (y.isZero()) {
    return x;
  }
  if (x.isTerminal() && y.isTerminal()) {
    const auto w = reals_.lookup(x.w + y.w);
    if (w == std::complex<double>{0.0, 0.0}) {
      return zeroVectorEdge();
    }
    return {kTerminalIndex, w};
  }
  if (const auto* cached = addVectorTable_.lookup(x, y)) {
    return *cached;
  }
  assert(levelOfIndex(x.n) == levelOfIndex(y.n));
  const auto var = levelOfIndex(x.n);
  const auto& slab = vSlabs_[static_cast<std::size_t>(var)];
  const auto xc = slab.children(slotOfIndex(x.n));
  const auto xw = slab.weights(slotOfIndex(x.n));
  const auto yc = slab.children(slotOfIndex(y.n));
  const auto yw = slab.weights(slotOfIndex(y.n));
  std::array<vEdge, 2> r;
  for (std::size_t i = 0; i < 2; ++i) {
    const vEdge xe{xc[i], x.w * xw[i]};
    const vEdge ye{yc[i], y.w * yw[i]};
    r[i] = add(xe.isZero() ? zeroVectorEdge() : xe,
               ye.isZero() ? zeroVectorEdge() : ye);
  }
  const auto result = makeVectorNode(var, r);
  addVectorTable_.insert(x, y, result);
  return result;
}

mEdge Package::conjugateTranspose(const mEdge& x) {
  if (x.isTerminal()) {
    return {x.n, reals_.lookup(std::conj(x.w))};
  }
  mEdge base;
  if (const auto* cached = conjTransTable_.lookup(x.n)) {
    base = *cached;
  } else {
    const auto var = levelOfIndex(x.n);
    const auto& slab = mSlabs_[static_cast<std::size_t>(var)];
    const auto c = slab.children(slotOfIndex(x.n));
    const auto w = slab.weights(slotOfIndex(x.n));
    std::array<mEdge, 4> r;
    for (std::size_t i = 0; i < 2; ++i) {
      for (std::size_t j = 0; j < 2; ++j) {
        r[2 * i + j] = conjugateTranspose({c[2 * j + i], w[2 * j + i]});
      }
    }
    base = makeMatrixNode(var, r);
    conjTransTable_.insert(x.n, base);
  }
  mEdge result{base.n, reals_.lookup(std::conj(x.w) * base.w)};
  if (result.w == std::complex<double>{0.0, 0.0}) {
    return zeroMatrix();
  }
  return result;
}

std::complex<double> Package::trace(const mEdge& x) {
  if (x.isZero()) {
    return {0.0, 0.0};
  }
  return x.w * traceNode(x.n);
}

std::complex<double> Package::traceNode(const NodeIndex node) {
  if (node == kTerminalIndex) {
    return {1.0, 0.0};
  }
  if (const auto* cached = traceTable_.lookup(node)) {
    return *cached;
  }
  // The trace recursion never allocates, so slab references stay valid.
  const auto& slab = mSlabs_[static_cast<std::size_t>(levelOfIndex(node))];
  const auto& c = slab.children(slotOfIndex(node));
  const auto& w = slab.weights(slotOfIndex(node));
  std::complex<double> t{0.0, 0.0};
  for (const std::size_t i : {std::size_t{0}, std::size_t{3}}) {
    if (w[i] != std::complex<double>{0.0, 0.0}) {
      t += w[i] * traceNode(c[i]);
    }
  }
  traceTable_.insert(node, t);
  return t;
}

std::complex<double> Package::innerProduct(const vEdge& x, const vEdge& y) {
  if (x.isZero() || y.isZero()) {
    return {0.0, 0.0};
  }
  return std::conj(x.w) * y.w * innerProductNodes(x.n, y.n);
}

std::complex<double> Package::innerProductNodes(const NodeIndex x,
                                                const NodeIndex y) {
  if (x == kTerminalIndex) {
    return {1.0, 0.0};
  }
  if (const auto* cached = innerProductTable_.lookup(x, y)) {
    return *cached;
  }
  // The inner-product recursion never allocates, so references stay valid.
  const auto& slab = vSlabs_[static_cast<std::size_t>(levelOfIndex(x))];
  const auto& xc = slab.children(slotOfIndex(x));
  const auto& xw = slab.weights(slotOfIndex(x));
  const auto& yc = slab.children(slotOfIndex(y));
  const auto& yw = slab.weights(slotOfIndex(y));
  std::complex<double> sum{0.0, 0.0};
  for (std::size_t i = 0; i < 2; ++i) {
    if (xw[i] == std::complex<double>{0.0, 0.0} ||
        yw[i] == std::complex<double>{0.0, 0.0}) {
      continue;
    }
    sum += std::conj(xw[i]) * yw[i] * innerProductNodes(xc[i], yc[i]);
  }
  innerProductTable_.insert(x, y, sum);
  return sum;
}

double Package::fidelity(const vEdge& x, const vEdge& y) {
  return std::norm(innerProduct(x, y));
}

std::complex<double> Package::getEntry(const mEdge& x, const std::size_t row,
                                       const std::size_t col) const {
  if (x.isZero()) {
    return {0.0, 0.0};
  }
  std::complex<double> w = x.w;
  NodeIndex node = x.n;
  while (node != kTerminalIndex) {
    const auto v = static_cast<std::size_t>(levelOfIndex(node));
    const auto slot = slotOfIndex(node);
    const auto bitR = (row >> v) & 1U;
    const auto bitC = (col >> v) & 1U;
    const auto i = 2 * bitR + bitC;
    const auto& cw = mSlabs_[v].weights(slot)[i];
    if (cw == std::complex<double>{0.0, 0.0}) {
      return {0.0, 0.0};
    }
    w *= cw;
    node = mSlabs_[v].children(slot)[i];
  }
  return w;
}

std::complex<double> Package::getAmplitude(const vEdge& x,
                                           const std::size_t index) const {
  if (x.isZero()) {
    return {0.0, 0.0};
  }
  std::complex<double> w = x.w;
  NodeIndex node = x.n;
  while (node != kTerminalIndex) {
    const auto v = static_cast<std::size_t>(levelOfIndex(node));
    const auto slot = slotOfIndex(node);
    const auto bit = (index >> v) & 1U;
    const auto& cw = vSlabs_[v].weights(slot)[bit];
    if (cw == std::complex<double>{0.0, 0.0}) {
      return {0.0, 0.0};
    }
    w *= cw;
    node = vSlabs_[v].children(slot)[bit];
  }
  return w;
}

double Package::traceFidelity(const mEdge& e) {
  const auto t = trace(e);
  return std::abs(t) / static_cast<double>(std::size_t{1} << nqubits_);
}

bool Package::isIdentity(const mEdge& e, const bool upToGlobalPhase,
                         const double checkTol) {
  if (e.isZero()) {
    return false;
  }
  const auto ident = makeIdent();
  if (e.n == ident.n) {
    if (upToGlobalPhase) {
      return std::abs(std::abs(e.w) - 1.0) < checkTol;
    }
    return std::abs(e.w - std::complex<double>{1.0, 0.0}) < checkTol;
  }
  // Fall back to the Hilbert-Schmidt criterion |tr(E)| ~ 2^n.
  const auto t = trace(e);
  const auto dim = static_cast<double>(std::size_t{1} << nqubits_);
  if (upToGlobalPhase) {
    return std::abs(std::abs(t) - dim) < checkTol * dim;
  }
  return std::abs(t - dim) < checkTol * dim;
}

void Package::incRefNode(const NodeIndex n) noexcept {
  if (n == kTerminalIndex) {
    return;
  }
  auto& slab = mSlabs_[static_cast<std::size_t>(levelOfIndex(n))];
  const auto slot = slotOfIndex(n);
  if (slab.ref(slot)++ == 0) {
    // Ref walks never allocate; child references are stable here.
    for (const auto child : slab.children(slot)) {
      incRefNode(child);
    }
  }
}

void Package::decRefNode(const NodeIndex n) noexcept {
  if (n == kTerminalIndex) {
    return;
  }
  auto& slab = mSlabs_[static_cast<std::size_t>(levelOfIndex(n))];
  const auto slot = slotOfIndex(n);
  assert(slab.ref(slot) > 0);
  if (--slab.ref(slot) == 0) {
    for (const auto child : slab.children(slot)) {
      decRefNode(child);
    }
  }
}

void Package::incRefVNode(const NodeIndex n) noexcept {
  if (n == kTerminalIndex) {
    return;
  }
  auto& slab = vSlabs_[static_cast<std::size_t>(levelOfIndex(n))];
  const auto slot = slotOfIndex(n);
  if (slab.ref(slot)++ == 0) {
    for (const auto child : slab.children(slot)) {
      incRefVNode(child);
    }
  }
}

void Package::decRefVNode(const NodeIndex n) noexcept {
  if (n == kTerminalIndex) {
    return;
  }
  auto& slab = vSlabs_[static_cast<std::size_t>(levelOfIndex(n))];
  const auto slot = slotOfIndex(n);
  assert(slab.ref(slot) > 0);
  if (--slab.ref(slot) == 0) {
    for (const auto child : slab.children(slot)) {
      decRefVNode(child);
    }
  }
}

void Package::incRef(const mEdge& e) noexcept { incRefNode(e.n); }
void Package::decRef(const mEdge& e) noexcept { decRefNode(e.n); }
void Package::incRef(const vEdge& e) noexcept { incRefVNode(e.n); }
void Package::decRef(const vEdge& e) noexcept { decRefVNode(e.n); }

void Package::clearComputeTables() noexcept {
  multiplyTable_.clear();
  multiplyVectorTable_.clear();
  addTable_.clear();
  addVectorTable_.clear();
  conjTransTable_.clear();
  traceTable_.clear();
  innerProductTable_.clear();
}

std::size_t Package::garbageCollect(const bool force) {
  // The GC boundary is where every engine already expects a
  // ResourceLimitError (the governors throw here), which makes it the
  // canonical point to inject one.
  VERIQC_FAULT_POINT(fault::points::kDDGc, fault::FaultKind::ResourceLimit);
  std::size_t live = 0;
  for (const auto& slab : mSlabs_) {
    live += slab.size();
  }
  for (const auto& slab : vSlabs_) {
    live += slab.size();
  }
  peakMatrixNodes_ = std::max(peakMatrixNodes_, live);
  // Over the node budget: always attempt a collection first — only what
  // survives it counts against the budget.
  const bool overNodeBudget = maxNodes_ != 0 && live > maxNodes_;
  if (!force && !overNodeBudget && live < gcThreshold_) {
    // Memory is checked at a throttle even when no collection runs, so a
    // governed engine whose live-node count stays under the GC threshold
    // still cannot silently outgrow the memory budget.
    if (maxMemoryKB_ != 0 && memoryCheckCountdown_-- == 0) {
      memoryCheckCountdown_ = 15;
      const auto rssKB = peakResidentSetKB();
      if (rssKB > maxMemoryKB_) {
        throw ResourceLimitError("resident memory (KB)", maxMemoryKB_, rssKB);
      }
    }
    return 0;
  }
  std::size_t collected = 0;
  for (auto& slab : mSlabs_) {
    collected += slab.garbageCollect();
  }
  for (auto& slab : vSlabs_) {
    collected += slab.garbageCollect();
  }
  // O(1) generation bumps — cached results may name reclaimed slots.
  clearComputeTables();
  // The gate-DD cache holds references to its diagrams, so its entries are
  // never collected and stay valid here.
  gcThreshold_ = std::max(gcInitialThreshold_, 2 * (live - collected));
  ++gcRuns_;
  enforceResourceLimits(live - collected);
  return collected;
}

std::size_t Package::release(const mEdge& e) {
  const std::size_t removed = releaseNode(e.n);
  if (removed > 0) {
    releasedNodes_ += removed;
    // Cached results may name the reclaimed slots; the gate-DD cache holds
    // references to its entries, so those were never reclaimable.
    clearComputeTables();
  }
  return removed;
}

std::size_t Package::releaseNode(const NodeIndex n) {
  if (n == kTerminalIndex) {
    return 0;
  }
  auto& slab = mSlabs_[static_cast<std::size_t>(levelOfIndex(n))];
  // A dead contains() means the slot is no longer live: either a shared
  // subdiagram this walk already reclaimed through another parent, or one an
  // earlier garbageCollect() swept. Either way its children were (or will
  // be) handled by whoever freed it.
  if (!slab.contains(n) || slab.ref(slotOfIndex(n)) != 0) {
    return 0;
  }
  // Copy the children before remove() recycles the slot.
  const auto children = slab.children(slotOfIndex(n));
  slab.remove(n);
  std::size_t removed = 1;
  for (const auto child : children) {
    removed += releaseNode(child);
  }
  return removed;
}

void Package::enforceResourceLimits(const std::size_t liveNodes) {
  if (maxNodes_ != 0 && liveNodes > maxNodes_) {
    throw ResourceLimitError("DD nodes", maxNodes_, liveNodes);
  }
  if (maxMemoryKB_ != 0) {
    const auto rssKB = peakResidentSetKB();
    if (rssKB > maxMemoryKB_) {
      throw ResourceLimitError("resident memory (KB)", maxMemoryKB_, rssKB);
    }
  }
}

std::size_t Package::peakResidentSetKB() noexcept {
#if defined(__unix__) || defined(__APPLE__)
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) {
    return 0;
  }
#if defined(__APPLE__)
  return static_cast<std::size_t>(usage.ru_maxrss) / 1024;
#else
  return static_cast<std::size_t>(usage.ru_maxrss);
#endif
#else
  return 0;
#endif
}

std::size_t Package::currentResidentSetKB() noexcept {
#if defined(__unix__) && !defined(__APPLE__)
  // /proc/self/statm: size resident shared text lib data dt (in pages).
  std::FILE* statm = std::fopen("/proc/self/statm", "r");
  if (statm == nullptr) {
    return 0;
  }
  long unused = 0;
  long residentPages = 0;
  const int matched = std::fscanf(statm, "%ld %ld", &unused, &residentPages);
  std::fclose(statm);
  if (matched != 2 || residentPages < 0) {
    return 0;
  }
  const long pageSize = sysconf(_SC_PAGESIZE);
  if (pageSize <= 0) {
    return 0;
  }
  return static_cast<std::size_t>(residentPages) *
         static_cast<std::size_t>(pageSize) / 1024U;
#else
  return peakResidentSetKB();
#endif
}

void Package::countMatrixNodes(const NodeIndex n,
                               std::set<NodeIndex>& seen) const {
  if (n == kTerminalIndex || !seen.insert(n).second) {
    return;
  }
  const auto& slab = mSlabs_[static_cast<std::size_t>(levelOfIndex(n))];
  const auto slot = slotOfIndex(n);
  const auto& c = slab.children(slot);
  const auto& w = slab.weights(slot);
  for (std::size_t i = 0; i < 4; ++i) {
    if (w[i] != std::complex<double>{0.0, 0.0}) {
      countMatrixNodes(c[i], seen);
    }
  }
}

void Package::countVectorNodes(const NodeIndex n,
                               std::set<NodeIndex>& seen) const {
  if (n == kTerminalIndex || !seen.insert(n).second) {
    return;
  }
  const auto& slab = vSlabs_[static_cast<std::size_t>(levelOfIndex(n))];
  const auto slot = slotOfIndex(n);
  const auto& c = slab.children(slot);
  const auto& w = slab.weights(slot);
  for (std::size_t i = 0; i < 2; ++i) {
    if (w[i] != std::complex<double>{0.0, 0.0}) {
      countVectorNodes(c[i], seen);
    }
  }
}

std::size_t Package::nodeCount(const mEdge& e) const {
  std::set<NodeIndex> seen;
  countMatrixNodes(e.n, seen);
  return seen.size();
}

std::size_t Package::nodeCount(const vEdge& e) const {
  std::set<NodeIndex> seen;
  countVectorNodes(e.n, seen);
  return seen.size();
}

mEdge Package::matrixChild(const NodeIndex n, const std::size_t i) const {
  assert(n != kTerminalIndex && i < 4);
  const auto& slab = mSlabs_[static_cast<std::size_t>(levelOfIndex(n))];
  const auto slot = slotOfIndex(n);
  return {slab.children(slot)[i], slab.weights(slot)[i]};
}

vEdge Package::vectorChild(const NodeIndex n, const std::size_t i) const {
  assert(n != kTerminalIndex && i < 2);
  const auto& slab = vSlabs_[static_cast<std::size_t>(levelOfIndex(n))];
  const auto slot = slotOfIndex(n);
  return {slab.children(slot)[i], slab.weights(slot)[i]};
}

PackageStats Package::stats() const {
  PackageStats s;
  for (const auto& slab : mSlabs_) {
    s.matrixStore += slab.stats();
  }
  for (const auto& slab : vSlabs_) {
    s.vectorStore += slab.stats();
  }
  s.matrixNodes = s.matrixStore.liveNodes;
  s.vectorNodes = s.vectorStore.liveNodes;
  s.allocations = s.matrixStore.allocatedSlots + s.vectorStore.allocatedSlots;
  s.gcRuns = gcRuns_;
  s.releasedNodes = releasedNodes_;
  s.realNumbers = reals_.size();
  s.peakMatrixNodes =
      std::max(peakMatrixNodes_, s.matrixNodes + s.vectorNodes);
  s.gcThreshold = gcThreshold_;
  s.multiply = multiplyTable_.stats();
  s.multiplyVector = multiplyVectorTable_.stats();
  s.add = addTable_.stats();
  s.addVector = addVectorTable_.stats();
  s.conjugateTranspose = conjTransTable_.stats();
  s.trace = traceTable_.stats();
  s.innerProduct = innerProductTable_.stats();
  s.gateCache = gateCacheStats_;
  s.gateCacheEntries = gateCache_.size();
  return s;
}

void Package::exportCounters(obs::CounterRegistry& registry,
                             const std::string& prefix) const {
  const auto s = stats();
  const auto cache = [&](const char* name, const CacheStats& stats) {
    const std::string base = prefix + name;
    registry.add(base + ".lookups", static_cast<double>(stats.lookups));
    registry.add(base + ".hits", static_cast<double>(stats.hits));
    registry.add(base + ".collisions", static_cast<double>(stats.collisions));
    registry.add(base + ".inserts", static_cast<double>(stats.inserts));
    registry.add(base + ".invalidations",
                 static_cast<double>(stats.invalidations));
  };
  cache("multiply", s.multiply);
  cache("multiply_vector", s.multiplyVector);
  cache("add", s.add);
  cache("add_vector", s.addVector);
  cache("conjugate_transpose", s.conjugateTranspose);
  cache("trace", s.trace);
  cache("inner_product", s.innerProduct);
  cache("gate_cache", s.gateCache);
  registry.add(prefix + "nodes.allocations",
               static_cast<double>(s.allocations));
  registry.add(prefix + "nodes.released",
               static_cast<double>(s.releasedNodes));
  registry.add(prefix + "gc.runs", static_cast<double>(s.gcRuns));
  registry.max(prefix + "nodes.peak",
               static_cast<double>(s.peakMatrixNodes));
  registry.max(prefix + "reals.interned", static_cast<double>(s.realNumbers));
  const auto store = s.storeTotal();
  registry.add(prefix + "unique.lookups", static_cast<double>(store.lookups));
  registry.add(prefix + "unique.probe_steps",
               static_cast<double>(store.probeSteps));
  registry.add(prefix + "unique.hits", static_cast<double>(store.hits));
  registry.add(prefix + "unique.collisions",
               static_cast<double>(store.collisions));
  registry.add(prefix + "nodes.slab_growths",
               static_cast<double>(store.slabGrowths));
  registry.max(prefix + "nodes.allocated_slots",
               static_cast<double>(store.allocatedSlots));
}

std::vector<mEdge> Package::internalMatrixRoots() const {
  std::vector<mEdge> roots;
  roots.reserve(idTable_.size() + gateCache_.size());
  roots.insert(roots.end(), idTable_.begin(), idTable_.end());
  for (const auto& [key, edge] : gateCache_) {
    roots.push_back(edge);
  }
  return roots;
}

void Package::visitLiveCacheNodes(
    const std::function<void(NodeIndex)>& visitMatrix,
    const std::function<void(NodeIndex)>& visitVector) const {
  multiplyTable_.forEachLive(
      [&](const NodeIndex l, const NodeIndex r, const mEdge& res) {
        visitMatrix(l);
        visitMatrix(r);
        visitMatrix(res.n);
      });
  multiplyVectorTable_.forEachLive(
      [&](const NodeIndex l, const NodeIndex r, const vEdge& res) {
        visitMatrix(l);
        visitVector(r);
        visitVector(res.n);
      });
  addTable_.forEachLive([&](const mEdge& l, const mEdge& r, const mEdge& res) {
    visitMatrix(l.n);
    visitMatrix(r.n);
    visitMatrix(res.n);
  });
  addVectorTable_.forEachLive(
      [&](const vEdge& l, const vEdge& r, const vEdge& res) {
        visitVector(l.n);
        visitVector(r.n);
        visitVector(res.n);
      });
  conjTransTable_.forEachLive([&](const NodeIndex arg, const mEdge& res) {
    visitMatrix(arg);
    visitMatrix(res.n);
  });
  traceTable_.forEachLive(
      [&](const NodeIndex arg, const std::complex<double>& /*res*/) {
        visitMatrix(arg);
      });
  innerProductTable_.forEachLive([&](const NodeIndex l, const NodeIndex r,
                                     const std::complex<double>& /*res*/) {
    visitVector(l);
    visitVector(r);
  });
}

bool Package::containsMatrixNode(const NodeIndex n) const noexcept {
  if (n == kTerminalIndex) {
    return true;
  }
  const auto v = levelOfIndex(n);
  if (v < 0 || static_cast<std::size_t>(v) >= mSlabs_.size()) {
    return false;
  }
  return mSlabs_[static_cast<std::size_t>(v)].contains(n);
}

bool Package::containsVectorNode(const NodeIndex n) const noexcept {
  if (n == kTerminalIndex) {
    return true;
  }
  const auto v = levelOfIndex(n);
  if (v < 0 || static_cast<std::size_t>(v) >= vSlabs_.size()) {
    return false;
  }
  return vSlabs_[static_cast<std::size_t>(v)].contains(n);
}

} // namespace veriqc::dd

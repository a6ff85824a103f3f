#include "zx/simplify.hpp"

#include "fault/fault.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <iomanip>
#include <map>
#include <sstream>
#include <utility>

namespace veriqc::zx {

namespace {
using Clock = std::chrono::steady_clock;

/// Marks a rule whose passes always seed every live vertex.
constexpr int kFullSeed = -1;

/// Deepest neighborhood a rewrite re-enqueues (touchNeighborhood2).
constexpr std::uint64_t kMaxTouchDepth = 2;

/// Read radius of each rule's match predicate, indexed by SimplifyRule: the
/// graph distance from a candidate at which the predicate reads mutable
/// state (phase, adjacency row or degree, presence). Vertex types are fixed
/// once toGraphLike has run, so they do not count.
constexpr std::array<int, kSimplifyRuleCount> kReadRadius = {
    0,         // spider: the candidate's row
    0,         // id: the candidate's phase and row
    0,         // lcomp: the candidate's phase and row
    1,         // pivot: the partner's phase and row
    2,         // pivotGadget: hasLeafNeighbor(partner) reads degrees
    1,         // pivotBound: the partner's phase and row
    kFullSeed, // gadget: its `seen` registry lives for one pass only
};

std::uint8_t ruleBit(const SimplifyRule rule) {
  return static_cast<std::uint8_t>(1U << static_cast<unsigned>(rule));
}
} // namespace

double SimplifyStats::totalSeconds() const noexcept {
  double sum = 0.0;
  for (const auto& rule : rules) {
    sum += rule.seconds;
  }
  return sum;
}

std::vector<SimplifyStats::NamedRuleStats> SimplifyStats::activeRules() const {
  std::vector<NamedRuleStats> active;
  for (std::size_t i = 0; i < rules.size(); ++i) {
    if (rules[i].candidates > 0) {
      active.push_back({kSimplifyRuleNames[i], rules[i]});
    }
  }
  return active;
}

std::string SimplifyStats::digest() const {
  std::ostringstream os;
  bool first = true;
  for (const auto& [rule, r] : activeRules()) {
    if (!first) {
      os << "; ";
    }
    first = false;
    os << rule << " r" << r.rewrites << "/m" << r.matches << "/c"
       << r.candidates << " " << std::fixed << std::setprecision(2)
       << r.seconds * 1e3 << "ms";
  }
  return os.str();
}

// --- worklist ----------------------------------------------------------------

void Simplifier::Worklist::reset(const ZXDiagram& g) {
  restart(g);
  for (Vertex v = 0; v < g.vertexBound(); ++v) {
    if (g.isPresent(v)) {
      push(v);
    }
  }
}

void Simplifier::Worklist::restart(const ZXDiagram& g) {
  if (!empty()) { // a stopped pass left candidates behind
    std::fill(sweep_.begin(), sweep_.end(), 0);
    std::fill(nextSweep_.begin(), nextSweep_.end(), 0);
    sweepCount_ = 0;
    nextCount_ = 0;
  }
  const std::size_t words = (std::size_t{g.vertexBound()} + 63) / 64;
  if (sweep_.size() < words) {
    sweep_.resize(words, 0);
    nextSweep_.resize(words, 0);
  }
  position_ = -1;
}

bool Simplifier::Worklist::push(const Vertex v) {
  const std::size_t word = v / 64;
  const std::uint64_t bit = std::uint64_t{1} << (v % 64);
  if (word >= sweep_.size()) {
    sweep_.resize(word + 1, 0);
    nextSweep_.resize(word + 1, 0);
  }
  if (((sweep_[word] | nextSweep_[word]) & bit) != 0) {
    return false; // already pending
  }
  if (static_cast<std::int64_t>(v) > position_) {
    sweep_[word] |= bit;
    ++sweepCount_;
  } else {
    nextSweep_[word] |= bit;
    ++nextCount_;
  }
  return true;
}

Vertex Simplifier::Worklist::pop() {
  if (sweepCount_ == 0) {
    sweep_.swap(nextSweep_);
    std::swap(sweepCount_, nextCount_);
    position_ = -1;
  }
  // Every current-sweep bit lies above the position, so the lowest set bit
  // from the position's word on is the sweep's smallest id.
  auto word = static_cast<std::size_t>(position_ + 1) / 64;
  while (sweep_[word] == 0) {
    ++word;
  }
  const auto offset = static_cast<unsigned>(std::countr_zero(sweep_[word]));
  sweep_[word] &= ~(std::uint64_t{1} << offset);
  --sweepCount_;
  const auto v = static_cast<Vertex>(word * 64 + offset);
  position_ = static_cast<std::int64_t>(v);
  return v;
}

std::vector<std::string> Simplifier::Worklist::checkInvariant() const {
  std::vector<std::string> issues;
  if (sweep_.size() != nextSweep_.size()) {
    issues.push_back("sweep bitsets differ in length: " +
                     std::to_string(sweep_.size()) + " and " +
                     std::to_string(nextSweep_.size()) + " words");
    return issues;
  }
  const auto lowestId = [](const std::size_t word, const std::uint64_t bits) {
    return word * 64 + static_cast<std::size_t>(std::countr_zero(bits));
  };
  std::size_t current = 0;
  std::size_t next = 0;
  for (std::size_t word = 0; word < sweep_.size(); ++word) {
    current += static_cast<std::size_t>(std::popcount(sweep_[word]));
    next += static_cast<std::size_t>(std::popcount(nextSweep_[word]));
    for (auto both = sweep_[word] & nextSweep_[word]; both != 0;
         both &= both - 1) {
      issues.push_back("vertex " + std::to_string(lowestId(word, both)) +
                       " queued in both sweeps");
    }
    for (auto bits = sweep_[word]; bits != 0; bits &= bits - 1) {
      const auto v = static_cast<std::int64_t>(lowestId(word, bits));
      if (v <= position_) {
        issues.push_back("current-sweep vertex " + std::to_string(v) +
                         " lies at or below the scan position " +
                         std::to_string(position_));
      }
    }
  }
  if (current != sweepCount_) {
    issues.push_back("current sweep counts " + std::to_string(sweepCount_) +
                     " vertices but holds " + std::to_string(current));
  }
  if (next != nextCount_) {
    issues.push_back("next sweep counts " + std::to_string(nextCount_) +
                     " vertices but holds " + std::to_string(next));
  }
  return issues;
}

// --- change mask -------------------------------------------------------------

void Simplifier::ChangeMask::mark(const Vertex v, const std::uint8_t rules) {
  if (rules == 0) {
    return;
  }
  if (v >= bits_.size()) {
    bits_.resize(static_cast<std::size_t>(v) + 1, 0);
  }
  if (bits_[v] == 0) {
    listed_.push_back(v);
  }
  bits_[v] |= rules;
}

void Simplifier::ChangeMask::clear(const std::uint8_t rules) {
  std::size_t kept = 0;
  for (const Vertex v : listed_) {
    bits_[v] &= static_cast<std::uint8_t>(~rules);
    if (bits_[v] != 0) {
      listed_[kept++] = v;
    }
  }
  listed_.resize(kept);
}

void Simplifier::ChangeMask::reset() { clear(0xFF); }

std::vector<std::string> Simplifier::ChangeMask::checkInvariant() const {
  std::vector<std::string> issues;
  auto listed = listed_;
  std::sort(listed.begin(), listed.end());
  for (std::size_t i = 0; i < listed.size(); ++i) {
    const Vertex v = listed[i];
    if (i > 0 && listed[i - 1] == v) {
      issues.push_back("vertex " + std::to_string(v) +
                       " listed more than once");
    }
    if (rules(v) == 0) {
      issues.push_back("vertex " + std::to_string(v) +
                       " listed with an empty change mask");
    }
  }
  for (std::size_t v = 0; v < bits_.size(); ++v) {
    if (bits_[v] != 0 && !std::binary_search(listed.begin(), listed.end(),
                                             static_cast<Vertex>(v))) {
      issues.push_back("vertex " + std::to_string(v) +
                       " has a change mask but is not listed");
    }
  }
  return issues;
}

// --- simplifier --------------------------------------------------------------

Simplifier::Simplifier(ZXDiagram& diagram, std::function<bool()> shouldStop,
                       SimplifierOptions options)
    : g_(diagram), shouldStop_(std::move(shouldStop)), options_(options) {}

void Simplifier::enforceVertexBudget() const {
  if (options_.maxVertices != 0 && g_.vertexCount() > options_.maxVertices) {
    throw ResourceLimitError("ZX vertices", options_.maxVertices,
                             g_.vertexCount());
  }
}

bool Simplifier::isInterior(const Vertex v) const {
  return g_.isPresent(v) && !g_.isBoundary(v);
}

bool Simplifier::isInteriorZ(const Vertex v) const {
  return g_.isPresent(v) && g_.type(v) == VertexType::Z;
}

bool Simplifier::allNeighborsInteriorViaHadamard(const Vertex v) const {
  for (const auto& [w, mult] : g_.neighbors(v)) {
    if (w == v || mult.simple != 0 || mult.hadamard != 1 || !isInteriorZ(w)) {
      return false;
    }
  }
  return true;
}

bool Simplifier::allEdgesHadamardToSpiders(const Vertex v) const {
  for (const auto& [w, mult] : g_.neighbors(v)) {
    if (w == v) {
      return false;
    }
    if (g_.isBoundary(w)) {
      if (mult.total() != 1) {
        return false;
      }
      continue;
    }
    if (mult.simple != 0 || mult.hadamard != 1 || !isInteriorZ(w)) {
      return false;
    }
  }
  return true;
}

template <typename TryRule>
std::size_t Simplifier::runPass(const SimplifyRule rule, TryRule&& tryRule) {
  auto& rs = stats_.rules[static_cast<std::size_t>(rule)];
  const auto start = Clock::now();
  enforceVertexBudget();
  if ((atFixpoint_ & ruleBit(rule)) != 0) {
    seedChanged(rule);
  } else {
    worklist_.reset(g_);
  }
  std::size_t count = 0;
  bool stopped = false;
  while (!worklist_.empty()) {
    const Vertex v = worklist_.pop();
    ++rs.candidates;
    // Poll the stop token and the vertex budget at a throttle: rewrites are
    // individually sound, so letting a handful through after a stop request
    // (or a few vertices past the budget) is harmless.
    if ((rs.candidates & 15U) == 0) {
      if (stopping()) {
        stopped = true;
        break;
      }
      enforceVertexBudget();
      VERIQC_FAULT_POINT(fault::points::kZXDrain,
                         fault::FaultKind::ResourceLimit);
    }
    expansionEpoch_ += kMaxTouchDepth; // forget the last candidate's expansions
    const std::size_t applied = tryRule(v);
    if (applied > 0) {
      ++rs.matches;
      count += applied;
    }
  }
  // Every rewrite re-enqueued its rule's read radius around what it
  // changed, so a drained pass leaves no match anywhere: from here on the
  // rule only needs to look near later changes.
  if (!stopped && kReadRadius[static_cast<std::size_t>(rule)] != kFullSeed) {
    changes_.clear(ruleBit(rule));
    atFixpoint_ |= ruleBit(rule);
  }
  rs.rewrites += count;
  rs.seconds += std::chrono::duration<double>(Clock::now() - start).count();
  return count;
}

void Simplifier::seedChanged(const SimplifyRule rule) {
  worklist_.restart(g_);
  seeds_.clear();
  for (const Vertex v : changes_.listed()) {
    if ((changes_.rules(v) & ruleBit(rule)) != 0 && g_.isPresent(v) &&
        worklist_.push(v)) {
      seeds_.push_back(v);
    }
  }
  // Grow the seeds breadth-first out to the radius, queueing each vertex
  // once; neighbors of live vertices are live.
  std::size_t hopBegin = 0;
  for (int hop = 0; hop < kReadRadius[static_cast<std::size_t>(rule)];
       ++hop) {
    const std::size_t hopEnd = seeds_.size();
    for (std::size_t i = hopBegin; i < hopEnd; ++i) {
      for (const auto& [w, mult] : g_.neighbors(seeds_[i])) {
        if (worklist_.push(w)) {
          seeds_.push_back(w);
        }
      }
    }
    hopBegin = hopEnd;
  }
}

void Simplifier::resetChangeTracking() {
  changes_.reset();
  atFixpoint_ = 0;
}

Vertex Simplifier::addVertex(const VertexType type, const PiRational phase) {
  const Vertex v = g_.addVertex(type, phase);
  markChanged(v);
  return v;
}

void Simplifier::addEdge(const Vertex u, const Vertex v, const EdgeType type) {
  g_.addEdge(u, v, type);
  markChanged(u);
  markChanged(v);
}

void Simplifier::removeEdge(const Vertex u, const Vertex v,
                            const EdgeType type) {
  g_.removeEdge(u, v, type);
  markChanged(u);
  markChanged(v);
}

void Simplifier::removeAllEdges(const Vertex u, const Vertex v) {
  g_.removeAllEdges(u, v);
  markChanged(u);
  markChanged(v);
}

void Simplifier::removeVertex(const Vertex v) {
  for (const auto& [w, mult] : g_.neighbors(v)) {
    markChanged(w);
  }
  g_.removeVertex(v);
}

void Simplifier::addPhase(const Vertex v, const PiRational& delta) {
  g_.addPhase(v, delta);
  markChanged(v);
}

void Simplifier::setPhase(const Vertex v, const PiRational phase) {
  g_.setPhase(v, phase);
  markChanged(v);
}

void Simplifier::setType(const Vertex v, const VertexType type) {
  g_.setType(v, type);
  markChanged(v);
}

void Simplifier::toggleHadamardAcross(
    const std::span<const std::span<const Vertex>> parts) {
  g_.toggleHadamardAcross(parts);
  std::size_t members = 0;
  for (const auto part : parts) {
    members += part.size();
  }
  for (const auto part : parts) {
    if (part.size() < members) { // some other part is nonempty
      for (const Vertex v : part) {
        markChanged(v);
      }
    }
  }
}

bool Simplifier::claimExpansion(const Vertex v, const std::uint64_t depth) {
  if (v >= expanded_.size()) {
    expanded_.resize(static_cast<std::size_t>(v) + 1, 0);
  }
  const std::uint64_t stamp = expansionEpoch_ + depth;
  if (expanded_[v] >= stamp) {
    return false;
  }
  expanded_[v] = stamp;
  return true;
}

void Simplifier::touchNeighborhood(const Vertex v) {
  if (!g_.isPresent(v) || !claimExpansion(v, 1)) {
    return;
  }
  worklist_.push(v);
  for (const auto& [w, mult] : g_.neighbors(v)) {
    worklist_.push(w);
  }
}

void Simplifier::touchNeighborhood2(const Vertex v) {
  if (!g_.isPresent(v) || !claimExpansion(v, 2)) {
    return;
  }
  worklist_.push(v);
  for (const auto& [w, mult] : g_.neighbors(v)) {
    touchNeighborhood(w);
  }
}

void Simplifier::normalizeVertex(const Vertex v) {
  const auto loops = g_.edge(v, v);
  if (loops.total() == 0) {
    return;
  }
  removeAllEdges(v, v);
  if (loops.hadamard % 2 == 1) {
    addPhase(v, PiRational::pi());
  }
}

void Simplifier::normalizePair(const Vertex u, const Vertex v) {
  if (u == v || !isInteriorZ(u) || !isInteriorZ(v)) {
    return;
  }
  const auto mult = g_.edge(u, v);
  // Parallel Hadamard edges between Z spiders cancel pairwise (Hopf law).
  for (int i = 0; i + 1 < mult.hadamard; i += 2) {
    removeEdge(u, v, EdgeType::Hadamard);
    removeEdge(u, v, EdgeType::Hadamard);
  }
}

void Simplifier::fuse(const Vertex u, const Vertex v) {
  addPhase(u, g_.phase(v));
  const auto vAdj = g_.neighbors(v); // copy
  for (const auto& [w, mult] : vAdj) {
    if (w == v) {
      for (int i = 0; i < mult.simple; ++i) {
        addEdge(u, u, EdgeType::Simple);
      }
      for (int i = 0; i < mult.hadamard; ++i) {
        addEdge(u, u, EdgeType::Hadamard);
      }
    } else if (w == u) {
      // One plain edge is consumed by the fusion; the rest become loops.
      for (int i = 0; i + 1 < mult.simple; ++i) {
        addEdge(u, u, EdgeType::Simple);
      }
      for (int i = 0; i < mult.hadamard; ++i) {
        addEdge(u, u, EdgeType::Hadamard);
      }
    } else {
      for (int i = 0; i < mult.simple; ++i) {
        addEdge(u, w, EdgeType::Simple);
      }
      for (int i = 0; i < mult.hadamard; ++i) {
        addEdge(u, w, EdgeType::Hadamard);
      }
    }
  }
  removeVertex(v);
  normalizeVertex(u);
  const auto uAdj = g_.neighbors(u); // copy for safe normalization
  for (const auto& [w, mult] : uAdj) {
    normalizePair(u, w);
  }
  // The merged vertex and everything it touches (including neighbors whose
  // parallel Hadamard pairs just cancelled) are fresh rule candidates.
  worklist_.push(u);
  for (const auto& [w, mult] : uAdj) {
    worklist_.push(w);
  }
  ++stats_.spiderFusions;
}

std::size_t Simplifier::trySpider(const Vertex v) {
  if (!isInteriorZ(v)) {
    return 0;
  }
  std::size_t applied = 0;
  bool fusedSomething = true;
  while (fusedSomething && g_.isPresent(v)) {
    fusedSomething = false;
    for (const auto& [w, mult] : g_.neighbors(v)) {
      if (w != v && mult.simple > 0 && isInteriorZ(w)) {
        fuse(v, w);
        ++applied;
        fusedSomething = true;
        break; // adjacency changed; restart neighbor scan
      }
    }
  }
  return applied;
}

std::size_t Simplifier::spiderSimp() {
  return runPass(SimplifyRule::Spider,
                 [this](const Vertex v) { return trySpider(v); });
}

void Simplifier::toGraphLike() {
  resetChangeTracking();
  for (const auto v : g_.vertices()) {
    if (!g_.isPresent(v) || g_.type(v) != VertexType::X) {
      continue;
    }
    const auto adj = g_.neighbors(v); // copy
    for (const auto& [w, mult] : adj) {
      if (w == v) {
        continue; // both loop endpoints toggle: type is unchanged
      }
      removeAllEdges(v, w);
      for (int i = 0; i < mult.hadamard; ++i) {
        addEdge(v, w, EdgeType::Simple);
      }
      for (int i = 0; i < mult.simple; ++i) {
        addEdge(v, w, EdgeType::Hadamard);
      }
    }
    setType(v, VertexType::Z);
  }
  for (const auto v : g_.vertices()) {
    if (isInteriorZ(v)) {
      normalizeVertex(v);
    }
  }
  spiderSimp();
  for (const auto v : g_.vertices()) {
    if (!isInteriorZ(v)) {
      continue;
    }
    const auto adj = g_.neighbors(v);
    for (const auto& [w, mult] : adj) {
      normalizePair(v, w);
    }
  }
}

std::size_t Simplifier::tryId(const Vertex v) {
  if (!isInteriorZ(v) || !g_.phase(v).isZero() ||
      g_.edge(v, v).total() != 0 || g_.degree(v) != 2) {
    return 0;
  }
  const auto& adj = g_.neighbors(v);
  if (adj.size() == 1) {
    // Both edges go to the same neighbor: removal leaves a self-loop.
    const Vertex w = adj.front().vertex;
    const auto mult = adj.front().edges;
    if (g_.isBoundary(w)) {
      return 0; // malformed boundary; leave untouched
    }
    const bool loopIsHadamard = (mult.hadamard % 2) == 1;
    removeVertex(v);
    if (loopIsHadamard) {
      addPhase(w, PiRational::pi());
    }
    ++stats_.idRemovals;
    touchNeighborhood(w);
    return 1;
  }
  const Vertex w1 = adj[0].vertex;
  const Vertex w2 = adj[1].vertex;
  const bool h1 = adj[0].edges.hadamard == 1;
  const bool h2 = adj[1].edges.hadamard == 1;
  removeVertex(v);
  const EdgeType combined = (h1 != h2) ? EdgeType::Hadamard
                                       : EdgeType::Simple;
  addEdge(w1, w2, combined);
  ++stats_.idRemovals;
  if (isInteriorZ(w1) && isInteriorZ(w2)) {
    if (g_.edge(w1, w2).simple > 0) {
      fuse(w1, w2);
    } else {
      normalizePair(w1, w2);
    }
  }
  touchNeighborhood(w1);
  touchNeighborhood(w2);
  return 1;
}

std::size_t Simplifier::idSimp() {
  return runPass(SimplifyRule::Id,
                 [this](const Vertex v) { return tryId(v); });
}

std::size_t Simplifier::tryLcomp(const Vertex v) {
  if (!isInteriorZ(v) || !g_.phase(v).isProperClifford() ||
      g_.edge(v, v).total() != 0 || !allNeighborsInteriorViaHadamard(v)) {
    return 0;
  }
  auto& neighborhood = neighborhood_;
  neighborhood.clear();
  for (const auto& [w, mult] : g_.neighbors(v)) {
    neighborhood.push_back(w);
  }
  const PiRational delta = -g_.phase(v);
  removeVertex(v);
  singletons_.clear();
  for (const Vertex& w : neighborhood) {
    singletons_.emplace_back(&w, 1);
  }
  toggleHadamardAcross(singletons_);
  for (const auto w : neighborhood) {
    addPhase(w, delta);
  }
  for (const auto w : neighborhood) {
    touchNeighborhood(w);
  }
  ++stats_.localComplementations;
  return 1;
}

std::size_t Simplifier::lcompSimp() {
  return runPass(SimplifyRule::Lcomp,
                 [this](const Vertex v) { return tryLcomp(v); });
}

void Simplifier::pivot(const Vertex u, const Vertex v, const int touchDepth) {
  auto& [exclusiveU, exclusiveV, common] = pivotParts_;
  exclusiveU.clear();
  exclusiveV.clear();
  common.clear();
  for (const auto& [w, mult] : g_.neighbors(u)) {
    if (w == v) {
      continue;
    }
    if (g_.connected(v, w)) {
      common.push_back(w);
    } else {
      exclusiveU.push_back(w);
    }
  }
  for (const auto& [w, mult] : g_.neighbors(v)) {
    if (w != u && !g_.connected(u, w)) {
      exclusiveV.push_back(w);
    }
  }
  const PiRational pu = g_.phase(u);
  const PiRational pv = g_.phase(v);
  removeVertex(u);
  removeVertex(v);
  const std::array<std::span<const Vertex>, 3> parts = {exclusiveU, exclusiveV,
                                                        common};
  toggleHadamardAcross(parts);
  for (const auto a : exclusiveU) {
    addPhase(a, pv);
  }
  for (const auto b : exclusiveV) {
    addPhase(b, pu);
  }
  for (const auto c : common) {
    addPhase(c, pu + pv + PiRational::pi());
  }
  // Everything whose edges or phase changed — and its neighbors, whose
  // match status can depend on those phases and edges — goes back on the
  // worklist.
  const auto touch = [this, touchDepth](const Vertex x) {
    if (touchDepth >= 2) {
      touchNeighborhood2(x);
    } else {
      touchNeighborhood(x);
    }
  };
  for (const auto a : exclusiveU) {
    touch(a);
  }
  for (const auto b : exclusiveV) {
    touch(b);
  }
  for (const auto c : common) {
    touch(c);
  }
}

std::size_t Simplifier::tryPivot(const Vertex u) {
  if (!isInteriorZ(u) || !g_.phase(u).isPauli() ||
      !allNeighborsInteriorViaHadamard(u)) {
    return 0;
  }
  for (const auto& [v, mult] : g_.neighbors(u)) {
    if (mult.hadamard != 1 || !g_.phase(v).isPauli() ||
        !allNeighborsInteriorViaHadamard(v)) {
      continue;
    }
    pivot(u, v);
    ++stats_.pivots;
    return 1; // u is gone; adjacency iterators are invalid
  }
  return 0;
}

std::size_t Simplifier::pivotSimp() {
  return runPass(SimplifyRule::Pivot,
                 [this](const Vertex u) { return tryPivot(u); });
}

void Simplifier::gadgetize(const Vertex v) {
  const Vertex hub = addVertex(VertexType::Z);
  const Vertex leaf = addVertex(VertexType::Z, g_.phase(v));
  addEdge(v, hub, EdgeType::Hadamard);
  addEdge(hub, leaf, EdgeType::Hadamard);
  setPhase(v, PiRational{});
  worklist_.push(v);
  worklist_.push(hub);
  worklist_.push(leaf);
}

std::size_t Simplifier::tryPivotGadget(const Vertex u) {
  // Termination: each rewrite keeps the spider count constant but strictly
  // decreases the number of non-Pauli spiders of degree >= 2 — provided the
  // pivot cannot grow an existing gadget leaf's degree, hence the
  // no-leaf-neighbor guard on both pivot vertices.
  const auto hasLeafNeighbor = [this](const Vertex x) {
    for (const auto& [w, mult] : g_.neighbors(x)) {
      if (!g_.isBoundary(w) && g_.degree(w) == 1) {
        return true;
      }
    }
    return false;
  };
  if (!isInteriorZ(u) || !g_.phase(u).isPauli() ||
      !allNeighborsInteriorViaHadamard(u) || hasLeafNeighbor(u)) {
    return 0;
  }
  for (const auto& [v, mult] : g_.neighbors(u)) {
    if (mult.hadamard != 1 || g_.phase(v).isPauli() || g_.degree(v) < 2 ||
        !allNeighborsInteriorViaHadamard(v) || hasLeafNeighbor(v)) {
      continue;
    }
    gadgetize(v);
    pivot(u, v, 2);
    ++stats_.gadgetPivots;
    return 1; // u is gone; adjacency iterators are invalid
  }
  return 0;
}

std::size_t Simplifier::pivotGadgetSimp() {
  return runPass(SimplifyRule::PivotGadget,
                 [this](const Vertex u) { return tryPivotGadget(u); });
}

void Simplifier::unfuseBoundary(const Vertex b, const Vertex v) {
  const auto mult = g_.edge(b, v);
  const EdgeType original =
      mult.hadamard > 0 ? EdgeType::Hadamard : EdgeType::Simple;
  removeEdge(b, v, original);
  const Vertex w = addVertex(VertexType::Z);
  addEdge(b, w,
             original == EdgeType::Simple ? EdgeType::Hadamard
                                          : EdgeType::Simple);
  addEdge(w, v, EdgeType::Hadamard);
  worklist_.push(v);
  worklist_.push(w);
}

std::size_t Simplifier::tryPivotBoundary(const Vertex u) {
  // Termination measure: each rewrite removes one interior Pauli spider (u)
  // with no boundary contact, and only adds boundary-adjacent phase-0
  // spiders — so u must be strictly interior, v carries the boundary edges.
  if (!isInteriorZ(u) || !g_.phase(u).isPauli() ||
      !allNeighborsInteriorViaHadamard(u)) {
    return 0;
  }
  for (const auto& [v, mult] : g_.neighbors(u)) {
    if (mult.hadamard != 1 || !g_.phase(v).isPauli() ||
        !allEdgesHadamardToSpiders(v)) {
      continue;
    }
    std::vector<Vertex> boundaries;
    for (const auto& [w, m2] : g_.neighbors(v)) {
      if (g_.isBoundary(w)) {
        boundaries.push_back(w);
      }
    }
    if (boundaries.empty()) {
      continue; // plain pivotSimp covers the fully interior case
    }
    for (const auto b : boundaries) {
      unfuseBoundary(b, v);
    }
    pivot(u, v, 2);
    ++stats_.boundaryPivots;
    return 1; // u is gone; adjacency iterators are invalid
  }
  return 0;
}

std::size_t Simplifier::pivotBoundarySimp() {
  return runPass(SimplifyRule::PivotBoundary,
                 [this](const Vertex u) { return tryPivotBoundary(u); });
}

std::size_t Simplifier::gadgetSimp() {
  // Gadgets keyed by the hub's neighborhood (excluding the leaf); the flat
  // adjacency is sorted, so keys come out canonical without extra sorting.
  // Entries persist across the whole pass and are validated lazily on hit:
  // a fusion only perturbs hubs adjacent to the removed hub, whose leaves
  // get re-enqueued and re-registered.
  std::map<std::vector<Vertex>, std::pair<Vertex, Vertex>> seen;
  const auto gadgetKey =
      [this](const Vertex hub,
             const Vertex leaf) -> std::optional<std::vector<Vertex>> {
    std::vector<Vertex> key;
    for (const auto& [w, mult] : g_.neighbors(hub)) {
      if (w == leaf) {
        continue;
      }
      if (mult.hadamard != 1 || mult.simple != 0) {
        return std::nullopt;
      }
      key.push_back(w);
    }
    if (key.empty()) {
      return std::nullopt;
    }
    return key;
  };
  return runPass(
      SimplifyRule::Gadget, [this, &seen, &gadgetKey](const Vertex leaf) {
        if (!isInteriorZ(leaf) || g_.degree(leaf) != 1) {
          return std::size_t{0};
        }
        const auto& adj = g_.neighbors(leaf);
        const Vertex hub = adj.front().vertex;
        if (adj.front().edges.hadamard != 1 || !isInteriorZ(hub) ||
            !g_.phase(hub).isZero()) {
          return std::size_t{0};
        }
        const auto key = gadgetKey(hub, leaf);
        if (!key) {
          return std::size_t{0};
        }
        const auto it = seen.find(*key);
        if (it == seen.end()) {
          seen.emplace(*key, std::pair{hub, leaf});
          return std::size_t{0};
        }
        const auto [hub0, leaf0] = it->second;
        if (hub0 == hub) {
          return std::size_t{0}; // two leaves on one hub; other rules apply
        }
        const bool stillGadget =
            g_.isPresent(hub0) && g_.isPresent(leaf0) && isInteriorZ(leaf0) &&
            g_.degree(leaf0) == 1 && g_.edge(leaf0, hub0).hadamard == 1 &&
            isInteriorZ(hub0) && g_.phase(hub0).isZero() &&
            gadgetKey(hub0, leaf0) == key;
        if (!stillGadget) {
          it->second = {hub, leaf};
          return std::size_t{0};
        }
        addPhase(leaf0, g_.phase(leaf));
        const auto hubAdj = g_.neighbors(hub); // copy: removal invalidates
        removeVertex(leaf);
        removeVertex(hub);
        for (const auto& [w, mult] : hubAdj) {
          if (w != leaf) {
            touchNeighborhood(w);
          }
        }
        ++stats_.gadgetFusions;
        return std::size_t{1};
      });
}

std::size_t Simplifier::interiorCliffordSimp() {
  spiderSimp();
  std::size_t total = 0;
  while (!stopping()) {
    std::size_t round = 0;
    round += idSimp();
    round += spiderSimp();
    round += pivotSimp();
    round += lcompSimp();
    if (round == 0) {
      break;
    }
    total += round;
  }
  return total;
}

std::size_t Simplifier::cliffordSimp() {
  std::size_t total = 0;
  while (!stopping()) {
    total += interiorCliffordSimp();
    const auto boundary = pivotBoundarySimp();
    total += boundary;
    if (boundary == 0) {
      break;
    }
  }
  return total;
}

bool Simplifier::fullReduce() {
  toGraphLike();
  interiorCliffordSimp();
  if (!options_.gadgetRules) {
    // Clifford-only mode: stop at the cliffordSimp fixed point.
    cliffordSimp();
    return !stopping();
  }
  pivotGadgetSimp();
  while (!stopping()) {
    cliffordSimp();
    const auto i = gadgetSimp();
    interiorCliffordSimp();
    const auto j = pivotGadgetSimp();
    if (i + j == 0) {
      break;
    }
  }
  return !stopping();
}

bool fullReduce(ZXDiagram& diagram, std::function<bool()> shouldStop,
                SimplifierOptions options) {
  Simplifier simplifier(diagram, std::move(shouldStop), options);
  return simplifier.fullReduce();
}

std::optional<Permutation> extractWirePermutation(const ZXDiagram& diagram) {
  if (diagram.spiderCount() != 0 ||
      diagram.inputs().size() != diagram.outputs().size()) {
    return std::nullopt;
  }
  std::map<Vertex, Qubit> outputIndex;
  for (Qubit i = 0; i < diagram.outputs().size(); ++i) {
    outputIndex[diagram.outputs()[i]] = i;
  }
  std::vector<Qubit> perm(diagram.inputs().size());
  for (Qubit i = 0; i < diagram.inputs().size(); ++i) {
    const Vertex in = diagram.inputs()[i];
    const auto& adj = diagram.neighbors(in);
    if (adj.size() != 1 || adj.front().edges.simple != 1 ||
        adj.front().edges.hadamard != 0) {
      return std::nullopt;
    }
    const auto it = outputIndex.find(adj.front().vertex);
    if (it == outputIndex.end()) {
      return std::nullopt;
    }
    perm[i] = it->second;
  }
  Permutation result{perm};
  if (!result.isValid()) {
    return std::nullopt;
  }
  return result;
}

} // namespace veriqc::zx

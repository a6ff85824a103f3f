/// \file simplify.hpp
/// \brief Graph-like ZX-diagram simplification (Duncan et al., "Graph-
///        theoretic simplification of quantum circuits with the ZX-calculus",
///        plus the phase-gadget rules of Kissinger & van de Wetering).
///
/// All rewrites preserve the linear map up to a nonzero global scalar, which
/// is exactly the invariance needed for equivalence checking up to global
/// phase.
///
/// Scheduling is worklist-driven: each rule pass seeds a candidate queue
/// once and every rewrite re-enqueues only the touched vertex
/// neighborhoods. Candidates are processed in ascending-id rounds, which
/// reproduces the rewrite order (and therefore the SimplifyStats counts) of
/// the previous scan-based engine.
///
/// Seeding is incremental. A drained pass leaves no match for its rule, so
/// the rule's next pass seeds only the live vertices within its read radius
/// of a vertex changed since then (tracked by a per-vertex change mask);
/// only the first pass of each rule after fullReduce()/toGraphLike() seeds
/// every live vertex. A later pass thus costs the size of the changed
/// neighborhoods plus the work done, not O(diagram); in exchange the diagram
/// must only be mutated through the simplifier between its passes.
///
/// A rewrite does each piece of bookkeeping once. Every rule body finishes
/// its mutations before it re-enqueues anything, and the worklist's scan
/// position only moves between candidates, so re-enqueueing a vertex's
/// neighborhood a second time for the same candidate queues nothing new:
/// each vertex is expanded at most once per candidate and depth. Degrees are
/// stored by the diagram, and a pivot or local complementation toggles its
/// Hadamard edges with one merge per adjacency row.
#pragma once

#include "ir/permutation.hpp"
#include "zx/diagram.hpp"

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace veriqc::zx {

/// Rule families of the simplifier, used to index per-rule statistics.
enum class SimplifyRule : std::uint8_t {
  Spider,        ///< spider fusion
  Id,            ///< identity (phase-free arity-2 spider) removal
  Lcomp,         ///< local complementation
  Pivot,         ///< interior Pauli-Pauli pivot
  PivotGadget,   ///< pivot after gadgetizing the non-Pauli partner
  PivotBoundary, ///< pivot next to the boundary
  Gadget,        ///< phase-gadget fusion
};
inline constexpr std::size_t kSimplifyRuleCount = 7;
inline constexpr std::array<const char*, kSimplifyRuleCount>
    kSimplifyRuleNames = {"spider",      "id",          "lcomp", "pivot",
                          "pivotGadget", "pivotBound",  "gadget"};

/// Observability counters for one rule family.
struct RuleStats {
  std::size_t candidates = 0; ///< worklist entries examined
  std::size_t matches = 0;    ///< candidates where the rule pattern matched
  std::size_t rewrites = 0;   ///< rewrites applied (cascades count each)
  double seconds = 0.0;       ///< wall time spent inside the pass
};

/// Rewrite counts per rule family.
struct SimplifyStats {
  std::size_t spiderFusions = 0;
  std::size_t idRemovals = 0;
  std::size_t localComplementations = 0;
  std::size_t pivots = 0;
  std::size_t gadgetPivots = 0;
  std::size_t boundaryPivots = 0;
  std::size_t gadgetFusions = 0;

  /// Per-rule scheduler counters, indexed by SimplifyRule.
  std::array<RuleStats, kSimplifyRuleCount> rules{};

  [[nodiscard]] std::size_t total() const noexcept {
    return spiderFusions + idRemovals + localComplementations + pivots +
           gadgetPivots + boundaryPivots + gadgetFusions;
  }

  /// Wall time summed over all passes.
  [[nodiscard]] double totalSeconds() const noexcept;

  /// One rule family's counters together with its name, for structured
  /// export into run records.
  struct NamedRuleStats {
    const char* rule;
    RuleStats stats;
  };

  /// The rule families that examined at least one candidate, in SimplifyRule
  /// order; empty if nothing ran. This is the machine-readable form the
  /// checker layer records — digest() renders the same data as text.
  [[nodiscard]] std::vector<NamedRuleStats> activeRules() const;

  /// Compact per-rule digest ("spider r12/m8/c40 0.1ms; ...") listing only
  /// rules that examined at least one candidate; empty if nothing ran.
  [[nodiscard]] std::string digest() const;
};

/// Tuning knobs for the simplifier, threaded from check::Configuration.
struct SimplifierOptions {
  /// Apply the non-Clifford phase-gadget rule families (gadget pivoting and
  /// phase-gadget fusion) in fullReduce. When false, fullReduce stops at the
  /// Clifford fixed point (cliffordSimp) — still sound, possibly weaker.
  bool gadgetRules = true;
  /// Resource budget: live diagram vertices (0 = unlimited). Checked at the
  /// start of every worklist pass and at a throttle while draining it
  /// (vertexCount() is O(1)); rewrites that grow the diagram — gadgetizing
  /// pivots, boundary unfusions — trip it instead of exhausting memory.
  /// \throws ResourceLimitError from the simplification entry points.
  std::size_t maxVertices = 0;
};

/// Stateful simplifier bound to one diagram. The optional `shouldStop`
/// callback is polled between rewrites; when it returns true the current
/// pass returns early (used for timeouts and sibling-engine cancellation).
class Simplifier {
public:
  explicit Simplifier(ZXDiagram& diagram,
                      std::function<bool()> shouldStop = {},
                      SimplifierOptions options = {});

  /// Turn the diagram graph-like: X spiders become Z spiders (toggling their
  /// edges), adjacent Z spiders connected by plain wires fuse, parallel
  /// Hadamard edges cancel modulo 2 and self-loops are resolved.
  void toGraphLike();

  /// Fuse all plain-wire-connected Z spider pairs. Returns #fusions.
  std::size_t spiderSimp();
  /// Remove phase-free arity-2 spiders. Returns #removals.
  std::size_t idSimp();
  /// Local complementation on +-pi/2 interior spiders. Returns #rewrites.
  std::size_t lcompSimp();
  /// Pivoting about interior Pauli-Pauli edges. Returns #rewrites.
  std::size_t pivotSimp();
  /// Pivoting where the non-Pauli partner is first turned into a phase
  /// gadget. Returns #rewrites.
  std::size_t pivotGadgetSimp();
  /// Pivoting next to the boundary (boundary wires are unfused first).
  std::size_t pivotBoundarySimp();
  /// Fuse phase gadgets with identical connectivity. Returns #fusions.
  std::size_t gadgetSimp();

  /// spider/id/lcomp/pivot to fixpoint (after toGraphLike).
  std::size_t interiorCliffordSimp();
  /// interiorCliffordSimp + boundary pivots to fixpoint.
  std::size_t cliffordSimp();
  /// The full_reduce strategy used for equivalence checking.
  /// \returns false when aborted by shouldStop.
  bool fullReduce();

  [[nodiscard]] const SimplifyStats& stats() const noexcept { return stats_; }

  /// Candidate queue that replays the rewrite order of a full ascending-id
  /// rescan loop exactly: candidates drain in ascending id within a sweep, a
  /// re-enqueued candidate above the current scan position joins the current
  /// sweep (a rescan would still reach it), and one at or below the position
  /// waits for the next sweep (a rescan would only see it on the next
  /// iteration). Each sweep is a bitset over vertex ids, so membership,
  /// deduplication and the ascending order come from the bits themselves.
  /// Stale entries (vertices removed after being queued) are filtered by the
  /// rule matchers via isPresent. Public so the audit layer can validate the
  /// sweep invariant; only Simplifier mutates it during simplification.
  class Worklist {
  public:
    /// Start a fresh pass seeded with every live vertex.
    void reset(const ZXDiagram& g);
    /// Start a fresh, empty pass sized for g; push() seeds it.
    void restart(const ZXDiagram& g);
    /// Queue v unless it is pending. Returns true if v was newly queued.
    bool push(Vertex v);
    [[nodiscard]] bool empty() const noexcept {
      return sweepCount_ == 0 && nextCount_ == 0;
    }
    /// The lowest-id vertex of the current sweep, after moving to the next
    /// sweep if the current one is drained. Requires !empty().
    Vertex pop();

    /// Validates the sweep invariant: the two sweeps are disjoint, every
    /// current-sweep vertex lies above the scan position, and each count
    /// equals its sweep's popcount. Returns human-readable descriptions of
    /// all violations (empty when clean).
    [[nodiscard]] std::vector<std::string> checkInvariant() const;

  private:
    friend struct WorklistTestAccess; ///< mutation tests corrupt state here

    /// Bit v of word v / 64 is set iff v is queued in that sweep; both
    /// bitsets always have the same length.
    std::vector<std::uint64_t> sweep_;
    std::vector<std::uint64_t> nextSweep_;
    /// Number of set bits in sweep_ and nextSweep_.
    std::size_t sweepCount_ = 0;
    std::size_t nextCount_ = 0;
    /// Id of the last vertex popped this sweep (-1 at sweep start).
    std::int64_t position_ = -1;
  };

  /// The simplifier's worklist (read-only; for the audit layer).
  [[nodiscard]] const Worklist& worklist() const noexcept { return worklist_; }

  /// Which vertices changed since each incremental rule last drained a
  /// pass: one byte per vertex, one bit per rule (bit i = SimplifyRule i),
  /// plus the list of vertices whose byte is nonzero, so the state stays
  /// O(vertices) however long a reduction runs. Public so the audit layer
  /// can validate the byte/list invariant; only Simplifier mutates it.
  class ChangeMask {
  public:
    /// Set `rules` on v (a no-op for an empty rule set).
    void mark(Vertex v, std::uint8_t rules);
    /// Clear `rules` on every vertex, unlisting vertices left with none.
    void clear(std::uint8_t rules);
    /// Clear every bit.
    void reset();
    [[nodiscard]] const std::vector<Vertex>& listed() const noexcept {
      return listed_;
    }
    [[nodiscard]] std::uint8_t rules(Vertex v) const noexcept {
      return v < bits_.size() ? bits_[v] : 0;
    }

    /// Validates that every vertex with a nonzero byte is listed exactly
    /// once and that no listed vertex has a zero byte. Returns
    /// human-readable descriptions of all violations (empty when clean).
    [[nodiscard]] std::vector<std::string> checkInvariant() const;

  private:
    friend struct ChangeMaskTestAccess; ///< mutation tests corrupt state here

    std::vector<std::uint8_t> bits_;
    std::vector<Vertex> listed_;
  };

  /// The simplifier's change mask (read-only; for the audit layer).
  [[nodiscard]] const ChangeMask& changeMask() const noexcept {
    return changes_;
  }

private:
  friend struct SimplifierTestAccess; ///< tests drive tracked mutations

  [[nodiscard]] bool stopping() const { return shouldStop_ && shouldStop_(); }
  /// \throws ResourceLimitError when the configured vertex budget is
  /// exceeded (no-op for the default unlimited budget).
  void enforceVertexBudget() const;
  [[nodiscard]] bool isInterior(Vertex v) const;
  [[nodiscard]] bool isInteriorZ(Vertex v) const;
  /// All incident edges are single Hadamard edges to interior Z spiders.
  [[nodiscard]] bool allNeighborsInteriorViaHadamard(Vertex v) const;
  /// All incident edges are Hadamard (neighbors may include boundaries).
  [[nodiscard]] bool allEdgesHadamardToSpiders(Vertex v) const;

  /// Run one worklist pass: seed, drain, let `tryRule` apply rewrites at
  /// each candidate (returning how many it applied) and re-enqueue what it
  /// touched. Returns the total rewrites applied.
  template <typename TryRule>
  std::size_t runPass(SimplifyRule rule, TryRule&& tryRule);
  /// Seed the worklist with the live vertices within the rule's read radius
  /// of a vertex changed since the rule last drained a pass.
  void seedChanged(SimplifyRule rule);
  /// Forget all change tracking: every rule's next pass seeds every vertex.
  void resetChangeTracking();

  // Diagram mutations. Every rewrite goes through these, so the change mask
  // sees each vertex whose phase, adjacency row or presence changed.
  Vertex addVertex(VertexType type, PiRational phase = {});
  void addEdge(Vertex u, Vertex v, EdgeType type);
  void removeEdge(Vertex u, Vertex v, EdgeType type);
  void removeAllEdges(Vertex u, Vertex v);
  /// Marks v's neighbors, whose adjacency rows lose v.
  void removeVertex(Vertex v);
  void addPhase(Vertex v, const PiRational& delta);
  void setPhase(Vertex v, PiRational phase);
  void setType(Vertex v, VertexType type);
  /// ZXDiagram::toggleHadamardAcross, marking each vertex that gained or
  /// lost an edge.
  void toggleHadamardAcross(std::span<const std::span<const Vertex>> parts);
  /// Record a change at v for every rule whose mask is live.
  void markChanged(const Vertex v) { changes_.mark(v, atFixpoint_); }

  /// Record that v is expanded to `depth` hops for the current candidate.
  /// Returns false if it already was, to at least that depth: the expansion
  /// would only re-queue vertices that are still pending.
  bool claimExpansion(Vertex v, std::uint64_t depth);
  /// Re-enqueue v (if still present) and all its current neighbors, unless
  /// the current candidate already did.
  void touchNeighborhood(Vertex v);
  /// Re-enqueue v's 2-hop neighborhood, unless the current candidate already
  /// did. Needed by the pivot variants whose candidacy inspects neighbor
  /// degrees (hasLeafNeighbor): a changed edge endpoint sits up to two hops
  /// from candidates it re-enables. Only call it, like touchNeighborhood,
  /// after the candidate's last mutation: the expansion is skipped on the
  /// assumption that the rows it would read have not changed since.
  void touchNeighborhood2(Vertex v);

  // Per-candidate rule bodies; each returns the number of rewrites applied
  // at the candidate and re-enqueues the touched neighborhoods.
  std::size_t trySpider(Vertex v);
  std::size_t tryId(Vertex v);
  std::size_t tryLcomp(Vertex v);
  std::size_t tryPivot(Vertex u);
  std::size_t tryPivotGadget(Vertex u);
  std::size_t tryPivotBoundary(Vertex u);

  /// Resolve self-loops on v (plain loops vanish; each Hadamard loop adds pi).
  void normalizeVertex(Vertex v);
  /// Cancel parallel Hadamard edges mod 2 between two Z spiders.
  void normalizePair(Vertex u, Vertex v);
  /// Fuse v into u (requires a plain edge between two Z spiders).
  void fuse(Vertex u, Vertex v);
  /// Core pivot about the Hadamard edge (u, v); preconditions checked by the
  /// callers. Touched neighborhoods are re-enqueued to the given depth
  /// (1 hop for the plain pivot, 2 hops for the leaf-guarded variants).
  void pivot(Vertex u, Vertex v, int touchDepth = 1);
  /// Split v's phase into a fresh phase gadget hanging off v.
  void gadgetize(Vertex v);
  /// Insert an identity-pair spider on the boundary edge (b, v) so that v
  /// becomes interior-compatible.
  void unfuseBoundary(Vertex b, Vertex v);

  ZXDiagram& g_;
  std::function<bool()> shouldStop_;
  SimplifierOptions options_;
  SimplifyStats stats_;
  Worklist worklist_;
  ChangeMask changes_;
  /// Rules (as SimplifyRule bits) that drained a pass since the last
  /// resetChangeTracking(): only their next passes seed incrementally, and
  /// only their bits are recorded in changes_.
  std::uint8_t atFixpoint_ = 0;
  /// Scratch for seedChanged(): the seeds in breadth-first order, kept to
  /// reuse its capacity.
  std::vector<Vertex> seeds_;
  /// v was expanded to depth d for the current candidate iff
  /// expanded_[v] == expansionEpoch_ + d; runPass advances the epoch by the
  /// deepest touch depth per candidate, which forgets every expansion.
  std::vector<std::uint64_t> expanded_;
  std::uint64_t expansionEpoch_ = 0;
  /// Scratch for the rule bodies, kept to reuse its capacity: the pivot's
  /// exclusive and common neighbor parts, and lcomp's neighborhood with one
  /// singleton part per neighbor.
  std::array<std::vector<Vertex>, 3> pivotParts_;
  std::vector<Vertex> neighborhood_;
  std::vector<std::span<const Vertex>> singletons_;
};

/// Convenience: full_reduce a diagram in place. Returns false on timeout.
bool fullReduce(ZXDiagram& diagram, std::function<bool()> shouldStop = {},
                SimplifierOptions options = {});

/// If the diagram is nothing but boundary vertices pairwise connected by
/// single plain wires, return the permutation p with output p(i) connected
/// to input i; otherwise std::nullopt (spiders remain, or Hadamard wires).
[[nodiscard]] std::optional<Permutation>
extractWirePermutation(const ZXDiagram& diagram);

} // namespace veriqc::zx

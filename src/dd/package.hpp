/// \file package.hpp
/// \brief The decision-diagram package: canonical QMDD construction and
///        manipulation for quantum functionality (Sec. 4 of the paper).
///
/// Nodes live in per-level slab stores (`NodeSlab`) and are referenced by
/// 32-bit `NodeIndex` handles; see node.hpp for the handle invariants. Edges
/// returned by package operations stay valid until the nodes they reference
/// are reclaimed (GC of unreferenced nodes, or eager `release`).
#pragma once

#include "dd/compute_table.hpp"
#include "dd/node.hpp"
#include "dd/real_table.hpp"
#include "dd/unique_table.hpp"
#include "ir/gate_matrix.hpp"
#include "ir/operation.hpp"
#include "ir/permutation.hpp"
#include "obs/counters.hpp"

#include <complex>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <set>
#include <span>
#include <unordered_map>
#include <vector>

namespace veriqc::dd {

/// Initial (and minimum) live-node threshold that triggers garbage
/// collection; the threshold then adapts to twice the surviving node count.
inline constexpr std::size_t kGcInitialThreshold = 65536;

/// Sizing knobs of a package's caches. The defaults match the tuned hot-path
/// configuration; tests shrink them to exercise collision and eviction paths.
struct PackageConfig {
  /// Entries per binary compute table (multiply, add, inner product);
  /// rounded up to a power of two.
  std::size_t computeTableEntries = 1U << 16U;
  /// Entries per unary compute table (conjugate-transpose, trace).
  std::size_t unaryTableEntries = 1U << 14U;
  /// Gate-DD cache entries before the cache is flushed wholesale.
  std::size_t gateCacheMaxEntries = 4096;
  /// Initial live-node threshold for garbage collection.
  std::size_t gcInitialThreshold = kGcInitialThreshold;
  /// Resource budget: live nodes this package may hold (0 = unlimited).
  /// Checked at every garbageCollect() call; when a forced collection
  /// cannot get back under the budget, a ResourceLimitError is thrown so
  /// the owning engine aborts cooperatively instead of exhausting memory.
  std::size_t maxNodes = 0;
  /// Resource budget: process peak resident set size in MB (0 = unlimited).
  /// Polled via getrusage at a throttle from garbageCollect(); note the
  /// watermark is process-wide and never decreases.
  std::size_t maxMemoryMB = 0;
};

/// Aggregate statistics of a package instance.
struct PackageStats {
  std::size_t matrixNodes = 0;   ///< live unique matrix nodes
  std::size_t vectorNodes = 0;   ///< live unique vector nodes
  std::size_t allocations = 0;   ///< total node slots ever materialised
  std::size_t gcRuns = 0;        ///< garbage collections performed
  std::size_t realNumbers = 0;   ///< interned canonical reals
  std::size_t peakMatrixNodes = 0;
  std::size_t gcThreshold = 0;   ///< current adaptive GC trigger
  std::size_t releasedNodes = 0; ///< nodes reclaimed eagerly via release()

  /// Slab-store metrics summed over all levels (probe lengths, occupancy,
  /// growth events); split by diagram kind.
  NodeStoreStats matrixStore;
  NodeStoreStats vectorStore;

  // Per-cache hit/miss/collision counters.
  CacheStats multiply;
  CacheStats multiplyVector;
  CacheStats add;
  CacheStats addVector;
  CacheStats conjugateTranspose;
  CacheStats trace;
  CacheStats innerProduct;
  CacheStats gateCache;          ///< the gate-DD construction cache
  std::size_t gateCacheEntries = 0; ///< currently cached gate DDs

  /// Sum over all seven compute tables (excludes the gate-DD cache).
  [[nodiscard]] CacheStats computeTotal() const noexcept {
    CacheStats total;
    total += multiply;
    total += multiplyVector;
    total += add;
    total += addVector;
    total += conjugateTranspose;
    total += trace;
    total += innerProduct;
    return total;
  }

  /// Slab-store metrics summed over both diagram kinds.
  [[nodiscard]] NodeStoreStats storeTotal() const noexcept {
    NodeStoreStats total;
    total += matrixStore;
    total += vectorStore;
    return total;
  }
};

/// One package instance owns all nodes, slab stores and caches for a fixed
/// number of qubits. It is deliberately single-threaded; concurrent checkers
/// each use their own instance.
class Package {
public:
  explicit Package(std::size_t nqubits,
                   double tolerance = RealTable::kDefaultTolerance,
                   const PackageConfig& config = {});

  ~Package();
  Package(const Package&) = delete;
  Package& operator=(const Package&) = delete;

  [[nodiscard]] std::size_t numQubits() const noexcept { return nqubits_; }
  [[nodiscard]] double tolerance() const noexcept { return reals_.tolerance(); }

  // --- canonical building blocks -------------------------------------------
  [[nodiscard]] mEdge zeroMatrix() const noexcept {
    return {kTerminalIndex, {0.0, 0.0}};
  }
  [[nodiscard]] vEdge zeroVectorEdge() const noexcept {
    return {kTerminalIndex, {0.0, 0.0}};
  }
  [[nodiscard]] mEdge oneMatrixScalar() const noexcept {
    return {kTerminalIndex, {1.0, 0.0}};
  }

  /// The identity on all `numQubits()` qubits (a linear-size chain, Fig. 3b).
  [[nodiscard]] mEdge makeIdent();

  /// Canonical (normalized, interned, unique) matrix node.
  mEdge makeMatrixNode(Level v, const std::array<mEdge, 4>& children);
  /// Canonical vector node.
  vEdge makeVectorNode(Level v, const std::array<vEdge, 2>& children);

  /// DD of a (multi-)controlled single-qubit gate. Results are memoized in
  /// the gate-DD cache keyed on the tolerance-quantized matrix, the control
  /// set and the target level, so repeated gates are built once.
  mEdge makeGateDD(const GateMatrix& matrix, std::span<const Qubit> controls,
                   Qubit target);

  /// DD of a (controlled) SWAP via the three-CNOT construction (memoized).
  mEdge makeSwapDD(Qubit a, Qubit b, std::span<const Qubit> controls = {});

  /// DD of an arbitrary circuit operation; qubits are relabeled through
  /// `perm` (wire -> DD level), enabling permutation-tracked application.
  /// Barrier/Measure yield the identity. Throws on unsupported types.
  mEdge makeOperationDD(const Operation& op, const Permutation& perm);
  mEdge makeOperationDD(const Operation& op);

  /// |0...0> over all qubits.
  vEdge makeZeroState();
  /// Computational basis state |bits> (bits[q] for qubit q).
  vEdge makeBasisState(const std::vector<bool>& bits);

  // --- operations -----------------------------------------------------------
  [[nodiscard]] mEdge multiply(const mEdge& x, const mEdge& y);
  [[nodiscard]] vEdge multiply(const mEdge& m, const vEdge& v);
  [[nodiscard]] mEdge add(const mEdge& x, const mEdge& y);
  [[nodiscard]] vEdge add(const vEdge& x, const vEdge& y);
  [[nodiscard]] mEdge conjugateTranspose(const mEdge& x);
  [[nodiscard]] std::complex<double> trace(const mEdge& x);
  [[nodiscard]] std::complex<double> innerProduct(const vEdge& x,
                                                  const vEdge& y);
  /// |<x|y>|^2
  [[nodiscard]] double fidelity(const vEdge& x, const vEdge& y);

  /// Entry U[row][col] of the represented matrix (for tests/export).
  [[nodiscard]] std::complex<double> getEntry(const mEdge& x, std::size_t row,
                                              std::size_t col) const;
  /// Amplitude <index|x>.
  [[nodiscard]] std::complex<double> getAmplitude(const vEdge& x,
                                                  std::size_t index) const;

  // --- equivalence-oriented queries ------------------------------------------
  /// |tr(E)| / 2^n: equals 1 iff E is the identity up to global phase.
  [[nodiscard]] double traceFidelity(const mEdge& e);
  /// Structural check against the cached identity (exact node identity),
  /// falling back to the Hilbert-Schmidt criterion with `checkTol`.
  [[nodiscard]] bool isIdentity(const mEdge& e, bool upToGlobalPhase = true,
                                double checkTol = 1e-9);

  // --- memory management -----------------------------------------------------
  void incRef(const mEdge& e) noexcept;
  void decRef(const mEdge& e) noexcept;
  void incRef(const vEdge& e) noexcept;
  void decRef(const vEdge& e) noexcept;

  /// Collect dead nodes if the live-node count exceeds the adaptive
  /// threshold (always when `force`). Each slab sweeps its dense arrays and
  /// rebuilds its bucket table; all compute tables are invalidated (an O(1)
  /// generation bump each) so no cached entry can name a reclaimed — and now
  /// reusable — slot. Cached gate DDs stay referenced and therefore remain
  /// valid across collections.
  /// \throws ResourceLimitError when a configured node or memory budget
  ///         (PackageConfig::maxNodes / maxMemoryMB) remains exceeded even
  ///         after a forced collection. With the default unlimited budgets
  ///         this never throws.
  std::size_t garbageCollect(bool force = false);

  /// Eagerly reclaim an unreferenced diagram: every node in e's DAG whose
  /// reference count is zero is removed from its slab's bucket table and its
  /// slot recycled, stopping at nodes kept alive by references (shared
  /// subdiagrams of live edges survive). When anything was reclaimed, the
  /// compute tables are invalidated (O(1) generation bumps) since cached
  /// results may name the released slots. Used by the lookahead oracle
  /// to drop the losing candidate product immediately instead of letting it
  /// pin live-node accounting (stats, GC threshold adaptation and the node
  /// budget) until the next GC sweep. Returns the number of reclaimed nodes.
  std::size_t release(const mEdge& e);

  /// Process-wide peak resident set size in kilobytes (0 if unavailable).
  [[nodiscard]] static std::size_t peakResidentSetKB() noexcept;

  /// Current (not peak) resident set size in kilobytes via /proc/self/statm;
  /// 0 where unavailable. Unlike the getrusage watermark this can decrease,
  /// so a long-running daemon can use it for admission decisions.
  [[nodiscard]] static std::size_t currentResidentSetKB() noexcept;

  /// Drops all cached gate DDs (releasing their references). Called
  /// automatically when the cache outgrows its configured bound.
  void clearGateCache();

  /// Number of distinct nodes reachable from e (terminal excluded).
  [[nodiscard]] std::size_t nodeCount(const mEdge& e) const;
  [[nodiscard]] std::size_t nodeCount(const vEdge& e) const;

  [[nodiscard]] PackageStats stats() const;

  /// Feed every package statistic into a counters registry under `prefix`
  /// (e.g. "dd.multiply.hits"). Monotone counters (cache traffic, GC runs,
  /// allocations) accumulate by addition, high-water marks (peak nodes)
  /// by maximum, so registries from several packages — e.g. the engines of
  /// one run, or the jobs veriqcd merges into its metrics — merge correctly.
  void exportCounters(obs::CounterRegistry& registry,
                      const std::string& prefix = "dd.") const;

  // --- introspection (audit layer and tests) ---------------------------------
  // Read-only views into the package's internal structures. Only meaningful
  // at quiescent points (no DD operation in flight); the audit layer calls
  // them at post-gate checkpoints and after garbage collection.

  /// Per-level slab stores (index = DD level).
  [[nodiscard]] const std::vector<NodeSlab<mEdge>>&
  matrixSlabs() const noexcept {
    return mSlabs_;
  }
  [[nodiscard]] const std::vector<NodeSlab<vEdge>>&
  vectorSlabs() const noexcept {
    return vSlabs_;
  }

  /// Child edge i of a (non-terminal) matrix/vector node.
  [[nodiscard]] mEdge matrixChild(NodeIndex n, std::size_t i) const;
  [[nodiscard]] vEdge vectorChild(NodeIndex n, std::size_t i) const;

  /// The real-number interning table.
  [[nodiscard]] const RealTable& realTable() const noexcept { return reals_; }

  /// Root edges the package itself keeps referenced: the identity chain and
  /// the gate-DD cache (each entry holds exactly one reference). A full
  /// refcount recount counts these alongside caller-held roots.
  [[nodiscard]] std::vector<mEdge> internalMatrixRoots() const;

  /// Invokes the visitors for every node handle referenced by a compute-table
  /// entry of the current generation (operand keys and cached results).
  void
  visitLiveCacheNodes(const std::function<void(NodeIndex)>& visitMatrix,
                      const std::function<void(NodeIndex)>& visitVector)
      const;

  /// True if `n` is the terminal or currently live in a slab store.
  [[nodiscard]] bool containsMatrixNode(NodeIndex n) const noexcept;
  [[nodiscard]] bool containsVectorNode(NodeIndex n) const noexcept;

private:
  friend class PackageTestAccess;

  std::size_t releaseNode(NodeIndex n);
  void incRefNode(NodeIndex n) noexcept;
  void decRefNode(NodeIndex n) noexcept;
  void incRefVNode(NodeIndex n) noexcept;
  void decRefVNode(NodeIndex n) noexcept;

  /// Cache key of a constructed gate DD. Matrix entries are quantized by the
  /// interning tolerance, so parameter values that would intern to the same
  /// canonical reals share an entry. Controls/target are DD levels (i.e. the
  /// permutation applied by makeOperationDD is part of the key).
  struct GateKey {
    std::array<std::int64_t, 8> matrix{}; ///< quantized re/im of the 4 entries
    std::uint64_t kind = 0;               ///< 0 = matrix gate, 1 = SWAP
    std::vector<Qubit> controls;          ///< sorted control levels
    Qubit target = 0;
    Qubit target2 = 0; ///< second SWAP target (unused for matrix gates)

    bool operator==(const GateKey&) const = default;
  };

  struct GateKeyHash {
    std::size_t operator()(const GateKey& key) const noexcept {
      std::size_t h = std::hash<std::uint64_t>{}(key.kind);
      for (const auto q : key.matrix) {
        h = combineHash(h, std::hash<std::int64_t>{}(q));
      }
      for (const auto c : key.controls) {
        h = combineHash(h, std::hash<Qubit>{}(c));
      }
      h = combineHash(h, std::hash<Qubit>{}(key.target));
      h = combineHash(h, std::hash<Qubit>{}(key.target2));
      return h;
    }
  };

  [[nodiscard]] std::int64_t quantize(double value) const noexcept;
  GateKey& makeGateKey(const GateMatrix& matrix, std::span<const Qubit> controls,
                       Qubit target);

  /// Cache lookup/insert around a gate-DD builder. The builder is only
  /// invoked on a miss; its result is referenced so it survives GC. `key`
  /// aliases the current depth slot of the scratch pool; nested gate
  /// construction inside the builder (buildSwapDD -> makeGateDD) runs one
  /// depth deeper and therefore cannot clobber it.
  template <typename Builder>
  mEdge cachedGateDD(GateKey& key, Builder&& build);

  /// The reusable key slot for the current nesting depth, growing the pool
  /// on first use of a new depth.
  GateKey& gateKeySlot();

  /// Uncached construction bodies behind the gate-DD cache.
  mEdge buildGateDD(const GateMatrix& matrix,
                    const std::vector<Qubit>& sortedControls, Qubit target);
  mEdge buildSwapDD(Qubit a, Qubit b, const std::vector<Qubit>& controls);

  void countMatrixNodes(NodeIndex n, std::set<NodeIndex>& seen) const;
  void countVectorNodes(NodeIndex n, std::set<NodeIndex>& seen) const;

  mEdge multiplyMatrixNodes(NodeIndex x, NodeIndex y, Level var);
  vEdge multiplyVectorNodes(NodeIndex m, NodeIndex v, Level var);
  std::complex<double> traceNode(NodeIndex node);
  std::complex<double> innerProductNodes(NodeIndex x, NodeIndex y);

  std::size_t nqubits_;
  RealTable reals_;

  std::vector<NodeSlab<mEdge>> mSlabs_; ///< one per level
  std::vector<NodeSlab<vEdge>> vSlabs_;

  NodePairComputeTable<mEdge> multiplyTable_;
  NodePairComputeTable<vEdge> multiplyVectorTable_;
  ComputeTable<mEdge, mEdge, mEdge> addTable_;
  ComputeTable<vEdge, vEdge, vEdge> addVectorTable_;
  UnaryComputeTable<mEdge> conjTransTable_;
  UnaryComputeTable<std::complex<double>> traceTable_;
  NodePairComputeTable<std::complex<double>> innerProductTable_;

  std::unordered_map<GateKey, mEdge, GateKeyHash> gateCache_;
  std::size_t gateCacheMaxEntries_;
  CacheStats gateCacheStats_;
  /// Depth-indexed pool of reused lookup keys: cache hits (the
  /// per-applied-gate fast path) perform no heap allocation because
  /// controls.assign reuses the slot's prior capacity. Each nesting level of
  /// gate construction owns its own slot, so an inner build cannot clobber
  /// the key an outer cachedGateDD is about to insert. A deque keeps the
  /// outer GateKey& stable when a deeper first use grows the pool.
  std::deque<GateKey> gateKeyScratch_;
  std::size_t gateKeyDepth_ = 0;

  std::vector<mEdge> idTable_; ///< idTable_[k] = identity on levels 0..k

  /// Invalidate every operation cache (O(1) generation bumps). Required
  /// whenever node slots become reusable, since a recycled slot would
  /// otherwise let a stale entry alias a brand-new node (ABA on handles).
  void clearComputeTables() noexcept;

  /// Enforce the node/memory budgets against the post-collection live node
  /// count. \throws ResourceLimitError when a budget is exceeded.
  void enforceResourceLimits(std::size_t liveNodes);

  std::size_t gcInitialThreshold_;
  std::size_t gcThreshold_;
  std::size_t gcRuns_ = 0;
  std::size_t peakMatrixNodes_ = 0;
  std::size_t releasedNodes_ = 0;
  std::size_t maxNodes_ = 0;
  std::size_t maxMemoryKB_ = 0;
  std::size_t memoryCheckCountdown_ = 0;
};

/// White-box access to a package's slab stores for audit mutation tests and
/// node-store unit tests. Production code must never use this: it can break
/// every canonicity invariant — which is exactly what the audit-layer tests
/// need it for.
class PackageTestAccess {
public:
  static NodeSlab<mEdge>& matrixSlab(Package& p, const Level v) {
    return p.mSlabs_[static_cast<std::size_t>(v)];
  }
  static NodeSlab<vEdge>& vectorSlab(Package& p, const Level v) {
    return p.vSlabs_[static_cast<std::size_t>(v)];
  }
  /// Detach a node from its slab *without* invalidating the compute tables —
  /// the stale-cache corruption the audit layer must detect.
  static void detachMatrixNode(Package& p, const NodeIndex n) {
    p.mSlabs_[static_cast<std::size_t>(levelOfIndex(n))].remove(n);
  }
};

} // namespace veriqc::dd

/// \file fault.hpp
/// \brief Deterministic, seedable fault-injection points.
///
/// The firewall, the resource governors and the manager's degradation ladder
/// are only worth anything if every failure path has actually been walked.
/// This library plants named injection points in the hot layers (slab
/// growth, table rebuilds, worklist drains, task start, report
/// serialization); each point is a single branch on a relaxed atomic while
/// disarmed, and throws a configured exception kind when an armed plan says
/// it is this hit's turn to fail.
///
/// Plans are strings of `;`/`,`-separated clauses:
///
///     point[:key=value]...
///
///     dd.slab_grow:after=3            fire on the 4th hit after arming
///     zx.drain:p=0.01:seed=42         fire each hit with probability 1%,
///                                     deterministically derived from
///                                     (seed, hit index)
///     pool.task_start:times=2         fire at most twice (default 1;
///                                     times=0 removes the bound)
///     dd.gc:after=5:throw=runtime     override the site's exception kind
///
/// Plans come from `Configuration::faultPlan` (installed by the manager for
/// the duration of one run) or the `VERIQC_FAULT` environment variable
/// (installed once, at first registry use). The registry is process-global;
/// concurrent runs with *different* plans are not supported — which is fine,
/// fault plans are a test-harness feature, not a production knob.
#pragma once

#include "obs/counters.hpp"
#include "support/mutex.hpp"

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace veriqc::fault {

/// What an armed point throws when it fires. Every site declares the default
/// that emulates its realistic failure; a plan clause's `throw=` overrides.
enum class FaultKind : std::uint8_t {
  BadAlloc,      ///< std::bad_alloc — an allocation failure
  ResourceLimit, ///< veriqc::ResourceLimitError — a tripped budget
  Runtime,       ///< FaultInjectedError — a generic engine defect
};

/// The exception thrown for FaultKind::Runtime. Lands in the manager's
/// EngineError slot via the firewall, like any unexpected engine defect.
class FaultInjectedError : public std::runtime_error {
public:
  using std::runtime_error::runtime_error;
};

/// Canonical injection-point names. Sites register lazily (on first hit), so
/// sweeps enumerate this list instead of the registry.
namespace points {
inline constexpr const char* kDDSlabGrow = "dd.slab_grow";
inline constexpr const char* kDDUniqueRebuild = "dd.unique_rebuild";
inline constexpr const char* kDDRealGrow = "dd.real_grow";
inline constexpr const char* kDDComputeAlloc = "dd.compute_alloc";
inline constexpr const char* kDDGc = "dd.gc";
inline constexpr const char* kZXDrain = "zx.drain";
inline constexpr const char* kPoolTaskStart = "pool.task_start";
inline constexpr const char* kCheckReport = "check.report";
} // namespace points

inline constexpr std::array<const char*, 8> kKnownPoints = {
    points::kDDSlabGrow, points::kDDUniqueRebuild, points::kDDRealGrow,
    points::kDDComputeAlloc, points::kDDGc, points::kZXDrain,
    points::kPoolTaskStart, points::kCheckReport,
};

class Registry;

/// One injection site. hit() is the only hot-path entry: a single acquire
/// load while disarmed. The armed configuration lives in per-field atomics
/// so arming/disarming from the registry races benignly with worker-thread
/// hits (a hit during re-arming may see a mix of old and new knobs for one
/// decision, never torn values).
class Point {
public:
  Point(const Point&) = delete;
  Point& operator=(const Point&) = delete;

  /// The injection site's call: no-op unless armed.
  void hit() {
    if (armed_.load(std::memory_order_acquire)) {
      onHit();
    }
  }

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] bool armed() const noexcept {
    return armed_.load(std::memory_order_acquire);
  }
  /// Faults thrown since this point was last armed.
  [[nodiscard]] std::uint64_t fired() const noexcept {
    return fired_.load(std::memory_order_relaxed);
  }
  /// Armed hits that deliberately did not fire (before `after`, past
  /// `times`, or losing the probability draw).
  [[nodiscard]] std::uint64_t suppressed() const noexcept {
    return suppressed_.load(std::memory_order_relaxed);
  }

private:
  friend class Registry;

  Point(std::string name, FaultKind kind)
      : name_(std::move(name)), kind_(static_cast<std::uint8_t>(kind)) {}

  void onHit();
  [[noreturn]] void throwFault();

  std::string name_;
  std::atomic<bool> armed_{false};
  std::atomic<std::uint8_t> kind_;
  std::atomic<std::uint64_t> after_{0};
  std::atomic<std::uint64_t> times_{1};
  /// Firing probability in parts-per-million; negative selects the
  /// deterministic `after`-counting mode.
  std::atomic<std::int64_t> probabilityPpm_{-1};
  std::atomic<std::uint64_t> seed_{0};
  std::atomic<std::uint64_t> armedHits_{0};
  std::atomic<std::uint64_t> fired_{0};
  std::atomic<std::uint64_t> suppressed_{0};
};

/// Process-global point registry. Points register lazily at first hit;
/// plan clauses naming not-yet-registered points are kept pending and
/// applied at registration, so an environment plan can arm a point before
/// any DD or ZX structure exists.
class Registry {
public:
  static Registry& instance();

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Find-or-create a point. `kind` is the site's default exception kind,
  /// fixed by the first registration.
  Point& point(std::string_view name, FaultKind kind);

  /// Parse `plan` and install it, replacing any previously armed plan.
  /// Arming resets the armed-hit/fired/suppressed counters of the named
  /// points. Throws std::invalid_argument on malformed plans (before any
  /// state changes).
  void armPlan(const std::string& plan);

  /// Disarm every point and drop pending clauses. Counters are kept so a
  /// harness can still read them after the run under test finished.
  void disarmAll();

  /// True while any registered point is armed or a pending clause awaits a
  /// point's registration. veriqcd asserts this is false between jobs: under
  /// a daemon the only legitimate arming path is a job-scoped ScopedPlan,
  /// so an armed point outside one is a leak.
  [[nodiscard]] bool anyArmed() const;

  /// Export `fault/<point>.fired` / `.suppressed` counters for every point
  /// with nonzero totals — silent (and golden-stable) when nothing fired.
  void exportCounters(obs::CounterRegistry& counters) const;

  /// Since-last-arm counts by name; 0 when the point never registered.
  [[nodiscard]] std::uint64_t firedCount(std::string_view name) const;
  [[nodiscard]] std::uint64_t suppressedCount(std::string_view name) const;

private:
  struct Clause {
    std::string point;
    bool kindOverride = false;
    FaultKind kind = FaultKind::Runtime;
    std::uint64_t after = 0;
    std::uint64_t times = 1;
    std::int64_t probabilityPpm = -1;
    std::uint64_t seed = 0;
  };

  Registry();

  static std::vector<Clause> parsePlan(const std::string& plan);
  /// Reset-and-arm one point from a clause. Runs under mutex_ so a plan's
  /// clauses install atomically with respect to point registration (the
  /// Point knobs themselves are atomics; the lock orders *which* plan wins).
  void armLocked(Point& point, const Clause& clause) VERIQC_REQUIRES(mutex_);

  mutable support::Mutex mutex_;
  std::map<std::string, std::unique_ptr<Point>, std::less<>> points_
      VERIQC_GUARDED_BY(mutex_);
  std::vector<Clause> pending_ VERIQC_GUARDED_BY(mutex_);
};

/// RAII plan installation for tests and the manager: arms on construction,
/// disarms everything on destruction.
class ScopedPlan {
public:
  explicit ScopedPlan(const std::string& plan) {
    Registry::instance().armPlan(plan);
  }
  ScopedPlan(const ScopedPlan&) = delete;
  ScopedPlan& operator=(const ScopedPlan&) = delete;
  ~ScopedPlan() { Registry::instance().disarmAll(); }
};

} // namespace veriqc::fault

/// Injection-site helper: resolves the registry entry once per call site,
/// then costs one branch on an atomic load while disarmed. Compiling with
/// -DVERIQC_DISABLE_FAULT_POINTS removes every site outright (plans are
/// then rejected as unknown points), for builds that must not carry even
/// the disarmed check.
#ifdef VERIQC_DISABLE_FAULT_POINTS
#define VERIQC_FAULT_POINT(pointName, faultKind)                               \
  do {                                                                         \
  } while (false)
#else
#define VERIQC_FAULT_POINT(pointName, faultKind)                               \
  do {                                                                         \
    static ::veriqc::fault::Point& veriqcFaultPointRef =                       \
        ::veriqc::fault::Registry::instance().point((pointName), (faultKind)); \
    veriqcFaultPointRef.hit();                                                 \
  } while (false)
#endif

/// \file counters.hpp
/// \brief Named counter registry for engine observability.
///
/// Engines feed their kernel statistics (cache hit counts, rewrite totals,
/// node peaks) into a CounterRegistry instead of inventing ad-hoc result
/// fields; the report layer serializes every registry into the `counters`
/// object of `veriqc-report/v1`. Counters are either monotone sums
/// (merged by addition: lookups, rewrites, allocations) or high-water gauges
/// (merged by maximum: peak node counts), fixed by the first feed of a name.
///
/// Threading: CounterRegistry is deliberately unsynchronized. Engines own a
/// private registry each (merged after the join), so locking here would tax
/// the hottest counters for nothing. Registries that *are* shared across
/// threads carry the lock at the sharing site — e.g. JobService::metrics_ is
/// declared `VERIQC_GUARDED_BY(metricsMutex_)`, which lets the thread safety
/// analysis enforce the external-lock contract this class itself cannot.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>

namespace veriqc::obs {

class CounterRegistry {
public:
  enum class Kind : std::uint8_t {
    Sum, ///< merged by addition (monotone counters)
    Max, ///< merged by maximum (high-water gauges)
  };

  struct Counter {
    double value = 0.0;
    Kind kind = Kind::Sum;
  };

  /// Add `delta` to a sum counter (created at 0 on first use).
  void add(const std::string& name, const double delta) {
    auto& counter = counters_[name];
    counter.kind = Kind::Sum;
    counter.value += delta;
  }

  /// Raise a gauge to at least `value` (created on first use).
  void max(const std::string& name, const double value) {
    auto [it, inserted] = counters_.try_emplace(name, Counter{value, Kind::Max});
    if (!inserted) {
      it->second.kind = Kind::Max;
      it->second.value = std::max(it->second.value, value);
    }
  }

  /// Current value; 0 when the counter was never fed.
  [[nodiscard]] double value(const std::string& name) const {
    const auto it = counters_.find(name);
    return it == counters_.end() ? 0.0 : it->second.value;
  }

  [[nodiscard]] bool contains(const std::string& name) const {
    return counters_.count(name) > 0;
  }

  /// Fold another registry in, respecting each counter's kind.
  void merge(const CounterRegistry& other) {
    for (const auto& [name, counter] : other.counters_) {
      if (counter.kind == Kind::Max) {
        max(name, counter.value);
      } else {
        add(name, counter.value);
      }
    }
  }

  [[nodiscard]] bool empty() const noexcept { return counters_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return counters_.size(); }

  /// Sorted name -> counter view (std::map keeps serialization stable).
  [[nodiscard]] const std::map<std::string, Counter>& entries() const noexcept {
    return counters_;
  }

private:
  std::map<std::string, Counter> counters_;
};

} // namespace veriqc::obs

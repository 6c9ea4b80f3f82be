#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "runtime/cluster.hpp"
#include "service/sharded_collection.hpp"

namespace rcua::svc {

/// Watches per-locale memory pressure through the obs registry's gauges
/// and triggers ShardedCollection migrations automatically: when the
/// hottest locale carries more than `imbalance_ratio` times the bytes of
/// the coldest, one shard homed on the hottest locale migrates to the
/// coldest. Polling is explicit (`tick()`), so behaviour is
/// deterministic under the sim clock and the sched harness — a service
/// loop calls tick() at its own cadence.
///
/// The gauges feed the same registry the §12 health gauges live in
/// (`rcua.service.pressure.bytes.<locale>`), so an operator sees the
/// imbalance the monitor is acting on in the ordinary stats dump.
template <typename T, typename Policy = QsbrPolicy>
class PressureMonitor {
 public:
  struct Options {
    /// Hottest/coldest bytes ratio that arms a migration (must be > 1).
    double imbalance_ratio = 2.0;
    /// Below this many bytes on the hottest locale nothing migrates —
    /// rebalancing empty locales is churn, not relief.
    std::uint64_t min_bytes = 1;
    /// Upper bound on migrations per tick (one keeps each tick cheap and
    /// re-evaluates pressure between moves).
    std::size_t max_migrations_per_tick = 1;
  };

  /// What one tick decided, for tests and logs.
  struct Decision {
    std::size_t shard;
    std::uint32_t from;
    std::uint32_t to;
    bool completed;  ///< false = the migration rolled back (fault)
  };

  PressureMonitor(ShardedCollection<T, Policy>& coll, Options options = {})
      : coll_(coll), options_(options) {
    rt::Cluster& cluster = coll.cluster();
    gauges_.reserve(cluster.num_locales());
    for (std::uint32_t l = 0; l < cluster.num_locales(); ++l) {
      gauges_.push_back(&cluster.comm().registry().gauge(
          "rcua.service.pressure.bytes." + std::to_string(l)));
    }
  }

  PressureMonitor(const PressureMonitor&) = delete;
  PressureMonitor& operator=(const PressureMonitor&) = delete;

  /// Refreshes the pressure gauges and migrates up to
  /// max_migrations_per_tick shards off the hottest locale. Returns the
  /// decisions taken (empty = balanced or nothing eligible).
  std::vector<Decision> tick() {
    std::vector<Decision> decisions;
    for (std::size_t n = 0; n < options_.max_migrations_per_tick; ++n) {
      refresh_gauges();
      std::optional<Decision> d = evaluate();
      if (!d) break;
      d->completed = coll_.migrate(d->shard, d->to);
      decisions.push_back(*d);
      if (!d->completed) break;  // faulted destination: stop churning
    }
    // Leave the gauges reflecting the post-migration picture, so the
    // stats dump an operator reads matches what the tick actually did.
    refresh_gauges();
    return decisions;
  }

  /// Pure decision step (no side effects beyond reading gauges): the
  /// shard the current pressure picture would migrate, or nullopt when
  /// balanced. Exposed so tests can pin the policy without migrating.
  std::optional<Decision> evaluate() {
    rt::Cluster& cluster = coll_.cluster();
    std::uint32_t hot = 0;
    std::uint32_t cold = 0;
    std::uint64_t hot_bytes = 0;
    std::uint64_t cold_bytes = UINT64_MAX;
    for (std::uint32_t l = 0; l < cluster.num_locales(); ++l) {
      const std::uint64_t bytes = cluster.locale(l).bytes_live();
      if (bytes > hot_bytes) {
        hot_bytes = bytes;
        hot = l;
      }
      if (bytes < cold_bytes) {
        cold_bytes = bytes;
        cold = l;
      }
    }
    if (hot == cold || hot_bytes < options_.min_bytes) return std::nullopt;
    if (static_cast<double>(hot_bytes) <
        options_.imbalance_ratio * static_cast<double>(cold_bytes)) {
      return std::nullopt;
    }
    // First shard the placement table homes on the hot locale.
    for (std::size_t s = 0; s < coll_.shard_count(); ++s) {
      if (coll_.home_of(s) == hot) {
        return Decision{s, hot, cold, false};
      }
    }
    return std::nullopt;
  }

 private:
  void refresh_gauges() {
    rt::Cluster& cluster = coll_.cluster();
    for (std::uint32_t l = 0; l < cluster.num_locales(); ++l) {
      gauges_[l]->set(cluster.locale(l).bytes_live());
    }
  }

  ShardedCollection<T, Policy>& coll_;
  Options options_;
  std::vector<obs::Gauge*> gauges_;
};

}  // namespace rcua::svc

#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "runtime/comm.hpp"
#include "runtime/task_pool.hpp"
#include "runtime/this_task.hpp"

namespace rcua::rt {

/// One simulated node: identity plus allocation accounting. All memory is
/// of course in one address space; the owner tag is what drives the
/// communication model and the locality assertions in tests.
class Locale {
 public:
  explicit Locale(std::uint32_t id) noexcept : id_(id) {}
  Locale(const Locale&) = delete;
  Locale& operator=(const Locale&) = delete;

  [[nodiscard]] std::uint32_t id() const noexcept { return id_; }

  void note_alloc(std::size_t bytes) noexcept {
    allocs_.fetch_add(1, std::memory_order_relaxed);
    bytes_.fetch_add(bytes, std::memory_order_relaxed);
  }
  void note_free(std::size_t bytes) noexcept {
    frees_.fetch_add(1, std::memory_order_relaxed);
    bytes_.fetch_sub(bytes, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t allocations() const noexcept {
    return allocs_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t frees() const noexcept {
    return frees_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t bytes_live() const noexcept {
    return bytes_.load(std::memory_order_relaxed);
  }

 private:
  std::uint32_t id_;
  std::atomic<std::uint64_t> allocs_{0};
  std::atomic<std::uint64_t> frees_{0};
  std::atomic<std::uint64_t> bytes_{0};
};

struct ClusterConfig {
  std::uint32_t num_locales = 4;
  std::uint32_t workers_per_locale = 2;
};

class FaultPlan;

/// The simulated cluster: the substrate standing in for Chapel's multi-
/// locale execution. Owns the locales, the communication layer and the
/// tasking layer, and provides the Chapel-shaped control constructs the
/// paper's Algorithm 3 uses: `on` (run on a locale), `coforall_locales`
/// (one task per locale, join), and `coforall_tasks` (a task team per
/// locale, join). A privatized structure keeps its per-locale copies
/// itself (RCUArray's PerLocale), indexed by locale id.
class Cluster {
 public:
  /// Throws std::invalid_argument on a degenerate config
  /// (num_locales == 0 or workers_per_locale == 0).
  explicit Cluster(ClusterConfig config);
  ~Cluster() = default;
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  [[nodiscard]] std::uint32_t num_locales() const noexcept {
    return static_cast<std::uint32_t>(locales_.size());
  }
  [[nodiscard]] Locale& locale(std::uint32_t id) noexcept {
    return *locales_[id];
  }
  [[nodiscard]] CommLayer& comm() noexcept { return comm_; }
  [[nodiscard]] TaskPool& pool() noexcept { return *pool_; }

  /// The locale the calling task runs on — locale 0 for threads outside
  /// this cluster (the "launcher" runs on node 0, as in Chapel).
  [[nodiscard]] std::uint32_t here() const noexcept {
    const TaskContext& ctx = this_task();
    return ctx.cluster == this ? ctx.locale_id : 0;
  }

  /// Runs `fn` on `locale` and waits. Runs inline when the caller is
  /// already there (Chapel's `on` is a no-op for the current locale);
  /// otherwise charges a remote execution and dispatches to the pool.
  void on(std::uint32_t locale, const std::function<void()>& fn);

  /// Runs `fn(locale_id)` concurrently on every locale and waits. The
  /// initiator's virtual clock advances by the fan-out cost plus the
  /// longest body (each body runs under its own clock when the initiator
  /// is being simulated).
  void coforall_locales(const std::function<void(std::uint32_t)>& fn);

  /// Runs `fn(locale_id, task_id)` for task_id in [0, tasks_per_locale)
  /// on every locale, and waits.
  void coforall_tasks(std::uint32_t tasks_per_locale,
                      const std::function<void(std::uint32_t, std::uint32_t)>& fn);

  // -- Chaos injection ---------------------------------------------------

  /// Installs a fault plan consulted by the runtime's chaos hooks (the
  /// comm layer, the task pool, and RCUArray's read/replication paths);
  /// nullptr clears. Pool workers consult the plan between tasks, so the
  /// plan must outlive the Cluster (whose destructor joins them):
  /// clearing is a plain pointer store and does NOT wait for in-flight
  /// consultations. Declare the plan before the Cluster.
  void set_fault_plan(FaultPlan* plan) noexcept;

  [[nodiscard]] FaultPlan* fault_plan() const noexcept {
    return fault_plan_.load(std::memory_order_acquire);
  }

 private:
  std::vector<std::unique_ptr<Locale>> locales_;
  CommLayer comm_;
  std::unique_ptr<TaskPool> pool_;
  std::atomic<FaultPlan*> fault_plan_{nullptr};
};

}  // namespace rcua::rt

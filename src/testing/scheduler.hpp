#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "platform/rng.hpp"
#include "testing/sched_point.hpp"

/// Deterministic schedule-exploration harness for the EBR/QSBR/snapshot
/// protocols.
///
/// The paper's correctness lemmas (at most two live snapshots; parity
/// across epoch overflow; block recycling keeping references valid across
/// Resize) are interleaving-sensitive: wall-clock concurrent tests hit the
/// dangerous orderings only probabilistically. This harness makes them
/// reproducible:
///
///  * Each *logical task* of a scenario runs on its own OS thread, but a
///    baton (one mutex + per-task condition variables) guarantees that at
///    most one task executes at any instant. Tasks hand control back at
///    every `RCUA_SCHED_POINT` the instrumented library (built with
///    RCUA_SCHED_TEST=1) exposes, and at every `plat::wait_until`, which
///    replaces unbounded spin-waits with scheduler-visible blocking.
///  * Between two schedule points exactly one thread runs, so a schedule
///    — the sequence of (task, site) choices — fully determines the
///    execution. Replaying the choices replays the run, bit for bit.
///  * A `ScheduleStrategy` decides which ready task runs at each point:
///    `RandomStrategy` performs seeded random walks (the failing seed is
///    printed and replayable), `DfsStrategy` systematically enumerates
///    all schedules of a small scenario up to a preemption bound.
///
/// The model checked is sequential consistency: the baton's mutex orders
/// every step, so weak-memory-only bugs are out of scope (TSan and the
/// stress tier cover those). What the harness *does* find — deterministic
/// protocol-ordering bugs between announce/verify/drain/publish/retire —
/// is demonstrated by the mutation checks in tests/test_sched_*.cpp.
namespace rcua::testing {

inline constexpr std::size_t kNoTask = static_cast<std::size_t>(-1);

/// One executed step of a schedule: which task ran, from which site.
struct TraceEntry {
  std::string task;
  const char* site;
};

/// Decides, at every schedule point, which ready task runs next.
class ScheduleStrategy {
 public:
  virtual ~ScheduleStrategy() = default;

  /// Called once before each schedule starts.
  virtual void begin_schedule() {}

  /// Picks the next task: returns an index into `ready` (task ids in
  /// ascending creation order). `last` is the id of the task that ran the
  /// previous step (kNoTask at the first step).
  virtual std::size_t pick(const std::vector<std::size_t>& ready,
                           std::size_t last, std::uint64_t step) = 0;
};

/// Seeded random walk over the schedule space. The same seed always
/// produces the same schedule.
class RandomStrategy final : public ScheduleStrategy {
 public:
  explicit RandomStrategy(std::uint64_t seed) : seed_(seed), rng_(seed) {}

  void begin_schedule() override { rng_ = plat::Xoshiro256(seed_); }

  std::size_t pick(const std::vector<std::size_t>& ready, std::size_t,
                   std::uint64_t) override {
    return static_cast<std::size_t>(rng_.next_below(ready.size()));
  }

 private:
  std::uint64_t seed_;
  plat::Xoshiro256 rng_;
};

/// Bounded systematic exploration: depth-first enumeration of the
/// schedule tree, pruned by a preemption bound (switching away from a
/// still-ready task costs one preemption; running until a task blocks or
/// finishes is free). With a small scenario this covers *every* schedule
/// with at most `preemption_bound` preemptions — exhaustive, not
/// probabilistic, coverage of the interesting interleavings.
class DfsStrategy final : public ScheduleStrategy {
 public:
  explicit DfsStrategy(int preemption_bound)
      : bound_(preemption_bound < 0 ? 0
                                    : static_cast<std::size_t>(
                                          preemption_bound)) {}

  void begin_schedule() override { depth_ = 0; }

  std::size_t pick(const std::vector<std::size_t>& ready, std::size_t last,
                   std::uint64_t) override;

  /// Advances to the next unexplored schedule. Returns false once the
  /// bounded schedule tree is exhausted.
  bool advance();

 private:
  struct Step {
    /// Alternatives at this point, in exploration order: default choice
    /// first (continue the running task, else lowest id), then the
    /// remaining ready indices ascending.
    std::vector<std::size_t> alts;
    /// Index into `alts` currently being explored.
    std::size_t alt_pos = 0;
    /// Index (into ready) that continues the previously running task;
    /// kNoTask when that task was not ready (its step costs nothing).
    std::size_t cont = kNoTask;
  };

  [[nodiscard]] std::size_t step_cost(const Step& s,
                                      std::size_t choice) const noexcept {
    return (s.cont != kNoTask && choice != s.cont) ? 1 : 0;
  }

  std::size_t bound_;
  std::size_t depth_ = 0;
  std::vector<Step> plan_;
};

/// Runs one scenario — a set of spawned logical tasks — under one
/// schedule. Create, spawn tasks, call run() with a strategy, inspect
/// violations. The `explore()` driver below loops this over many
/// schedules.
class Scheduler {
 public:
  struct Options {
    /// A schedule exceeding this many steps is reported as a livelock.
    std::uint64_t max_steps = 200000;
  };

  explicit Scheduler(Options options);
  ~Scheduler();
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Registers a logical task. Tasks start suspended; run() interleaves
  /// them. Returns the task id (creation order).
  std::size_t spawn(std::string name, std::function<void()> body);

  /// Registers a check run after every task has finished (skipped when
  /// the schedule was abandoned on deadlock/livelock).
  void on_finish(std::function<void(Scheduler&)> check);

  /// Executes one complete schedule under `strategy`.
  void run(ScheduleStrategy& strategy);

  /// Records an invariant violation (first one wins). Callable from task
  /// bodies, the finish check, or the driving thread.
  void violation(std::string message);

  [[nodiscard]] bool violated() const;
  [[nodiscard]] const std::string& violation_message() const;
  [[nodiscard]] const std::vector<TraceEntry>& trace() const;
  [[nodiscard]] std::uint64_t steps() const;

  struct Impl;

 private:
  std::shared_ptr<Impl> impl_;
};

enum class ExploreMode {
  kRandom,  ///< seeded random walks (`schedules` seeds from `base_seed`)
  kDfs,     ///< systematic DFS up to `preemption_bound` preemptions
};

struct ExploreOptions {
  ExploreMode mode = ExploreMode::kRandom;
  /// Random: number of seeds tried. DFS: cap on enumerated schedules.
  std::uint64_t schedules = 2000;
  /// First seed of the random walk; seed i is base_seed + i. Overridden
  /// by the RCUA_SCHED_SEED environment variable for replay, and by
  /// RCUA_SCHED_BASE_SEED unless `schedules` is 1.
  std::uint64_t base_seed = 0x5eedba5e;
  int preemption_bound = 3;
  std::uint64_t max_steps = 200000;
  /// Stop at the first violating schedule (mutation checks) instead of
  /// exploring the full budget.
  bool stop_on_violation = true;
  /// Suppress the replay banner printed on violation.
  bool quiet = false;
};

struct ExploreResult {
  bool found = false;          ///< some schedule violated an invariant
  std::uint64_t seed = 0;      ///< reproducing seed (random mode)
  ExploreMode mode = ExploreMode::kRandom;
  std::string message;         ///< first violation message
  std::string trace;           ///< formatted schedule of the violating run
  std::uint64_t schedules_run = 0;
  bool exhausted = false;      ///< DFS: bounded tree fully enumerated
};

/// Explores schedules of `scenario` (called once per schedule to build
/// fresh state and spawn tasks). On violation, prints the reproducing
/// seed — rerunning with RCUA_SCHED_SEED=<seed> in the environment
/// replays exactly that schedule (random mode; DFS is self-reproducing).
///
/// Environment overrides (the nightly CI tier's deep-exploration knobs):
///   RCUA_SCHED_SCHEDULES        — replaces options.schedules
///   RCUA_SCHED_PREEMPTION_BOUND — replaces options.preemption_bound
///   RCUA_SCHED_BASE_SEED        — replaces options.base_seed (sweeps a
///                                 different seed window per nightly run
///                                 without forcing single-seed replay)
///   RCUA_SCHED_SEED             — replay: forces exactly one schedule,
///                                 wins over all of the above
/// An explicit replay (options.schedules == 1, a test re-running the seed
/// an earlier exploration printed) ignores RCUA_SCHED_SCHEDULES and
/// RCUA_SCHED_BASE_SEED, so it runs exactly its own seed.
ExploreResult explore(const ExploreOptions& options,
                      const std::function<void(Scheduler&)>& scenario);

/// The schedule budget explore() will actually run for `options` after
/// the environment overrides above: RCUA_SCHED_SEED and an explicit
/// replay force 1, RCUA_SCHED_SCHEDULES replaces the configured count,
/// otherwise options.schedules. Tests asserting that a negative control
/// consumed its whole budget compare ExploreResult::schedules_run against
/// this instead of the literal, so the nightly deep-budget sweep does not
/// break them. (DFS runs may still stop early with `exhausted` set.)
[[nodiscard]] std::uint64_t effective_schedule_budget(
    const ExploreOptions& options);

/// RAII toggle for one mutation flag (see sched_point.hpp); restores the
/// previous value on scope exit.
class ScopedMutation {
 public:
  explicit ScopedMutation(bool* flag) : flag_(flag), saved_(*flag) {
    *flag_ = true;
  }
  ~ScopedMutation() { *flag_ = saved_; }
  ScopedMutation(const ScopedMutation&) = delete;
  ScopedMutation& operator=(const ScopedMutation&) = delete;

 private:
  bool* flag_;
  bool saved_;
};

}  // namespace rcua::testing

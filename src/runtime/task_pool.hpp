#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace rcua::rt {

class Cluster;

/// The tasking layer: a fixed team of worker threads per locale, in the
/// spirit of Chapel's qthreads shim. Tasks are arbitrary callables bound
/// to a locale; workers run with that locale's TaskContext so placement-
/// sensitive code (privatization, comm counting) behaves as if the task
/// were on that node.
///
/// Idle workers *park* in `reclaim::Qsbr::global()` (reclaiming what
/// their own defer lists allow and leaving its safe-epoch minimum),
/// exactly the paper's park/unpark support, and unpark before running the
/// next task.
///
/// Oversubscription guard: if a task is submitted to a locale with no
/// idle worker, the pool runs it on a temporary thread instead of
/// queueing, so nested coforalls (a resize inside a read workload) can
/// never deadlock the fixed team.
class TaskPool {
 public:
  using Task = std::function<void()>;

  /// Join handle for a batch of tasks.
  class Group {
   public:
    void add(std::size_t n = 1);
    void finish();
    void wait();

   private:
    std::mutex mu_;
    std::condition_variable cv_;
    std::size_t pending_ = 0;
  };

  TaskPool(Cluster& cluster, std::uint32_t num_locales,
           std::uint32_t workers_per_locale);
  ~TaskPool();
  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  /// Submits `task` to run on `locale`. If `group` is non-null it must
  /// have been add()ed for this task; the pool calls finish() after the
  /// task returns (even if it throws — exceptions terminate, by design:
  /// tasks are internal and must not throw).
  void submit(std::uint32_t locale, Group* group, Task task);

  [[nodiscard]] std::uint32_t num_locales() const noexcept {
    return static_cast<std::uint32_t>(queues_.size());
  }
  [[nodiscard]] std::uint32_t workers_per_locale() const noexcept {
    return workers_per_locale_;
  }
  /// Currently idle workers on `locale` (approximate, racy by nature).
  [[nodiscard]] std::uint32_t idle_workers(std::uint32_t locale) const noexcept;

  /// Total tasks ever run on temporary overflow threads (observability).
  [[nodiscard]] std::uint64_t overflow_tasks() const noexcept {
    return overflow_tasks_.load(std::memory_order_relaxed);
  }

  /// Workers killed by an injected kKillWorker fault (chaos layer). A
  /// killed worker hands its queued tasks to overflow threads before
  /// exiting, so submitted work always completes — the pool degrades to
  /// overflow-thread execution rather than hanging a Group::wait.
  [[nodiscard]] std::uint64_t killed_workers() const noexcept {
    return killed_workers_.load(std::memory_order_relaxed);
  }

 private:
  struct LocaleQueue {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Task> tasks;
    std::atomic<std::uint32_t> idle{0};
    bool stop = false;
  };

  void worker_main(std::uint32_t locale, std::uint32_t worker_id);
  void run_overflow(std::uint32_t locale, Task task);

  Cluster& cluster_;
  std::uint32_t workers_per_locale_;
  std::vector<std::unique_ptr<LocaleQueue>> queues_;
  std::vector<std::thread> workers_;
  std::atomic<std::uint64_t> overflow_tasks_{0};
  std::atomic<std::uint64_t> killed_workers_{0};
  // Overflow threads are detached-with-join-tracking: each registers here
  // and the destructor waits for all of them.
  std::mutex overflow_mu_;
  std::condition_variable overflow_cv_;
  std::size_t overflow_live_ = 0;
};

}  // namespace rcua::rt

#include "runtime/task_pool.hpp"

#include "reclaim/qsbr.hpp"
#include "runtime/cluster.hpp"
#include "runtime/fault_plan.hpp"
#include "runtime/this_task.hpp"

namespace rcua::rt {

void TaskPool::Group::add(std::size_t n) {
  std::lock_guard<std::mutex> guard(mu_);
  pending_ += n;
}

void TaskPool::Group::finish() {
  std::lock_guard<std::mutex> guard(mu_);
  if (--pending_ == 0) cv_.notify_all();
}

void TaskPool::Group::wait() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return pending_ == 0; });
}

TaskPool::TaskPool(Cluster& cluster, std::uint32_t num_locales,
                   std::uint32_t workers_per_locale)
    : cluster_(cluster), workers_per_locale_(workers_per_locale) {
  queues_.reserve(num_locales);
  for (std::uint32_t l = 0; l < num_locales; ++l) {
    queues_.push_back(std::make_unique<LocaleQueue>());
  }
  workers_.reserve(static_cast<std::size_t>(num_locales) * workers_per_locale);
  for (std::uint32_t l = 0; l < num_locales; ++l) {
    for (std::uint32_t w = 0; w < workers_per_locale; ++w) {
      workers_.emplace_back([this, l, w] { worker_main(l, w); });
    }
  }
}

TaskPool::~TaskPool() {
  for (auto& q : queues_) {
    std::lock_guard<std::mutex> guard(q->mu);
    q->stop = true;
    q->cv.notify_all();
  }
  for (auto& t : workers_) t.join();
  // Wait out any overflow threads still finishing.
  std::unique_lock<std::mutex> lock(overflow_mu_);
  overflow_cv_.wait(lock, [&] { return overflow_live_ == 0; });
}

std::uint32_t TaskPool::idle_workers(std::uint32_t locale) const noexcept {
  return queues_[locale]->idle.load(std::memory_order_relaxed);
}

void TaskPool::submit(std::uint32_t locale, Group* group, Task task) {
  Task wrapped =
      group == nullptr
          ? std::move(task)
          : Task([group, t = std::move(task)]() mutable {
              t();
              group->finish();
            });
  LocaleQueue& q = *queues_[locale];
  {
    std::lock_guard<std::mutex> guard(q.mu);
    // Queue only when a spare idle worker exists beyond the tasks already
    // waiting; otherwise fall through to an overflow thread so nested
    // parallelism can never deadlock the fixed team.
    if (q.idle.load(std::memory_order_relaxed) > q.tasks.size()) {
      q.tasks.push_back(std::move(wrapped));
      q.cv.notify_one();
      return;
    }
  }
  run_overflow(locale, std::move(wrapped));
}

void TaskPool::run_overflow(std::uint32_t locale, Task task) {
  overflow_tasks_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> guard(overflow_mu_);
    ++overflow_live_;
  }
  std::thread([this, locale, task = std::move(task)]() mutable {
    {
      LocaleScope scope(cluster_, locale, /*worker_id=*/~0u);
      task();
    }
    std::lock_guard<std::mutex> guard(overflow_mu_);
    if (--overflow_live_ == 0) overflow_cv_.notify_all();
  }).detach();
}

void TaskPool::worker_main(std::uint32_t locale, std::uint32_t worker_id) {
  LocaleScope scope(cluster_, locale, worker_id);
  LocaleQueue& q = *queues_[locale];
  for (;;) {
    // Chaos hook: an injected kKillWorker fault makes this worker die as
    // a crashed thread would — except queued tasks are handed to
    // overflow threads first, so submitted work still completes and no
    // Group::wait hangs on a task nobody will run.
    if (FaultPlan* plan = cluster_.fault_plan();
        plan != nullptr &&
        plan->fires(FaultPlan::Action::kKillWorker, locale)) {
      std::deque<Task> orphaned;
      {
        std::lock_guard<std::mutex> guard(q.mu);
        orphaned.swap(q.tasks);
      }
      killed_workers_.fetch_add(1, std::memory_order_relaxed);
      for (Task& t : orphaned) run_overflow(locale, std::move(t));
      return;
    }
    Task task;
    {
      std::unique_lock<std::mutex> lock(q.mu);
      if (q.tasks.empty() && !q.stop) {
        // Going idle: park (final QSBR housekeeping + leave the minima).
        // Parking runs deferred callbacks, which may submit work here, so
        // it runs unlocked; the wait's predicate sees a task queued since.
        q.idle.fetch_add(1, std::memory_order_relaxed);
        lock.unlock();
        reclaim::Qsbr::global().park();
        lock.lock();
        q.cv.wait(lock, [&] { return q.stop || !q.tasks.empty(); });
        reclaim::Qsbr::global().unpark();
        q.idle.fetch_sub(1, std::memory_order_relaxed);
      }
      if (q.tasks.empty()) {
        if (q.stop) return;
        continue;  // spurious wake relative to another worker's grab
      }
      task = std::move(q.tasks.front());
      q.tasks.pop_front();
    }
    task();
  }
}

}  // namespace rcua::rt

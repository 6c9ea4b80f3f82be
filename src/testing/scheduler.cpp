#include "testing/scheduler.hpp"

#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <sstream>
#include <thread>

#include "testing/sched_point.hpp"

#if !defined(RCUA_SCHED_TEST) || !RCUA_SCHED_TEST
#error "testing/scheduler.cpp must be compiled with RCUA_SCHED_TEST=1"
#endif

namespace rcua::testing {

Mutations& mutations() noexcept {
  static Mutations m;
  return m;
}

// ---------------------------------------------------------------------------
// Scheduler internals
// ---------------------------------------------------------------------------

namespace {
struct Task;
}  // namespace

/// All scheduler state lives behind a shared_ptr so that a schedule
/// abandoned on deadlock/livelock can leak its stuck task threads safely:
/// each thread keeps the Impl (and thus the mutex/condvars it waits on,
/// and the scenario state its body captured) alive even after the
/// Scheduler object and the test that owned it are gone.
struct Scheduler::Impl {
  Scheduler::Options options;

  std::mutex mu;
  std::condition_variable sched_cv;
  std::vector<std::unique_ptr<Task>> tasks;
  bool handoff_back = false;  ///< running task returned control
  bool shutdown = false;      ///< destructor: unstarted tasks must exit
  bool abandoned = false;     ///< deadlock/livelock: stuck threads leak
  bool running = false;

  bool violated = false;
  std::string violation_message;
  std::vector<TraceEntry> trace;
  std::uint64_t steps = 0;
  std::function<void(Scheduler&)> finish;

  void task_entry(Task* t);
  void yield_current(Task* t, const char* site, std::function<bool()> pred);
};

namespace {

struct Task {
  enum class State { kNew, kReady, kBlocked, kDone };

  Scheduler::Impl* impl = nullptr;
  std::size_t id = 0;
  std::string name;
  std::function<void()> body;
  std::thread thread;

  std::condition_variable cv;
  bool can_run = false;
  State state = State::kNew;
  const char* site = "spawn";
  /// Valid while kBlocked; evaluated by the scheduler under `mu` (the
  /// task is paused, so reading its captured state is race-free).
  std::function<bool()> pred;

  std::size_t parent = kNoTask;
  std::size_t pending_children = 0;
};

/// The logical task the calling OS thread embodies, if any. Owning thread
/// keeps the Impl alive via a shared_ptr in its entry frame, so the raw
/// pointers here never dangle.
thread_local Task* tl_current_task = nullptr;

}  // namespace

void Scheduler::Impl::task_entry(Task* t) {
  {
    std::unique_lock<std::mutex> lk(mu);
    t->cv.wait(lk, [&] { return t->can_run || shutdown; });
    if (!t->can_run) {  // shut down before ever being scheduled
      t->state = Task::State::kDone;
      sched_cv.notify_all();
      return;
    }
    t->can_run = false;
  }
  tl_current_task = t;
  t->body();
  tl_current_task = nullptr;
  {
    std::unique_lock<std::mutex> lk(mu);
    t->state = Task::State::kDone;
    if (t->parent != kNoTask) {
      --tasks[t->parent]->pending_children;
    }
    handoff_back = true;
    sched_cv.notify_all();
  }
}

void Scheduler::Impl::yield_current(Task* t, const char* site,
                                    std::function<bool()> pred) {
  std::unique_lock<std::mutex> lk(mu);
  t->site = site;
  t->pred = std::move(pred);
  t->state = t->pred ? Task::State::kBlocked : Task::State::kReady;
  handoff_back = true;
  sched_cv.notify_all();
  t->cv.wait(lk, [&] { return t->can_run; });
  t->can_run = false;
  t->pred = nullptr;
}

Scheduler::Scheduler(Options options) : impl_(std::make_shared<Impl>()) {
  impl_->options = options;
}

Scheduler::~Scheduler() {
  std::vector<std::thread> to_join;
  {
    std::unique_lock<std::mutex> lk(impl_->mu);
    impl_->shutdown = true;
    for (auto& t : impl_->tasks) {
      if (t->state == Task::State::kNew) t->cv.notify_all();
    }
    // Wait for never-scheduled tasks to exit cleanly; they hold the lock
    // only briefly.
    impl_->sched_cv.wait(lk, [&] {
      for (auto& t : impl_->tasks) {
        if (t->state == Task::State::kNew) return false;
      }
      return true;
    });
    for (auto& t : impl_->tasks) {
      if (!t->thread.joinable()) continue;
      if (t->state == Task::State::kDone) {
        to_join.push_back(std::move(t->thread));
      } else {
        // Abandoned mid-body (deadlock/livelock). The thread blocks on
        // its condvar forever; it holds a shared_ptr to Impl, so leaking
        // it is memory-safe.
        t->thread.detach();
      }
    }
  }
  for (auto& th : to_join) th.join();
}

std::size_t Scheduler::spawn(std::string name, std::function<void()> body) {
  Impl* impl = impl_.get();
  std::unique_lock<std::mutex> lk(impl->mu);
  auto task = std::make_unique<Task>();
  Task* t = task.get();
  t->impl = impl;
  t->id = impl->tasks.size();
  t->name = std::move(name);
  t->body = std::move(body);
  impl->tasks.push_back(std::move(task));
  // The thread parks immediately in task_entry until scheduled. It holds
  // a shared_ptr so an abandoned schedule cannot pull Impl out from under
  // it.
  t->thread = std::thread([impl_keepalive = impl_, t] {
    impl_keepalive->task_entry(t);
  });
  return t->id;
}

void Scheduler::on_finish(std::function<void(Scheduler&)> check) {
  impl_->finish = std::move(check);
}

void Scheduler::violation(std::string message) {
  std::unique_lock<std::mutex> lk(impl_->mu);
  if (!impl_->violated) {
    impl_->violated = true;
    impl_->violation_message = std::move(message);
  }
}

bool Scheduler::violated() const {
  std::unique_lock<std::mutex> lk(impl_->mu);
  return impl_->violated;
}

const std::string& Scheduler::violation_message() const {
  return impl_->violation_message;
}

const std::vector<TraceEntry>& Scheduler::trace() const {
  return impl_->trace;
}

std::uint64_t Scheduler::steps() const { return impl_->steps; }

void Scheduler::run(ScheduleStrategy& strategy) {
  Impl* impl = impl_.get();
  strategy.begin_schedule();
  std::size_t last = kNoTask;
  {
    std::unique_lock<std::mutex> lk(impl->mu);
    impl->running = true;
    for (;;) {
      std::vector<std::size_t> ready;
      bool all_done = true;
      for (auto& t : impl->tasks) {
        switch (t->state) {
          case Task::State::kNew:
          case Task::State::kReady:
            all_done = false;
            ready.push_back(t->id);
            break;
          case Task::State::kBlocked:
            all_done = false;
            if (t->pred && t->pred()) ready.push_back(t->id);
            break;
          case Task::State::kDone:
            break;
        }
      }
      if (all_done) break;
      if (ready.empty()) {
        std::ostringstream os;
        os << "deadlock: no runnable task;";
        for (auto& t : impl->tasks) {
          if (t->state == Task::State::kBlocked) {
            os << " [" << t->name << " blocked at " << t->site << "]";
          }
        }
        if (!impl->violated) {
          impl->violated = true;
          impl->violation_message = os.str();
        }
        impl->abandoned = true;
        impl->running = false;
        return;  // destructor detaches the stuck threads
      }
      if (impl->steps >= impl->options.max_steps) {
        if (!impl->violated) {
          impl->violated = true;
          impl->violation_message =
              "livelock: schedule exceeded max_steps without completing";
        }
        impl->abandoned = true;
        impl->running = false;
        return;
      }
      const std::size_t pick =
          strategy.pick(ready, last, impl->steps);
      Task* t = impl->tasks[ready[pick < ready.size() ? pick : 0]].get();
      impl->trace.push_back({t->name, t->site});
      ++impl->steps;
      last = t->id;
      t->state = Task::State::kReady;
      t->can_run = true;
      impl->handoff_back = false;
      t->cv.notify_all();
      impl->sched_cv.wait(lk, [&] { return impl->handoff_back; });
    }
    impl->running = false;
  }
  for (auto& t : impl->tasks) {
    if (t->thread.joinable()) t->thread.join();
  }
  if (impl->finish) impl->finish(*this);
}

// ---------------------------------------------------------------------------
// Hooks (declared in sched_point.hpp)
// ---------------------------------------------------------------------------

bool sched_task_active() noexcept { return tl_current_task != nullptr; }

std::size_t sched_task_id() noexcept {
  return tl_current_task != nullptr ? tl_current_task->id : 0;
}

void sched_point(const char* site) noexcept {
  Task* t = tl_current_task;
  if (t == nullptr) return;
  t->impl->yield_current(t, site, nullptr);
}

void sched_await(const char* site, std::function<bool()> pred) {
  Task* t = tl_current_task;
  if (t == nullptr) return;
  t->impl->yield_current(t, site, std::move(pred));
}

void sched_fork_join(std::size_t n,
                     const std::function<void(std::size_t)>& body) {
  Task* parent = tl_current_task;
  if (parent == nullptr) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  Scheduler::Impl* impl = parent->impl;
  {
    std::unique_lock<std::mutex> lk(impl->mu);
    parent->pending_children += n;
    for (std::size_t i = 0; i < n; ++i) {
      auto task = std::make_unique<Task>();
      Task* t = task.get();
      t->impl = impl;
      t->id = impl->tasks.size();
      t->name = parent->name + "/" + std::to_string(i);
      t->body = [&body, i] { body(i); };
      t->parent = parent->id;
      impl->tasks.push_back(std::move(task));
      // Children borrow the parent's liveness: the parent cannot return
      // (and its frame cannot die) until pending_children drains, so a
      // raw Impl* suffices — but take no chances on abandoned schedules
      // and keep the keepalive pattern anyway.
      t->thread = std::thread([t] { t->impl->task_entry(t); });
    }
  }
  sched_await("coforall.join",
              [parent] { return parent->pending_children == 0; });
}

void sched_violation(const char* message) {
  Task* t = tl_current_task;
  if (t == nullptr) return;
  std::unique_lock<std::mutex> lk(t->impl->mu);
  if (!t->impl->violated) {
    t->impl->violated = true;
    t->impl->violation_message = message;
  }
}

// ---------------------------------------------------------------------------
// DFS strategy
// ---------------------------------------------------------------------------

std::size_t DfsStrategy::pick(const std::vector<std::size_t>& ready,
                              std::size_t last, std::uint64_t) {
  // Default choice: continue the task that just ran when it is still
  // ready (running to the next blocking point is "free"); otherwise the
  // lowest-id ready task.
  std::size_t cont = kNoTask;
  for (std::size_t i = 0; i < ready.size(); ++i) {
    if (ready[i] == last) {
      cont = i;
      break;
    }
  }
  if (depth_ == plan_.size()) {
    Step s;
    s.cont = cont;
    const std::size_t def = cont != kNoTask ? cont : 0;
    s.alts.push_back(def);
    for (std::size_t i = 0; i < ready.size(); ++i) {
      if (i != def) s.alts.push_back(i);
    }
    plan_.push_back(std::move(s));
  }
  const Step& s = plan_[depth_];
  ++depth_;
  const std::size_t choice = s.alts[s.alt_pos];
  return choice < ready.size() ? choice : ready.size() - 1;
}

bool DfsStrategy::advance() {
  while (!plan_.empty()) {
    // Preemptions consumed by the prefix above the step being advanced.
    std::size_t base = 0;
    for (std::size_t i = 0; i + 1 < plan_.size(); ++i) {
      base += step_cost(plan_[i], plan_[i].alts[plan_[i].alt_pos]);
    }
    Step& s = plan_.back();
    std::size_t next = s.alt_pos + 1;
    while (next < s.alts.size() &&
           base + step_cost(s, s.alts[next]) > bound_) {
      ++next;
    }
    if (next < s.alts.size()) {
      s.alt_pos = next;
      return true;
    }
    plan_.pop_back();
  }
  return false;
}

// ---------------------------------------------------------------------------
// Exploration driver
// ---------------------------------------------------------------------------

namespace {

std::string format_trace(const std::vector<TraceEntry>& trace) {
  std::ostringstream os;
  const std::size_t n = trace.size();
  const std::size_t head = n > 160 ? 40 : n;
  for (std::size_t i = 0; i < head; ++i) {
    os << "  #" << i << " " << trace[i].task << " @ " << trace[i].site
       << "\n";
  }
  if (n > head) {
    os << "  ... (" << (n - head - 120) << " steps elided) ...\n";
    for (std::size_t i = n - 120; i < n; ++i) {
      os << "  #" << i << " " << trace[i].task << " @ " << trace[i].site
         << "\n";
    }
  }
  return os.str();
}

}  // namespace

std::uint64_t effective_schedule_budget(const ExploreOptions& options) {
  if (std::getenv("RCUA_SCHED_SEED") != nullptr) return 1;
  if (options.schedules == 1) return 1;  // an explicit replay
  if (const char* env = std::getenv("RCUA_SCHED_SCHEDULES")) {
    const std::uint64_t n = std::strtoull(env, nullptr, 0);
    if (n > 0) return n;
  }
  return options.schedules;
}

ExploreResult explore(const ExploreOptions& options,
                      const std::function<void(Scheduler&)>& scenario) {
  ExploreResult result;
  result.mode = options.mode;

  std::uint64_t base_seed = options.base_seed;
  std::uint64_t schedules = effective_schedule_budget(options);
  int preemption_bound = options.preemption_bound;
  bool replay = false;
  // Nightly deep-exploration knobs (see the header): a wider budget, a
  // higher preemption bound, or a shifted seed window, all without
  // recompiling the tests. An explicit replay (one schedule) keeps its
  // own seed.
  if (const char* env = std::getenv("RCUA_SCHED_PREEMPTION_BOUND")) {
    const long b = std::strtol(env, nullptr, 0);
    if (b >= 0) preemption_bound = static_cast<int>(b);
  }
  if (const char* env = std::getenv("RCUA_SCHED_BASE_SEED");
      env != nullptr && options.schedules != 1) {
    base_seed = std::strtoull(env, nullptr, 0);
  }
  if (const char* env = std::getenv("RCUA_SCHED_SEED")) {
    // Replay exactly one seed (random mode). DFS is self-reproducing:
    // rerunning the test re-enumerates the identical schedule sequence.
    base_seed = std::strtoull(env, nullptr, 0);
    replay = options.mode == ExploreMode::kRandom;
  }

  const auto run_one = [&](ScheduleStrategy& strategy,
                           std::uint64_t seed) -> bool {
    Scheduler sched(Scheduler::Options{options.max_steps});
    scenario(sched);
    sched.run(strategy);
    ++result.schedules_run;
    if (sched.violated() && !result.found) {
      result.found = true;
      result.seed = seed;
      result.message = sched.violation_message();
      result.trace = format_trace(sched.trace());
    }
    return sched.violated();
  };

  if (options.mode == ExploreMode::kRandom) {
    for (std::uint64_t i = 0; i < schedules; ++i) {
      const std::uint64_t seed = base_seed + i;
      RandomStrategy strategy(seed);
      if (run_one(strategy, seed) && options.stop_on_violation) break;
    }
  } else {
    DfsStrategy strategy(preemption_bound);
    for (std::uint64_t i = 0; i < schedules; ++i) {
      if (run_one(strategy, i) && options.stop_on_violation) break;
      if (!strategy.advance()) {
        result.exhausted = true;
        break;
      }
    }
  }

  if (result.found && !options.quiet) {
    std::fprintf(stderr,
                 "[sched] invariant violation after %llu schedule(s): %s\n",
                 static_cast<unsigned long long>(result.schedules_run),
                 result.message.c_str());
    if (options.mode == ExploreMode::kRandom && !replay) {
      std::fprintf(stderr,
                   "[sched] replay deterministically with: "
                   "RCUA_SCHED_SEED=%llu <test binary>\n",
                   static_cast<unsigned long long>(result.seed));
    }
    std::fprintf(stderr, "[sched] violating schedule:\n%s",
                 result.trace.c_str());
  }
  return result;
}

}  // namespace rcua::testing

#pragma once

#include <cstdint>

namespace rcua::rt {

class Cluster;

/// Chapel-style execution context: which cluster and locale the current
/// task is (conceptually) running on. Worker threads of a TaskPool set
/// this for the duration of each task; code outside any cluster sees the
/// default context (no cluster, locale 0).
struct TaskContext {
  Cluster* cluster = nullptr;
  std::uint32_t locale_id = 0;
  std::uint32_t worker_id = 0;
};

namespace detail {
/// Header-inline so Cluster::here() on the element path is one TLS load.
inline thread_local TaskContext tl_context;
}  // namespace detail

/// The calling thread's context (mutable; prefer LocaleScope).
inline TaskContext& this_task() noexcept { return detail::tl_context; }

/// RAII context switch — the moral equivalent of Chapel's `on` statement
/// body: inside the scope, `this_task()` reports the given placement.
class LocaleScope {
 public:
  LocaleScope(Cluster& cluster, std::uint32_t locale_id,
              std::uint32_t worker_id = 0) noexcept
      : saved_(detail::tl_context) {
    detail::tl_context = TaskContext{&cluster, locale_id, worker_id};
  }
  ~LocaleScope() { detail::tl_context = saved_; }
  LocaleScope(const LocaleScope&) = delete;
  LocaleScope& operator=(const LocaleScope&) = delete;

 private:
  TaskContext saved_;
};

}  // namespace rcua::rt

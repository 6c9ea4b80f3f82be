#include "runtime/comm.hpp"

#include <algorithm>

#include "obs/trace.hpp"
#include "runtime/fault_plan.hpp"
#include "testing/sched_point.hpp"
#include "util/env.hpp"

namespace rcua::rt {

namespace {
/// Default per-destination in-flight window when neither the ctor nor
/// RCUA_COMM_WINDOW picks one. Large enough that a whole-array scan's
/// flushes to one destination pipeline freely; small enough to model a
/// real NIC's bounded injection queue.
constexpr std::uint64_t kDefaultWindow = 32;
}  // namespace

CommLayer::CommLayer(std::uint32_t num_locales)
    : num_locales_(num_locales),
      registry_(num_locales),
      gets_(registry_.counter("rcua.comm.gets")),
      puts_(registry_.counter("rcua.comm.puts")),
      executes_(registry_.counter("rcua.comm.executes")),
      async_issued_(registry_.counter("rcua.comm.async_issued")),
      async_completed_(registry_.counter("rcua.comm.async_completed")),
      async_cancelled_(registry_.counter("rcua.comm.async_cancelled")),
      async_max_inflight_(registry_.counter("rcua.comm.async_max_inflight",
                                            0, obs::Agg::kMax)),
      cache_hits_(registry_.counter("rcua.cache.hits")),
      cache_misses_(registry_.counter("rcua.cache.misses")),
      cache_fills_(registry_.counter("rcua.cache.fills")),
      cache_evictions_(registry_.counter("rcua.cache.evictions")) {}

void CommLayer::record_execute(std::uint32_t src, std::uint32_t dst) noexcept {
  if (src == dst) return;
  executes_.add_at(src);
  obs::TraceSpan span("comm.execute", "comm", dst);
  sim::charge(sim::CostModel::get().remote_execute_ns);
  if (FaultPlan* plan = fault_plan_.load(std::memory_order_acquire)) {
    std::uint64_t delay = 0;
    if (plan->fires(FaultPlan::Action::kSlowRemote, dst, &delay) &&
        delay != 0) {
      sim::charge(static_cast<double>(delay));
    }
  }
}

void CommLayer::record_execute_async(std::uint32_t src,
                                     std::uint32_t dst) noexcept {
  if (src == dst) return;
  executes_.add_at(src);
}

std::uint64_t CommLayer::issue_execute(std::uint32_t src,
                                       std::uint32_t dst) noexcept {
  if (src == dst) return 0;
  executes_.add_at(src);
  obs::trace_instant("comm.execute_issue", "comm", dst);
  const auto& m = sim::CostModel::get();
  const double issue = std::min(m.async_issue_ns, m.remote_execute_ns);
  sim::charge(issue);
  return static_cast<std::uint64_t>(m.remote_execute_ns - issue) +
         slow_remote_delay(dst);
}

std::uint64_t CommLayer::slow_remote_delay(std::uint32_t dst) noexcept {
  if (FaultPlan* plan = fault_plan_.load(std::memory_order_acquire)) {
    std::uint64_t delay = 0;
    if (plan->fires(FaultPlan::Action::kSlowRemote, dst, &delay)) {
      return delay;
    }
  }
  return 0;
}

void CommLayer::note_async_issued(std::uint32_t locale) noexcept {
  async_issued_.add_at(locale);
}

void CommLayer::note_async_completed(std::uint32_t locale) noexcept {
  async_completed_.add_at(locale);
}

void CommLayer::note_async_cancelled(std::uint32_t locale) noexcept {
  async_cancelled_.add_at(locale);
}

void CommLayer::note_async_inflight(std::uint32_t locale,
                                    std::size_t depth) noexcept {
  async_max_inflight_.raise_at(locale, depth);
}

void CommLayer::note_cache_hit(std::uint32_t locale) noexcept {
  cache_hits_.add_at(locale);
  obs::trace_instant("cache.hit", "cache", locale);
}

void CommLayer::note_cache_miss(std::uint32_t locale) noexcept {
  cache_misses_.add_at(locale);
  obs::trace_instant("cache.miss", "cache", locale);
}

void CommLayer::note_cache_fill(std::uint32_t locale) noexcept {
  cache_fills_.add_at(locale);
  obs::trace_instant("cache.fill", "cache", locale);
}

void CommLayer::note_cache_evictions(std::uint32_t locale,
                                     std::uint64_t n) noexcept {
  if (n == 0) return;
  cache_evictions_.add_at(locale, n);
  obs::trace_instant("cache.evict", "cache", n);
}

AsyncComm::AsyncComm(CommLayer& comm, std::uint32_t here, Options options)
    : comm_(comm),
      here_(here),
      window_(options.window != 0
                  ? options.window
                  : static_cast<std::size_t>(
                        util::env_u64("RCUA_COMM_WINDOW", kDefaultWindow))),
      channels_(comm.num_locales()) {
  if (window_ == 0) window_ = 1;
}

AsyncComm::~AsyncComm() { cancel_pending(); }

void AsyncComm::issue(std::uint32_t dst, std::size_t weight,
                      double latency_ns,
                      std::shared_ptr<detail::AsyncOpCore> core,
                      std::function<void()> deliver) {
  Channel& ch = channels_[dst];
  // Bounded window: once `window_` ops are outstanding to this
  // destination, the issuer stalls — i.e. retires the oldest completion
  // first. Safe here because issuing happens inside whatever read-side
  // section pins the completion's targets (DESIGN.md §10).
  while (ch.inflight.size() >= window_) retire_head(ch);
  RCUA_SCHED_POINT("comm.async.issue");
  obs::trace_instant("comm.async.issue", "comm", dst);

  const auto& m = sim::CostModel::get();
  // The issue cost is a carve-out of the op's latency, not an addition:
  // at window=1 (or a lone op) issue + remainder sums to exactly the
  // synchronous charge, so async mode can never be slower (§10).
  const double issue_ns = std::min(m.async_issue_ns, latency_ns);
  sim::charge(issue_ns);
  // Consult the fault plan exactly once per op (rules are stateful).
  const std::uint64_t fault_delay = comm_.slow_remote_delay(dst);

  const std::uint64_t send_start = std::max(sim::now_v(), ch.wire_ready);
  const double wire_ns =
      m.bulk_copy_ns_per_elem * static_cast<double>(weight);
  ch.wire_ready = send_start + static_cast<std::uint64_t>(wire_ns);

  core->dst = dst;
  core->session = this;
  core->completion_vtime = ch.wire_ready +
                           static_cast<std::uint64_t>(latency_ns - issue_ns) +
                           fault_delay;

  ch.inflight.push_back(Pending{core, std::move(deliver)});
  issue_order_.push_back(std::move(core));
  ++stats_.issued;
  comm_.note_async_issued(here_);
  const std::size_t depth = ch.inflight.size();
  stats_.max_inflight = std::max(stats_.max_inflight, depth);
  comm_.note_async_inflight(here_, depth);
}

void AsyncComm::retire_head(Channel& ch) {
  Pending p = std::move(ch.inflight.front());
  ch.inflight.pop_front();
  RCUA_SCHED_POINT("comm.async.complete");
  obs::trace_instant("comm.async.complete", "comm", p.core->dst);
  // Mark completed BEFORE delivering: if the closure throws, the op
  // still counts as delivered exactly once (never re-run), and the
  // session destructor cancels — not delivers — whatever remains.
  p.core->completed = true;
  ++stats_.completed;
  comm_.note_async_completed(here_);
  if (!p.deliver) {
    sim::advance_to(p.core->completion_vtime);
    return;
  }
  if (!sim::enabled()) {
    p.deliver();
    return;
  }
  // The closure executes on the DESTINATION's timeline: measure its own
  // charges under a sub-clock and chain them per destination (one
  // remote locale processes its deliveries serially), so processing for
  // different destinations overlaps while the issuer only advances to
  // this op's processing-done time. With a single destination at
  // window=1 this degenerates to exactly the synchronous serialization.
  const std::uint64_t proc_start =
      std::max(p.core->completion_vtime, ch.proc_done);
  sim::TaskClock remote_clock;
  {
    sim::ClockScope scope(remote_clock);
    p.deliver();
  }
  ch.proc_done = proc_start + remote_clock.vtime_ns;
  sim::advance_to(ch.proc_done);
}

void AsyncComm::await(detail::AsyncOpCore& core) {
  Channel& ch = channels_[core.dst];
  while (!core.completed) {
    if (ch.inflight.empty()) {
      throw std::logic_error(
          "rt::AsyncComm: awaited op is neither completed nor in flight");
    }
    retire_head(ch);
  }
}

void AsyncComm::drain() {
  while (!issue_order_.empty()) {
    std::shared_ptr<detail::AsyncOpCore> core =
        std::move(issue_order_.front());
    issue_order_.pop_front();
    if (!core->completed && !core->cancelled) await(*core);
  }
}

std::size_t AsyncComm::cancel_pending() noexcept {
  std::size_t n = 0;
  for (Channel& ch : channels_) {
    for (Pending& p : ch.inflight) {
      p.core->cancelled = true;
      ++stats_.cancelled;
      comm_.note_async_cancelled(here_);
      ++n;
    }
    ch.inflight.clear();
  }
  issue_order_.clear();
  return n;
}

}  // namespace rcua::rt

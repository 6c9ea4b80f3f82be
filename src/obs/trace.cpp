#include "obs/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <ostream>
#include <tuple>

#include "platform/timing.hpp"
#include "sim/task_clock.hpp"
#include "testing/sched_point.hpp"
#include "util/env.hpp"

namespace rcua::obs {

namespace {

/// Events per thread ring.
constexpr std::size_t kRingCapacity = 8192;

/// Single-writer event ring. The owning thread is the only mutator;
/// snapshot/export read at quiescence (threads joined), so plain fields
/// suffice and a writer never waits.
struct Ring {
  std::uint32_t tid = 0;
  std::uint64_t next = 0;  ///< events ever recorded; slot = next % cap
  std::vector<TraceEvent> slots;
};

struct Global {
  std::mutex mu;
  std::vector<Ring*> rings;  // registration order; never freed (threads
                             // may exit while their events are pending)
  std::uint32_t next_tid = 1;
  std::uint64_t origin_ns = plat::now_ns();
  std::string export_path;  // RCUA_TRACE destination; empty = none
};

Global& g() {
  static Global* gp = new Global();  // immortal
  return *gp;
}

thread_local Ring* t_ring = nullptr;

Ring* ring_for_thread() {
  Ring* r = t_ring;
  if (r == nullptr) {
    auto& gl = g();
    r = new Ring();
    std::lock_guard<std::mutex> lock(gl.mu);
    r->tid = gl.next_tid++;
    r->slots.resize(kRingCapacity);
    gl.rings.push_back(r);
    t_ring = r;
  }
  return r;
}

/// Virtual ns when a sim::TaskClock is attached (deterministic under
/// the sched harness and in bench measured regions); wall ns since
/// process start otherwise.
std::uint64_t timestamp_ns() noexcept {
  if (sim::enabled()) return sim::now_v();
  return plat::now_ns() - g().origin_ns;
}

std::uint32_t current_tid(const Ring* r) noexcept {
#if defined(RCUA_SCHED_TEST) && RCUA_SCHED_TEST
  if (rcua::testing::sched_task_active()) {
    return static_cast<std::uint32_t>(rcua::testing::sched_task_id());
  }
#endif
  return r->tid;
}

void write_escaped(std::ostream& os, const char* s) {
  os << '"';
  for (; *s != '\0'; ++s) {
    const unsigned char c = static_cast<unsigned char>(*s);
    if (c == '"' || c == '\\') {
      os << '\\' << *s;
    } else if (c < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      os << buf;
    } else {
      os << *s;
    }
  }
  os << '"';
}

void export_at_exit() {
  auto& gl = g();
  if (gl.export_path.empty()) return;
  const std::uint64_t dropped = trace_dropped();
  const std::size_t events = trace_snapshot().size();
  if (trace_write_json(gl.export_path)) {
    std::fprintf(stderr,
                 "rcua: trace written to %s (%zu events, %llu dropped)\n",
                 gl.export_path.c_str(), events,
                 static_cast<unsigned long long>(dropped));
  } else {
    std::fprintf(stderr, "rcua: failed to write trace to %s\n",
                 gl.export_path.c_str());
  }
}

/// Startup knob: RCUA_TRACE=out.json enables recording and installs
/// the at-exit exporter. Lives in this TU so any instrumented code (which
/// references trace_record_slow) pulls the initializer into the link.
struct EnvInit {
  EnvInit() {
    auto& gl = g();
    if (auto path = rcua::util::env_str("RCUA_TRACE");
        path.has_value() && !path->empty()) {
      gl.export_path = *path;
      detail::g_trace_enabled.store(true, std::memory_order_relaxed);
      std::atexit(&export_at_exit);
    }
  }
};
EnvInit g_env_init;

}  // namespace

namespace detail {

void trace_record_slow(const char* name, const char* cat, char phase,
                       std::uint64_t arg) noexcept {
  Ring* r = ring_for_thread();
  TraceEvent& e = r->slots[r->next % r->slots.size()];
  e.name = name;
  e.cat = cat;
  e.ts_ns = timestamp_ns();
  e.arg = arg;
  e.tid = current_tid(r);
  e.phase = phase;
  ++r->next;
}

}  // namespace detail

void set_trace_enabled(bool on) noexcept {
  detail::g_trace_enabled.store(on, std::memory_order_relaxed);
}

void trace_reset() {
  auto& gl = g();
  std::lock_guard<std::mutex> lock(gl.mu);
  for (Ring* r : gl.rings) r->next = 0;
}

std::vector<TraceEvent> trace_snapshot() {
  auto& gl = g();
  std::lock_guard<std::mutex> lock(gl.mu);
  std::vector<Ring*> rings = gl.rings;
  std::sort(rings.begin(), rings.end(),
            [](const Ring* a, const Ring* b) { return a->tid < b->tid; });
  std::vector<TraceEvent> out;
  for (const Ring* r : rings) {
    const std::uint64_t cap = r->slots.size();
    const std::uint64_t count = std::min<std::uint64_t>(r->next, cap);
    for (std::uint64_t i = r->next - count; i < r->next; ++i) {
      out.push_back(r->slots[i % cap]);
    }
  }
  return out;
}

std::uint64_t trace_dropped() {
  auto& gl = g();
  std::lock_guard<std::mutex> lock(gl.mu);
  std::uint64_t dropped = 0;
  for (const Ring* r : gl.rings) {
    const std::uint64_t cap = r->slots.size();
    if (r->next > cap) dropped += r->next - cap;
  }
  return dropped;
}

std::size_t trace_capacity() noexcept { return kRingCapacity; }

void trace_write_json(std::ostream& os) {
  // Sort key (ts, tid, per-ring order): Chrome requires non-decreasing
  // ts within a tid for B/E nesting; per-ring order breaks ties so
  // same-virtual-timestamp events keep their causal recording order.
  struct Row {
    TraceEvent e;
    std::uint64_t seq;
  };
  std::vector<Row> rows;
  {
    auto& gl = g();
    std::lock_guard<std::mutex> lock(gl.mu);
    std::uint64_t seq = 0;
    std::vector<Ring*> rings = gl.rings;
    std::sort(rings.begin(), rings.end(), [](const Ring* a, const Ring* b) {
      return a->tid < b->tid;
    });
    for (const Ring* r : rings) {
      const std::uint64_t cap = r->slots.size();
      const std::uint64_t count = std::min<std::uint64_t>(r->next, cap);
      for (std::uint64_t i = r->next - count; i < r->next; ++i) {
        rows.push_back({r->slots[i % cap], seq++});
      }
    }
  }
  std::stable_sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    return std::tie(a.e.ts_ns, a.e.tid, a.seq) <
           std::tie(b.e.ts_ns, b.e.tid, b.seq);
  });

  os << "{\"traceEvents\":[";
  bool first = true;
  char ts_buf[32];
  for (const Row& row : rows) {
    const TraceEvent& e = row.e;
    if (!first) os << ",";
    first = false;
    os << "\n{\"name\":";
    write_escaped(os, e.name != nullptr ? e.name : "?");
    os << ",\"cat\":";
    write_escaped(os, e.cat != nullptr ? e.cat : "rcua");
    os << ",\"ph\":\"" << e.phase << "\"";
    if (e.phase == 'i') os << ",\"s\":\"t\"";
    // Chrome timestamps are microseconds; three decimals keeps them
    // nanosecond-exact.
    std::snprintf(ts_buf, sizeof(ts_buf), "%.3f",
                  static_cast<double>(e.ts_ns) / 1000.0);
    os << ",\"pid\":0,\"tid\":" << e.tid << ",\"ts\":" << ts_buf;
    if (e.arg != 0) os << ",\"args\":{\"v\":" << e.arg << "}";
    os << "}";
  }
  os << "\n]}\n";
}

bool trace_write_json(const std::string& path) {
  std::ofstream out(path);
  if (!out.is_open()) return false;
  trace_write_json(out);
  return out.good();
}

}  // namespace rcua::obs

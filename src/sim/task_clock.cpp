#include "sim/task_clock.hpp"

#include "sim/cost_model.hpp"

namespace rcua::sim::detail {

void touch_block_slow(TaskClock& c, std::uint64_t block_id, bool remote,
                      bool is_write, double extra_on_miss_ns) noexcept {
  const CostModel& m = CostModel::get();
  double ns;
  if (c.last_block_id == block_id) {
    ns = remote ? m.remote_stream_ns : m.local_cached_ns;
  } else {
    ns = (remote ? (is_write ? m.remote_put_ns : m.remote_get_ns)
                 : m.dram_miss_ns) +
         extra_on_miss_ns;
  }
  c.last_block_id = block_id;
  c.vtime_ns += static_cast<std::uint64_t>(ns);
  ++c.charge_events;
}

}  // namespace rcua::sim::detail

#include "sim/cost_model.hpp"

#include "util/env.hpp"

namespace rcua::sim {

void CostModel::load_env() {
  using util::env_f64;
  local_cached_ns = env_f64("RCUA_COST_LOCAL_CACHED_NS", local_cached_ns);
  dram_miss_ns = env_f64("RCUA_COST_DRAM_MISS_NS", dram_miss_ns);
  remote_get_ns = env_f64("RCUA_COST_REMOTE_GET_NS", remote_get_ns);
  remote_put_ns = env_f64("RCUA_COST_REMOTE_PUT_NS", remote_put_ns);
  remote_stream_ns = env_f64("RCUA_COST_REMOTE_STREAM_NS", remote_stream_ns);
  bulk_copy_ns_per_elem =
      env_f64("RCUA_COST_BULK_COPY_NS_PER_ELEM", bulk_copy_ns_per_elem);
  alloc_block_ns = env_f64("RCUA_COST_ALLOC_BLOCK_NS", alloc_block_ns);
  spine_copy_ns_per_block =
      env_f64("RCUA_COST_SPINE_COPY_NS_PER_BLOCK", spine_copy_ns_per_block);
  cache_lookup_ns = env_f64("RCUA_COST_CACHE_LOOKUP_NS", cache_lookup_ns);
  cache_copy_ns_per_elem =
      env_f64("RCUA_COST_CACHE_COPY_NS_PER_ELEM", cache_copy_ns_per_elem);
  remote_execute_ns = env_f64("RCUA_COST_REMOTE_EXECUTE_NS", remote_execute_ns);
  task_spawn_ns = env_f64("RCUA_COST_TASK_SPAWN_NS", task_spawn_ns);
  async_issue_ns = env_f64("RCUA_COST_ASYNC_ISSUE_NS", async_issue_ns);
  atomic_load_ns = env_f64("RCUA_COST_ATOMIC_LOAD_NS", atomic_load_ns);
  atomic_rmw_ns = env_f64("RCUA_COST_ATOMIC_RMW_NS", atomic_rmw_ns);
  rmw_transfer_ns = env_f64("RCUA_COST_RMW_TRANSFER_NS", rmw_transfer_ns);
  lock_handoff_ns = env_f64("RCUA_COST_LOCK_HANDOFF_NS", lock_handoff_ns);
  epoch_drain_ns = env_f64("RCUA_COST_EPOCH_DRAIN_NS", epoch_drain_ns);
  chapel_dsi_ns = env_f64("RCUA_COST_CHAPEL_DSI_NS", chapel_dsi_ns);
  rcua_index_ns = env_f64("RCUA_COST_RCUA_INDEX_NS", rcua_index_ns);
  rcua_spine_miss_ns =
      env_f64("RCUA_COST_RCUA_SPINE_MISS_NS", rcua_spine_miss_ns);
  qsbr_checkpoint_per_thread_ns = env_f64(
      "RCUA_COST_QSBR_CHECKPOINT_PER_THREAD_NS", qsbr_checkpoint_per_thread_ns);
  qsbr_defer_ns = env_f64("RCUA_COST_QSBR_DEFER_NS", qsbr_defer_ns);
}

CostModelOverride::CostModelOverride() : saved_(CostModel::mutable_instance()) {}

CostModelOverride::~CostModelOverride() {
  CostModel::mutable_instance() = saved_;
}

}  // namespace rcua::sim

#pragma once

namespace rcua::sim {

/// The virtual-time cost model: every charge the simulation makes is a
/// named constant here, in nanoseconds of *virtual* time.
///
/// This table is the substitute for the paper's Cray XC50 testbed (32
/// nodes, 44-core Broadwell, Aries interconnect). The real algorithm code
/// decides *which* charges occur — retries, remote blocks touched, lock
/// acquisitions, epoch drains — and this model decides how much each one
/// costs. Defaults are calibrated so the benchmark harness reproduces the
/// shapes and headline ratios of the paper's Figures 2-4 (see
/// EXPERIMENTS.md for the calibration notes). Tests override fields
/// in-process through CostModelOverride.
struct CostModel {
  // -- Memory hierarchy -----------------------------------------------
  /// Access to a line already cached by this task (same block as the
  /// previous access).
  double local_cached_ns = 1.5;
  /// First access to a local block (DRAM / LLC miss).
  double dram_miss_ns = 70.0;
  /// One-sided GET of a remote element, first touch of that block.
  double remote_get_ns = 4000.0;
  /// One-sided PUT of a remote element, first touch of that block.
  double remote_put_ns = 4000.0;
  /// Subsequent consecutive access to the same remote block: the NIC
  /// pipelines back-to-back small messages to one target.
  double remote_stream_ns = 1000.0;
  /// Aggregated bulk copy, per element (used by ChapelArray's
  /// copy-into-larger-storage resize path).
  double bulk_copy_ns_per_elem = 8.0;
  /// Allocating one block on a locale's heap.
  double alloc_block_ns = 3000.0;
  /// Copying one block *pointer* while cloning a snapshot spine.
  double spine_copy_ns_per_block = 1.0;
  /// Probing the per-locale block cache (rt::BlockCache): one hash
  /// lookup plus the version/generation tag compare. Paid on every
  /// cache-eligible access, hit or miss — it is what a miss costs over
  /// the uncached path.
  double cache_lookup_ns = 25.0;
  /// Copying one element between a cached block copy and the caller
  /// (node-local memcpy bandwidth; cheaper than bulk_copy_ns_per_elem,
  /// which models wire bandwidth).
  double cache_copy_ns_per_elem = 2.0;

  // -- Tasking and communication --------------------------------------
  /// Spawning a task on a *remote* locale (active message + scheduling).
  double remote_execute_ns = 60000.0;
  /// Spawning/joining one task in a coforall on the local locale.
  double task_spawn_ns = 60000.0;
  /// CPU-side cost of *injecting* one asynchronous remote operation
  /// (descriptor build + NIC doorbell). Modeled as a carve-out of the
  /// op's latency, never an addition: an async issue charges
  /// min(async_issue_ns, latency) and the remainder lands in the
  /// completion time, so at window=1 async totals exactly match the
  /// synchronous charges and pipelining can only win (DESIGN.md §10).
  double async_issue_ns = 500.0;

  // -- Atomics and locks ----------------------------------------------
  /// Atomic load with acquire/seq_cst ordering.
  double atomic_load_ns = 2.0;
  /// Uncontended seq_cst read-modify-write.
  double atomic_rmw_ns = 20.0;
  /// *Service time* of one RMW on a heavily contended line: the cache
  /// line must be transferred exclusively between cores/sockets per
  /// operation, so contended RMWs serialize at this rate. This is the
  /// term that produces the paper's EBR collapse (EpochReaders are
  /// hammered by 44 tasks per node).
  double rmw_transfer_ns = 1800.0;
  /// Service time of one cluster-lock handoff (lock word ping-pong plus
  /// network hop for remote acquirers). SyncArray serializes here.
  double lock_handoff_ns = 1200.0;
  /// A writer waiting for the reader counter of the retired epoch parity
  /// to drain (EBR RCU_Write lines 6-7).
  double epoch_drain_ns = 5000.0;

  // -- Implementation-specific translation overheads ------------------
  /// ChapelArray (BlockDist) dsiAccess: domain query, per-dimension
  /// divide, locality test, wide-pointer arithmetic.
  double chapel_dsi_ns = 750.0;
  /// RCUArray Index(): privatized-copy lookup plus div/mod.
  double rcua_index_ns = 50.0;
  /// Extra snapshot-spine misses RCUArray pays on a *random* access
  /// (privatized instance, snapshot pointer, block table — three chains
  /// that the direct address computation of BlockDist does not have).
  double rcua_spine_miss_ns = 850.0;
  /// QSBR checkpoint: scanning one live participant's slot.
  double qsbr_checkpoint_per_thread_ns = 4.0;
  /// QSBR checkpoint fixed part (observing StateEpoch, list split).
  double qsbr_defer_ns = 50.0;

  /// The process-wide instance (mutable for tests and calibration).
  /// Header-inline and constant-initialized, so a charge site's lookup
  /// is a plain load.
  static CostModel& mutable_instance() {
    static CostModel model;
    return model;
  }
  /// Read-only accessor used by charge sites.
  static const CostModel& get() { return mutable_instance(); }
};

/// RAII guard that saves and restores the global cost model; used by tests
/// that poke individual fields.
class CostModelOverride {
 public:
  CostModelOverride();
  ~CostModelOverride();
  CostModelOverride(const CostModelOverride&) = delete;
  CostModelOverride& operator=(const CostModelOverride&) = delete;

 private:
  CostModel saved_;
};

}  // namespace rcua::sim

#pragma once

/// Umbrella header for the RCUArray library.
///
/// Layering (bottom to top):
///   platform/ — alignment, backoff, locks, RNG, timing
///   sim/      — virtual-time cluster performance model
///   runtime/  — the Chapel-like substrate: cluster, locales, tasking,
///               comm, block cache, cluster-wide lock
///   reclaim/  — EBR (paper Algorithm 1), QSBR (Algorithm 2), hazard ptrs
///   core/     — RCUArray (Algorithm 3), Snapshot/Block, RcuCell
///   baselines/— UnsafeArray (ChapelArray), SyncArray, RwlockArray,
///               HazardArray
///   containers/ — DistVector, DistIdTable, DistHashMap

#include "algorithms/histogram.hpp"
#include "algorithms/scan.hpp"
#include "baselines/hazard_array.hpp"
#include "baselines/rwlock_array.hpp"
#include "baselines/sync_array.hpp"
#include "baselines/unsafe_array.hpp"
#include "containers/dist_bitset.hpp"
#include "containers/dist_hash_map.hpp"
#include "containers/dist_id_table.hpp"
#include "containers/dist_vector.hpp"
#include "core/dsi.hpp"
#include "core/rcu_array.hpp"
#include "core/rcu_cell.hpp"
#include "platform/align.hpp"
#include "platform/atomics.hpp"
#include "platform/backoff.hpp"
#include "platform/rng.hpp"
#include "platform/spinlock.hpp"
#include "platform/timing.hpp"
#include "platform/topology.hpp"
#include "reclaim/ebr.hpp"
#include "reclaim/hazard.hpp"
#include "reclaim/qsbr.hpp"
#include "runtime/aggregator.hpp"
#include "runtime/cluster.hpp"
#include "runtime/collectives.hpp"
#include "runtime/global_lock.hpp"
#include "runtime/this_task.hpp"
#include "sim/cost_model.hpp"
#include "sim/resource.hpp"
#include "sim/task_clock.hpp"

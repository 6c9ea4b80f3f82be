#include "reclaim/hazard.hpp"

#include <algorithm>

#include "sim/cost_model.hpp"
#include "sim/task_clock.hpp"

namespace rcua::reclaim {

HazardDomain& HazardDomain::global() {
  static HazardDomain* dom = new HazardDomain;  // immortal
  return *dom;
}

void HazardDomain::retire_raw(void* obj, void (*deleter)(void*)) {
  Record& rec = local_record();
  rec.retired.push_back({obj, deleter});
  retired_total_.value.fetch_add(1, std::memory_order_relaxed);
  sim::charge(sim::CostModel::get().atomic_rmw_ns);
  RCUA_SCHED_POINT("hazard.retire");
  if (rec.retired.size() >= retire_threshold_) scan();
}

std::size_t HazardDomain::scan() {
  RCUA_SCHED_POINT("hazard.scan");
  Record& rec = local_record();
  // The StoreLoad edge between the caller's unpublish of everything it
  // retired and the slot loads below, which also lets the bank's index
  // and chunk loads see every record (the era scan's argument, DESIGN.md
  // §13).
  std::atomic_thread_fence(std::memory_order_seq_cst);
  // Snapshot every protected pointer.
  std::vector<void*> protected_ptrs;
  records_.for_each([&](std::size_t, const Record& r) {
    for (const auto& s : r.slots) {
      if (void* p = s.load(std::memory_order_seq_cst)) {
        protected_ptrs.push_back(p);
      }
    }
  });
  std::sort(protected_ptrs.begin(), protected_ptrs.end());

  std::size_t freed = 0;
  auto& retired = rec.retired;
  for (std::size_t i = 0; i < retired.size();) {
    if (std::binary_search(protected_ptrs.begin(), protected_ptrs.end(),
                           retired[i].ptr)) {
      ++i;
      continue;
    }
    retired[i].deleter(retired[i].ptr);
    retired[i] = retired.back();
    retired.pop_back();
    ++freed;
  }
  freed_total_.value.fetch_add(freed, std::memory_order_relaxed);
  sim::charge(sim::CostModel::get().atomic_load_ns *
              static_cast<double>(protected_ptrs.size() + 4));
  return freed;
}

void HazardDomain::flush_unsafe() {
  records_.for_each([](std::size_t, Record& r) {
    for (auto& entry : r.retired) entry.deleter(entry.ptr);
    r.retired.clear();
  });
}

HazardDomain::~HazardDomain() { flush_unsafe(); }

}  // namespace rcua::reclaim

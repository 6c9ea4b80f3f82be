#pragma once

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "platform/align.hpp"
#include "platform/topology.hpp"
#include "reclaim/retire_list.hpp"
#include "testing/sched_point.hpp"

namespace rcua::reclaim {

/// Classic hazard pointers (Michael 2004), the related-work baseline the
/// paper's introduction positions EBR/QSBR against: "a balanced but
/// noticeable overhead to both read and write operations" and a TLS
/// requirement Chapel lacks. Used here in ablation benchmarks and as a
/// protection policy for HazardArray.
///
/// Standard design: each thread owns a record with a small fixed number
/// of hazard slots plus a private retired list; `retire()` scans all
/// records' slots once the retired list exceeds a threshold and frees
/// every pointer not currently protected. A thread's record is its slot
/// in the shared thread-owned bank (plat::ReaderBank), so a thread that
/// exits hands its record, retired list included, to the next thread
/// that takes its reader index.
class HazardDomain {
 public:
  static constexpr std::size_t kSlotsPerThread = 4;

  HazardDomain() = default;
  HazardDomain(const HazardDomain&) = delete;
  HazardDomain& operator=(const HazardDomain&) = delete;
  ~HazardDomain();

  static HazardDomain& global();

  struct alignas(plat::kCacheLine) Record {
    std::atomic<void*> slots[kSlotsPerThread] = {};
    // Owner-private retired list (only the owner pushes; scan is local).
    struct Retired {
      void* ptr;
      void (*deleter)(void*);
    };
    std::vector<Retired> retired;
  };

  /// RAII protection of a single pointer loaded from `src`: loops
  /// publish-then-verify until the published value is stable, so the
  /// object cannot be freed while the guard lives. `slot` picks one of
  /// the record's kSlotsPerThread hazard slots; a larger value throws
  /// std::out_of_range.
  template <typename T>
  class Guard {
   public:
    Guard(HazardDomain& dom, const std::atomic<T*>& src, std::size_t slot = 0)
        : slot_(checked_slot(slot)), rec_(dom.local_record()) {
      T* p = src.load(std::memory_order_acquire);
      for (;;) {
        rec_.slots[slot_].store(p, std::memory_order_seq_cst);
        RCUA_SCHED_POINT("hazard.guard.published");
        T* again = src.load(std::memory_order_seq_cst);
        if (again == p) break;
        p = again;
      }
      ptr_ = p;
      if (RCUA_SCHED_MUT(hazard_clear_before_access)) {
        // MUTATION: the pointer is in hand, so drop the slot before the
        // guarded accesses — the premature hazard release. The very next
        // retire+scan sees no protection and frees the object under the
        // live guard (tests/test_sched_hazard.cpp).
        rec_.slots[slot_].store(nullptr, std::memory_order_seq_cst);
        RCUA_SCHED_POINT("hazard.guard.cleared_early");
      }
    }
    ~Guard() { rec_.slots[slot_].store(nullptr, std::memory_order_release); }
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;

    [[nodiscard]] T* get() const noexcept { return ptr_; }
    T* operator->() const noexcept { return ptr_; }
    T& operator*() const noexcept { return *ptr_; }

   private:
    static std::size_t checked_slot(std::size_t slot) {
      if (slot >= kSlotsPerThread) {
        throw std::out_of_range(
            "HazardDomain::Guard: hazard slot out of range");
      }
      return slot;
    }

    std::size_t slot_;
    Record& rec_;
    T* ptr_ = nullptr;
  };

  /// Retires `obj` for deletion once unprotected. Triggers a scan when
  /// the caller's retired list reaches the threshold.
  template <typename T>
  void retire(T* obj) {
    retire_raw(obj, &delete_as<T>);
  }

  void retire_raw(void* obj, void (*deleter)(void*));

  /// Scans all hazard slots and frees every retired object of the calling
  /// thread that no slot protects. Returns the number freed.
  std::size_t scan();

  /// Frees everything retired by every record. ONLY safe when no guard is
  /// live (shutdown/test teardown). Records of other threads are drained
  /// too, so their owners must be quiescent.
  void flush_unsafe();

  /// The calling thread's record.
  Record& local_record() { return records_.mine(); }

  void set_retire_threshold(std::size_t n) noexcept { retire_threshold_ = n; }

  [[nodiscard]] std::uint64_t retired_count() const noexcept {
    return retired_total_.value.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t freed_count() const noexcept {
    return freed_total_.value.load(std::memory_order_relaxed);
  }

 private:
  plat::ReaderBank<Record> records_;
  std::size_t retire_threshold_ = 64;
  plat::CacheAligned<std::atomic<std::uint64_t>> retired_total_{0ULL};
  plat::CacheAligned<std::atomic<std::uint64_t>> freed_total_{0ULL};
};

}  // namespace rcua::reclaim

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

#include "platform/spinlock.hpp"

namespace rcua::reclaim {

/// The typed deleter every retired object carries: frees `p` as an `O`.
template <typename O>
void delete_as(void* p) {
  delete static_cast<O*>(p);
}

/// A type-erased deferred deletion: the triple (m, e, t) from the paper's
/// QSBR DeferList, minus the insertion time t, which the paper notes is
/// only needed for the correctness proof ("is not required in the actual
/// implementation", §III-B).
///
/// Nodes form an intrusive singly-linked LIFO list. Because the safe epoch
/// is derived from a monotonically increasing StateEpoch at insertion time
/// and insertions are thread-local, the list is sorted by safe epoch in
/// descending order from the head (Lemma 4), so the reclaimable portion is
/// always a suffix.
struct DeferNode {
  DeferNode* next = nullptr;
  std::uint64_t safe_epoch = 0;
  void (*deleter)(void*) = nullptr;
  void* object = nullptr;

  void run_and_dispose() {
    if (deleter != nullptr) deleter(object);
    delete this;
  }
};

/// Creates a defer node that invokes an arbitrary stateless callback.
inline DeferNode* make_defer_node_fn(void (*fn)(void*), void* arg,
                                     std::uint64_t safe_epoch) {
  auto* n = new DeferNode;
  n->safe_epoch = safe_epoch;
  n->object = arg;
  n->deleter = fn;
  return n;
}

/// Creates a defer node that deletes `obj` via `delete` when reclaimed.
template <typename T>
DeferNode* make_defer_node(T* obj, std::uint64_t safe_epoch) {
  return make_defer_node_fn(&delete_as<T>, obj, safe_epoch);
}

/// Thread-owned defer list. Not thread-safe by design: each QSBR slot
/// owns exactly one and only its thread touches it (the parallel-safety of
/// QSBR reclamation in the paper comes precisely from this ownership).
class DeferList {
 public:
  DeferList() = default;
  DeferList(const DeferList&) = delete;
  DeferList& operator=(const DeferList&) = delete;
  DeferList(DeferList&& other) noexcept
      : head_(std::exchange(other.head_, nullptr)),
        size_(std::exchange(other.size_, 0)) {}
  ~DeferList() { free_all(); }

  /// LIFO push; `node->safe_epoch` must be >= the current head's (enforced
  /// by construction: epochs are monotone and pushes are thread-local).
  void push(DeferNode* node) noexcept {
    node->next = head_;
    head_ = node;
    ++size_;
  }

  /// Splits off and returns the suffix whose safe epoch is <= `min_epoch`
  /// (the paper's popLessEqual). The returned chain is owned by the caller.
  DeferNode* pop_less_equal(std::uint64_t min_epoch) noexcept {
    DeferNode** link = &head_;
    while (*link != nullptr && (*link)->safe_epoch > min_epoch) {
      link = &(*link)->next;
    }
    DeferNode* suffix = *link;
    *link = nullptr;
    for (DeferNode* n = suffix; n != nullptr; n = n->next) --size_;
    return suffix;
  }

  /// Detaches the whole list (shutdown flush).
  DeferNode* pop_all() noexcept {
    DeferNode* all = head_;
    head_ = nullptr;
    size_ = 0;
    return all;
  }

  /// Runs and disposes an entire detached chain.
  static void reclaim_chain(DeferNode* head) {
    while (head != nullptr) {
      DeferNode* next = head->next;
      head->run_and_dispose();
      head = next;
    }
  }

  /// Runs every pending deleter immediately. Only safe when no other
  /// thread can still hold references (shutdown / quiescent points).
  void free_all() { reclaim_chain(pop_all()); }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return head_ == nullptr; }
  [[nodiscard]] const DeferNode* head() const noexcept { return head_; }

 private:
  DeferNode* head_ = nullptr;
  std::size_t size_ = 0;
};

/// What one RetireList sweep or free_all freed.
struct Freed {
  std::size_t objects = 0;
  std::size_t bytes = 0;
};

/// The retire list of every reclaimer whose retired objects wait on a
/// tag that proves no reader still holds them: EBR's overflow list,
/// tagged with the retire parity and the reader columns seen empty since
/// (ebr.hpp, DESIGN.md §8), and the era reclaimers' list, tagged with the
/// [birth, retire] lifetime (eras.hpp, DESIGN.md §13). Any thread may
/// push or sweep; one spinlock serializes them. Bytes are counted so
/// callers can feed locale accounting and the StallMonitor budget.
///
/// QSBR's DeferList above is not one of these: it is owner-pushed and
/// sorted by safe epoch (Lemma 4), so it reclaims a suffix, unlocked.
template <typename Tag>
class RetireList {
 public:
  RetireList() = default;
  RetireList(const RetireList&) = delete;
  RetireList& operator=(const RetireList&) = delete;
  ~RetireList() { free_all(); }

  /// Adds `(deleter, obj)`, `bytes` large, tagged `tag`. Returns the
  /// pending bytes this push brought the list to.
  std::size_t push(void (*deleter)(void*), void* obj, std::size_t bytes,
                   Tag tag) {
    {
      std::lock_guard<plat::Spinlock> guard(lock_);
      entries_.push_back({deleter, obj, bytes, tag});
    }
    pending_objects_.fetch_add(1, std::memory_order_relaxed);
    return pending_bytes_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  }

  /// Runs `observe()` under the list lock, then unlinks every entry
  /// whose tag `ready(Tag&)` accepts. Every entry present was pushed
  /// before the observation, so it counts for all of them; the tag is
  /// mutable, so `ready` can bank an observation in it for a later
  /// sweep. The unlinked deleters run once the lock is released (they
  /// may be heavy, or push onto this list), and only then do the
  /// pending counts drop.
  template <typename Observe, typename Ready>
  Freed sweep(Observe&& observe, Ready&& ready) {
    std::vector<Entry> unlinked;
    {
      std::lock_guard<plat::Spinlock> guard(lock_);
      observe();
      for (std::size_t i = 0; i < entries_.size();) {
        if (!ready(entries_[i].tag)) {
          ++i;
          continue;
        }
        unlinked.push_back(entries_[i]);
        entries_[i] = entries_.back();
        entries_.pop_back();
      }
    }
    return run_deleters(unlinked);
  }

  /// Frees every entry unconditionally. ONLY safe when no reader can
  /// hold one: teardown under external quiescence, or after grace
  /// periods that outlast every such reader.
  Freed free_all() {
    std::vector<Entry> all;
    {
      std::lock_guard<plat::Spinlock> guard(lock_);
      all.swap(entries_);
    }
    return run_deleters(all);
  }

  [[nodiscard]] std::size_t pending_objects() const noexcept {
    return pending_objects_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t pending_bytes() const noexcept {
    return pending_bytes_.load(std::memory_order_relaxed);
  }

 private:
  struct Entry {
    void (*deleter)(void*);
    void* obj;
    std::size_t bytes;
    Tag tag;
  };

  Freed run_deleters(const std::vector<Entry>& unlinked) {
    Freed freed;
    for (const Entry& e : unlinked) {
      e.deleter(e.obj);
      freed.objects += 1;
      freed.bytes += e.bytes;
    }
    if (freed.objects != 0) {
      pending_objects_.fetch_sub(freed.objects, std::memory_order_relaxed);
      pending_bytes_.fetch_sub(freed.bytes, std::memory_order_relaxed);
    }
    return freed;
  }

  plat::Spinlock lock_;
  std::vector<Entry> entries_;  // guarded by lock_
  std::atomic<std::size_t> pending_objects_{0};
  std::atomic<std::size_t> pending_bytes_{0};
};

}  // namespace rcua::reclaim

#pragma once

#include <cstdint>
#include <utility>

namespace rcua::reclaim {

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

/// Creates a defer node that deletes `obj` via `delete` when reclaimed.
template <typename T>
DeferNode* make_defer_node(T* obj, std::uint64_t safe_epoch) {
  auto* n = new DeferNode;
  n->safe_epoch = safe_epoch;
  n->object = obj;
  n->deleter = [](void* p) { delete static_cast<T*>(p); };
  return n;
}

/// Creates a defer node that invokes an arbitrary stateless callback.
inline DeferNode* make_defer_node_fn(void (*fn)(void*), void* arg,
                                     std::uint64_t safe_epoch) {
  auto* n = new DeferNode;
  n->safe_epoch = safe_epoch;
  n->object = arg;
  n->deleter = fn;
  return n;
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

}  // namespace rcua::reclaim

#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <utility>

#include "reclaim/ebr.hpp"

namespace rcua {

/// A single RCU-protected object using the paper's EBR (Algorithm 1),
/// decoupled from RCUArray — the "future work" the conclusion names
/// ("the decoupling of EBR from RCUArray can be performed easily ... and
/// can even be used in other languages that lack official support for
/// TLS"). reclaim::Ebr finds each reader's slot through a thread-local
/// index; the conclusion's TLS-free form is reclaim::LegacyEbr.
///
/// Readers run a function against a stable snapshot of the object;
/// writers copy-mutate-swap and synchronously reclaim the old version
/// after the read-side drains (classic RCU write-side responsibility).
template <typename T>
class RcuCell {
 public:
  explicit RcuCell(T initial = T{})
      : ptr_(new T(std::move(initial))) {}

  ~RcuCell() { delete ptr_.load(std::memory_order_acquire); }

  RcuCell(const RcuCell&) = delete;
  RcuCell& operator=(const RcuCell&) = delete;

  /// Runs `fn(const T&)` inside a read-side critical section and returns
  /// its result. The reference passed to `fn` is only valid inside `fn`.
  template <typename F>
  decltype(auto) read(F&& fn) const {
    return ebr_.read([&]() -> decltype(auto) {
      return std::forward<F>(fn)(
          *ptr_.load(std::memory_order_acquire));
    });
  }

  /// Copies the current value out.
  [[nodiscard]] T load() const {
    return read([](const T& v) { return v; });
  }

  /// RCU_Write: clones the current value, applies `mutate(T&)` to the
  /// clone, publishes it, waits for readers of the old version, deletes
  /// it. Writers serialize on an internal lock (the paper's WriteLock).
  template <typename F>
  void update(F&& mutate) {
    std::lock_guard<std::mutex> guard(write_mu_);
    T* old_snapshot = ptr_.load(std::memory_order_relaxed);  // line 1
    T* fresh = new T(*old_snapshot);                         // line 2
    std::forward<F>(mutate)(*fresh);                         // line 3
    ptr_.store(fresh, std::memory_order_release);            // line 4
    const auto epoch = ebr_.advance_epoch();                 // line 5
    ebr_.wait_for_readers(epoch);                            // lines 6-7
    delete old_snapshot;                                     // line 8
  }

  /// Replaces the value outright (update() with assignment).
  void store(T value) {
    update([&](T& v) { v = std::move(value); });
  }

  [[nodiscard]] const reclaim::Ebr& ebr() const noexcept { return ebr_; }

 private:
  mutable reclaim::Ebr ebr_;
  std::atomic<T*> ptr_;
  std::mutex write_mu_;
};

}  // namespace rcua

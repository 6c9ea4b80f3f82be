#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <new>

#include "runtime/cluster.hpp"

namespace rcua {

/// One fixed-capacity block of array storage, allocated "on" a specific
/// locale (Listing 1: each block is an array with a capacity of
/// BlockSize).
///
/// Blocks are the unit of distribution *and* the unit of recycling: a
/// snapshot clone shares block pointers rather than copying elements
/// (Lemma 6), so assignments through outstanding references stay visible
/// across resizes. Blocks are therefore never owned by a snapshot — the
/// RCUArray owns them and frees them at destruction.
///
/// A block is one 64-byte-aligned allocation: a header line (`capacity_`,
/// `owner_`, `id_`, `generation_`), then the slots from the next line
/// boundary on. So `data()` is `this + 64`, and an element's address is
/// one load (the spine's block pointer) away. `create` makes a block and
/// `delete` frees it; with the constructor and destructor private, no
/// block lives on the stack or inside a container.
template <typename T>
class alignas(64) Block {
  static_assert(alignof(T) <= 64, "slots start on a 64-byte boundary");

 public:
  /// Allocates a block of `capacity` value-initialized elements on
  /// `owner` and counts its element bytes in the locale's ledger. If an
  /// element constructor throws, nothing is counted and nothing leaks.
  [[nodiscard]] static Block* create(rt::Locale& owner,
                                     std::size_t capacity) {
    static_assert(alignof(Block) == 64 && sizeof(Block) == 64,
                  "the header is one cache line");
    constexpr std::size_t kMaxCapacity =
        (std::numeric_limits<std::size_t>::max() - sizeof(Block)) / sizeof(T);
    if (capacity > kMaxCapacity) throw std::bad_array_new_length();
    void* mem = ::operator new(sizeof(Block) + capacity * sizeof(T), kAlign);
    try {
      std::uninitialized_value_construct_n(
          reinterpret_cast<T*>(static_cast<std::byte*>(mem) + sizeof(Block)),
          capacity);
    } catch (...) {
      ::operator delete(mem, kAlign);
      throw;
    }
    return ::new (mem) Block(owner, capacity);
  }

  /// `delete b` destroys the slots and the header, then frees the one
  /// allocation. The caller books `note_free`.
  static void operator delete(Block* b, std::destroying_delete_t) noexcept {
    std::destroy_n(b->data(), b->capacity_);
    b->~Block();
    ::operator delete(static_cast<void*>(b), kAlign);
  }

  Block(const Block&) = delete;
  Block& operator=(const Block&) = delete;

  T& operator[](std::size_t i) noexcept {
    assert(i < capacity_);
    return data()[i];
  }
  const T& operator[](std::size_t i) const noexcept {
    assert(i < capacity_);
    return data()[i];
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::uint32_t owner() const noexcept { return owner_; }
  /// Globally unique block identity (drives the locality cost model).
  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }

  /// Write-generation stamp for the per-locale block cache (DESIGN.md
  /// §11): writers bump it (release) AFTER their element store lands, and
  /// a cache fill samples it (acquire) BEFORE copying — so a cached copy
  /// holding a pre-write value is always tagged with a pre-write
  /// generation, and the next lookup's compare invalidates it. No
  /// broadcast: the stamp lives with the block, not with any cache.
  [[nodiscard]] std::uint64_t generation() const noexcept {
    return generation_.load(std::memory_order_acquire);
  }
  void bump_generation() noexcept {
    generation_.fetch_add(1, std::memory_order_release);
  }
  [[nodiscard]] T* data() noexcept { return reinterpret_cast<T*>(this + 1); }
  [[nodiscard]] const T* data() const noexcept {
    return reinterpret_cast<const T*>(this + 1);
  }

  /// Number of live Block<T> instances — leak assertions in tests.
  static std::uint64_t live_count() noexcept {
    return live_.load(std::memory_order_relaxed);
  }

 private:
  static constexpr std::align_val_t kAlign{64};

  Block(rt::Locale& owner, std::size_t capacity) noexcept
      : capacity_(capacity),
        owner_(owner.id()),
        id_(next_id_.fetch_add(1, std::memory_order_relaxed)) {
    owner.note_alloc(capacity * sizeof(T));
    live_.fetch_add(1, std::memory_order_relaxed);
  }

  ~Block() { live_.fetch_sub(1, std::memory_order_relaxed); }

  std::size_t capacity_;
  std::uint32_t owner_;
  std::uint64_t id_;
  std::atomic<std::uint64_t> generation_{0};

  static inline std::atomic<std::uint64_t> next_id_{1};
  static inline std::atomic<std::uint64_t> live_{0};
};

}  // namespace rcua

#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <type_traits>
#include <utility>

namespace rcua::plat {

/// Relaxed atomic access to element storage.
///
/// The paper's §III-C relaxation makes concurrent element reads and
/// updates on the *same* index a supported operation mix: the array
/// guarantees the access lands on valid storage, and the element value is
/// whatever the interleaving produced. In C++ terms that contract is a
/// relaxed atomic access, not a plain one — plain racing loads/stores are
/// undefined behavior and (correctly) flagged by TSan. These helpers give
/// element paths that contract with zero overhead where it is free: a
/// relaxed load/store of a machine-word type compiles to the same mov a
/// plain access would.
///
/// Every element type is accepted. A `std::atomic<U>` element is its own
/// relaxed access: it is read and written as a `U` (element_value_t). A
/// machine-word type goes through `std::atomic_ref` (relaxed_capable_v).
/// A larger type falls back to a plain access and the single-writer
/// discipline that implies.
template <typename T>
inline constexpr bool is_std_atomic_v = false;
template <typename U>
inline constexpr bool is_std_atomic_v<std::atomic<U>> = true;

/// GCC counts `std::atomic` trivially copyable, but it cannot be copied.
template <typename T>
inline constexpr bool relaxed_capable_v =
    std::is_trivially_copyable_v<T> && !is_std_atomic_v<T> &&
    std::atomic_ref<T>::is_always_lock_free;

/// The value an element op reads and writes: `U` for a `std::atomic<U>`
/// element, the element type itself otherwise.
template <typename T>
struct element_value {
  using type = T;
};
template <typename U>
struct element_value<std::atomic<U>> {
  using type = U;
};
template <typename T>
using element_value_t = typename element_value<T>::type;

template <typename T>
[[nodiscard]] inline element_value_t<T> relaxed_load(const T& slot) {
  if constexpr (is_std_atomic_v<T>) {
    return slot.load(std::memory_order_relaxed);
  } else if constexpr (relaxed_capable_v<T>) {
    // atomic_ref<const T> arrives only post-C++20; the cast is sound
    // because atomic_ref never mutates through a pure load.
    return std::atomic_ref<T>(const_cast<T&>(slot))
        .load(std::memory_order_relaxed);
  } else {
    return slot;
  }
}

template <typename T>
inline void relaxed_store(T& slot, element_value_t<T> value) {
  if constexpr (is_std_atomic_v<T>) {
    slot.store(value, std::memory_order_relaxed);
  } else if constexpr (relaxed_capable_v<T>) {
    std::atomic_ref<T>(slot).store(value, std::memory_order_relaxed);
  } else {
    slot = std::move(value);
  }
}

/// Copies `n` elements from `src` to `dst`: element by element as relaxed
/// atomics where T allows, so a copy racing §III-C element stores on
/// either side stays defined; a plain copy (and the single-writer
/// discipline) otherwise. The one element copy of every block-granular
/// path: bulk spans, cache fills and migration copies.
template <typename T>
inline void relaxed_copy(T* dst, const T* src, std::size_t n) {
  if constexpr (is_std_atomic_v<T> || relaxed_capable_v<T>) {
    for (std::size_t k = 0; k < n; ++k) {
      relaxed_store(dst[k], relaxed_load(src[k]));
    }
  } else {
    std::copy(src, src + n, dst);
  }
}

template <typename T>
inline T relaxed_fetch_add(T& slot, T delta) noexcept {
  static_assert(relaxed_capable_v<T> && std::is_integral_v<T>);
  return std::atomic_ref<T>(slot).fetch_add(delta,
                                            std::memory_order_relaxed);
}

}  // namespace rcua::plat

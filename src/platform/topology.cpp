#include "platform/topology.hpp"

#include <thread>

namespace rcua::plat {

std::uint32_t hardware_threads() noexcept {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1u : static_cast<std::uint32_t>(n);
}

bool oversubscribed(std::uint32_t desired) noexcept {
  return desired > hardware_threads();
}

}  // namespace rcua::plat

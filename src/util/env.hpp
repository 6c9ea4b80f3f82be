#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace rcua::util {

/// Reads environment variable `name` as a u64; returns `fallback` when
/// the variable is unset or unparsable. Malformed or overflowing values
/// (e.g. RCUA_COMM_WINDOW=abc, "12junk", "-3", 2^70) never throw: they
/// warn once per variable to stderr and fall back.
std::uint64_t env_u64(const char* name, std::uint64_t fallback);

/// Reads environment variable `name` as a bool (accepts 0/1/true/false/
/// yes/no, case-insensitive).
bool env_bool(const char* name, bool fallback);

/// Reads environment variable `name` as a comma-separated list of u64s,
/// e.g. RCUA_LOCALES="1,2,4,8". Returns `fallback` when unset or when no
/// element parses.
std::vector<std::uint64_t> env_u64_list(const char* name,
                                        std::vector<std::uint64_t> fallback);

/// Raw accessor; empty optional when unset.
std::optional<std::string> env_str(const char* name);

/// Total malformed-value warnings emitted so far (observability for the
/// bad-input tests). Each distinct variable name warns to stderr at most
/// once per process; this counter increments once per emitted warning.
std::uint64_t env_parse_warnings() noexcept;

}  // namespace rcua::util

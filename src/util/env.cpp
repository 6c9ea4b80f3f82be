#include "util/env.hpp"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <set>
#include <sstream>

namespace rcua::util {

namespace {

std::atomic<std::uint64_t> g_parse_warnings{0};

/// Warns to stderr about a malformed value, at most once per variable
/// name per process — a misconfigured launcher script should produce one
/// diagnostic, not one per env read on every thread.
void warn_bad_value(const char* name, const std::string& value,
                    const char* expected) {
  static std::mutex mu;
  static std::set<std::string>* warned = new std::set<std::string>();
  {
    std::lock_guard<std::mutex> guard(mu);
    if (!warned->insert(name).second) return;
  }
  g_parse_warnings.fetch_add(1, std::memory_order_relaxed);
  std::fprintf(stderr,
               "rcua: ignoring %s=\"%s\": expected %s; using the default\n",
               name, value.c_str(), expected);
}

std::string trimmed(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

/// Full-string u64 parse: rejects empty strings, signs (stoull would
/// silently wrap "-1"), trailing garbage (stoull would read "12junk" as
/// 12) and out-of-range values. std::nullopt on any failure.
std::optional<std::uint64_t> parse_u64(const std::string& raw) {
  const std::string s = trimmed(raw);
  if (s.empty() || s[0] == '-' || s[0] == '+') return std::nullopt;
  try {
    std::size_t consumed = 0;
    const std::uint64_t v = std::stoull(s, &consumed, /*base=*/10);
    if (consumed != s.size()) return std::nullopt;
    return v;
  } catch (...) {
    return std::nullopt;
  }
}

}  // namespace

std::uint64_t env_parse_warnings() noexcept {
  return g_parse_warnings.load(std::memory_order_relaxed);
}

std::optional<std::string> env_str(const char* name) {
  const char* v = std::getenv(name);
  if (v == nullptr) return std::nullopt;
  return std::string(v);
}

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  auto s = env_str(name);
  if (!s) return fallback;
  if (auto v = parse_u64(*s)) return *v;
  warn_bad_value(name, *s, "an unsigned integer");
  return fallback;
}

bool env_bool(const char* name, bool fallback) {
  auto s = env_str(name);
  if (!s) return fallback;
  std::string lower = trimmed(*s);
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (lower == "1" || lower == "true" || lower == "yes" || lower == "on")
    return true;
  if (lower == "0" || lower == "false" || lower == "no" || lower == "off")
    return false;
  warn_bad_value(name, *s, "one of 0/1/true/false/yes/no/on/off");
  return fallback;
}

std::vector<std::uint64_t> env_u64_list(const char* name,
                                        std::vector<std::uint64_t> fallback) {
  auto s = env_str(name);
  if (!s) return fallback;
  std::vector<std::uint64_t> out;
  bool any_bad = false;
  std::stringstream ss(*s);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (auto v = parse_u64(item)) {
      out.push_back(*v);
    } else {
      any_bad = true;  // skip unparsable elements, but say so once
    }
  }
  if (any_bad) {
    warn_bad_value(name, *s, "a comma-separated list of unsigned integers");
  }
  return out.empty() ? fallback : out;
}

}  // namespace rcua::util

#pragma once

#include <cstdlib>
#include <optional>
#include <string>

namespace rcua::test {

/// Sets (or, with nullopt, unsets) an environment variable for one scope
/// and restores its previous value on exit, so a test that needs a knob
/// set or cleared leaves the rest of its binary under the environment it
/// was started with.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, std::optional<std::string> value)
      : name_(name) {
    if (const char* old = std::getenv(name)) saved_ = old;
    if (value) {
      setenv(name, value->c_str(), 1);
    } else {
      unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (saved_) {
      setenv(name_, saved_->c_str(), 1);
    } else {
      unsetenv(name_);
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
  std::optional<std::string> saved_;
};

}  // namespace rcua::test

// Target-system registry: how the tool knows which target systems are
// available (the paper's GUI lets the user "select a target system";
// our CLI and configs select by name).
//
// Targets register a factory under a unique name — either at startup
// (built-ins) or from a dynamically loaded plugin (core/plugin.h).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "target/fault_injection_algorithms.h"
#include "util/status.h"

namespace goofi::core {

class TargetRegistry {
 public:
  using Factory =
      std::function<std::unique_ptr<target::TargetSystemInterface>()>;

  // The process-wide registry (function-local static; the only global
  // mutable state in the library, per DESIGN.md §4). Its thread-safe
  // initialisation registers the built-in targets, as defaults: a
  // program may replace a default once (say, with an instrumented
  // subclass) by registering its own factory under the same name.
  // Register before starting threads that mint targets; Has, Create and
  // Names only read, so concurrent mints are safe.
  static TargetRegistry& Instance();

  // AlreadyExists when `name` is taken by anything but a default.
  Status Register(const std::string& name, Factory factory);
  bool Has(const std::string& name) const;
  Result<std::unique_ptr<target::TargetSystemInterface>> Create(
      const std::string& name) const;
  std::vector<std::string> Names() const;

 private:
  struct Entry {
    std::string name;
    Factory factory;
    bool is_default = false;
  };
  std::vector<Entry> factories_;
};

// Register the targets shipped with the library ("thor_rd", "thor",
// "cache_hierarchy") under any names still free. Idempotent, and a
// no-op on Instance(), which starts out with them.
void RegisterBuiltinTargets(TargetRegistry& registry);

}  // namespace goofi::core

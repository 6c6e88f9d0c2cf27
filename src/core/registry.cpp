#include "core/registry.h"

#include "target/cache_target.h"
#include "target/thor_rd_target.h"

namespace goofi::core {

TargetRegistry& TargetRegistry::Instance() {
  static TargetRegistry* registry = [] {
    auto* defaults = new TargetRegistry();
    RegisterBuiltinTargets(*defaults);
    for (Entry& entry : defaults->factories_) entry.is_default = true;
    return defaults;
  }();
  return *registry;
}

Status TargetRegistry::Register(const std::string& name, Factory factory) {
  if (name.empty()) return InvalidArgumentError("target name must not be empty");
  if (!factory) return InvalidArgumentError("null target factory");
  for (Entry& entry : factories_) {
    if (entry.name != name) continue;
    if (!entry.is_default) {
      return AlreadyExistsError("target '" + name + "' already registered");
    }
    entry.factory = std::move(factory);
    entry.is_default = false;
    return Status::Ok();
  }
  factories_.push_back({name, std::move(factory)});
  return Status::Ok();
}

bool TargetRegistry::Has(const std::string& name) const {
  for (const Entry& entry : factories_) {
    if (entry.name == name) return true;
  }
  return false;
}

Result<std::unique_ptr<target::TargetSystemInterface>> TargetRegistry::Create(
    const std::string& name) const {
  for (const Entry& entry : factories_) {
    if (entry.name == name) return entry.factory();
  }
  return NotFoundError("no registered target '" + name + "'");
}

std::vector<std::string> TargetRegistry::Names() const {
  std::vector<std::string> names;
  names.reserve(factories_.size());
  for (const Entry& entry : factories_) names.push_back(entry.name);
  return names;
}

void RegisterBuiltinTargets(TargetRegistry& registry) {
  if (!registry.Has("thor_rd")) {
    (void)registry.Register("thor_rd", []() {
      return std::make_unique<target::ThorRdTarget>();
    });
  }
  if (!registry.Has("thor")) {
    // The predecessor board of [10]: no cache parity checkers.
    (void)registry.Register("thor", []() {
      return std::unique_ptr<target::TargetSystemInterface>(
          target::MakeThorTarget());
    });
  }
  if (!registry.Has("cache_hierarchy")) {
    // Thor RD with access-path injection into the cache arrays.
    (void)registry.Register("cache_hierarchy", []() {
      return std::unique_ptr<target::TargetSystemInterface>(
          target::MakeCacheHierarchyTarget());
    });
  }
}

}  // namespace goofi::core

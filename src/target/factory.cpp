#include "target/factory.h"

#include "target/cache_target.h"
#include "target/framework_target.h"
#include "target/thor_rd_target.h"

namespace goofi::target {

Result<TargetFactory> BuiltinTargetFactory(const std::string& target_name) {
  if (target_name == "thor_rd") {
    return TargetFactory([]() -> Result<std::unique_ptr<TargetSystemInterface>> {
      return std::unique_ptr<TargetSystemInterface>(
          std::make_unique<ThorRdTarget>());
    });
  }
  if (target_name == "thor") {
    return TargetFactory([]() -> Result<std::unique_ptr<TargetSystemInterface>> {
      return std::unique_ptr<TargetSystemInterface>(MakeThorTarget());
    });
  }
  if (target_name == "cache_hierarchy") {
    return TargetFactory([]() -> Result<std::unique_ptr<TargetSystemInterface>> {
      return std::unique_ptr<TargetSystemInterface>(
          MakeCacheHierarchyTarget());
    });
  }
  if (target_name == "framework") {
    return TargetFactory([]() -> Result<std::unique_ptr<TargetSystemInterface>> {
      return std::unique_ptr<TargetSystemInterface>(
          std::make_unique<FrameworkTarget>());
    });
  }
  return NotFoundError("no builtin target factory for '" + target_name + "'");
}

}  // namespace goofi::target

// Per-process scratch space for tests that need real files.
//
// ctest runs every gtest case as its own process, concurrently under
// `ctest -j`, so a fixed name under temp_directory_path() is shared by
// processes that each remove and rebuild it. ProcessTempDir() is a
// directory mkdtemp made for this process alone; it is removed, with
// everything in it, when the process exits.
#pragma once

#include <stdlib.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <system_error>

namespace goofi::test_util {

// An mkdtemp directory, removed with its contents on destruction.
class TempDir {
 public:
  TempDir() {
    std::string pattern =
        (std::filesystem::temp_directory_path() / "goofi_test_XXXXXX")
            .string();
    if (::mkdtemp(pattern.data()) == nullptr) {
      std::perror("mkdtemp");
      std::abort();
    }
    path_ = pattern;
  }
  ~TempDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  const std::filesystem::path& path() const { return path_; }

 private:
  std::filesystem::path path_;
};

// This process's scratch directory, made on first use.
inline const std::filesystem::path& ProcessTempDir() {
  static const TempDir dir;
  return dir.path();
}

}  // namespace goofi::test_util

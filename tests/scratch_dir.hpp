#pragma once
// A per-test scratch directory, <temp>/edhp-<suite>.<test>-<pid>: created
// on construction and removed on destruction by its owner alone, so test
// processes can run in parallel, shuffled and repeated without touching
// each other's files.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <system_error>

namespace edhp {

class ScratchDir {
 public:
  ScratchDir() : path_(unique_path()) {
    // A directory left by a killed run whose pid was recycled.
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  [[nodiscard]] const std::filesystem::path& path() const { return path_; }
  /// Path of `name` inside the directory.
  [[nodiscard]] std::string file(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  static std::filesystem::path unique_path() {
    std::string name = "edhp";
    if (const auto* info =
            ::testing::UnitTest::GetInstance()->current_test_info()) {
      name += std::string("-") + info->test_suite_name() + "." + info->name();
    }
    name += '-';
    name += std::to_string(::getpid());
    std::replace(name.begin(), name.end(), '/', '_');  // parameterized names
    return std::filesystem::temp_directory_path() / name;
  }

  std::filesystem::path path_;
};

}  // namespace edhp

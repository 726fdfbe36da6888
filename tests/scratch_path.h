// Scratch paths for tests: each test process works in its own directory
// under the system temp directory, so concurrent runs of the suite (two
// build trees, or one tree's binaries run side by side) never share a file.
#pragma once

#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <system_error>

namespace chaser::testutil {

/// `name` in this process's scratch directory, removed if it exists. The
/// directory is made with mkdtemp on first use and removed, with everything
/// in it, when the process exits.
inline std::string ScratchPath(const std::string& name) {
  struct Dir {
    Dir() {
      std::string path =
          (std::filesystem::temp_directory_path() / "chaser_test_XXXXXX").string();
      if (::mkdtemp(path.data()) == nullptr) {
        throw std::system_error(errno, std::generic_category(), "mkdtemp " + path);
      }
      root = path;
    }
    ~Dir() {
      std::error_code ignored;
      if (::getpid() == owner) std::filesystem::remove_all(root, ignored);
    }
    std::filesystem::path root;
    pid_t owner = ::getpid();
  };
  static const Dir dir;
  const std::filesystem::path path = dir.root / name;
  std::filesystem::remove_all(path);
  return path.string();
}

}  // namespace chaser::testutil

// A scratch directory for one test scope: created with mkdtemp under
// ::testing::TempDir() and removed, with everything written into it, when
// the object is destroyed, so a test run leaves nothing behind.

#ifndef COMX_TESTS_TESTING_TEMP_DIR_H_
#define COMX_TESTS_TESTING_TEMP_DIR_H_

#include <stdlib.h>

#include <filesystem>
#include <string>
#include <system_error>

#include <gtest/gtest.h>

namespace comx {
namespace testing_fixtures {

class ScopedTempDir {
 public:
  /// Creates <TempDir>/<prefix>.XXXXXX; a failure fails the current test
  /// and leaves path() empty.
  explicit ScopedTempDir(const std::string& prefix) {
    std::string tmpl = ::testing::TempDir();
    if (!tmpl.empty() && tmpl.back() != '/') tmpl += '/';
    tmpl += prefix + ".XXXXXX";
    if (::mkdtemp(tmpl.data()) == nullptr) {
      ADD_FAILURE() << "mkdtemp(" << tmpl << ") failed";
      return;
    }
    path_ = tmpl;
  }

  ~ScopedTempDir() {
    if (path_.empty()) return;
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }

  ScopedTempDir(const ScopedTempDir&) = delete;
  ScopedTempDir& operator=(const ScopedTempDir&) = delete;

  /// The directory, without a trailing slash.
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace testing_fixtures
}  // namespace comx

#endif  // COMX_TESTS_TESTING_TEMP_DIR_H_

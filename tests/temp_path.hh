/**
 * @file
 * Scratch paths for tests that touch the file system.  ctest runs each
 * test case as its own process and, under -j, many of them at once, so
 * a fixed name under the temp directory is shared by concurrent cases
 * and one case's cleanup can delete another's files mid-run.
 */

#ifndef RETSIM_TESTS_TEMP_PATH_HH
#define RETSIM_TESTS_TEMP_PATH_HH

#include <algorithm>
#include <filesystem>
#include <string>

#include <unistd.h>

#include <gtest/gtest.h>

namespace retsim {
namespace testing_util {

/** temp_directory_path()/<stem>_<suite>_<test>_<pid>: unique to the
 *  running test case and process. */
inline std::filesystem::path
uniqueTempPath(const std::string &stem)
{
    const ::testing::TestInfo *info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string name = stem + "_" + info->test_suite_name() + "_" +
                       info->name() + "_" + std::to_string(::getpid());
    // Parameterized suite and test names contain '/'.
    std::replace(name.begin(), name.end(), '/', '_');
    return std::filesystem::temp_directory_path() / name;
}

} // namespace testing_util
} // namespace retsim

#endif // RETSIM_TESTS_TEMP_PATH_HH

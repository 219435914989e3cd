// Text helpers: keyword tokenization and ASCII lowercasing.

#include <gtest/gtest.h>

#include "common/text.hpp"

namespace edhp {
namespace {

// The input is a std::string, not a const char*: gtest prints a pointer
// parameter with its address, and the address would then differ from run to
// run in each case's printed name.
using Case = std::pair<std::string, std::vector<std::string>>;

class TokenizeCase : public ::testing::TestWithParam<Case> {};

TEST_P(TokenizeCase, SplitsAsExpected) {
  const auto& [input, expected] = GetParam();
  EXPECT_EQ(tokenize(input), expected);
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, TokenizeCase,
    ::testing::Values(
        Case{"The.Best_Movie(2008)", {"the", "best", "movie", "2008"}},
        Case{"", {}},
        Case{"...", {}},
        Case{"single", {"single"}},
        Case{"UPPER lower", {"upper", "lower"}},
        Case{"a-b_c d", {"a", "b", "c", "d"}},
        Case{"trailing.", {"trailing"}},
        Case{".leading", {"leading"}}));

TEST(ToLower, Ascii) {
  EXPECT_EQ(to_lower("MiXeD 123!"), "mixed 123!");
  EXPECT_EQ(to_lower(""), "");
}

}  // namespace
}  // namespace edhp

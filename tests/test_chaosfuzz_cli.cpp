// edhp_chaosfuzz's command line: a numeric flag whose value is not a
// complete number (unsigned flags take no sign) exits 2 with the usage
// before any campaign runs. The binary path comes from the build system via
// EDHP_CHAOSFUZZ_BIN; each run happens inside a scratch directory, so a
// repro the tool might write stays private to its test.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "scratch_dir.hpp"

namespace edhp {
namespace {

struct RunResult {
  int exit_code = -1;
  std::string output;
};

/// Run edhp_chaosfuzz with `args` inside `dir`, capturing stdout+stderr.
RunResult run_chaosfuzz(const ScratchDir& dir, const std::string& args) {
  const auto out_path = dir.file("chaosfuzz_out.txt");
  const std::string cmd = "cd '" + dir.path().string() + "' && " +
                          EDHP_CHAOSFUZZ_BIN + " " + args + " > '" + out_path +
                          "' 2>&1";
  const int raw = std::system(cmd.c_str());
  RunResult r;
#ifdef WEXITSTATUS
  r.exit_code = WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
#else
  r.exit_code = raw;
#endif
  std::ifstream f(out_path, std::ios::binary);
  std::stringstream ss;
  ss << f.rdbuf();
  r.output = ss.str();
  return r;
}

class ChaosfuzzBadNumber : public ::testing::TestWithParam<std::string> {};

TEST_P(ChaosfuzzBadNumber, ExitsTwoWithUsageBeforeAnyPoint) {
  ScratchDir dir;
  const auto r = run_chaosfuzz(dir, GetParam());
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("not a number: "), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("usage: edhp_chaosfuzz"), std::string::npos)
      << r.output;
  // Neither a batch point nor the selftest campaign ran.
  EXPECT_EQ(r.output.find("point "), std::string::npos) << r.output;
  EXPECT_EQ(r.output.find("selftest:"), std::string::npos) << r.output;
}

INSTANTIATE_TEST_SUITE_P(Flags, ChaosfuzzBadNumber,
                         ::testing::Values("--points=abc", "--scale=",
                                           "--points=2x",
                                           "--days=2x --selftest",
                                           "--seed=-1 --selftest",
                                           "--scale=nan", "--scale=inf",
                                           "--days=nan --selftest"));

TEST(ChaosfuzzCli, CompleteNumbersStillParse) {
  ScratchDir dir;
  const auto r =
      run_chaosfuzz(dir, "--points=0 --seed=7 --scale=2e-2 --days=1.5 --quiet");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("chaosfuzz: 0/0 points passed (0 campaign runs, "
                          "seed 7)"),
            std::string::npos)
      << r.output;
}

}  // namespace
}  // namespace edhp

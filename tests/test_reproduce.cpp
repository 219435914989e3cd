// End-to-end check of bench_reproduce: one small run with an FNV-1a digest
// pinned for every printed table/figure block and for fig04.dat, so a change
// that moves a figure fails under that figure's name. Also checks that each
// campaign runs once and that bad flags are rejected. The binary path comes
// from the build system via EDHP_REPRODUCE_BIN; each run happens inside a
// scratch directory so fig04.dat stays private to its test.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "scratch_dir.hpp"

namespace edhp {
namespace {

struct RunResult {
  int exit_code = -1;
  std::string output;
};

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::stringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

/// Run bench_reproduce with `args` inside `dir`, capturing stdout+stderr.
RunResult run_reproduce(const ScratchDir& dir, const std::string& args) {
  const auto out_path = dir.file("reproduce_out.txt");
  const std::string cmd = "cd '" + dir.path().string() + "' && " +
                          EDHP_REPRODUCE_BIN + " " + args + " > '" + out_path +
                          "' 2>&1";
  const int raw = std::system(cmd.c_str());
  RunResult r;
#ifdef WEXITSTATUS
  r.exit_code = WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
#else
  r.exit_code = raw;
#endif
  r.output = read_file(out_path);
  return r;
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

/// The output split into blocks: each starts at a "== title ==" line (or
/// the closing "paper (scale 1.0)" recap) and runs to the next block or
/// "running ..." campaign header. Returns (first line, digest) pairs.
std::vector<std::pair<std::string, std::uint64_t>> block_digests(
    const std::string& output) {
  std::vector<std::pair<std::string, std::string>> blocks;
  bool open = false;
  std::istringstream lines(output);
  for (std::string line; std::getline(lines, line);) {
    if (line.starts_with("== ") || line.starts_with("paper (scale 1.0)")) {
      blocks.emplace_back(line, "");
      open = true;
    } else if (line.starts_with("running ")) {
      open = false;
      continue;
    }
    if (open) blocks.back().second += line + "\n";
  }
  std::vector<std::pair<std::string, std::uint64_t>> digests;
  for (const auto& [first, text] : blocks) {
    digests.emplace_back(first, fnv1a(text));
  }
  return digests;
}

std::size_t count_lines_starting(const std::string& output,
                                 const std::string& prefix) {
  std::size_t n = 0;
  std::istringstream lines(output);
  for (std::string line; std::getline(lines, line);) {
    if (line.starts_with(prefix)) ++n;
  }
  return n;
}

TEST(Reproduce, EveryFigureMatchesItsPinnedDigest) {
  ScratchDir dir;
  const auto r = run_reproduce(dir, "--scale=0.01 --days=3 --quiet");
  ASSERT_EQ(r.exit_code, 0) << r.output;

  EXPECT_EQ(count_lines_starting(r.output, "running distributed measurement"),
            1u);
  EXPECT_EQ(count_lines_starting(r.output, "running greedy measurement"), 1u);

  // Measured at --scale=0.01 --days=3 with the default seeds. Three days is
  // the shortest run that prints every recap line: Fig 3's initialisation
  // check needs a day after the harvest day, and Fig 9's smoothness cv is
  // 0 with a single daily increment.
  const std::vector<std::pair<std::string, std::uint64_t>> want = {
      {"== Table I -- distributed measurement ==", 0x7e6d08d976d6a1d1ull},
      {"== Fig 2: distinct peers over time (distributed) ==",
       0x953655e5fe335838ull},
      {"== Fig 4: HELLO messages per hour, first week (strided rows; full "
       "series in fig04.dat) ==",
       0x4814b2371f113690ull},
      {"== Fig 5: distinct peers sending HELLO, by strategy ==",
       0x62b1cf2ee8662efeull},
      {"== Fig 6: distinct peers sending START-UPLOAD, by strategy ==",
       0x88bf93dc07fad73eull},
      {"== Fig 7: cumulative REQUEST-PART messages, by strategy ==",
       0x4e3b5b8a9bc88328ull},
      {"== Fig 8: START-UPLOAD from the most active peer, by strategy ==",
       0x93f9bd75fd304976ull},
      {"== Fig 9: REQUEST-PART from the most active peer, by strategy ==",
       0xfde802d04a91a0c5ull},
      {"== Fig 10: distinct peers vs number of honeypots (100 random subsets "
       "per n) ==",
       0x0f24b57fd20287e5ull},
      {"== Table I -- greedy measurement ==", 0x5c17bf42772cd470ull},
      {"== Fig 3: distinct peers over time (greedy) ==",
       0x6c7f86f5d0bad0ecull},
      {"== Fig 11: distinct peers vs number of advertised files "
       "(random-files set) ==",
       0x81e3de10b5d164ffull},
      {"== Fig 12: distinct peers vs number of advertised files "
       "(popular-files set) ==",
       0x4a79a2af155841b2ull},
      {"paper (scale 1.0): distributed 110,049 peers / 28,007 files / 9 TB; "
       "greedy 871,445 peers / 267,047 files / 90 TB",
       0x289a1c71e80e9666ull},
  };
  const auto got = block_digests(r.output);
  ASSERT_EQ(got.size(), want.size()) << r.output;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].first, want[i].first);
    EXPECT_EQ(got[i].second, want[i].second)
        << std::hex << "digest of " << want[i].first << " is 0x"
        << got[i].second;
  }

  const auto fig04 = fnv1a(read_file(dir.file("fig04.dat")));
  EXPECT_EQ(fig04, 0xec9a484f50a418e5ull)
      << std::hex << "digest of fig04.dat is 0x" << fig04;
}

class ReproduceBadFlag : public ::testing::TestWithParam<std::string> {};

TEST_P(ReproduceBadFlag, ExitsTwoWithUsage) {
  ScratchDir dir;
  const auto r = run_reproduce(dir, GetParam());
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("options: --scale=<f>"), std::string::npos)
      << r.output;
  EXPECT_EQ(r.output.find("running "), std::string::npos) << r.output;
}

INSTANTIATE_TEST_SUITE_P(Flags, ReproduceBadFlag,
                         ::testing::Values(std::string("--sacle=0.01"),
                                           std::string("--scale=abc"),
                                           std::string("--scale 0.01"),
                                           std::string("--seed=-1"),
                                           std::string("--days=2x")));

}  // namespace
}  // namespace edhp

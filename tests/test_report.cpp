// Reporting helpers: formatting, table rendering, gnuplot export, strides.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "analysis/report.hpp"
#include "scratch_dir.hpp"

namespace edhp::analysis {
namespace {

TEST(WithCommas, GroupsThousands) {
  EXPECT_EQ(with_commas(0), "0");
  EXPECT_EQ(with_commas(999), "999");
  EXPECT_EQ(with_commas(1000), "1,000");
  EXPECT_EQ(with_commas(1234567), "1,234,567");
  EXPECT_EQ(with_commas(110049), "110,049");
}

TEST(IndexAxis, OneAndZeroBased) {
  EXPECT_EQ(index_axis(3), (std::vector<double>{1, 2, 3}));
  EXPECT_EQ(index_axis(3, true), (std::vector<double>{0, 1, 2}));
  EXPECT_TRUE(index_axis(0).empty());
}

TEST(StrideRows, ShortInputKeptWhole) {
  EXPECT_EQ(stride_rows(5, 10).size(), 5u);
  EXPECT_EQ(stride_rows(0, 10).size(), 0u);
}

TEST(StrideRows, LongInputDownsampledKeepingEnds) {
  const auto rows = stride_rows(168, 20);
  ASSERT_LE(rows.size(), 20u);
  EXPECT_EQ(rows.front(), 0u);
  EXPECT_EQ(rows.back(), 167u);
  for (std::size_t i = 1; i < rows.size(); ++i) {
    EXPECT_GT(rows[i], rows[i - 1]);
  }
}

TEST(PrintTable, RendersTitleHeaderAndRows) {
  std::ostringstream out;
  std::vector<Series> series{{"alpha", {10, 20}}, {"beta", {1.5, 2.5}}};
  const std::vector<double> x{1, 2};
  print_table(out, "demo", "day", x, series);
  const auto text = out.str();
  EXPECT_NE(text.find("== demo =="), std::string::npos);
  EXPECT_NE(text.find("alpha"), std::string::npos);
  EXPECT_NE(text.find("beta"), std::string::npos);
  EXPECT_NE(text.find("20"), std::string::npos);
  EXPECT_NE(text.find("2.5"), std::string::npos);
}

TEST(PrintTable, ShortSeriesPadsWithDash) {
  std::ostringstream out;
  std::vector<Series> series{{"a", {10}}};
  const std::vector<double> x{1, 2};
  print_table(out, "demo", "n", x, series);
  EXPECT_NE(out.str().find('-'), std::string::npos);
}

TEST(PrintKv, AlignsKeys) {
  std::ostringstream out;
  std::vector<std::pair<std::string, std::string>> rows{
      {"k", "1"}, {"longer key", "2"}};
  print_kv(out, "block", rows);
  const auto text = out.str();
  EXPECT_NE(text.find("== block =="), std::string::npos);
  EXPECT_NE(text.find("longer key"), std::string::npos);
}

TEST(WriteGnuplot, ProducesParseableColumns) {
  const ScratchDir scratch;
  const std::string path = scratch.file("gnuplot.dat");
  std::vector<Series> series{{"y1", {5, 6, 7}}, {"y2", {1, 2, 3}}};
  const std::vector<double> x{10, 20, 30};
  write_gnuplot(path, x, series);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header, "# x y1 y2");
  double a, b, c;
  in >> a >> b >> c;
  EXPECT_DOUBLE_EQ(a, 10);
  EXPECT_DOUBLE_EQ(b, 5);
  EXPECT_DOUBLE_EQ(c, 1);
}

TEST(WriteGnuplot, UnwritablePathThrows) {
  EXPECT_THROW(write_gnuplot("/nonexistent-dir/x.dat", {}, {}),
               std::runtime_error);
}

}  // namespace
}  // namespace edhp::analysis

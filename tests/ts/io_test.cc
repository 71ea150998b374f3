#include "ts/io.h"

#include <cstdio>
#include <fstream>

#include "gtest/gtest.h"

namespace tsq::ts {
namespace {

class IoTest : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }
  // Per-test path: ctest runs every case of this suite as its own process,
  // in parallel, so a shared file would let one case read another's.
  std::string path_ =
      ::testing::TempDir() + "/tsq_io_test_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
      ".csv";
};

TEST_F(IoTest, RoundTrip) {
  const std::vector<Series> data = {
      {1.0, 2.5, -3.75}, {0.0}, {1e-9, 1e9, 123.456789012345}};
  ASSERT_TRUE(WriteCsv(path_, data).ok());
  const auto read = ReadCsv(path_);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  ASSERT_EQ(read->size(), 3u);
  for (std::size_t r = 0; r < data.size(); ++r) {
    ASSERT_EQ((*read)[r].size(), data[r].size());
    for (std::size_t c = 0; c < data[r].size(); ++c) {
      EXPECT_DOUBLE_EQ((*read)[r][c], data[r][c]);
    }
  }
}

TEST_F(IoTest, EmptyFile) {
  ASSERT_TRUE(WriteCsv(path_, {}).ok());
  const auto read = ReadCsv(path_);
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read->empty());
}

TEST_F(IoTest, SkipsBlankLines) {
  std::ofstream out(path_);
  out << "1,2\n\n3,4\n";
  out.close();
  const auto read = ReadCsv(path_);
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read->size(), 2u);
}

TEST_F(IoTest, RejectsNonNumericField) {
  std::ofstream out(path_);
  out << "1,2\n3,potato\n";
  out.close();
  const auto read = ReadCsv(path_);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kCorruption);
  EXPECT_NE(read.status().message().find("potato"), std::string::npos);
}

// strtod reads the leading "2" of "2x"; the rest of the field must not be
// silently dropped.
TEST_F(IoTest, RejectsTrailingCharacters) {
  std::ofstream out(path_);
  out << "1,2\n3,2x\n";
  out.close();
  const auto read = ReadCsv(path_);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kCorruption);
  EXPECT_NE(read.status().message().find(path_ + ":2"), std::string::npos)
      << read.status().ToString();
  EXPECT_NE(read.status().message().find("2x"), std::string::npos);
}

// Trailing whitespace, a CRLF line's '\r' included, is not garbage, and a
// CRLF file's empty line is as blank as an LF file's.
TEST_F(IoTest, AcceptsTrailingWhitespaceAndCrlf) {
  std::ofstream out(path_);
  out << "1, 2 \r\n\r\n3,4\r\n";
  out.close();
  const auto read = ReadCsv(path_);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  ASSERT_EQ(read->size(), 2u);
  EXPECT_EQ((*read)[0], (Series{1.0, 2.0}));
  EXPECT_EQ((*read)[1], (Series{3.0, 4.0}));
}

// strtod parses "nan" and "inf", but no series can hold them: the engine
// would reject the row only by aborting.
TEST_F(IoTest, RejectsNonFiniteValues) {
  for (const char* field : {"nan", "inf", "-Infinity"}) {
    std::ofstream out(path_);
    out << "1,2\n3," << field << "\n";
    out.close();
    const auto read = ReadCsv(path_);
    ASSERT_FALSE(read.ok()) << field;
    EXPECT_EQ(read.status().code(), StatusCode::kCorruption) << field;
    EXPECT_NE(read.status().message().find(path_ + ":2"), std::string::npos)
        << read.status().ToString();
  }
}

TEST_F(IoTest, MissingFileIsIoError) {
  const auto read = ReadCsv("/nonexistent/nowhere.csv");
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kIoError);
}

TEST_F(IoTest, WriteToUnwritablePathFails) {
  EXPECT_EQ(WriteCsv("/nonexistent/dir/file.csv", {}).code(),
            StatusCode::kIoError);
}

}  // namespace
}  // namespace tsq::ts

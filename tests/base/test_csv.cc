/**
 * @file
 * Tests for the CSV writer: quoting, row assembly, file contents.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "base/csv.hh"
#include "base/strutil.hh"

using namespace biglittle;

namespace
{

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

class CsvTest : public ::testing::Test
{
  protected:
    std::string path;

    void
    SetUp() override
    {
        // One file per test case: ctest runs the cases of this
        // fixture concurrently, and a shared name would let one
        // case's TearDown remove the file another is reading.
        path = ::testing::TempDir() + "biglittle_csv_" +
               ::testing::UnitTest::GetInstance()
                   ->current_test_info()
                   ->name() +
               ".csv";
    }

    void
    TearDown() override
    {
        std::remove(path.c_str());
    }
};

} // namespace

TEST_F(CsvTest, HeaderAndRows)
{
    {
        CsvWriter w;
        ASSERT_TRUE(w.open(path).ok());
        w.header({"a", "b", "c"});
        w.beginRow();
        w.cell(std::string("x"));
        w.cell(1.5);
        w.cell(static_cast<std::uint64_t>(7));
        w.endRow();
        EXPECT_EQ(w.rowsWritten(), 1u);
    }
    EXPECT_EQ(slurp(path), "a,b,c\nx,1.5,7\n");
}

TEST_F(CsvTest, QuotesCommasAndQuotes)
{
    {
        CsvWriter w;
        ASSERT_TRUE(w.open(path).ok());
        w.row({"plain", "with,comma", "with\"quote", "multi\nline"});
    }
    EXPECT_EQ(slurp(path),
              "plain,\"with,comma\",\"with\"\"quote\",\"multi\nline\"\n");
}

TEST_F(CsvTest, NumericFormatting)
{
    {
        CsvWriter w;
        ASSERT_TRUE(w.open(path).ok());
        w.beginRow();
        w.cell(0.1);
        w.cell(1234567.0);
        w.cell(1e-9);
        w.endRow();
    }
    EXPECT_EQ(slurp(path), "0.1,1.23457e+06,1e-09\n");
}

TEST_F(CsvTest, MultipleRowsCounted)
{
    {
        CsvWriter w;
        ASSERT_TRUE(w.open(path).ok());
        for (int i = 0; i < 5; ++i)
            w.row({format("r%d", i)});
        EXPECT_EQ(w.rowsWritten(), 5u);
    }
    std::string content = slurp(path);
    EXPECT_EQ(std::count(content.begin(), content.end(), '\n'), 5);
}

TEST(CsvTest2, UnopenableFileReturnsStatus)
{
    CsvWriter w;
    const Status st = w.open("/nonexistent_dir_xyz/file.csv");
    EXPECT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::unavailable);
    EXPECT_NE(st.message().find("cannot open CSV"), std::string::npos);
}

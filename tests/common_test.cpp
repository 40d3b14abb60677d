#include <gtest/gtest.h>

#include <sstream>

#include "common/checkpoint.hpp"
#include "common/error.hpp"
#include "common/stopwatch.hpp"
#include "common/table.hpp"

namespace obd {
namespace {

TEST(Require, PassesOnTrue) { EXPECT_NO_THROW(require(true, "ok")); }

TEST(Require, ThrowsObdErrorWithMessage) {
  try {
    require(false, "boom");
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "boom");
  }
}

TEST(Require, ErrorIsRuntimeError) {
  EXPECT_THROW(require(false, "x"), std::runtime_error);
}

TEST(Stopwatch, MeasuresNonNegativeMonotoneTime) {
  Stopwatch sw;
  const double t1 = sw.seconds();
  const double t2 = sw.seconds();
  EXPECT_GE(t1, 0.0);
  EXPECT_GE(t2, t1);
  EXPECT_NEAR(sw.milliseconds(), sw.seconds() * 1e3, 1.0);
}

TEST(Stopwatch, ResetRestartsClock) {
  Stopwatch sw;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + 1.0;
  sw.reset();
  EXPECT_LT(sw.seconds(), 0.5);
}

TEST(TextTable, RejectsEmptyHeader) {
  EXPECT_THROW(TextTable({}), Error);
}

TEST(TextTable, RejectsRowWidthMismatch) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only one"}), Error);
}

TEST(TextTable, PrintsAlignedColumns) {
  TextTable t({"ckt.", "#Device"});
  t.add_row({"C1", "50K"});
  t.add_row({"C6", "0.84M"});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("ckt."), std::string::npos);
  EXPECT_NE(s.find("0.84M"), std::string::npos);
  EXPECT_NE(s.find("----"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.columns(), 2u);
}

TEST(Fmt, FormatsWithRequestedDigits) {
  EXPECT_EQ(fmt(1.23456, 2), "1.23");
  EXPECT_EQ(fmt(1.23456, 0), "1");
  EXPECT_EQ(fmt(-0.5, 1), "-0.5");
}

TEST(FmtCount, MatchesPaperStyle) {
  EXPECT_EQ(fmt_count(50000), "50K");
  EXPECT_EQ(fmt_count(840000), "0.84M");
  EXPECT_EQ(fmt_count(100000), "0.1M");
  EXPECT_EQ(fmt_count(999), "999");
}

// Durable fingerprints (DRM checkpoints, fleet shards, serve cache names)
// are these bytes; the reference vectors pin the FNV-1a constants.
TEST(Fnv1a64, MatchesReferenceVectorsAndRendersZeroPaddedHex) {
  EXPECT_EQ(ckpt::fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(ckpt::fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(ckpt::fnv1a64("foobar"), 0x85944171f73967e8ull);
  EXPECT_EQ(ckpt::hex_u64(0xabcdull), "000000000000abcd");
  EXPECT_EQ(ckpt::hex_u64(0xcbf29ce484222325ull), "cbf29ce484222325");
}

}  // namespace
}  // namespace obd

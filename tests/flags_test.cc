#include "tools/flags.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace vf2boost {
namespace {

const std::map<std::string, std::string> kSpec = {
    {"trees", "number of trees"},
    {"fault-seed", "reconnect jitter seed"},
    {"deadline", "receive deadline (s)"},
    {"workers", "threads per party"}};

// Parses `args` (without the program name) against kSpec.
tools::Flags Parse(std::vector<std::string> args) {
  args.insert(args.begin(), "tool");
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  return tools::Flags(static_cast<int>(argv.size()), argv.data(), kSpec);
}

TEST(FlagsTest, IntegersParseDecimalAndHex) {
  const tools::Flags flags =
      Parse({"--trees", "12", "--fault-seed=0x5eed", "--workers", "-1"});
  EXPECT_EQ(flags.GetInt("trees", 0), 12);
  EXPECT_EQ(flags.GetInt("fault-seed", 0), 0x5eed);
  EXPECT_EQ(flags.GetInt("workers", 0), -1);
  EXPECT_EQ(flags.GetInt("deadline", 7), 7);  // absent: fallback
  EXPECT_EQ(Parse({"--fault-seed", "0X1F"}).GetInt("fault-seed", 0), 31);
}

TEST(FlagsTest, DoublesParseTheWholeValue) {
  EXPECT_DOUBLE_EQ(Parse({"--deadline", "2"}).GetDouble("deadline", 0), 2);
  EXPECT_DOUBLE_EQ(Parse({"--deadline", "0.25"}).GetDouble("deadline", 0),
                   0.25);
  EXPECT_DOUBLE_EQ(Parse({"--deadline=1e-3"}).GetDouble("deadline", 0), 1e-3);
  EXPECT_DOUBLE_EQ(Parse({}).GetDouble("deadline", 30.0), 30.0);
}

TEST(FlagsDeathTest, MalformedIntegersExitNamingTheFlag) {
  EXPECT_EXIT(Parse({"--trees", "2x"}).GetInt("trees", 0),
              ::testing::ExitedWithCode(2), "--trees wants an integer");
  EXPECT_EXIT(Parse({"--workers", "many"}).GetInt("workers", 0),
              ::testing::ExitedWithCode(2), "--workers wants an integer");
  // atol used to stop at the 'x' and seed 0.
  EXPECT_EXIT(Parse({"--fault-seed", "0x12g4"}).GetInt("fault-seed", 0),
              ::testing::ExitedWithCode(2), "--fault-seed wants an integer");
  EXPECT_EXIT(Parse({"--fault-seed=0x"}).GetInt("fault-seed", 0),
              ::testing::ExitedWithCode(2), "--fault-seed wants an integer");
  EXPECT_EXIT(Parse({"--trees="}).GetInt("trees", 0),
              ::testing::ExitedWithCode(2), "--trees wants an integer");
  EXPECT_EXIT(Parse({"--trees", "99999999999999999999"}).GetInt("trees", 0),
              ::testing::ExitedWithCode(2), "--trees wants an integer");
  // A bare numeric flag reads as "true", which is no number either.
  EXPECT_EXIT(Parse({"--trees", "--workers", "2"}).GetInt("trees", 0),
              ::testing::ExitedWithCode(2), "--trees wants an integer");
}

TEST(FlagsDeathTest, MalformedDoublesExitNamingTheFlag) {
  EXPECT_EXIT(Parse({"--deadline", "soon"}).GetDouble("deadline", 0),
              ::testing::ExitedWithCode(2), "--deadline wants a number");
  EXPECT_EXIT(Parse({"--deadline", "1.5s"}).GetDouble("deadline", 0),
              ::testing::ExitedWithCode(2), "--deadline wants a number");
  EXPECT_EXIT(Parse({"--deadline", "nan"}).GetDouble("deadline", 0),
              ::testing::ExitedWithCode(2), "--deadline wants a number");
  EXPECT_EXIT(Parse({"--deadline="}).GetDouble("deadline", 0),
              ::testing::ExitedWithCode(2), "--deadline wants a number");
}

}  // namespace
}  // namespace vf2boost

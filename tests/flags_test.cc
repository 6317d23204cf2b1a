#include "tools/flags.h"

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

namespace vf2boost {
namespace {

const std::map<std::string, std::string> kSpec = {
    {"trees", "number of trees"},
    {"fault-seed", "reconnect jitter seed"},
    {"deadline", "receive deadline (s)"},
    {"workers", "threads per party"},
    {"party", "which A party"},
    {"connect", "HOST:PORT of party B"}};

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

TEST(FlagsTest, PartyIndexAndHostPortParse) {
  EXPECT_EQ(Parse({"--party", "a0"}).GetIndexed("party", 'a'), 0u);
  EXPECT_EQ(Parse({"--party=a12"}).GetIndexed("party", 'a'), 12u);
  const auto [host, port] =
      Parse({"--connect", "127.0.0.1:7632"}).GetHostPort("connect");
  EXPECT_EQ(host, "127.0.0.1");
  EXPECT_EQ(port, 7632);
  EXPECT_EQ(Parse({"--connect=h:1"}).GetHostPort("connect").second, 1);
  EXPECT_EQ(Parse({"--connect=h:65535"}).GetHostPort("connect").second,
            65535);
}

TEST(FlagsDeathTest, MalformedPartyOrHostPortExitsNamingTheFlag) {
  // atoi used to read "ab" as A0 and "a1x" as A1.
  for (const char* v : {"ab", "a", "b0", "a-1", "a1x", "a+1", "A0"}) {
    EXPECT_EXIT(Parse({"--party", v}).GetIndexed("party", 'a'),
                ::testing::ExitedWithCode(2), "--party wants a<index>")
        << v;
  }
  // ... and dialed port 1 for "1x", port 0 for "abc".
  for (const char* v : {"127.0.0.1:1x", "127.0.0.1:abc", "127.0.0.1:0",
                        "127.0.0.1:65536", "127.0.0.1:", "127.0.0.1",
                        ":7632", "127.0.0.1:-1"}) {
    EXPECT_EXIT(Parse({"--connect", v}).GetHostPort("connect"),
                ::testing::ExitedWithCode(2), "--connect wants HOST:PORT")
        << v;
  }
}

// Runs vf2_fedtrain with `args`; returns its exit code and combined output.
std::pair<int, std::string> RunFedtrain(const std::string& args) {
  const std::string cmd = std::string(VF2_FEDTRAIN) + " " + args + " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return {-1, "popen failed"};
  std::string out;
  char buf[256];
  while (std::fgets(buf, sizeof(buf), pipe) != nullptr) out += buf;
  const int status = pclose(pipe);
  return {WIFEXITED(status) ? WEXITSTATUS(status) : -1, out};
}

TEST(FedtrainFlagsTest, BadPartyOrPortExitsBeforeLoadingData) {
  // The data file does not exist, so a run that got as far as loading it
  // would exit 1; a rejected flag exits 2 first, and nothing is dialed.
  const std::string base =
      "--data " + ::testing::TempDir() + "no_such_train.libsvm ";
  for (const std::string party : {"ab", "a1x"}) {
    const auto [code, out] =
        RunFedtrain(base + "--connect 127.0.0.1:7632 --party " + party);
    EXPECT_EQ(code, 2) << party << ": " << out;
    EXPECT_NE(out.find("--party wants a<index>, got '" + party + "'"),
              std::string::npos)
        << out;
  }
  for (const std::string hostport : {"127.0.0.1:1x", "127.0.0.1:abc"}) {
    const auto [code, out] =
        RunFedtrain(base + "--connect " + hostport + " --party a0");
    EXPECT_EQ(code, 2) << hostport << ": " << out;
    EXPECT_NE(out.find("--connect wants HOST:PORT"), std::string::npos)
        << out;
  }
  const auto [code, out] =
      RunFedtrain(base + "--connect 127.0.0.1:65535 --party a1");
  EXPECT_EQ(code, 1) << out;  // well formed: fails at the data loader
}

TEST(ReadFileTest, ReadsWholeFileAndFailsOnMissingOnes) {
  const std::string path = ::testing::TempDir() + "flags_test_read.txt";
  {
    std::ofstream out(path, std::ios::binary);
    out.write("a\nb\0c", 5);  // binary-safe: the NUL is kept
  }
  std::string text;
  ASSERT_TRUE(tools::ReadFile(path, &text));
  EXPECT_EQ(text, std::string("a\nb\0c", 5));
  EXPECT_FALSE(tools::ReadFile(path + ".missing", &text, /*quiet=*/true));
}

}  // namespace
}  // namespace vf2boost

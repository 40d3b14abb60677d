// Table-driven tests for the CLI's self-description contract: every
// subcommand answers `help`, `--help`, and `-h` with usage on stdout and
// exit 0; an unknown subcommand names itself and the valid list on stderr
// and exits with the config code (2); bare invocation and unknown flags do
// the same. Runs the real binary (path baked in as OBDREL_CLI_PATH).
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "simd/dispatch.hpp"

namespace {

namespace fs = std::filesystem;

struct CmdResult {
  int status = -1;
  std::string out;
  std::string err;
};

CmdResult run_cli(const std::string& args, const std::string& err_file) {
  const std::string full =
      std::string(OBDREL_CLI_PATH) + " " + args + " 2>" + err_file;
  CmdResult r;
  FILE* p = ::popen(full.c_str(), "r");
  if (p == nullptr) return r;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, p)) > 0) r.out.append(buf, n);
  const int rc = ::pclose(p);
  if (WIFEXITED(rc)) r.status = WEXITSTATUS(rc);
  else if (WIFSIGNALED(rc)) r.status = 128 + WTERMSIG(rc);
  std::ifstream in(err_file);
  std::ostringstream os;
  os << in.rdbuf();
  r.err = os.str();
  return r;
}

constexpr const char* kSubcommands[] = {"analyze", "report", "thermal",
                                        "lut",     "drm",    "fleet",
                                        "serve"};

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(fs::exists(OBDREL_CLI_PATH)) << OBDREL_CLI_PATH;
    err_file_ = ::testing::TempDir() + "obdrel-cli-" +
                ::testing::UnitTest::GetInstance()->current_test_info()
                    ->name() +
                ".err";
  }
  void TearDown() override { fs::remove(err_file_); }
  CmdResult run(const std::string& args) { return run_cli(args, err_file_); }
  std::string err_file_;
};

TEST_F(CliTest, EverySubcommandAnswersHelpOnStdoutWithExitZero) {
  for (const char* cmd : kSubcommands) {
    for (const char* form : {"help", "--help", "-h"}) {
      const CmdResult r = run(std::string(cmd) + " " + form);
      EXPECT_EQ(r.status, 0) << cmd << " " << form << "\n" << r.err;
      EXPECT_EQ(r.out.rfind("usage:", 0), 0u) << cmd << " " << form;
      EXPECT_TRUE(r.err.empty()) << cmd << " " << form << "\n" << r.err;
    }
  }
}

TEST_F(CliTest, BareHelpFormsGoToStdoutWithExitZero) {
  for (const char* form : {"help", "--help", "-h"}) {
    const CmdResult r = run(form);
    EXPECT_EQ(r.status, 0) << form << "\n" << r.err;
    EXPECT_EQ(r.out.rfind("usage:", 0), 0u) << form;
  }
}

TEST_F(CliTest, UsageAdvertisesEverySubcommand) {
  const CmdResult r = run("help");
  ASSERT_EQ(r.status, 0);
  for (const char* cmd : kSubcommands)
    EXPECT_NE(r.out.find(std::string(" ") + cmd + " "), std::string::npos)
        << cmd << " missing from usage:\n"
        << r.out;
}

TEST_F(CliTest, UnknownSubcommandNamesItselfAndTheValidList) {
  const CmdResult r = run("analzye some.cfg");
  EXPECT_EQ(r.status, 2);  // config error, not internal
  EXPECT_TRUE(r.out.empty()) << r.out;
  EXPECT_NE(r.err.find("unknown subcommand 'analzye'"), std::string::npos)
      << r.err;
  EXPECT_NE(
      r.err.find(
          "valid: analyze, report, thermal, lut, drm, fleet, serve, help"),
      std::string::npos)
      << r.err;
}

TEST_F(CliTest, BareInvocationPrintsUsageToStderrWithConfigExit) {
  const CmdResult r = run("");
  EXPECT_EQ(r.status, 2);
  EXPECT_TRUE(r.out.empty()) << r.out;
  EXPECT_NE(r.err.find("usage:"), std::string::npos) << r.err;
}

TEST_F(CliTest, UnknownFlagIsAConfigErrorNamingTheFlag) {
  const CmdResult r = run("--frobnicate");
  EXPECT_EQ(r.status, 2);
  EXPECT_NE(r.err.find("unknown flag '--frobnicate'"), std::string::npos)
      << r.err;
}

TEST_F(CliTest, MissingFlagValueIsAConfigError) {
  const CmdResult r = run("serve cfg --socket");
  EXPECT_EQ(r.status, 2);
  EXPECT_NE(r.err.find("--socket needs a value"), std::string::npos)
      << r.err;
}

TEST_F(CliTest, UsageNamesEverySimdLevel) {
  const CmdResult r = run("help");
  ASSERT_EQ(r.status, 0);
  const std::string key = "`simd` config key (";
  const std::size_t begin = r.out.find(key);
  ASSERT_NE(begin, std::string::npos) << r.out;
  const std::size_t end = r.out.find(',', begin);
  ASSERT_NE(end, std::string::npos) << r.out;
  std::set<std::string> listed;
  std::istringstream in(
      r.out.substr(begin + key.size(), end - begin - key.size()));
  for (std::string level; std::getline(in, level, '|');) listed.insert(level);
  // simd::configure accepts "auto" plus the name of every dispatch level.
  std::set<std::string> accepted{"auto"};
  using obd::simd::Level;
  for (const Level level : {Level::kScalar, Level::kAvx2})
    accepted.insert(obd::simd::to_string(level));
  EXPECT_EQ(listed, accepted) << r.out;
}

TEST_F(CliTest, BadDeviceSamplingIsAConfigErrorNamingTheKey) {
  const std::string cfg = ::testing::TempDir() + "obdrel-cli-sampling.cfg";
  {
    std::ofstream out(cfg);
    out << "grid 6\nmc_chips 4\ndevice_sampling bogus\n";
  }
  for (const std::string& cmd :
       {"analyze " + cfg, "fleet " + cfg + " --chips 4", "thermal " + cfg,
        "serve " + cfg + " --stdin </dev/null"}) {
    const CmdResult r = run(cmd);
    EXPECT_EQ(r.status, 2) << cmd << "\n" << r.err;
    EXPECT_NE(r.err.find("device_sampling"), std::string::npos)
        << cmd << "\n" << r.err;
  }
  fs::remove(cfg);
}

}  // namespace

// Golden digests of the CLI's user-visible outputs on two small configs:
// the stdout of thermal, analyze (runtime column masked), report, lut
// query, drm run and fleet, the `lut build` file, the sorted
// `serve --stdin` replies, plus the two derived identities that durable
// state is matched against — the fleet journal's `fp` and the serve
// disk-cache file names. Any change to the config -> problem chain or to
// the problem keys that moves one byte of these fails here.
//
// Both configs set `simd scalar`: the binned-MC kernels are ULP-bounded
// across SIMD tiers (docs/PERFORMANCE.md), so only the scalar tier gives
// digests that hold on every host and under a forced OBDREL_SIMD. Runs the
// real binary (path baked in as OBDREL_CLI_PATH).
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace {

namespace fs = std::filesystem;

std::string fnv1a_hex(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, h);
  return buf;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// Drops the trailing `runtime [s]` field of every row below analyze's
// table header: wall time is the one output that may differ run to run.
std::string mask_runtime(const std::string& analyze_out) {
  std::istringstream in(analyze_out);
  std::string out;
  bool in_table = false;
  for (std::string line; std::getline(in, line);) {
    if (in_table && !line.empty()) line.erase(line.find_last_of(' '));
    if (line.rfind("method", 0) == 0) in_table = true;
    out += line + '\n';
  }
  return out;
}

// One sorted line per reply: the server may answer a batch's groups in any
// order, but each reply's bytes are fixed.
std::string sorted_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);)
    if (!line.empty()) lines.push_back(line);
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const auto& l : lines) out += l + '\n';
  return out;
}

// Problem-shaping requests: plain times, a set.* override that makes a
// second fingerprint, a cond.* corner, and set.vdd with cond.vdd.
constexpr const char* kServeRequests =
    "id=a t=3e8\n"
    "id=b t=1e9\n"
    "id=c t=3e8 set.ambient_c=60\n"
    "id=d t=3e8 cond.dt=5 cond.act=1.2\n"
    "id=e t=3e8 set.vdd=1.1 cond.vdd=1.05\n";

struct Golden {
  const char* output;
  const char* digest;  ///< fnv1a_hex of the output bytes
};

class CliGoldenTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(fs::exists(OBDREL_CLI_PATH)) << OBDREL_CLI_PATH;
    dir_ = ::testing::TempDir() + "obdrel-golden-" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  // Runs the CLI; stdout is returned, stderr (stats, warnings) is dropped.
  std::string run(const std::string& args) {
    const std::string full = std::string(OBDREL_CLI_PATH) + " " + args +
                             " 2>" + dir_ + "/stderr";
    std::string out;
    FILE* p = ::popen(full.c_str(), "r");
    EXPECT_NE(p, nullptr) << full;
    if (p == nullptr) return out;
    char buf[4096];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof buf, p)) > 0) out.append(buf, n);
    const int rc = ::pclose(p);
    EXPECT_TRUE(WIFEXITED(rc) && WEXITSTATUS(rc) == 0)
        << full << "\n" << slurp(dir_ + "/stderr");
    return out;
  }

  // Runs every subcommand on `config` and checks each output's digest,
  // the fleet journal fingerprint and the serve cache file names.
  void check(const std::string& config, const std::vector<Golden>& golden,
             const std::string& fleet_fp, const std::string& cache_names) {
    const std::string d = dir_ + "/";
    const std::string cfg = d + "golden.cfg";
    std::ofstream(cfg) << config;
    std::ofstream(d + "trace.csv") << "0.5\n1.2\n0.9\n";
    std::ofstream(d + "requests") << kServeRequests;

    std::vector<std::pair<std::string, std::string>> outputs;
    outputs.emplace_back("thermal", run("thermal " + cfg));
    outputs.emplace_back("analyze", mask_runtime(run("analyze " + cfg)));
    outputs.emplace_back("report", run("report " + cfg));
    run("lut build " + cfg + " " + d + "golden.lut");
    outputs.emplace_back("lut build", slurp(d + "golden.lut"));
    outputs.emplace_back("lut query",
                         run("lut query " + cfg + " " + d + "golden.lut 3e8"));
    outputs.emplace_back("drm run", run("drm run " + cfg + " " + d +
                                        "trace.csv"));
    outputs.emplace_back(
        "fleet", run("fleet " + cfg + " --chips 64 --shards 2 --fleet-dir " +
                     d + "fleet"));
    outputs.emplace_back(
        "serve", sorted_lines(run("serve " + cfg + " --stdin --cache-dir " +
                                  d + "cache < " + d + "requests")));

    ASSERT_EQ(outputs.size(), golden.size());
    for (std::size_t i = 0; i < golden.size(); ++i) {
      ASSERT_EQ(outputs[i].first, golden[i].output);
      EXPECT_EQ(fnv1a_hex(outputs[i].second), golden[i].digest)
          << golden[i].output << " output:\n"
          << outputs[i].second;
    }

    // The journal's first record carries the fleet fingerprint, which
    // folds in the problem key: existing fleet state matches only while
    // the key's bytes are unchanged.
    const std::string journal = slurp(d + "fleet/shard-0.journal");
    const std::size_t at = journal.find(" fp ");
    ASSERT_NE(at, std::string::npos) << journal;
    EXPECT_EQ(journal.substr(at + 4, 16), fleet_fp);

    // Disk-cache files are named by the FNV-1a hash of the serve key.
    std::vector<std::string> names;
    for (const auto& e : fs::directory_iterator(d + "cache"))
      names.push_back(e.path().filename().string());
    std::sort(names.begin(), names.end());
    std::string joined;
    for (const auto& n : names) joined += (joined.empty() ? "" : " ") + n;
    EXPECT_EQ(joined, cache_names);
  }

  std::string dir_;
};

TEST_F(CliGoldenTest, DefaultConfigOutputsMatchDigests) {
  check("design c1\ngrid 8\nmc_chips 16\nsimd scalar\n",
        {{"thermal", "ed616f25c08d2c43"},
         {"analyze", "bea90759129c15a4"},
         {"report", "4bd2c67025f94c8a"},
         {"lut build", "58a0c6761b2dc490"},
         {"lut query", "1c1c39b0ce84659c"},
         {"drm run", "1cb6939b861f7662"},
         {"fleet", "9e1a195fd2d07e4d"},
         {"serve", "c3b8817b97ab8127"}},
        "80674ac5a87a19c2",
        "5bd3b93f8ab97e7d.lut 6c8ea02597cc08d2.lut 98c53a2518110648.lut");
}

// Every key of the shared problem chain away from its default, the
// mechanism spec included.
TEST_F(CliGoldenTest, NonDefaultConfigOutputsMatchDigests) {
  check("design c2\ndevice_density 2500\nvdd 1.15\nrho_dist 0.4\ngrid 8\n"
        "ambient_c 50\nvariance_capture 0.99\neigen_solver truncated\n"
        "thermal_sweep redblack\nmechanisms oxide,nbti,em\n"
        "device_sampling per_device\nmc_chips 16\nsimd scalar\n",
        {{"thermal", "0278b14918686187"},
         {"analyze", "814b11315807f8da"},
         {"report", "9c14c639abd10af2"},
         {"lut build", "6b06965ec8237b9d"},
         {"lut query", "f28ea3576e219d5e"},
         {"drm run", "9c14a331ffddb18d"},
         {"fleet", "d3eac0fd4ba976bc"},
         {"serve", "a1e9c2e1da8e72f0"}},
        "2a7df6ad89cea6f8",
        "7c33448f10c276af.lut a26d179d3fb17043.lut e6acec1a32b14110.lut");
}

}  // namespace

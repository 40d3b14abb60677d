// End-to-end process tests for `obdrel serve` against the real CLI binary
// (path baked in as OBDREL_CLI_PATH). The contracts under test are the
// daemon's survival guarantees: every request gets exactly one reply (ok,
// error, or overloaded); SIGTERM drains admitted work and exits 0; SIGKILL
// plus restart over the same cache directory serves byte-identical replies;
// and a vandalized cache file is quarantined and recomputed, never believed
// and never fatal.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace {

namespace fs = std::filesystem;

struct CmdResult {
  int status = -1;  ///< exit code (or 128+signal)
  std::string out;  ///< captured stdout
};

// Runs `cmd` under /bin/sh with stdout captured; stderr goes to `err_file`
// (the byte-identity contract is over stdout only).
CmdResult run_cmd(const std::string& cmd, const std::string& err_file) {
  const std::string full = cmd + " 2>" + err_file;
  CmdResult r;
  FILE* p = ::popen(full.c_str(), "r");
  if (p == nullptr) return r;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, p)) > 0) r.out.append(buf, n);
  const int rc = ::pclose(p);
  if (WIFEXITED(rc)) r.status = WEXITSTATUS(rc);
  else if (WIFSIGNALED(rc)) r.status = 128 + WTERMSIG(rc);
  return r;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line))
    if (!line.empty()) lines.push_back(line);
  return lines;
}

std::size_t count_lines_with(const std::string& text,
                             const std::string& needle) {
  std::size_t n = 0;
  for (const auto& l : lines_of(text))
    if (l.find(needle) != std::string::npos) ++n;
  return n;
}

// Spawns `cmd` under /bin/sh; callers prefix with `exec` so the returned
// pid is the daemon itself, not the shell.
pid_t spawn_shell(const std::string& cmd) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::execl("/bin/sh", "sh", "-c", cmd.c_str(), static_cast<char*>(nullptr));
    ::_exit(127);
  }
  return pid;
}

// Polls `pred` every 20 ms for up to ~30 s (cold table builds on a loaded
// CI box take a while).
template <typename Pred>
bool wait_for(Pred&& pred) {
  for (int i = 0; i < 1500; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return false;
}

int connect_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::snprintf(addr.sun_path, sizeof addr.sun_path, "%s", path.c_str());
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool write_all(int fd, const std::string& text) {
  std::size_t off = 0;
  while (off < text.size()) {
    const ssize_t n = ::write(fd, text.data() + off, text.size() - off);
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

// Blocking read until `n` newline-terminated replies have arrived.
std::string read_replies(int fd, std::size_t n) {
  std::string got;
  char buf[4096];
  while (static_cast<std::size_t>(
             std::count(got.begin(), got.end(), '\n')) < n) {
    const ssize_t r = ::read(fd, buf, sizeof buf);
    if (r <= 0) break;
    got.append(buf, static_cast<std::size_t>(r));
  }
  return got;
}

class ServeProcessTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cli_ = OBDREL_CLI_PATH;
    ASSERT_TRUE(fs::exists(cli_)) << cli_;
    dir_ = ::testing::TempDir() + "obdrel-serveproc-" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    cfg_ = dir_ + "/serve.cfg";
    // Small problem and small tables: one cold build per fingerprint is
    // the dominant cost, so the query set below uses only two.
    std::ofstream(cfg_) << "design c1\n"
                           "grid 8\n"
                           "serve_n_gamma 16\n"
                           "serve_n_b 12\n"
                           "threads 2\n";
  }
  void TearDown() override { fs::remove_all(dir_); }

  // The canonical query set: two fingerprints (base config and a hotter
  // ambient), plus ids chosen so every reply is greppable.
  std::string write_queries(const std::string& name) {
    const std::string path = dir_ + "/" + name;
    std::ofstream(path) << "id=a t=1e8\n"
                           "id=b t=3.15e8\n"
                           "id=c t=3.15e8 set.ambient_c=60\n"
                           "id=d t=1e9 set.ambient_c=60\n";
    return path;
  }

  // Runs the daemon in --stdin mode over `qfile` with the given cache dir.
  CmdResult serve_stdin(const std::string& tag, const std::string& qfile,
                        const std::string& cache_dir,
                        const std::string& extra = "") {
    return serve_stdin_cfg(cfg_, tag, qfile, cache_dir, extra);
  }

  CmdResult serve_stdin_cfg(const std::string& cfg, const std::string& tag,
                            const std::string& qfile,
                            const std::string& cache_dir,
                            const std::string& extra = "") {
    return run_cmd(cli_ + " serve " + cfg + " --stdin --cache-dir " +
                       cache_dir + " " + extra + " <" + qfile,
                   dir_ + "/err-" + tag + ".txt");
  }

  // Same problem as cfg_ with the surrogate tier on at a reduced fit
  // resolution (the c1 default stack is oxide-only; these counts certify
  // comfortably under the loosened tolerance).
  std::string write_surrogate_cfg() {
    const std::string path = dir_ + "/serve-sur.cfg";
    std::ofstream(path) << "design c1\n"
                           "grid 8\n"
                           "serve_n_gamma 16\n"
                           "serve_n_b 12\n"
                           "threads 2\n"
                           "surrogate on\n"
                           "surrogate_tol 1e-3\n"
                           "surrogate_n_t 11\n"
                           "surrogate_n_dt 7\n"
                           "surrogate_n_vdd 5\n"
                           "surrogate_n_act 4\n"
                           "surrogate_fit_n_gamma 160\n"
                           "surrogate_fit_n_b 64\n"
                           "surrogate_probes 128\n";
    return path;
  }

  std::string err(const std::string& tag) {
    return slurp(dir_ + "/err-" + tag + ".txt");
  }

  std::string cli_;
  std::string dir_;
  std::string cfg_;
};

// ---------------------------------------------------------------------------
// stdin mode: exactly one reply per request, malformed lines included
// ---------------------------------------------------------------------------

TEST_F(ServeProcessTest, StdinModeAnswersEveryRequestExactlyOnce) {
  const std::string qfile = dir_ + "/q.txt";
  std::ofstream(qfile) << "id=a t=1e8\n"
                          "op=health id=hb\n"
                          "this is not a request\n"
                          "id=b t=3.15e8\n";
  const CmdResult r = serve_stdin("once", qfile, dir_ + "/cache");
  ASSERT_EQ(r.status, 0) << err("once");
  const auto replies = lines_of(r.out);
  ASSERT_EQ(replies.size(), 4u) << r.out;
  EXPECT_EQ(count_lines_with(r.out, "id=a ok=1 "), 1u) << r.out;
  EXPECT_EQ(count_lines_with(r.out, "id=b ok=1 "), 1u) << r.out;
  EXPECT_EQ(count_lines_with(r.out, "id=hb ok=1 health=1 "), 1u) << r.out;
  EXPECT_EQ(count_lines_with(r.out, "id=? error=invalid-input"), 1u) << r.out;
  // Drain flushed the lone fingerprint to the disk tier.
  std::size_t luts = 0;
  for (const auto& e : fs::directory_iterator(dir_ + "/cache"))
    if (e.path().extension() == ".lut") ++luts;
  EXPECT_EQ(luts, 1u);
}

TEST_F(ServeProcessTest, DrainSummaryCountsSharedBuildsAndHealthIsUnchanged) {
  const std::string qfile = dir_ + "/q.txt";
  std::ofstream(qfile) << "id=a t=1e8\n"
                          "id=b t=1e8 set.ambient_c=60\n"
                          "op=health id=hb\n";
  const CmdResult r = serve_stdin("shared", qfile, dir_ + "/cache");
  ASSERT_EQ(r.status, 0) << err("shared");
  // The ambient fingerprint took the base fingerprint's variation stage;
  // it is still a miss, since neither tier held its tables.
  EXPECT_NE(err("shared").find("misses 2, evictions 0, corrupt 0, "
                               "shared builds 1"),
            std::string::npos)
      << err("shared");
  // The health reply carries no new field: it still ends at
  // write_failures.
  EXPECT_EQ(r.out.find("shared"), std::string::npos) << r.out;
  std::size_t health = 0;
  for (const auto& l : lines_of(r.out)) {
    if (l.rfind("id=hb ", 0) != 0) continue;
    ++health;
    const std::string tail = " write_failures=0";
    ASSERT_GE(l.size(), tail.size()) << l;
    EXPECT_EQ(l.substr(l.size() - tail.size()), tail) << l;
  }
  EXPECT_EQ(health, 1u) << r.out;
}

// ---------------------------------------------------------------------------
// Overload: a tiny admission queue sheds deterministically, and shed
// requests still get their one reply
// ---------------------------------------------------------------------------

TEST_F(ServeProcessTest, OverloadShedsButStillAnswersEveryRequestOnce) {
  const std::string qfile = dir_ + "/q.txt";
  {
    std::ofstream q(qfile);
    for (int i = 0; i < 8; ++i) q << "id=q" << i << " t=3.15e8\n";
    q << "op=health id=hb\n";  // health must bypass the full queue
  }
  // stdin is a regular file: all nine lines arrive in one read, so with
  // queue_limit=2 exactly two are admitted and six shed, deterministically.
  const CmdResult r =
      serve_stdin("shed", qfile, dir_ + "/cache", "--queue 2");
  ASSERT_EQ(r.status, 0) << err("shed");
  ASSERT_EQ(lines_of(r.out).size(), 9u) << r.out;
  EXPECT_EQ(count_lines_with(r.out, " ok=1"), 3u) << r.out;  // 2 queries + hb
  EXPECT_EQ(count_lines_with(r.out, " overloaded=1"), 6u) << r.out;
  EXPECT_EQ(count_lines_with(r.out, "id=hb ok=1 health=1 "), 1u) << r.out;
  for (int i = 0; i < 8; ++i)
    EXPECT_EQ(count_lines_with(r.out, "id=q" + std::to_string(i) + " "), 1u)
        << r.out;
  // The summary stat records the shed count for post-hoc forensics.
  EXPECT_NE(err("shed").find("serve.shed"), std::string::npos) << err("shed");
}

// ---------------------------------------------------------------------------
// Socket mode: health probe, SIGTERM drain, exit 0, socket unlinked
// ---------------------------------------------------------------------------

TEST_F(ServeProcessTest, SigtermDrainsAdmittedWorkAndExitsZero) {
  const std::string sock = dir_ + "/d.sock";
  const std::string out = dir_ + "/daemon.out";
  const std::string cache = dir_ + "/cache";
  const pid_t pid = spawn_shell("exec " + cli_ + " serve " + cfg_ +
                                " --socket " + sock + " --cache-dir " +
                                cache + " >" + out + " 2>" + dir_ +
                                "/daemon.err");
  ASSERT_GT(pid, 0);
  ASSERT_TRUE(wait_for([&] { return fs::exists(sock); }))
      << slurp(dir_ + "/daemon.err");

  const int fd = connect_unix(sock);
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(write_all(fd, "op=health id=hb\nid=a t=3.15e8\n"));
  const std::string replies = read_replies(fd, 2);
  EXPECT_EQ(count_lines_with(replies, "id=hb ok=1 health=1 "), 1u) << replies;
  EXPECT_EQ(count_lines_with(replies, "id=a ok=1 "), 1u) << replies;
  ::close(fd);

  ASSERT_EQ(::kill(pid, SIGTERM), 0);
  int status = -1;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status)) << status;
  EXPECT_EQ(WEXITSTATUS(status), 0) << slurp(dir_ + "/daemon.err");
  EXPECT_FALSE(fs::exists(sock));  // drain unlinks its socket
  // Drain flushed the answered fingerprint.
  std::size_t luts = 0;
  for (const auto& e : fs::directory_iterator(cache))
    if (e.path().extension() == ".lut") ++luts;
  EXPECT_EQ(luts, 1u);
}

// ---------------------------------------------------------------------------
// SIGKILL + restart over the same cache directory: byte-identical replies
// ---------------------------------------------------------------------------

TEST_F(ServeProcessTest, KillAndRestartServesByteIdenticalReplies) {
  const std::string qfile = write_queries("q.txt");
  // Reference: one uninterrupted cold run in its own cache directory.
  const CmdResult ref = serve_stdin("ref", qfile, dir_ + "/cache-ref");
  ASSERT_EQ(ref.status, 0) << err("ref");
  ASSERT_EQ(lines_of(ref.out).size(), 4u) << ref.out;

  // Chaos run: seed the shared cache dir with the first fingerprint (clean
  // drain writes it out), then SIGKILL a daemon mid-conversation — nothing
  // it computed gets flushed, and a torn temp file is left behind to prove
  // the startup sweep runs.
  const std::string cache = dir_ + "/cache-chaos";
  const std::string seed_q = dir_ + "/seed.txt";
  std::ofstream(seed_q) << "id=a t=1e8\nid=b t=3.15e8\n";
  ASSERT_EQ(serve_stdin("seed", seed_q, cache).status, 0) << err("seed");

  const std::string pipe = dir_ + "/q.pipe";
  ASSERT_EQ(::mkfifo(pipe.c_str(), 0600), 0);
  const std::string out = dir_ + "/chaos.out";
  const pid_t pid = spawn_shell("exec " + cli_ + " serve " + cfg_ +
                                " --stdin --cache-dir " + cache + " <" +
                                pipe + " >" + out + " 2>" + dir_ +
                                "/chaos.err");
  ASSERT_GT(pid, 0);
  const int wfd = ::open(pipe.c_str(), O_WRONLY);  // blocks until daemon opens
  ASSERT_GE(wfd, 0);
  ASSERT_TRUE(write_all(wfd, "id=c t=3.15e8 set.ambient_c=60\n"));
  ASSERT_TRUE(wait_for([&] { return !slurp(out).empty(); }))
      << slurp(dir_ + "/chaos.err");
  ASSERT_EQ(::kill(pid, SIGKILL), 0);
  int status = -1;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status));
  ::close(wfd);
  std::ofstream(cache + "/torn.lut.tmp") << "half-written";

  // Restart over the survivor cache and replay the full set: fingerprint 1
  // comes off disk, fingerprint 2 is recomputed, and the bytes must match
  // the uninterrupted run exactly.
  const CmdResult again = serve_stdin("again", qfile, cache);
  ASSERT_EQ(again.status, 0) << err("again");
  EXPECT_EQ(again.out, ref.out);
  EXPECT_FALSE(fs::exists(cache + "/torn.lut.tmp"));  // startup sweep
}

// ---------------------------------------------------------------------------
// Corrupt cache entries are quarantined and recomputed, byte-identically
// ---------------------------------------------------------------------------

TEST_F(ServeProcessTest, CorruptCacheFileIsQuarantinedAndRecomputed) {
  const std::string qfile = write_queries("q.txt");
  const std::string cache = dir_ + "/cache";
  const CmdResult cold = serve_stdin("cold", qfile, cache);
  ASSERT_EQ(cold.status, 0) << err("cold");

  // Vandalize every cached table file.
  std::size_t vandalized = 0;
  for (const auto& e : fs::directory_iterator(cache))
    if (e.path().extension() == ".lut") {
      std::ofstream(e.path(), std::ios::trunc) << "garbage";
      ++vandalized;
    }
  ASSERT_EQ(vandalized, 2u);

  const CmdResult again = serve_stdin("again", qfile, cache);
  ASSERT_EQ(again.status, 0) << err("again");
  EXPECT_EQ(again.out, cold.out);  // recomputed, byte-identical, no crash
  std::size_t quarantined = 0;
  for (const auto& e : fs::directory_iterator(cache))
    if (e.path().extension() == ".quarantined") ++quarantined;
  EXPECT_EQ(quarantined, 2u);
}

// ---------------------------------------------------------------------------
// Surrogate tier off (the default): the reply grammar is frozen
// ---------------------------------------------------------------------------

TEST_F(ServeProcessTest, SurrogateOffRepliesNeverMentionTheTier) {
  const std::string qfile = dir_ + "/q.txt";
  std::ofstream(qfile) << "id=a t=1e8\n"
                          "id=b t=3.15e8 cond.dt=3\n"
                          "id=c t=3.15e8 cond.dt=3 cond.dt.0=8\n"
                          "op=health id=hb\n";
  const CmdResult r = serve_stdin("off", qfile, dir_ + "/cache");
  ASSERT_EQ(r.status, 0) << err("off");
  ASSERT_EQ(lines_of(r.out).size(), 4u) << r.out;
  // With the tier off every reply — and the health line — is
  // byte-identical to a daemon predating the surrogate layer.
  EXPECT_EQ(r.out.find("surrogate"), std::string::npos) << r.out;
  // The repeated same-corner cond queries reused incremental rows; the
  // drain stat records it.
  EXPECT_NE(err("off").find("serve.incremental"), std::string::npos)
      << err("off");
}

// ---------------------------------------------------------------------------
// Surrogate tier on: certified corners served from coefficients, anything
// outside the certificate verifiably falls through to exact
// ---------------------------------------------------------------------------

TEST_F(ServeProcessTest, SurrogateServesInDomainAndFallsThroughOutside) {
  const std::string sur_cfg = write_surrogate_cfg();
  const std::string cache = dir_ + "/cache";
  const std::string qfile = dir_ + "/q.txt";
  std::ofstream(qfile) << "id=in t=3.15e8 cond.dt=4\n"
                          "id=out t=3.15e8 cond.dt=50\n";

  // Cold run: exact answers (flagged surrogate=0), fit + persist .cheb.
  const std::string warm_q = dir_ + "/warm.txt";
  std::ofstream(warm_q) << "id=w t=3.15e8\n";
  const CmdResult warm = serve_stdin_cfg(sur_cfg, "warm", warm_q, cache);
  ASSERT_EQ(warm.status, 0) << err("warm");
  EXPECT_EQ(count_lines_with(warm.out, "id=w ok=1 "), 1u) << warm.out;
  EXPECT_EQ(count_lines_with(warm.out, " surrogate=0"), 1u) << warm.out;
  std::size_t chebs = 0;
  for (const auto& e : fs::directory_iterator(cache))
    if (e.path().extension() == ".cheb") ++chebs;
  ASSERT_EQ(chebs, 1u);

  // Restarted daemon: the in-domain corner is answered from the loaded
  // coefficients, the out-of-domain one falls through to the exact engine.
  const CmdResult r = serve_stdin_cfg(sur_cfg, "sur", qfile, cache);
  ASSERT_EQ(r.status, 0) << err("sur");
  ASSERT_EQ(lines_of(r.out).size(), 2u) << r.out;
  EXPECT_EQ(count_lines_with(r.out, "id=in ok=1 "), 1u) << r.out;
  EXPECT_EQ(count_lines_with(r.out, " surrogate=1"), 1u) << r.out;
  EXPECT_EQ(count_lines_with(r.out, "id=out ok=1 "), 1u) << r.out;
  EXPECT_EQ(count_lines_with(r.out, " surrogate=0"), 1u) << r.out;
  EXPECT_NE(err("sur").find("serve.surrogate"), std::string::npos)
      << err("sur");

  // The fallen-through reply is byte-identical to a tier-off daemon's
  // answer for the same query, modulo the appended flag field.
  const std::string ref_q = dir_ + "/ref.txt";
  std::ofstream(ref_q) << "id=out t=3.15e8 cond.dt=50\n";
  const CmdResult ref = serve_stdin("ref", ref_q, dir_ + "/cache-ref");
  ASSERT_EQ(ref.status, 0) << err("ref");
  std::string out_line;
  for (const auto& l : lines_of(r.out))
    if (l.rfind("id=out ", 0) == 0) out_line = l;
  const std::size_t flag = out_line.find(" surrogate=");
  ASSERT_NE(flag, std::string::npos) << out_line;
  EXPECT_EQ(out_line.substr(0, flag) + "\n", ref.out);
}

// ---------------------------------------------------------------------------
// Vandalized coefficient file: quarantine + refit, byte-identical replies
// ---------------------------------------------------------------------------

TEST_F(ServeProcessTest, VandalizedSurrogateFileIsQuarantinedAndRefit) {
  const std::string sur_cfg = write_surrogate_cfg();
  const std::string cache = dir_ + "/cache";
  const std::string qfile = dir_ + "/q.txt";
  std::ofstream(qfile) << "id=q t=3.15e8 cond.dt=4\n";

  // Fit once (cold plain query), then capture the surrogate-served reply.
  const std::string warm_q = dir_ + "/warm.txt";
  std::ofstream(warm_q) << "id=w t=3.15e8\n";
  ASSERT_EQ(serve_stdin_cfg(sur_cfg, "warm", warm_q, cache).status, 0)
      << err("warm");
  const CmdResult before = serve_stdin_cfg(sur_cfg, "before", qfile, cache);
  ASSERT_EQ(before.status, 0) << err("before");
  ASSERT_EQ(count_lines_with(before.out, " surrogate=1"), 1u) << before.out;

  // Vandalize the coefficient file.
  std::string cheb;
  for (const auto& e : fs::directory_iterator(cache))
    if (e.path().extension() == ".cheb") cheb = e.path().string();
  ASSERT_FALSE(cheb.empty());
  std::ofstream(cheb, std::ios::trunc) << "garbage";

  // Restart: the file is quarantined (never believed), the query answered
  // exactly, and the post-build refit re-persists a certified model.
  const CmdResult refit = serve_stdin_cfg(sur_cfg, "refit", qfile, cache);
  ASSERT_EQ(refit.status, 0) << err("refit");
  EXPECT_EQ(count_lines_with(refit.out, "id=q ok=1 "), 1u) << refit.out;
  EXPECT_EQ(count_lines_with(refit.out, " surrogate=0"), 1u) << refit.out;
  EXPECT_TRUE(fs::exists(cheb + ".quarantined"));
  EXPECT_TRUE(fs::exists(cheb));

  // The refit is deterministic: a further restart serves byte-identical
  // surrogate replies to the pre-vandalism run.
  const CmdResult after = serve_stdin_cfg(sur_cfg, "after", qfile, cache);
  ASSERT_EQ(after.status, 0) << err("after");
  EXPECT_EQ(after.out, before.out);
}

}  // namespace

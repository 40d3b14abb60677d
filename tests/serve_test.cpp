// Unit tests for the serving layer: fingerprinting, the durable table
// cache (LRU + byte budget + CRC disk tier + quarantine), the request
// grammar, deadline policy, and the coalescing query engine — including
// the contract the crash tests lean on: a memory hit, a disk reload, and
// a cold compute produce byte-identical replies.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "chip/design.hpp"
#include "common/checkpoint.hpp"
#include "common/config.hpp"
#include "common/diagnostics.hpp"
#include "common/error.hpp"
#include "common/fault_injection.hpp"
#include "core/device_model.hpp"
#include "core/hybrid.hpp"
#include "core/pipeline.hpp"
#include "core/problem.hpp"
#include "serve/cache.hpp"
#include "serve/engine.hpp"
#include "variation/model.hpp"

namespace obd {
namespace {

namespace fs = std::filesystem;

class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::disarm();
    diagnostics().clear();
    set_strict_mode(false);
    dir_ = ::testing::TempDir() + "obdrel-serve-" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override {
    fault::disarm();
    diagnostics().clear();
    set_strict_mode(false);
    fs::remove_all(dir_);
  }
  std::string dir_;
};

// Shared small problem for the table-cache round-trip tests (building one
// is the expensive part).
class ServeCacheTest : public ServeTest {
 protected:
  static void SetUpTestSuite() {
    design_ = new chip::Design(chip::make_synthetic_design(
        "serve", {.devices = 20000, .block_count = 4, .die_width = 4.0,
                  .die_height = 4.0, .seed = 5}));
    model_ = new core::AnalyticReliabilityModel();
    core::ProblemOptions opts;
    opts.grid_cells_per_side = 8;
    problem_ = new core::ReliabilityProblem(core::ReliabilityProblem::build(
        *design_, var::VariationBudget{}, *model_,
        std::vector<double>(design_->blocks.size(), 80.0), 1.2, opts));
  }
  static void TearDownTestSuite() {
    delete problem_;
    delete model_;
    delete design_;
    problem_ = nullptr;
    model_ = nullptr;
    design_ = nullptr;
  }
  static core::HybridOptions small_tables() {
    core::HybridOptions h;
    h.n_gamma = 16;
    h.n_b = 12;
    return h;
  }
  static chip::Design* design_;
  static core::AnalyticReliabilityModel* model_;
  static core::ReliabilityProblem* problem_;
};

chip::Design* ServeCacheTest::design_ = nullptr;
core::AnalyticReliabilityModel* ServeCacheTest::model_ = nullptr;
core::ReliabilityProblem* ServeCacheTest::problem_ = nullptr;

// ---------------------------------------------------------------------------
// Fingerprinting and file naming
// ---------------------------------------------------------------------------

TEST_F(ServeTest, FingerprintIsDeterministicAndKeySensitive) {
  EXPECT_EQ(serve::fingerprint("design=c1"), serve::fingerprint("design=c1"));
  EXPECT_NE(serve::fingerprint("design=c1"), serve::fingerprint("design=c2"));
  EXPECT_NE(serve::fingerprint(""), serve::fingerprint("x"));
}

TEST_F(ServeTest, CacheFilePathIsHexUnderTheDirectory) {
  const std::string p = serve::cache_file_path("/tmp/cache", 0xabcdull);
  EXPECT_EQ(p, "/tmp/cache/abcd.lut");
}

// ---------------------------------------------------------------------------
// Disk-tier files: CRC framing, foreign keys, corruption quarantine
// ---------------------------------------------------------------------------

TEST_F(ServeTest, CacheFileRoundTripsItsPayload) {
  const std::string path = dir_ + "/e.lut";
  ASSERT_TRUE(serve::write_cache_file(path, "the-key", "line1\nline2\n"));
  bool quarantined = true;
  const auto text = serve::read_cache_file(path, "the-key", &quarantined);
  ASSERT_TRUE(text.has_value());
  EXPECT_FALSE(quarantined);
  EXPECT_EQ(*text, "line1\nline2\n");
}

TEST_F(ServeTest, MissingCacheFileIsAPlainMiss) {
  bool quarantined = true;
  EXPECT_FALSE(serve::read_cache_file(dir_ + "/absent.lut", "k",
                                      &quarantined));
  EXPECT_FALSE(quarantined);
  EXPECT_EQ(diagnostics().count("serve.cache_corrupt"), 0u);
}

TEST_F(ServeTest, ForeignKeyIsQuarantinedNotBelieved) {
  const std::string path = dir_ + "/e.lut";
  ASSERT_TRUE(serve::write_cache_file(path, "their-key", "tables"));
  bool quarantined = false;
  EXPECT_FALSE(serve::read_cache_file(path, "my-key", &quarantined));
  EXPECT_TRUE(quarantined);
  EXPECT_FALSE(fs::exists(path));
  EXPECT_TRUE(fs::exists(path + ".quarantined"));
  EXPECT_GE(diagnostics().count("serve.cache_corrupt"), 1u);
}

TEST_F(ServeTest, BitRotIsQuarantinedNotBelieved) {
  const std::string path = dir_ + "/e.lut";
  ASSERT_TRUE(serve::write_cache_file(path, "the-key", "tables"));
  // Flip one payload byte under the CRC.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(-2, std::ios::end);
    f.put('X');
  }
  bool quarantined = false;
  EXPECT_FALSE(serve::read_cache_file(path, "the-key", &quarantined));
  EXPECT_TRUE(quarantined);
  EXPECT_TRUE(fs::exists(path + ".quarantined"));
}

// ---------------------------------------------------------------------------
// LRU cache mechanics
// ---------------------------------------------------------------------------

serve::CacheEntry stub_entry(const std::string& key, std::size_t bytes) {
  serve::CacheEntry e;
  e.key = key;
  e.fp = serve::fingerprint(key);
  e.bytes = bytes;
  return e;
}

TEST_F(ServeTest, LruEvictsTheLeastRecentlyUsedFirst) {
  serve::CacheOptions opts;
  opts.byte_budget = 250;  // room for two 100-byte entries
  serve::TableCache cache(opts);
  cache.insert(stub_entry("a", 100));
  cache.insert(stub_entry("b", 100));
  // Touch "a" so "b" becomes the eviction victim.
  ASSERT_NE(cache.find(serve::fingerprint("a"), "a"), nullptr);
  cache.insert(stub_entry("c", 100));
  EXPECT_EQ(cache.entries(), 2u);
  EXPECT_NE(cache.find(serve::fingerprint("a"), "a"), nullptr);
  EXPECT_EQ(cache.find(serve::fingerprint("b"), "b"), nullptr);
  EXPECT_NE(cache.find(serve::fingerprint("c"), "c"), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_LE(cache.bytes(), opts.byte_budget);
}

TEST_F(ServeTest, MostRecentEntryStaysResidentEvenOverBudget) {
  serve::CacheOptions opts;
  opts.byte_budget = 10;
  serve::TableCache cache(opts);
  cache.insert(stub_entry("big", 1000));
  EXPECT_EQ(cache.entries(), 1u);  // never evict the entry being served
  cache.insert(stub_entry("bigger", 2000));
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(cache.find(serve::fingerprint("big"), "big"), nullptr);
}

TEST_F(ServeTest, ResidentEntryUnderAnotherKeyIsAMiss) {
  serve::TableCache cache(serve::CacheOptions{});
  serve::CacheEntry a = stub_entry("A", 100);
  const std::uint64_t x = a.fp;
  cache.insert(std::move(a));
  // A fingerprint collision must not merge distinct problems: the memory
  // tier compares keys, as the disk and surrogate tiers do.
  EXPECT_EQ(cache.find(x, "B"), nullptr);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_NE(cache.find(x, "A"), nullptr);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST_F(ServeTest, InsertAssignsDistinctSerialsAndDonorLookupKeepsLruOrder) {
  serve::CacheOptions opts;
  opts.byte_budget = 250;  // room for two 100-byte entries
  serve::TableCache cache(opts);
  serve::CacheEntry a = stub_entry("a", 100);
  a.variation_key = "v1";
  serve::CacheEntry b = stub_entry("b", 100);
  b.variation_key = "v2";
  const std::uint64_t sa = cache.insert(std::move(a))->serial;
  const std::uint64_t sb = cache.insert(std::move(b))->serial;
  EXPECT_NE(sa, sb);
  EXPECT_EQ(cache.insert(stub_entry("a", 100))->serial, sb + 1);

  // "b" is now least recently used; a donor lookup of it promotes nothing,
  // so the next insert still evicts it.
  const serve::CacheEntry* donor = cache.find_donor("v2");
  ASSERT_NE(donor, nullptr);
  EXPECT_EQ(donor->key, "b");
  EXPECT_EQ(cache.find_donor("v3"), nullptr);
  EXPECT_EQ(cache.stats().shared_builds, 1u);
  cache.insert(stub_entry("c", 100));
  EXPECT_EQ(cache.find_donor("v2"), nullptr);
  EXPECT_NE(cache.find(serve::fingerprint("a"), "a"), nullptr);
}

TEST_F(ServeTest, ReinsertReplacesWithoutLeakingBytes) {
  serve::CacheOptions opts;
  opts.byte_budget = 1000;
  serve::TableCache cache(opts);
  cache.insert(stub_entry("a", 100));
  cache.insert(stub_entry("a", 300));
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(cache.bytes(), 300u);
}

TEST_F(ServeTest, CacheConstructionSweepsStaleTmpFiles) {
  std::ofstream(dir_ + "/dead.lut.tmp") << "torn";
  std::ofstream(dir_ + "/live.lut") << "not a tmp";
  serve::CacheOptions opts;
  opts.dir = dir_;
  serve::TableCache cache(opts);
  EXPECT_FALSE(fs::exists(dir_ + "/dead.lut.tmp"));
  EXPECT_TRUE(fs::exists(dir_ + "/live.lut"));
  bool noted = false;
  for (const auto& s : diagnostics().stats())
    noted = noted || s.site == "serve.stale_tmp";
  EXPECT_TRUE(noted);
}

// ---------------------------------------------------------------------------
// Stale-tmp sweeping (the shared ckpt helper)
// ---------------------------------------------------------------------------

TEST_F(ServeTest, StaleTmpSweepHonorsThePrefix) {
  std::ofstream(dir_ + "/shard-0.hb.tmp") << "x";
  std::ofstream(dir_ + "/shard-1.hb.tmp") << "x";
  std::ofstream(dir_ + "/shard-10.hb.tmp") << "x";
  std::ofstream(dir_ + "/keep.dat") << "x";
  EXPECT_EQ(ckpt::sweep_stale_tmp(dir_, "shard-1.", "fleet"), 1u);
  EXPECT_TRUE(fs::exists(dir_ + "/shard-0.hb.tmp"));
  EXPECT_FALSE(fs::exists(dir_ + "/shard-1.hb.tmp"));
  EXPECT_TRUE(fs::exists(dir_ + "/shard-10.hb.tmp"));
  EXPECT_EQ(ckpt::sweep_stale_tmp(dir_, "", "fleet"), 2u);
  EXPECT_TRUE(fs::exists(dir_ + "/keep.dat"));
  EXPECT_EQ(ckpt::sweep_stale_tmp(dir_ + "/no-such-dir", "", "x"), 0u);
}

// ---------------------------------------------------------------------------
// Hybrid batched sweeps are bit-identical to per-point calls
// ---------------------------------------------------------------------------

TEST_F(ServeCacheTest, BatchedSweepMatchesPerPointBitForBit) {
  const core::HybridEvaluator ev(*problem_, small_tables());
  const std::vector<double> ts = {1.0e7, 5.0e7, 3.15e8, 1.0e9};
  const std::vector<double> batch = ev.failure_probabilities(ts);
  ASSERT_EQ(batch.size(), ts.size());
  for (std::size_t i = 0; i < ts.size(); ++i)
    EXPECT_EQ(batch[i], ev.failure_probability(ts[i])) << i;

  std::vector<double> alphas, bs;
  for (const auto& blk : problem_->blocks()) {
    alphas.push_back(blk.alpha * 1.1);
    bs.push_back(blk.b);
  }
  const std::vector<double> with =
      ev.failure_probabilities_with(ts, alphas, bs);
  for (std::size_t i = 0; i < ts.size(); ++i)
    EXPECT_EQ(with[i], ev.failure_probability_with(ts[i], alphas, bs)) << i;
}

// ---------------------------------------------------------------------------
// Disk tier round-trips real tables bit-identically
// ---------------------------------------------------------------------------

TEST_F(ServeCacheTest, DiskTierRoundTripIsBitIdentical) {
  serve::CacheOptions opts;
  opts.dir = dir_;
  serve::TableCache cache(opts);

  const std::string key = "serve-roundtrip";
  const std::uint64_t fp = serve::fingerprint(key);
  const core::HybridEvaluator built(*problem_, small_tables());
  ASSERT_TRUE(serve::write_cache_file(serve::cache_file_path(dir_, fp), key,
                                      serve::TableCache::serialize(built)));

  const auto loaded = cache.load_disk(fp, key, *problem_);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(cache.stats().disk_hits, 1u);
  for (const double t : {1.0e7, 3.15e8, 2.0e9})
    EXPECT_EQ(loaded->failure_probability(t), built.failure_probability(t))
        << t;
}

TEST_F(ServeCacheTest, EvictionWritesBackAndLoadDiskRecovers) {
  serve::CacheOptions opts;
  opts.dir = dir_;
  opts.byte_budget = 1;  // evict on every second insert
  serve::TableCache cache(opts);

  const std::string key = "serve-evicted";
  const std::uint64_t fp = serve::fingerprint(key);
  serve::CacheEntry e;
  e.key = key;
  e.fp = fp;
  e.bytes = 1000;
  e.problem = std::make_unique<core::ReliabilityProblem>(*problem_);
  e.hybrid =
      std::make_unique<core::HybridEvaluator>(*e.problem, small_tables());
  const double want = e.hybrid->failure_probability(3.15e8);
  cache.insert(std::move(e));
  cache.insert(stub_entry("displacer", 1000));  // pushes the entry out

  EXPECT_EQ(cache.find(fp, key), nullptr);
  EXPECT_TRUE(fs::exists(serve::cache_file_path(dir_, fp)));
  const auto loaded = cache.load_disk(fp, key, *problem_);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->failure_probability(3.15e8), want);
}

TEST_F(ServeCacheTest, UndecodableTablesAreQuarantined) {
  serve::CacheOptions opts;
  opts.dir = dir_;
  serve::TableCache cache(opts);
  const std::string key = "serve-bad-tables";
  const std::uint64_t fp = serve::fingerprint(key);
  const std::string path = serve::cache_file_path(dir_, fp);
  // CRC-valid frame, right key, garbage tables: load must quarantine.
  ASSERT_TRUE(serve::write_cache_file(path, key, "not a lut stream\n"));
  EXPECT_FALSE(cache.load_disk(fp, key, *problem_).has_value());
  EXPECT_EQ(cache.stats().corrupt, 1u);
  EXPECT_TRUE(fs::exists(path + ".quarantined"));
  EXPECT_GE(diagnostics().count("serve.cache_corrupt"), 1u);
}

TEST_F(ServeCacheTest, FlushMakesEveryResidentEntryDurable) {
  serve::CacheOptions opts;
  opts.dir = dir_;
  serve::TableCache cache(opts);
  serve::CacheEntry e;
  e.key = "serve-flush";
  e.fp = serve::fingerprint(e.key);
  e.bytes = 10;
  e.problem = std::make_unique<core::ReliabilityProblem>(*problem_);
  e.hybrid =
      std::make_unique<core::HybridEvaluator>(*e.problem, small_tables());
  cache.insert(std::move(e));
  EXPECT_FALSE(fs::exists(serve::cache_file_path(dir_, serve::fingerprint(
                                                           "serve-flush"))));
  EXPECT_TRUE(cache.flush());
  EXPECT_TRUE(fs::exists(serve::cache_file_path(dir_, serve::fingerprint(
                                                          "serve-flush"))));
  EXPECT_TRUE(cache.flush());  // idempotent: already on disk
  EXPECT_EQ(cache.stats().write_failures, 0u);
}

// ---------------------------------------------------------------------------
// Request grammar
// ---------------------------------------------------------------------------

template <typename Fn>
ErrorCode thrown_code(Fn&& fn) {
  try {
    fn();
  } catch (const Error& e) {
    return e.code();
  }
  ADD_FAILURE() << "expected obd::Error, nothing was thrown";
  return ErrorCode::kInternal;
}

TEST_F(ServeTest, ParsesAFullQueryLine) {
  const serve::Request r = serve::parse_request(
      "id=q7 t=3.15e8 set.ambient_c=60 set.vdd=1.1 deadline_ms=25");
  EXPECT_EQ(r.op, serve::Request::Op::kQuery);
  EXPECT_EQ(r.id, "q7");
  EXPECT_DOUBLE_EQ(r.t, 3.15e8);
  EXPECT_DOUBLE_EQ(r.deadline_ms, 25.0);
  ASSERT_EQ(r.overrides.size(), 2u);
  EXPECT_EQ(r.overrides.at("ambient_c"), "60");
  EXPECT_EQ(r.overrides.at("vdd"), "1.1");
}

TEST_F(ServeTest, ParsesAHealthProbe) {
  const serve::Request r = serve::parse_request("op=health id=hb");
  EXPECT_EQ(r.op, serve::Request::Op::kHealth);
  EXPECT_EQ(r.id, "hb");
  EXPECT_EQ(serve::parse_request("op=health").id, "");  // id optional
}

TEST_F(ServeTest, RejectsMalformedRequests) {
  const auto code = [](const std::string& line) {
    return thrown_code([&] { (void)serve::parse_request(line); });
  };
  EXPECT_EQ(code("id=a"), ErrorCode::kInvalidInput);        // no t
  EXPECT_EQ(code("t=1e8"), ErrorCode::kInvalidInput);       // no id
  EXPECT_EQ(code("id=a t=banana"), ErrorCode::kInvalidInput);
  EXPECT_EQ(code("id=a t=-5"), ErrorCode::kInvalidInput);
  EXPECT_EQ(code("id=a t=1e8 deadline_ms=-1"), ErrorCode::kInvalidInput);
  EXPECT_EQ(code("id=a t=1e8 bogus"), ErrorCode::kInvalidInput);
  EXPECT_EQ(code("id=a t=1e8 frob=1"), ErrorCode::kInvalidInput);
  // Daemon policy keys are not per-request overridable.
  EXPECT_EQ(code("id=a t=1e8 set.threads=1"), ErrorCode::kInvalidInput);
  EXPECT_EQ(code("id=a t=1e8 set.faults=x"), ErrorCode::kInvalidInput);
  EXPECT_EQ(code("id=a t=1e8 op=frob"), ErrorCode::kInvalidInput);
}

// ---------------------------------------------------------------------------
// Deadlines and the problem key
// ---------------------------------------------------------------------------

TEST_F(ServeTest, DeadlinePolicyIsExactAndDefaultOff) {
  EXPECT_FALSE(serve::deadline_expired(1.0e12, 0.0));  // disabled
  EXPECT_FALSE(serve::deadline_expired(49.9, 50.0));
  EXPECT_TRUE(serve::deadline_expired(50.0, 50.0));
}

TEST_F(ServeTest, ProblemKeyReflectsOverrides) {
  const Config base;
  const std::string k0 = serve::problem_key(base);
  EXPECT_EQ(k0, serve::problem_key(base));  // deterministic
  // The default key's bytes name the disk-cache files of every existing
  // cache directory; they must not drift.
  EXPECT_EQ(k0,
            "design=c1;device_density=3000;vdd=1.2;rho_dist=0.5;grid=25;"
            "ambient_c=45;variance_capture=0.999;eigen_solver=dense;"
            "thermal_sweep=lexicographic;n_gamma=100;n_b=100");

  // One row per key a request may override with set.<key>=: each must be
  // accepted and must give a key of its own.
  const std::vector<std::pair<std::string, std::string>> overrides = {
      {"design", "c2"},
      {"device_density", "2500"},
      {"vdd", "1.1"},
      {"rho_dist", "0.25"},
      {"grid", "10"},
      {"ambient_c", "60"},
      {"variance_capture", "0.99"},
      {"eigen_solver", "truncated"},
      {"thermal_sweep", "redblack"},
      {"mechanisms", "oxide,nbti"},
      {"redundancy", "g:blk0+blk1:1"},
  };
  std::set<std::string> keys = {k0};
  for (const auto& [key, value] : overrides) {
    const serve::Request req =
        serve::parse_request("id=a t=1e8 set." + key + "=" + value);
    ASSERT_EQ(req.overrides.size(), 1u) << key;
    Config cfg = base;
    for (const auto& [k, v] : req.overrides) cfg.set(k, v);
    EXPECT_TRUE(keys.insert(serve::problem_key(cfg)).second)
        << "set." << key << " does not change the problem key";
  }
  // Table shape is identity too, though not overridable per request.
  for (const char* key : {"serve_n_gamma", "serve_n_b"}) {
    Config cfg = base;
    cfg.set(key, "32");
    EXPECT_TRUE(keys.insert(serve::problem_key(cfg)).second) << key;
  }
}

TEST_F(ServeTest, VariationKeyCoversExactlyTheVariationStage) {
  const Config base;
  const std::string k0 = core::variation_key(base);
  EXPECT_EQ(k0,
            "design=c1;device_density=3000;rho_dist=0.5;grid=25;"
            "variance_capture=0.999;eigen_solver=dense");

  // Each variation-stage key gives a variation key of its own; each
  // operating-point key leaves it unchanged.
  const std::vector<std::pair<std::string, std::string>> variation = {
      {"design", "c2"},
      {"device_density", "2500"},
      {"rho_dist", "0.25"},
      {"grid", "10"},
      {"variance_capture", "0.99"},
      {"eigen_solver", "truncated"},
  };
  const std::vector<std::pair<std::string, std::string>> operating_point = {
      {"vdd", "1.1"},
      {"ambient_c", "60"},
      {"thermal_sweep", "redblack"},
      {"mechanisms", "oxide,nbti"},
      {"redundancy", "g:blk0+blk1:1"},
  };
  std::set<std::string> keys = {k0};
  for (const auto& [key, value] : variation) {
    Config cfg = base;
    cfg.set(key, value);
    EXPECT_TRUE(keys.insert(core::variation_key(cfg)).second)
        << "set." << key << " does not change the variation key";
  }
  for (const auto& [key, value] : operating_point) {
    Config cfg = base;
    cfg.set(key, value);
    EXPECT_EQ(core::variation_key(cfg), k0) << "set." << key;
    EXPECT_NE(serve::problem_key(cfg), serve::problem_key(base)) << key;
  }
}

// ---------------------------------------------------------------------------
// Query engine: coalescing, tier byte-identity, deadline degradation
// ---------------------------------------------------------------------------

class ServeEngineTest : public ServeTest {
 protected:
  Config base_config() {
    Config cfg;
    cfg.set("design", "c1");
    cfg.set("grid", "8");
    cfg.set("serve_n_gamma", "16");
    cfg.set("serve_n_b", "12");
    return cfg;
  }
  serve::EngineOptions engine_options() {
    serve::EngineOptions eo;
    eo.cache.dir = dir_ + "/cache";
    eo.n_gamma = 16;
    eo.n_b = 12;
    return eo;
  }
  static serve::PendingQuery query(const std::string& id, double t,
                                   const std::string& extra = "") {
    serve::PendingQuery q;
    q.request = serve::parse_request("id=" + id + " t=" +
                                    std::to_string(t) + extra);
    q.arrival = std::chrono::steady_clock::now();
    return q;
  }
};

TEST_F(ServeEngineTest, CoalescesSameFingerprintQueriesIntoOneBuild) {
  serve::QueryEngine engine(base_config(), engine_options());
  const std::vector<serve::PendingQuery> batch = {
      query("a", 3.15e8), query("b", 6.3e8), query("c", 3.15e8)};
  const std::vector<std::string> replies = engine.evaluate(batch);
  ASSERT_EQ(replies.size(), 3u);
  EXPECT_EQ(engine.cache().stats().misses, 1u);  // one build for all three
  EXPECT_EQ(engine.stats().answered, 3u);
  // Same t, same fingerprint: identical payloads behind different ids.
  ASSERT_EQ(replies[0].substr(0, 5), "id=a ");
  ASSERT_EQ(replies[2].substr(0, 5), "id=c ");
  EXPECT_EQ(replies[0].substr(5), replies[2].substr(5));
  EXPECT_NE(replies[0].find(" ok=1 "), std::string::npos);
  EXPECT_NE(replies[0].find(" degraded=0"), std::string::npos);
}

TEST_F(ServeEngineTest, MemoryHitDiskHitAndColdComputeAreByteIdentical) {
  const auto opts = engine_options();
  std::string cold, warm, disk;
  {
    serve::QueryEngine engine(base_config(), opts);
    cold = engine.evaluate({query("x", 3.15e8)})[0];
    warm = engine.evaluate({query("x", 3.15e8)})[0];
    EXPECT_EQ(engine.cache().stats().hits, 1u);
    EXPECT_TRUE(engine.cache().flush());
  }
  {
    serve::QueryEngine engine(base_config(), opts);  // fresh memory tier
    disk = engine.evaluate({query("x", 3.15e8)})[0];
    EXPECT_EQ(engine.cache().stats().disk_hits, 1u);
    EXPECT_EQ(engine.cache().stats().misses, 0u);
  }
  EXPECT_EQ(cold, warm);
  EXPECT_EQ(cold, disk);
}

TEST_F(ServeEngineTest, CorruptDiskEntryIsQuarantinedAndRecomputed) {
  const auto opts = engine_options();
  std::string cold;
  {
    serve::QueryEngine engine(base_config(), opts);
    cold = engine.evaluate({query("x", 3.15e8)})[0];
    EXPECT_TRUE(engine.cache().flush());
  }
  // Vandalize the cached entry on disk.
  const std::string key = serve::problem_key(base_config());
  const std::string path =
      serve::cache_file_path(opts.cache.dir, serve::fingerprint(key));
  ASSERT_TRUE(fs::exists(path));
  std::ofstream(path, std::ios::trunc) << "garbage";
  {
    serve::QueryEngine engine(base_config(), opts);
    const std::string recomputed = engine.evaluate({query("x", 3.15e8)})[0];
    EXPECT_EQ(recomputed, cold);  // recomputed answer, identical bytes
    EXPECT_EQ(engine.cache().stats().corrupt, 1u);
    EXPECT_EQ(engine.cache().stats().misses, 1u);
    EXPECT_TRUE(fs::exists(path + ".quarantined"));
  }
}

// A CRC-valid disk entry in .lut format version 1 (libm-filled tables)
// is never believed: load refuses it, the entry is quarantined, and the
// reply is rebuilt with the bytes of a cold build.
TEST_F(ServeEngineTest, VersionOneDiskEntryIsQuarantinedAndRebuilt) {
  const auto opts = engine_options();
  std::string cold;
  {
    serve::QueryEngine engine(base_config(), opts);
    cold = engine.evaluate({query("x", 3.15e8)})[0];
    EXPECT_TRUE(engine.cache().flush());
  }
  const std::string key = serve::problem_key(base_config());
  const std::string path =
      serve::cache_file_path(opts.cache.dir, serve::fingerprint(key));
  bool quarantined = false;
  auto text = serve::read_cache_file(path, key, &quarantined);
  ASSERT_TRUE(text.has_value());
  const std::string v2 = "obdrel-hybrid-lut 2\n";
  ASSERT_EQ(text->rfind(v2, 0), 0u);
  text->replace(0, v2.size(), "obdrel-hybrid-lut 1\n");
  ASSERT_TRUE(serve::write_cache_file(path, key, *text));
  {
    serve::QueryEngine engine(base_config(), opts);
    EXPECT_EQ(engine.evaluate({query("x", 3.15e8)})[0], cold);
    EXPECT_EQ(engine.cache().stats().disk_hits, 0u);
    EXPECT_EQ(engine.cache().stats().corrupt, 1u);
    EXPECT_EQ(engine.cache().stats().misses, 1u);
    EXPECT_TRUE(fs::exists(path + ".quarantined"));
  }
}

TEST_F(ServeEngineTest, InjectedDeadlineExpiryDegradesToAnalytic) {
  serve::QueryEngine engine(base_config(), engine_options());
  fault::arm("serve.deadline");
  const std::string reply =
      engine.evaluate({query("slow", 3.15e8, " deadline_ms=1000")})[0];
  EXPECT_NE(reply.find(" ok=1 "), std::string::npos) << reply;
  EXPECT_NE(reply.find(" degraded=1"), std::string::npos) << reply;
  EXPECT_EQ(engine.stats().degraded, 1u);
  // The degraded path never pays the table fill or caches an entry.
  EXPECT_EQ(engine.cache().entries(), 0u);
  // The same query afterwards gets the exact answer.
  const std::string exact = engine.evaluate({query("slow", 3.15e8)})[0];
  EXPECT_NE(exact.find(" degraded=0"), std::string::npos);
}

TEST_F(ServeEngineTest, PerRequestErrorsNeverPoisonTheBatch) {
  serve::QueryEngine engine(base_config(), engine_options());
  std::vector<serve::PendingQuery> batch = {
      query("good", 3.15e8), query("bad", 3.15e8, " set.design=/nope")};
  const std::vector<std::string> replies = engine.evaluate(batch);
  EXPECT_NE(replies[0].find(" ok=1 "), std::string::npos) << replies[0];
  EXPECT_NE(replies[1].find(" error="), std::string::npos) << replies[1];
  EXPECT_EQ(engine.stats().answered, 1u);
  EXPECT_EQ(engine.stats().errors, 1u);
}

// ---------------------------------------------------------------------------
// Per-session incremental corner evaluation (cond.* requests)
// ---------------------------------------------------------------------------

TEST_F(ServeEngineTest, CondQueriesReuseIncrementalRowsWithinASession) {
  serve::QueryEngine engine(base_config(), engine_options());
  // First corner: the session evaluator is built and every row refreshed —
  // no reuse to count.
  const std::string first =
      engine.evaluate({query("a", 3.15e8, " cond.dt=3")})[0];
  EXPECT_NE(first.find(" ok=1 "), std::string::npos) << first;
  EXPECT_EQ(engine.stats().incremental_hits, 0u);
  // Same corner and t with one block nudged: only that row refreshes, so
  // the evaluation counts as an incremental reuse.
  const std::string reused =
      engine.evaluate({query("b", 3.15e8, " cond.dt=3 cond.dt.0=8")})[0];
  EXPECT_NE(reused.find(" ok=1 "), std::string::npos) << reused;
  EXPECT_EQ(engine.stats().incremental_hits, 1u);
  // The reused answer is bit-identical to a fresh engine computing the
  // same corner from scratch (the incremental contract, end to end).
  serve::EngineOptions fresh_opts = engine_options();
  fresh_opts.cache.dir = dir_ + "/cache-fresh";
  serve::QueryEngine fresh(base_config(), fresh_opts);
  EXPECT_EQ(fresh.evaluate({query("b", 3.15e8, " cond.dt=3 cond.dt.0=8")})[0],
            reused);
  // A different session never shares evaluator state: same bytes, but a
  // full rebuild rather than a reuse.
  serve::PendingQuery other = query("b", 3.15e8, " cond.dt=3 cond.dt.0=8");
  other.session = 7;
  EXPECT_EQ(engine.evaluate({other})[0], reused);
  EXPECT_EQ(engine.stats().incremental_hits, 1u);
  // Ending the session drops its evaluator; the next corner rebuilds.
  engine.end_session(1);
  EXPECT_EQ(engine.evaluate({query("b", 3.15e8, " cond.dt=3 cond.dt.0=8")})[0],
            reused);
  EXPECT_EQ(engine.stats().incremental_hits, 1u);
}

TEST_F(ServeEngineTest, RebuiltEntryNeverReusesAStaleSessionEvaluator) {
  serve::EngineOptions opts = engine_options();
  opts.cache.byte_budget = 1;  // only the entry being served stays resident
  serve::QueryEngine engine(base_config(), opts);
  const std::string cond = " cond.dt=3 cond.dt.0=8";
  const std::string first = engine.evaluate({query("a", 3.15e8, cond)})[0];
  EXPECT_NE(first.find(" ok=1 "), std::string::npos) << first;
  // Another fingerprint evicts the entry; the same cond query then
  // rebuilds it, and the rebuilt entry's evaluator starts afresh even if
  // its tables land at the freed address.
  (void)engine.evaluate({query("b", 3.15e8, " set.ambient_c=60")});
  EXPECT_EQ(engine.cache().stats().evictions, 1u);
  const std::string again = engine.evaluate({query("a", 3.15e8, cond)})[0];
  EXPECT_EQ(engine.cache().stats().evictions, 2u);
  EXPECT_EQ(engine.stats().incremental_hits, 0u);

  serve::EngineOptions fresh_opts = engine_options();
  fresh_opts.cache.dir = dir_ + "/cache-fresh";
  serve::QueryEngine fresh(base_config(), fresh_opts);
  EXPECT_EQ(fresh.evaluate({query("a", 3.15e8, cond)})[0], again);
  EXPECT_EQ(again, first);
}

// An entry built without a donor owns its canonical form and is charged
// for it; one that shares a donor's variation stage is charged for its
// tables only. Under a budget with room for a donor and one sharer, a
// second donor-less entry evicts where a sharer does not.
TEST_F(ServeEngineTest, DonorlessEntriesAreChargedForTheirCanonicalForm) {
  std::size_t owner_bytes = 0;   // tables + overhead + canonical form
  std::size_t sharer_bytes = 0;  // tables + overhead
  {
    serve::QueryEngine engine(base_config(), engine_options());
    (void)engine.evaluate({query("a", 3.15e8)});
    owner_bytes = engine.cache().bytes();
    (void)engine.evaluate({query("b", 3.15e8, " set.ambient_c=60")});
    EXPECT_EQ(engine.cache().stats().shared_builds, 1u);
    sharer_bytes = engine.cache().bytes() - owner_bytes;
    const serve::CacheEntry* entry = engine.cache().find_donor(
        core::variation_key(base_config()));
    ASSERT_NE(entry, nullptr);
    const std::size_t form = serve::canonical_bytes(entry->problem->canonical());
    EXPECT_GT(form, 0u);
    EXPECT_EQ(owner_bytes, sharer_bytes + form);
  }
  const auto evictions_after = [&](const std::string& second) {
    serve::EngineOptions opts = engine_options();
    opts.cache.byte_budget = owner_bytes + sharer_bytes;
    serve::QueryEngine engine(base_config(), opts);
    (void)engine.evaluate({query("a", 3.15e8)});
    (void)engine.evaluate({query("b", 3.15e8, second)});
    return engine.cache().stats().evictions;
  };
  EXPECT_EQ(evictions_after(" set.ambient_c=60"), 0u);
  EXPECT_EQ(evictions_after(" set.rho_dist=0.25"), 1u);
}

TEST_F(ServeEngineTest, CondBlockIndexOutOfRangeIsARequestError) {
  serve::QueryEngine engine(base_config(), engine_options());
  const std::string reply =
      engine.evaluate({query("a", 3.15e8, " cond.dt.9999=5")})[0];
  EXPECT_NE(reply.find(" error=invalid-input"), std::string::npos) << reply;
  EXPECT_EQ(engine.stats().errors, 1u);
}

// ---------------------------------------------------------------------------
// Golden gate: one engine serving many fingerprints answers, and persists,
// exactly what a fresh engine per fingerprint does
// ---------------------------------------------------------------------------

/// Serves a fixed list of plain and cond.* queries on the fingerprint
/// named by the `set` overrides, one request each, in order, and returns
/// the replies.
std::vector<std::string> serve_fingerprint(serve::QueryEngine& engine,
                                           const std::string& set) {
  const std::vector<std::pair<double, std::string>> queries = {
      {3.15e8, ""},
      {6.3e8, ""},
      {1.5e9, ""},
      {3.15e8, " cond.dt=3"},
      {3.15e8, " cond.act=0.8"},
      {6.3e8, " cond.dt=-2 cond.dt.1=5"},
      {6.3e8, " cond.dt=3 cond.act=1.1 cond.dt.0=-4"},
  };
  std::vector<std::string> replies;
  for (std::size_t k = 0; k < queries.size(); ++k) {
    serve::PendingQuery q;
    q.request = serve::parse_request("id=q" + std::to_string(k) + " t=" +
                                     std::to_string(queries[k].first) + set +
                                     queries[k].second);
    q.arrival = std::chrono::steady_clock::now();
    replies.push_back(engine.evaluate({q})[0]);
  }
  return replies;
}

/// Every `.lut` file under `dir`, by name, with its bytes.
std::map<std::string, std::string> lut_files(const std::string& dir) {
  std::map<std::string, std::string> files;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.path().extension() != ".lut") continue;
    std::ifstream in(e.path(), std::ios::binary);
    files[e.path().filename().string()] = std::string(
        std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  return files;
}

TEST_F(ServeEngineTest, SequentialFingerprintsMatchFreshEnginesByteForByte) {
  // The first seven differ from the base only in operating-point keys; the
  // last two change the variation stage itself.
  const std::vector<std::string> sets = {
      "",
      " set.ambient_c=40",
      " set.ambient_c=50",
      " set.ambient_c=60",
      " set.vdd=1.1",
      " set.thermal_sweep=redblack",
      " set.mechanisms=oxide,nbti,em",
      " set.grid=20",
      " set.rho_dist=0.25",
  };
  serve::EngineOptions shared_opts = engine_options();
  shared_opts.cache.dir = dir_ + "/shared";
  serve::EngineOptions fresh_opts = engine_options();
  fresh_opts.cache.dir = dir_ + "/fresh";

  serve::QueryEngine shared(base_config(), shared_opts);
  for (std::size_t i = 0; i < sets.size(); ++i) {
    const std::string& set = sets[i];
    const std::uint64_t shared_before = shared.cache().stats().shared_builds;
    const std::vector<std::string> got = serve_fingerprint(shared, set);
    // Every operating-point fingerprint takes the resident variation
    // stage; grid and rho_dist fingerprints build their own.
    const bool operating_point_only = i > 0 && i < 7;
    EXPECT_EQ(shared.cache().stats().shared_builds - shared_before,
              operating_point_only ? 1u : 0u)
        << set;
    if (i == 3)  // the base config and three ambients
      EXPECT_EQ(shared.cache().stats().shared_builds, 3u);
    serve::QueryEngine fresh(base_config(), fresh_opts);
    const std::vector<std::string> want = serve_fingerprint(fresh, set);
    EXPECT_EQ(fresh.cache().stats().shared_builds, 0u);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t k = 0; k < got.size(); ++k) {
      EXPECT_NE(got[k].find(" ok=1 "), std::string::npos) << got[k];
      EXPECT_EQ(got[k], want[k]) << "fingerprint '" << set << "' query " << k;
    }
    EXPECT_TRUE(fresh.cache().flush());
  }
  EXPECT_EQ(shared.cache().stats().misses, sets.size());
  EXPECT_TRUE(shared.cache().flush());

  const auto shared_files = lut_files(shared_opts.cache.dir);
  const auto fresh_files = lut_files(fresh_opts.cache.dir);
  EXPECT_EQ(shared_files.size(), sets.size());
  ASSERT_EQ(shared_files.size(), fresh_files.size());
  for (const auto& [name, bytes] : shared_files) {
    const auto it = fresh_files.find(name);
    ASSERT_NE(it, fresh_files.end()) << name;
    EXPECT_TRUE(bytes == it->second) << name << " differs";
  }
}

// ---------------------------------------------------------------------------
// Surrogate tier: flag byte-identity, certified hits, domain refusal,
// quarantine + refit
// ---------------------------------------------------------------------------

class ServeSurrogateTest : public ServeEngineTest {
 protected:
  // Reduced fit resolution so a fit costs a fraction of a second; the
  // c1 default stack is oxide-only, which these counts certify easily.
  serve::EngineOptions surrogate_options() {
    serve::EngineOptions eo = engine_options();
    eo.surrogate = true;
    eo.surrogate_opts.n_t = 11;
    eo.surrogate_opts.n_dt = 7;
    eo.surrogate_opts.n_vdd = 5;
    eo.surrogate_opts.n_act = 4;
    eo.surrogate_opts.fit_n_gamma = 160;
    eo.surrogate_opts.fit_n_b = 64;
    eo.surrogate_opts.probe_points = 128;
    eo.surrogate_opts.tol = 1e-3;
    return eo;
  }
  static double reply_f(const std::string& reply) {
    const std::size_t pos = reply.find(" f=");
    EXPECT_NE(pos, std::string::npos) << reply;
    return std::stod(reply.substr(pos + 3));
  }
};

TEST_F(ServeSurrogateTest, TierOffRepliesCarryNoSurrogateField) {
  serve::QueryEngine off(base_config(), engine_options());
  const std::string plain = off.evaluate({query("a", 3.15e8)})[0];
  const std::string cond =
      off.evaluate({query("b", 3.15e8, " cond.dt=4")})[0];
  // The tier-off reply grammar is frozen: no surrogate field, ever.
  EXPECT_EQ(plain.find("surrogate"), std::string::npos) << plain;
  EXPECT_EQ(cond.find("surrogate"), std::string::npos) << cond;

  // The tier on only appends the flag field; stripping it recovers the
  // tier-off bytes exactly.
  serve::EngineOptions eo = surrogate_options();
  eo.cache.dir = dir_ + "/cache-on";
  serve::QueryEngine on(base_config(), eo);
  const std::string flagged = on.evaluate({query("a", 3.15e8)})[0];
  const std::size_t pos = flagged.find(" surrogate=");
  ASSERT_NE(pos, std::string::npos) << flagged;
  EXPECT_EQ(flagged.substr(0, pos), plain);
}

TEST_F(ServeSurrogateTest, CertifiedInDomainQueriesSkipTheTablesEntirely) {
  const serve::EngineOptions eo = surrogate_options();
  const std::uint64_t fp =
      serve::fingerprint(serve::problem_key(base_config()));
  std::string exact_cond;
  {
    serve::QueryEngine engine(base_config(), eo);
    // Cold batch: exact answer, then fit + certify + persist.
    const std::string cold = engine.evaluate({query("a", 3.15e8)})[0];
    EXPECT_NE(cold.find(" surrogate=0"), std::string::npos) << cold;
    ASSERT_TRUE(
        fs::exists(serve::surrogate_file_path(eo.cache.dir, fp)));
    // Memory tier holds the tables: exact wins even for covered queries.
    exact_cond = engine.evaluate(
        {query("b", 3.15e8, " cond.dt=4 cond.act=1.2")})[0];
    EXPECT_NE(exact_cond.find(" surrogate=0"), std::string::npos)
        << exact_cond;
    EXPECT_EQ(engine.stats().surrogate_hits, 0u);
  }
  // Fresh engine, same cache dir: the surrogate loads from disk and
  // answers without building a problem or touching either table tier.
  serve::QueryEngine engine(base_config(), eo);
  const std::string sur =
      engine.evaluate({query("b", 3.15e8, " cond.dt=4 cond.act=1.2")})[0];
  EXPECT_NE(sur.find(" surrogate=1"), std::string::npos) << sur;
  EXPECT_EQ(engine.stats().surrogate_hits, 1u);
  EXPECT_EQ(engine.cache().stats().misses, 0u);
  EXPECT_EQ(engine.cache().stats().disk_hits, 0u);
  EXPECT_EQ(engine.cache().entries(), 0u);
  // And the answer honors the certified envelope against the exact reply.
  const double fe = reply_f(exact_cond);
  EXPECT_LE(std::abs(reply_f(sur) - fe) / std::max(fe, 1e-12),
            eo.surrogate_opts.tol);
}

TEST_F(ServeSurrogateTest, OutOfDomainQueriesFallThroughToExact) {
  const serve::EngineOptions eo = surrogate_options();
  {
    serve::QueryEngine warm(base_config(), eo);  // fit + persist
    (void)warm.evaluate({query("w", 3.15e8)});
  }
  serve::QueryEngine engine(base_config(), eo);
  // dt outside the certified +-dt_c box.
  const std::string far =
      engine.evaluate({query("a", 3.15e8, " cond.dt=50")})[0];
  EXPECT_NE(far.find(" ok=1 "), std::string::npos) << far;
  EXPECT_NE(far.find(" surrogate=0"), std::string::npos) << far;
  // Per-block overrides are never covered.
  const std::string blk =
      engine.evaluate({query("b", 3.15e8, " cond.dt.0=2")})[0];
  EXPECT_NE(blk.find(" surrogate=0"), std::string::npos) << blk;
  // t outside the query-time box.
  const std::string early = engine.evaluate({query("c", 1.0e5)})[0];
  EXPECT_NE(early.find(" surrogate=0"), std::string::npos) << early;
  EXPECT_EQ(engine.stats().surrogate_hits, 0u);
  EXPECT_EQ(engine.stats().surrogate_fallthrough, 3u);
  // The exact engine really answered: a problem build happened after all.
  EXPECT_EQ(engine.cache().entries(), 1u);
}

TEST_F(ServeSurrogateTest, DeadlineExpiryPrefersCertifiedSurrogate) {
  const serve::EngineOptions eo = surrogate_options();
  {
    serve::QueryEngine warm(base_config(), eo);
    (void)warm.evaluate({query("w", 3.15e8)});
  }
  serve::QueryEngine engine(base_config(), eo);
  fault::arm("serve.deadline");
  // Covered query: the surrogate answers before the deadline partition is
  // ever reached — a certified approximation beats the cruder analytic
  // closed form, and the reply is not degraded.
  const std::string in =
      engine.evaluate({query("a", 3.15e8, " deadline_ms=1000")})[0];
  EXPECT_NE(in.find(" surrogate=1"), std::string::npos) << in;
  EXPECT_NE(in.find(" degraded=0"), std::string::npos) << in;
  // Uncovered query: the analytic degradation path still applies.
  const std::string out = engine.evaluate(
      {query("b", 3.15e8, " cond.dt=50 deadline_ms=1000")})[0];
  fault::disarm();
  EXPECT_NE(out.find(" degraded=1"), std::string::npos) << out;
  EXPECT_NE(out.find(" surrogate=0"), std::string::npos) << out;
  EXPECT_EQ(engine.stats().surrogate_hits, 1u);
  EXPECT_EQ(engine.stats().degraded, 1u);
}

TEST_F(ServeSurrogateTest, VandalizedSurrogateFileIsQuarantinedAndRefit) {
  const serve::EngineOptions eo = surrogate_options();
  const std::uint64_t fp =
      serve::fingerprint(serve::problem_key(base_config()));
  const std::string path = serve::surrogate_file_path(eo.cache.dir, fp);
  std::string sur_reply;
  {
    serve::QueryEngine warm(base_config(), eo);
    (void)warm.evaluate({query("w", 3.15e8)});
    ASSERT_TRUE(fs::exists(path));
  }
  {
    serve::QueryEngine reader(base_config(), eo);
    sur_reply = reader.evaluate({query("q", 3.15e8, " cond.dt=4")})[0];
    ASSERT_NE(sur_reply.find(" surrogate=1"), std::string::npos)
        << sur_reply;
  }
  std::ofstream(path, std::ios::trunc) << "garbage";
  {
    // The vandalized file is quarantined (never believed), the query is
    // answered exactly, and the post-build refit re-persists a certified
    // model.
    serve::QueryEngine engine(base_config(), eo);
    const std::string exact =
        engine.evaluate({query("q", 3.15e8, " cond.dt=4")})[0];
    EXPECT_NE(exact.find(" surrogate=0"), std::string::npos) << exact;
    EXPECT_TRUE(fs::exists(path + ".quarantined"));
    EXPECT_TRUE(fs::exists(path));
    EXPECT_GE(diagnostics().count("serve.cache_corrupt"), 1u);
  }
  // The refit is deterministic: the reloaded model serves byte-identical
  // surrogate replies.
  serve::QueryEngine again(base_config(), eo);
  EXPECT_EQ(again.evaluate({query("q", 3.15e8, " cond.dt=4")})[0],
            sur_reply);
}

}  // namespace
}  // namespace obd

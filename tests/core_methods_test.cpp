#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iomanip>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "chip/design.hpp"
#include "common/config.hpp"
#include "common/diagnostics.hpp"
#include "common/error.hpp"
#include "core/analytic.hpp"
#include "core/guardband.hpp"
#include "core/hybrid.hpp"
#include "core/lifetime.hpp"
#include "core/montecarlo.hpp"
#include "core/pipeline.hpp"
#include "mech/spec.hpp"

namespace obd::core {
namespace {

// A small but non-trivial shared fixture: synthetic design, EV6-like
// temperature spread, built once for the whole suite (problem construction
// includes a PCA).
class MethodsFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    design_ = new chip::Design(chip::make_synthetic_design(
        "T1", {.devices = 30000, .block_count = 6, .die_width = 6.0,
               .die_height = 6.0, .seed = 77}));
    model_ = new AnalyticReliabilityModel();
    // Temperature spread similar to Fig. 1: hot spots ~30 C above idle.
    temps_ = new std::vector<double>{95.0, 70.0, 58.0, 82.0, 64.0, 75.0};
    ProblemOptions opts;
    opts.grid_cells_per_side = 10;
    problem_ = new ReliabilityProblem(ReliabilityProblem::build(
        *design_, var::VariationBudget{}, *model_, *temps_, 1.2, opts));
  }
  static void TearDownTestSuite() {
    delete problem_;
    delete temps_;
    delete model_;
    delete design_;
    problem_ = nullptr;
    temps_ = nullptr;
    model_ = nullptr;
    design_ = nullptr;
  }

  static chip::Design* design_;
  static AnalyticReliabilityModel* model_;
  static std::vector<double>* temps_;
  static ReliabilityProblem* problem_;
};

chip::Design* MethodsFixture::design_ = nullptr;
AnalyticReliabilityModel* MethodsFixture::model_ = nullptr;
std::vector<double>* MethodsFixture::temps_ = nullptr;
ReliabilityProblem* MethodsFixture::problem_ = nullptr;

TEST_F(MethodsFixture, ProblemAssemblyIsConsistent) {
  EXPECT_EQ(problem_->blocks().size(), 6u);
  for (std::size_t j = 0; j < 6; ++j) {
    const auto& b = problem_->blocks()[j];
    EXPECT_GT(b.alpha, 0.0);
    EXPECT_GT(b.b, 0.0);
    EXPECT_DOUBLE_EQ(b.temp_c, (*temps_)[j]);
    EXPECT_DOUBLE_EQ(b.area, design_->blocks[j].obd_area());
  }
  EXPECT_DOUBLE_EQ(problem_->worst_temp_c(), 95.0);
  EXPECT_NEAR(problem_->min_thickness(), 2.2 * (1.0 - 0.04), 1e-12);
}

TEST_F(MethodsFixture, FailureIsMonotoneAndBounded) {
  const AnalyticAnalyzer fast(*problem_);
  double prev = 0.0;
  for (double t = 1e6; t < 1e11; t *= 3.0) {
    const double f = fast.failure_probability(t);
    EXPECT_GE(f, prev - 1e-15);
    EXPECT_GE(f, 0.0);
    EXPECT_LE(f, 1.0);
    prev = f;
  }
}

TEST_F(MethodsFixture, LifetimeRoundTrip) {
  const AnalyticAnalyzer fast(*problem_);
  for (double target : {kOneFaultPerMillion, kTenFaultsPerMillion, 1e-3}) {
    const double t = fast.lifetime_at(target);
    EXPECT_NEAR(fast.failure_probability(t) / target, 1.0, 1e-6);
  }
  // 10/million happens later than 1/million.
  EXPECT_GT(fast.lifetime_at(kTenFaultsPerMillion),
            fast.lifetime_at(kOneFaultPerMillion));
}

TEST_F(MethodsFixture, QuadratureSchemesAgree) {
  AnalyticOptions paper;
  paper.quadrature = Quadrature::kPaperMidpoint;
  paper.cells = 10;  // the paper's l0
  AnalyticOptions quantile;
  quantile.quadrature = Quadrature::kEqualProbability;
  quantile.cells = 32;
  const AnalyticAnalyzer a(*problem_, paper);
  const AnalyticAnalyzer b(*problem_, quantile);
  const double t1a = a.lifetime_at(kOneFaultPerMillion);
  const double t1b = b.lifetime_at(kOneFaultPerMillion);
  EXPECT_NEAR(t1a / t1b, 1.0, 0.05);
}

TEST_F(MethodsFixture, StFastTracksMonteCarloAtPpmLevels) {
  // The paper's headline claim (Table III): ~1-2% lifetime error vs MC.
  const AnalyticAnalyzer fast(*problem_);
  MonteCarloOptions mco;
  mco.chip_samples = 400;
  const MonteCarloAnalyzer mc(*problem_, mco);
  for (double target : {kOneFaultPerMillion, kTenFaultsPerMillion}) {
    const double t_fast = fast.lifetime_at(target);
    const double t_mc = mc.lifetime_at(target);
    EXPECT_NEAR(t_fast / t_mc, 1.0, 0.10) << "target " << target;
  }
}

TEST_F(MethodsFixture, StMcTracksStFast) {
  const AnalyticAnalyzer fast(*problem_);
  StMcOptions opt;
  opt.samples = 8000;
  const StMcAnalyzer st_mc(*problem_, opt);
  const double t_fast = fast.lifetime_at(kTenFaultsPerMillion);
  const double t_stmc = st_mc.lifetime_at(kTenFaultsPerMillion);
  EXPECT_NEAR(t_stmc / t_fast, 1.0, 0.08);
}

TEST_F(MethodsFixture, StMcSampleAverageMatchesHistogram) {
  StMcOptions hist;
  hist.samples = 6000;
  hist.use_histogram = true;
  StMcOptions raw = hist;
  raw.use_histogram = false;
  const StMcAnalyzer a(*problem_, hist);
  const StMcAnalyzer b(*problem_, raw);
  const double t = 2e8;
  EXPECT_NEAR(a.failure_probability(t) / b.failure_probability(t), 1.0, 0.05);
}

// FNV-1a over the bit patterns of every node's u, v and weight, block by
// block: two st_MC builds share a digest only if they agree bit for bit.
std::uint64_t node_digest(const std::vector<std::vector<UvNode>>& nodes) {
  std::uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](double x) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &x, sizeof bits);
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (bits >> (8 * byte)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  for (const auto& block : nodes)
    for (const UvNode& n : block) {
      mix(n.u);
      mix(n.v);
      mix(n.weight);
    }
  return h;
}

// The st_MC sampler is seed-pinned: these digests fix its bits, and a
// change that moves them is budgeted by StMcMoments and StMcSeedSpread
// below. The fixture's 10x10 grid gives every block several cells with
// more than one kept block-local component. 1037 samples is odd and 100
// is the minimum.
TEST_F(MethodsFixture, StMcGoldenNodeDigests) {
  std::size_t multi_cell_blocks = 0;
  for (const auto& w : problem_->layout().weights)
    if (w.size() > 1) ++multi_cell_blocks;
  ASSERT_GT(multi_cell_blocks, 0u);

  StMcOptions lhs;
  lhs.latin_hypercube = true;
  StMcOptions raw;
  raw.use_histogram = false;
  StMcOptions odd;
  odd.samples = 1037;
  StMcOptions odd_raw = odd;
  odd_raw.use_histogram = false;
  StMcOptions least;
  least.samples = 100;
  least.use_histogram = false;
  const struct {
    const char* name;
    StMcOptions options;
    std::uint64_t digest;
  } cases[] = {{"default", StMcOptions{}, 0xfe96644fbbde2454ull},
               {"latin_hypercube", lhs, 0x38256be0f84d7a66ull},
               {"raw samples", raw, 0x9a9577c065db8b8bull},
               {"1037 samples", odd, 0xc23c7109e2e94033ull},
               {"1037 raw samples", odd_raw, 0x5f02509c058c0d51ull},
               {"100 raw samples", least, 0xb8f869f16a3f5ddaull}};
  for (const auto& c : cases) {
    const StMcAnalyzer st_mc(*problem_, c.options);
    EXPECT_EQ(node_digest(st_mc.nodes()), c.digest)
        << c.name << std::hex << " got 0x" << node_digest(st_mc.nodes());
  }
}

// The EV6 chip through the default pipeline at the given grid.
ReliabilityProblem ev6_problem(const char* grid) {
  Config cfg;
  cfg.set("design", "ev6");
  cfg.set("grid", grid);
  return build_problem(cfg, run_pipeline(cfg));
}

// st_MC's block-local PCA on the EV6 chip at default options: F(t) over a
// fixed sweep and both lifetime targets, digested bit for bit. At grids 25
// and 32 the L2 block spans more than 32 grid cells (n = 325 and 512), so
// its block-local eigensolve is a large dense one; the digests pin the
// samples that eigenbasis produces.
TEST(StMcGolden, Ev6FailureDigestsAtGrid25And32) {
  const struct {
    const char* grid;
    std::uint64_t digest;
  } cases[] = {{"25", 0x7ed1cb9aad6e47d2ull}, {"32", 0x6a165c325aa6cfa8ull}};
  for (const auto& c : cases) {
    const ReliabilityProblem problem = ev6_problem(c.grid);
    std::size_t largest_block = 0;
    for (const auto& w : problem.layout().weights)
      largest_block = std::max(largest_block, w.size());
    ASSERT_GT(largest_block, 32u) << "grid " << c.grid;

    const StMcAnalyzer st_mc(problem);
    std::uint64_t h = 14695981039346656037ull;
    const auto mix = [&h](double x) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &x, sizeof bits);
      for (int byte = 0; byte < 8; ++byte) {
        h ^= (bits >> (8 * byte)) & 0xffu;
        h *= 1099511628211ull;
      }
    };
    constexpr double kYear = 365.25 * 24.0 * 3600.0;
    for (int i = 0; i < 24; ++i)
      mix(st_mc.failure_probability(0.5 * kYear * std::pow(100.0, i / 23.0)));
    mix(st_mc.lifetime_at(kOneFaultPerMillion));
    mix(st_mc.lifetime_at(kTenFaultsPerMillion));
    EXPECT_EQ(h, c.digest) << "grid " << c.grid << std::hex << " got 0x" << h;
  }
}

// The first 16 raw (u, v) samples of every EV6 block at grid 25, seed 7
// and 100 samples per block, each within a relative 1e-11. Unlike the
// bit digests above, this survives a change to the last bits of the
// normals, and unlike StMcMoments below, it pins each sample's joint
// (u, v): a sampler that kept every marginal moment but paired u with
// the wrong v would fail here.
TEST(StMcSampleGolden, Ev6FirstSamplesWithinTolerance) {
  constexpr double kRelTol = 1e-11;
  constexpr std::size_t kFirst = 16;
  constexpr double kFirstSamples[][kFirst][2] = {
    {// block 0
     {2.20867082236557, 0.00031848092622273246},
     {2.2349140044155797, 0.0003454829206603208},
     {2.1937740845386409, 0.00033608618520074155},
     {2.2465142347130072, 0.00033133887568409493},
     {2.2261581847805667, 0.00026543260300318261},
     {2.211725321542529, 0.00029539894007018141},
     {2.2361846741862705, 0.00027579675167389774},
     {2.2144528725729686, 0.00027091031483102726},
     {2.1760702203926119, 0.00029622194213871372},
     {2.1743743455847007, 0.00030147940360305875},
     {2.1849018240721039, 0.00035300079940420951},
     {2.1561261754781351, 0.00036826242551259993},
     {2.2482170971764437, 0.00034032515571483322},
     {2.2057327188774418, 0.00029863444548564315},
     {2.2074957961929704, 0.00028580622060756297},
     {2.2237259855203653, 0.00027510190025361317},
    },
    {// block 1
     {2.2266142118085792, 0.00028160094975248154},
     {2.2265083581108351, 0.00025260044811445739},
     {2.2184926515682308, 0.00028070852164589587},
     {2.2085576724985252, 0.00027333244515225484},
     {2.2224277120780593, 0.00028551661797038838},
     {2.1959639227334224, 0.00026362623321987536},
     {2.2118265047395167, 0.00027922322394528527},
     {2.1695899325881078, 0.00028366900588582965},
     {2.1798662924620116, 0.00025226389016785985},
     {2.2010418287356033, 0.00025291526250338485},
     {2.2277995783858686, 0.0002795075953063104},
     {2.1967742113598252, 0.00023938682714585112},
     {2.1954912874822434, 0.00025188071543065602},
     {2.2004238938064691, 0.00023441743240561143},
     {2.2279418953098951, 0.00025523359488383978},
     {2.1990131483079121, 0.00031339115097991959},
    },
    {// block 2
     {2.183028180769595, 0.00027750533663911035},
     {2.1755181589228791, 0.00029638141209698492},
     {2.2214766039704674, 0.00026372811297734121},
     {2.1764057696816352, 0.00029425953107427023},
     {2.2176444575732597, 0.00027870716207097193},
     {2.1958941457584906, 0.00025999515177910188},
     {2.1915291769003895, 0.00025125216463901866},
     {2.2104756387108622, 0.0002989090369945566},
     {2.2374380039195145, 0.00026983286330582691},
     {2.2369596537252701, 0.00031339102588602552},
     {2.1907557748822359, 0.00026378955599950892},
     {2.1680278928171783, 0.00024546640177652731},
     {2.1785931562549696, 0.00023783521456298534},
     {2.2509733366861111, 0.00024014004659023979},
     {2.1826292655631061, 0.00026008114989606914},
     {2.2026288581563258, 0.00026368447238014285},
    },
    {// block 3
     {2.1806413107483467, 0.00023229335224647104},
     {2.2097354032889447, 0.00024470140252534904},
     {2.1713611535002428, 0.0002905758228047943},
     {2.2528338947095152, 0.00025338361323495889},
     {2.225171173359322, 0.00023492567807056861},
     {2.2347460139833939, 0.00025855354184132795},
     {2.1837889866766953, 0.00028400531182260847},
     {2.1924365237315566, 0.00023803428566979284},
     {2.2298883344785745, 0.0002637347632673211},
     {2.198612490182061, 0.00023349712556876},
     {2.2116864710177704, 0.00025751402331131233},
     {2.1987165402220632, 0.00023823239922303615},
     {2.2410206755950446, 0.00024514394937545897},
     {2.1735858079653627, 0.00027253963538987762},
     {2.2047315619435079, 0.0002520195385881183},
     {2.1663816819044821, 0.00025279795202839218},
    },
    {// block 4
     {2.2093876757875197, 0.00022843123335320069},
     {2.1584581356389041, 0.00024401307274749112},
     {2.1857192531521497, 0.00027250684807485849},
     {2.2042569764683266, 0.0002632691957164147},
     {2.2418068070985298, 0.0002849028931544494},
     {2.1906525948570925, 0.00024561437982941262},
     {2.1864560967969524, 0.00023848431789308221},
     {2.1713829589032629, 0.00031956557875135864},
     {2.1953532384514958, 0.00024346277696104168},
     {2.2465670299833, 0.0002354497588907557},
     {2.1749076017919093, 0.00023040973337914734},
     {2.257922311066574, 0.00028772832562010348},
     {2.1883657245324848, 0.0002394361880042605},
     {2.2123931196741498, 0.00024751588609837709},
     {2.1805495960479666, 0.0002487740837481479},
     {2.1862153363759163, 0.00023794642079745282},
    },
    {// block 5
     {2.1800786262087239, 0.00023019912046600934},
     {2.176764334360811, 0.00025559795623050161},
     {2.2287523578818713, 0.00025572903513737701},
     {2.2323014139917112, 0.00024005214251262148},
     {2.2126820583012972, 0.0002344612325416234},
     {2.1760967462240304, 0.00024830071134024524},
     {2.1831817451768729, 0.00023345812804039315},
     {2.2228849592512443, 0.00023657997836334628},
     {2.1894077481767114, 0.00022733619936970108},
     {2.2036827022737859, 0.00024486883345758591},
     {2.1966646696441625, 0.00023316516524248874},
     {2.1773571177566322, 0.00023833555605591068},
     {2.2254333397118211, 0.00023429899837804397},
     {2.2421072971279177, 0.00023398739931979325},
     {2.222648660823018, 0.00026740261815646045},
     {2.1869533632950495, 0.00026711636661533886},
    },
    {// block 6
     {2.1606158180083104, 0.00022987264982446436},
     {2.2635137614850067, 0.00022703987498351412},
     {2.1840907672658987, 0.0002279927848377518},
     {2.2278986235020648, 0.00025745555711598623},
     {2.1709447337367402, 0.00026162342775893499},
     {2.2134202260657219, 0.00025052727571924687},
     {2.2161029484862365, 0.00029357274546572629},
     {2.1383366486611401, 0.00022417859222895981},
     {2.2164801786455515, 0.00024265272915857271},
     {2.1683225426736978, 0.00022429544518346586},
     {2.2106303286838513, 0.00025081226164139637},
     {2.1695885284269152, 0.0002351318645569486},
     {2.2039170573515974, 0.00022624998185149885},
     {2.18206269562168, 0.00023554743024446759},
     {2.1881213397809365, 0.00027364366456413447},
     {2.1738490763905074, 0.00022166983789768125},
    },
    {// block 7
     {2.1897345820139491, 0.00023930510251021585},
     {2.1963165580991291, 0.00027104489666873494},
     {2.1881665700377968, 0.00026965615358082878},
     {2.2408327297859456, 0.00027813553606730968},
     {2.2148968115951928, 0.00024074984317993628},
     {2.1920880278159358, 0.00024583707492995075},
     {2.1750352606226282, 0.0002546542866089578},
     {2.2054376704790783, 0.00025689896308696199},
     {2.2004061073492647, 0.00023507906224333417},
     {2.2067208392057505, 0.00024230955778366495},
     {2.1803335275356006, 0.00023828303841362332},
     {2.1816644797866993, 0.00029734065772183749},
     {2.217102450691824, 0.00028342542480066379},
     {2.1823192917599332, 0.00025332151925323127},
     {2.1980108093602406, 0.00026070086800031794},
     {2.1881705274141767, 0.00029185455956641455},
    },
    {// block 8
     {2.2029169387747771, 0.00025675036542746941},
     {2.2219501108376725, 0.00025442328731067735},
     {2.1657417290880714, 0.00025201316496087524},
     {2.1744319146781277, 0.00029205595234598272},
     {2.1640258577508051, 0.00027612921257723979},
     {2.2161578630146272, 0.00023901092932816193},
     {2.1931251166913461, 0.00024003200708446826},
     {2.1549197315738287, 0.00024278308303307615},
     {2.2094074939230435, 0.00025865908379140942},
     {2.2429434547939717, 0.00022663990233925155},
     {2.1943374388926391, 0.00027932841436945077},
     {2.2616566882182312, 0.00022789154191275041},
     {2.2066794561053946, 0.00022984938184381412},
     {2.1847259234035774, 0.00023974940952359351},
     {2.1853341043874517, 0.0002919838483081601},
     {2.2108890710815237, 0.0002839831836593409},
    },
    {// block 9
     {2.1890641970117621, 0.00023993021396380958},
     {2.2126276702029295, 0.00023395942028162298},
     {2.2101237876198967, 0.0002416478373670095},
     {2.1900465066858867, 0.00022384341097215184},
     {2.1838523140874098, 0.0002368771779117612},
     {2.177982373976914, 0.00023179341591039162},
     {2.2239252557836759, 0.00024955970126393684},
     {2.1864377059373696, 0.00024160599648139847},
     {2.2131520892260395, 0.00027682298367993463},
     {2.2282879110083473, 0.00022940478492447359},
     {2.1804286016355867, 0.00025042072509595334},
     {2.1920115325262901, 0.00023712099772990434},
     {2.2109923841645722, 0.00022123039059577599},
     {2.1922298822301514, 0.00022470870784668608},
     {2.1629116551590246, 0.00022787857182744666},
     {2.1508826103500494, 0.00022948285191182308},
    },
    {// block 10
     {2.2100639150011214, 0.00024449449247312732},
     {2.2530699716108891, 0.00024158999753172138},
     {2.1931762319641255, 0.000230518687605822},
     {2.2156047139966901, 0.00023659697793602458},
     {2.1909266483640004, 0.00028349892596664204},
     {2.2449345756468406, 0.00024109358216020668},
     {2.1654693522128277, 0.00027186849950108349},
     {2.1555819633700453, 0.00024543028793902596},
     {2.1605390103507518, 0.00025276537736323816},
     {2.1922995189894849, 0.00023901499000333147},
     {2.2185790720104412, 0.0002435522879259417},
     {2.1965060194339241, 0.00029335768629706887},
     {2.2180703397416521, 0.00023016631976283919},
     {2.2442149007233962, 0.00024178738092389969},
     {2.1919991208738523, 0.00025268915269897874},
     {2.2123436046018812, 0.00024744171871533577},
    },
    {// block 11
     {2.2062046808484914, 0.00023268767580503303},
     {2.1936973036263425, 0.00024368222321719974},
     {2.1625112306180703, 0.00022900599675401367},
     {2.1865405223462289, 0.00022849429960941861},
     {2.2531521661818066, 0.00024656372328347916},
     {2.2287910454625814, 0.00032125797695291443},
     {2.1848033275058301, 0.00025299750894911953},
     {2.2591194607392002, 0.00024005444154980276},
     {2.1474098568879789, 0.00023620883856956618},
     {2.184353231798752, 0.00022608207900580004},
     {2.2052189706907988, 0.00029916240906506969},
     {2.2278963242642469, 0.00024742892431861178},
     {2.149713537449585, 0.00027128814392138008},
     {2.1473122606308861, 0.00023185036471654096},
     {2.2146718103711884, 0.00023581808001119385},
     {2.1857956636733076, 0.0002482165149280447},
    },
    {// block 12
     {2.2214542514896669, 0.00029254598261824161},
     {2.2144526949447991, 0.00027685595317822629},
     {2.2204499629992642, 0.00023108842182168788},
     {2.1285485218002167, 0.00027598576027422782},
     {2.1997713134453556, 0.00025885377308966626},
     {2.2102173967341914, 0.00026428365703107899},
     {2.1941751923954662, 0.00024413298918257289},
     {2.2408671238418059, 0.0002510881228079318},
     {2.1708522891849245, 0.00028362161513271577},
     {2.183409301443481, 0.00023355324845264778},
     {2.1838551797727987, 0.00025480117521676788},
     {2.1954185967137096, 0.00023977259999598112},
     {2.2055456717821853, 0.00027277468369205917},
     {2.205957448049523, 0.00031116894505264222},
     {2.1965215657397543, 0.00029901924343807545},
     {2.1892179991684957, 0.00024396183900219593},
    },
    {// block 13
     {2.1577084822914081, 0.00023784436974233115},
     {2.1715076151895194, 0.00025680845915177462},
     {2.1514330257760008, 0.00022886915973969573},
     {2.172703383392848, 0.00024860148453094275},
     {2.1955222271589854, 0.00024045116738617909},
     {2.1921619169185949, 0.00024408297389430999},
     {2.2014284927383256, 0.00023605909934844941},
     {2.1616480326651071, 0.00023317745080187548},
     {2.2367311202877707, 0.00022666572406541103},
     {2.2043475456367401, 0.00023709238876072354},
     {2.2079714156775156, 0.00025934686263480097},
     {2.191002814380735, 0.00031541522736881685},
     {2.2081934834478156, 0.00025205046172183787},
     {2.2214583914738224, 0.0002384895778888048},
     {2.1826108561481834, 0.00026259693559824903},
     {2.2356321451496393, 0.00026468592990847001},
    },
    {// block 14
     {2.1996286679173429, 0.00025977831172218626},
     {2.1905559717164595, 0.0002705591283935887},
     {2.1815308333553052, 0.00023699455724480239},
     {2.1696179074875097, 0.00023206561940818405},
     {2.2151052439197194, 0.00023578593111470394},
     {2.2356852647316772, 0.00024026088834207555},
     {2.2161003318293182, 0.00024821291380642109},
     {2.2204001234520927, 0.00027178471304012056},
     {2.194163638082725, 0.00031189461767025962},
     {2.1947774829837439, 0.00024629107011321248},
     {2.2263454732205656, 0.0002643113571669548},
     {2.2087198236404526, 0.00026046935958301044},
     {2.1671167880960787, 0.00022858129824247097},
     {2.253455704026551, 0.0002457097268659293},
     {2.2192952923252065, 0.00024831900379247723},
     {2.2053543144897785, 0.00023755672367624514},
    },
  };
  const ReliabilityProblem problem = ev6_problem("25");
  StMcOptions options;
  options.samples = 100;
  options.use_histogram = false;
  options.seed = 7;
  const StMcAnalyzer st_mc(problem, options);
  ASSERT_EQ(st_mc.nodes().size(), std::size(kFirstSamples));
  for (std::size_t j = 0; j < std::size(kFirstSamples); ++j)
    for (std::size_t s = 0; s < kFirst; ++s) {
      const UvNode& n = st_mc.nodes()[j][s];
      const double u = kFirstSamples[j][s][0];
      const double v = kFirstSamples[j][s][1];
      EXPECT_LE(std::abs(n.u - u), kRelTol * std::abs(u))
          << "block " << j << " sample " << s << std::setprecision(17)
          << " u " << n.u << " vs " << u;
      EXPECT_LE(std::abs(n.v - v), kRelTol * std::abs(v))
          << "block " << j << " sample " << s << std::setprecision(17)
          << " v " << n.v << " vs " << v;
    }
}

// Statistical budget of the st_MC sampler: each block's raw (u, v)
// samples against the closed forms of BlodMoments, in units of the
// samples' own standard errors. Any sampler of the same distribution must
// pass; the bits are pinned separately by the goldens above. The
// standard errors are the plug-in ones: sigma_u / sqrt(N) for u's mean,
// sqrt((m4 - m2^2) / N) for a variance, sqrt((m6 - m3^2 - 6 m4 m2 +
// 9 m2^3) / N) for v's third central moment and sqrt(E[du^2 dv^2] / N)
// for the u-v covariance (the Lemma: zero for a uniform nominal).
// Over seeds 1-10 at 10k samples on these two problems (21 blocks) the
// sampler this gate was committed against reached at most 3.1 standard
// errors on u's mean and variance, 3.3 on v's mean, 3.2 on v's variance,
// 3.0 on the covariance and 4.0 on v's third moment, whose standard error
// rests on a sample sixth moment; hence 4.5 and 5. A single-cell block's
// v is deterministic, so only its u is checked here.
void expect_uv_match_blod(const ReliabilityProblem& problem,
                          const std::string& name) {
  constexpr double kSigmas = 4.5;
  constexpr double kThirdMomentSigmas = 5.0;
  StMcOptions options;
  options.use_histogram = false;
  const StMcAnalyzer st_mc(problem, options);
  for (std::size_t j = 0; j < problem.blocks().size(); ++j) {
    const BlodMoments& blod = problem.blocks()[j].blod;
    const std::vector<UvNode>& samples = st_mc.nodes()[j];
    ASSERT_EQ(samples.size(), options.samples);
    const double n = static_cast<double>(samples.size());
    double u_mean = 0.0;
    double v_mean = 0.0;
    for (const UvNode& s : samples) {
      u_mean += s.u;
      v_mean += s.v;
    }
    u_mean /= n;
    v_mean /= n;
    double u2 = 0.0, u4 = 0.0, v2 = 0.0, v3 = 0.0, v4 = 0.0, v6 = 0.0;
    double uv = 0.0, u2v2 = 0.0;
    for (const UvNode& s : samples) {
      const double du = s.u - u_mean;
      const double dv = s.v - v_mean;
      u2 += du * du;
      u4 += du * du * du * du;
      v2 += dv * dv;
      v3 += dv * dv * dv;
      v4 += dv * dv * dv * dv;
      v6 += dv * dv * dv * dv * dv * dv;
      uv += du * dv;
      u2v2 += du * du * dv * dv;
    }
    u2 /= n, u4 /= n, v2 /= n, v3 /= n, v4 /= n, v6 /= n, uv /= n, u2v2 /= n;
    const std::string where = name + " block " + std::to_string(j);
    const double u_var = blod.u_sigma() * blod.u_sigma();
    EXPECT_LE(std::abs(u_mean - blod.u_nominal()) /
                  (blod.u_sigma() / std::sqrt(n)),
              kSigmas)
        << where << " u mean " << u_mean << " vs " << blod.u_nominal();
    EXPECT_LE(std::abs(u2 - u_var) / std::sqrt((u4 - u2 * u2) / n), kSigmas)
        << where << " u variance " << u2 << " vs " << u_var;
    if (blod.v_degenerate()) continue;
    EXPECT_LE(std::abs(v_mean - blod.v_mean()) / std::sqrt(v2 / n), kSigmas)
        << where << " v mean " << v_mean << " vs " << blod.v_mean();
    EXPECT_LE(std::abs(v2 - blod.v_variance()) /
                  std::sqrt((v4 - v2 * v2) / n),
              kSigmas)
        << where << " v variance " << v2 << " vs " << blod.v_variance();
    EXPECT_LE(std::abs(v3 - blod.v_third_central_moment()) /
                  std::sqrt((v6 - v3 * v3 - 6.0 * v4 * v2 +
                             9.0 * v2 * v2 * v2) /
                            n),
              kThirdMomentSigmas)
        << where << " v third central moment " << v3 << " vs "
        << blod.v_third_central_moment();
    EXPECT_LE(std::abs(uv) / std::sqrt(u2v2 / n), kSigmas)
        << where << " u-v covariance " << uv;
  }
}

class StMcMoments : public MethodsFixture {};

TEST_F(StMcMoments, SampledUvMatchesBlodClosedForms) {
  expect_uv_match_blod(ev6_problem("25"), "ev6 grid 25");
  expect_uv_match_blod(*problem_, "methods fixture");
}

// A block inside one grid cell has no correlated spread: its sampled v is
// exactly the residual variance, the deterministic v of v_degenerate().
// EV6 at grid 4 has seven such blocks.
TEST_F(StMcMoments, SingleCellBlockVIsExactlyResidualVariance) {
  const ReliabilityProblem problem = ev6_problem("4");
  StMcOptions options;
  options.samples = 1000;
  options.use_histogram = false;
  const StMcAnalyzer st_mc(problem, options);
  const double sr = problem.canonical().residual_sigma();
  std::size_t single_cell_blocks = 0;
  for (std::size_t j = 0; j < problem.blocks().size(); ++j) {
    if (problem.layout().weights[j].size() != 1) continue;
    ++single_cell_blocks;
    const BlodMoments& blod = problem.blocks()[j].blod;
    ASSERT_TRUE(blod.v_degenerate()) << "block " << j;
    ASSERT_EQ(blod.v_mean(), sr * sr) << "block " << j;
    for (const UvNode& s : st_mc.nodes()[j])
      ASSERT_EQ(s.v, sr * sr) << "block " << j;
  }
  EXPECT_GT(single_cell_blocks, 0u);
}

// st_MC's lifetimes on EV6 at grid 25 with 20k samples (the ledger's
// sign-off setting), averaged over seeds 1-10, against the mean of the
// sampler this gate was committed with. Its per-seed lifetimes spread with
// the sample standard deviations below; the two 10-seed means of
// independent samplers differ by sqrt(2/10) = 0.45 of that spread (one
// standard error), so two spreads is 4.5 standard errors.
TEST(StMcSeedSpread, Ev6LifetimesWithinParentSpread) {
  const struct {
    double target;
    double mean;
    double spread;
  } committed[] = {{kOneFaultPerMillion, 10021456.08796752, 4357.846070956635},
                   {kTenFaultsPerMillion, 51852060.70715353,
                    20046.230589624534}};
  constexpr double kSpreads = 2.0;
  constexpr int kSeeds = 10;
  const ReliabilityProblem problem = ev6_problem("25");
  double sum[2] = {0.0, 0.0};
  for (int seed = 1; seed <= kSeeds; ++seed) {
    const StMcAnalyzer st_mc(
        problem, {.samples = 20000, .seed = static_cast<std::uint64_t>(seed)});
    for (std::size_t k = 0; k < 2; ++k)
      sum[k] += st_mc.lifetime_at(committed[k].target);
  }
  for (std::size_t k = 0; k < 2; ++k) {
    const double mean = sum[k] / kSeeds;
    EXPECT_LE(std::abs(mean - committed[k].mean), kSpreads * committed[k].spread)
        << "target " << committed[k].target << ": mean lifetime " << mean
        << " s against " << committed[k].mean << " s";
  }
}

TEST_F(MethodsFixture, HybridMatchesStFast) {
  const AnalyticAnalyzer fast(*problem_);
  const HybridEvaluator hybrid(*problem_);
  for (double t : {5e7, 2e8, 1e9}) {
    const double ff = fast.failure_probability(t);
    const double fh = hybrid.failure_probability(t);
    EXPECT_NEAR(fh / ff, 1.0, 0.03) << "t=" << t;
  }
  EXPECT_NEAR(hybrid.lifetime_at(kOneFaultPerMillion) /
                  fast.lifetime_at(kOneFaultPerMillion),
              1.0, 0.03);
}

TEST_F(MethodsFixture, HybridMatchesAnalyticAtHighFailureLevels) {
  // Regression for the block-composition bug: summing per-block failures
  // and clamping to [0, 1] (the first-order expansion) overestimates F(t)
  // once blocks stop being individually reliable, saturating at 1 long
  // before the true weakest-link curve does. Both analyzers now compose
  // through the survival product, so they must agree deep into the
  // high-failure regime, not just at ppm levels.
  const AnalyticAnalyzer fast(*problem_);
  const HybridEvaluator hybrid(*problem_);
  for (double target : {0.5, 0.9, 0.99}) {
    const double t = fast.lifetime_at(target);
    const double ff = fast.failure_probability(t);
    const double fh = hybrid.failure_probability(t);
    ASSERT_NEAR(ff, target, 1e-6 * target);  // lifetime_at round trip
    EXPECT_LT(fh, 1.0) << "hybrid saturated at target " << target;
    EXPECT_NEAR(fh / ff, 1.0, 0.03) << "target " << target;
  }
  // The survival product can never exceed the first-order block-failure
  // sum; at F ~ 0.9 the two must differ measurably (the sum would have
  // been driven toward saturation).
  const double t90 = fast.lifetime_at(0.9);
  double block_sum = 0.0;
  for (std::size_t j = 0; j < problem_->blocks().size(); ++j)
    block_sum += fast.block_failure(j, t90);
  EXPECT_GT(block_sum, fast.failure_probability(t90) + 1e-3);
}

TEST_F(MethodsFixture, MonteCarloAccountsOutOfRangeThickness) {
  diagnostics().clear();
  // A deliberately narrow histogram (+-1 sigma of total variation) forces
  // a macroscopic fraction of device draws outside the axis. They must be
  // counted (not folded into edge bins) and flagged once via "mc.binning".
  MonteCarloOptions narrow;
  narrow.chip_samples = 50;
  narrow.thickness_range_sigmas = 1.0;
  const MonteCarloAnalyzer mc_narrow(*problem_, narrow);
  EXPECT_GT(mc_narrow.out_of_range_fraction(), 1e-6);
  EXPECT_EQ(diagnostics().count("mc.binning"), 1u);
  diagnostics().clear();

  // The default range must not clip and must not warn.
  MonteCarloOptions wide;
  wide.chip_samples = 50;
  const MonteCarloAnalyzer mc_wide(*problem_, wide);
  EXPECT_EQ(mc_wide.out_of_range_fraction(), 0.0);
  EXPECT_EQ(diagnostics().count("mc.binning"), 0u);

  // Boundary accounting keeps the clipped analyzer a sane estimator: the
  // out-of-range mass contributes at the clamp value instead of being
  // dropped, so F(t) stays bounded and in the neighborhood of the
  // unclipped estimate.
  for (double t : {1e8, 1e9}) {
    const double f_narrow = mc_narrow.failure_probability(t);
    const double f_wide = mc_wide.failure_probability(t);
    EXPECT_GE(f_narrow, 0.0);
    EXPECT_LE(f_narrow, 1.0);
    EXPECT_NEAR(f_narrow, f_wide, 0.25) << "t=" << t;
  }
  diagnostics().clear();
}

TEST_F(MethodsFixture, HybridPaperBilinearStillClose) {
  HybridOptions opt;
  opt.log_space = false;  // the paper-literal interpolation
  const HybridEvaluator hybrid(*problem_, opt);
  const AnalyticAnalyzer fast(*problem_);
  EXPECT_NEAR(hybrid.lifetime_at(kTenFaultsPerMillion) /
                  fast.lifetime_at(kTenFaultsPerMillion),
              1.0, 0.10);
}

TEST_F(MethodsFixture, HybridReparameterizationMatchesRebuiltProblem) {
  // The hybrid method's purpose: answer for a *different* temperature
  // profile without re-integration. Compare against st_fast on a problem
  // rebuilt at the new temperatures.
  const HybridEvaluator hybrid(*problem_);
  std::vector<double> hot_temps;
  for (double t : *temps_) hot_temps.push_back(t + 12.0);
  ProblemOptions opts;
  opts.grid_cells_per_side = 10;
  const auto hot_problem = ReliabilityProblem::build(
      *design_, var::VariationBudget{}, *model_, hot_temps, 1.2, opts);
  const AnalyticAnalyzer hot_fast(hot_problem);

  std::vector<double> alphas;
  std::vector<double> bs;
  for (double t : hot_temps) {
    alphas.push_back(model_->alpha(t, 1.2));
    bs.push_back(model_->b(t, 1.2));
  }
  const double t_query = 2e8;
  EXPECT_NEAR(hybrid.failure_probability_with(t_query, alphas, bs) /
                  hot_fast.failure_probability(t_query),
              1.0, 0.03);
}

TEST_F(MethodsFixture, GuardBandIsPessimisticByTensOfPercent) {
  // Table III: guard-band underestimates lifetime by ~40-60%.
  const AnalyticAnalyzer fast(*problem_);
  const GuardBandAnalyzer guard(*problem_);
  for (double target : {kOneFaultPerMillion, kTenFaultsPerMillion}) {
    const double t_fast = fast.lifetime_at(target);
    const double t_guard = guard.lifetime_at(target);
    EXPECT_LT(t_guard, t_fast);
    const double underestimate = 1.0 - t_guard / t_fast;
    EXPECT_GT(underestimate, 0.25) << "target " << target;
    EXPECT_LT(underestimate, 0.85) << "target " << target;
  }
}

TEST_F(MethodsFixture, GuardBandClosedFormRoundTrip) {
  const GuardBandAnalyzer guard(*problem_);
  const double t = guard.lifetime_at(1e-6);
  EXPECT_NEAR(guard.failure_probability(t), 1e-6, 1e-9);
}

TEST_F(MethodsFixture, TemperatureUnawareIsPessimistic) {
  // Using the worst temperature for every block (Fig. 10's
  // temperature-unaware curve) must under-predict lifetime vs the
  // temperature-aware analysis, but less than the guard band.
  ProblemOptions opts;
  opts.grid_cells_per_side = 10;
  const std::vector<double> worst(temps_->size(), problem_->worst_temp_c());
  const auto unaware_problem = ReliabilityProblem::build(
      *design_, var::VariationBudget{}, *model_, worst, 1.2, opts);
  const AnalyticAnalyzer aware(*problem_);
  const AnalyticAnalyzer unaware(unaware_problem);
  const GuardBandAnalyzer guard(*problem_);
  const double t_aware = aware.lifetime_at(kTenFaultsPerMillion);
  const double t_unaware = unaware.lifetime_at(kTenFaultsPerMillion);
  const double t_guard = guard.lifetime_at(kTenFaultsPerMillion);
  EXPECT_LT(t_unaware, t_aware);
  EXPECT_LT(t_guard, t_unaware);
}

TEST_F(MethodsFixture, MonteCarloFailureTimesMatchFailureCurve) {
  // The empirical CDF of sampled chip failure times must agree with the
  // analyzer's own failure probability at bulk quantiles.
  MonteCarloOptions mco;
  mco.chip_samples = 200;
  const MonteCarloAnalyzer mc(*problem_, mco);
  stats::Rng rng(8);
  auto times = mc.sample_failure_times(2000, rng);
  std::sort(times.begin(), times.end());
  const double median = times[times.size() / 2];
  const double f_at_median = mc.failure_probability(median);
  EXPECT_NEAR(f_at_median, 0.5, 0.06);
}

TEST_F(MethodsFixture, FailureCurveIsLogSpacedAndMonotone) {
  const AnalyticAnalyzer fast(*problem_);
  const auto curve = failure_curve(
      [&](double t) { return fast.failure_probability(t); }, 1e7, 1e10, 30);
  ASSERT_EQ(curve.size(), 30u);
  EXPECT_NEAR(curve.front().time_s, 1e7, 1.0);
  EXPECT_NEAR(curve.back().time_s, 1e10, 1e4);
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_GT(curve[i].time_s, curve[i - 1].time_s);
    EXPECT_GE(curve[i].failure, curve[i - 1].failure - 1e-15);
  }
}

// The operating-point stage on a shared variation stage must reproduce a
// full build at the new operating point bit for bit, and must not depend
// on its donor staying alive.
bool same_bits(double a, double b) {
  std::uint64_t x = 0;
  std::uint64_t y = 0;
  std::memcpy(&x, &a, sizeof x);
  std::memcpy(&y, &b, sizeof y);
  return x == y;
}

std::string tables_text(const HybridEvaluator& h) {
  std::ostringstream out;
  h.save(out);
  return out.str();
}

TEST(OperatingPointStage, MatchesAFullBuildBitForBitAndOutlivesItsDonor) {
  const chip::Design design = chip::make_synthetic_design(
      "T1", {.devices = 30000, .block_count = 6, .die_width = 6.0,
             .die_height = 6.0, .seed = 77});
  const AnalyticReliabilityModel model;
  ProblemOptions opts;
  opts.grid_cells_per_side = 10;
  const std::vector<double> t1 = {95.0, 70.0, 58.0, 82.0, 64.0, 75.0};
  const std::vector<double> t2 = {61.0, 88.5, 47.25, 70.0, 99.0, 55.5};
  Config mech_cfg;
  mech_cfg.set("mechanisms", "oxide,nbti,em");
  const mech::MechanismSpec spec2 = mech::parse_spec(mech_cfg);
  ProblemOptions opts2 = opts;
  opts2.mechanisms = spec2;

  auto donor = std::make_unique<ReliabilityProblem>(ReliabilityProblem::build(
      design, var::VariationBudget{}, model, t1, 1.2, opts));
  const ReliabilityProblem want = ReliabilityProblem::build(
      design, var::VariationBudget{}, model, t2, 1.1, opts2);
  const ReliabilityProblem got =
      ReliabilityProblem::with_operating_point(*donor, model, t2, 1.1, spec2);

  EXPECT_EQ(&got.canonical(), &donor->canonical());
  EXPECT_EQ(&got.grid(), &donor->grid());
  EXPECT_TRUE(same_bits(got.vdd(), 1.1));
  EXPECT_EQ(got.mechanism_canonical(), want.mechanism_canonical());
  EXPECT_EQ(got.options().mechanisms.canonical(), spec2.canonical());
  EXPECT_EQ(got.options().grid_cells_per_side, opts.grid_cells_per_side);
  ASSERT_EQ(got.blocks().size(), want.blocks().size());
  for (std::size_t j = 0; j < got.blocks().size(); ++j) {
    const BlockParams& g = got.blocks()[j];
    const BlockParams& w = want.blocks()[j];
    EXPECT_EQ(g.name, w.name);
    EXPECT_TRUE(same_bits(g.area, w.area)) << j;
    EXPECT_TRUE(same_bits(g.alpha, w.alpha)) << j;
    EXPECT_TRUE(same_bits(g.b, w.b)) << j;
    EXPECT_TRUE(same_bits(g.temp_c, w.temp_c)) << j;
    EXPECT_TRUE(same_bits(g.blod.u_nominal(), w.blod.u_nominal())) << j;
    EXPECT_TRUE(same_bits(g.blod.u_sigma(), w.blod.u_sigma())) << j;
    EXPECT_EQ(g.blod.u_sensitivities(), w.blod.u_sensitivities()) << j;
    EXPECT_TRUE(same_bits(g.blod.v_mean(), w.blod.v_mean())) << j;
    EXPECT_TRUE(same_bits(g.blod.v_variance(), w.blod.v_variance())) << j;
    EXPECT_TRUE(same_bits(g.blod.v_third_central_moment(),
                          w.blod.v_third_central_moment()))
        << j;
    ASSERT_EQ(g.blod.v_degenerate(), w.blod.v_degenerate()) << j;
    for (const double q : {1e-6, 0.3, 0.5, 0.999}) {
      EXPECT_TRUE(same_bits(g.blod.u_marginal().quantile(q),
                            w.blod.u_marginal().quantile(q)))
          << j;
      if (!g.blod.v_degenerate()) {
        EXPECT_TRUE(same_bits(g.blod.v_marginal().quantile(q),
                              w.blod.v_marginal().quantile(q)))
            << j;
      }
    }
  }

  HybridOptions small;
  small.n_gamma = 24;
  small.n_b = 16;
  auto donor_tables = std::make_unique<HybridEvaluator>(*donor, small);
  const HybridEvaluator shared(got, *donor_tables);
  const HybridEvaluator built(want, small);
  EXPECT_EQ(tables_text(shared), tables_text(built));

  // Destroy the donor: the recipient's BLOD moments still reach the
  // canonical form (v_value dereferences it), and both evaluators answer
  // exactly as the full build does.
  donor_tables.reset();
  donor.reset();
  const la::Vector z(got.canonical().pc_count(), 0.5);
  for (std::size_t j = 0; j < got.blocks().size(); ++j)
    EXPECT_TRUE(same_bits(got.blocks()[j].blod.v_value(z),
                          want.blocks()[j].blod.v_value(z)))
        << j;
  for (const double t : {3.15e8, 1e9, 4e9}) {
    EXPECT_TRUE(same_bits(shared.failure_probability(t),
                          built.failure_probability(t)))
        << t;
    EXPECT_TRUE(same_bits(AnalyticAnalyzer(got).failure_probability(t),
                          AnalyticAnalyzer(want).failure_probability(t)))
        << t;
  }
}

TEST(OperatingPointStage, TablesAreSharedOnlyWithinOneVariationStage) {
  const chip::Design design = chip::make_synthetic_design(
      "T1", {.devices = 20000, .block_count = 4, .die_width = 4.0,
             .die_height = 4.0, .seed = 5});
  const AnalyticReliabilityModel model;
  ProblemOptions opts;
  opts.grid_cells_per_side = 6;
  const std::vector<double> temps(design.blocks.size(), 80.0);
  const ReliabilityProblem a = ReliabilityProblem::build(
      design, var::VariationBudget{}, model, temps, 1.2, opts);
  const ReliabilityProblem b = ReliabilityProblem::build(
      design, var::VariationBudget{}, model, temps, 1.2, opts);
  HybridOptions small;
  small.n_gamma = 4;
  small.n_b = 4;
  const HybridEvaluator tables(a, small);
  EXPECT_THROW(HybridEvaluator(b, tables), obd::Error);
  EXPECT_THROW((void)ReliabilityProblem::with_operating_point(
                   a, model, std::vector<double>(1, 80.0), 1.2, {}),
               obd::Error);
  EXPECT_THROW((void)ReliabilityProblem::with_operating_point(
                   a, model, temps, 0.0, {}),
               obd::Error);
}

TEST(MethodsErrors, RejectBadArguments) {
  EXPECT_THROW(GuardBandAnalyzer(0.0, 1.0, 1.0, 1.0), obd::Error);
  EXPECT_THROW((void)GuardBandAnalyzer(1.0, 1.0, 1.0, 1.0).lifetime_at(0.0),
               obd::Error);
  EXPECT_THROW(
      lifetime_at_failure([](double) { return 0.5; }, 1.5), obd::Error);
}

TEST(McStdError, ShrinksWithSampleCountAndBoundsError) {
  const chip::Design design = chip::make_synthetic_design(
      "M", {.devices = 15000, .block_count = 4, .die_width = 4.0,
            .die_height = 4.0, .seed = 61});
  const core::AnalyticReliabilityModel model;
  const std::vector<double> temps{90.0, 70.0, 80.0, 60.0};
  core::ProblemOptions opts;
  opts.grid_cells_per_side = 8;
  const auto problem = core::ReliabilityProblem::build(
      design, var::VariationBudget{}, model, temps, 1.2, opts);

  const core::MonteCarloAnalyzer small(problem, {.chip_samples = 100});
  const core::MonteCarloAnalyzer big(problem,
                                     {.chip_samples = 900, .seed = 2});
  const double t = 3e8;
  // SE scales like 1/sqrt(n): 3x fewer per 9x more samples.
  EXPECT_NEAR(small.failure_std_error(t) / big.failure_std_error(t), 3.0,
              1.5);
  // The two estimates agree within a few joint standard errors.
  const double gap =
      std::fabs(small.failure_probability(t) - big.failure_probability(t));
  const double joint =
      std::hypot(small.failure_std_error(t), big.failure_std_error(t));
  EXPECT_LT(gap, 5.0 * joint);
}

}  // namespace
}  // namespace obd::core

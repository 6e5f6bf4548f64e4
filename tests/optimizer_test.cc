#include <cmath>

#include <gtest/gtest.h>

#include "advisor/advisor.h"
#include "analysis/invariants.h"
#include "randwl/random_workload.h"
#include "rubis/model.h"
#include "rubis/workload.h"
#include "tests/hotel_fixture.h"
#include "util/stopwatch.h"

namespace nose {
namespace {

Query MakeGuestPoiQuery(const EntityGraph& graph) {
  auto path =
      graph.ResolvePath("POI", {"Hotels", "Rooms", "Reservations", "Guest"});
  std::vector<FieldRef> select = {{"POI", "POIName"}};
  std::vector<Predicate> preds = {
      {{"Guest", "GuestID"}, PredicateOp::kEq, std::nullopt, "guest"}};
  return Query(std::move(path).value(), std::move(select), std::move(preds),
               {});
}

/// Builds a mixed hotel workload with `update_weight` on a POI update.
std::unique_ptr<Workload> MakeMixedWorkload(const EntityGraph& graph,
                                            double update_weight) {
  auto workload = std::make_unique<Workload>(&graph);
  (void)workload->AddQuery("guests_by_city", MakeFig3Query(graph), 2.0);
  (void)workload->AddQuery("guest_pois", MakeGuestPoiQuery(graph), 1.0);
  auto poi = graph.SingleEntityPath("POI");
  auto upd = Update::MakeUpdate(
      *poi, {{"POIDescription", std::nullopt, "d"}},
      {{{"POI", "POIID"}, PredicateOp::kEq, std::nullopt, "p"}});
  (void)workload->AddUpdate("upd_poi", std::move(upd).value(), update_weight);
  return workload;
}

/// The two solve strategies must agree on the objective (within the
/// optimality gaps both honor).
TEST(OptimizerStrategyTest, CombinatorialMatchesBipOnHotelWorkloads) {
  auto graph = MakeHotelGraph();
  for (double w : {0.001, 0.5, 10.0}) {
    auto workload = MakeMixedWorkload(*graph, w);

    AdvisorOptions bip_opts;
    bip_opts.optimizer.strategy = SolveStrategy::kBip;
    Advisor bip_advisor(bip_opts);
    auto bip = bip_advisor.Recommend(*workload);
    ASSERT_TRUE(bip.ok()) << bip.status();

    AdvisorOptions comb_opts;
    comb_opts.optimizer.strategy = SolveStrategy::kCombinatorial;
    Advisor comb_advisor(comb_opts);
    auto comb = comb_advisor.Recommend(*workload);
    ASSERT_TRUE(comb.ok()) << comb.status();

    const double tol =
        0.025 * std::max(1e-9, std::max(bip->objective, comb->objective));
    EXPECT_NEAR(bip->objective, comb->objective, tol) << "weight " << w;
  }
}

// Sanitizer instrumentation slows the solvers several-fold; give the BIP a
// proportionally larger wall-clock budget so the equivalence check below
// compares strategies rather than build configurations.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr double kSolverBudgetScale = 8.0;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr double kSolverBudgetScale = 8.0;
#else
constexpr double kSolverBudgetScale = 1.0;
#endif
#else
constexpr double kSolverBudgetScale = 1.0;
#endif

class StrategyEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(StrategyEquivalenceTest, RandomWorkloadsAgree) {
  randwl::GeneratorOptions gen;
  gen.num_entities = 4;
  gen.num_statements = 6;
  gen.seed = 1000 + static_cast<uint64_t>(GetParam());
  auto rw = randwl::Generate(gen);
  ASSERT_TRUE(rw.ok()) << rw.status();

  AdvisorOptions bip_opts;
  bip_opts.optimizer.strategy = SolveStrategy::kBip;
  bip_opts.optimizer.bip.time_limit_seconds = 30 * kSolverBudgetScale;
  Advisor bip_advisor(bip_opts);
  auto bip = bip_advisor.Recommend(*rw->workload);

  AdvisorOptions comb_opts;
  comb_opts.optimizer.strategy = SolveStrategy::kCombinatorial;
  Advisor comb_advisor(comb_opts);
  auto comb = comb_advisor.Recommend(*rw->workload);

  ASSERT_EQ(bip.ok(), comb.ok());
  if (!bip.ok()) return;
  if (!bip->solve_proven || !comb->solve_proven) {
    GTEST_SKIP() << "a solver hit its budget; objectives not comparable";
  }
  const double tol =
      0.03 * std::max(1e-9, std::max(bip->objective, comb->objective));
  EXPECT_NEAR(bip->objective, comb->objective, tol)
      << "seed " << gen.seed;
  // Both schemas must cover the workload with comparable costs; plan counts
  // match statement counts.
  EXPECT_EQ(bip->query_plans.size(), comb->query_plans.size());
  EXPECT_EQ(bip->update_plans.size(), comb->update_plans.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, StrategyEquivalenceTest,
                         ::testing::Range(0, 8));

TEST(OptimizerStrategyTest, AutoSelectsBipForSmallPools) {
  auto graph = MakeHotelGraph();
  auto workload = MakeMixedWorkload(*graph, 0.5);
  AdvisorOptions opts;  // kAuto by default
  Advisor advisor(opts);
  auto rec = advisor.Recommend(*workload);
  ASSERT_TRUE(rec.ok());
  // Small pool => BIP path => variable counts reported.
  EXPECT_GT(rec->bip_variables, 0);
}

TEST(OptimizerStrategyTest, SpaceLimitForcesBip) {
  auto graph = MakeHotelGraph();
  auto workload = MakeMixedWorkload(*graph, 0.5);
  AdvisorOptions opts;
  opts.optimizer.strategy = SolveStrategy::kCombinatorial;
  opts.optimizer.space_limit_bytes = 1e12;  // roomy, but forces BIP
  Advisor advisor(opts);
  auto rec = advisor.Recommend(*workload);
  ASSERT_TRUE(rec.ok()) << rec.status();
  EXPECT_GT(rec->bip_variables, 0);  // BIP path was taken
}

/// bip.time_limit_seconds bounds the whole solve stage — the cost solve
/// plus the schema-size pass — not each of several solves.
TEST(OptimizerBudgetTest, TimeLimitBoundsTheWholeSolveStage) {
  auto graph = rubis::MakeGraph();
  ASSERT_TRUE(graph.ok()) << graph.status();
  auto workload = rubis::MakeWorkload(**graph);
  ASSERT_TRUE(workload.ok()) << workload.status();
  AdvisorOptions opts;
  opts.num_threads = 1;
  opts.verify_invariants = false;  // audited explicitly below
  opts.optimizer.strategy = SolveStrategy::kBip;

  // One LP's time, measured on this build: presolve plus the root
  // relaxation of the write100x BIP. A budget stop lets the in-flight LP
  // finish, so the stage may overrun the limit by about this much.
  AdvisorOptions probe = opts;
  probe.optimizer.bip.max_nodes = 1;
  BipCapture capture;
  probe.optimizer.capture_bip = &capture;
  ASSERT_TRUE(Advisor(probe).Recommend(**workload, rubis::kWrite100xMix).ok());
  ASSERT_TRUE(capture.captured);
  BipOptions root_only;
  root_only.max_nodes = 1;
  Stopwatch lp_watch;
  SolveBip(capture.lp, capture.binary_vars, root_only);
  const double one_lp = lp_watch.ElapsedSeconds();

  // Ten LPs of budget: far below the unbudgeted solve, so the limit binds.
  const double limit = std::max(0.05, 10.0 * one_lp);
  opts.optimizer.bip.time_limit_seconds = limit;
  auto rec = Advisor(opts).Recommend(**workload, rubis::kWrite100xMix);
  ASSERT_TRUE(rec.ok()) << rec.status();
  EXPECT_FALSE(rec->solve_proven);
  EXPECT_GT(rec->anytime_gap, 0.0);
  // Slack of half the limit plus one LP absorbs scheduling noise on a busy
  // host, yet stays below the 2x limit that one full-limit solve per stage
  // (cost, then schema size) took.
  EXPECT_LE(rec->timing.bip_solve_seconds, 1.5 * limit + one_lp)
      << "limit " << limit << "s, one LP " << one_lp << "s";
  // A budget-stopped solve still reports what its returned plans cost
  // (NOSE-I006), not the cost of the incumbent it stopped with.
  RecommendationView view{&rec->schema, &rec->query_plans, &rec->update_plans,
                          rec->objective, rec->solve_proven};
  EXPECT_TRUE(
      VerifyRecommendation(**workload, rubis::kWrite100xMix, view).ok());
}

TEST(OptimizerCacheTest, StructuralChangeDiscardsWarmStart) {
  auto graph = MakeHotelGraph();
  auto workload = MakeMixedWorkload(*graph, 0.5);

  CostModel cost;
  CardinalityEstimator est(graph.get(), &cost.params());
  CandidatePool pool =
      Enumerator().EnumerateWorkload(*workload, Workload::kDefaultMix);

  OptimizerOptions opts;
  opts.strategy = SolveStrategy::kBip;
  SchemaOptimizer optimizer(&cost, &est, opts);

  PlanSpaceCache cache;
  auto full = optimizer.Optimize(*workload, Workload::kDefaultMix, pool,
                                 nullptr, &cache);
  ASSERT_TRUE(full.ok()) << full.status();
  // The solve deposits its optimum plus the BIP's structural fingerprint.
  ASSERT_FALSE(cache.last_bip_solution.empty());
  ASSERT_GT(cache.last_bip_variables, 0);
  const int full_vars = cache.last_bip_variables;
  const int full_rows = cache.last_bip_rows;

  // Mutate the workload between mixes: a new mix spanning only one query
  // assembles a structurally different BIP. The fingerprint guard must
  // discard the stale warm start and root basis instead of applying them
  // to a mismatched variable space — and the cached-path result must match
  // a cache-free solve exactly.
  ASSERT_TRUE(workload->SetWeight("guests_by_city", "small", 1.0).ok());
  auto cached = optimizer.Optimize(*workload, "small", pool, nullptr, &cache);
  ASSERT_TRUE(cached.ok()) << cached.status();
  EXPECT_TRUE(cache.last_bip_variables != full_vars ||
              cache.last_bip_rows != full_rows)
      << "the smaller mix should assemble a different BIP";

  auto fresh = optimizer.Optimize(*workload, "small", pool, nullptr, nullptr);
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  EXPECT_DOUBLE_EQ(cached->objective, fresh->objective);
  EXPECT_EQ(cached->schema.ToString(), fresh->schema.ToString());
}

TEST(OptimizerCacheTest, CorruptStaleSolutionIsIgnoredSafely) {
  auto graph = MakeHotelGraph();
  auto workload = MakeMixedWorkload(*graph, 0.5);
  CostModel cost;
  CardinalityEstimator est(graph.get(), &cost.params());
  CandidatePool pool =
      Enumerator().EnumerateWorkload(*workload, Workload::kDefaultMix);
  OptimizerOptions opts;
  opts.strategy = SolveStrategy::kBip;
  SchemaOptimizer optimizer(&cost, &est, opts);

  // A cache carrying garbage with a non-matching fingerprint: the solve
  // must ignore it entirely (a matching one is never fabricated here).
  PlanSpaceCache cache;
  cache.last_bip_solution = {1.0, 0.0, 1.0};
  cache.last_bip_variables = 3;
  cache.last_bip_rows = 1;
  cache.last_bip_nonzeros = 3;
  cache.last_root_basis.status = {2, 0, 1, 2};
  auto guarded = optimizer.Optimize(*workload, Workload::kDefaultMix, pool,
                                    nullptr, &cache);
  ASSERT_TRUE(guarded.ok()) << guarded.status();
  auto plain = optimizer.Optimize(*workload, Workload::kDefaultMix, pool,
                                  nullptr, nullptr);
  ASSERT_TRUE(plain.ok());
  EXPECT_DOUBLE_EQ(guarded->objective, plain->objective);
  EXPECT_EQ(guarded->schema.ToString(), plain->schema.ToString());
}

TEST(OptimizerStrategyTest, CombinatorialHandlesLargerRandomInstances) {
  randwl::GeneratorOptions gen;
  gen.num_entities = 18;
  gen.num_statements = 36;
  gen.seed = 77;
  auto rw = randwl::Generate(gen);
  ASSERT_TRUE(rw.ok());
  AdvisorOptions opts;
  opts.optimizer.strategy = SolveStrategy::kCombinatorial;
  // The search does not prove this instance within any budget a test can
  // afford, so it runs to the limit: keep the limit short, and check that
  // the result is loudly marked unproven with a positive gap.
  opts.optimizer.bip.time_limit_seconds = 2;
  Advisor advisor(opts);
  auto rec = advisor.Recommend(*rw->workload);
  ASSERT_TRUE(rec.ok()) << rec.status();
  EXPECT_FALSE(rec->solve_proven);
  EXPECT_GT(rec->anytime_gap, 0.0);
  EXPECT_GT(rec->schema.size(), 0u);
  EXPECT_GT(rec->objective, 0.0);
  EXPECT_LT(rec->timing.total_seconds, 60.0);
}

}  // namespace
}  // namespace nose

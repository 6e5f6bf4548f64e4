// Additional solver behaviors: warm starts, budgets, deadlines, gaps, and
// the dense-vs-factorized-vs-brute-force equivalence property.

#include <gtest/gtest.h>

#include "solver/bip.h"
#include "solver/lp.h"
#include "tests/reference_evaluator.h"
#include "util/rng.h"

namespace nose {
namespace {

TEST(BipWarmStartTest, WarmStartBecomesIncumbent) {
  // min -(a + b) s.t. a + b <= 1: optimum -1. Warm start (0,0) has value 0;
  // the solver must still find the true optimum.
  LpProblem lp;
  int a = lp.AddVariable(0.0, 1.0, -1.0);
  int b = lp.AddVariable(0.0, 1.0, -1.0);
  lp.AddRow(RowType::kLe, 1.0, {{a, 1.0}, {b, 1.0}});
  std::vector<double> warm = {0.0, 0.0};
  BipOptions options;
  options.warm_start = &warm;
  BipResult r = SolveBip(lp, {a, b}, options);
  ASSERT_EQ(r.status, BipStatus::kOptimal);
  EXPECT_NEAR(r.objective, -1.0, 1e-6);
}

TEST(BipWarmStartTest, ZeroNodeBudgetReturnsWarmStart) {
  LpProblem lp;
  int a = lp.AddVariable(0.0, 1.0, -1.0);
  std::vector<double> warm = {0.0};
  BipOptions options;
  options.warm_start = &warm;
  options.max_nodes = 0;
  BipResult r = SolveBip(lp, {a}, options);
  // Budget exhausted before any node: the warm start survives as the
  // (unproven) answer.
  EXPECT_EQ(r.status, BipStatus::kNodeLimit);
  EXPECT_NEAR(r.objective, 0.0, 1e-9);
}

TEST(BipWarmStartTest, NoSolutionWithoutWarmStartAndZeroBudget) {
  LpProblem lp;
  int a = lp.AddVariable(0.0, 1.0, -1.0);
  BipOptions options;
  options.max_nodes = 0;
  BipResult r = SolveBip(lp, {a}, options);
  EXPECT_EQ(r.status, BipStatus::kNoSolution);
}

TEST(LpDeadlineTest, DeadlineReturnsIterationLimit) {
  // A large random LP with an absurdly small deadline must abort cleanly.
  Rng rng(3);
  LpProblem lp;
  const int n = 400;
  for (int v = 0; v < n; ++v) {
    lp.AddVariable(0.0, 1.0, static_cast<double>(rng.UniformRange(-9, 9)));
  }
  for (int r = 0; r < 300; ++r) {
    std::vector<std::pair<int, double>> coeffs;
    for (int k = 0; k < 6; ++k) {
      coeffs.emplace_back(static_cast<int>(rng.Uniform(n)),
                          static_cast<double>(rng.UniformRange(1, 5)));
    }
    lp.AddRow(RowType::kGe, 2.0, std::move(coeffs));
  }
  LpResult r = lp.Solve({}, /*max_iterations=*/0, /*deadline_seconds=*/1e-9);
  EXPECT_EQ(r.status, LpStatus::kIterationLimit);
}

TEST(BipGapTest, LooseGapAcceptsNearOptimal) {
  // Two alternatives with a 0.5% cost difference: a 1% relative gap may
  // stop at either; the result must be within the gap of the optimum.
  LpProblem lp;
  int a = lp.AddVariable(0.0, 1.0, 100.0);
  int b = lp.AddVariable(0.0, 1.0, 100.5);
  lp.AddRow(RowType::kEq, 1.0, {{a, 1.0}, {b, 1.0}});
  BipOptions options;
  options.relative_gap = 0.01;
  BipResult r = SolveBip(lp, {a, b}, options);
  ASSERT_EQ(r.status, BipStatus::kOptimal);
  EXPECT_LE(r.objective, 100.0 * 1.01);
}

TEST(BipGapTest, TightGapFindsExactOptimum) {
  LpProblem lp;
  int a = lp.AddVariable(0.0, 1.0, 100.0);
  int b = lp.AddVariable(0.0, 1.0, 100.5);
  lp.AddRow(RowType::kEq, 1.0, {{a, 1.0}, {b, 1.0}});
  BipOptions options;
  options.relative_gap = 0.0;
  BipResult r = SolveBip(lp, {a, b}, options);
  ASSERT_EQ(r.status, BipStatus::kOptimal);
  EXPECT_NEAR(r.objective, 100.0, 1e-6);
  EXPECT_NEAR(r.x[a], 1.0, 1e-6);
}

TEST(SimplexStressTest, ManyDegenerateFlowRows) {
  // Chains of equality flow constraints (the schema optimizer's structure)
  // with ties everywhere — exercises devex pricing + Bland fallback.
  LpProblem lp;
  const int kChains = 40;
  const int kWidth = 4;
  std::vector<int> prev;
  for (int c = 0; c < kChains; ++c) {
    std::vector<int> layer;
    for (int w = 0; w < kWidth; ++w) {
      layer.push_back(lp.AddVariable(0.0, 1.0, 1.0));  // equal costs: ties
    }
    std::vector<std::pair<int, double>> row;
    for (int v : layer) row.emplace_back(v, 1.0);
    if (prev.empty()) {
      lp.AddRow(RowType::kEq, 1.0, std::move(row));
    } else {
      for (int v : prev) row.emplace_back(v, -1.0);
      lp.AddRow(RowType::kEq, 0.0, std::move(row));
    }
    prev = std::move(layer);
  }
  LpResult r = lp.Solve();
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, static_cast<double>(kChains), 1e-5);
}

// ===========================================================================
// Property: on random all-binary instances with integer costs, branch and
// bound over either simplex engine lands on exactly the brute-force
// optimum. Integer costs over a 0/1 assignment sum exactly (both the
// incumbent recompute and the reference accumulate in variable-index
// order), so the comparison is bitwise — any drop-tolerance drift or
// premature optimality claim in a simplex core turns into a hard failure
// here, not a tolerance blur.
// ===========================================================================

LpProblem MakeRandomBinaryProgram(Rng* rng) {
  LpProblem lp;
  const int n = 6 + static_cast<int>(rng->Uniform(7));  // 6..12 binaries
  for (int v = 0; v < n; ++v) {
    lp.AddVariable(0.0, 1.0, static_cast<double>(rng->UniformRange(-10, 20)));
  }
  const int rows = 3 + static_cast<int>(rng->Uniform(6));
  for (int r = 0; r < rows; ++r) {
    std::vector<std::pair<int, double>> coeffs;
    for (int v = 0; v < n; ++v) {
      if (rng->Chance(0.3)) {
        double c = static_cast<double>(rng->UniformRange(-3, 3));
        if (c == 0.0) c = 1.0;
        coeffs.emplace_back(v, c);
      }
    }
    if (coeffs.empty()) coeffs.emplace_back(0, 1.0);
    // Mostly ≤ rows with generous right-hand sides so a healthy majority
    // of instances stay feasible; the occasional = / ≥ row with a tight
    // rhs still produces infeasible instances, a welcome outcome — both
    // engines must agree on kInfeasible too.
    const double pick = rng->NextDouble();
    RowType type = RowType::kLe;
    double rhs = static_cast<double>(rng->UniformRange(0, 6));
    if (pick > 0.85) {
      type = RowType::kEq;
      rhs = static_cast<double>(rng->UniformRange(-1, 2));
    } else if (pick > 0.6) {
      type = RowType::kGe;
      rhs = static_cast<double>(rng->UniformRange(-4, 2));
    }
    lp.AddRow(type, rhs, std::move(coeffs));
  }
  return lp;
}

TEST(EnginePropertyTest, MatchesBruteForceOnBothEngines) {
  int feasible_seen = 0;
  int infeasible_seen = 0;
  for (int seed = 0; seed < 60; ++seed) {
    Rng rng(static_cast<uint64_t>(seed) * 104729 + 7);
    LpProblem lp = MakeRandomBinaryProgram(&rng);
    std::vector<int> binaries(static_cast<size_t>(lp.num_variables()));
    for (int v = 0; v < lp.num_variables(); ++v) {
      binaries[static_cast<size_t>(v)] = v;
    }
    const ReferenceBipResult ref = ReferenceBipMinimize(lp);
    ref.feasible ? ++feasible_seen : ++infeasible_seen;

    double engine_objective[2] = {0.0, 0.0};
    for (LpEngine engine : {LpEngine::kDense, LpEngine::kFactorized}) {
      BipOptions options;
      options.absolute_gap = 0.0;
      options.relative_gap = 0.0;
      options.lp_engine = engine;
      const BipResult got = SolveBip(lp, binaries, options);
      if (ref.feasible) {
        ASSERT_EQ(got.status, BipStatus::kOptimal)
            << "seed " << seed << " engine " << LpEngineName(engine);
        EXPECT_EQ(got.objective, ref.objective)
            << "seed " << seed << " engine " << LpEngineName(engine);
      } else {
        EXPECT_EQ(got.status, BipStatus::kInfeasible)
            << "seed " << seed << " engine " << LpEngineName(engine);
      }
      engine_objective[engine == LpEngine::kFactorized] = got.objective;
    }
    EXPECT_EQ(engine_objective[0], engine_objective[1]) << "seed " << seed;
  }
  // The generator must exercise both outcomes or the property is vacuous.
  EXPECT_GT(feasible_seen, 10);
  EXPECT_GT(infeasible_seen, 5);
}

}  // namespace
}  // namespace nose

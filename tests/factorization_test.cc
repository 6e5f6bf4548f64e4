#include "solver/factorization.h"

#include <cmath>
#include <cstdlib>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/certify.h"
#include "solver/bip.h"
#include "solver/certificate.h"
#include "solver/lp.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace nose {
namespace {

/// Dense Gaussian elimination with partial pivoting: the slow, obviously
/// correct reference the sparse LU is checked against. `a` is row-major.
bool DenseSolve(std::vector<std::vector<double>> a, std::vector<double> b,
                std::vector<double>* x) {
  const int m = static_cast<int>(b.size());
  for (int k = 0; k < m; ++k) {
    int piv = k;
    for (int r = k + 1; r < m; ++r) {
      if (std::fabs(a[static_cast<size_t>(r)][static_cast<size_t>(k)]) >
          std::fabs(a[static_cast<size_t>(piv)][static_cast<size_t>(k)])) {
        piv = r;
      }
    }
    if (std::fabs(a[static_cast<size_t>(piv)][static_cast<size_t>(k)]) <
        1e-12) {
      return false;
    }
    std::swap(a[static_cast<size_t>(k)], a[static_cast<size_t>(piv)]);
    std::swap(b[static_cast<size_t>(k)], b[static_cast<size_t>(piv)]);
    for (int r = k + 1; r < m; ++r) {
      const double f = a[static_cast<size_t>(r)][static_cast<size_t>(k)] /
                       a[static_cast<size_t>(k)][static_cast<size_t>(k)];
      if (f == 0.0) continue;
      for (int c = k; c < m; ++c) {
        a[static_cast<size_t>(r)][static_cast<size_t>(c)] -=
            f * a[static_cast<size_t>(k)][static_cast<size_t>(c)];
      }
      b[static_cast<size_t>(r)] -= f * b[static_cast<size_t>(k)];
    }
  }
  x->assign(static_cast<size_t>(m), 0.0);
  for (int k = m - 1; k >= 0; --k) {
    double s = b[static_cast<size_t>(k)];
    for (int c = k + 1; c < m; ++c) {
      s -= a[static_cast<size_t>(k)][static_cast<size_t>(c)] *
           (*x)[static_cast<size_t>(c)];
    }
    (*x)[static_cast<size_t>(k)] =
        s / a[static_cast<size_t>(k)][static_cast<size_t>(k)];
  }
  return true;
}

/// Random column-diagonally-dominant sparse columns: never singular, with
/// enough off-diagonal structure to exercise Markowitz pivoting and fill.
std::vector<SparseColumn> RandomDominantColumns(Rng* rng, int m) {
  std::vector<SparseColumn> cols(static_cast<size_t>(m));
  for (int k = 0; k < m; ++k) {
    double off = 0.0;
    for (int r = 0; r < m; ++r) {
      if (r == k || !rng->Chance(0.3)) continue;
      double v = 2.0 * rng->NextDouble() - 1.0;
      if (v == 0.0) v = 0.5;
      cols[static_cast<size_t>(k)].rows.push_back(r);
      cols[static_cast<size_t>(k)].vals.push_back(v);
      off += std::fabs(v);
    }
    cols[static_cast<size_t>(k)].rows.push_back(k);
    cols[static_cast<size_t>(k)].vals.push_back(off + 1.0 + rng->NextDouble());
  }
  return cols;
}

std::vector<std::vector<double>> Densify(const std::vector<SparseColumn>& cols,
                                         int m) {
  std::vector<std::vector<double>> a(
      static_cast<size_t>(m), std::vector<double>(static_cast<size_t>(m), 0.0));
  for (int k = 0; k < m; ++k) {
    const SparseColumn& col = cols[static_cast<size_t>(k)];
    for (size_t e = 0; e < col.rows.size(); ++e) {
      a[static_cast<size_t>(col.rows[e])][static_cast<size_t>(k)] = col.vals[e];
    }
  }
  return a;
}

std::vector<const SparseColumn*> Pointers(
    const std::vector<SparseColumn>& cols) {
  std::vector<const SparseColumn*> ptrs;
  ptrs.reserve(cols.size());
  for (const SparseColumn& c : cols) ptrs.push_back(&c);
  return ptrs;
}

TEST(FactorizationTest, FtranAndBtranMatchDenseSolve) {
  for (int seed = 0; seed < 20; ++seed) {
    Rng rng(static_cast<uint64_t>(seed) * 2654435761ull + 17);
    const int m = 3 + static_cast<int>(rng.Uniform(25));
    std::vector<SparseColumn> cols = RandomDominantColumns(&rng, m);
    BasisFactorization fact;
    ASSERT_TRUE(fact.Factorize(m, Pointers(cols))) << "seed " << seed;
    EXPECT_TRUE(fact.factorized());
    EXPECT_EQ(fact.dim(), m);
    EXPECT_GE(fact.lu_entries(), static_cast<uint64_t>(m));

    const std::vector<std::vector<double>> dense = Densify(cols, m);
    std::vector<double> b(static_cast<size_t>(m));
    for (double& v : b) v = 2.0 * rng.NextDouble() - 1.0;

    // FTRAN solves B x = b; the reference solves the same dense system.
    std::vector<double> x = b;
    fact.Ftran(&x);
    std::vector<double> x_ref;
    ASSERT_TRUE(DenseSolve(dense, b, &x_ref));
    for (int k = 0; k < m; ++k) {
      EXPECT_NEAR(x[static_cast<size_t>(k)], x_ref[static_cast<size_t>(k)],
                  1e-8)
          << "seed " << seed << " slot " << k;
    }

    // BTRAN solves Bᵀ y = c: reference solves against the transpose.
    std::vector<double> c(static_cast<size_t>(m));
    for (double& v : c) v = 2.0 * rng.NextDouble() - 1.0;
    std::vector<double> y = c;
    fact.Btran(&y);
    std::vector<std::vector<double>> dense_t(
        static_cast<size_t>(m),
        std::vector<double>(static_cast<size_t>(m), 0.0));
    for (int r = 0; r < m; ++r) {
      for (int k = 0; k < m; ++k) {
        dense_t[static_cast<size_t>(k)][static_cast<size_t>(r)] =
            dense[static_cast<size_t>(r)][static_cast<size_t>(k)];
      }
    }
    std::vector<double> y_ref;
    ASSERT_TRUE(DenseSolve(dense_t, c, &y_ref));
    for (int r = 0; r < m; ++r) {
      EXPECT_NEAR(y[static_cast<size_t>(r)], y_ref[static_cast<size_t>(r)],
                  1e-8)
          << "seed " << seed << " row " << r;
    }
  }
}

TEST(FactorizationTest, ProductFormUpdatesTrackReplacedColumns) {
  for (int seed = 0; seed < 8; ++seed) {
    Rng rng(static_cast<uint64_t>(seed) * 6364136223846793005ull + 29);
    const int m = 8 + static_cast<int>(rng.Uniform(10));
    std::vector<SparseColumn> cols = RandomDominantColumns(&rng, m);
    BasisFactorization fact;
    ASSERT_TRUE(fact.Factorize(m, Pointers(cols)));
    std::vector<std::vector<double>> dense = Densify(cols, m);

    int applied = 0;
    for (int t = 0; t < 10; ++t) {
      const int s = static_cast<int>(rng.Uniform(static_cast<uint64_t>(m)));
      const int o = (s + 1 + static_cast<int>(rng.Uniform(
                                 static_cast<uint64_t>(m - 1)))) %
                    m;
      // Replacement column: a well-pivoted mix of two current columns, so
      // its FTRAN image is 2·e_s + 0.25·e_o and the eta pivot is 2.
      std::vector<double> replacement(static_cast<size_t>(m));
      for (int r = 0; r < m; ++r) {
        replacement[static_cast<size_t>(r)] =
            2.0 * dense[static_cast<size_t>(r)][static_cast<size_t>(s)] +
            0.25 * dense[static_cast<size_t>(r)][static_cast<size_t>(o)];
      }
      std::vector<double> image = replacement;
      fact.Ftran(&image);
      if (!fact.Update(s, image)) continue;
      ++applied;
      for (int r = 0; r < m; ++r) {
        dense[static_cast<size_t>(r)][static_cast<size_t>(s)] =
            replacement[static_cast<size_t>(r)];
      }
    }
    ASSERT_GT(applied, 0) << "seed " << seed;
    EXPECT_EQ(fact.num_updates(), applied);
    EXPECT_GT(fact.eta_entries(), 0u);

    std::vector<double> b(static_cast<size_t>(m));
    for (double& v : b) v = 2.0 * rng.NextDouble() - 1.0;
    std::vector<double> x = b;
    fact.Ftran(&x);
    std::vector<double> x_ref;
    ASSERT_TRUE(DenseSolve(dense, b, &x_ref));
    for (int k = 0; k < m; ++k) {
      EXPECT_NEAR(x[static_cast<size_t>(k)], x_ref[static_cast<size_t>(k)],
                  1e-7)
          << "seed " << seed << " slot " << k;
    }
  }
}

TEST(FactorizationTest, RefusesUpdateWithTinyPivot) {
  // Replacing slot 0 with (a copy of) slot 1's column makes the basis
  // singular: the FTRAN image is e_1, whose slot-0 pivot is 0. Update must
  // refuse and leave the factorization untouched.
  const int m = 4;
  std::vector<SparseColumn> cols(static_cast<size_t>(m));
  for (int k = 0; k < m; ++k) {
    cols[static_cast<size_t>(k)].rows = {k};
    cols[static_cast<size_t>(k)].vals = {1.0 + 0.5 * k};
  }
  BasisFactorization fact;
  ASSERT_TRUE(fact.Factorize(m, Pointers(cols)));

  std::vector<double> image(static_cast<size_t>(m), 0.0);
  image[1] = 1.0;  // e_1: zero pivot at slot 0
  EXPECT_FALSE(fact.Update(0, image));
  EXPECT_EQ(fact.num_updates(), 0);

  // The old system still solves exactly: diag(1, 1.5, 2, 2.5).
  std::vector<double> b = {1.0, 3.0, 4.0, 5.0};
  fact.Ftran(&b);
  EXPECT_NEAR(b[0], 1.0, 1e-12);
  EXPECT_NEAR(b[1], 2.0, 1e-12);
  EXPECT_NEAR(b[2], 2.0, 1e-12);
  EXPECT_NEAR(b[3], 2.0, 1e-12);
}

TEST(FactorizationTest, SignalsRefactorizationAfterManyUpdates) {
  const int m = 5;
  std::vector<SparseColumn> cols(static_cast<size_t>(m));
  for (int k = 0; k < m; ++k) {
    cols[static_cast<size_t>(k)].rows = {k};
    cols[static_cast<size_t>(k)].vals = {1.0};
  }
  BasisFactorization fact;
  ASSERT_TRUE(fact.Factorize(m, Pointers(cols)));

  std::vector<double> image(static_cast<size_t>(m), 0.0);
  image[0] = 1.0;  // re-enter the same column: pivot 1, always stable
  for (int t = 0; t < 64; ++t) {
    EXPECT_FALSE(fact.NeedsRefactorization()) << "update " << t;
    ASSERT_TRUE(fact.Update(0, image));
  }
  EXPECT_TRUE(fact.NeedsRefactorization());
  EXPECT_EQ(fact.num_updates(), 64);
}

TEST(FactorizationTest, RejectsSingularBasis) {
  // Two identical columns.
  std::vector<SparseColumn> cols(3);
  cols[0].rows = {0, 1};
  cols[0].vals = {1.0, 2.0};
  cols[1].rows = {0, 1};
  cols[1].vals = {1.0, 2.0};
  cols[2].rows = {2};
  cols[2].vals = {1.0};
  BasisFactorization fact;
  EXPECT_FALSE(fact.Factorize(3, Pointers(cols)));
  EXPECT_FALSE(fact.factorized());

  // A structurally empty column.
  std::vector<SparseColumn> with_zero(2);
  with_zero[0].rows = {0};
  with_zero[0].vals = {1.0};
  BasisFactorization fact2;
  EXPECT_FALSE(fact2.Factorize(2, Pointers(with_zero)));
  EXPECT_FALSE(fact2.factorized());
}

/// Random weighted set-cover instances shared by the parity tests below:
/// cover rows, an always-satisfiable capacity row, and singleton forcings.
LpProblem MakeRandomCover(Rng* rng, std::vector<int>* binaries) {
  LpProblem lp;
  const int num_sets = 6 + static_cast<int>(rng->Uniform(8));
  const int num_items = 4 + static_cast<int>(rng->Uniform(6));
  for (int s = 0; s < num_sets; ++s) {
    const int v =
        lp.AddVariable(0.0, 1.0, 1.0 + static_cast<double>(rng->Uniform(9)));
    if (binaries != nullptr) binaries->push_back(v);
  }
  for (int i = 0; i < num_items; ++i) {
    std::vector<std::pair<int, double>> coeffs;
    for (int s = 0; s < num_sets; ++s) {
      if (rng->Chance(0.4)) coeffs.emplace_back(s, 1.0);
    }
    if (coeffs.empty()) {
      coeffs.emplace_back(static_cast<int>(rng->Uniform(
                              static_cast<uint64_t>(num_sets))),
                          1.0);
    }
    lp.AddRow(RowType::kGe, 1.0, coeffs);
  }
  // All-ones capacity at num_sets: satisfied even by the all-selected point,
  // so the instance stays feasible while the ≤ machinery gets exercised.
  std::vector<std::pair<int, double>> cap;
  for (int s = 0; s < num_sets; ++s) cap.emplace_back(s, 1.0);
  lp.AddRow(RowType::kLe, static_cast<double>(num_sets), cap);
  for (int s = 0; s < num_sets; ++s) {
    if (rng->Chance(0.1)) lp.AddRow(RowType::kGe, 1.0, {{s, 1.0}});
  }
  return lp;
}

TEST(EngineParityTest, RandomLpOptimaAgreeAcrossBothEngines) {
  for (int seed = 0; seed < 40; ++seed) {
    Rng rng(static_cast<uint64_t>(seed) * 9176 + 7);
    LpProblem lp = MakeRandomCover(&rng, nullptr);

    const LpResult dense = lp.Solve({}, 0, 0.0, LpEngine::kDense);
    const LpResult fact = lp.Solve({}, 0, 0.0, LpEngine::kFactorized);
    ASSERT_EQ(fact.status, dense.status) << "seed " << seed;
    if (fact.status != LpStatus::kOptimal) continue;
    const double scale = 1.0 + std::fabs(dense.objective);
    EXPECT_NEAR(fact.objective, dense.objective, 1e-7 * scale)
        << "seed " << seed;
  }
}

TEST(EngineParityTest, CertificateDualsVerifyUnderEveryEngine) {
  // The duals harvested for `nose check` certificates come from whichever
  // engine the BIP ran: the exact-arithmetic checker must verify both, and
  // their optima must agree.
  for (int seed = 0; seed < 12; ++seed) {
    Rng rng(static_cast<uint64_t>(seed) * 50021 + 13);
    std::vector<int> binaries;
    LpProblem lp = MakeRandomCover(&rng, &binaries);

    double reference = 0.0;
    bool have_reference = false;
    for (const LpEngine engine : {LpEngine::kDense, LpEngine::kFactorized}) {
      SolveCertificate cert;
      BipOptions options;
      options.relative_gap = 0.0;
      options.lp_engine = engine;
      options.capture_certificate = &cert;
      const BipResult result = SolveBip(lp, binaries, options);
      ASSERT_EQ(result.status, BipStatus::kOptimal) << "seed " << seed;

      const CertificateReport report = CheckCertificate(cert);
      EXPECT_TRUE(report.verified)
          << "seed " << seed << " engine " << static_cast<int>(engine);
      EXPECT_TRUE(cert.root_available) << "seed " << seed;
      EXPECT_TRUE(report.bound_available) << "seed " << seed;
      EXPECT_GE(report.certified_gap, -1e-9) << "seed " << seed;

      if (!have_reference) {
        reference = result.objective;
        have_reference = true;
      } else {
        EXPECT_NEAR(result.objective, reference, 1e-6) << "seed " << seed;
      }
    }
  }
}

TEST(BipDeterminismTest, ResultsBitwiseIdenticalAcrossThreadCounts) {
  for (int seed = 0; seed < 10; ++seed) {
    Rng rng(static_cast<uint64_t>(seed) * 78901 + 5);
    std::vector<int> binaries;
    LpProblem lp = MakeRandomCover(&rng, &binaries);

    BipOptions options;
    options.relative_gap = 0.0;
    const BipResult serial = SolveBip(lp, binaries, options);

    for (const size_t nthreads : {size_t{1}, size_t{2}, size_t{8}}) {
      util::ThreadPool pool(nthreads);
      BipOptions pooled = options;
      pooled.threads = &pool;
      const BipResult parallel = SolveBip(lp, binaries, pooled);
      ASSERT_EQ(parallel.status, serial.status)
          << "seed " << seed << " threads " << nthreads;
      // Bitwise: the batch-selection rule fixes the trajectory, so every
      // statistic — not just the objective — must be thread-count
      // invariant.
      EXPECT_EQ(parallel.objective, serial.objective)
          << "seed " << seed << " threads " << nthreads;
      EXPECT_EQ(parallel.nodes_explored, serial.nodes_explored)
          << "seed " << seed << " threads " << nthreads;
      EXPECT_EQ(parallel.lp_iterations, serial.lp_iterations)
          << "seed " << seed << " threads " << nthreads;
      ASSERT_EQ(parallel.x.size(), serial.x.size());
      for (size_t v = 0; v < serial.x.size(); ++v) {
        EXPECT_EQ(parallel.x[v], serial.x[v])
            << "seed " << seed << " threads " << nthreads << " var " << v;
      }
    }
  }
}

}  // namespace
}  // namespace nose

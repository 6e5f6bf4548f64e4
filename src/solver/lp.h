#ifndef NOSE_SOLVER_LP_H_
#define NOSE_SOLVER_LP_H_

#include <limits>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

namespace nose {

/// Sense of a linear constraint row.
enum class RowType { kLe, kGe, kEq };

/// Termination status of an LP solve.
enum class LpStatus { kOptimal, kInfeasible, kUnbounded, kIterationLimit };

const char* LpStatusName(LpStatus status);

/// Which simplex core executes a solve. kFactorized is the production
/// engine: an LU-factorized revised simplex (Markowitz-pivoted sparse LU
/// of the basis with product-form updates and periodic refactorization —
/// see solver/factorization.h) that prices directly from the original
/// columns, so its fill tracks nnz(basis) instead of the tableau's B⁻¹A.
/// kDense is the original full-tableau implementation, kept as an
/// independent oracle for small instances: tests and `solver_micro --json`
/// check the factorized optima against it, and at scale the exact
/// certificate checker (analysis/certify.h) takes its place.
enum class LpEngine { kDense, kFactorized };

const char* LpEngineName(LpEngine engine);

struct LpResult {
  LpStatus status = LpStatus::kIterationLimit;
  double objective = 0.0;
  std::vector<double> x;  ///< variable values at the optimum (if kOptimal)
  int iterations = 0;
  bool hot_started = false;  ///< true if a starting basis was loaded
  /// Dual value per original constraint row, filled only when the caller
  /// asked for duals (Solve's `duals` out-parameter) and the solve ended
  /// kOptimal. The factorized engine recovers duals with one BTRAN against
  /// the optimal basis, hot-started or not; the dense tableau reads them
  /// off reduced costs of identity columns (it always starts cold). Sign
  /// convention: y_i ≥ 0 certifies a binding ≥
  /// row, y_i ≤ 0 a binding ≤ row, free for =. The values are
  /// floating-point candidates — the certificate checker (analysis/
  /// certify.h) re-derives an exact safe bound from them rather than
  /// trusting their feasibility.
  std::vector<double> duals;
};

/// A simplex basis snapshot: one status per column (structural variables
/// first, then one slack per inequality row in row order). 0 = at lower
/// bound, 1 = at upper bound, 2 = basic. Captured from an optimal solve and
/// fed back to a later solve of a problem with the SAME rows (only costs
/// and bounds may differ) to skip phase 1 entirely. A basis that does not
/// fit — wrong size, wrong basic count, singular, or primal infeasible
/// under the new bounds — is rejected and the solve falls back to the cold
/// crash start, so stale bases cost a failed load, never a wrong answer.
/// The factorized engine goes one step further before giving up on a
/// primal-infeasible load: branch-and-bound children differ from their
/// parent only in bounds, which keeps the parent basis dual feasible, so a
/// short bounded-variable dual-simplex run drives the violated basics back
/// inside their bounds in a handful of pivots. Only the factorized engine
/// loads or exports bases; the dense tableau always starts cold.
struct LpBasis {
  std::vector<uint8_t> status;

  bool empty() const { return status.empty(); }
  void clear() { status.clear(); }
};

/// One constraint row in CSR style: parallel index/value arrays with
/// strictly increasing indices. The schema optimizer's BIPs are >95%
/// structural zeros, so rows never materialize dense coefficient vectors.
struct LpRow {
  RowType type = RowType::kEq;
  double rhs = 0.0;
  std::vector<int> indices;
  std::vector<double> values;
};

/// Sorts and merges naive (variable, coefficient) terms into an LpRow.
/// Duplicate variable entries are summed; exact-zero sums are kept (the
/// caller asked for the variable to appear in the row).
LpRow MakeLpRow(RowType type, double rhs,
                std::vector<std::pair<int, double>> coeffs);

class LpProblem;

/// Rows staged outside an LpProblem — e.g. built per plan space on worker
/// threads — and appended later with LpProblem::AppendRows() in a
/// deterministic order. The sort/merge work of AddRow happens here, off
/// the critical serial path.
class LpRowBuffer {
 public:
  /// Equivalent to LpProblem::AddRow, staged.
  void Add(RowType type, double rhs,
           std::vector<std::pair<int, double>> coeffs);

  size_t size() const { return rows_.size(); }
  size_t num_nonzeros() const { return num_nonzeros_; }

 private:
  friend class LpProblem;
  std::vector<LpRow> rows_;
  size_t num_nonzeros_ = 0;
};

/// A linear program: minimize cᵀx subject to row constraints and variable
/// bounds l ≤ x ≤ u. Build incrementally, then Solve(). The default solver
/// is an LU-factorized two-phase revised primal simplex with bounded
/// variables (nonbasic variables rest at either bound; bound flips are
/// handled without pivots): the basis inverse is held as a Markowitz
/// sparse LU plus product-form updates, the entering column and pivot row
/// come from FTRAN/BTRAN against the factors, pricing runs on
/// incrementally maintained dense reduced costs, and a slack crash basis
/// skips phase-1 work for every inequality row that starts feasible.
/// Designed for the sparse flow-structured instances NoSE's schema
/// optimizer emits; replaces the paper's use of Gurobi.
class LpProblem {
 public:
  static constexpr double kInfinity = std::numeric_limits<double>::infinity();

  /// Adds a variable with bounds [lb, ub] and objective coefficient `cost`.
  /// Returns its index.
  int AddVariable(double lb, double ub, double cost);

  /// Adds a constraint  Σ coeff·x  (≤ | ≥ | =)  rhs. Duplicate variable
  /// entries in `coeffs` are summed.
  void AddRow(RowType type, double rhs,
              std::vector<std::pair<int, double>> coeffs);

  /// Appends pre-staged rows in buffer order. Every referenced variable
  /// must already exist.
  void AppendRows(LpRowBuffer&& buffer);

  int num_variables() const { return static_cast<int>(cost_.size()); }
  int num_rows() const { return static_cast<int>(rows_.size()); }
  /// Read access to a constraint row (introspection: reference solvers,
  /// lint, benchmarks).
  const LpRow& row(int i) const { return rows_[static_cast<size_t>(i)]; }
  /// Structural nonzero count across all rows (after duplicate merging) —
  /// the BIP density statistic the optimizer reports.
  size_t num_nonzeros() const { return num_nonzeros_; }

  double cost(int var) const { return cost_[static_cast<size_t>(var)]; }
  double lower_bound(int var) const { return lb_[static_cast<size_t>(var)]; }
  double upper_bound(int var) const { return ub_[static_cast<size_t>(var)]; }
  void SetBounds(int var, double lb, double ub);
  void SetCost(int var, double cost);

  /// Solves the LP. `bound_overrides` optionally tightens per-variable
  /// bounds for this solve only (used by branch-and-bound nodes);
  /// entries are (var, lb, ub). `deadline_seconds` (0 = none) aborts an
  /// overlong solve with kIterationLimit so callers stay responsive.
  /// `engine` selects the simplex core; both return the same optima to
  /// the solver tolerances (they follow different floating-point paths).
  /// kFactorized is the default and the fastest on the optimizer's
  /// instances, widening with workload size; kDense is the small-instance
  /// oracle (solver_micro --json checks the pair and gates CI on
  /// agreement).
  ///
  /// `start_basis` (factorized engine) hot-starts the solve from a basis
  /// captured by an earlier solve of the same constraint rows; on a
  /// successful load phase 1 is skipped and bound-change infeasibility is
  /// repaired with dual simplex pivots. `final_basis` (factorized engine)
  /// receives the optimal basis of this solve, or is cleared when none is
  /// available (non-optimal exit, artificial still basic, or the dense
  /// engine).
  ///
  /// `duals`, when non-null, receives one multiplier per constraint row at
  /// the optimum (see LpResult::duals); cleared when the solve was not
  /// cleanly optimal.
  LpResult Solve(
      const std::vector<std::tuple<int, double, double>>& bound_overrides = {},
      int max_iterations = 0, double deadline_seconds = 0.0,
      LpEngine engine = LpEngine::kFactorized,
      const LpBasis* start_basis = nullptr,
      LpBasis* final_basis = nullptr,
      std::vector<double>* duals = nullptr) const;

 private:
  std::vector<double> cost_;
  std::vector<double> lb_;
  std::vector<double> ub_;
  std::vector<LpRow> rows_;
  size_t num_nonzeros_ = 0;
};

}  // namespace nose

#endif  // NOSE_SOLVER_LP_H_

// Correctness checks of the benchmark. Each one compares a result of the
// program with a computation made apart from the code under test (exact
// certificate arithmetic, a certified reference solve, brute-force query
// evaluation) or with a property the method must have (thread-count
// invariant store contents). They are pure functions so that the self-test
// can feed them corrupted results and see them fail.

#ifndef NOSE_PERFBENCH_CHECKS_H_
#define NOSE_PERFBENCH_CHECKS_H_

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "advisor/advisor.h"
#include "analysis/certify.h"
#include "analysis/invariants.h"
#include "solver/certificate.h"
#include "tests/reference_evaluator.h"

namespace nose::perfbench {

/// Relative slack when two floating-point objectives of one schema are
/// compared: summation order differs between the solver and the checks.
inline constexpr double kObjectiveTolerance = 1e-9;

inline bool SameObjective(double a, double b) {
  return std::abs(a - b) <= kObjectiveTolerance * std::max(1.0, std::abs(b));
}

/// A recommendation is usable when the solve was proven and the
/// recommendation passes the workload invariant audit.
inline bool CheckRecommendation(const Workload& workload,
                                const std::string& mix,
                                const Recommendation& rec, std::string* why) {
  if (!rec.solve_proven) {
    *why = "solve not proven (gap " + std::to_string(rec.anytime_gap) + ")";
    return false;
  }
  RecommendationView view{&rec.schema, &rec.query_plans, &rec.update_plans,
                          rec.objective, rec.solve_proven};
  const std::vector<Diagnostic> diags =
      AuditRecommendation(workload, mix, view);
  if (HasErrors(diags)) {
    *why = "invariant audit: " + FormatDiagnostics(diags);
    return false;
  }
  return true;
}

/// A BIP solve is certified when the exact-arithmetic checker verifies its
/// certificate and the objective it recomputes equals the reported one.
inline bool CheckBipCertificate(const SolveCertificate& cert,
                                double reported_objective, std::string* why) {
  const CertificateReport report = CheckCertificate(cert);
  if (!report.verified) {
    *why = "certificate rejected: " + FormatDiagnostics(report.diagnostics);
    return false;
  }
  if (!SameObjective(report.exact_objective, reported_objective)) {
    *why = "exact objective " + std::to_string(report.exact_objective) +
           " != reported " + std::to_string(reported_objective);
    return false;
  }
  return true;
}

/// Relative tolerance of CheckCombinatorialObjective. Both strategies prune
/// at the same relative gap g of their own incumbent (BipOptions, which the
/// optimizer hands to the combinatorial search too), with no absolute
/// floor: each objective x satisfies x - optimum <= g * x. So the reference
/// r is at most g * r above the combinatorial objective c, and c at most
/// g * c <= g / (1 - g) * r above r.
inline double CombinatorialTolerance() {
  const double gap = BipOptions().relative_gap;
  return gap / (1.0 - gap);
}

/// A combinatorial solve must reach the objective of the certified BIP
/// reference solve of the same instance, within CombinatorialTolerance().
inline bool CheckCombinatorialObjective(double objective, double reference,
                                        std::string* why) {
  const double tolerance = CombinatorialTolerance() * std::abs(reference);
  if (!(std::abs(objective - reference) <= tolerance)) {
    *why = "combinatorial objective " + std::to_string(objective) +
           " != certified reference " + std::to_string(reference);
    return false;
  }
  return true;
}

/// Executed rows must equal the brute-force rows as sets.
inline bool CheckRows(const std::vector<ValueTuple>& executed,
                      const std::vector<ValueTuple>& reference,
                      std::string* why) {
  if (CanonicalRows(executed) != CanonicalRows(reference)) {
    *why = std::to_string(executed.size()) + " rows executed, " +
           std::to_string(reference.size()) + " by brute force, contents differ";
    return false;
  }
  return true;
}

/// Fixed logical streams make the final store contents independent of the
/// driver-thread count.
inline bool CheckDigest(uint64_t one_thread, uint64_t many_threads,
                        std::string* why) {
  if (one_thread != many_threads) {
    *why = "store digest differs between thread counts: " +
           std::to_string(one_thread) + " vs " + std::to_string(many_threads);
    return false;
  }
  return true;
}

}  // namespace nose::perfbench

#endif  // NOSE_PERFBENCH_CHECKS_H_

// Microbenchmarks of the LP/BIP solver substrate.
//
// Default mode (google-benchmark): simplex solve time vs problem size, and
// branch-and-bound on knapsack-like binary programs. These bound the
// optimizer's per-node cost.
//
//   solver_micro [google-benchmark flags]
//
// Comparison mode: replays synthetic cover instances and the real
// RUBiS-derived BIPs (captured from the schema optimizer via
// OptimizerOptions::capture_bip) on the factorized production engine,
// appending one JSON object per instance to FILE (bench_results/
// convention): rows, nnz, solve times, objectives and end-of-solve fill.
// Two oracles check every answer. The dense tableau re-solves every LP
// relaxation, and re-runs branch and bound on the instances small enough
// for it to finish in seconds (kDenseBipMaxVars). Every factorized BIP
// also captures a solve certificate that the exact-arithmetic checker
// (analysis/certify.h) must verify, which is the oracle at scale. Exits
// non-zero if an engine or oracle ends non-optimal, if their optima
// diverge, if a certificate does not verify, if presolve changes a BIP
// answer, or if a thread-pooled branch-and-bound run is not byte-identical
// to the serial one — CI runs this as a correctness gate.
//
//   solver_micro --json FILE

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "advisor/advisor.h"
#include "analysis/certify.h"
#include "bench/bench_json.h"
#include "rubis/model.h"
#include "rubis/workload.h"
#include "solver/bip.h"
#include "solver/certificate.h"
#include "solver/lp.h"
#include "solver/solve_log.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace nose {
namespace {

/// Random feasible covering-style LP: minimize positive costs subject to
/// >= rows, which is always feasible (upper bounds at 1, rhs <= row size).
LpProblem MakeCoverLp(int vars, int rows, uint64_t seed) {
  Rng rng(seed);
  LpProblem lp;
  for (int v = 0; v < vars; ++v) {
    lp.AddVariable(0.0, 1.0, 1.0 + static_cast<double>(rng.Uniform(100)));
  }
  for (int r = 0; r < rows; ++r) {
    std::vector<std::pair<int, double>> coeffs;
    const int nnz = 3 + static_cast<int>(rng.Uniform(8));
    for (int k = 0; k < nnz; ++k) {
      coeffs.emplace_back(static_cast<int>(rng.Uniform(vars)), 1.0);
    }
    lp.AddRow(RowType::kGe, 1.0 + static_cast<double>(rng.Uniform(2)),
              std::move(coeffs));
  }
  return lp;
}

void BM_SimplexSolve(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  LpProblem lp = MakeCoverLp(n, n / 2, 42);
  for (auto _ : state) {
    LpResult r = lp.Solve();
    benchmark::DoNotOptimize(r.objective);
  }
  state.SetLabel("vars=" + std::to_string(n) +
                 " rows=" + std::to_string(n / 2));
}
BENCHMARK(BM_SimplexSolve)->Arg(50)->Arg(100)->Arg(200)->Arg(400)->Arg(800);

void BM_SimplexSolveDense(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  LpProblem lp = MakeCoverLp(n, n / 2, 42);
  for (auto _ : state) {
    LpResult r = lp.Solve({}, 0, 0.0, LpEngine::kDense);
    benchmark::DoNotOptimize(r.objective);
  }
  state.SetLabel("vars=" + std::to_string(n) +
                 " rows=" + std::to_string(n / 2));
}
BENCHMARK(BM_SimplexSolveDense)->Arg(50)->Arg(100)->Arg(200)->Arg(400);

void BM_BipSolveCover(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  LpProblem lp = MakeCoverLp(n, n / 2, 7);
  std::vector<int> binaries(static_cast<size_t>(n));
  for (int v = 0; v < n; ++v) binaries[static_cast<size_t>(v)] = v;
  for (auto _ : state) {
    BipResult r = SolveBip(lp, binaries);
    benchmark::DoNotOptimize(r.objective);
  }
}
BENCHMARK(BM_BipSolveCover)->Arg(20)->Arg(40)->Arg(80)->Arg(160);

void BM_BipKnapsack(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(13);
  LpProblem lp;
  std::vector<std::pair<int, double>> weights;
  for (int v = 0; v < n; ++v) {
    lp.AddVariable(0.0, 1.0, -(1.0 + static_cast<double>(rng.Uniform(50))));
    weights.emplace_back(v, 1.0 + static_cast<double>(rng.Uniform(20)));
  }
  lp.AddRow(RowType::kLe, 5.0 * n, std::move(weights));
  std::vector<int> binaries(static_cast<size_t>(n));
  for (int v = 0; v < n; ++v) binaries[static_cast<size_t>(v)] = v;
  for (auto _ : state) {
    BipResult r = SolveBip(lp, binaries);
    benchmark::DoNotOptimize(r.objective);
  }
}
BENCHMARK(BM_BipKnapsack)->Arg(20)->Arg(40)->Arg(80);

// ===========================================================================
// Engine/oracle comparison mode (--json).
// ===========================================================================

/// Instances with at most this many variables also replay branch and bound
/// on the dense oracle, which finishes there in seconds (cover_bip160 and
/// the single-window RUBiS BIPs). On the larger ones the dense replay took
/// 18 s to 5 min per run; their certificates are the oracle instead.
constexpr int kDenseBipMaxVars = 300;

struct Instance {
  std::string name;
  LpProblem lp;
  std::vector<int> binaries;  // empty => compare LP relaxation only
};

/// Best-of-2 wall time for one LP solve on `engine`.
double TimeLpMs(const LpProblem& lp, LpEngine engine, LpResult* out) {
  double best = 0.0;
  for (int rep = 0; rep < 2; ++rep) {
    Stopwatch watch;
    LpResult r = lp.Solve({}, 0, 0.0, engine);
    const double ms = watch.ElapsedSeconds() * 1000.0;
    if (rep == 0 || ms < best) {
      best = ms;
      *out = std::move(r);
    }
  }
  return best;
}

/// Wall time of one branch-and-bound solve on `engine`, run to its end with
/// no time limit: the status and objective labels are gated exactly
/// against a committed baseline, so they must not depend on machine speed.
/// `certificate`, when set, captures the solve's certificate (one extra
/// cold root LP, included in the time).
double TimeBipMs(const LpProblem& lp, const std::vector<int>& binaries,
                 LpEngine engine, BipResult* out,
                 util::ThreadPool* threads = nullptr,
                 SolveCertificate* certificate = nullptr) {
  BipOptions options;
  options.lp_engine = engine;
  options.threads = threads;
  options.capture_certificate = certificate;
  Stopwatch watch;
  *out = SolveBip(lp, binaries, options);
  return watch.ElapsedSeconds() * 1000.0;
}

/// End-of-solve stored LU+eta factor entries of the factorized engine, as
/// SolveLog reports them.
uint64_t FactorFillEndOf(const LpProblem& lp) {
  SolveLog& log = SolveLog::Global();
  log.Enable();
  lp.Solve();
  const std::vector<LpSolveStats> records = log.LpRecords();
  log.Disable();
  return records.empty() ? 0 : records.back().fill_end;
}

/// RUBiS workload with every statement cloned `k` times under distinct
/// names. The advisor treats clones as separate statements, so plan
/// spaces and the BIP grow ~k-fold while the candidate pool keeps the
/// RUBiS shape (clones share the same interned column families) — this is
/// how the comparison table gets a RUBiS-derived instance big enough to
/// expose the engines' asymptotic gap.
std::unique_ptr<Workload> ScaleWorkload(const Workload& base, int k) {
  auto scaled = std::make_unique<Workload>(base.graph());
  for (int c = 0; c < k; ++c) {
    for (const WorkloadEntry& entry : base.entries()) {
      const std::string name = entry.name + "__c" + std::to_string(c);
      const double weight = entry.WeightIn(Workload::kDefaultMix);
      if (weight <= 0.0) continue;
      const Status status =
          entry.IsQuery() ? scaled->AddQuery(name, entry.query(), weight)
                          : scaled->AddUpdate(name, entry.update(), weight);
      if (!status.ok()) {
        std::fprintf(stderr, "FATAL [scale workload]: %s\n",
                     status.ToString().c_str());
        std::exit(1);
      }
    }
  }
  return scaled;
}

/// Captures the real RUBiS BIP for `mix` by running the advisor with the
/// BIP strategy forced and a capture hook installed.
Instance CaptureRubisBip(const Workload& workload, const std::string& mix) {
  BipCapture capture;
  AdvisorOptions options;
  options.optimizer.strategy = SolveStrategy::kBip;
  options.optimizer.capture_bip = &capture;
  Advisor advisor(options);
  auto rec = advisor.Recommend(workload, mix);
  if (!rec.ok()) {
    std::fprintf(stderr, "FATAL [advise %s]: %s\n", mix.c_str(),
                 rec.status().ToString().c_str());
    std::exit(1);
  }
  if (!capture.captured) {
    std::fprintf(stderr, "FATAL [advise %s]: BIP was not captured\n",
                 mix.c_str());
    std::exit(1);
  }
  Instance inst;
  inst.name = "rubis_" + mix;
  inst.lp = std::move(capture.lp);
  inst.binaries = std::move(capture.binary_vars);
  return inst;
}

/// Captures the joint multi-period BIP (optimizer/horizon.h): a horizon of
/// `num_windows` windows alternating bidding→browsing, whose per-window
/// activation binaries are coupled by transition variables — the
/// comparison table's instances with multi-period block structure (W
/// diagonal window blocks plus inter-window coupling rows) that no
/// single-window capture exercises. Adjacent windows always differ in mix,
/// so the horizon optimizer keeps every window as its own group.
Instance CaptureHorizonBip(const Workload& workload, int num_windows) {
  BipCapture capture;
  AdvisorOptions options;
  options.optimizer.strategy = SolveStrategy::kBip;
  Advisor advisor(options);
  const char* mixes[] = {rubis::kBiddingMix, rubis::kBrowsingMix};
  WorkloadHorizon horizon;
  for (int w = 0; w < num_windows; ++w) {
    HorizonWindow window;
    window.label = std::string(mixes[w % 2]) + "_w" + std::to_string(w);
    window.mix = mixes[w % 2];
    window.duration = 5.0;
    horizon.windows.push_back(std::move(window));
  }
  HorizonPlanOptions plan_options;
  plan_options.capture_bip = &capture;
  auto plan = advisor.PlanHorizon(workload, horizon, plan_options);
  if (!plan.ok()) {
    std::fprintf(stderr, "FATAL [plan horizon]: %s\n",
                 plan.status().ToString().c_str());
    std::exit(1);
  }
  if (!capture.captured) {
    std::fprintf(stderr, "FATAL [plan horizon]: joint BIP was not captured\n");
    std::exit(1);
  }
  Instance inst;
  inst.name = "rubis_horizon" + std::to_string(num_windows);
  inst.lp = std::move(capture.lp);
  inst.binaries = std::move(capture.binary_vars);
  return inst;
}

/// How an engine's result compares with its oracle's: "agree", or why
/// not. A solve that did not end optimal is a failure in its own right,
/// never an agreement. `tol` bounds the objective difference.
template <typename Result, typename Status>
std::string OracleVerdict(const Result& engine, const Result& oracle,
                          Status optimal, double tol) {
  if (engine.status != optimal) return "engine-not-optimal";
  if (oracle.status != optimal) return "oracle-not-optimal";
  return std::abs(engine.objective - oracle.objective) > tol ? "diverged"
                                                             : "agree";
}

/// "verified", or the first finding code of a certificate the exact
/// checker rejects.
std::string CertificateVerdict(const SolveCertificate& certificate) {
  const CertificateReport report = CheckCertificate(certificate);
  if (report.verified) return "verified";
  return report.diagnostics.empty() ? "unverified"
                                    : report.diagnostics.front().code;
}

int CompareMain(const std::string& json_path) {
  std::vector<Instance> instances;
  for (int n : {200, 400, 800}) {
    Instance inst;
    inst.name = "cover_lp" + std::to_string(n);
    inst.lp = MakeCoverLp(n, n / 2, 42);
    instances.push_back(std::move(inst));
  }
  {
    Instance inst;
    inst.name = "cover_bip160";
    inst.lp = MakeCoverLp(160, 80, 7);
    for (int v = 0; v < 160; ++v) inst.binaries.push_back(v);
    instances.push_back(std::move(inst));
  }
  // Real advisor instances: paper-like RUBiS entity counts, one BIP per
  // mix. browsing drops the write transactions, so its BIP is smaller.
  auto graph = rubis::MakeGraph();
  if (!graph.ok()) {
    std::fprintf(stderr, "FATAL [model]: %s\n",
                 graph.status().ToString().c_str());
    return 1;
  }
  auto workload = rubis::MakeWorkload(**graph);
  if (!workload.ok()) {
    std::fprintf(stderr, "FATAL [workload]: %s\n",
                 workload.status().ToString().c_str());
    return 1;
  }
  for (const char* mix :
       {rubis::kBrowsingMix, rubis::kBiddingMix, rubis::kWrite100xMix}) {
    instances.push_back(CaptureRubisBip(**workload, mix));
  }
  // The largest RUBiS-derived instance: the bidding workload cloned 3x.
  {
    std::unique_ptr<Workload> scaled = ScaleWorkload(**workload, 3);
    Instance inst = CaptureRubisBip(*scaled, Workload::kDefaultMix);
    inst.name = "rubis_x3";
    instances.push_back(std::move(inst));
  }
  // The multi-period instances: joint two- and four-window horizon BIPs.
  instances.push_back(CaptureHorizonBip(**workload, 2));
  instances.push_back(CaptureHorizonBip(**workload, 4));

  bench::BenchJsonWriter json;
  if (!json.Open(json_path, "solver_micro")) return 1;

  std::printf("%-18s %7s %7s %9s | %10s %10s | %-12s %-12s %-9s | %s\n",
              "instance", "vars", "rows", "nnz", "fact", "dense", "lp oracle",
              "bip oracle", "cert", "objectives");
  bool failed_any = false;
  for (Instance& inst : instances) {
    const bool is_bip = !inst.binaries.empty();
    LpResult fact_lp, dense_lp;
    const double fact_lp_ms =
        TimeLpMs(inst.lp, LpEngine::kFactorized, &fact_lp);
    const double dense_lp_ms = TimeLpMs(inst.lp, LpEngine::kDense, &dense_lp);
    // The relaxation has one optimal value; the two engines follow
    // different floating-point paths, so they are held to agreement within
    // the dense tableau's accuracy.
    const double lp_scale = std::max(
        {1.0, std::abs(fact_lp.objective), std::abs(dense_lp.objective)});
    const std::string lp_oracle = OracleVerdict(
        fact_lp, dense_lp, LpStatus::kOptimal, 1e-6 * lp_scale);
    bool failed = lp_oracle != "agree";
    const uint64_t fact_fill = FactorFillEndOf(inst.lp);

    double fact_bip_ms = 0.0, dense_bip_ms = 0.0;
    const bool dense_bip_run =
        is_bip && inst.lp.num_variables() <= kDenseBipMaxVars;
    std::string bip_oracle, certificate;
    bool presolve_diverged = false;
    bool thread_diverged = false;
    BipResult fact_bip, dense_bip;
    if (is_bip) {
      SolveCertificate cert;
      fact_bip_ms = TimeBipMs(inst.lp, inst.binaries, LpEngine::kFactorized,
                              &fact_bip, nullptr, &cert);
      certificate = CertificateVerdict(cert);
      // Branch-and-bound stops inside its MIP gap, so the two engines may
      // legitimately return different incumbents within twice the gap;
      // only a larger disagreement is real.
      if (dense_bip_run) {
        dense_bip_ms =
            TimeBipMs(inst.lp, inst.binaries, LpEngine::kDense, &dense_bip);
        const double gap_tol =
            2.0 * BipOptions().relative_gap *
                std::max(std::abs(fact_bip.objective),
                         std::abs(dense_bip.objective)) +
            1e-9;
        bip_oracle = OracleVerdict(fact_bip, dense_bip, BipStatus::kOptimal,
                                   gap_tol);
      } else {
        bip_oracle = fact_bip.status == BipStatus::kOptimal
                         ? "above-cutoff"
                         : "engine-not-optimal";
      }
      // Presolve gate: the reductions are exact and cost-independent, so
      // branch-and-bound must select the same binary assignment with
      // presolve disabled — not merely the same objective.
      BipOptions no_presolve;
      no_presolve.presolve = false;
      BipResult raw = SolveBip(inst.lp, inst.binaries, no_presolve);
      presolve_diverged = raw.status != fact_bip.status;
      if (!presolve_diverged && fact_bip.status == BipStatus::kOptimal) {
        for (int v : inst.binaries) {
          if (std::lround(fact_bip.x[static_cast<size_t>(v)]) !=
              std::lround(raw.x[static_cast<size_t>(v)])) {
            presolve_diverged = true;
            break;
          }
        }
      }
      // Thread-count invariance gate: pooled branch-and-bound must return
      // byte-for-byte the serial result — same objective bits, same
      // solution vector, same trajectory statistics.
      for (const size_t nthreads : {size_t{2}, size_t{8}}) {
        util::ThreadPool pool(nthreads);
        BipResult pooled;
        TimeBipMs(inst.lp, inst.binaries, LpEngine::kFactorized, &pooled,
                  &pool);
        if (pooled.status != fact_bip.status ||
            pooled.objective != fact_bip.objective || pooled.x != fact_bip.x ||
            pooled.nodes_explored != fact_bip.nodes_explored ||
            pooled.lp_iterations != fact_bip.lp_iterations) {
          thread_diverged = true;
        }
      }
      failed = failed ||
               (bip_oracle != "agree" && bip_oracle != "above-cutoff") ||
               certificate != "verified" || presolve_diverged ||
               thread_diverged;
    }
    failed_any = failed_any || failed;

    // BIP rows show branch-and-bound times and objectives; the dense
    // columns stay empty above the cutoff.
    const bool show_dense = !is_bip || dense_bip_run;
    char dense_ms[32] = "-";
    char dense_objective[32] = "";
    if (show_dense) {
      std::snprintf(dense_ms, sizeof(dense_ms), "%.2fms",
                    is_bip ? dense_bip_ms : dense_lp_ms);
      std::snprintf(dense_objective, sizeof(dense_objective), " vs %.6g",
                    is_bip ? dense_bip.objective : dense_lp.objective);
    }
    std::printf("%-18s %7d %7d %9zu | %8.2fms %10s | %-12s %-12s %-9s | "
                "%.6g%s%s\n",
                inst.name.c_str(), inst.lp.num_variables(), inst.lp.num_rows(),
                inst.lp.num_nonzeros(), is_bip ? fact_bip_ms : fact_lp_ms,
                dense_ms, lp_oracle.c_str(), is_bip ? bip_oracle.c_str() : "-",
                is_bip ? certificate.c_str() : "-",
                is_bip ? fact_bip.objective : fact_lp.objective,
                dense_objective, failed ? "  FAILED" : "");

    bench::BenchJsonWriter::Record record = json.Instance(inst.name);
    record.Metric("vars", inst.lp.num_variables())
        .Metric("rows", inst.lp.num_rows())
        .Metric("nnz", static_cast<double>(inst.lp.num_nonzeros()))
        .Metric("fact_lp_ms", fact_lp_ms)
        .Metric("dense_lp_ms", dense_lp_ms)
        .Metric("fact_lp_objective", fact_lp.objective)
        .Metric("dense_lp_objective", dense_lp.objective)
        .Metric("fact_fill_end", static_cast<double>(fact_fill))
        .Label("kind", is_bip ? "bip" : "lp")
        .Label("lp_oracle", lp_oracle);
    if (is_bip) {
      record.Metric("fact_bip_ms", fact_bip_ms)
          .Metric("fact_bip_objective", fact_bip.objective)
          .Label("fact_bip_status", BipStatusName(fact_bip.status))
          .Label("bip_oracle", bip_oracle)
          .Label("certificate", certificate)
          .Label("presolve_diverged", presolve_diverged)
          .Label("thread_diverged", thread_diverged);
      if (dense_bip_run) {
        record.Metric("dense_bip_ms", dense_bip_ms)
            .Metric("dense_bip_objective", dense_bip.objective)
            .Label("dense_bip_status", BipStatusName(dense_bip.status));
      }
    }
  }
  json.Close();
  if (failed_any) {
    std::fprintf(stderr,
                 "error: an engine or oracle ended non-optimal, optima "
                 "diverged, a certificate did not verify, or a presolve/"
                 "thread gate failed on at least one instance\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace nose

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      return nose::CompareMain(argv[i + 1]);
    }
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}

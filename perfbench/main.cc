// The repository benchmark. One process runs one workload for a
// fixed measuring time in whole rounds, checks every output, and prints its
// metrics; the last line of standard output is the JSON result.
//
//   nose_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  --reference FILE [--trace-file FILE]
//   nose_perfbench --write-reference FILE
//
// Workloads (see README.md for their make-up and the metric map):
//   advise        cold Advisor::Recommend on the four RUBiS mixes and on
//                 Fig. 13 random workloads at scales 1, 2 and 4, then the
//                 bidding mix served under its recommended schema
//   serve-browse  ServeHarness on a read-only browsing scenario
//   serve-drift   ServeHarness on default -> write100x with a live migration
//
// --trace 0 reports the end-to-end metrics; --trace 1 enables the trace
// recorder, records spans around every call into a layer, writes them as
// Chrome trace JSON, and reports the per-layer metrics.

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "advisor/advisor.h"
#include "evolve/scenario.h"
#include "executor/loader.h"
#include "executor/plan_executor.h"
#include "obs/trace.h"
#include "perfbench/checks.h"
#include "randwl/random_workload.h"
#include "rubis/datagen.h"
#include "rubis/model.h"
#include "rubis/workload.h"
#include "serve/serve.h"
#include "solver/bip.h"
#include "store/record_store.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace nose::perfbench {
namespace {

/// Advisor, driver and backfill threads never exceed this many at once.
constexpr size_t kThreadLimit = 4;
/// Drivers leave one core to the harness's own threads (the caller and the
/// migration worker) and to the system. Streams are statically assigned to
/// drivers, so a driver that loses its core holds up the whole run: on a
/// shared 4-vCPU VM the per-round throughput at four drivers spread ±20%
/// within a run, at three ±5%.
constexpr size_t kMaxDrivers = kThreadLimit - 1;
/// RUBiS data scale of every served scenario: the paper-like entity counts
/// of rubis::ModelScale, the same the advise workload's RUBiS model uses.
constexpr double kDataScale = 1.0;
/// Logical client streams; divisible by every driver-thread count used, so
/// the streams split evenly over the drivers.
constexpr size_t kStreams = 12;
/// Set-up repetitions before the first round, and after every measured
/// operation of a round (one Recommend, one harness run). setup_s is the
/// median of all of them. Spreading them over the whole run, as the other
/// metrics are, matters on a shared host: a set-up takes ~20 ms, so a
/// block of back-to-back repeats sees one phase of the neighbours' load,
/// and the median of such a block moved by a third between runs.
constexpr int kSetupRepeatsBefore = 5;
constexpr int kSetupRepeatsBetween = 3;
/// Transactions per phase of each served scenario.
constexpr size_t kBiddingTransactions = 4000;
constexpr size_t kBrowseTransactions = 6000;
constexpr size_t kDriftTransactions = 3000;
/// Browsing queries checked against brute-force evaluation per run.
constexpr size_t kCheckedQueries = 64;
/// Transactions replayed per phase for the executor latency breakdown.
constexpr size_t kReplayTransactions = 1500;

const char* const kRubisMixes[] = {rubis::kBrowsingMix, rubis::kBiddingMix,
                                   rubis::kWrite10xMix, rubis::kWrite100xMix};
const int kRandomScales[] = {1, 2, 4};

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank quantile.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

// ---------------------------------------------------------------------------
// Timing on a shared host
//
// The bounded timings are CPU time, not wall time: the machine's cores are
// shared with other tenants' processes, and a thread's wall time includes
// every slice the scheduler gives its core to someone else, which swung the
// wall-clock figures of whole runs by a factor of two. CPU time still moves
// with what the neighbours do to the caches and the clock, so each one is
// also scaled by a probe of fixed code timed right before and after it.

/// CPU seconds of one probe on the reference host; scaled times are CPU
/// seconds at the speed at which a probe takes this long.
constexpr double kProbeReferenceSeconds = 0.002;

double ClockSeconds(clockid_t clock) {
  timespec ts;
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Fixed work of the host-speed probe: hash-table inserts and lookups, a
/// sort and a floating-point loop, about 2 ms on one core. It is the
/// benchmark's own code, so no change to the program moves it.
uint64_t ProbeWork() {
  Rng rng(0x9e37);
  std::unordered_map<uint64_t, uint64_t> table;
  std::vector<double> values;
  for (int i = 0; i < 8000; ++i) {
    table[rng.Next() % 16000] += static_cast<uint64_t>(i);
    values.push_back(static_cast<double>(rng.Next() % 1000003));
  }
  uint64_t sum = 0;
  for (int i = 0; i < 16000; ++i) {
    auto it = table.find(rng.Next() % 16000);
    if (it != table.end()) sum += it->second;
  }
  std::sort(values.begin(), values.end());
  double acc = 0.0;
  for (int pass = 0; pass < 8; ++pass) {
    for (size_t i = 1; i < values.size(); ++i) {
      acc += values[i] * 1e-6 / (1.0 + values[i - 1] * 1e-9);
    }
  }
  return sum + static_cast<uint64_t>(acc);
}

/// Thread CPU seconds of one probe: the median of five runs of ProbeWork.
double ProbeSeconds() {
  std::vector<double> runs;
  volatile uint64_t sink = 0;
  for (int i = 0; i < 5; ++i) {
    const double start = ClockSeconds(CLOCK_THREAD_CPUTIME_ID);
    sink = sink + ProbeWork();
    runs.push_back(ClockSeconds(CLOCK_THREAD_CPUTIME_ID) - start);
  }
  return Median(runs);
}

/// One measured call: its wall time, the CPU time of the whole process
/// (all threads) scaled to the reference host speed, and the probe.
struct Measured {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double probe_s = 0.0;
};

template <typename Op>
Measured Measure(Op&& op) {
  const double probe = ProbeSeconds();
  const double cpu = ClockSeconds(CLOCK_PROCESS_CPUTIME_ID);
  Stopwatch watch;
  op();
  Measured m;
  m.wall_s = watch.ElapsedSeconds();
  const double used = ClockSeconds(CLOCK_PROCESS_CPUTIME_ID) - cpu;
  m.probe_s = 0.5 * (probe + ProbeSeconds());
  m.cpu_s = used * kProbeReferenceSeconds / m.probe_s;
  return m;
}

/// Seed of measuring round `round`: every round serves fresh data and
/// streams, so a run's pooled figures cover more than one draw.
uint64_t RoundSeed(uint64_t seed, int round) {
  return seed + 0x9e3779b97f4a7c15ull * static_cast<uint64_t>(round);
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_file;
  std::string reference_file;
  std::string write_reference;
};

/// Operations attempted and failed, plus the verdict on the outputs of the
/// operations that did not fail.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;

  void Fail(const std::string& what) {
    ++failed;
    std::fprintf(stderr, "failed operation: %s\n", what.c_str());
  }
  void Wrong(const std::string& what) {
    correct = false;
    std::fprintf(stderr, "incorrect output: %s\n", what.c_str());
  }
};

/// Per-round values of each metric; a run reports their medians.
class Samples {
 public:
  void Add(const std::string& name, double value) { values_[name].push_back(value); }
  double Last(const std::string& name) const {
    auto it = values_.find(name);
    return it == values_.end() ? 0.0 : it->second.back();
  }
  double Median(const std::string& name) const {
    auto it = values_.find(name);
    return it == values_.end() ? 0.0 : perfbench::Median(it->second);
  }

 private:
  std::map<std::string, std::vector<double>> values_;
};

// ---------------------------------------------------------------------------
// Advising

struct AdviseInputs {
  std::unique_ptr<EntityGraph> rubis_graph;
  std::unique_ptr<Workload> rubis_workload;
  std::vector<randwl::RandomWorkload> random;
};

struct AdviseInstance {
  std::string name;  ///< "rubis.<mix>" or "scale<k>"
  const Workload* workload = nullptr;
  std::string mix;
};

StatusOr<AdviseInputs> BuildAdviseInputs() {
  AdviseInputs in;
  NOSE_ASSIGN_OR_RETURN(in.rubis_graph, rubis::MakeGraph());
  NOSE_ASSIGN_OR_RETURN(in.rubis_workload, rubis::MakeWorkload(*in.rubis_graph));
  for (int scale : kRandomScales) {
    // Fig. 13's instances: the generator seed is fixed per scale factor.
    randwl::GeneratorOptions gen;
    gen.num_entities = 6 * static_cast<size_t>(scale);
    gen.num_statements = 12 * static_cast<size_t>(scale);
    gen.seed = 4242 + static_cast<uint64_t>(scale);
    NOSE_ASSIGN_OR_RETURN(randwl::RandomWorkload rw, randwl::Generate(gen));
    in.random.push_back(std::move(rw));
  }
  return in;
}

std::vector<AdviseInstance> Instances(const AdviseInputs& in) {
  std::vector<AdviseInstance> out;
  for (const char* mix : kRubisMixes) {
    out.push_back({std::string("rubis.") + mix, in.rubis_workload.get(), mix});
  }
  for (size_t i = 0; i < in.random.size(); ++i) {
    out.push_back({"scale" + std::to_string(kRandomScales[i]),
                   in.random[i].workload.get(), Workload::kDefaultMix});
  }
  return out;
}

AdvisorOptions BenchAdvisorOptions() {
  AdvisorOptions options;
  options.num_threads = kThreadLimit;
  return options;
}

/// Certified BIP objectives of the instances the combinatorial solver
/// serves, keyed by instance name.
using Reference = std::map<std::string, double>;

StatusOr<Reference> ReadReference(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot read reference file " + path);
  Reference ref;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name, value;
    if (!(fields >> name >> value)) {
      return Status::InvalidArgument("malformed reference line: " + line);
    }
    char* end = nullptr;
    ref[name] = std::strtod(value.c_str(), &end);
    if (end == value.c_str() || *end != '\0') {
      return Status::InvalidArgument("malformed reference objective: " + line);
    }
  }
  return ref;
}

/// One cold Recommend with its checks. `replay_pool` non-null (traced run)
/// also captures the cost BIP and replays it through SolveBip alone.
struct AdviseResult {
  bool ok = false;
  double wall_s = 0.0;
  Recommendation rec;
  bool combinatorial = false;
  double cpu_s = 0.0;  ///< scaled, see Measure
  double probe_s = 0.0;
  double cost_solve_s = 0.0;
  SolveCertificate cert;
};

AdviseResult AdviseOnce(const AdviseInstance& inst, const Reference& reference,
                        util::ThreadPool* replay_pool, Outcome* outcome) {
  AdviseResult result;
  AdvisorOptions options = BenchAdvisorOptions();
  options.optimizer.capture_certificate = &result.cert;
  BipCapture capture;
  if (replay_pool != nullptr) options.optimizer.capture_bip = &capture;
  Advisor advisor(options);
  ++outcome->attempted;
  StatusOr<Recommendation> rec = Status::Internal("not run");
  const Measured m = Measure([&] {
    obs::Span span("bench.recommend." + inst.name, "bench");
    rec = advisor.Recommend(*inst.workload, inst.mix);
  });
  result.wall_s = m.wall_s;
  result.cpu_s = m.cpu_s;
  result.probe_s = m.probe_s;
  if (!rec.ok()) {
    outcome->Fail(inst.name + ": " + rec.status().ToString());
    return result;
  }
  result.rec = std::move(rec).value();
  // The certificate is filled only by the BIP strategy.
  result.combinatorial = result.cert.x.empty();
  std::string why;
  bool ok = CheckRecommendation(*inst.workload, inst.mix, result.rec, &why);
  if (ok && !result.combinatorial) {
    ok = CheckBipCertificate(result.cert, result.rec.objective, &why);
  } else if (ok) {
    auto ref = reference.find(inst.name);
    if (ref == reference.end()) {
      why = "no certified reference objective";
      ok = false;
    } else {
      ok = CheckCombinatorialObjective(result.rec.objective, ref->second, &why);
    }
  }
  if (!ok) {
    outcome->Fail(inst.name + ": " + why);
    return result;
  }
  if (replay_pool != nullptr && capture.captured) {
    BipOptions bip = options.optimizer.bip;
    bip.threads = replay_pool;
    obs::Span span("bench.cost_solve_replay." + inst.name, "bench");
    Stopwatch watch;
    const BipResult replay = SolveBip(capture.lp, capture.binary_vars, bip);
    result.cost_solve_s = watch.ElapsedSeconds();
    if (replay.status != BipStatus::kOptimal ||
        std::abs(replay.objective - result.rec.objective) >
            bip.relative_gap * std::max(1.0, std::abs(result.rec.objective))) {
      outcome->Wrong(inst.name + ": replayed cost solve disagrees");
    }
  }
  result.ok = true;
  return result;
}

/// Solves every random instance with the BIP strategy, certifies it, and
/// writes the objectives the combinatorial solves are checked against.
int WriteReference(const std::string& path) {
  auto in = BuildAdviseInputs();
  if (!in.ok()) {
    std::fprintf(stderr, "error: %s\n", in.status().ToString().c_str());
    return 1;
  }
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    return 1;
  }
  out << "# Certified BIP objectives of the random advise instances\n"
         "# (strategy kBip, exact-arithmetic certificate verified).\n"
         "# Regenerate: python3 perfbench/run.py --write-reference\n";
  for (const AdviseInstance& inst : Instances(*in)) {
    if (inst.name.rfind("scale", 0) != 0) continue;
    AdvisorOptions options = BenchAdvisorOptions();
    options.optimizer.strategy = SolveStrategy::kBip;
    // The reference needs only the cost optimum, which the schema-size
    // stage never changes.
    options.optimizer.minimize_schema_size = false;
    SolveCertificate cert;
    options.optimizer.capture_certificate = &cert;
    auto rec = Advisor(options).Recommend(*inst.workload, inst.mix);
    std::string why;
    if (!rec.ok() || !CheckRecommendation(*inst.workload, inst.mix, *rec, &why) ||
        !CheckBipCertificate(cert, rec->objective, &why)) {
      std::fprintf(stderr, "error: %s: %s\n", inst.name.c_str(),
                   rec.ok() ? why.c_str() : rec.status().ToString().c_str());
      return 1;
    }
    char line[128];
    std::snprintf(line, sizeof(line), "%s %.17g\n", inst.name.c_str(),
                  rec->objective);
    out << line;
    std::printf("%s", line);
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Serving

struct ServeSpec {
  std::string label;
  std::vector<evolve::DriftPhase> phases;
};

evolve::DriftScenario MakeScenario(const ServeSpec& spec, uint64_t seed) {
  evolve::DriftScenario scenario;
  scenario.scale = kDataScale;
  scenario.seed = seed;
  scenario.options.advisor = BenchAdvisorOptions();
  scenario.phases = spec.phases;
  return scenario;
}

struct HarnessRun {
  std::unique_ptr<serve::ServeHarness> harness;
  double run_s = 0.0;
  double cpu_s = 0.0;  ///< scaled, see Measure
  double probe_s = 0.0;
  bool ok = false;
};

HarnessRun RunHarness(const ServeSpec& spec, size_t threads, uint64_t seed,
                      Outcome* outcome) {
  HarnessRun run;
  size_t transactions = 0;
  for (const evolve::DriftPhase& p : spec.phases) transactions += p.transactions;
  outcome->attempted += transactions;
  serve::ServeOptions options;
  options.threads = threads;
  options.streams = kStreams;
  // One backfill thread beside kMaxDrivers drivers keeps the total within
  // the thread limit while a migration runs.
  options.migration_threads = 1;
  auto harness = serve::ServeHarness::Create(MakeScenario(spec, seed), options);
  if (!harness.ok()) {
    outcome->failed += transactions;
    std::fprintf(stderr, "failed operations: %s create: %s\n",
                 spec.label.c_str(), harness.status().ToString().c_str());
    return run;
  }
  run.harness = std::move(harness).value();
  Status status;
  const Measured m = Measure([&] {
    obs::Span span("bench.serve." + spec.label + ".t" + std::to_string(threads),
                   "bench");
    status = run.harness->Run();
  });
  run.run_s = m.wall_s;
  run.cpu_s = m.cpu_s;
  run.probe_s = m.probe_s;
  if (!status.ok()) {
    outcome->failed += transactions;
    std::fprintf(stderr, "failed operations: %s run (threads=%zu): %s\n",
                 spec.label.c_str(), threads, status.ToString().c_str());
    return run;
  }
  const serve::ServeReport& report = run.harness->report();
  if (report.transactions != transactions) {
    outcome->Wrong(spec.label + ": ran " + std::to_string(report.transactions) +
                   " of " + std::to_string(transactions) + " transactions");
  }
  if (report.migrations.size() != spec.phases.size() - 1) {
    outcome->Wrong(spec.label + ": " + std::to_string(report.migrations.size()) +
                   " migrations completed, expected " +
                   std::to_string(spec.phases.size() - 1));
  }
  run.ok = true;
  return run;
}

double AdviseSeconds(const serve::ServeReport& r) {
  double s = 0.0;
  for (const serve::ServeAdviseRecord& a : r.advises) s += a.elapsed_seconds;
  return s;
}

double MigrationStoreMs(const serve::ServeReport& r) {
  double ms = 0.0;
  for (const serve::ServeMigrationRecord& m : r.migrations) ms += m.simulated_ms;
  return ms;
}

/// Transaction weight under a RUBiS mix, as rubis::MakeWorkload defines the
/// mixes: write transactions scale 10x / 100x in the write-heavy mixes.
double TransactionWeight(const rubis::Transaction& tx, const std::string& mix) {
  if (mix == rubis::kBrowsingMix) return tx.browsing_weight;
  double w = tx.bidding_weight;
  if (tx.is_write && mix == rubis::kWrite10xMix) w *= 10.0;
  if (tx.is_write && mix == rubis::kWrite100xMix) w *= 100.0;
  return w;
}

size_t PickWeighted(const std::vector<double>& cumulative, Rng* rng) {
  const double pick = rng->NextDouble() * cumulative.back();
  const size_t i = static_cast<size_t>(
      std::lower_bound(cumulative.begin(), cumulative.end(), pick) -
      cumulative.begin());
  return std::min(i, cumulative.size() - 1);
}

std::map<std::string, const QueryPlan*> QueryPlans(const Recommendation& rec) {
  std::map<std::string, const QueryPlan*> plans;
  for (const auto& [stmt, plan] : rec.query_plans) plans[stmt] = &plan;
  return plans;
}

/// Per-run products of the traced replay.
struct ReplayFigures {
  double loader_s = 0.0;
  std::vector<double> query_us;
  std::vector<double> update_us;
};

/// Read-only phases: the served store must hold exactly the freshly loaded
/// rows, and sampled queries through PlanExecutor must return exactly the
/// brute-force rows over the regenerated dataset.
void CheckServedQueries(serve::ServeHarness* harness, const Dataset& data,
                        const Recommendation& rec, const std::string& mix,
                        uint64_t seed, Outcome* outcome,
                        std::vector<ValueTuple>* sample_rows) {
  RecordStore fresh;
  if (Status s = LoadSchema(data, rec.schema, &fresh); !s.ok()) {
    outcome->Wrong("reload: " + s.ToString());
    return;
  }
  for (const std::string& name : rec.schema.names()) {
    auto served = harness->store()->RowCount(name);
    auto loaded = fresh.RowCount(name);
    if (!served.ok() || !loaded.ok() || *served != *loaded) {
      outcome->Wrong("column family " + name + " row count changed");
    }
  }
  const Workload& workload = harness->workload();
  std::vector<const WorkloadEntry*> queries;
  std::vector<double> cumulative;
  for (const WorkloadEntry& e : workload.entries()) {
    if (!e.IsQuery() || e.WeightIn(mix) <= 0.0) continue;
    queries.push_back(&e);
    cumulative.push_back((cumulative.empty() ? 0.0 : cumulative.back()) +
                         e.WeightIn(mix));
  }
  const auto plans = QueryPlans(rec);
  PlanExecutor executor(harness->store(), &rec.schema);
  rubis::ParamGenerator params(&data, seed ^ 0x5eedc4ec4ull);
  Rng rng(seed ^ 0x9b1dull);
  for (size_t i = 0; i < kCheckedQueries; ++i) {
    const WorkloadEntry& entry = *queries[PickWeighted(cumulative, &rng)];
    const PlanExecutor::Params p = params.ForStatement(entry);
    ++outcome->attempted;
    auto plan = plans.find(entry.name);
    if (plan == plans.end()) {
      outcome->Fail(entry.name + ": no plan");
      continue;
    }
    auto rows = executor.ExecuteQuery(*plan->second, p);
    std::string why;
    if (!rows.ok()) {
      outcome->Fail(entry.name + ": " + rows.status().ToString());
    } else if (!CheckRows(*rows, ReferenceEvaluate(data, entry.query(), p),
                          &why)) {
      outcome->Fail(entry.name + ": " + why);
    } else if (sample_rows->size() < rows->size()) {
      *sample_rows = std::move(rows).value();
    }
  }
}

/// One-thread replay of a seeded transaction stream of `mix` against a
/// store freshly loaded with `rec`'s schema, timing each executor call.
void ReplayPhase(const Workload& workload, const Dataset& data,
                 const Recommendation& rec, const std::string& mix,
                 uint64_t seed, ReplayFigures* out, Outcome* outcome) {
  RecordStore store;
  {
    obs::Span span("bench.loader." + mix, "bench");
    Stopwatch watch;
    if (Status s = LoadSchema(data, rec.schema, &store); !s.ok()) {
      outcome->Wrong("replay load: " + s.ToString());
      return;
    }
    out->loader_s += watch.ElapsedSeconds();
  }
  const auto query_plans = QueryPlans(rec);
  std::map<std::string, const UpdatePlan*> update_plans;
  for (const auto& [stmt, plan] : rec.update_plans) update_plans.emplace(stmt, &plan);
  const std::vector<rubis::Transaction>& txs = rubis::Transactions();
  std::vector<double> cumulative;
  double total = 0.0;
  for (const rubis::Transaction& tx : txs) {
    total += TransactionWeight(tx, mix);
    cumulative.push_back(total);
  }
  PlanExecutor executor(&store, &rec.schema);
  rubis::ParamGenerator params(&data, seed ^ 0x7e91a7ull);
  Rng rng(seed ^ 0x3c6ef372ull);
  obs::Span span("bench.executor_replay." + mix, "bench");
  for (size_t t = 0; t < kReplayTransactions; ++t) {
    const rubis::Transaction& tx = txs[PickWeighted(cumulative, &rng)];
    PlanExecutor::Params p;
    for (const std::string& stmt : tx.statements) {
      params.AddStatementParams(*workload.FindEntry(stmt), &p);
    }
    for (const std::string& stmt : tx.statements) {
      Stopwatch watch;
      Status status;
      bool query = workload.FindEntry(stmt)->IsQuery();
      if (query) {
        auto it = query_plans.find(stmt);
        status = it == query_plans.end()
                     ? Status::NotFound(stmt)
                     : executor.ExecuteQuery(*it->second, p).status();
      } else {
        auto it = update_plans.find(stmt);
        status = it == update_plans.end()
                     ? Status::NotFound(stmt)
                     : executor.ExecuteUpdate(*it->second, p);
      }
      const double us = watch.ElapsedSeconds() * 1e6;
      if (!status.ok()) {
        outcome->Wrong("replay " + stmt + ": " + status.ToString());
        return;
      }
      (query ? out->query_us : out->update_us).push_back(us);
    }
  }
}

// ---------------------------------------------------------------------------
// Metrics output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void Print(const std::vector<Metric>& metrics, const Outcome& outcome) {
  for (const Metric& m : metrics) {
    std::printf("%-28s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("attempted %" PRIu64 " failed %" PRIu64 " correct %s\n",
              outcome.attempted, outcome.failed,
              outcome.correct ? "true" : "false");
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              outcome.correct ? "true" : "false", outcome.attempted,
              outcome.failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---------------------------------------------------------------------------
// Self-test: every check must reject a corrupted result.

bool SelfTest(const SolveCertificate* cert, double cert_objective,
              const Reference& reference, uint64_t digest,
              std::vector<ValueTuple> rows) {
  std::string why;
  bool ok = true;
  auto expect = [&](bool accepted, bool want, const char* what) {
    if (accepted != want) {
      std::fprintf(stderr, "self-test: check %s %s\n", what,
                   want ? "rejected a correct result" : "accepted a corruption");
      ok = false;
    }
  };
  if (cert != nullptr) {
    expect(CheckBipCertificate(*cert, cert_objective, &why), true, "certificate");
    SolveCertificate tampered = *cert;
    tampered.objective = cert->objective * 1.01 + 1e-3;
    expect(CheckBipCertificate(tampered, cert_objective, &why), false,
           "certificate objective");
    expect(CheckBipCertificate(*cert, cert_objective * 1.01 + 1e-3, &why),
           false, "reported objective");
  }
  for (const auto& [name, objective] : reference) {
    expect(CheckCombinatorialObjective(objective, objective, &why), true,
           "combinatorial objective");
    expect(CheckCombinatorialObjective(-objective, objective, &why), false,
           "flipped combinatorial objective");
    // Just inside and just outside the solvers' gap, on both sides.
    const double tol = CombinatorialTolerance();
    expect(CheckCombinatorialObjective(objective * (1 - 0.9 * tol), objective, &why),
           true, "combinatorial objective within the gap");
    expect(CheckCombinatorialObjective(objective * (1 + 1.5 * tol), objective, &why),
           false, "combinatorial objective +1.5 gaps");
    expect(CheckCombinatorialObjective(objective * (1 - 1.5 * tol), objective, &why),
           false, "combinatorial objective -1.5 gaps");
  }
  expect(CheckDigest(digest, digest, &why), true, "digest");
  expect(CheckDigest(digest, digest ^ 1, &why), false, "mismatched digest");
  if (rows.size() < 2) {
    rows = {{Value(int64_t{1}), Value(std::string("a"))},
            {Value(int64_t{2}), Value(std::string("b"))}};
  }
  expect(CheckRows(rows, rows, &why), true, "rows");
  std::vector<ValueTuple> dropped(rows.begin() + 1, rows.end());
  expect(CheckRows(dropped, rows, &why), false, "dropped row");
  std::vector<ValueTuple> altered = rows;
  altered[0].push_back(altered[0].front());
  expect(CheckRows(altered, rows, &why), false, "altered row");
  return ok;
}

// ---------------------------------------------------------------------------
// Workloads

struct RunState {
  const Args* args = nullptr;
  Reference reference;
  Outcome outcome;
  Samples samples;
  /// Per-instance advise wall and CPU times over the rounds; advise_cpu_s
  /// sums the CPU times' medians.
  std::map<std::string, std::vector<double>> instance_s;
  std::map<std::string, std::vector<double>> instance_cpu_s;
  /// Host-speed probes of every measured call (see Measure).
  std::vector<double> probes;
  /// Foreground simulated store ms and transactions at the largest driver
  /// count, pooled over the rounds.
  double fg_store_ms = 0.0;
  double fg_transactions = 0.0;
  std::unique_ptr<util::ThreadPool> replay_pool;  ///< traced runs only
  /// Times set-ups between the measured operations of the rounds (see
  /// kSetupRepeatsBetween); empty outside the round loop.
  std::function<void()> between_operations;
  // Artifacts for the self-test.
  SolveCertificate cert;
  double cert_objective = 0.0;
  bool have_cert = false;
  uint64_t digest = 0;
  std::vector<ValueTuple> rows;
};

/// Cold-advises every instance, with the checks. With `record`, adds the
/// round's advise samples.
std::vector<AdviseResult> AdviseRound(
    const std::vector<AdviseInstance>& instances, bool record, RunState* st) {
  std::vector<AdviseResult> results;
  double advise_s = 0.0, objective = 0.0, cfs = 0.0;
  double enumerate = 0.0, cost = 0.0, build = 0.0, solve = 0.0, other = 0.0;
  double cost_solve = 0.0, comb = 0.0, candidates = 0.0, vars = 0.0;
  double rows = 0.0, nodes = 0.0;
  for (const AdviseInstance& inst : instances) {
    results.push_back(AdviseOnce(inst, st->reference, st->replay_pool.get(),
                                 &st->outcome));
    if (st->between_operations) st->between_operations();
    const AdviseResult& r = results.back();
    if (!r.ok || !record) continue;
    const AdvisorTiming& t = r.rec.timing;
    advise_s += r.wall_s;
    objective += r.rec.objective;
    cfs += static_cast<double>(r.rec.schema.size());
    st->instance_s[inst.name].push_back(r.wall_s);
    st->instance_cpu_s[inst.name].push_back(r.cpu_s);
    st->probes.push_back(r.probe_s);
    enumerate += t.enumeration_seconds;
    cost += t.cost_calculation_seconds;
    build += t.bip_construction_seconds;
    solve += t.bip_solve_seconds;
    // AdvisorTiming::other_seconds is the residual of the total and so
    // already holds the enumeration time.
    other += t.other_seconds - t.enumeration_seconds;
    candidates += static_cast<double>(r.rec.num_candidates);
    vars += r.rec.bip_variables;
    rows += r.rec.bip_constraints;
    if (r.combinatorial) {
      comb += t.bip_solve_seconds;
    } else {
      cost_solve += r.cost_solve_s;
      nodes += r.rec.bb_nodes;
      if (!st->have_cert) {
        st->cert = r.cert;
        st->cert_objective = r.rec.objective;
        st->have_cert = true;
      }
    }
  }
  if (!record || instances.empty()) return results;
  Samples& s = st->samples;
  s.Add("round.advise_s", advise_s);
  s.Add("advise_objective", objective);
  s.Add("schema_cfs", cfs);
  s.Add("enumerator.s", enumerate);
  s.Add("enumerator.candidates", candidates);
  s.Add("planner.cost_s", cost);
  s.Add("optimizer.build_s", build);
  s.Add("optimizer.bip_vars", vars);
  s.Add("optimizer.bip_rows", rows);
  s.Add("solver.solve_s", solve);
  s.Add("solver.cost_solve_s", cost_solve);
  s.Add("solver.tiebreak_s", solve - comb - cost_solve);
  s.Add("solver.bb_nodes", nodes);
  s.Add("optimizer.comb_s", comb);
  s.Add("advisor.other_s", other);
  s.Add("advisor.unaccounted_s",
        advise_s - (enumerate + cost + build + solve + other));
  return results;
}

/// One round of every serve spec at one and at the largest driver-thread
/// count. Returns the largest-thread-count runs, one per spec (kept for the
/// checks); a failed run leaves an empty entry.
std::vector<HarnessRun> ServeRound(const std::vector<ServeSpec>& specs,
                                   uint64_t seed, RunState* st) {
  double txns = 0.0, net = 0.0, txns_1t = 0.0, net_1t = 0.0, wall = 0.0;
  double cpu = 0.0, cpu_1t = 0.0;
  double fg_ms = 0.0, advise = 0.0;
  double gets = 0.0, puts = 0.0, rows_read = 0.0, bytes_read = 0.0;
  double mig_wall = 0.0, backfilled = 0.0, catchup = 0.0, dual = 0.0;
  double retries = 0.0, during = 0.0;
  std::vector<HarnessRun> kept;
  for (const ServeSpec& spec : specs) {
    HarnessRun one = RunHarness(spec, 1, seed, &st->outcome);
    if (st->between_operations) st->between_operations();
    HarnessRun many = RunHarness(spec, kMaxDrivers, seed, &st->outcome);
    if (st->between_operations) st->between_operations();
    if (!one.ok || !many.ok) {
      kept.emplace_back();
      continue;
    }
    const serve::ServeReport& r1 = one.harness->report();
    const serve::ServeReport& rm = many.harness->report();
    std::string why;
    if (!CheckDigest(r1.store_digest, rm.store_digest, &why)) {
      st->outcome.Wrong(spec.label + ": " + why);
    }
    st->digest = rm.store_digest;
    txns_1t += static_cast<double>(r1.transactions);
    net_1t += one.run_s - AdviseSeconds(r1);
    cpu_1t += one.cpu_s;
    st->probes.push_back(one.probe_s);
    st->probes.push_back(many.probe_s);
    txns += static_cast<double>(rm.transactions);
    net += many.run_s - AdviseSeconds(rm);
    cpu += many.cpu_s;
    wall += many.run_s;
    // The boundary advise runs while no driver does, so both runs sample it.
    advise += 0.5 * (AdviseSeconds(r1) + AdviseSeconds(rm));
    fg_ms += rm.store.simulated_ms - MigrationStoreMs(rm);
    // The backfill writes one put per row and reads the dataset, not the
    // store, so its share comes off exactly. The store counts the catch-up
    // replays, dual writes and verification reads of a migration together
    // with the foreground's, so those stay in (README.md).
    gets += static_cast<double>(rm.store.gets);
    puts += static_cast<double>(rm.store.puts);
    rows_read += static_cast<double>(rm.store.rows_read);
    bytes_read += static_cast<double>(rm.store.bytes_read);
    for (const serve::ServeMigrationRecord& m : rm.migrations) {
      puts -= static_cast<double>(m.rows_backfilled);
      mig_wall += m.wall_seconds;
      backfilled += static_cast<double>(m.rows_backfilled);
      catchup += static_cast<double>(m.catchup_updates);
      dual += static_cast<double>(m.dual_writes);
      retries += static_cast<double>(m.verify_retries);
    }
    during += static_cast<double>(rm.during.count);
    kept.push_back(std::move(many));
  }
  if (txns <= 0.0 || txns_1t <= 0.0) return kept;
  Samples& s = st->samples;
  s.Add("serve_txn_cpu_ms", 1e3 * cpu / txns);
  s.Add("serve_txn_cpu_ms_1t", 1e3 * cpu_1t / txns_1t);
  s.Add("serve_tps", txns / net);
  s.Add("serve_tps_1t", txns_1t / net_1t);
  s.Add("serve_wall_s", wall);
  st->fg_store_ms += fg_ms;
  st->fg_transactions += txns;
  s.Add("advisor.boundary_s", advise);
  s.Add("store.gets_per_txn", gets / txns);
  s.Add("store.puts_per_txn", puts / txns);
  s.Add("store.rows_read_per_txn", rows_read / txns);
  s.Add("store.bytes_read_per_txn", bytes_read / txns);
  s.Add("migration.wall_s", mig_wall);
  s.Add("migration.rows_backfilled", backfilled);
  s.Add("migration.catchup_updates", catchup);
  s.Add("migration.dual_writes", dual);
  s.Add("migration.verify_retries", retries);
  s.Add("migration.during_txns", during);
  return kept;
}

/// Checks (every run) and the executor replay (traced runs) on the served
/// scenarios, once per run.
ReplayFigures CheckServed(const std::vector<ServeSpec>& specs,
                          std::vector<HarnessRun>& runs, uint64_t seed,
                          RunState* st) {
  ReplayFigures out;
  for (size_t i = 0; i < runs.size(); ++i) {
    const ServeSpec& spec = specs[i];
    const bool read_only =
        spec.phases.size() == 1 && spec.phases[0].mix == rubis::kBrowsingMix;
    // Phase recommendations are needed for the query check and the replay.
    if (!read_only && !st->args->trace) continue;
    serve::ServeHarness* harness = runs[i].harness.get();
    if (harness == nullptr) continue;
    auto graph = rubis::MakeGraph(rubis::ScaleFor(kDataScale));
    if (!graph.ok()) {
      st->outcome.Wrong("regenerate model: " + graph.status().ToString());
      continue;
    }
    const Dataset data = rubis::GenerateData(
        graph->get(), rubis::ScaleFor(kDataScale), seed);
    // The phase recommendations the harness deployed, recomputed cold on
    // its own workload and checked like every advise instance.
    std::vector<AdviseInstance> phases;
    for (const evolve::DriftPhase& phase : spec.phases) {
      phases.push_back({std::string("rubis.") + phase.mix, &harness->workload(),
                        phase.mix});
    }
    std::vector<AdviseResult> recs = AdviseRound(phases, false, st);
    for (size_t p = 0; p < phases.size(); ++p) {
      if (!recs[p].ok) continue;
      if (read_only) {
        CheckServedQueries(harness, data, recs[p].rec, phases[p].mix, seed,
                           &st->outcome, &st->rows);
      }
      if (st->args->trace) {
        ReplayPhase(harness->workload(), data, recs[p].rec, phases[p].mix, seed,
                    &out, &st->outcome);
      }
    }
  }
  return out;
}

int RunWorkload(const Args& args) {
  RunState st;
  st.args = &args;
  auto reference = ReadReference(args.reference_file);
  if (!reference.ok()) {
    std::fprintf(stderr, "error: %s\n", reference.status().ToString().c_str());
    return 1;
  }
  st.reference = *reference;

  const bool advise = args.workload == "advise";
  std::vector<ServeSpec> specs;
  if (advise) {
    // Fig. 11: the bidding mix served under its recommended schema.
    specs.push_back(
        {"bidding", {{rubis::kBiddingMix, kBiddingTransactions}}});
  } else if (args.workload == "serve-browse") {
    specs.push_back(
        {"browse", {{rubis::kBrowsingMix, kBrowseTransactions}}});
  } else if (args.workload == "serve-drift") {
    specs.push_back({"drift",
                     {{rubis::kBiddingMix, kDriftTransactions},
                      {rubis::kWrite100xMix, kDriftTransactions}}});
  } else {
    std::fprintf(stderr, "error: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  if (args.trace) {
    obs::TraceRecorder::Global().Enable();
    obs::SetCurrentThreadName("bench");
    st.replay_pool = std::make_unique<util::ThreadPool>(kThreadLimit);
  }

  // Set-up: building what one round needs before its first measured call
  // (the advise models and workloads; each scenario's model, workload,
  // dataset and harness). Each repeat draws the next seed; `keep` receives
  // the advise inputs. setup_s is its scaled CPU time (see Measure); set-up
  // runs on one thread.
  int setups = 0;
  auto build = [&](AdviseInputs* keep) -> Status {
    if (advise) {
      NOSE_ASSIGN_OR_RETURN(AdviseInputs built, BuildAdviseInputs());
      if (keep != nullptr) *keep = std::move(built);
    }
    for (const ServeSpec& spec : specs) {
      serve::ServeOptions options;
      options.streams = kStreams;
      NOSE_RETURN_IF_ERROR(serve::ServeHarness::Create(
                               MakeScenario(spec, RoundSeed(args.seed, setups)),
                               options)
                               .status());
    }
    return Status::Ok();
  };
  auto set_up = [&](AdviseInputs* keep) -> Status {
    Status status;
    const Measured m = Measure([&] { status = build(keep); });
    NOSE_RETURN_IF_ERROR(status);
    st.samples.Add("setup_wall_s", m.wall_s);
    st.samples.Add("setup_s", m.cpu_s);
    st.probes.push_back(m.probe_s);
    ++setups;
    return Status::Ok();
  };
  AdviseInputs inputs;
  for (int i = 0; i < kSetupRepeatsBefore; ++i) {
    if (Status s = set_up(&inputs); !s.ok()) {
      std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
      return 1;
    }
  }
  st.between_operations = [&] {
    for (int i = 0; i < kSetupRepeatsBetween; ++i) {
      if (Status s = set_up(nullptr); !s.ok()) {
        st.outcome.Wrong("set-up: " + s.ToString());
      }
    }
  };
  std::vector<AdviseInstance> instances = Instances(inputs);
  if (advise) {
    // The seed orders the instances; each call is cold, so the order
    // changes no result.
    Rng order(args.seed);
    for (size_t i = instances.size(); i > 1; --i) {
      std::swap(instances[i - 1], instances[order.Uniform(i)]);
    }
  } else {
    // A serve workload advises its phases' mixes cold every round, on the
    // model and workload its harness builds.
    instances.clear();
    auto graph = rubis::MakeGraph(rubis::ScaleFor(kDataScale));
    if (!graph.ok()) {
      std::fprintf(stderr, "error: %s\n", graph.status().ToString().c_str());
      return 1;
    }
    inputs.rubis_graph = std::move(graph).value();
    auto workload = rubis::MakeWorkload(*inputs.rubis_graph);
    if (!workload.ok()) {
      std::fprintf(stderr, "error: %s\n", workload.status().ToString().c_str());
      return 1;
    }
    inputs.rubis_workload = std::move(workload).value();
    for (const evolve::DriftPhase& phase : specs.front().phases) {
      instances.push_back({std::string("rubis.") + phase.mix,
                           inputs.rubis_workload.get(), phase.mix});
    }
  }

  std::vector<HarnessRun> served;
  uint64_t served_seed = args.seed;
  Stopwatch measure;
  int rounds = 0;
  do {
    served.clear();  // one round's harnesses alive at a time
    obs::Span span("bench.round", "bench");
    served_seed = RoundSeed(args.seed, rounds);
    if (advise) {
      // Bidding is served twice before and once after the advise calls, so
      // that a round's serving samples do not all fall in one phase of the
      // host's load.
      for (int i = 0; i < 2; ++i) ServeRound(specs, served_seed, &st);
    }
    AdviseRound(instances, true, &st);
    served = ServeRound(specs, served_seed, &st);
    std::fprintf(stderr,
                 "round %d: advise %.3f s (wall), serve %.1f txn/s (1 driver "
                 "%.1f), %.4f CPU ms/txn (1 driver %.4f)\n",
                 rounds, st.samples.Last("round.advise_s"),
                 st.samples.Last("serve_tps"), st.samples.Last("serve_tps_1t"),
                 st.samples.Last("serve_txn_cpu_ms"),
                 st.samples.Last("serve_txn_cpu_ms_1t"));
    ++rounds;
  } while (measure.ElapsedSeconds() < args.seconds);
  st.between_operations = nullptr;

  ReplayFigures replay = CheckServed(specs, served, served_seed, &st);
  if (args.trace) obs::TraceRecorder::Global().Disable();
  served.clear();

  const bool self_test_ok =
      SelfTest(st.have_cert ? &st.cert : nullptr, st.cert_objective,
               st.reference, st.digest, st.rows);
  if (!self_test_ok) st.outcome.Wrong("self-test of the checks failed");

  std::fprintf(stderr, "%s: %d rounds in %.1f s\n", args.workload.c_str(),
               rounds, measure.ElapsedSeconds());
  const Samples& s = st.samples;
  double advise_s = 0.0, advise_cpu_s = 0.0;
  for (const auto& [name, times] : st.instance_s) advise_s += Median(times);
  for (const auto& [name, times] : st.instance_cpu_s) advise_cpu_s += Median(times);
  const double txn_store_ms =
      st.fg_transactions > 0.0 ? st.fg_store_ms / st.fg_transactions : 0.0;
  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", s.Median("setup_s"), "s"},
        {"advise_cpu_s", advise_cpu_s, "s"},
        {"advise_objective", s.Median("advise_objective"), "cost"},
        {"schema_cfs", s.Median("schema_cfs"), "count"},
        {"serve_txn_cpu_ms", s.Median("serve_txn_cpu_ms"), "ms"},
        {"serve_txn_cpu_ms_1t", s.Median("serve_txn_cpu_ms_1t"), "ms"},
        {"txn_store_ms", txn_store_ms, "ms"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
    };
  } else {
    for (const char* name :
         {"enumerator.s", "enumerator.candidates", "planner.cost_s",
          "optimizer.build_s", "optimizer.bip_vars", "optimizer.bip_rows",
          "solver.solve_s", "solver.cost_solve_s", "solver.tiebreak_s",
          "solver.bb_nodes", "optimizer.comb_s", "advisor.other_s"}) {
      const std::string n = name;
      const bool count = n == "enumerator.candidates" || n == "solver.bb_nodes" ||
                         n.rfind("optimizer.bip_", 0) == 0;
      metrics.push_back({n, s.Median(n), count ? "count" : "s"});
    }
    for (const char* mix : kRubisMixes) {
      const std::string n = std::string("rubis.") + mix;
      metrics.push_back({"advisor." + n + "_s", Median(st.instance_s[n]), "s"});
    }
    for (int scale : kRandomScales) {
      const std::string n = "scale" + std::to_string(scale);
      metrics.push_back({"advisor." + n + "_s", Median(st.instance_s[n]), "s"});
    }
    metrics.push_back({"advisor.boundary_s", s.Median("advisor.boundary_s"), "s"});
    metrics.push_back({"loader.s", replay.loader_s, "s"});
    metrics.push_back({"executor.query_us.p50", Quantile(replay.query_us, 0.5), "us"});
    metrics.push_back({"executor.query_us.p99", Quantile(replay.query_us, 0.99), "us"});
    metrics.push_back({"executor.update_us.p50", Quantile(replay.update_us, 0.5), "us"});
    metrics.push_back({"executor.update_us.p99", Quantile(replay.update_us, 0.99), "us"});
    for (const char* name :
         {"store.gets_per_txn", "store.puts_per_txn", "store.rows_read_per_txn"}) {
      metrics.push_back({name, s.Median(name), "count"});
    }
    metrics.push_back(
        {"store.bytes_read_per_txn", s.Median("store.bytes_read_per_txn"), "bytes"});
    metrics.push_back({"migration.wall_s", s.Median("migration.wall_s"), "s"});
    for (const char* name :
         {"migration.rows_backfilled", "migration.catchup_updates",
          "migration.dual_writes", "migration.verify_retries",
          "migration.during_txns"}) {
      metrics.push_back({name, s.Median(name), "count"});
    }
    metrics.push_back({"setup_wall_s", s.Median("setup_wall_s"), "s"});
    metrics.push_back({"host.probe_ms", 1e3 * Median(st.probes), "ms"});
    metrics.push_back({"serve_tps", s.Median("serve_tps"), "txn/s"});
    metrics.push_back({"serve_tps_1t", s.Median("serve_tps_1t"), "txn/s"});
    metrics.push_back({"trace.advise_s", advise_s, "s"});
    metrics.push_back({"trace.serve_wall_s", s.Median("serve_wall_s"), "s"});
    metrics.push_back({"trace.advise_cpu_s", advise_cpu_s, "s"});
    metrics.push_back(
        {"trace.serve_txn_cpu_ms", s.Median("serve_txn_cpu_ms"), "ms"});
    metrics.push_back({"advisor.unaccounted_s", s.Median("advisor.unaccounted_s"), "s"});
    std::string error;
    if (!args.trace_file.empty() &&
        !obs::TraceRecorder::Global().WriteChromeJson(args.trace_file, &error)) {
      std::fprintf(stderr, "error: cannot write trace: %s\n", error.c_str());
      return 1;
    }
  }
  Print(metrics, st.outcome);
  return 0;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "error: %s wants a value\n", flag.c_str());
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      args->trace = value == "1";
      if (value != "0" && value != "1") return false;
    } else if (flag == "--trace-file") {
      args->trace_file = value;
    } else if (flag == "--reference") {
      args->reference_file = value;
    } else if (flag == "--write-reference") {
      args->write_reference = value;
    } else {
      std::fprintf(stderr, "error: unknown flag %s\n", flag.c_str());
      return false;
    }
    if (end != nullptr && *end != '\0') {
      std::fprintf(stderr, "error: bad value for %s: %s\n", flag.c_str(),
                   value.c_str());
      return false;
    }
  }
  return true;
}

}  // namespace
}  // namespace nose::perfbench

int main(int argc, char** argv) {
  nose::perfbench::Args args;
  if (!nose::perfbench::ParseArgs(argc, argv, &args)) return 2;
  if (!args.write_reference.empty()) {
    return nose::perfbench::WriteReference(args.write_reference);
  }
  return nose::perfbench::RunWorkload(args);
}

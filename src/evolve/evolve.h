#ifndef NOSE_EVOLVE_EVOLVE_H_
#define NOSE_EVOLVE_EVOLVE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "evolve/incremental_advisor.h"
#include "evolve/migration_executor.h"
#include "evolve/migration_planner.h"
#include "evolve/workload_tracker.h"
#include "executor/dataset.h"
#include "executor/loader.h"
#include "executor/plan_executor.h"
#include "store/record_store.h"

namespace nose::evolve {

struct EvolveOptions {
  TrackerOptions tracker;
  MigrationExecutor::Options migration;
  AdvisorOptions advisor;
  /// Reserved mix name the tracker's observed weights are written into
  /// before each re-advise.
  std::string observed_mix = "__observed";
  /// Recent queries kept for migration verification.
  size_t query_log_capacity = 128;
};

/// Outcome of one completed (or aborted) migration.
struct MigrationRecord {
  size_t started_at_transaction = 0;
  size_t finished_at_transaction = 0;
  size_t builds = 0;
  size_t keeps = 0;
  size_t drops = 0;
  uint64_t rows_backfilled = 0;
  uint64_t catchup_updates = 0;
  uint64_t dual_writes = 0;
  uint64_t verify_queries = 0;
  uint64_t verify_mismatches = 0;
  double est_build_cost_ms = 0.0;
  /// Estimated drop + dual-write charges (shared horizon pricing), so the
  /// estimate is commensurable with actual_ms — which includes both.
  double est_drop_cost_ms = 0.0;
  double est_dual_write_cost_ms = 0.0;
  double actual_ms = 0.0;  ///< simulated store ms charged by the migration
  bool advise_incremental = false;
  double advise_seconds = 0.0;
  double drift_at_trigger = 0.0;
  bool aborted = false;
  /// True when the migration was scheduled by the horizon planner (planned
  /// mode) rather than raised by a drift trigger.
  bool planned = false;
  /// Planned mode: index of the horizon window this migration deploys.
  size_t to_window = 0;
};

/// One window of a precomputed horizon schedule handed to InitPlanned. The
/// recommendation's plans may point into a pool owned elsewhere (the
/// advisor's HorizonPlan) — that owner must outlive the controller.
struct PlannedWindow {
  std::string label;
  std::string mix;
  /// Transaction count at which this window's schema should be live; the
  /// migration toward it starts at this boundary.
  size_t start_transaction = 0;
  Recommendation rec;
};

struct EvolveReport {
  size_t transactions = 0;
  size_t statements = 0;
  size_t re_advises_incremental = 0;
  size_t re_advises_cold = 0;
  /// Re-advises whose schema matched the active one (adopted in place, no
  /// data movement).
  size_t no_op_readvises = 0;
  double last_drift = 0.0;
  size_t invariant_violations = 0;
  std::vector<MigrationRecord> migrations;

  std::string ToString() const;
};

/// The online schema-evolution loop (tracker -> re-advise -> migrate):
/// routes application statements through the active generation's plans,
/// feeds the workload tracker, and when drift triggers, re-advises
/// incrementally, diffs the schemas into a migration plan, and executes it
/// live (dual-write + chunked backfill + verify-then-cutover) while
/// continuing to serve statements from the old generation.
class EvolveController {
 public:
  /// `workload` is mutated: observed weights are written into
  /// options.observed_mix before each re-advise. Both pointers must
  /// outlive the controller.
  EvolveController(Workload* workload, const Dataset* data,
                   EvolveOptions options = EvolveOptions());
  ~EvolveController();

  /// Advises `initial_mix`, loads the recommended schema, and starts
  /// tracking against its weights.
  Status Init(const std::string& initial_mix);

  /// Planned (horizon) mode: deploys windows[0] as the initial schema and
  /// migrates at each window's start_transaction boundary instead of on
  /// drift triggers. The windows' plans may point into a caller-owned pool
  /// that must outlive the controller (see PlannedWindow).
  Status InitPlanned(std::vector<PlannedWindow> windows);

  /// Executes one statement of the application workload through the active
  /// generation.
  StatusOr<std::vector<ValueTuple>> ExecuteQuery(
      const std::string& statement, const PlanExecutor::Params& params);
  Status ExecuteUpdate(const std::string& statement,
                       const PlanExecutor::Params& params);

  /// Transaction boundary: advances an in-flight migration by one bounded
  /// step, or checks the drift trigger and starts one. Also spot-checks the
  /// availability invariant (every active statement's plan resolves to live
  /// store column families).
  Status EndTransaction();

  /// Drives any in-flight migration to completion (or failure).
  Status Finish();

  bool migration_in_progress() const { return migration_ != nullptr; }
  const EvolveReport& report() const { return report_; }
  const WorkloadTracker& tracker() const { return tracker_; }

  /// Active-generation internals, exposed for tests and benchmarks.
  const Recommendation& active_rec() const { return active_->rec; }
  const Schema& active_schema() const { return *active_->named; }
  const std::map<std::string, QueryPlan>& active_query_plans() const {
    return active_->query_plans;
  }
  const std::map<std::string, UpdatePlan>& active_update_plans() const {
    return active_->update_plans;
  }
  RecordStore* store() { return &store_; }
  const std::vector<LoggedStatement>& update_log() const {
    return update_log_;
  }
  const QueryLog& query_log() const { return query_log_; }
  const std::string& active_mix() const { return active_mix_; }
  bool planned_mode() const { return planned_mode_; }
  /// Planned mode: index of the horizon window currently deployed.
  size_t current_window() const { return current_window_; }

 private:
  /// One schema generation: recommendation, store-named schema, plans
  /// keyed by statement, executor. The named schema lives behind a
  /// unique_ptr so the executor's pointer survives generation swaps.
  struct Generation {
    Recommendation rec;
    std::unique_ptr<Schema> named;
    std::map<std::string, QueryPlan> query_plans;
    std::map<std::string, UpdatePlan> update_plans;
    std::unique_ptr<PlanExecutor> executor;
  };

  std::unique_ptr<Generation> MakeGeneration(Recommendation rec,
                                             const Schema* reuse_names_from);
  Status StartReadvise();
  Status StartPlannedMigration(size_t target);
  Status AdvanceMigration();
  Status Cutover();
  void AbortMigration();
  void CheckInvariants();
  std::map<std::string, double> ActiveWeights() const;

  Workload* workload_;
  const Dataset* data_;
  EvolveOptions options_;

  IncrementalAdvisor advisor_;
  WorkloadTracker tracker_;
  RecordStore store_;

  std::unique_ptr<Generation> active_;
  std::string active_mix_;
  size_t generation_ = 0;

  /// Planned (horizon) mode state: the precomputed schedule and the index
  /// of the window whose schema is currently deployed.
  bool planned_mode_ = false;
  std::vector<PlannedWindow> planned_;
  size_t current_window_ = 0;

  std::unique_ptr<Generation> pending_;
  std::unique_ptr<MigrationPlan> mig_plan_;
  std::unique_ptr<MigrationExecutor> migration_;
  MigrationRecord pending_record_;

  std::vector<LoggedStatement> update_log_;
  QueryLog query_log_;
  EvolveReport report_;
};

}  // namespace nose::evolve

#endif  // NOSE_EVOLVE_EVOLVE_H_

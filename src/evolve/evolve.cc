#include "evolve/evolve.h"

#include <sstream>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace nose::evolve {

EvolveController::EvolveController(Workload* workload, const Dataset* data,
                                   EvolveOptions options)
    : workload_(workload),
      data_(data),
      options_(std::move(options)),
      advisor_(options_.advisor),
      tracker_(options_.tracker),
      store_(options_.advisor.cost_params) {}

EvolveController::~EvolveController() = default;

std::unique_ptr<EvolveController::Generation> EvolveController::MakeGeneration(
    Recommendation rec, const Schema* reuse_names_from) {
  auto gen = std::make_unique<Generation>();
  gen->rec = std::move(rec);
  gen->named = std::make_unique<Schema>();
  const std::string prefix = "g" + std::to_string(generation_ + 1) + "_";
  const Schema& advised = gen->rec.schema;
  for (size_t i = 0; i < advised.size(); ++i) {
    const ColumnFamily& cf = advised.column_families()[i];
    const std::string* kept =
        reuse_names_from != nullptr ? reuse_names_from->NameOf(cf) : nullptr;
    // Kept column families retain their live store names; new ones get
    // generation-prefixed names so both generations coexist in one store.
    const std::string name =
        kept != nullptr ? *kept
                        : (reuse_names_from != nullptr ? prefix : std::string()) +
                              advised.names()[i];
    gen->named->Add(cf, name, advised.PoolIdAt(i));
  }
  for (const auto& [stmt, plan] : gen->rec.query_plans) {
    gen->query_plans.emplace(stmt, plan);
  }
  for (const auto& [stmt, plan] : gen->rec.update_plans) {
    gen->update_plans.emplace(stmt, plan);
  }
  gen->executor = std::make_unique<PlanExecutor>(&store_, gen->named.get());
  return gen;
}

std::map<std::string, double> EvolveController::ActiveWeights() const {
  std::map<std::string, double> weights;
  for (const auto& [entry, weight] : workload_->EntriesIn(active_mix_)) {
    weights[entry->name] = weight;
  }
  return weights;
}

Status EvolveController::Init(const std::string& initial_mix) {
  auto advise = advisor_.Advise(*workload_, initial_mix);
  if (!advise.ok()) return advise.status();
  active_mix_ = initial_mix;
  active_ = MakeGeneration(std::move(advise).value().rec, nullptr);
  NOSE_RETURN_IF_ERROR(LoadSchema(*data_, *active_->named, &store_));
  tracker_.SetAdvised(ActiveWeights());
  obs::MetricsRegistry::Global().GetGauge("evolve.generation").Set(0.0);
  return Status::Ok();
}

Status EvolveController::InitPlanned(std::vector<PlannedWindow> windows) {
  if (windows.empty()) {
    return Status::InvalidArgument("planned horizon has no windows");
  }
  planned_mode_ = true;
  planned_ = std::move(windows);
  current_window_ = 0;
  active_mix_ = planned_[0].mix;
  active_ = MakeGeneration(planned_[0].rec, nullptr);
  NOSE_RETURN_IF_ERROR(LoadSchema(*data_, *active_->named, &store_));
  tracker_.SetAdvised(ActiveWeights());
  obs::MetricsRegistry::Global().GetGauge("evolve.generation").Set(0.0);
  return Status::Ok();
}

StatusOr<std::vector<ValueTuple>> EvolveController::ExecuteQuery(
    const std::string& statement, const PlanExecutor::Params& params) {
  auto it = active_->query_plans.find(statement);
  if (it == active_->query_plans.end()) {
    ++report_.invariant_violations;
    return Status::NotFound("no active plan for query " + statement);
  }
  const double before = RecordStore::ThreadChargeMs();
  auto rows = active_->executor->ExecuteQuery(it->second, params);
  if (!rows.ok()) return rows.status();
  tracker_.Record(statement, RecordStore::ThreadChargeMs() - before);
  ++report_.statements;
  query_log_.push_back({statement, params});
  if (query_log_.size() > options_.query_log_capacity) {
    query_log_.pop_front();
  }
  return rows;
}

Status EvolveController::ExecuteUpdate(const std::string& statement,
                                       const PlanExecutor::Params& params) {
  auto it = active_->update_plans.find(statement);
  if (it == active_->update_plans.end()) {
    ++report_.invariant_violations;
    return Status::NotFound("no active plan for update " + statement);
  }
  const double before = RecordStore::ThreadChargeMs();
  NOSE_RETURN_IF_ERROR(active_->executor->ExecuteUpdate(it->second, params));
  tracker_.Record(statement, RecordStore::ThreadChargeMs() - before);
  ++report_.statements;
  update_log_.push_back({statement, params});
  if (migration_ != nullptr) {
    NOSE_RETURN_IF_ERROR(migration_->OnUpdate(update_log_.back()));
  }
  return Status::Ok();
}

Status EvolveController::EndTransaction() {
  ++report_.transactions;
  report_.last_drift = tracker_.drift();
  CheckInvariants();
  if (migration_ != nullptr) return AdvanceMigration();
  if (planned_mode_) {
    // Planned mode ignores drift triggers: migrations start at the
    // horizon-planned boundaries.
    if (current_window_ + 1 < planned_.size() &&
        report_.transactions >= planned_[current_window_ + 1].start_transaction) {
      return StartPlannedMigration(current_window_ + 1);
    }
    return Status::Ok();
  }
  if (tracker_.ShouldReadvise()) return StartReadvise();
  return Status::Ok();
}

Status EvolveController::StartPlannedMigration(size_t target) {
  obs::Span span("evolve.planned_migration", "evolve");
  pending_record_ = MigrationRecord();
  pending_record_.started_at_transaction = report_.transactions;
  pending_record_.planned = true;
  pending_record_.to_window = target;
  pending_record_.drift_at_trigger = tracker_.drift();

  auto next = MakeGeneration(planned_[target].rec, active_->named.get());
  CostModel cost(options_.advisor.cost_params);
  // Price the dual-write overhead under the mix the migration enters —
  // the same traffic profile the horizon planner charged its transition
  // variables with, so planned estimates and execution-time estimates
  // agree.
  MigrationTraffic traffic;
  traffic.update_weight_share =
      UpdateWeightShare(*workload_, planned_[target].mix);
  traffic.chunk_rows = static_cast<double>(options_.migration.chunk_rows);
  auto plan = std::make_unique<MigrationPlan>(
      PlanMigration(*active_->named, *next->named, cost, traffic));

  if (plan->empty()) {
    // The horizon planner kept the schema across this boundary; adopt the
    // window's plans in place — no data movement, no availability gap.
    active_ = std::move(next);
    current_window_ = target;
    active_mix_ = planned_[target].mix;
    tracker_.SetAdvised(ActiveWeights());
    ++report_.no_op_readvises;
    return Status::Ok();
  }

  pending_record_.builds = plan->build_indices.size();
  pending_record_.keeps = plan->keep_names.size();
  pending_record_.drops = plan->drop_names.size();
  pending_record_.est_build_cost_ms = plan->est_build_cost_ms;
  pending_record_.est_drop_cost_ms = plan->est_drop_cost_ms;
  pending_record_.est_dual_write_cost_ms = plan->est_dual_write_cost_ms;
  pending_ = std::move(next);
  mig_plan_ = std::move(plan);
  migration_ = std::make_unique<MigrationExecutor>(
      data_, &store_, pending_->named.get(), active_->executor.get(),
      pending_->executor.get(), &active_->query_plans, &pending_->query_plans,
      &pending_->update_plans, mig_plan_.get(), options_.migration);
  Status prepared = migration_->Prepare();
  if (!prepared.ok()) {
    AbortMigration();
    return prepared;
  }
  obs::MetricsRegistry::Global()
      .GetCounter("evolve.migrations_started")
      .Increment();
  return Status::Ok();
}

Status EvolveController::StartReadvise() {
  obs::Span span("evolve.readvise", "evolve");
  for (const auto& [name, weight] : tracker_.estimate()) {
    NOSE_RETURN_IF_ERROR(
        workload_->SetWeight(name, options_.observed_mix, weight));
  }
  auto advise = advisor_.Advise(*workload_, options_.observed_mix);
  if (!advise.ok()) return advise.status();
  ReadviseResult result = std::move(advise).value();
  if (result.incremental) {
    ++report_.re_advises_incremental;
  } else {
    ++report_.re_advises_cold;
  }
  pending_record_ = MigrationRecord();
  pending_record_.started_at_transaction = report_.transactions;
  pending_record_.advise_incremental = result.incremental;
  pending_record_.advise_seconds = result.seconds;
  pending_record_.drift_at_trigger = tracker_.drift();

  auto next = MakeGeneration(std::move(result.rec), active_->named.get());
  CostModel cost(options_.advisor.cost_params);
  // Reactive migrations run under the drift-estimated mix just written
  // into observed_mix — price dual writes with its update share.
  MigrationTraffic traffic;
  traffic.update_weight_share =
      UpdateWeightShare(*workload_, options_.observed_mix);
  traffic.chunk_rows = static_cast<double>(options_.migration.chunk_rows);
  auto plan = std::make_unique<MigrationPlan>(
      PlanMigration(*active_->named, *next->named, cost, traffic));

  if (plan->empty()) {
    // Identical schema: the fresh plans only re-rank equal-cost paths, so
    // adopt them in place — no data movement, no availability gap.
    active_ = std::move(next);
    active_mix_ = options_.observed_mix;
    tracker_.SetAdvised(ActiveWeights());
    ++report_.no_op_readvises;
    return Status::Ok();
  }

  pending_record_.builds = plan->build_indices.size();
  pending_record_.keeps = plan->keep_names.size();
  pending_record_.drops = plan->drop_names.size();
  pending_record_.est_build_cost_ms = plan->est_build_cost_ms;
  pending_record_.est_drop_cost_ms = plan->est_drop_cost_ms;
  pending_record_.est_dual_write_cost_ms = plan->est_dual_write_cost_ms;
  pending_ = std::move(next);
  mig_plan_ = std::move(plan);
  migration_ = std::make_unique<MigrationExecutor>(
      data_, &store_, pending_->named.get(), active_->executor.get(),
      pending_->executor.get(), &active_->query_plans, &pending_->query_plans,
      &pending_->update_plans, mig_plan_.get(), options_.migration);
  Status prepared = migration_->Prepare();
  if (!prepared.ok()) {
    AbortMigration();
    return prepared;
  }
  obs::MetricsRegistry::Global()
      .GetCounter("evolve.migrations_started")
      .Increment();
  return Status::Ok();
}

Status EvolveController::AdvanceMigration() {
  Status s = migration_->Step(update_log_, query_log_);
  if (!s.ok()) {
    AbortMigration();
    return s;
  }
  if (migration_->phase() == MigrationPhase::kReadyForCutover) {
    return Cutover();
  }
  return Status::Ok();
}

Status EvolveController::Cutover() {
  obs::Span span("evolve.cutover", "evolve");
  const MigrationProgress& prog = migration_->progress();
  pending_record_.finished_at_transaction = report_.transactions;
  pending_record_.rows_backfilled = prog.rows_backfilled;
  pending_record_.catchup_updates = prog.catchup_updates;
  pending_record_.dual_writes = prog.dual_writes;
  pending_record_.verify_queries = prog.verify_queries;
  pending_record_.verify_mismatches = prog.verify_mismatches;
  pending_record_.actual_ms = prog.simulated_ms;

  std::unique_ptr<Generation> old = std::move(active_);
  active_ = std::move(pending_);
  if (pending_record_.planned) {
    current_window_ = pending_record_.to_window;
    active_mix_ = planned_[current_window_].mix;
  } else {
    active_mix_ = options_.observed_mix;
  }
  for (const std::string& name : mig_plan_->drop_names) {
    NOSE_RETURN_IF_ERROR(store_.DropColumnFamily(name));
  }
  migration_->FinishCutover();
  migration_.reset();
  mig_plan_.reset();
  old.reset();
  ++generation_;
  tracker_.SetAdvised(ActiveWeights());
  report_.migrations.push_back(pending_record_);
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  reg.GetCounter("evolve.migrations_completed").Increment();
  reg.GetGauge("evolve.generation").Set(static_cast<double>(generation_));
  return Status::Ok();
}

void EvolveController::AbortMigration() {
  pending_record_.aborted = true;
  pending_record_.finished_at_transaction = report_.transactions;
  if (migration_ != nullptr) {
    const MigrationProgress& prog = migration_->progress();
    pending_record_.rows_backfilled = prog.rows_backfilled;
    pending_record_.verify_queries = prog.verify_queries;
    pending_record_.verify_mismatches = prog.verify_mismatches;
    pending_record_.actual_ms = prog.simulated_ms;
  }
  report_.migrations.push_back(pending_record_);
  // Tear out any half-built column families so the store returns to the
  // pre-migration catalog.
  if (mig_plan_ != nullptr && pending_ != nullptr) {
    for (size_t i : mig_plan_->build_indices) {
      const std::string& name = pending_->named->names()[i];
      if (store_.HasColumnFamily(name)) {
        (void)store_.DropColumnFamily(name);
      }
    }
  }
  migration_.reset();
  mig_plan_.reset();
  pending_.reset();
  obs::MetricsRegistry::Global()
      .GetCounter("evolve.migrations_aborted")
      .Increment();
}

void EvolveController::CheckInvariants() {
  obs::MetricsRegistry::Global()
      .GetCounter("evolve.invariant_checks")
      .Increment();
  size_t violations = 0;
  auto check_step = [&](const PlanStep& step) {
    const std::string* name = step.cf_id != kInvalidCfId
                                  ? active_->named->NameOfId(step.cf_id)
                                  : nullptr;
    if (name == nullptr) name = active_->named->NameOf(*step.cf);
    if (name == nullptr || !store_.HasColumnFamily(*name)) ++violations;
  };
  auto check_query_plan = [&](const QueryPlan& plan) {
    for (const PlanStep& step : plan.steps) check_step(step);
  };
  for (const auto& [entry, weight] : workload_->EntriesIn(active_mix_)) {
    if (entry->IsQuery()) {
      auto it = active_->query_plans.find(entry->name);
      if (it == active_->query_plans.end()) {
        ++violations;
        continue;
      }
      check_query_plan(it->second);
    } else {
      auto it = active_->update_plans.find(entry->name);
      if (it == active_->update_plans.end()) {
        ++violations;
        continue;
      }
      for (const UpdatePlanPart& part : it->second.parts) {
        const std::string* name = part.cf_id != kInvalidCfId
                                      ? active_->named->NameOfId(part.cf_id)
                                      : nullptr;
        if (name == nullptr) name = active_->named->NameOf(*part.cf);
        if (name == nullptr || !store_.HasColumnFamily(*name)) ++violations;
        for (const QueryPlan& support : part.support_plans) {
          check_query_plan(support);
        }
      }
    }
  }
  if (violations > 0) {
    report_.invariant_violations += violations;
    obs::MetricsRegistry::Global()
        .GetCounter("evolve.invariant_violations")
        .Add(violations);
  }
}

Status EvolveController::Finish() {
  size_t guard = 0;
  while (migration_ != nullptr) {
    if (++guard > 10'000'000) {
      return Status::Internal("migration did not converge");
    }
    NOSE_RETURN_IF_ERROR(AdvanceMigration());
  }
  return Status::Ok();
}

std::string EvolveReport::ToString() const {
  std::ostringstream out;
  out << "transactions: " << transactions << "\n"
      << "statements: " << statements << "\n"
      << "re-advises: " << re_advises_incremental << " incremental, "
      << re_advises_cold << " cold, " << no_op_readvises << " no-op\n"
      << "last drift: " << last_drift << "\n"
      << "invariant violations: " << invariant_violations << "\n"
      << "migrations: " << migrations.size() << "\n";
  for (size_t i = 0; i < migrations.size(); ++i) {
    const MigrationRecord& m = migrations[i];
    out << "  [" << i << "] txn " << m.started_at_transaction << " -> "
        << m.finished_at_transaction << (m.aborted ? " ABORTED" : "") << ": "
        << m.builds << " build / " << m.keeps << " keep / " << m.drops
        << " drop, backfilled " << m.rows_backfilled << " rows, caught up "
        << m.catchup_updates << " updates, " << m.dual_writes
        << " dual writes, verified " << m.verify_queries << " queries ("
        << m.verify_mismatches << " mismatches), est "
        << m.est_build_cost_ms + m.est_drop_cost_ms + m.est_dual_write_cost_ms
        << " ms, actual " << m.actual_ms << " ms, ";
    if (m.planned) {
      out << "planned -> window " << m.to_window;
    } else {
      out << "advise " << (m.advise_incremental ? "incremental" : "cold")
          << " in " << m.advise_seconds * 1e3 << " ms, drift "
          << m.drift_at_trigger;
    }
    out << "\n";
  }
  return out.str();
}

}  // namespace nose::evolve

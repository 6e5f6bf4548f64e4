#ifndef NOSE_EXECUTOR_PLAN_EXECUTOR_H_
#define NOSE_EXECUTOR_PLAN_EXECUTOR_H_

#include <map>
#include <string>
#include <vector>

#include "planner/plan.h"
#include "planner/update_planner.h"
#include "schema/schema.h"
#include "store/record_store.h"
#include "util/statusor.h"

namespace nose {

/// Executes recommended plans against a record store, implementing the
/// application model's client side (paper §IV-B): get requests, client
/// filtering, client sorting and id-joins between successive lookups.
///
/// The schema maps plan column families to store names; every column
/// family used by an executed plan must be present in both.
///
/// Each call first resolves every field the plan touches to a dense slot
/// and every literal or parameter to a constant; the per-row work then
/// runs on flat slot rows (see DESIGN.md, "Plan execution").
class PlanExecutor {
 public:
  using Params = std::map<std::string, Value>;

  PlanExecutor(RecordStore* store, const Schema* schema)
      : store_(store), schema_(schema) {}

  /// Runs a query plan; returns result rows aligned with the query's
  /// select list, duplicates discarded, ordered per ORDER BY when present.
  StatusOr<std::vector<ValueTuple>> ExecuteQuery(const QueryPlan& plan,
                                                 const Params& params);

  /// Runs an update plan: support queries, then deletes/inserts on every
  /// affected column family.
  Status ExecuteUpdate(const UpdatePlan& plan, const Params& params);

 private:
  RecordStore* store_;
  const Schema* schema_;
};

}  // namespace nose

#endif  // NOSE_EXECUTOR_PLAN_EXECUTOR_H_

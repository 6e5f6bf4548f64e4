#include "executor/plan_executor.h"

#include <algorithm>
#include <functional>
#include <optional>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace nose {

namespace {

/// A partial row binding accumulated while walking a plan: one cell per
/// slot of the call's SlotLayout, empty until the statement or a fetched
/// record binds it.
using Row = std::vector<std::optional<Value>>;

/// Dense numbering of the fields one ExecuteQuery/ExecuteUpdate call
/// touches. Every FieldRef is resolved here before the first get, so the
/// per-row work (binding, filtering, join merge, sort, projection) indexes
/// a Row instead of looking up a key.
class SlotLayout {
 public:
  size_t Slot(const FieldRef& field) {
    for (size_t i = 0; i < fields_.size(); ++i) {
      if (fields_[i] == field) return i;
    }
    fields_.push_back(field);
    return fields_.size() - 1;
  }
  std::vector<size_t> Slots(const std::vector<FieldRef>& fields) {
    std::vector<size_t> slots;
    slots.reserve(fields.size());
    for (const FieldRef& f : fields) slots.push_back(Slot(f));
    return slots;
  }
  const FieldRef& field(size_t slot) const { return fields_[slot]; }
  size_t size() const { return fields_.size(); }

 private:
  std::vector<FieldRef> fields_;
};

FieldRef IdRefOf(const EntityGraph& graph, const std::string& entity) {
  return FieldRef{entity, graph.GetEntity(entity).id_field().name};
}

bool CompareValues(PredicateOp op, const Value& lhs, const Value& rhs) {
  switch (op) {
    case PredicateOp::kEq:
      return lhs == rhs;
    case PredicateOp::kNe:
      return !(lhs == rhs);
    case PredicateOp::kLt:
      return lhs < rhs;
    case PredicateOp::kLe:
      return !(rhs < lhs);
    case PredicateOp::kGt:
      return rhs < lhs;
    case PredicateOp::kGe:
      return !(lhs < rhs);
  }
  return false;
}

/// A predicate with its field's slot and its right-hand side. Literals and
/// statement parameters are constants of the call; a support-query
/// parameter the statement does not bind reads the field's slot of the
/// incoming context (an entity ID the update statement already knows).
struct Operand {
  const Predicate* pred = nullptr;
  size_t slot = 0;
  const Value* constant = nullptr;

  const Value* Resolve(const Row& ctx) const {
    if (constant != nullptr) return constant;
    return ctx[slot].has_value() ? &*ctx[slot] : nullptr;
  }
  Status Unbound() const {
    return Status::InvalidArgument("unbound parameter ?" + pred->param +
                                   " for " + pred->field.QualifiedName());
  }
};

Operand BindOperand(const Predicate& pred, const PlanExecutor::Params& params,
                    SlotLayout* layout) {
  Operand op;
  op.pred = &pred;
  op.slot = layout->Slot(pred.field);
  if (pred.literal.has_value()) {
    op.constant = &*pred.literal;
  } else if (auto it = params.find(pred.param); it != params.end()) {
    op.constant = &it->second;
  }
  return op;
}

/// One component of a get's partition key or clustering prefix: the ID
/// the previous step landed on, a predicate's operand (also bound into the
/// field's slot), or a partition field the plan left unbound (an error if
/// the step ever runs).
struct KeyPart {
  enum Kind { kId, kPredicate, kUnbound };
  Kind kind;
  size_t slot;
  Operand operand;
};

/// One plan step with every field it reads or writes resolved to a slot.
struct StepSlots {
  const PlanStep* step;
  const std::string* cf_name;  ///< nullptr: missing from the schema
  std::vector<KeyPart> partition;
  std::vector<KeyPart> prefix;
  std::optional<Operand> range;
  std::vector<size_t> clustering;  ///< slots of the fetched clustering key
  std::vector<size_t> values;      ///< slots of the fetched values
  std::vector<Operand> filters;
  std::vector<size_t> dedupe;  ///< join-merge key
};

const std::string* StoreName(const Schema& schema, CfId id,
                             const ColumnFamily& cf) {
  // Interned-id lookup when the plan came out of the advisor (O(1), no
  // canonical-key hashing); key lookup for hand-built plans.
  const std::string* name = id != kInvalidCfId ? schema.NameOfId(id) : nullptr;
  return name != nullptr ? name : schema.NameOf(cf);
}

/// Last predicate of `preds` on `field` (the planner's binding).
const Predicate* PredicateOn(const std::vector<Predicate>& preds,
                             const FieldRef& field) {
  const Predicate* found = nullptr;
  for (const Predicate& p : preds) {
    if (p.field == field) found = &p;
  }
  return found;
}

void AddUnique(std::vector<size_t>* slots, size_t slot) {
  if (std::find(slots->begin(), slots->end(), slot) == slots->end()) {
    slots->push_back(slot);
  }
}

std::vector<StepSlots> ResolvePlan(const QueryPlan& plan,
                                   const PlanExecutor::Params& params,
                                   const Schema& schema, SlotLayout* layout) {
  const Query& query = *plan.query;
  const EntityGraph& graph = *query.graph();

  // Fields whose values distinguish contexts downstream: select and order
  // fields (already-fetched ones) plus the current landing entity's ID.
  std::vector<size_t> needed = layout->Slots(query.select());
  for (const OrderField& o : query.order_by()) {
    AddUnique(&needed, layout->Slot(o.field));
  }

  std::vector<StepSlots> steps;
  for (const PlanStep& step : plan.steps) {
    StepSlots s;
    s.step = &step;
    s.cf_name = StoreName(schema, step.cf_id, *step.cf);
    const AccessDetail& access = step.access;
    const FieldRef id_j =
        IdRefOf(graph, query.path().EntityAt(step.from_index));
    for (const FieldRef& f : step.cf->partition_key()) {
      if (access.partition_uses_id && f == id_j) {
        s.partition.push_back({KeyPart::kId, layout->Slot(f), {}});
        continue;
      }
      const Predicate* pred = PredicateOn(access.partition_preds, f);
      if (pred == nullptr) {
        s.partition.push_back({KeyPart::kUnbound, layout->Slot(f), {}});
        break;
      }
      s.partition.push_back({KeyPart::kPredicate, layout->Slot(f),
                             BindOperand(*pred, params, layout)});
    }
    // The clustering prefix mirrors the planner's greedy consumption order.
    bool id_used = access.partition_uses_id;
    for (const FieldRef& f : step.cf->clustering_key()) {
      if (access.clustering_uses_id && !id_used && f == id_j) {
        s.prefix.push_back({KeyPart::kId, layout->Slot(f), {}});
        id_used = true;
        continue;
      }
      const Predicate* pred = PredicateOn(access.clustering_eq, f);
      if (pred == nullptr) break;
      s.prefix.push_back({KeyPart::kPredicate, layout->Slot(f),
                          BindOperand(*pred, params, layout)});
    }
    if (access.pushed_range.has_value()) {
      s.range = BindOperand(*access.pushed_range, params, layout);
    }
    s.clustering = layout->Slots(step.cf->clustering_key());
    s.values = layout->Slots(step.cf->values());
    for (const Predicate& p : access.filters) {
      s.filters.push_back(BindOperand(p, params, layout));
    }
    s.dedupe = needed;
    const FieldRef id_to =
        IdRefOf(graph, query.path().EntityAt(step.to_index));
    AddUnique(&s.dedupe, layout->Slot(id_to));
    steps.push_back(std::move(s));
  }
  return steps;
}

/// Appends the key components of one get to `key`, binding predicate
/// values into `bound`.
Status BuildKey(const std::vector<KeyPart>& parts, const SlotLayout& layout,
                const Row& ctx, Row* bound, ValueTuple* key) {
  for (const KeyPart& k : parts) {
    switch (k.kind) {
      case KeyPart::kId:
        if (!ctx[k.slot].has_value()) {
          return Status::Internal("missing bound ID " +
                                  layout.field(k.slot).QualifiedName());
        }
        key->push_back(*ctx[k.slot]);
        break;
      case KeyPart::kUnbound:
        return Status::Internal("partition field " +
                                layout.field(k.slot).QualifiedName() +
                                " has no binding in plan step");
      case KeyPart::kPredicate: {
        const Value* v = k.operand.Resolve(ctx);
        if (v == nullptr) return k.operand.Unbound();
        (*bound)[k.slot] = *v;
        key->push_back(*v);
        break;
      }
    }
  }
  return Status::Ok();
}

/// Moves a fetched record's `cells` into their `slots` of `out`.
void MoveCells(const std::vector<size_t>& slots, ValueTuple* cells, Row* out) {
  for (size_t i = 0; i < slots.size() && i < cells->size(); ++i) {
    (*out)[slots[i]] = std::move((*cells)[i]);
  }
}

/// Keeps the first of every group of rows that agree on `slots` (equal
/// presence, Value alternative and value), in their original order.
/// Compacts in place; an open-addressing table holds the kept rows' hashes
/// and indices, at most half full.
void KeepFirstDistinct(std::vector<Row>* rows,
                       const std::vector<size_t>& slots) {
  std::vector<Row>& r = *rows;
  if (r.size() < 2) return;
  auto equal = [&](size_t a, size_t b) {
    for (size_t s : slots) {
      if (r[a][s] != r[b][s]) return false;
    }
    return true;
  };
  size_t capacity = 4;
  while (capacity < 2 * r.size()) capacity *= 2;
  struct Entry {
    size_t hash;
    size_t index;  ///< kept row + 1; 0 marks an empty entry
  };
  std::vector<Entry> table(capacity, Entry{0, 0});
  size_t kept = 0;
  for (size_t i = 0; i < r.size(); ++i) {
    if (kept != i) r[kept] = std::move(r[i]);
    size_t h = 1469598103934665603ull;  // FNV offset basis
    for (size_t s : slots) {
      const std::optional<Value>& cell = r[kept][s];
      h ^= cell.has_value() ? std::hash<Value>()(*cell) : 0x9e3779b9u;
      h *= 1099511628211ull;  // FNV prime
    }
    size_t pos = (h ^ (h >> 32)) & (capacity - 1);
    bool duplicate = false;
    for (; table[pos].index != 0; pos = (pos + 1) & (capacity - 1)) {
      if (table[pos].hash == h && equal(table[pos].index - 1, kept)) {
        duplicate = true;
        break;
      }
    }
    if (!duplicate) table[pos] = Entry{h, ++kept};
  }
  r.resize(kept);
}

/// Walks the plan's gets from `contexts`, threading the bindings: per
/// context one get, per fetched record one bound row that survives the
/// client filters, then the join merge (paper §IV-B step 3).
StatusOr<std::vector<Row>> RunSteps(RecordStore* store,
                                    const SlotLayout& layout,
                                    const std::vector<StepSlots>& steps,
                                    std::vector<Row> contexts) {
  for (const StepSlots& s : steps) {
    if (s.cf_name == nullptr) {
      return Status::FailedPrecondition(
          "plan references a column family missing from the schema: " +
          s.step->cf->ToString());
    }
    std::vector<Row> next;
    for (const Row& ctx : contexts) {
      Row bound = ctx;
      ValueTuple partition;
      ValueTuple prefix;
      NOSE_RETURN_IF_ERROR(
          BuildKey(s.partition, layout, ctx, &bound, &partition));
      NOSE_RETURN_IF_ERROR(BuildKey(s.prefix, layout, ctx, &bound, &prefix));
      std::optional<RangeBound> range;
      if (s.range.has_value()) {
        const Value* v = s.range->Resolve(ctx);
        if (v == nullptr) return s.range->Unbound();
        range = RangeBound{s.range->pred->op, *v};
      }
      NOSE_ASSIGN_OR_RETURN(std::vector<RecordStore::Row> rows,
                            store->Get(*s.cf_name, partition, prefix, range));

      for (RecordStore::Row& row : rows) {
        Row out = bound;
        MoveCells(s.clustering, &row.clustering, &out);
        MoveCells(s.values, &row.values, &out);
        bool keep = true;
        for (const Operand& f : s.filters) {
          const Value* v = f.Resolve(ctx);
          if (v == nullptr) return f.Unbound();
          if (!out[f.slot].has_value() ||
              !CompareValues(f.pred->op, *out[f.slot], *v)) {
            keep = false;
            break;
          }
        }
        if (keep) next.push_back(std::move(out));
      }
    }
    KeepFirstDistinct(&next, s.dedupe);
    contexts = std::move(next);
  }
  return contexts;
}

}  // namespace

StatusOr<std::vector<ValueTuple>> PlanExecutor::ExecuteQuery(
    const QueryPlan& plan, const Params& params) {
  obs::Span span("executor.query", "executor");
  static obs::Counter& queries_counter =
      obs::MetricsRegistry::Global().GetCounter("executor.queries");
  queries_counter.Increment();
  const Query& query = *plan.query;
  SlotLayout layout;
  const std::vector<size_t> select = layout.Slots(query.select());
  std::vector<size_t> order;
  for (const OrderField& o : query.order_by()) {
    order.push_back(layout.Slot(o.field));
  }
  const std::vector<StepSlots> steps =
      ResolvePlan(plan, params, *schema_, &layout);
  std::vector<Row> start;
  start.emplace_back(layout.size());
  NOSE_ASSIGN_OR_RETURN(std::vector<Row> contexts,
                        RunSteps(store_, layout, steps, std::move(start)));

  if (plan.needs_sort || !order.empty()) {
    static obs::Counter& sorts_counter =
        obs::MetricsRegistry::Global().GetCounter("executor.client_sorts");
    sorts_counter.Increment();
    // A stable client-side sort by the ORDER BY fields; when the plan
    // already delivers clustered order this is a cheap no-op pass kept for
    // simplicity of the executor (the *simulated* cost only charges the
    // sort when plan.needs_sort).
    std::stable_sort(contexts.begin(), contexts.end(),
                     [&](const Row& a, const Row& b) {
                       for (size_t s : order) {
                         if (!a[s].has_value() || !b[s].has_value()) continue;
                         if (*a[s] < *b[s]) return true;
                         if (*b[s] < *a[s]) return false;
                       }
                       return false;
                     });
  }

  for (const Row& ctx : contexts) {
    for (size_t s : select) {
      if (!ctx[s].has_value()) {
        return Status::Internal("executed plan did not produce select field");
      }
    }
  }
  KeepFirstDistinct(&contexts, select);
  std::vector<ValueTuple> result;
  result.reserve(contexts.size());
  for (const Row& ctx : contexts) {
    ValueTuple row;
    row.reserve(select.size());
    for (size_t s : select) row.push_back(*ctx[s]);
    result.push_back(std::move(row));
  }
  static obs::Counter& rows_counter =
      obs::MetricsRegistry::Global().GetCounter("executor.result_rows");
  rows_counter.Add(result.size());
  return result;
}

Status PlanExecutor::ExecuteUpdate(const UpdatePlan& plan,
                                   const Params& params) {
  obs::Span span("executor.update", "executor");
  static obs::Counter& updates_counter =
      obs::MetricsRegistry::Global().GetCounter("executor.updates");
  // Parts per update is the write-amplification numerator: one logical
  // statement fans out into one physical write sequence per affected
  // column family.
  static obs::Counter& parts_counter =
      obs::MetricsRegistry::Global().GetCounter("executor.update_parts");
  updates_counter.Increment();
  parts_counter.Add(plan.parts.size());
  const Update& update = *plan.update;
  const EntityGraph& graph = *update.graph();
  const std::string& target = update.entity();

  // Seed context from the statement's own bindings. `base` and `sets`
  // grow with the layout here and are widened once every part is resolved.
  SlotLayout layout;
  Row base;
  Row sets;  // SET clauses: new values
  auto put = [&](Row* row, const FieldRef& field, const Value& v) {
    const size_t slot = layout.Slot(field);
    if (row->size() <= slot) row->resize(slot + 1);
    (*row)[slot] = v;
  };
  auto bind = [&](const FieldRef& field, const std::optional<Value>& literal,
                  const std::string& param) -> Status {
    if (literal.has_value()) {
      put(&base, field, *literal);
      return Status::Ok();
    }
    auto it = params.find(param);
    if (it == params.end()) {
      return Status::InvalidArgument("unbound parameter ?" + param);
    }
    put(&base, field, it->second);
    return Status::Ok();
  };
  switch (update.kind()) {
    case UpdateKind::kUpdate:
    case UpdateKind::kDelete:
      for (const Predicate& p : update.predicates()) {
        if (p.IsEquality()) {
          NOSE_RETURN_IF_ERROR(bind(p.field, p.literal, p.param));
        }
      }
      break;
    case UpdateKind::kInsert:
      for (const ConnectClause& c : update.connects()) {
        std::optional<PathStep> step = graph.FindStep(target, c.step_name);
        if (!step.has_value()) {
          return Status::Internal("bad connect step " + c.step_name);
        }
        const std::string& neighbor = graph.StepTarget(target, *step);
        NOSE_RETURN_IF_ERROR(
            bind(IdRefOf(graph, neighbor), std::nullopt, c.param));
      }
      break;
    case UpdateKind::kConnect:
    case UpdateKind::kDisconnect: {
      const std::string& other =
          update.path().EntityAt(1);
      NOSE_RETURN_IF_ERROR(
          bind(IdRefOf(graph, target), std::nullopt, update.from_param()));
      NOSE_RETURN_IF_ERROR(
          bind(IdRefOf(graph, other), std::nullopt, update.to_param()));
      break;
    }
  }
  // SET clauses: new values; for INSERT they also identify the new record.
  for (const SetClause& s : update.sets()) {
    const FieldRef field{target, s.field};
    const Value* v = s.literal.has_value() ? &*s.literal : nullptr;
    if (v == nullptr) {
      auto it = params.find(s.param);
      if (it == params.end()) {
        return Status::InvalidArgument("unbound parameter ?" + s.param);
      }
      v = &it->second;
    }
    put(&sets, field, *v);
    if (update.kind() == UpdateKind::kInsert) put(&base, field, *v);
  }

  struct PartSlots {
    const std::string* cf_name;
    std::vector<std::vector<StepSlots>> support;
    std::vector<size_t> partition, clustering, values;
  };
  std::vector<PartSlots> parts;
  for (const UpdatePlanPart& part : plan.parts) {
    PartSlots p;
    p.cf_name = StoreName(*schema_, part.cf_id, *part.cf);
    for (const QueryPlan& sp : part.support_plans) {
      p.support.push_back(ResolvePlan(sp, params, *schema_, &layout));
    }
    p.partition = layout.Slots(part.cf->partition_key());
    p.clustering = layout.Slots(part.cf->clustering_key());
    p.values = layout.Slots(part.cf->values());
    parts.push_back(std::move(p));
  }
  base.resize(layout.size());
  sets.resize(layout.size());

  static obs::Counter& support_counter =
      obs::MetricsRegistry::Global().GetCounter("executor.support_queries");
  for (size_t i = 0; i < parts.size(); ++i) {
    const UpdatePlanPart& part = plan.parts[i];
    const PartSlots& p = parts[i];
    if (p.cf_name == nullptr) {
      return Status::FailedPrecondition(
          "update plan references a column family missing from the schema");
    }
    // Gather key attributes through the support plans.
    std::vector<Row> contexts = {base};
    for (const std::vector<StepSlots>& sp : p.support) {
      std::vector<Row> merged;
      for (Row& ctx : contexts) {
        support_counter.Increment();
        std::vector<Row> one;
        one.push_back(std::move(ctx));
        NOSE_ASSIGN_OR_RETURN(std::vector<Row> got,
                              RunSteps(store_, layout, sp, std::move(one)));
        for (Row& g : got) merged.push_back(std::move(g));
      }
      contexts = std::move(merged);
    }

    // A cell's value after the statement: the SET value, else the context's.
    auto after = [&](const Row& ctx, size_t slot) {
      return sets[slot].has_value() ? sets[slot] : ctx[slot];
    };
    for (const Row& ctx : contexts) {
      // Old key (pre-statement values).
      ValueTuple old_partition, old_clustering;
      auto collect = [&](const std::vector<size_t>& slots, ValueTuple* out) {
        for (size_t s : slots) {
          if (!ctx[s].has_value()) return false;
          out->push_back(*ctx[s]);
        }
        return true;
      };
      if (!collect(p.partition, &old_partition) ||
          !collect(p.clustering, &old_clustering)) {
        continue;  // no concrete record to touch
      }

      switch (update.kind()) {
        case UpdateKind::kDelete:
        case UpdateKind::kDisconnect:
          NOSE_RETURN_IF_ERROR(
              store_->Delete(*p.cf_name, old_partition, old_clustering));
          break;
        case UpdateKind::kInsert:
        case UpdateKind::kConnect: {
          std::vector<std::optional<Value>> values;
          for (size_t s : p.values) values.push_back(after(ctx, s));
          NOSE_RETURN_IF_ERROR(
              store_->Put(*p.cf_name, old_partition, old_clustering, values));
          break;
        }
        case UpdateKind::kUpdate: {
          ValueTuple new_partition = old_partition;
          ValueTuple new_clustering = old_clustering;
          if (part.delete_then_insert) {
            NOSE_RETURN_IF_ERROR(
                store_->Delete(*p.cf_name, old_partition, old_clustering));
            for (size_t k = 0; k < p.partition.size(); ++k) {
              const std::optional<Value>& set = sets[p.partition[k]];
              if (set.has_value()) new_partition[k] = *set;
            }
            for (size_t k = 0; k < p.clustering.size(); ++k) {
              const std::optional<Value>& set = sets[p.clustering[k]];
              if (set.has_value()) new_clustering[k] = *set;
            }
          }
          // Rewriting the whole record preserves known old values; an
          // in-place partial write leaves unset columns untouched.
          std::vector<std::optional<Value>> values;
          for (size_t s : p.values) {
            values.push_back(part.delete_then_insert ? after(ctx, s) : sets[s]);
          }
          NOSE_RETURN_IF_ERROR(
              store_->Put(*p.cf_name, new_partition, new_clustering, values));
          break;
        }
      }
    }
  }
  return Status::Ok();
}

}  // namespace nose

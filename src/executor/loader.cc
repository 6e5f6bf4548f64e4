#include "executor/loader.h"

#include <algorithm>
#include <functional>

namespace nose {

namespace {

/// Where one column of a column family comes from: column `column` of the
/// row table `table`, at the dataset row that path entity `entity_index`
/// is bound to. Resolved once per chunk, so the per-record work indexes
/// vectors instead of looking up entity and field names.
struct ColumnSource {
  size_t entity_index;
  const std::vector<ValueTuple>* table;
  size_t column;
};

std::vector<ColumnSource> SourcesFor(const Dataset& data, const KeyPath& path,
                                     const std::vector<FieldRef>& fields) {
  std::vector<ColumnSource> sources;
  sources.reserve(fields.size());
  for (const FieldRef& f : fields) {
    sources.push_back({static_cast<size_t>(path.IndexOfEntity(f.entity)),
                       &data.Rows(f.entity),
                       data.FieldIndex(f.entity, f.field)});
  }
  return sources;
}

}  // namespace

StatusOr<size_t> LoadColumnFamilyChunk(const Dataset& data,
                                       const ColumnFamily& cf,
                                       const std::string& name,
                                       RecordStore* store, size_t root_begin,
                                       size_t root_end) {
  const KeyPath& path = cf.path();
  const std::vector<ColumnSource> pk =
      SourcesFor(data, path, cf.partition_key());
  const std::vector<ColumnSource> ck =
      SourcesFor(data, path, cf.clustering_key());
  const std::vector<ColumnSource> vals = SourcesFor(data, path, cf.values());

  // DFS over path instances; rows[i] is the dataset row of path entity i.
  std::vector<size_t> rows(path.NumEntities());
  ValueTuple partition;
  ValueTuple clustering;
  std::vector<std::optional<Value>> values;
  auto cell = [&](const ColumnSource& source) -> const Value& {
    return (*source.table)[rows[source.entity_index]][source.column];
  };
  size_t written = 0;
  Status status;
  std::function<void(size_t)> walk = [&](size_t depth) {
    if (!status.ok()) return;
    if (depth == path.NumEntities()) {
      partition.clear();
      clustering.clear();
      values.clear();
      for (const ColumnSource& s : pk) partition.push_back(cell(s));
      for (const ColumnSource& s : ck) clustering.push_back(cell(s));
      for (const ColumnSource& s : vals) values.emplace_back(cell(s));
      Status s = store->Put(name, partition, clustering, values);
      if (!s.ok()) status = s;
      ++written;
      return;
    }
    const PathStep& step = path.steps()[depth - 1];
    for (uint32_t next : data.Neighbors(step, rows[depth - 1])) {
      rows[depth] = next;
      walk(depth + 1);
    }
  };
  const size_t end = std::min(root_end, data.RowCount(path.EntityAt(0)));
  for (size_t r0 = root_begin; r0 < end; ++r0) {
    rows[0] = r0;
    walk(1);
    if (!status.ok()) return status;
  }
  return written;
}

Status LoadSchema(const Dataset& data, const Schema& schema,
                  RecordStore* store) {
  for (size_t c = 0; c < schema.column_families().size(); ++c) {
    const ColumnFamily& cf = schema.column_families()[c];
    const std::string& name = schema.names()[c];

    if (!store->HasColumnFamily(name)) {
      NOSE_RETURN_IF_ERROR(store->CreateColumnFamily(
          name, cf.partition_key().size(), cf.clustering_key().size(),
          cf.values().size()));
    }

    // Loading is a bulk operation; do not charge it to the simulation.
    RecordStore::UnchargedLoadScope uncharged(store);
    StatusOr<size_t> loaded = LoadColumnFamilyChunk(
        data, cf, name, store, 0, data.RowCount(cf.path().EntityAt(0)));
    if (!loaded.ok()) return loaded.status();
  }
  return Status::Ok();
}

}  // namespace nose

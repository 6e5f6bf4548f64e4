// Executor edge cases: key-changing updates (delete + reinsert), multi-
// field partition keys, literal predicates, error propagation, exact-value
// duplicate elimination, and RUBiS store-traffic parity.

#include <cmath>

#include <gtest/gtest.h>

#include "advisor/advisor.h"
#include "executor/dataset.h"
#include "executor/loader.h"
#include "executor/plan_executor.h"
#include "rubis/datagen.h"
#include "rubis/model.h"
#include "rubis/workload.h"
#include "tests/hotel_fixture.h"
#include "tests/reference_evaluator.h"
#include "util/rng.h"

namespace nose {
namespace {

int64_t I(int64_t v) { return v; }

class ExecutorEdgeTest : public ::testing::Test {
 protected:
  ExecutorEdgeTest() : graph_(MakeHotelGraph()), data_(graph_.get()) {
    // Minimal data: 2 hotels, 6 rooms, 4 guests, 8 reservations.
    const char* cities[] = {"Boston", "NYC"};
    for (int64_t h = 0; h < 2; ++h) {
      data_.AddRow("Hotel", {Value(h), Value("H" + std::to_string(h)),
                             Value(std::string(cities[h])),
                             Value(std::string("S")), Value(std::string("A")),
                             Value(std::string("P"))});
    }
    for (int64_t r = 0; r < 6; ++r) {
      data_.AddRow("Room", {Value(r), Value(I(100 + r)),
                            Value(50.0 + 10.0 * static_cast<double>(r)),
                            Value(I(r % 3))});
      data_.AddLink(0, static_cast<size_t>(r % 2), static_cast<size_t>(r));
    }
    for (int64_t g = 0; g < 4; ++g) {
      data_.AddRow("Guest", {Value(g), Value("G" + std::to_string(g)),
                             Value("g" + std::to_string(g))});
    }
    Rng rng(3);
    for (int64_t v = 0; v < 8; ++v) {
      data_.AddRow("Reservation",
                   {Value(v), Value(I(rng.Uniform(100))),
                    Value(I(rng.Uniform(100)))});
      data_.AddLink(1, rng.Uniform(6), static_cast<size_t>(v));
      data_.AddLink(2, rng.Uniform(4), static_cast<size_t>(v));
    }
    for (int64_t p = 0; p < 3; ++p) {
      data_.AddRow("POI", {Value(p), Value("P" + std::to_string(p)),
                           Value("D" + std::to_string(p))});
      data_.AddLink(3, static_cast<size_t>(p % 2), static_cast<size_t>(p));
    }
    data_.AddRow("Amenity", {Value(I(0)), Value(std::string("wifi"))});
    data_.SyncCountsTo(graph_.get());
  }

  std::unique_ptr<EntityGraph> graph_;
  Dataset data_;
};

TEST_F(ExecutorEdgeTest, KeyChangingUpdateRewritesRecords) {
  // rooms-by-rate clustered on RoomRate: updating a rate must move the
  // record within the clustering order.
  auto path = graph_->ResolvePath("Room", {"Hotel"});
  Query q(*path, {{"Room", "RoomID"}, {"Room", "RoomRate"}},
          {{{"Hotel", "HotelCity"}, PredicateOp::kEq, std::nullopt, "city"},
           {{"Room", "RoomRate"}, PredicateOp::kGt, std::nullopt, "rate"}},
          {});
  Workload workload(graph_.get());
  ASSERT_TRUE(workload.AddQuery("rooms", std::move(q), 5.0).ok());
  auto room = graph_->SingleEntityPath("Room");
  auto upd = Update::MakeUpdate(
      *room, {{"RoomRate", std::nullopt, "newrate"}},
      {{{"Room", "RoomID"}, PredicateOp::kEq, std::nullopt, "room"}});
  ASSERT_TRUE(upd.ok());
  ASSERT_TRUE(workload.AddUpdate("reprice", std::move(upd).value(), 1.0).ok());

  Advisor advisor;
  auto rec = advisor.Recommend(workload);
  ASSERT_TRUE(rec.ok()) << rec.status();
  RecordStore store;
  ASSERT_TRUE(LoadSchema(data_, rec->schema, &store).ok());
  PlanExecutor executor(&store, &rec->schema);

  PlanExecutor::Params qp = {{"city", Value(std::string("Boston"))},
                             {"rate", Value(1000.0)}};
  auto before = executor.ExecuteQuery(rec->query_plans[0].second, qp);
  ASSERT_TRUE(before.ok());
  EXPECT_TRUE(before->empty());  // nothing above 1000

  // Reprice room 0 (a Boston room, hotel 0) to 2000.
  PlanExecutor::Params up = {{"room", Value(I(0))}, {"newrate", Value(2000.0)}};
  ASSERT_TRUE(
      executor.ExecuteUpdate(rec->update_plans[0].second, up).ok());

  auto after = executor.ExecuteQuery(rec->query_plans[0].second, qp);
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(after->size(), 1u);
  EXPECT_EQ(std::get<int64_t>((*after)[0][0]), 0);
  EXPECT_DOUBLE_EQ(std::get<double>((*after)[0][1]), 2000.0);

  // The old record must be gone: query the old rate band.
  PlanExecutor::Params old_band = {{"city", Value(std::string("Boston"))},
                                   {"rate", Value(0.0)}};
  auto all = executor.ExecuteQuery(rec->query_plans[0].second, old_band);
  ASSERT_TRUE(all.ok());
  int count0 = 0;
  for (const ValueTuple& row : *all) {
    if (std::get<int64_t>(row[0]) == 0) ++count0;
  }
  EXPECT_EQ(count0, 1);  // exactly one record for room 0
}

TEST_F(ExecutorEdgeTest, MultiFieldPartitionKeyAndLiteralPredicate) {
  // Query anchored by two equality predicates (city + literal floor).
  auto path = graph_->ResolvePath("Room", {"Hotel"});
  Query q(*path, {{"Room", "RoomID"}},
          {{{"Hotel", "HotelCity"}, PredicateOp::kEq, std::nullopt, "city"},
           {{"Room", "RoomFloor"}, PredicateOp::kEq, Value(I(1)), ""}},
          {});
  ASSERT_TRUE(q.Validate().ok());
  Workload workload(graph_.get());
  ASSERT_TRUE(workload.AddQuery("floor1", std::move(q)).ok());
  Advisor advisor;
  auto rec = advisor.Recommend(workload);
  ASSERT_TRUE(rec.ok()) << rec.status();
  RecordStore store;
  ASSERT_TRUE(LoadSchema(data_, rec->schema, &store).ok());
  PlanExecutor executor(&store, &rec->schema);

  PlanExecutor::Params params = {{"city", Value(std::string("NYC"))}};
  auto got = executor.ExecuteQuery(rec->query_plans[0].second, params);
  ASSERT_TRUE(got.ok()) << got.status();
  auto want =
      ReferenceEvaluate(data_, workload.FindEntry("floor1")->query(), params);
  EXPECT_EQ(CanonicalRows(*got), CanonicalRows(want));
}

TEST_F(ExecutorEdgeTest, MissingParameterIsReported) {
  Workload workload(graph_.get());
  ASSERT_TRUE(workload.AddQuery("q", MakeFig3Query(*graph_)).ok());
  Advisor advisor;
  auto rec = advisor.Recommend(workload);
  ASSERT_TRUE(rec.ok());
  RecordStore store;
  ASSERT_TRUE(LoadSchema(data_, rec->schema, &store).ok());
  PlanExecutor executor(&store, &rec->schema);
  auto got = executor.ExecuteQuery(rec->query_plans[0].second,
                                   {{"city", Value(std::string("Boston"))}});
  EXPECT_FALSE(got.ok());  // ?rate unbound
  EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ExecutorEdgeTest, PlanAgainstWrongSchemaIsReported) {
  Workload workload(graph_.get());
  ASSERT_TRUE(workload.AddQuery("q", MakeFig3Query(*graph_)).ok());
  Advisor advisor;
  auto rec = advisor.Recommend(workload);
  ASSERT_TRUE(rec.ok());
  Schema empty;
  RecordStore store;
  PlanExecutor executor(&store, &empty);
  auto got = executor.ExecuteQuery(
      rec->query_plans[0].second,
      {{"city", Value(std::string("Boston"))}, {"rate", Value(0.0)}});
  EXPECT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(ExecutorEdgeTest, DisconnectRemovesRelationshipRecords) {
  auto path = graph_->ResolvePath("Reservation", {"Guest"});
  Query q(*path, {{"Reservation", "ResID"}},
          {{{"Guest", "GuestID"}, PredicateOp::kEq, std::nullopt, "g"}}, {});
  Workload workload(graph_.get());
  ASSERT_TRUE(workload.AddQuery("res", std::move(q)).ok());
  auto dis = Update::MakeConnect(graph_.get(), "Guest", "g", "Reservations",
                                 "r", /*disconnect=*/true);
  ASSERT_TRUE(dis.ok());
  ASSERT_TRUE(workload.AddUpdate("dis", std::move(dis).value(), 1.0).ok());
  Advisor advisor;
  auto rec = advisor.Recommend(workload);
  ASSERT_TRUE(rec.ok()) << rec.status();
  RecordStore store;
  ASSERT_TRUE(LoadSchema(data_, rec->schema, &store).ok());
  PlanExecutor executor(&store, &rec->schema);

  // Find a guest with a reservation, disconnect it, verify it vanished.
  for (int64_t g = 0; g < 4; ++g) {
    PlanExecutor::Params qp = {{"g", Value(g)}};
    auto before = executor.ExecuteQuery(rec->query_plans[0].second, qp);
    ASSERT_TRUE(before.ok());
    if (before->empty()) continue;
    const int64_t res = std::get<int64_t>((*before)[0][0]);
    PlanExecutor::Params dp = {{"g", Value(g)}, {"r", Value(res)}};
    ASSERT_TRUE(
        executor.ExecuteUpdate(rec->update_plans[0].second, dp).ok());
    auto after = executor.ExecuteQuery(rec->query_plans[0].second, qp);
    ASSERT_TRUE(after.ok());
    EXPECT_EQ(after->size(), before->size() - 1);
    return;
  }
  GTEST_SKIP() << "no guest had reservations in this dataset";
}

TEST_F(ExecutorEdgeTest, DuplicateEliminationComparesExactValues) {
  // Rows that differ only past the sixth decimal of a double, or only in
  // where a "'|'" sits inside two strings, are distinct results; a true
  // duplicate (room 7 repeats room 0's rate) still collapses.
  data_.AddRow("Room", {Value(I(6)), Value(I(106)), Value(50.0000001),
                        Value(I(0))});
  data_.AddLink(0, 0, 6);
  data_.AddRow("Room", {Value(I(7)), Value(I(107)), Value(50.0), Value(I(1))});
  data_.AddLink(0, 0, 7);
  data_.AddRow("Room", {Value(I(8)), Value(I(108)), Value(90.0), Value(I(2))});
  data_.AddLink(0, 1, 8);
  const std::pair<const char*, const char*> names[] = {{"a'|'b", "c"},
                                                       {"a", "b'|'c"}};
  for (int64_t i = 0; i < 2; ++i) {
    data_.AddRow("Guest", {Value(I(4 + i)), Value(std::string(names[i].first)),
                           Value(std::string(names[i].second))});
    data_.AddRow("Reservation", {Value(I(8 + i)), Value(I(1)), Value(I(2))});
    data_.AddLink(1, 8, static_cast<size_t>(8 + i));
    data_.AddLink(2, static_cast<size_t>(4 + i), static_cast<size_t>(8 + i));
  }
  data_.SyncCountsTo(graph_.get());

  auto rooms = graph_->ResolvePath("Room", {"Hotel"});
  Query rates(*rooms, {{"Room", "RoomRate"}},
              {{{"Hotel", "HotelID"}, PredicateOp::kEq, std::nullopt, "h"}},
              {{{"Room", "RoomRate"}}});
  auto stays = graph_->ResolvePath("Guest", {"Reservations", "Room"});
  Query guests(*stays, {{"Guest", "GuestName"}, {"Guest", "GuestEmail"}},
               {{{"Room", "RoomID"}, PredicateOp::kEq, std::nullopt, "room"}},
               {});
  Workload workload(graph_.get());
  ASSERT_TRUE(workload.AddQuery("rates", std::move(rates)).ok());
  ASSERT_TRUE(workload.AddQuery("guests", std::move(guests)).ok());
  Advisor advisor;
  auto rec = advisor.Recommend(workload);
  ASSERT_TRUE(rec.ok()) << rec.status();
  RecordStore store;
  ASSERT_TRUE(LoadSchema(data_, rec->schema, &store).ok());
  PlanExecutor executor(&store, &rec->schema);
  auto plan_of = [&](const std::string& name) -> const QueryPlan& {
    for (const auto& [stmt, plan] : rec->query_plans) {
      if (stmt == name) return plan;
    }
    ADD_FAILURE() << "no plan for " << name;
    return rec->query_plans[0].second;
  };

  auto got_rates =
      executor.ExecuteQuery(plan_of("rates"), {{"h", Value(I(0))}});
  ASSERT_TRUE(got_rates.ok()) << got_rates.status();
  const std::vector<ValueTuple> want_rates = {
      {Value(50.0)}, {Value(50.0000001)}, {Value(70.0)}, {Value(90.0)}};
  EXPECT_EQ(*got_rates, want_rates);

  auto got_guests =
      executor.ExecuteQuery(plan_of("guests"), {{"room", Value(I(8))}});
  ASSERT_TRUE(got_guests.ok()) << got_guests.status();
  std::sort(got_guests->begin(), got_guests->end());
  const std::vector<ValueTuple> want_guests = {
      {Value(std::string("a")), Value(std::string("b'|'c"))},
      {Value(std::string("a'|'b")), Value(std::string("c"))}};
  EXPECT_EQ(*got_guests, want_guests);
}

/// Store traffic and result digest of one seeded RUBiS replay. The values
/// were recorded from the map-based executor the slot rows replaced, so a
/// change to the get/put/delete sequence or to the returned rows (or their
/// order) moves at least one of them.
struct ReplayGolden {
  const char* mix;
  uint64_t gets, puts, deletes, rows_read, rows_written, bytes_read;
  int64_t simulated_ns;
  uint64_t result_rows;
  uint64_t rows_digest;  ///< FNV-1a over the rendered rows, in order
};

double MixTransactionWeight(const rubis::Transaction& tx,
                            const std::string& mix) {
  if (mix == rubis::kBrowsingMix) return tx.browsing_weight;
  double w = tx.bidding_weight;
  if (tx.is_write && mix == rubis::kWrite10xMix) w *= 10.0;
  if (tx.is_write && mix == rubis::kWrite100xMix) w *= 100.0;
  return w;
}

TEST(ExecutorReplayTest, RubisStoreTrafficMatchesGolden) {
  rubis::ModelScale scale;
  scale.regions = 4;
  scale.categories = 5;
  scale.users = 100;
  scale.items = 200;
  scale.old_items = 100;
  scale.bids = 1000;
  scale.buynows = 60;
  scale.comments = 200;
  auto graph = rubis::MakeGraph(scale);
  ASSERT_TRUE(graph.ok()) << graph.status();
  const Dataset data = rubis::GenerateData(graph->get(), scale, 7);
  auto workload = rubis::MakeWorkload(**graph);
  ASSERT_TRUE(workload.ok()) << workload.status();

  const ReplayGolden goldens[] = {
      {rubis::kBrowsingMix, 3272, 0, 0, 27094, 0, 1106497, 1038000994, 27094,
       1636948024066730989ull},
      {rubis::kBiddingMix, 3675, 1015, 0, 30274, 1015, 1306737, 1525049906,
       29534, 187201301148249347ull},
      {rubis::kWrite10xMix, 10193, 3540, 0, 25188, 3540, 1309004, 4364338706,
       16398, 6924278551585340509ull},
      {rubis::kWrite100xMix, 3404, 5540, 0, 6779, 5540, 381586, 2997126460,
       3600, 12214249398479048856ull},
  };
  const std::vector<rubis::Transaction>& txs = rubis::Transactions();
  for (const ReplayGolden& golden : goldens) {
    SCOPED_TRACE(golden.mix);
    Advisor advisor;
    auto rec = advisor.Recommend(**workload, golden.mix);
    ASSERT_TRUE(rec.ok()) << rec.status();
    std::map<std::string, const QueryPlan*> queries;
    for (const auto& [stmt, plan] : rec->query_plans) queries[stmt] = &plan;
    std::map<std::string, const UpdatePlan*> updates;
    for (const auto& [stmt, plan] : rec->update_plans) updates[stmt] = &plan;
    RecordStore store;
    ASSERT_TRUE(LoadSchema(data, rec->schema, &store).ok());
    PlanExecutor executor(&store, &rec->schema);
    // The replay writes; the reference reads the dataset, so each query is
    // also run against an unwritten copy of the store.
    RecordStore pristine;
    ASSERT_TRUE(LoadSchema(data, rec->schema, &pristine).ok());
    PlanExecutor pristine_executor(&pristine, &rec->schema);

    std::vector<double> cumulative;
    double total = 0.0;
    for (const rubis::Transaction& tx : txs) {
      total += MixTransactionWeight(tx, golden.mix);
      cumulative.push_back(total);
    }
    rubis::ParamGenerator gen(&data, 2024);
    Rng rng(11);
    uint64_t digest = 1469598103934665603ull;
    uint64_t result_rows = 0;
    for (int t = 0; t < 2000; ++t) {
      const double pick = rng.NextDouble() * total;
      const size_t index = std::min<size_t>(
          static_cast<size_t>(std::lower_bound(cumulative.begin(),
                                               cumulative.end(), pick) -
                              cumulative.begin()),
          txs.size() - 1);
      const rubis::Transaction& tx = txs[index];
      PlanExecutor::Params params;
      for (const std::string& stmt : tx.statements) {
        gen.AddStatementParams(*(*workload)->FindEntry(stmt), &params);
      }
      for (const std::string& stmt : tx.statements) {
        const WorkloadEntry* entry = (*workload)->FindEntry(stmt);
        if (!entry->IsQuery()) {
          ASSERT_EQ(updates.count(stmt), 1u) << stmt;
          Status s = executor.ExecuteUpdate(*updates[stmt], params);
          ASSERT_TRUE(s.ok()) << stmt << ": " << s;
          continue;
        }
        ASSERT_EQ(queries.count(stmt), 1u) << stmt;
        auto rows = executor.ExecuteQuery(*queries[stmt], params);
        ASSERT_TRUE(rows.ok()) << stmt << ": " << rows.status();
        auto unwritten =
            pristine_executor.ExecuteQuery(*queries[stmt], params);
        ASSERT_TRUE(unwritten.ok()) << stmt << ": " << unwritten.status();
        const auto want = ReferenceEvaluate(data, entry->query(), params);
        EXPECT_EQ(CanonicalRows(*unwritten), CanonicalRows(want)) << stmt;
        result_rows += rows->size();
        for (const ValueTuple& row : *rows) {
          for (char c : stmt + ValueTupleToString(row) + "\n") {
            digest ^= static_cast<unsigned char>(c);
            digest *= 1099511628211ull;
          }
        }
      }
    }
    const StoreStats stats = store.stats();
    EXPECT_EQ(stats.gets, golden.gets);
    EXPECT_EQ(stats.puts, golden.puts);
    EXPECT_EQ(stats.deletes, golden.deletes);
    EXPECT_EQ(stats.rows_read, golden.rows_read);
    EXPECT_EQ(stats.rows_written, golden.rows_written);
    EXPECT_EQ(stats.bytes_read, golden.bytes_read);
    EXPECT_EQ(std::llround(stats.simulated_ms * 1e6), golden.simulated_ns);
    EXPECT_EQ(result_rows, golden.result_rows);
    EXPECT_EQ(digest, golden.rows_digest);
  }
}

}  // namespace
}  // namespace nose

/// Microbenchmarks for the relational engine substrate (google-benchmark):
/// real (wall-clock) cost of the operations the simulation executes, to
/// confirm the simulator itself is not the bottleneck of the benches.
#include <benchmark/benchmark.h>

#include <span>
#include <vector>

#include "apps/bookstore/schema.hpp"
#include "db/executor.hpp"
#include "db/parser.hpp"

namespace {

using namespace mwsim;

struct Fixture {
  db::Database database;
  db::Executor exec{database};

  Fixture() {
    apps::bookstore::Scale scale;
    scale.scale = 0.02;
    apps::bookstore::createSchema(database);
    sim::Rng rng(1);
    apps::bookstore::populate(database, scale, rng);
  }
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

/// Runs a planned SELECT through its cached plan but past the executor's
/// read memo, so a benchmark that repeats its parameters times the query,
/// not a memo hit (BM_PlannedBestSellersMemoHit times the hit).
db::ExecResult executeUnmemoized(Fixture& f, const db::PlannedStatement& stmt,
                                 std::span<const db::Value> params = {}) {
  return f.exec.executePlan(*stmt.planFor(f.database), params);
}

void BM_ParseSelect(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        db::parseSql("SELECT i_id, i_title FROM items WHERE i_subject = ? "
                     "ORDER BY i_pub_date DESC LIMIT 50"));
  }
}
BENCHMARK(BM_ParseSelect);

void BM_PkLookup(benchmark::State& state) {
  auto& f = fixture();
  const auto stmt = db::parseSql("SELECT * FROM items WHERE i_id = ?");
  std::int64_t id = 1;
  for (auto _ : state) {
    const db::Value params[] = {db::Value(id)};
    benchmark::DoNotOptimize(f.exec.execute(*stmt, params));
    id = id % 10'000 + 1;
  }
}
BENCHMARK(BM_PkLookup);

void BM_SecondaryIndexLookup(benchmark::State& state) {
  auto& f = fixture();
  const auto stmt = db::parseSql(
      "SELECT i_id, i_title FROM items WHERE i_subject = ? ORDER BY i_pub_date DESC "
      "LIMIT 50");
  std::int64_t subject = 0;
  for (auto _ : state) {
    const db::Value params[] = {db::Value(subject)};
    benchmark::DoNotOptimize(f.exec.execute(*stmt, params));
    subject = (subject + 1) % 24;
  }
}
BENCHMARK(BM_SecondaryIndexLookup);

void BM_FullScanLike(benchmark::State& state) {
  auto& f = fixture();
  const auto stmt =
      db::parseSql("SELECT i_id FROM items WHERE i_title LIKE '%abc%' LIMIT 50");
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.exec.execute(*stmt));
  }
}
BENCHMARK(BM_FullScanLike);

void BM_ThreeWayJoinGroupBy(benchmark::State& state) {
  auto& f = fixture();
  const auto stmt = db::parseSql(
      "SELECT ol.ol_i_id AS i_id, SUM(ol.ol_qty) AS total FROM order_line ol "
      "JOIN items i ON ol.ol_i_id = i.i_id JOIN authors a ON i.i_a_id = a.a_id "
      "WHERE ol.ol_o_id >= ? GROUP BY ol.ol_i_id ORDER BY total DESC LIMIT 50");
  const std::int64_t horizon =
      static_cast<std::int64_t>(f.database.table("orders").size()) - 500;
  for (auto _ : state) {
    const db::Value params[] = {db::Value(horizon)};
    benchmark::DoNotOptimize(f.exec.execute(*stmt, params));
  }
}
BENCHMARK(BM_ThreeWayJoinGroupBy);

void BM_PlannedThreeWayJoinGroupBy(benchmark::State& state) {
  auto& f = fixture();
  const db::PlannedStatement stmt(db::parseSql(
      "SELECT ol.ol_i_id AS i_id, SUM(ol.ol_qty) AS total FROM order_line ol "
      "JOIN items i ON ol.ol_i_id = i.i_id JOIN authors a ON i.i_a_id = a.a_id "
      "WHERE ol.ol_o_id >= ? GROUP BY ol.ol_i_id ORDER BY total DESC LIMIT 50"));
  const std::int64_t horizon =
      static_cast<std::int64_t>(f.database.table("orders").size()) - 500;
  for (auto _ : state) {
    const db::Value params[] = {db::Value(horizon)};
    benchmark::DoNotOptimize(executeUnmemoized(f, stmt, params));
  }
}
BENCHMARK(BM_PlannedThreeWayJoinGroupBy);

void BM_UpdateByPk(benchmark::State& state) {
  auto& f = fixture();
  const auto stmt =
      db::parseSql("UPDATE items SET i_stock = i_stock - 1 WHERE i_id = ?");
  std::int64_t id = 1;
  for (auto _ : state) {
    const db::Value params[] = {db::Value(id)};
    benchmark::DoNotOptimize(f.exec.execute(*stmt, params));
    id = id % 10'000 + 1;
  }
}
BENCHMARK(BM_UpdateByPk);

void BM_AggregateFastPath(benchmark::State& state) {
  auto& f = fixture();
  const auto stmt = db::parseSql("SELECT MAX(o_id) AS m FROM orders");
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.exec.execute(*stmt));
  }
}
BENCHMARK(BM_AggregateFastPath);

// --- planned-statement variants ---
//
// The ad-hoc benchmarks above rebuild the query plan on every execution
// (name resolution, index selection, join ordering). These run the same
// statements through a PlannedStatement, the way mw::StatementCache serves
// the simulated middleware: the plan is built once and re-executed with
// fresh parameter bindings. The spread between each pair is what plan
// caching buys on the repeated-statement hot path. Planned SELECTs the read
// memo would serve run past it (executeUnmemoized); point lookups and
// index-metadata aggregates bypass the memo anyway and take the full
// execute() path.

void BM_BuildPlan(benchmark::State& state) {
  auto& f = fixture();
  const auto stmt = db::parseSql(
      "SELECT i_id, i_title FROM items WHERE i_subject = ? "
      "ORDER BY i_pub_date DESC LIMIT 50");
  for (auto _ : state) {
    benchmark::DoNotOptimize(db::buildPlan(*stmt, f.database));
  }
}
BENCHMARK(BM_BuildPlan);

void BM_PlannedPkLookup(benchmark::State& state) {
  auto& f = fixture();
  const db::PlannedStatement stmt(db::parseSql("SELECT * FROM items WHERE i_id = ?"));
  std::int64_t id = 1;
  for (auto _ : state) {
    const db::Value params[] = {db::Value(id)};
    benchmark::DoNotOptimize(f.exec.execute(stmt, params));
    id = id % 10'000 + 1;
  }
}
BENCHMARK(BM_PlannedPkLookup);

void BM_PlannedSecondaryIndexLookup(benchmark::State& state) {
  auto& f = fixture();
  const db::PlannedStatement stmt(db::parseSql(
      "SELECT i_id, i_title FROM items WHERE i_subject = ? ORDER BY i_pub_date DESC "
      "LIMIT 50"));
  std::int64_t subject = 0;
  for (auto _ : state) {
    const db::Value params[] = {db::Value(subject)};
    benchmark::DoNotOptimize(executeUnmemoized(f, stmt, params));
    subject = (subject + 1) % 24;
  }
}
BENCHMARK(BM_PlannedSecondaryIndexLookup);

void BM_PlannedOrderedIndexLimit(benchmark::State& state) {
  // ORDER BY on an indexed column with LIMIT: the planner elides the sort
  // and walks the index, stopping after OFFSET+LIMIT rows.
  auto& f = fixture();
  const db::PlannedStatement stmt(db::parseSql(
      "SELECT i_id, i_title FROM items ORDER BY i_pub_date DESC LIMIT 50"));
  for (auto _ : state) {
    benchmark::DoNotOptimize(executeUnmemoized(f, stmt));
  }
}
BENCHMARK(BM_PlannedOrderedIndexLimit);

void BM_PlannedUpdateByPk(benchmark::State& state) {
  auto& f = fixture();
  const db::PlannedStatement stmt(
      db::parseSql("UPDATE items SET i_stock = i_stock - 1 WHERE i_id = ?"));
  std::int64_t id = 1;
  for (auto _ : state) {
    const db::Value params[] = {db::Value(id)};
    benchmark::DoNotOptimize(f.exec.execute(stmt, params));
    id = id % 10'000 + 1;
  }
}
BENCHMARK(BM_PlannedUpdateByPk);

void BM_PlannedAggregateFastPath(benchmark::State& state) {
  auto& f = fixture();
  const db::PlannedStatement stmt(db::parseSql("SELECT MAX(o_id) AS m FROM orders"));
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.exec.execute(stmt));
  }
}
BENCHMARK(BM_PlannedAggregateFastPath);

// The two read statements the bookstore spends most of its SQL time on, as
// the application issues them (src/apps/bookstore/bookstore.cpp). Unlike
// BM_PlannedThreeWayJoinGroupBy they project strings, so what a query pays
// per output row, as against per candidate, shows here.

constexpr const char* kBestSellersSql =
    "SELECT ol.ol_i_id AS i_id, i.i_title AS i_title, a.a_fname AS a_fname, "
    "a.a_lname AS a_lname, SUM(ol.ol_qty) AS total "
    "FROM order_line ol JOIN items i ON ol.ol_i_id = i.i_id "
    "JOIN authors a ON i.i_a_id = a.a_id "
    "WHERE ol.ol_o_id >= ? GROUP BY ol.ol_i_id ORDER BY total DESC LIMIT 50";

void BM_PlannedBestSellers(benchmark::State& state) {
  auto& f = fixture();
  const db::PlannedStatement stmt(db::parseSql(kBestSellersSql));
  const std::int64_t horizon =
      f.exec.query("SELECT MAX(o_id) AS m FROM orders").resultSet.intAt(0, "m") - 3333;
  for (auto _ : state) {
    const db::Value params[] = {db::Value(horizon)};
    benchmark::DoNotOptimize(executeUnmemoized(f, stmt, params));
  }
}
BENCHMARK(BM_PlannedBestSellers);

// The same statement and parameters through execute(): after the first
// iteration every call is a read-memo hit, which copies the stored 50-row
// result instead of re-running the join.
void BM_PlannedBestSellersMemoHit(benchmark::State& state) {
  auto& f = fixture();
  const db::PlannedStatement stmt(db::parseSql(kBestSellersSql));
  const std::int64_t horizon =
      f.exec.query("SELECT MAX(o_id) AS m FROM orders").resultSet.intAt(0, "m") - 3333;
  for (auto _ : state) {
    const db::Value params[] = {db::Value(horizon)};
    benchmark::DoNotOptimize(f.exec.execute(stmt, params));
  }
}
BENCHMARK(BM_PlannedBestSellersMemoHit);

void BM_PlannedTitleSearch(benchmark::State& state) {
  auto& f = fixture();
  const db::PlannedStatement stmt(db::parseSql(
      "SELECT i.i_id, i.i_title, i.i_srp, a.a_fname, a.a_lname "
      "FROM items i JOIN authors a ON i.i_a_id = a.a_id "
      "WHERE i.i_title LIKE ? ORDER BY i.i_title LIMIT 50"));
  // Three-character needles drawn the way the application draws them.
  sim::Rng rng(7);
  std::vector<db::Value> needles;
  for (int i = 0; i < 16; ++i) needles.emplace_back("%" + rng.randomString(3) + "%");
  std::size_t next = 0;
  for (auto _ : state) {
    const db::Value params[] = {needles[next]};
    benchmark::DoNotOptimize(executeUnmemoized(f, stmt, params));
    next = (next + 1) % needles.size();
  }
}
BENCHMARK(BM_PlannedTitleSearch);

// The insert benchmarks mutate the fixture (order_line grows by one row per
// iteration), so they run last: every read benchmark above — ad hoc and
// planned alike — measures against identical data.
void BM_InsertOrderLine(benchmark::State& state) {
  auto& f = fixture();
  const auto stmt = db::parseSql(
      "INSERT INTO order_line (ol_o_id, ol_i_id, ol_qty, ol_discount) VALUES "
      "(?, ?, ?, ?)");
  std::int64_t o = 1;
  for (auto _ : state) {
    const db::Value params[] = {db::Value(o), db::Value(o % 10'000 + 1), db::Value(1),
                                db::Value(0.0)};
    benchmark::DoNotOptimize(f.exec.execute(*stmt, params));
    ++o;
  }
}
BENCHMARK(BM_InsertOrderLine);

void BM_PlannedInsertOrderLine(benchmark::State& state) {
  auto& f = fixture();
  const db::PlannedStatement stmt(db::parseSql(
      "INSERT INTO order_line (ol_o_id, ol_i_id, ol_qty, ol_discount) VALUES "
      "(?, ?, ?, ?)"));
  std::int64_t o = 1;
  for (auto _ : state) {
    const db::Value params[] = {db::Value(o), db::Value(o % 10'000 + 1), db::Value(1),
                                db::Value(0.0)};
    benchmark::DoNotOptimize(f.exec.execute(stmt, params));
    ++o;
  }
}
BENCHMARK(BM_PlannedInsertOrderLine);

}  // namespace

BENCHMARK_MAIN();

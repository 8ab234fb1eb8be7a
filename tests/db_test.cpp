#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "db/database.hpp"
#include "db/executor.hpp"
#include "db/lexer.hpp"
#include "db/parser.hpp"

namespace mwsim::db {
namespace {

// ------------------------------------------------------------------- Value

TEST(ValueTest, NullBehaviour) {
  Value v;
  EXPECT_TRUE(v.isNull());
  EXPECT_EQ(v.toDisplayString(), "NULL");
  EXPECT_EQ(v.compare(Value()), 0);
  EXPECT_LT(v.compare(Value(0)), 0);  // NULL sorts before numbers
}

TEST(ValueTest, NumericCrossTypeComparison) {
  EXPECT_EQ(Value(1).compare(Value(1.0)), 0);
  EXPECT_LT(Value(1).compare(Value(1.5)), 0);
  EXPECT_GT(Value(2.5).compare(Value(2)), 0);
}

TEST(ValueTest, NumbersSortBeforeStrings) {
  EXPECT_LT(Value(999).compare(Value("abc")), 0);
}

TEST(ValueTest, StringComparison) {
  EXPECT_LT(Value("apple").compare(Value("banana")), 0);
  EXPECT_EQ(Value("x").compare(Value("x")), 0);
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(Value(7).hash(), Value(7.0).hash());
  EXPECT_EQ(Value("abc").hash(), Value(std::string("abc")).hash());
}

TEST(ValueTest, HashAgreesWithCompare) {
  constexpr std::int64_t kTwo53 = std::int64_t{1} << 53;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::pair<Value, Value> equalPairs[] = {
      {Value(kTwo53), Value(static_cast<double>(kTwo53))},
      {Value(-kTwo53), Value(-static_cast<double>(kTwo53))},
      {Value(kTwo53 + 2), Value(static_cast<double>(kTwo53 + 2))},  // exact past 2^53
      {Value(0.0), Value(-0.0)},
      {Value(0), Value(-0.0)},
      {Value(1e300), Value(1e300)},
      {Value(-1e300), Value(-1e300)},
      {Value(-0x1p63), Value(std::numeric_limits<std::int64_t>::min())},
      {Value(nan), Value(-nan)},  // every NaN is one value, whatever its bits
  };
  for (const auto& [a, b] : equalPairs) {
    ASSERT_EQ(a.compare(b), 0) << a.toDisplayString() << " vs " << b.toDisplayString();
    EXPECT_EQ(a.hash(), b.hash()) << a.toDisplayString() << " vs " << b.toDisplayString();
  }
}

TEST(ValueTest, CompareIsStrictWeakOrder) {
  constexpr std::int64_t kTwo53 = std::int64_t{1} << 53;
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double two53 = static_cast<double>(kTwo53);
  const std::vector<Value> values = {
      Value(), Value(nan), Value(-nan), Value(-inf), Value(-1e300), Value(-0x1p63),
      Value(kMin), Value(kMin + 1), Value(-kTwo53 - 1), Value(-kTwo53), Value(-two53),
      Value(-two53 - 2), Value(-0.5), Value(-0.0), Value(0.0), Value(0), Value(0.5),
      Value(1), Value(kTwo53 - 1), Value(kTwo53), Value(two53), Value(kTwo53 + 1),
      Value(two53 + 2), Value(kTwo53 + 2), Value(kMax - 1), Value(kMax), Value(0x1p63),
      Value(1e300), Value(inf), Value(""), Value("a")};
  auto sign = [](int c) { return (c > 0) - (c < 0); };
  for (const Value& a : values) {
    ASSERT_EQ(a.compare(a), 0) << a.toDisplayString();
    for (const Value& b : values) {
      const int ab = sign(a.compare(b));
      ASSERT_EQ(ab, -sign(b.compare(a))) << a.toDisplayString() << " vs " << b.toDisplayString();
      for (const Value& c : values) {
        const int bc = sign(b.compare(c));
        // < is transitive, and so is equivalence (compare() == 0).
        if (ab == bc && ab != 1) {
          ASSERT_EQ(sign(a.compare(c)), ab)
              << a.toDisplayString() << ", " << b.toDisplayString() << ", "
              << c.toDisplayString();
        }
        if (ab == 0) {
          ASSERT_EQ(sign(a.compare(c)), bc)
              << a.toDisplayString() << " ~ " << b.toDisplayString() << " vs "
              << c.toDisplayString();
        }
      }
    }
  }
  // An int meets a double by exact value, not through the double the int
  // would round to; NaN has one fixed place, below every other number.
  EXPECT_GT(Value(kTwo53 + 1).compare(Value(two53)), 0);
  EXPECT_LT(Value(-kTwo53 - 1).compare(Value(-two53)), 0);
  EXPECT_LT(Value(kMax).compare(Value(0x1p63)), 0);
  EXPECT_LT(Value(3).compare(Value(3.5)), 0);
  EXPECT_GT(Value(-3).compare(Value(-3.5)), 0);
  EXPECT_LT(Value(nan).compare(Value(-inf)), 0);
  EXPECT_LT(Value(nan).compare(Value(kMin)), 0);
  EXPECT_GT(Value(nan).compare(Value()), 0);
}

TEST(ValueTest, AsIntSaturatesOutOfRangeDoubles) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  EXPECT_EQ(Value(1e300).asInt(), kMax);
  EXPECT_EQ(Value(-1e300).asInt(), kMin);
  EXPECT_EQ(Value(0x1p63).asInt(), kMax);
  EXPECT_EQ(Value(-0x1p63).asInt(), kMin);
  EXPECT_EQ(Value(std::numeric_limits<double>::infinity()).asInt(), kMax);
  EXPECT_EQ(Value(std::numeric_limits<double>::quiet_NaN()).asInt(), 0);
  EXPECT_EQ(Value(-3.9).asInt(), -3);
}

TEST(ValueTest, Conversions) {
  EXPECT_EQ(Value(3.9).asInt(), 3);
  EXPECT_DOUBLE_EQ(Value(5).asDouble(), 5.0);
  EXPECT_THROW(Value("x").asInt(), std::runtime_error);
  EXPECT_THROW(Value(1).asString(), std::runtime_error);
}

// ------------------------------------------------------------------- Table

TableSchema itemsSchema() {
  return SchemaBuilder("items")
      .intCol("id").primaryKey(/*autoIncrement=*/true)
      .stringCol("name")
      .intCol("category").indexed()
      .doubleCol("price")
      .intCol("stock")
      .build();
}

TEST(TableTest, InsertAndPkLookup) {
  Table t(itemsSchema());
  t.insert({Value(1), Value("book"), Value(3), Value(9.99), Value(10)});
  t.insert({Value(2), Value("lamp"), Value(5), Value(19.99), Value(4)});
  ASSERT_TRUE(t.findByPk(Value(2)).has_value());
  EXPECT_EQ(t.row(*t.findByPk(Value(2)))[1].asString(), "lamp");
  EXPECT_FALSE(t.findByPk(Value(99)).has_value());
  EXPECT_EQ(t.size(), 2u);
}

TEST(TableTest, AutoIncrementAssignsIds) {
  Table t(itemsSchema());
  const auto id1 = t.insert({Value(), Value("a"), Value(1), Value(1.0), Value(1)});
  const auto id2 = t.insert({Value(), Value("b"), Value(1), Value(1.0), Value(1)});
  EXPECT_EQ(id1, 1);
  EXPECT_EQ(id2, 2);
  EXPECT_EQ(t.lastInsertId(), 2);
}

TEST(TableTest, AutoIncrementSkipsExplicitIds) {
  Table t(itemsSchema());
  t.insert({Value(100), Value("a"), Value(1), Value(1.0), Value(1)});
  const auto id = t.insert({Value(), Value("b"), Value(1), Value(1.0), Value(1)});
  EXPECT_EQ(id, 101);
}

TEST(TableTest, DuplicatePkThrows) {
  Table t(itemsSchema());
  t.insert({Value(1), Value("a"), Value(1), Value(1.0), Value(1)});
  EXPECT_THROW(t.insert({Value(1), Value("b"), Value(1), Value(1.0), Value(1)}),
               std::runtime_error);
}

TEST(TableTest, SecondaryIndexLookup) {
  Table t(itemsSchema());
  for (int i = 1; i <= 10; ++i) {
    t.insert({Value(i), Value("x"), Value(i % 3), Value(1.0), Value(1)});
  }
  const auto hits = t.findByIndex(2, Value(1));  // category == 1
  EXPECT_EQ(hits.size(), 4u);  // 1, 4, 7, 10
  for (RowId id : hits) EXPECT_EQ(t.row(id)[2].asInt(), 1);
}

TEST(TableTest, RangeScanInclusiveExclusive) {
  Table t(itemsSchema());
  for (int i = 1; i <= 10; ++i) {
    t.insert({Value(i), Value("x"), Value(i), Value(1.0), Value(1)});
  }
  auto r = t.findRangeByIndex(2, Value(3), true, Value(6), true);
  EXPECT_EQ(r.size(), 4u);
  r = t.findRangeByIndex(2, Value(3), false, Value(6), false);
  EXPECT_EQ(r.size(), 2u);
  r = t.findRangeByIndex(2, std::nullopt, true, Value(2), true);
  EXPECT_EQ(r.size(), 2u);
}

TEST(TableTest, UpdateCellMaintainsIndexes) {
  Table t(itemsSchema());
  t.insert({Value(1), Value("a"), Value(7), Value(1.0), Value(1)});
  t.updateCell(0, 2, Value(9));
  EXPECT_TRUE(t.findByIndex(2, Value(7)).empty());
  EXPECT_EQ(t.findByIndex(2, Value(9)).size(), 1u);
}

TEST(TableTest, UpdatePkMaintainsPkIndex) {
  Table t(itemsSchema());
  t.insert({Value(1), Value("a"), Value(7), Value(1.0), Value(1)});
  t.updateCell(0, 0, Value(42));
  EXPECT_FALSE(t.findByPk(Value(1)).has_value());
  ASSERT_TRUE(t.findByPk(Value(42)).has_value());
}

TEST(TableTest, EraseRemovesFromIndexes) {
  Table t(itemsSchema());
  t.insert({Value(1), Value("a"), Value(7), Value(1.0), Value(1)});
  t.insert({Value(2), Value("b"), Value(7), Value(1.0), Value(1)});
  t.erase(0);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_FALSE(t.findByPk(Value(1)).has_value());
  EXPECT_EQ(t.findByIndex(2, Value(7)).size(), 1u);
  int visited = 0;
  t.forEachRow([&](RowId) { ++visited; });
  EXPECT_EQ(visited, 1);
}

// ----------------------------------------------------------------- Journal

/// Two secondary indexes with large equal-key ranges (150 rows per category,
/// 200 per tag), so index order among equal keys is easy to disturb.
TableSchema journalSchema() {
  return SchemaBuilder("journal")
      .intCol("id").primaryKey(/*autoIncrement=*/true)
      .intCol("category").indexed()
      .stringCol("tag").indexed()
      .intCol("qty")
      .build();
}

std::unique_ptr<Table> populatedJournalTable() {
  auto t = std::make_unique<Table>(journalSchema());
  for (int i = 0; i < 600; ++i) {
    t->insert({Value(), Value(i % 4), Value("t" + std::to_string(i % 3)), Value(i)});
  }
  for (RowId id = 5; id < 600; id += 37) t->erase(id);  // pre-existing tombstones
  return t;
}

/// A seeded mix of every kind of write. Returns each primary key the writes
/// created or moved to, so the caller can probe the pk index for leftovers.
std::vector<Value> applySeededWrites(Table& t, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<Value> keys;
  const auto pickLive = [&] {
    RowId id = 0;
    do {
      id = static_cast<RowId>(rng() % 700);
    } while (!t.isLive(id));
    return id;
  };
  for (int step = 0; step < 400; ++step) {
    const Value cat(static_cast<std::int64_t>(rng() % 4));
    const Value tag("t" + std::to_string(rng() % 3));
    switch (rng() % 6) {
      case 0:  // auto-increment insert
        keys.emplace_back(t.insert({Value(), cat, tag, Value(step)}));
        break;
      case 1: {  // explicit-pk insert past the auto-increment counter
        const Value key(t.maxAssignedId() + 1 + static_cast<std::int64_t>(rng() % 3));
        t.insert({key, cat, tag, Value(step)});
        keys.push_back(key);
        break;
      }
      case 2: {  // move out of the middle of an equal range (or back into it)
        const RowId id = pickLive();
        t.updateCell(id, 1, cat);
        t.updateCell(id, 2, tag);
        break;
      }
      case 3: {  // pk update, far from ids the auto-increment will reach
        const Value key(static_cast<std::int64_t>(1'000'000 + step));
        t.updateCell(pickLive(), 0, key);
        keys.push_back(key);
        break;
      }
      case 4:
        t.erase(pickLive());
        break;
      case 5:  // unindexed column
        t.updateCell(pickLive(), 3, Value(-step));
        break;
    }
  }
  const Value taken = t.row(pickLive())[0];
  EXPECT_THROW(t.insert({taken, Value(0), Value("t0"), Value(0)}), std::runtime_error);
  return keys;
}

void expectSameValue(const Value& a, const Value& b) {
  EXPECT_EQ(a.isNull(), b.isNull());
  EXPECT_EQ(a.isInt(), b.isInt());
  EXPECT_EQ(a.isString(), b.isString());
  EXPECT_EQ(a.toDisplayString(), b.toDisplayString());
}

/// Equality through the public API only: slots, rows, counters, pk lookups
/// (for every live row and every probed key) and the full (value, id)
/// sequence of each secondary index.
void expectSameTable(const Table& a, const Table& b, const std::vector<Value>& probes) {
  EXPECT_EQ(a.size(), b.size());
  EXPECT_EQ(a.approxBytes(), b.approxBytes());
  EXPECT_EQ(a.maxAssignedId(), b.maxAssignedId());
  EXPECT_EQ(a.lastInsertId(), b.lastInsertId());
  RowId lastLive = 0;
  for (RowId id = 0; id < 2000; ++id) {
    ASSERT_EQ(a.isLive(id), b.isLive(id)) << "slot " << id;
    if (a.isLive(id)) lastLive = id;
  }
  // Every slot up to the last live row exists in both; compare dead ones too.
  for (RowId id = 0; id <= lastLive; ++id) {
    ASSERT_EQ(a.row(id).size(), b.row(id).size());
    for (std::size_t c = 0; c < a.row(id).size(); ++c) {
      expectSameValue(a.row(id)[c], b.row(id)[c]);
    }
  }
  a.forEachRow([&](RowId id) {
    const Value& key = a.row(id)[0];
    EXPECT_EQ(a.findByPk(key), std::optional<RowId>(id));
    EXPECT_EQ(b.findByPk(key), std::optional<RowId>(id));
  });
  for (const Value& key : probes) EXPECT_EQ(a.findByPk(key), b.findByPk(key));
  for (const std::size_t column : {std::size_t{1}, std::size_t{2}}) {
    const auto* ia = a.orderedIndex(column);
    const auto* ib = b.orderedIndex(column);
    ASSERT_NE(ia, nullptr);
    ASSERT_NE(ib, nullptr);
    ASSERT_EQ(ia->size(), ib->size());
    for (auto i = ia->begin(), j = ib->begin(); i != ia->end(); ++i, ++j) {
      expectSameValue(i->first, j->first);
      ASSERT_EQ(i->second, j->second) << "index on column " << column;
    }
  }
}

TEST(TableJournalTest, RollbackRestoresExactState) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(seed);
    const auto table = populatedJournalTable();
    Table& t = *table;
    const auto untouched = t.clone();
    t.beginJournal();
    std::vector<Value> probes = applySeededWrites(t, seed);
    t.rollback();
    expectSameTable(t, *untouched, probes);
    // The journal stays open: a second round rolls back just as exactly.
    const auto more = applySeededWrites(t, seed + 100);
    probes.insert(probes.end(), more.begin(), more.end());
    t.rollback();
    expectSameTable(t, *untouched, probes);
    // Same writes on both: future auto ids and index order must agree too.
    probes = applySeededWrites(t, seed + 200);
    applySeededWrites(*untouched, seed + 200);
    expectSameTable(t, *untouched, probes);
  }
}

TEST(TableJournalTest, RollbackWithoutJournalIsANoOp) {
  const auto table = populatedJournalTable();
  Table& t = *table;
  const auto before = t.clone();
  t.insert({Value(), Value(1), Value("t1"), Value(1)});
  t.rollback();  // nothing was journaled: the insert stays
  EXPECT_EQ(t.size(), before->size() + 1);
}

// ------------------------------------------------------------------- Lexer

TEST(LexerTest, TokenizesBasicSelect) {
  const auto tokens = lex("SELECT a, b FROM t WHERE x >= 10");
  EXPECT_EQ(tokens.front().type, TokenType::Identifier);
  EXPECT_EQ(tokens.front().upperText, "SELECT");
  EXPECT_EQ(tokens.back().type, TokenType::End);
}

TEST(LexerTest, StringEscapes) {
  const auto tokens = lex("SELECT 'it''s'");
  EXPECT_EQ(tokens[1].type, TokenType::String);
  EXPECT_EQ(tokens[1].text, "it's");
}

TEST(LexerTest, NumbersAndFloats) {
  const auto tokens = lex("1 2.5 .75");
  EXPECT_EQ(tokens[0].intValue, 1);
  EXPECT_DOUBLE_EQ(tokens[1].floatValue, 2.5);
  EXPECT_DOUBLE_EQ(tokens[2].floatValue, 0.75);
}

TEST(LexerTest, OperatorsTwoChar) {
  const auto tokens = lex("a <= b >= c != d <> e");
  EXPECT_EQ(tokens[1].type, TokenType::Le);
  EXPECT_EQ(tokens[3].type, TokenType::Ge);
  EXPECT_EQ(tokens[5].type, TokenType::Ne);
  EXPECT_EQ(tokens[7].type, TokenType::Ne);
}

TEST(LexerTest, ThrowsOnUnterminatedString) {
  EXPECT_THROW(lex("SELECT 'abc"), std::runtime_error);
}

TEST(LexerTest, ThrowsOnStrayBang) {
  EXPECT_THROW(lex("a ! b"), std::runtime_error);
}

// ------------------------------------------------------------------ Parser

TEST(ParserTest, SelectStructure) {
  auto stmt = parseSql(
      "SELECT id, name AS n FROM items WHERE category = ? AND price < 10.0 "
      "ORDER BY price DESC LIMIT 20 OFFSET 5");
  ASSERT_EQ(stmt->kind, Statement::Kind::Select);
  const auto& s = stmt->select;
  EXPECT_EQ(s.items.size(), 2u);
  EXPECT_EQ(s.items[1].alias, "n");
  EXPECT_EQ(s.from.table, "items");
  ASSERT_TRUE(s.where != nullptr);
  EXPECT_EQ(s.orderBy.size(), 1u);
  EXPECT_TRUE(s.orderBy[0].descending);
  EXPECT_EQ(s.limit, 20);
  EXPECT_EQ(s.offset, 5);
  EXPECT_EQ(stmt->paramCount, 1u);
}

TEST(ParserTest, JoinWithOn) {
  auto stmt = parseSql(
      "SELECT i.name, a.name FROM items i JOIN authors a ON i.author_id = a.id");
  const auto& s = stmt->select;
  ASSERT_EQ(s.joins.size(), 1u);
  EXPECT_EQ(s.joins[0].table.table, "authors");
  EXPECT_EQ(s.joins[0].table.alias, "a");
  ASSERT_TRUE(s.joins[0].on != nullptr);
  EXPECT_EQ(s.joins[0].on->kind, Expr::Kind::Binary);
  EXPECT_EQ(s.joins[0].on->op, BinOp::Eq);
}

TEST(ParserTest, JoinWithExpressionOn) {
  auto stmt = parseSql(
      "SELECT i.name FROM items i JOIN authors a ON i.author_id = a.id + 1 "
      "AND a.id < 100");
  const auto& s = stmt->select;
  ASSERT_EQ(s.joins.size(), 1u);
  ASSERT_TRUE(s.joins[0].on != nullptr);
  EXPECT_EQ(s.joins[0].on->op, BinOp::And);
}

TEST(ParserTest, WriteLimitOffset) {
  auto del = parseSql("DELETE FROM items WHERE stock = 0 LIMIT 10 OFFSET 2");
  ASSERT_EQ(del->kind, Statement::Kind::Delete);
  EXPECT_EQ(del->del.limit, 10);
  EXPECT_EQ(del->del.offset, 2);
  auto upd = parseSql("UPDATE items SET stock = stock - 1 LIMIT 3");
  ASSERT_EQ(upd->kind, Statement::Kind::Update);
  EXPECT_EQ(upd->update.limit, 3);
  EXPECT_EQ(upd->update.offset, 0);
}

TEST(ParserTest, GroupByAggregates) {
  auto stmt = parseSql(
      "SELECT item_id, SUM(qty) AS total FROM order_line GROUP BY item_id "
      "ORDER BY total DESC LIMIT 50");
  const auto& s = stmt->select;
  EXPECT_EQ(s.groupBy.size(), 1u);
  EXPECT_EQ(s.items[1].expr->kind, Expr::Kind::Aggregate);
  EXPECT_EQ(s.items[1].expr->agg, AggFunc::Sum);
}

TEST(ParserTest, InsertWithColumns) {
  auto stmt = parseSql("INSERT INTO t (a, b, c) VALUES (?, 'x', 3)");
  ASSERT_EQ(stmt->kind, Statement::Kind::Insert);
  EXPECT_EQ(stmt->insert.columns.size(), 3u);
  EXPECT_EQ(stmt->insert.values.size(), 3u);
  EXPECT_EQ(stmt->paramCount, 1u);
}

TEST(ParserTest, UpdateWithArithmetic) {
  auto stmt = parseSql("UPDATE items SET stock = stock - 1, price = ? WHERE id = ?");
  ASSERT_EQ(stmt->kind, Statement::Kind::Update);
  EXPECT_EQ(stmt->update.sets.size(), 2u);
  EXPECT_EQ(stmt->paramCount, 2u);
}

TEST(ParserTest, DeleteStatement) {
  auto stmt = parseSql("DELETE FROM bids WHERE item_id = 5");
  ASSERT_EQ(stmt->kind, Statement::Kind::Delete);
  EXPECT_EQ(stmt->del.table, "bids");
}

TEST(ParserTest, LockTables) {
  auto stmt = parseSql("LOCK TABLES items WRITE, authors READ");
  ASSERT_EQ(stmt->kind, Statement::Kind::LockTables);
  ASSERT_EQ(stmt->lockTables.items.size(), 2u);
  EXPECT_TRUE(stmt->lockTables.items[0].write);
  EXPECT_FALSE(stmt->lockTables.items[1].write);
}

TEST(ParserTest, UnlockTables) {
  auto stmt = parseSql("UNLOCK TABLES");
  EXPECT_EQ(stmt->kind, Statement::Kind::UnlockTables);
}

TEST(ParserTest, LikeExpression) {
  auto stmt = parseSql("SELECT * FROM items WHERE name LIKE 'harry%'");
  ASSERT_TRUE(stmt->select.where != nullptr);
  EXPECT_EQ(stmt->select.where->op, BinOp::Like);
}

TEST(ParserTest, SyntaxErrorsThrowWithContext) {
  try {
    parseSql("SELECT FROM");
    FAIL() << "expected parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("SELECT FROM"), std::string::npos);
  }
  EXPECT_THROW(parseSql("FROB x"), std::runtime_error);
  EXPECT_THROW(parseSql("SELECT * FROM t WHERE"), std::runtime_error);
  EXPECT_THROW(parseSql("INSERT INTO t VALUES (1"), std::runtime_error);
}

// ------------------------------------------------------------------- LIKE

TEST(LikeTest, Patterns) {
  EXPECT_TRUE(likeMatch("harry potter", "harry%"));
  EXPECT_TRUE(likeMatch("harry potter", "%potter"));
  EXPECT_TRUE(likeMatch("harry potter", "%rry pot%"));
  EXPECT_TRUE(likeMatch("abc", "abc"));
  EXPECT_TRUE(likeMatch("abc", "a_c"));
  EXPECT_FALSE(likeMatch("abc", "a_d"));
  EXPECT_FALSE(likeMatch("abc", "abcd%e"));
  EXPECT_TRUE(likeMatch("", "%"));
  EXPECT_FALSE(likeMatch("x", ""));
}

// ---------------------------------------------------------------- Executor

class ExecutorTest : public ::testing::Test {
 protected:
  ExecutorTest() : exec_(db_) {
    db_.createTable(itemsSchema());
    db_.createTable(SchemaBuilder("authors")
                        .intCol("id").primaryKey()
                        .stringCol("name")
                        .build());
    db_.createTable(SchemaBuilder("books")
                        .intCol("id").primaryKey(true)
                        .stringCol("title")
                        .intCol("author_id").indexed()
                        .doubleCol("price")
                        .build());
    exec_.query("INSERT INTO authors VALUES (1, 'tolkien')");
    exec_.query("INSERT INTO authors VALUES (2, 'rowling')");
    exec_.query("INSERT INTO books VALUES (NULL, 'lotr', 1, 20.0)");
    exec_.query("INSERT INTO books VALUES (NULL, 'hobbit', 1, 10.0)");
    exec_.query("INSERT INTO books VALUES (NULL, 'hp1', 2, 15.0)");
    for (int i = 1; i <= 20; ++i) {
      const Value params[] = {Value(i), Value("item" + std::to_string(i)),
                              Value(i % 4), Value(i * 1.5), Value(100 - i)};
      exec_.query("INSERT INTO items VALUES (?, ?, ?, ?, ?)", params);
    }
  }

  Database db_;
  Executor exec_;
};

TEST_F(ExecutorTest, SelectAllColumns) {
  auto r = exec_.query("SELECT * FROM authors ORDER BY id");
  ASSERT_EQ(r.resultSet.rowCount(), 2u);
  EXPECT_EQ(r.resultSet.columns, (std::vector<std::string>{"id", "name"}));
  EXPECT_EQ(r.resultSet.stringAt(0, "name"), "tolkien");
}

TEST_F(ExecutorTest, SelectByPrimaryKeyUsesIndex) {
  auto r = exec_.query("SELECT name FROM items WHERE id = 7");
  ASSERT_EQ(r.resultSet.rowCount(), 1u);
  EXPECT_EQ(r.resultSet.stringAt(0, "name"), "item7");
  EXPECT_TRUE(r.stats.usedIndex);
  EXPECT_EQ(r.stats.rowsExamined, 1u);
}

TEST_F(ExecutorTest, SelectBySecondaryIndex) {
  auto r = exec_.query("SELECT id FROM items WHERE category = 2");
  EXPECT_EQ(r.resultSet.rowCount(), 5u);  // 2, 6, 10, 14, 18
  EXPECT_TRUE(r.stats.usedIndex);
  EXPECT_EQ(r.stats.rowsExamined, 5u);
}

TEST_F(ExecutorTest, FullScanWhenNoIndex) {
  auto r = exec_.query("SELECT id FROM items WHERE stock > 95");
  EXPECT_EQ(r.resultSet.rowCount(), 4u);  // stock = 99, 98, 97, 96
  EXPECT_FALSE(r.stats.usedIndex);
  EXPECT_EQ(r.stats.rowsExamined, 20u);
}

TEST_F(ExecutorTest, IndexRangeScan) {
  auto r = exec_.query("SELECT id FROM items WHERE category >= 1 AND category <= 2");
  EXPECT_EQ(r.resultSet.rowCount(), 10u);
  EXPECT_TRUE(r.stats.usedIndex);
}

TEST_F(ExecutorTest, BoundParameters) {
  const Value params[] = {Value(3)};
  auto r = exec_.query("SELECT COUNT(*) AS n FROM items WHERE category = ?", params);
  EXPECT_EQ(r.resultSet.intAt(0, "n"), 5);
}

TEST_F(ExecutorTest, MissingParameterThrows) {
  EXPECT_THROW(exec_.query("SELECT * FROM items WHERE id = ?"), std::runtime_error);
}

TEST_F(ExecutorTest, JoinViaOnWithIndex) {
  auto r = exec_.query(
      "SELECT b.title, a.name FROM books b JOIN authors a ON b.author_id = a.id "
      "WHERE a.name = 'tolkien' ORDER BY b.title");
  ASSERT_EQ(r.resultSet.rowCount(), 2u);
  EXPECT_EQ(r.resultSet.stringAt(0, "title"), "hobbit");
  EXPECT_TRUE(r.stats.usedIndex);
}

TEST_F(ExecutorTest, JoinReversedOnCondition) {
  auto r = exec_.query(
      "SELECT b.title FROM authors a JOIN books b ON a.id = b.author_id "
      "WHERE a.id = 2");
  ASSERT_EQ(r.resultSet.rowCount(), 1u);
  EXPECT_EQ(r.resultSet.stringAt(0, "title"), "hp1");
}

TEST_F(ExecutorTest, CommaJoinWithWhereEquality) {
  auto r = exec_.query(
      "SELECT b.title FROM authors a, books b WHERE a.id = b.author_id AND "
      "a.name = 'rowling'");
  ASSERT_EQ(r.resultSet.rowCount(), 1u);
  EXPECT_EQ(r.resultSet.stringAt(0, "title"), "hp1");
}

TEST_F(ExecutorTest, GroupByWithAggregates) {
  auto r = exec_.query(
      "SELECT author_id, COUNT(*) AS n, SUM(price) AS total, MAX(price) AS mx "
      "FROM books GROUP BY author_id ORDER BY author_id");
  ASSERT_EQ(r.resultSet.rowCount(), 2u);
  EXPECT_EQ(r.resultSet.intAt(0, "n"), 2);
  EXPECT_DOUBLE_EQ(r.resultSet.doubleAt(0, "total"), 30.0);
  EXPECT_DOUBLE_EQ(r.resultSet.doubleAt(0, "mx"), 20.0);
  EXPECT_EQ(r.resultSet.intAt(1, "n"), 1);
}

TEST_F(ExecutorTest, AggregateWithoutGroupBy) {
  auto r = exec_.query("SELECT COUNT(*) AS n, AVG(price) AS avg FROM books");
  ASSERT_EQ(r.resultSet.rowCount(), 1u);
  EXPECT_EQ(r.resultSet.intAt(0, "n"), 3);
  EXPECT_NEAR(r.resultSet.doubleAt(0, "avg"), 15.0, 1e-9);
}

TEST_F(ExecutorTest, CountOverEmptyInputIsZero) {
  auto r = exec_.query("SELECT COUNT(*) AS n FROM books WHERE author_id = 99");
  ASSERT_EQ(r.resultSet.rowCount(), 1u);
  EXPECT_EQ(r.resultSet.intAt(0, "n"), 0);
}

TEST_F(ExecutorTest, OrderBySelectAliasDescending) {
  auto r = exec_.query(
      "SELECT author_id, COUNT(*) AS n FROM books GROUP BY author_id "
      "ORDER BY n DESC");
  ASSERT_EQ(r.resultSet.rowCount(), 2u);
  EXPECT_EQ(r.resultSet.intAt(0, "author_id"), 1);
}

TEST_F(ExecutorTest, OrderLimitOffset) {
  auto r = exec_.query("SELECT id FROM items ORDER BY id DESC LIMIT 3 OFFSET 2");
  ASSERT_EQ(r.resultSet.rowCount(), 3u);
  EXPECT_EQ(r.resultSet.intAt(0, "id"), 18);
  EXPECT_EQ(r.resultSet.intAt(2, "id"), 16);
  EXPECT_GT(r.stats.rowsSorted, 0u);
}

TEST_F(ExecutorTest, LikeFilter) {
  auto r = exec_.query("SELECT COUNT(*) AS n FROM items WHERE name LIKE 'item1%'");
  // item1, item10..item19 => 11
  EXPECT_EQ(r.resultSet.intAt(0, "n"), 11);
}

TEST_F(ExecutorTest, ArithmeticInProjection) {
  auto r = exec_.query("SELECT price * 2 AS dbl FROM books WHERE title = 'hobbit'");
  EXPECT_DOUBLE_EQ(r.resultSet.doubleAt(0, "dbl"), 20.0);
}

TEST_F(ExecutorTest, OrConditions) {
  auto r = exec_.query("SELECT COUNT(*) AS n FROM items WHERE id = 1 OR id = 2");
  EXPECT_EQ(r.resultSet.intAt(0, "n"), 2);
}

TEST_F(ExecutorTest, InsertAutoIncrementReturnsId) {
  auto r = exec_.query("INSERT INTO books (title, author_id, price) VALUES ('x', 1, 1.0)");
  EXPECT_EQ(r.lastInsertId, 4);
  EXPECT_EQ(r.affectedRows, 1u);
}

TEST_F(ExecutorTest, InsertCoercesNumericTypes) {
  exec_.query("INSERT INTO books VALUES (NULL, 'y', 2, 7)");  // int into double col
  auto r = exec_.query("SELECT price FROM books WHERE title = 'y'");
  EXPECT_TRUE(r.resultSet.at(0, "price").isDouble());
}

TEST_F(ExecutorTest, UpdateWithSelfReference) {
  exec_.query("UPDATE items SET stock = stock - 5 WHERE id = 1");
  auto r = exec_.query("SELECT stock FROM items WHERE id = 1");
  EXPECT_EQ(r.resultSet.intAt(0, "stock"), 94);
}

TEST_F(ExecutorTest, UpdateByIndexTouchesOnlyMatches) {
  auto r = exec_.query("UPDATE items SET stock = 0 WHERE category = 1");
  EXPECT_EQ(r.affectedRows, 5u);
  EXPECT_TRUE(r.stats.usedIndex);
  auto check = exec_.query("SELECT COUNT(*) AS n FROM items WHERE stock = 0");
  EXPECT_EQ(check.resultSet.intAt(0, "n"), 5);
}

TEST_F(ExecutorTest, UpdateIndexedColumnRelocatesRow) {
  exec_.query("UPDATE books SET author_id = 2 WHERE title = 'hobbit'");
  auto r = exec_.query("SELECT COUNT(*) AS n FROM books WHERE author_id = 2");
  EXPECT_EQ(r.resultSet.intAt(0, "n"), 2);
}

TEST_F(ExecutorTest, DeleteRemovesRows) {
  auto r = exec_.query("DELETE FROM items WHERE category = 0");
  EXPECT_EQ(r.affectedRows, 5u);
  auto count = exec_.query("SELECT COUNT(*) AS n FROM items");
  EXPECT_EQ(count.resultSet.intAt(0, "n"), 15);
}

TEST_F(ExecutorTest, SelectFromUnknownTableThrows) {
  EXPECT_THROW(exec_.query("SELECT * FROM nope"), std::runtime_error);
}

TEST_F(ExecutorTest, UnknownColumnThrows) {
  EXPECT_THROW(exec_.query("SELECT wibble FROM items"), std::runtime_error);
}

TEST_F(ExecutorTest, AmbiguousColumnThrows) {
  EXPECT_THROW(
      exec_.query("SELECT id FROM books b JOIN authors a ON b.author_id = a.id"),
      std::runtime_error);
}

TEST_F(ExecutorTest, ResultByteSizeNonZero) {
  auto r = exec_.query("SELECT * FROM items");
  EXPECT_GT(r.stats.resultBytes, 100u);
  EXPECT_EQ(r.stats.rowsReturned, 20u);
}

TEST_F(ExecutorTest, LockStatementsAreEngineNoOps) {
  auto r1 = exec_.query("LOCK TABLES items WRITE");
  auto r2 = exec_.query("UNLOCK TABLES");
  EXPECT_EQ(r1.affectedRows, 0u);
  EXPECT_EQ(r2.affectedRows, 0u);
}

TEST_F(ExecutorTest, DatabaseApproxBytesGrows) {
  const auto before = db_.approxBytes();
  exec_.query("INSERT INTO books VALUES (NULL, 'a-very-long-book-title', 1, 5.0)");
  EXPECT_GT(db_.approxBytes(), before);
}

// ------------------------------------------------------------- Read memo

/// Executor::execute(PlannedStatement) memoizes SELECTs per executor; these
/// pin when a stored result may be replayed and when it must not.
class ReadMemoTest : public ExecutorTest {
 protected:
  ExecResult run() {
    const Value params[] = {Value(12.0)};
    return exec_.execute(join_, params);
  }

  /// The same statement through an executor whose memo is empty.
  ExecResult fresh() {
    Executor other(db_);
    const Value params[] = {Value(12.0)};
    return other.execute(join_, params);
  }

  static void expectSameResult(const ExecResult& a, const ExecResult& b) {
    EXPECT_EQ(a.resultSet.columns, b.resultSet.columns);
    ASSERT_EQ(a.resultSet.rowCount(), b.resultSet.rowCount());
    for (std::size_t r = 0; r < a.resultSet.rowCount(); ++r) {
      for (std::size_t c = 0; c < a.resultSet.columns.size(); ++c) {
        const Value& x = a.resultSet.at(r, c);
        const Value& y = b.resultSet.at(r, c);
        EXPECT_EQ(x.compare(y), 0) << "row " << r << " column " << c;
        EXPECT_EQ(x.isDouble(), y.isDouble()) << "row " << r << " column " << c;
      }
    }
    EXPECT_EQ(a.stats.rowsExamined, b.stats.rowsExamined);
    EXPECT_EQ(a.stats.bytesExamined, b.stats.bytesExamined);
    EXPECT_EQ(a.stats.rowsReturned, b.stats.rowsReturned);
    EXPECT_EQ(a.stats.rowsSorted, b.stats.rowsSorted);
    EXPECT_EQ(a.stats.aggregatedGroups, b.stats.aggregatedGroups);
    EXPECT_EQ(a.stats.usedIndex, b.stats.usedIndex);
    EXPECT_EQ(a.stats.resultBytes, b.stats.resultBytes);
  }

  // Reads books and authors; prices 20 (lotr), 10 (hobbit) and 15 (hp1).
  PlannedStatement join_{parseSql(
      "SELECT b.title, a.name FROM books b JOIN authors a ON b.author_id = a.id "
      "WHERE b.price >= ? ORDER BY b.title")};
};

TEST_F(ReadMemoTest, WriteToATableThePlanReadsReExecutes) {
  ASSERT_TRUE(readMemoApplies(*join_.planFor(db_)));
  const ExecResult first = run();
  expectSameResult(run(), first);
  EXPECT_EQ(exec_.memoHits(), 1u);
  // One write per Table mutator, each changing the join's result.
  const char* const writes[] = {
      "INSERT INTO books VALUES (NULL, 'silmarillion', 1, 25.0)",  // insert
      "UPDATE books SET title = 'lotr2' WHERE id = 1",             // updateCell
      "DELETE FROM books WHERE id = 3",                            // erase
      "UPDATE authors SET name = 'jrr' WHERE id = 1",              // the other table
  };
  for (const char* write : writes) {
    SCOPED_TRACE(write);
    const ExecResult before = run();
    exec_.query(write);
    const std::uint64_t hits = exec_.memoHits();
    const ExecResult after = run();
    EXPECT_EQ(exec_.memoHits(), hits);
    expectSameResult(after, fresh());
    EXPECT_NE(before.resultSet.rows, after.resultSet.rows);
    expectSameResult(run(), after);  // the refreshed entry hits again
    EXPECT_EQ(exec_.memoHits(), hits + 1);
  }
}

TEST_F(ReadMemoTest, WriteToAnUnrelatedTableStillHits) {
  const ExecResult first = run();
  exec_.query("UPDATE items SET stock = 0 WHERE id = 3");
  exec_.query("INSERT INTO items VALUES (NULL, 'extra', 1, 1.0, 1)");
  exec_.query("DELETE FROM items WHERE id = 4");
  expectSameResult(run(), first);
  EXPECT_EQ(exec_.memoHits(), 1u);
}

TEST_F(ReadMemoTest, RollbackReExecutesAndMatchesAFreshExecutor) {
  db_.beginJournal();
  EXPECT_EQ(run().resultSet.rowCount(), 2u);
  exec_.query("INSERT INTO books VALUES (NULL, 'silmarillion', 1, 25.0)");
  EXPECT_EQ(run().resultSet.rowCount(), 3u);
  db_.rollback();  // back to the two-row state; only the version says so
  const ExecResult rolledBack = run();
  EXPECT_EQ(exec_.memoHits(), 0u);
  EXPECT_EQ(rolledBack.resultSet.rowCount(), 2u);
  expectSameResult(rolledBack, fresh());
}

TEST_F(ReadMemoTest, IntAndDoubleParametersAreSeparateEntries) {
  // 5 and 5.0 compare equal but project differently, so neither may be
  // served the other's result.
  PlannedStatement echo(parseSql("SELECT ? AS v FROM authors"));
  ASSERT_TRUE(readMemoApplies(*echo.planFor(db_)));
  const Value asInt[] = {Value(5)};
  const Value asDouble[] = {Value(5.0)};
  EXPECT_TRUE(exec_.execute(echo, asInt).resultSet.at(0, 0).isInt());
  EXPECT_TRUE(exec_.execute(echo, asDouble).resultSet.at(0, 0).isDouble());
  EXPECT_EQ(exec_.memoHits(), 0u);
  EXPECT_TRUE(exec_.execute(echo, asInt).resultSet.at(0, 0).isInt());
  EXPECT_TRUE(exec_.execute(echo, asDouble).resultSet.at(0, 0).isDouble());
  EXPECT_EQ(exec_.memoHits(), 2u);
}

TEST_F(ReadMemoTest, SingleTablePointLookupsBypassTheMemo) {
  PlannedStatement byPk(parseSql("SELECT name FROM authors WHERE id = ?"));
  PlannedStatement maxId(parseSql("SELECT MAX(id) AS m FROM books"));
  PlannedStatement byIndex(parseSql("SELECT title FROM books WHERE author_id = ?"));
  PlannedStatement insert(parseSql("INSERT INTO authors VALUES (?, 'x')"));
  EXPECT_FALSE(readMemoApplies(*byPk.planFor(db_)));
  EXPECT_FALSE(readMemoApplies(*maxId.planFor(db_)));
  EXPECT_TRUE(readMemoApplies(*byIndex.planFor(db_)));
  EXPECT_FALSE(readMemoApplies(*insert.planFor(db_)));
  const Value one[] = {Value(1)};
  exec_.execute(byPk, one);
  exec_.execute(byPk, one);
  exec_.execute(maxId);
  exec_.execute(maxId);
  EXPECT_EQ(exec_.memoHits(), 0u);
}

}  // namespace
}  // namespace mwsim::db

namespace mwsim::db {
namespace {

// ------------------------------------------------------ executor edge cases

class ExecutorEdgeTest : public ::testing::Test {
 protected:
  ExecutorEdgeTest() : exec_(db_) {
    db_.createTable(SchemaBuilder("e")
                        .intCol("id").primaryKey(true)
                        .intCol("v").indexed()
                        .stringCol("s")
                        .build());
    for (int i = 1; i <= 10; ++i) {
      const Value params[] = {Value(i % 3), Value("row" + std::to_string(i))};
      exec_.query("INSERT INTO e (v, s) VALUES (?, ?)", params);
    }
  }
  Database db_;
  Executor exec_;
};

TEST_F(ExecutorEdgeTest, SelectFromEmptyTable) {
  db_.createTable(SchemaBuilder("empty").intCol("x").primaryKey().build());
  auto r = exec_.query("SELECT * FROM empty");
  EXPECT_TRUE(r.resultSet.empty());
  auto agg = exec_.query("SELECT COUNT(*) AS n, MAX(x) AS m FROM empty");
  EXPECT_EQ(agg.resultSet.intAt(0, "n"), 0);
  EXPECT_TRUE(agg.resultSet.at(0, "m").isNull());
}

TEST_F(ExecutorEdgeTest, OffsetBeyondEnd) {
  auto r = exec_.query("SELECT id FROM e ORDER BY id LIMIT 5 OFFSET 100");
  EXPECT_TRUE(r.resultSet.empty());
}

TEST_F(ExecutorEdgeTest, LimitZero) {
  auto r = exec_.query("SELECT id FROM e LIMIT 0");
  EXPECT_TRUE(r.resultSet.empty());
}

TEST_F(ExecutorEdgeTest, OrderByMultipleKeys) {
  auto r = exec_.query("SELECT id, v FROM e ORDER BY v DESC, id ASC");
  ASSERT_EQ(r.resultSet.rowCount(), 10u);
  // First group is v=2 (ids 2,5,8 in ascending order).
  EXPECT_EQ(r.resultSet.intAt(0, "v"), 2);
  EXPECT_EQ(r.resultSet.intAt(0, "id"), 2);
  EXPECT_EQ(r.resultSet.intAt(1, "id"), 5);
}

TEST_F(ExecutorEdgeTest, DeleteByIndexThenReuseIndex) {
  exec_.query("DELETE FROM e WHERE v = 1");
  auto r = exec_.query("SELECT COUNT(*) AS n FROM e WHERE v = 1");
  EXPECT_EQ(r.resultSet.intAt(0, "n"), 0);
  // Insert again and find it through the index.
  exec_.query("INSERT INTO e (v, s) VALUES (1, 'fresh')");
  auto again = exec_.query("SELECT s FROM e WHERE v = 1");
  ASSERT_EQ(again.resultSet.rowCount(), 1u);
  EXPECT_EQ(again.resultSet.stringAt(0, "s"), "fresh");
}

TEST_F(ExecutorEdgeTest, UpdateNoMatchesAffectsNothing) {
  auto r = exec_.query("UPDATE e SET v = 99 WHERE id = 12345");
  EXPECT_EQ(r.affectedRows, 0u);
}

TEST_F(ExecutorEdgeTest, MaxMinFastPathMatchesScan) {
  auto fastMax = exec_.query("SELECT MAX(v) AS m FROM e");
  auto slowMax = exec_.query("SELECT MAX(v) AS m FROM e WHERE id > 0");
  EXPECT_EQ(fastMax.resultSet.intAt(0, "m"), slowMax.resultSet.intAt(0, "m"));
  auto fastCount = exec_.query("SELECT COUNT(*) AS n FROM e");
  auto slowCount = exec_.query("SELECT COUNT(*) AS n FROM e WHERE id > 0");
  EXPECT_EQ(fastCount.resultSet.intAt(0, "n"), slowCount.resultSet.intAt(0, "n"));
  EXPECT_LT(fastCount.stats.rowsExamined, slowCount.stats.rowsExamined);
}

TEST_F(ExecutorEdgeTest, MaxAutoIncrementPkIsO1) {
  auto r = exec_.query("SELECT MAX(id) AS m FROM e");
  EXPECT_EQ(r.resultSet.intAt(0, "m"), 10);
  EXPECT_LE(r.stats.rowsExamined, 1u);
}

TEST_F(ExecutorEdgeTest, NullComparisonsAreFalse) {
  db_.createTable(SchemaBuilder("n").intCol("id").primaryKey().intCol("x").build());
  exec_.query("INSERT INTO n VALUES (1, NULL)");
  exec_.query("INSERT INTO n VALUES (2, 5)");
  auto r = exec_.query("SELECT id FROM n WHERE x > 0");
  ASSERT_EQ(r.resultSet.rowCount(), 1u);
  EXPECT_EQ(r.resultSet.intAt(0, "id"), 2);
  auto eq = exec_.query("SELECT id FROM n WHERE x = 5");
  EXPECT_EQ(eq.resultSet.rowCount(), 1u);
}

TEST_F(ExecutorEdgeTest, SumAndAvgSkipNulls) {
  db_.createTable(SchemaBuilder("m").intCol("id").primaryKey().doubleCol("x").build());
  exec_.query("INSERT INTO m VALUES (1, 10.0)");
  exec_.query("INSERT INTO m VALUES (2, NULL)");
  exec_.query("INSERT INTO m VALUES (3, 20.0)");
  auto r = exec_.query("SELECT SUM(x) AS s, AVG(x) AS a, COUNT(x) AS c FROM m");
  EXPECT_DOUBLE_EQ(r.resultSet.doubleAt(0, "s"), 30.0);
  EXPECT_DOUBLE_EQ(r.resultSet.doubleAt(0, "a"), 15.0);
  EXPECT_EQ(r.resultSet.intAt(0, "c"), 2);
}

TEST_F(ExecutorEdgeTest, ParenthesizedBooleanExpressions) {
  auto r = exec_.query(
      "SELECT COUNT(*) AS n FROM e WHERE (v = 0 OR v = 1) AND id <= 5");
  // ids 1..5 with v != 2: ids 1(v1),3(v0),4(v1) and 5 has v=2 -> excluded; 2 has v=2.
  EXPECT_EQ(r.resultSet.intAt(0, "n"), 3);
}

TEST_F(ExecutorEdgeTest, ArithmeticPrecedence) {
  auto r = exec_.query("SELECT 2 + 3 * 4 AS x FROM e LIMIT 1");
  EXPECT_EQ(r.resultSet.intAt(0, "x"), 14);
  auto paren = exec_.query("SELECT (2 + 3) * 4 AS x FROM e LIMIT 1");
  EXPECT_EQ(paren.resultSet.intAt(0, "x"), 20);
}

TEST_F(ExecutorEdgeTest, DivisionByZeroYieldsNull) {
  auto r = exec_.query("SELECT 1 / 0 AS x FROM e LIMIT 1");
  EXPECT_TRUE(r.resultSet.at(0, "x").isNull());
}

TEST_F(ExecutorEdgeTest, StringEscapeRoundTrip) {
  exec_.query("INSERT INTO e (v, s) VALUES (7, 'it''s a test')");
  auto r = exec_.query("SELECT s FROM e WHERE v = 7");
  EXPECT_EQ(r.resultSet.stringAt(0, "s"), "it's a test");
}

}  // namespace
}  // namespace mwsim::db

namespace mwsim::db {
namespace {

// --------------------------------------------- extended SQL features

class SqlFeatureTest : public ::testing::Test {
 protected:
  SqlFeatureTest() : exec_(db_) {
    db_.createTable(SchemaBuilder("f")
                        .intCol("id").primaryKey(true)
                        .intCol("grp").indexed()
                        .intCol("v")
                        .stringCol("s")
                        .build());
    for (int i = 1; i <= 30; ++i) {
      const Value params[] = {Value(i % 5), Value(i * 10),
                              Value(i % 4 == 0 ? Value() : Value("s" + std::to_string(i)))};
      exec_.query("INSERT INTO f (grp, v, s) VALUES (?, ?, ?)", params);
    }
  }
  Database db_;
  Executor exec_;
};

TEST_F(SqlFeatureTest, InListOnPrimaryKeyUsesIndex) {
  auto r = exec_.query("SELECT id FROM f WHERE id IN (3, 7, 11) ORDER BY id");
  ASSERT_EQ(r.resultSet.rowCount(), 3u);
  EXPECT_EQ(r.resultSet.intAt(0, "id"), 3);
  EXPECT_TRUE(r.stats.usedIndex);
  EXPECT_EQ(r.stats.rowsExamined, 3u);
}

TEST_F(SqlFeatureTest, InListOnIndexedColumn) {
  auto r = exec_.query("SELECT COUNT(*) AS n FROM f WHERE grp IN (1, 2)");
  EXPECT_EQ(r.resultSet.intAt(0, "n"), 12);  // 6 per group
  EXPECT_TRUE(r.stats.usedIndex);
}

TEST_F(SqlFeatureTest, InListWithParams) {
  const Value params[] = {Value(5), Value(6)};
  auto r = exec_.query("SELECT id FROM f WHERE id IN (?, ?) ORDER BY id", params);
  ASSERT_EQ(r.resultSet.rowCount(), 2u);
}

TEST_F(SqlFeatureTest, NotIn) {
  auto r = exec_.query("SELECT COUNT(*) AS n FROM f WHERE grp NOT IN (0, 1, 2, 3)");
  EXPECT_EQ(r.resultSet.intAt(0, "n"), 6);  // grp == 4
}

TEST_F(SqlFeatureTest, Between) {
  auto r = exec_.query("SELECT COUNT(*) AS n FROM f WHERE v BETWEEN 100 AND 150");
  EXPECT_EQ(r.resultSet.intAt(0, "n"), 6);  // v = 100..150 step 10
  auto notBetween =
      exec_.query("SELECT COUNT(*) AS n FROM f WHERE v NOT BETWEEN 20 AND 290");
  EXPECT_EQ(notBetween.resultSet.intAt(0, "n"), 2);  // v=10 and v=300
}

TEST_F(SqlFeatureTest, IsNullAndIsNotNull) {
  auto nulls = exec_.query("SELECT COUNT(*) AS n FROM f WHERE s IS NULL");
  EXPECT_EQ(nulls.resultSet.intAt(0, "n"), 7);  // every 4th row of 30
  auto notNulls = exec_.query("SELECT COUNT(*) AS n FROM f WHERE s IS NOT NULL");
  EXPECT_EQ(notNulls.resultSet.intAt(0, "n"), 23);
}

TEST_F(SqlFeatureTest, NotPrefixOperator) {
  auto r = exec_.query("SELECT COUNT(*) AS n FROM f WHERE NOT (grp = 0)");
  EXPECT_EQ(r.resultSet.intAt(0, "n"), 24);
}

TEST_F(SqlFeatureTest, NotLike) {
  auto r = exec_.query("SELECT COUNT(*) AS n FROM f WHERE s NOT LIKE 's1%' AND s IS NOT NULL");
  // s1, s10..s19 minus the NULL slots (s12, s16 are NULL; s4, s8... are NULL)
  auto like = exec_.query("SELECT COUNT(*) AS n FROM f WHERE s LIKE 's1%'");
  auto notNull = exec_.query("SELECT COUNT(*) AS n FROM f WHERE s IS NOT NULL");
  EXPECT_EQ(r.resultSet.intAt(0, "n") + like.resultSet.intAt(0, "n"),
            notNull.resultSet.intAt(0, "n"));
}

TEST_F(SqlFeatureTest, HavingFiltersGroups) {
  // grp 0 appears 6 times; restrict to groups with at least 1 row where id > 25.
  auto r = exec_.query(
      "SELECT grp, COUNT(*) AS n FROM f WHERE id > 25 GROUP BY grp "
      "HAVING COUNT(*) > 1 ORDER BY grp");
  // ids 26..30 -> grps 1,2,3,4,0: each once => HAVING n>1 removes all.
  EXPECT_EQ(r.resultSet.rowCount(), 0u);
  auto loose = exec_.query(
      "SELECT grp, COUNT(*) AS n FROM f GROUP BY grp HAVING COUNT(*) > 5 ORDER BY grp");
  EXPECT_EQ(loose.resultSet.rowCount(), 5u);  // all groups have 6 rows
}

TEST_F(SqlFeatureTest, HavingOnSum) {
  auto r = exec_.query(
      "SELECT grp, SUM(v) AS total FROM f GROUP BY grp HAVING SUM(v) >= 960 "
      "ORDER BY total DESC");
  // grp sums: grp g has v = 10*(g, g+5, g+10, g+15, g+20, g+25) = 60g + 750... wait:
  // ids with id%5==g: v=10*id. g=0: ids 5,10,..,30 -> 10*(5+10+15+20+25+30)=1050.
  ASSERT_GE(r.resultSet.rowCount(), 1u);
  EXPECT_GE(r.resultSet.doubleAt(0, "total"), 960.0);
}

TEST_F(SqlFeatureTest, DistinctRemovesDuplicates) {
  auto r = exec_.query("SELECT DISTINCT grp FROM f ORDER BY grp");
  ASSERT_EQ(r.resultSet.rowCount(), 5u);
  for (int g = 0; g < 5; ++g) {
    EXPECT_EQ(r.resultSet.intAt(static_cast<std::size_t>(g), "grp"), g);
  }
}

TEST_F(SqlFeatureTest, DistinctOnMultipleColumns) {
  exec_.query("INSERT INTO f (grp, v, s) VALUES (0, 50, 'dup')");
  auto r = exec_.query("SELECT DISTINCT grp, v FROM f WHERE v = 50");
  // Row id=5 has (0, 50); the new row also (0, 50) -> one distinct pair.
  EXPECT_EQ(r.resultSet.rowCount(), 1u);
}

TEST_F(SqlFeatureTest, UpdateWithInPredicate) {
  auto r = exec_.query("UPDATE f SET v = 0 WHERE id IN (1, 2, 3)");
  EXPECT_EQ(r.affectedRows, 3u);
}

TEST_F(SqlFeatureTest, DeleteWithIsNull) {
  const auto before = db_.table("f").size();
  auto r = exec_.query("DELETE FROM f WHERE s IS NULL");
  EXPECT_EQ(r.affectedRows, 7u);
  EXPECT_EQ(db_.table("f").size(), before - 7);
}

TEST_F(SqlFeatureTest, ParserErrorsOnBadIn) {
  EXPECT_THROW(exec_.query("SELECT id FROM f WHERE id IN ()"), std::runtime_error);
  EXPECT_THROW(exec_.query("SELECT id FROM f WHERE id IN (1, 2"), std::runtime_error);
  EXPECT_THROW(exec_.query("SELECT id FROM f WHERE id IS 5"), std::runtime_error);
}

// ---------------------------------------------- tie order of a sorted slice

/// ORDER BY over a non-unique key with LIMIT/OFFSET: rows that tie keep
/// their arrival order, as if every candidate were stable-sorted and then
/// sliced. The access paths below deliver rows in an order other than RowId
/// order, so these pin what the differential oracle (which only knows
/// full-scan order) cannot.
class TieOrderTest : public ::testing::Test {
 protected:
  TieOrderTest() : exec_(db_) {
    db_.createTable(SchemaBuilder("t")
                        .intCol("id").primaryKey()
                        .intCol("g").indexed()
                        .intCol("r")
                        .build());
    db_.createTable(SchemaBuilder("p").intCol("id").primaryKey().build());
    db_.createTable(SchemaBuilder("c")
                        .intCol("id").primaryKey()
                        .intCol("p_id").indexed()
                        .intCol("r")
                        .build());
    for (int id = 1; id <= 24; ++id) {
      const Value params[] = {Value(id), Value(id % 3)};
      exec_.query("INSERT INTO t VALUES (?, 1, ?)", params);
    }
    // Move the even ids to the end of g = 1's index entries, newest last:
    // the index now yields 1, 3, ..., 23, 24, 22, ..., 2.
    for (const char* g : {"0", "1"}) {
      for (int id = 24; id >= 2; id -= 2) {
        const Value params[] = {Value(id)};
        exec_.query(std::string("UPDATE t SET g = ") + g + " WHERE id = ?", params);
      }
    }
    for (int id = 1; id <= 4; ++id) {
      const Value params[] = {Value(id)};
      exec_.query("INSERT INTO p VALUES (?)", params);
    }
    for (int id = 1; id <= 24; ++id) {
      const Value params[] = {Value(id), Value(4 - id % 4), Value(id % 3)};
      exec_.query("INSERT INTO c VALUES (?, ?, ?)", params);
    }
  }

  /// Ids of `arrival` (id, key) pairs after a stable sort on the key and
  /// the OFFSET/LIMIT slice.
  static std::vector<std::int64_t> stableSlice(
      std::vector<std::pair<std::int64_t, std::int64_t>> arrival, bool descending,
      std::size_t limit, std::size_t offset) {
    std::stable_sort(arrival.begin(), arrival.end(), [&](const auto& a, const auto& b) {
      return descending ? a.second > b.second : a.second < b.second;
    });
    std::vector<std::int64_t> ids;
    for (std::size_t i = offset; i < std::min(arrival.size(), offset + limit); ++i) {
      ids.push_back(arrival[i].first);
    }
    return ids;
  }

  static std::vector<std::int64_t> ids(const ExecResult& r) {
    std::vector<std::int64_t> out;
    for (std::size_t i = 0; i < r.resultSet.rowCount(); ++i) {
      out.push_back(r.resultSet.intAt(i, "id"));
    }
    return out;
  }

  Database db_;
  Executor exec_;
};

TEST_F(TieOrderTest, IndexEqualityAccessKeepsArrivalOrderOnTies) {
  std::vector<std::pair<std::int64_t, std::int64_t>> arrival;
  for (int id = 1; id <= 23; id += 2) arrival.emplace_back(id, id % 3);
  for (int id = 24; id >= 2; id -= 2) arrival.emplace_back(id, id % 3);

  auto asc = exec_.query("SELECT id, r FROM t WHERE g = 1 ORDER BY r LIMIT 7 OFFSET 5");
  EXPECT_TRUE(asc.stats.usedIndex);
  EXPECT_EQ(asc.stats.rowsExamined, 24u);
  EXPECT_EQ(asc.stats.rowsSorted, 24u);
  EXPECT_EQ(ids(asc), stableSlice(arrival, false, 7, 5));
  EXPECT_EQ(ids(asc), (std::vector<std::int64_t>{18, 12, 6, 1, 7, 13, 19}));

  auto desc = exec_.query("SELECT id FROM t WHERE g = 1 ORDER BY r DESC LIMIT 6 OFFSET 3");
  EXPECT_EQ(ids(desc), stableSlice(arrival, true, 6, 3));
}

TEST_F(TieOrderTest, JoinKeepsArrivalOrderOnTies) {
  // p is scanned in RowId order; each p row meets its c rows in index order.
  std::vector<std::pair<std::int64_t, std::int64_t>> arrival;
  for (int p = 1; p <= 4; ++p) {
    for (int id = 1; id <= 24; ++id) {
      if (4 - id % 4 == p) arrival.emplace_back(id, id % 3);
    }
  }

  auto asc = exec_.query(
      "SELECT c.id FROM p JOIN c ON c.p_id = p.id ORDER BY c.r LIMIT 7 OFFSET 4");
  EXPECT_TRUE(asc.stats.usedIndex);
  EXPECT_EQ(asc.stats.rowsSorted, 24u);
  EXPECT_EQ(ids(asc), stableSlice(arrival, false, 7, 4));

  auto desc = exec_.query(
      "SELECT c.id FROM p JOIN c ON c.p_id = p.id ORDER BY c.r DESC LIMIT 9 OFFSET 2");
  EXPECT_EQ(ids(desc), stableSlice(arrival, true, 9, 2));
}

}  // namespace
}  // namespace mwsim::db

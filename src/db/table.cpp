#include "db/table.hpp"

#include <iterator>
#include <stdexcept>

namespace mwsim::db {

namespace {
std::size_t rowBytes(const Row& row) {
  std::size_t n = 0;
  for (const Value& v : row) n += v.byteSize() + 8;
  return n;
}

/// Removes `id`'s entry from `key`'s equal range; returns the entry's rank
/// within that range.
std::size_t unlink(std::multimap<Value, RowId>& index, const Value& key, RowId id) {
  auto [lo, hi] = index.equal_range(key);
  std::size_t rank = 0;
  for (auto i = lo; i != hi; ++i, ++rank) {
    if (i->second == id) {
      index.erase(i);
      break;
    }
  }
  return rank;
}

/// Puts `id`'s entry back at `rank` within `key`'s equal range: emplace_hint
/// inserts just before the hint, and the hint is the entry that currently
/// holds that rank (or the range's end).
void relink(std::multimap<Value, RowId>& index, const Value& key, RowId id,
            std::size_t rank) {
  auto at = index.lower_bound(key);
  std::advance(at, static_cast<std::ptrdiff_t>(rank));
  index.emplace_hint(at, key, id);
}

/// Removes the newest entry of `key`'s equal range: emplace without a hint
/// appends to the range, so that is the entry the write being undone added.
void unlinkNewest(std::multimap<Value, RowId>& index, const Value& key) {
  index.erase(std::prev(index.upper_bound(key)));
}
}  // namespace

Table::Table(TableSchema schema) : schema_(std::move(schema)) {
  for (std::size_t c : schema_.secondaryIndexes) {
    secondary_.emplace(c, std::multimap<Value, RowId>{});
  }
}

std::int64_t Table::insert(Row row) {
  ++version_;
  if (row.size() != schema_.columns.size()) {
    throw std::runtime_error("INSERT into " + schema_.name + ": expected " +
                             std::to_string(schema_.columns.size()) + " values, got " +
                             std::to_string(row.size()));
  }
  std::int64_t keyOut = 0;
  if (schema_.primaryKey) {
    Value& key = row[*schema_.primaryKey];
    if (key.isNull()) {
      if (!schema_.autoIncrement) {
        throw std::runtime_error("NULL primary key in " + schema_.name);
      }
      key = Value(nextAutoId_++);
    } else if (key.isInt() && key.asInt() >= nextAutoId_) {
      nextAutoId_ = key.asInt() + 1;
    }
    if (pkIndex_.contains(key)) {
      throw std::runtime_error("duplicate primary key in " + schema_.name + ": " +
                               key.toDisplayString());
    }
    keyOut = key.isInt() ? key.asInt() : 0;
    lastInsertId_ = keyOut;
  }
  const RowId id = static_cast<RowId>(rows_.size());
  approxBytes_ += rowBytes(row);
  rows_.push_back(std::move(row));
  tombstone_.push_back(false);
  ++liveRows_;
  indexInsert(id);
  if (journaling_) journal_.push_back({JournalEntry::Kind::Insert, id, 0, {}, {}});
  return keyOut;
}

std::optional<RowId> Table::findByPk(const Value& key) const {
  if (!schema_.primaryKey) return std::nullopt;
  auto it = pkIndex_.find(key);
  if (it == pkIndex_.end()) return std::nullopt;
  return it->second;
}

std::vector<RowId> Table::findByIndex(std::size_t column, const Value& key) const {
  std::vector<RowId> out;
  auto it = secondary_.find(column);
  if (it == secondary_.end()) throw std::runtime_error("no index on column");
  auto [lo, hi] = it->second.equal_range(key);
  for (auto i = lo; i != hi; ++i) out.push_back(i->second);
  return out;
}

std::vector<RowId> Table::findRangeByIndex(std::size_t column,
                                           const std::optional<Value>& lo, bool loInclusive,
                                           const std::optional<Value>& hi,
                                           bool hiInclusive) const {
  std::vector<RowId> out;
  auto it = secondary_.find(column);
  if (it == secondary_.end()) throw std::runtime_error("no index on column");
  const auto& index = it->second;
  auto begin = lo ? (loInclusive ? index.lower_bound(*lo) : index.upper_bound(*lo))
                  : index.begin();
  auto end = hi ? (hiInclusive ? index.upper_bound(*hi) : index.lower_bound(*hi))
                : index.end();
  for (auto i = begin; i != end; ++i) out.push_back(i->second);
  return out;
}

bool Table::hasIndexOn(std::size_t column) const {
  return secondary_.contains(column);
}

void Table::updateCell(RowId id, std::size_t column, Value v) {
  ++version_;
  if (!isLive(id)) throw std::runtime_error("update of dead row");
  Row& row = rows_[id];
  const bool pkCol = isPrimaryKeyColumn(column);
  if (pkCol) {
    if (row[column] == v) return;
    if (pkIndex_.contains(v)) {
      throw std::runtime_error("duplicate primary key on update in " + schema_.name);
    }
    pkIndex_.erase(row[column]);
    pkIndex_.emplace(v, id);
  }
  std::vector<std::size_t> ranks;
  auto sec = secondary_.find(column);
  if (sec != secondary_.end()) {
    const std::size_t rank = unlink(sec->second, row[column], id);
    if (journaling_) ranks.push_back(rank);
    sec->second.emplace(v, id);
  }
  approxBytes_ -= row[column].byteSize();
  approxBytes_ += v.byteSize();
  if (journaling_) {
    journal_.push_back({JournalEntry::Kind::Update, id, column, std::move(row[column]),
                        std::move(ranks)});
  }
  row[column] = std::move(v);
}

void Table::erase(RowId id) {
  ++version_;
  if (!isLive(id)) return;
  std::vector<std::size_t> ranks;
  indexErase(id, journaling_ ? &ranks : nullptr);
  approxBytes_ -= rowBytes(rows_[id]);
  tombstone_[id] = true;
  --liveRows_;
  if (journaling_) journal_.push_back({JournalEntry::Kind::Erase, id, 0, {}, std::move(ranks)});
}

void Table::beginJournal() {
  journaling_ = true;
  journal_.clear();
  journalStart_ = {liveRows_, approxBytes_, nextAutoId_, lastInsertId_};
}

void Table::rollback() {
  ++version_;
  if (!journaling_) return;
  for (auto it = journal_.rbegin(); it != journal_.rend(); ++it) undo(*it);
  journal_.clear();
  liveRows_ = journalStart_.liveRows;
  approxBytes_ = journalStart_.approxBytes;
  nextAutoId_ = journalStart_.nextAutoId;
  lastInsertId_ = journalStart_.lastInsertId;
}

// Entries are undone newest first, so each one meets the table exactly as
// its write left it: an inserted row is still the last slot, and a rank
// recorded against an equal-key range indexes that same range again.
void Table::undo(JournalEntry& entry) {
  const RowId id = entry.id;
  Row& row = rows_[id];
  switch (entry.kind) {
    case JournalEntry::Kind::Insert:
      if (schema_.primaryKey) pkIndex_.erase(row[*schema_.primaryKey]);
      for (auto& [col, index] : secondary_) unlinkNewest(index, row[col]);
      rows_.pop_back();
      tombstone_.pop_back();
      break;
    case JournalEntry::Kind::Update: {
      const std::size_t column = entry.column;
      if (isPrimaryKeyColumn(column)) {
        pkIndex_.erase(row[column]);
        pkIndex_.emplace(entry.old, id);
      }
      auto sec = secondary_.find(column);
      if (sec != secondary_.end()) {
        unlinkNewest(sec->second, row[column]);
        relink(sec->second, entry.old, id, entry.ranks.front());
      }
      row[column] = std::move(entry.old);
      break;
    }
    case JournalEntry::Kind::Erase: {
      tombstone_[id] = false;
      if (schema_.primaryKey) pkIndex_.emplace(row[*schema_.primaryKey], id);
      auto rank = entry.ranks.begin();
      for (auto& [col, index] : secondary_) relink(index, row[col], id, *rank++);
      break;
    }
  }
}

void Table::indexInsert(RowId id) {
  const Row& row = rows_[id];
  if (schema_.primaryKey) pkIndex_.emplace(row[*schema_.primaryKey], id);
  for (auto& [col, index] : secondary_) index.emplace(row[col], id);
}

void Table::indexErase(RowId id, std::vector<std::size_t>* ranks) {
  const Row& row = rows_[id];
  if (schema_.primaryKey) pkIndex_.erase(row[*schema_.primaryKey]);
  for (auto& [col, index] : secondary_) {
    const std::size_t rank = unlink(index, row[col], id);
    if (ranks) ranks->push_back(rank);
  }
}

}  // namespace mwsim::db

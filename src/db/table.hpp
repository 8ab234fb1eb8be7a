#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "db/schema.hpp"
#include "db/value.hpp"

namespace mwsim::db {

using Row = std::vector<Value>;
using RowId = std::uint32_t;

/// Heap-organized table with a unique hash index on the primary key and
/// ordered secondary indexes (std::multimap) for range scans.
///
/// Rows are stored in a stable vector; deletes tombstone the slot. RowIds
/// are stable for the lifetime of the row.
///
/// A table can journal its writes (beginJournal) and later undo them
/// (rollback), returning to a state indistinguishable from the one the
/// journal started at. The dataset cache resets its pooled working copies
/// that way, so a run pays for the rows it wrote, not for the whole table.
class Table {
 public:
  explicit Table(TableSchema schema);
  Table& operator=(const Table&) = delete;

  /// Exact deep copy — rows, tombstones, indexes, auto-increment state and
  /// any open journal — so a cloned table behaves identically to one
  /// repopulated from the same seed. The dataset cache clones its prototype
  /// once per concurrently running copy.
  std::unique_ptr<Table> clone() const {
    return std::unique_ptr<Table>(new Table(*this));
  }

  const TableSchema& schema() const noexcept { return schema_; }
  const std::string& name() const noexcept { return schema_.name; }

  /// Number of live rows.
  std::size_t size() const noexcept { return liveRows_; }

  /// Inserts a row. If the table has an auto-increment key and the key slot
  /// is NULL, a fresh id is assigned. Returns the id of the inserted row's
  /// primary key (or 0 when the table has none).
  std::int64_t insert(Row row);

  /// Looks up by primary key. Returns nullopt if absent.
  std::optional<RowId> findByPk(const Value& key) const;

  /// Row ids whose indexed column equals `key` (secondary index required).
  std::vector<RowId> findByIndex(std::size_t column, const Value& key) const;

  /// Row ids whose indexed column is within [lo, hi] (either bound may be
  /// omitted). Results come back in index order.
  std::vector<RowId> findRangeByIndex(std::size_t column,
                                      const std::optional<Value>& lo, bool loInclusive,
                                      const std::optional<Value>& hi, bool hiInclusive) const;

  bool hasIndexOn(std::size_t column) const;
  bool isPrimaryKeyColumn(std::size_t column) const {
    return schema_.primaryKey && *schema_.primaryKey == column;
  }

  const Row& row(RowId id) const { return rows_[id]; }
  bool isLive(RowId id) const { return id < rows_.size() && !tombstone_[id]; }

  /// Updates one column of one row, maintaining indexes.
  void updateCell(RowId id, std::size_t column, Value v);

  /// Tombstones a row and removes it from all indexes.
  void erase(RowId id);

  /// Starts journaling: from here on every insert, updateCell and erase is
  /// recorded so rollback() can undo it. Discards any earlier journal.
  void beginJournal();

  /// Undoes every write journaled since beginJournal() or the last
  /// rollback(), newest first, and keeps journaling. Afterwards the table
  /// equals its state at that point through the whole public API: rows,
  /// tombstones, pk lookups, the order of entries within each secondary
  /// index's equal-key ranges (which unsorted results and LIMIT depend on),
  /// sizes, byte counts and the next auto-increment id.
  void rollback();

  /// Visits every live row id in storage order.
  template <typename Fn>
  void forEachRow(Fn&& fn) const {
    for (RowId id = 0; id < rows_.size(); ++id) {
      if (!tombstone_[id]) fn(id);
    }
  }

  /// Like forEachRow, but stops as soon as `fn` returns false — so a scan
  /// feeding LIMIT can quit without touching (or charging for) the rest of
  /// the table.
  template <typename Fn>
  void forEachRowWhile(Fn&& fn) const {
    for (RowId id = 0; id < rows_.size(); ++id) {
      if (!tombstone_[id] && !fn(id)) return;
    }
  }

  std::int64_t lastInsertId() const noexcept { return lastInsertId_; }

  /// Write-version: bumped by every insert, updateCell, erase and rollback
  /// (before it does any work, so a write that throws still counts). Equal
  /// versions of one Table object mean equal contents; Executor's read memo
  /// keys on it.
  std::uint64_t version() const noexcept { return version_; }

  /// Approximate bytes held by live rows (for the resource-usage benches).
  std::size_t approxBytes() const noexcept { return approxBytes_; }

  /// Average live-row width in bytes (for scan costing).
  std::size_t avgRowBytes() const noexcept {
    return liveRows_ ? approxBytes_ / liveRows_ : 0;
  }

  /// Largest auto-increment key handed out so far (0 if none). Used for the
  /// O(1) MAX(pk) fast path, mirroring MySQL's index-based MIN/MAX.
  std::int64_t maxAssignedId() const noexcept { return nextAutoId_ - 1; }

  /// Smallest/largest value in a secondary index (nullopt when empty or no
  /// index exists on the column).
  std::optional<Value> indexMin(std::size_t column) const {
    auto it = secondary_.find(column);
    if (it == secondary_.end() || it->second.empty()) return std::nullopt;
    return it->second.begin()->first;
  }
  std::optional<Value> indexMax(std::size_t column) const {
    auto it = secondary_.find(column);
    if (it == secondary_.end() || it->second.empty()) return std::nullopt;
    return it->second.rbegin()->first;
  }

  /// Direct read access to a secondary index's ordered entries, for
  /// ordered-index scans (ORDER BY without a sort). Null when the column
  /// carries no index.
  const std::multimap<Value, RowId>* orderedIndex(std::size_t column) const {
    auto it = secondary_.find(column);
    return it == secondary_.end() ? nullptr : &it->second;
  }

 private:
  Table(const Table&) = default;  // via clone() only

  /// One undoable write. `ranks` holds, for every secondary index the write
  /// took an entry out of, that entry's position within its equal-key range
  /// (Update: at most one index, the column's; Erase: one per index, in
  /// secondary_ order), so rollback can put it back at exactly that spot.
  struct JournalEntry {
    enum class Kind : std::uint8_t { Insert, Update, Erase };
    Kind kind = Kind::Insert;
    RowId id = 0;
    std::size_t column = 0;  // Update only
    Value old;               // Update only: the overwritten value
    std::vector<std::size_t> ranks;
  };

  /// Values restored wholesale by rollback rather than undone step by step.
  struct Scalars {
    std::size_t liveRows = 0;
    std::size_t approxBytes = 0;
    std::int64_t nextAutoId = 1;
    std::int64_t lastInsertId = 0;
  };

  void indexInsert(RowId id);
  void indexErase(RowId id, std::vector<std::size_t>* ranks);
  void undo(JournalEntry& entry);

  TableSchema schema_;
  std::vector<Row> rows_;
  std::vector<bool> tombstone_;
  std::size_t liveRows_ = 0;
  std::size_t approxBytes_ = 0;

  std::unordered_map<Value, RowId, ValueHash> pkIndex_;
  // column index -> ordered multimap value -> row id
  std::map<std::size_t, std::multimap<Value, RowId>> secondary_;
  std::int64_t nextAutoId_ = 1;
  std::int64_t lastInsertId_ = 0;
  std::uint64_t version_ = 0;

  bool journaling_ = false;
  std::vector<JournalEntry> journal_;
  Scalars journalStart_;
};

}  // namespace mwsim::db

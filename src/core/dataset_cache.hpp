#pragma once

#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <tuple>
#include <vector>

#include "db/database.hpp"

namespace mwsim::core {

enum class App;  // experiment.hpp

/// Process-wide cache of populated databases.
///
/// Populating a paper-scale database is the most expensive part of a short
/// run, and every point of a sweep starts from the same initial content:
/// only (app, scale knob, population seed) determine it. The cache builds
/// each such prototype once and never changes it.
///
/// Per key the cache also pools journaled working copies. get() hands out
/// an idle copy and clones the prototype only when none is idle, so a key
/// is cloned once per concurrently running copy, not once per run.
/// recycle() rolls a finished run's writes back (db::Database::rollback),
/// which costs what the run wrote, and returns the copy to the pool. A
/// rolled-back copy is indistinguishable from a fresh clone, so a 6×8 sweep
/// pays one population and one clone.
///
/// Memory: the prototype plus one copy per concurrent run. Idle copies stay
/// until clear().
///
/// Thread-safe: concurrent get()s for the same key block on one build
/// (tracked as a shared_future) while builds for other keys proceed. A copy
/// is owned exclusively by its run between get() and recycle().
class DatasetCache {
 public:
  static DatasetCache& global();

  /// Returns a journaled working copy of the populated database for the
  /// key: an idle pooled copy if there is one, else a fresh clone of the
  /// prototype, which is built on first use. `dataSeed` is the exact seed
  /// the population Rng is constructed with (see ExperimentParams::dataSeed).
  db::Database get(App app, double scale, std::uint64_t dataSeed);

  /// Hands back a copy that get() returned for the same key: its writes are
  /// rolled back and it joins the key's idle pool. Only copies whose run
  /// completed belong here; a run that failed midway drops its copies
  /// instead. After clear() dropped the key, the copy is simply freed.
  void recycle(App app, double scale, std::uint64_t dataSeed, db::Database database);

  /// Drops every cached prototype and idle copy (tests; long-lived
  /// processes that change workloads).
  void clear();

  /// Number of distinct prototypes currently held.
  std::size_t size() const;

  /// Prototypes built since process start (cache misses), for tests.
  std::uint64_t builds() const;

  /// Working copies cloned from a prototype since process start, for tests.
  std::uint64_t clones() const;

 private:
  using Key = std::tuple<int, double, std::uint64_t>;

  struct Entry {
    std::shared_future<std::shared_ptr<const db::Database>> prototype;
    std::vector<db::Database> idle;  // rolled back, ready for the next get()
  };

  db::Database workingCopy(const db::Database& prototype);

  mutable std::mutex mu_;
  std::map<Key, Entry> map_;
  std::uint64_t builds_ = 0;
  std::uint64_t clones_ = 0;
};

}  // namespace mwsim::core

#include "core/dataset_cache.hpp"

#include "apps/auction/schema.hpp"
#include "apps/bbs/schema.hpp"
#include "apps/bookstore/schema.hpp"
#include "core/experiment.hpp"
#include "sim/random.hpp"

namespace mwsim::core {

namespace {

db::Database buildPrototype(App app, double scale, std::uint64_t dataSeed) {
  db::Database database;
  sim::Rng rng(dataSeed);
  switch (app) {
    case App::Bookstore: {
      apps::bookstore::Scale s;
      s.scale = scale;
      apps::bookstore::createSchema(database);
      apps::bookstore::populate(database, s, rng);
      break;
    }
    case App::Auction: {
      apps::auction::Scale s;
      s.historyScale = scale;
      apps::auction::createSchema(database);
      apps::auction::populate(database, s, rng);
      break;
    }
    case App::BulletinBoard: {
      apps::bbs::Scale s;
      s.historyScale = scale;
      apps::bbs::createSchema(database);
      apps::bbs::populate(database, s, rng);
      break;
    }
  }
  return database;
}

}  // namespace

DatasetCache& DatasetCache::global() {
  static DatasetCache instance;
  return instance;
}

db::Database DatasetCache::workingCopy(const db::Database& prototype) {
  db::Database copy = prototype.clone();
  copy.beginJournal();
  std::lock_guard lock(mu_);
  ++clones_;
  return copy;
}

db::Database DatasetCache::get(App app, double scale, std::uint64_t dataSeed) {
  const Key key{static_cast<int>(app), scale, dataSeed};
  std::shared_future<std::shared_ptr<const db::Database>> future;
  {
    std::unique_lock lock(mu_);
    auto it = map_.find(key);
    if (it == map_.end()) {
      // We are the builder: publish the future before unlocking so
      // concurrent requesters wait for us instead of building again.
      std::promise<std::shared_ptr<const db::Database>> promise;
      future = promise.get_future().share();
      map_.emplace(key, Entry{future, {}});
      ++builds_;
      lock.unlock();
      try {
        promise.set_value(
            std::make_shared<const db::Database>(buildPrototype(app, scale, dataSeed)));
      } catch (...) {
        promise.set_exception(std::current_exception());
        std::lock_guard relock(mu_);
        map_.erase(key);  // let a later call retry rather than caching failure
        throw;
      }
      return workingCopy(*future.get());
    }
    if (!it->second.idle.empty()) {
      db::Database copy = std::move(it->second.idle.back());
      it->second.idle.pop_back();
      return copy;
    }
    future = it->second.prototype;
  }
  return workingCopy(*future.get());
}

void DatasetCache::recycle(App app, double scale, std::uint64_t dataSeed,
                           db::Database database) {
  database.rollback();  // outside the lock: it is this run's private copy
  const Key key{static_cast<int>(app), scale, dataSeed};
  std::lock_guard lock(mu_);
  auto it = map_.find(key);
  if (it != map_.end()) it->second.idle.push_back(std::move(database));
}

void DatasetCache::clear() {
  std::map<Key, Entry> dropped;
  {
    std::lock_guard lock(mu_);
    dropped.swap(map_);
  }
  // `dropped` frees prototypes and idle copies here, outside the lock.
}

std::size_t DatasetCache::size() const {
  std::lock_guard lock(mu_);
  return map_.size();
}

std::uint64_t DatasetCache::builds() const {
  std::lock_guard lock(mu_);
  return builds_;
}

std::uint64_t DatasetCache::clones() const {
  std::lock_guard lock(mu_);
  return clones_;
}

}  // namespace mwsim::core

#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "db/ast.hpp"
#include "db/database.hpp"
#include "db/plan.hpp"
#include "db/result.hpp"

namespace mwsim::db {

/// Executes planned statements against a Database.
///
/// Planning (name resolution, index selection, join ordering — see
/// db/plan.hpp) is separated from execution: the hot middleware path plans a
/// prepared statement once and re-executes the cached Plan with fresh
/// parameter bindings, touching no per-execution allocations beyond the
/// result rows themselves.
///
/// The executor is synchronous and instantaneous (no simulated time); the
/// simulated DatabaseServer charges CPU time from the ExecStats it returns.
class Executor {
 public:
  explicit Executor(Database& db) : db_(db) {}

  /// Plans ad hoc, then executes (tests, data loading, one-off SQL).
  ExecResult execute(const Statement& stmt, std::span<const Value> params = {});

  /// Executes through the statement's per-catalog plan cache — the prepared
  /// statement hot path used by mw::DatabaseServer. A SELECT that
  /// readMemoApplies() accepts is served from this executor's read memo when
  /// the same plan already ran here with identical parameters and no table
  /// it reads has been written since; the hit returns a copy of the stored
  /// result, stats included (DESIGN.md §8).
  ExecResult execute(const PlannedStatement& stmt, std::span<const Value> params = {});

  /// Executes a prebuilt plan directly, past the read memo (micro-benchmarks,
  /// plan tests).
  ExecResult executePlan(const Plan& plan, std::span<const Value> params = {});

  /// Convenience: parse + plan + execute in one step.
  ExecResult query(std::string_view sql, std::span<const Value> params = {});

  /// Read-memo hits served so far (tests).
  std::uint64_t memoHits() const noexcept { return memoHits_; }

 private:
  /// One memoized SELECT: its key (plan, bound parameters, and the version of
  /// every table the plan reads when the result was computed) and result.
  /// Holding the plan keeps its address from being reused by another plan.
  struct MemoEntry {
    std::shared_ptr<const Plan> plan;
    std::vector<Value> params;
    std::vector<std::pair<const Table*, std::uint64_t>> reads;
    ExecResult result;
  };

  Database& db_;
  /// Keyed by a hash of (plan address, exact parameter identity); entries
  /// that collide share the bucket and are told apart by their key fields.
  std::unordered_multimap<std::size_t, MemoEntry> memo_;
  std::uint64_t memoHits_ = 0;
};

/// True when Executor::execute(const PlannedStatement&, ...) memoizes the
/// plan's results: every SELECT except a single-table primary-key lookup or
/// index-metadata aggregate, which cost no more than a memo probe.
bool readMemoApplies(const Plan& plan);

/// True when a Value is "truthy" in a WHERE context (non-NULL, non-zero).
bool valueIsTrue(const Value& v);

/// SQL LIKE with % (any run) and _ (single char) wildcards.
bool likeMatch(const std::string& text, const std::string& pattern);

}  // namespace mwsim::db

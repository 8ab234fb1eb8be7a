#include "db/executor.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
#include <stdexcept>
#include <unordered_set>

#include "db/parser.hpp"
#include "db/plan.hpp"

namespace mwsim::db {

bool valueIsTrue(const Value& v) {
  if (v.isNull()) return false;
  if (v.isInt()) return v.asInt() != 0;
  if (v.isDouble()) return v.asDouble() != 0.0;
  return !v.asString().empty();
}

bool likeMatch(const std::string& text, const std::string& pattern) {
  // Iterative wildcard match with backtracking over the last '%'.
  std::size_t t = 0;
  std::size_t p = 0;
  std::size_t starP = std::string::npos;
  std::size_t starT = 0;
  while (t < text.size()) {
    if (p < pattern.size() && (pattern[p] == '_' || pattern[p] == text[t])) {
      ++t;
      ++p;
    } else if (p < pattern.size() && pattern[p] == '%') {
      starP = p++;
      starT = t;
    } else if (starP != std::string::npos) {
      p = starP + 1;
      t = ++starT;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '%') ++p;
  return p == pattern.size();
}

namespace {

// ---------------------------------------------------------------------------
// Compiled-expression evaluation. Plans resolved every column reference to a
// (table, column) slot, so evaluation is pure array indexing — no per-row
// name lookups. The row source is a template parameter: a single table row
// on the fast path, a flat multi-table binding on the join path.

/// Row source over one row of the driving table (all refs have tableIdx 0).
struct SingleRow {
  const Row* row;
  const Value& at(const PlanColumnRef& ref) const { return (*row)[ref.columnIdx]; }
};

/// Row source over one flat binding: one RowId per bound table.
struct FlatRow {
  const std::vector<const Table*>* tables;
  const RowId* ids;
  const Value& at(const PlanColumnRef& ref) const {
    return (*tables)[ref.tableIdx]->row(ids[ref.tableIdx])[ref.columnIdx];
  }
};

/// Row source for value-only contexts (access-path keys, INSERT values).
/// Column references were rejected at plan time, so at() is unreachable.
struct NoRow {
  const Value& at(const PlanColumnRef&) const {
    throw std::runtime_error("column reference in value-only expression");
  }
};

Value evalBinary(BinOp op, const Value& a, const Value& b) {
  switch (op) {
    case BinOp::And:
      return Value(static_cast<std::int64_t>(valueIsTrue(a) && valueIsTrue(b)));
    case BinOp::Or:
      return Value(static_cast<std::int64_t>(valueIsTrue(a) || valueIsTrue(b)));
    case BinOp::Like:
      if (a.isNull() || b.isNull()) return Value(std::int64_t{0});
      if (a.isString()) {
        return Value(static_cast<std::int64_t>(likeMatch(a.asString(), b.asString())));
      }
      return Value(static_cast<std::int64_t>(likeMatch(a.toDisplayString(), b.asString())));
    case BinOp::Eq:
    case BinOp::Ne:
    case BinOp::Lt:
    case BinOp::Le:
    case BinOp::Gt:
    case BinOp::Ge: {
      if (a.isNull() || b.isNull()) return Value(std::int64_t{0});
      const int c = a.compare(b);
      bool r = false;
      switch (op) {
        case BinOp::Eq: r = c == 0; break;
        case BinOp::Ne: r = c != 0; break;
        case BinOp::Lt: r = c < 0; break;
        case BinOp::Le: r = c <= 0; break;
        case BinOp::Gt: r = c > 0; break;
        default: r = c >= 0; break;
      }
      return Value(static_cast<std::int64_t>(r));
    }
    case BinOp::Add:
    case BinOp::Sub:
    case BinOp::Mul:
    case BinOp::Div: {
      if (a.isNull() || b.isNull()) return Value();
      if (a.isInt() && b.isInt() && op != BinOp::Div) {
        const auto x = a.asInt();
        const auto y = b.asInt();
        switch (op) {
          case BinOp::Add: return Value(x + y);
          case BinOp::Sub: return Value(x - y);
          default: return Value(x * y);
        }
      }
      const double x = a.asDouble();
      const double y = b.asDouble();
      switch (op) {
        case BinOp::Add: return Value(x + y);
        case BinOp::Sub: return Value(x - y);
        case BinOp::Mul: return Value(x * y);
        default:
          if (y == 0.0) return Value();
          return Value(x / y);
      }
    }
  }
  throw std::runtime_error("unhandled binary op");
}

const Value& paramAt(const CompiledExpr& e, std::span<const Value> params) {
  if (e.paramIndex > params.size()) {
    throw std::runtime_error("missing bind parameter " + std::to_string(e.paramIndex));
  }
  return params[e.paramIndex - 1];
}

template <typename Src>
Value evalExpr(const CompiledExpr& e, std::span<const Value> params, const Src& src);

/// Evaluates `e` without copying a stored operand: a column, parameter or
/// literal comes back as a reference to where it lives; anything computed
/// is written to `tmp` and returned from there.
template <typename Src>
const Value& evalRef(const CompiledExpr& e, std::span<const Value> params, const Src& src,
                     Value& tmp) {
  switch (e.kind) {
    case Expr::Kind::Literal:
      return e.literal;
    case Expr::Kind::Param:
      return paramAt(e, params);
    case Expr::Kind::Column:
      return src.at(e.col);
    default:
      tmp = evalExpr(e, params, src);
      return tmp;
  }
}

template <typename Src>
Value evalExpr(const CompiledExpr& e, std::span<const Value> params, const Src& src) {
  Value lhsTmp;
  switch (e.kind) {
    case Expr::Kind::Literal:
      return e.literal;
    case Expr::Kind::Param:
      return paramAt(e, params);
    case Expr::Kind::Column:
      return src.at(e.col);
    case Expr::Kind::Binary: {
      Value rhsTmp;
      return evalBinary(e.op, evalRef(*e.lhs, params, src, lhsTmp),
                        evalRef(*e.rhs, params, src, rhsTmp));
    }
    case Expr::Kind::In: {
      const Value& needle = evalRef(*e.lhs, params, src, lhsTmp);
      if (needle.isNull()) return Value(std::int64_t{0});
      Value itemTmp;
      for (const auto& item : e.list) {
        if (needle.compare(evalRef(*item, params, src, itemTmp)) == 0) {
          return Value(std::int64_t{1});
        }
      }
      return Value(std::int64_t{0});
    }
    case Expr::Kind::IsNull: {
      const bool isNull = evalRef(*e.lhs, params, src, lhsTmp).isNull();
      return Value(static_cast<std::int64_t>(isNull != e.negated));
    }
    case Expr::Kind::Not:
      return Value(
          static_cast<std::int64_t>(!valueIsTrue(evalRef(*e.lhs, params, src, lhsTmp))));
    case Expr::Kind::Aggregate:
      throw std::runtime_error("aggregate in row context");
    case Expr::Kind::Star:
      throw std::runtime_error("* in scalar context");
  }
  throw std::runtime_error("unhandled expr kind");
}

/// One group of bindings for aggregate evaluation, members in binding order.
struct GroupView {
  const std::vector<const Table*>* tables;
  std::span<const RowId* const> members;

  FlatRow member(std::size_t i) const { return FlatRow{tables, members[i]}; }
  std::size_t size() const { return members.size(); }
};

Value evalAggregate(const CompiledExpr& e, std::span<const Value> params,
                    const GroupView& group) {
  if (!e.aggArg) {  // argument was *, compiled away
    if (e.agg == AggFunc::Count) {
      return Value(static_cast<std::int64_t>(group.size()));
    }
    throw std::runtime_error("* in scalar context");
  }
  std::int64_t count = 0;
  double sum = 0.0;
  bool allInt = true;
  std::int64_t isum = 0;
  std::optional<Value> minV;
  std::optional<Value> maxV;
  Value tmp;
  for (std::size_t i = 0; i < group.size(); ++i) {
    const Value& v = evalRef(*e.aggArg, params, group.member(i), tmp);
    if (v.isNull()) continue;
    ++count;
    if (v.isNumeric()) {
      sum += v.asDouble();
      if (v.isInt()) isum += v.asInt();
      else allInt = false;
    } else {
      allInt = false;
    }
    if (!minV || v < *minV) minV = v;
    if (!maxV || v > *maxV) maxV = v;
  }
  switch (e.agg) {
    case AggFunc::Count:
      return Value(count);
    case AggFunc::Sum:
      if (count == 0) return Value();
      return allInt ? Value(isum) : Value(sum);
    case AggFunc::Avg:
      if (count == 0) return Value();
      return Value(sum / static_cast<double>(count));
    case AggFunc::Min:
      return minV.value_or(Value());
    case AggFunc::Max:
      return maxV.value_or(Value());
    case AggFunc::None:
      break;
  }
  throw std::runtime_error("unhandled aggregate");
}

/// Group context: aggregates consume the whole group, everything else is
/// taken from the group's first row (valid for group keys, which is all the
/// apps use).
Value evalGrouped(const CompiledExpr& e, std::span<const Value> params,
                  const GroupView& group) {
  switch (e.kind) {
    case Expr::Kind::Aggregate:
      return evalAggregate(e, params, group);
    case Expr::Kind::Binary:
      if (e.hasAggregate) {
        return evalBinary(e.op, evalGrouped(*e.lhs, params, group),
                          evalGrouped(*e.rhs, params, group));
      }
      return evalExpr(e, params, group.member(0));
    case Expr::Kind::Not:
      if (e.hasAggregate) {
        return Value(static_cast<std::int64_t>(!valueIsTrue(evalGrouped(*e.lhs, params, group))));
      }
      return evalExpr(e, params, group.member(0));
    case Expr::Kind::In:
      if (e.hasAggregate) {
        const Value needle = evalGrouped(*e.lhs, params, group);
        if (needle.isNull()) return Value(std::int64_t{0});
        for (const auto& item : e.list) {
          if (needle.compare(evalGrouped(*item, params, group)) == 0) {
            return Value(std::int64_t{1});
          }
        }
        return Value(std::int64_t{0});
      }
      return evalExpr(e, params, group.member(0));
    default:
      return evalExpr(e, params, group.member(0));
  }
}

Value coerce(const Value& v, ColumnType type) {
  if (v.isNull()) return v;
  switch (type) {
    case ColumnType::Int:
      if (v.isDouble()) return Value(v.asInt());
      return v;
    case ColumnType::Double:
      if (v.isInt()) return Value(v.asDouble());
      return v;
    case ColumnType::String:
      return v;
  }
  return v;
}

// ---------------------------------------------------------------------------
// Access paths: turn an AccessPath plus bound parameters into a stream of
// candidate RowIds. Statistics count every row the engine touches, matching
// the pre-plan executor's accounting row for row (except where an early
// exit genuinely touches fewer rows — that reduction is the point).

/// Range bounds merged at execution: the tightest of each side wins; on
/// equal values a strict bound beats an inclusive one (their conjunction).
struct MergedRange {
  bool empty = false;
  std::optional<Value> lo;
  bool loInc = true;
  std::optional<Value> hi;
  bool hiInc = true;
};

MergedRange mergeBounds(const AccessPath& a, std::span<const Value> params) {
  MergedRange m;
  for (const auto& b : a.lower) {
    const Value v = evalExpr(*b.expr, params, NoRow{});
    if (v.isNull()) {  // `col > NULL` is never true
      m.empty = true;
      return m;
    }
    if (!m.lo || v > *m.lo || (v == *m.lo && m.loInc && !b.inclusive)) {
      m.lo = v;
      m.loInc = b.inclusive;
    }
  }
  for (const auto& b : a.upper) {
    const Value v = evalExpr(*b.expr, params, NoRow{});
    if (v.isNull()) {
      m.empty = true;
      return m;
    }
    if (!m.hi || v < *m.hi || (v == *m.hi && m.hiInc && !b.inclusive)) {
      m.hi = v;
      m.hiInc = b.inclusive;
    }
  }
  // A crossed range (lo past hi) is empty. Without this, the scan's begin
  // iterator would sit after its end iterator and the walk would run off
  // the index.
  if (m.lo && m.hi) {
    const int c = m.lo->compare(*m.hi);
    if (c > 0 || (c == 0 && (!m.loInc || !m.hiInc))) m.empty = true;
  }
  return m;
}

/// Streams candidate row ids of `table` for the given access path into
/// `fn(RowId) -> bool` (false stops the scan). Counts examined rows.
template <typename Fn>
void scanAccess(const AccessPath& a, const Table& table, std::span<const Value> params,
                ExecStats& stats, Fn&& fn) {
  const std::size_t rowBytes = table.avgRowBytes();
  auto count = [&] {
    ++stats.rowsExamined;
    stats.bytesExamined += rowBytes;
  };
  switch (a.kind) {
    case AccessPath::Kind::FullScan:
      table.forEachRowWhile([&](RowId id) {
        count();
        return fn(id);
      });
      return;

    case AccessPath::Kind::PkEq: {
      stats.usedIndex = true;
      const Value key = evalExpr(*a.eqKey, params, NoRow{});
      if (key.isNull()) return;  // `pk = NULL` matches nothing
      if (auto id = table.findByPk(key)) {
        count();
        fn(*id);
      }
      return;
    }

    case AccessPath::Kind::IndexEq: {
      stats.usedIndex = true;
      const Value key = evalExpr(*a.eqKey, params, NoRow{});
      if (key.isNull()) return;
      for (RowId id : table.findByIndex(a.column, key)) {
        count();
        if (!fn(id)) return;
      }
      return;
    }

    case AccessPath::Kind::InList: {
      stats.usedIndex = true;
      // Evaluate and deduplicate the keys (first occurrence wins): a
      // duplicate IN item must not produce a duplicate output row, exactly
      // as it cannot under a full scan.
      std::vector<Value> keys;
      keys.reserve(a.inKeys.size());
      for (const auto& item : a.inKeys) {
        Value v = evalExpr(*item, params, NoRow{});
        if (v.isNull()) continue;  // `col IN (..., NULL, ...)` never matches NULL
        if (std::find(keys.begin(), keys.end(), v) == keys.end()) keys.push_back(std::move(v));
      }
      for (const Value& key : keys) {
        if (a.viaPk) {
          if (auto id = table.findByPk(key)) {
            count();
            if (!fn(*id)) return;
          }
        } else {
          for (RowId id : table.findByIndex(a.column, key)) {
            count();
            if (!fn(id)) return;
          }
        }
      }
      return;
    }

    case AccessPath::Kind::IndexRange: {
      stats.usedIndex = true;
      const MergedRange m = mergeBounds(a, params);
      if (m.empty) return;
      const auto& index = *table.orderedIndex(a.column);
      auto it = m.lo ? (m.loInc ? index.lower_bound(*m.lo) : index.upper_bound(*m.lo))
                     : index.begin();
      const auto end = m.hi ? (m.hiInc ? index.upper_bound(*m.hi) : index.lower_bound(*m.hi))
                            : index.end();
      for (; it != end; ++it) {
        count();
        // With no lower bound the scan starts at the NULL entries; the
        // consumed `col <= hi` conjunct rejects them (counted as examined,
        // exactly as the unplanned executor's residual filter did).
        if (it->first.isNull()) continue;
        if (!fn(it->second)) return;
      }
      return;
    }

    case AccessPath::Kind::OrderedIndexScan: {
      stats.usedIndex = true;
      const auto& index = *table.orderedIndex(a.column);
      const bool ranged = !a.lower.empty() || !a.upper.empty();
      auto begin = index.begin();
      auto end = index.end();
      if (ranged) {
        const MergedRange m = mergeBounds(a, params);
        if (m.empty) return;
        begin = m.lo ? (m.loInc ? index.lower_bound(*m.lo) : index.upper_bound(*m.lo))
                     : index.begin();
        end = m.hi ? (m.hiInc ? index.upper_bound(*m.hi) : index.lower_bound(*m.hi))
                   : index.end();
      }
      // Emit one equal-key block at a time so ties reproduce the exact
      // order the eliminated stable_sort produced (see AccessPath).
      std::vector<RowId> block;
      auto emitBlock = [&](auto b, auto e) {
        if (a.blockRowIdOrder) {
          block.clear();
          for (; b != e; ++b) {
            count();
            block.push_back(b->second);
          }
          std::sort(block.begin(), block.end());
          for (RowId id : block) {
            if (!fn(id)) return false;
          }
        } else {
          for (; b != e; ++b) {
            count();
            if (ranged && b->first.isNull()) continue;
            if (!fn(b->second)) return false;
          }
        }
        return true;
      };
      if (!a.descending) {
        auto it = begin;
        while (it != end) {
          auto stop = index.upper_bound(it->first);
          if (!emitBlock(it, stop)) return;
          it = stop;
        }
      } else {
        auto it = end;
        while (it != begin) {
          auto blockBegin = index.lower_bound(std::prev(it)->first);
          if (!emitBlock(blockBegin, it)) return;
          it = blockBegin;
        }
      }
      return;
    }

    case AccessPath::Kind::AggFast:
      throw std::runtime_error("aggregate fast path has no row stream");
  }
}

// ---------------------------------------------------------------------------
// SELECT execution.

/// True when `rows` already holds a row equal to `row`, column by column.
bool containsRow(const std::vector<Row>& rows, const Row& row) {
  for (const Row& kept : rows) {
    bool equal = kept.size() == row.size();
    for (std::size_t i = 0; equal && i < kept.size(); ++i) {
      equal = kept[i].compare(row[i]) == 0;
    }
    if (equal) return true;
  }
  return false;
}

/// Hash and equality of group ids whose key values sit `width` per group in
/// `*keys`. They read through the pointer because the vector grows while
/// the groups are being found.
struct GroupKeyHash {
  const std::vector<Value>* keys;
  std::size_t width;
  std::size_t operator()(std::uint32_t g) const {
    std::size_t h = 0;
    for (std::size_t k = 0; k < width; ++k) {
      h = h * 0x9E3779B97F4A7C15ull + (*keys)[g * width + k].hash();
    }
    return h;
  }
};

struct GroupKeyEq {
  const std::vector<Value>* keys;
  std::size_t width;
  bool operator()(std::uint32_t a, std::uint32_t b) const {
    for (std::size_t k = 0; k < width; ++k) {
      if ((*keys)[a * width + k].compare((*keys)[b * width + k]) != 0) return false;
    }
    return true;
  }
};

class SelectExec {
 public:
  SelectExec(Database& db, const SelectPlan& p, std::span<const Value> params,
             ExecStats& stats)
      : p_(p), params_(params), stats_(stats) {
    tables_.reserve(p.tableNames.size());
    for (const auto& name : p.tableNames) tables_.push_back(&db.table(name));
  }

  ResultSet run() {
    if (p_.access.kind == AccessPath::Kind::AggFast) return runAggFast();
    ResultSet rs;
    rs.columns.reserve(p_.items.size());
    for (const auto& item : p_.items) rs.columns.push_back(item.name);
    if (p_.joins.empty() && !p_.grouped) {
      runSingle(rs);
    } else {
      runGeneric(rs);
    }
    stats_.rowsReturned += rs.rows.size();
    stats_.resultBytes += rs.byteSize();
    return rs;
  }

 private:
  // ----- projection and ORDER BY keys over one row source -----
  template <typename Src>
  Row project(const Src& src) const {
    Row out;
    out.reserve(p_.items.size());
    for (const auto& item : p_.items) {
      if (item.direct) {
        out.push_back(src.at(*item.direct));
      } else {
        out.push_back(evalExpr(*item.expr, params_, src));
      }
    }
    return out;
  }

  /// An ORDER BY key of one row; an alias key is the output column it names.
  template <typename Src>
  Value orderKey(const SelectPlan::OrderKey& ok, const Src& src) const {
    if (!ok.outputIndex) return evalExpr(*ok.expr, params_, src);
    const auto& item = p_.items[*ok.outputIndex];
    return item.direct ? src.at(*item.direct) : evalExpr(*item.expr, params_, src);
  }

  // ----- single-table, non-grouped: the hot path -----
  bool passesFilters(const SingleRow& src) const {
    for (const auto& c : p_.baseFilter) {
      if (!valueIsTrue(evalExpr(*c, params_, src))) return false;
    }
    for (const auto& c : p_.residual) {
      if (!valueIsTrue(evalExpr(*c, params_, src))) return false;
    }
    return true;
  }

  void runSingle(ResultSet& rs) {
    const Table& table = *tables_[0];
    const bool needSort = !p_.orderBy.empty() && !p_.sortElided;
    const auto offset = static_cast<std::size_t>(p_.offset);

    if (needSort) {
      std::vector<RowId> matches;
      scanAccess(p_.access, table, params_, stats_, [&](RowId id) {
        if (passesFilters(SingleRow{&table.row(id)})) matches.push_back(id);
        return true;
      });
      emitRows(matches.size(), [&](std::size_t i) { return SingleRow{&table.row(matches[i])}; },
               rs);
      return;
    }

    if (p_.distinct) {
      // DISTINCT without a sort: stream with first-occurrence dedup; done
      // once offset+limit distinct rows exist.
      std::vector<Row> uniques;
      const std::optional<std::size_t> want =
          p_.limit ? std::optional<std::size_t>(offset + static_cast<std::size_t>(*p_.limit))
                   : std::nullopt;
      scanAccess(p_.access, table, params_, stats_, [&](RowId id) {
        const SingleRow src{&table.row(id)};
        if (!passesFilters(src)) return true;
        Row out = project(src);
        if (containsRow(uniques, out)) return true;
        uniques.push_back(std::move(out));
        return !(want && uniques.size() >= *want);
      });
      const std::size_t begin = std::min(uniques.size(), offset);
      std::size_t end = uniques.size();
      if (p_.limit) end = std::min(end, begin + static_cast<std::size_t>(*p_.limit));
      for (std::size_t i = begin; i < end; ++i) rs.rows.push_back(std::move(uniques[i]));
      return;
    }

    // Streaming with early exit: no sort pending (either no ORDER BY, or an
    // ordered-index scan already yields rows in order), so the scan can
    // stop at OFFSET+LIMIT — the rows a real engine would never touch are
    // never examined, and never charged.
    std::size_t skipped = 0;
    scanAccess(p_.access, table, params_, stats_, [&](RowId id) {
      const SingleRow src{&table.row(id)};
      if (!passesFilters(src)) return true;
      if (skipped < offset) {
        ++skipped;
        return true;
      }
      if (p_.limit && rs.rows.size() >= static_cast<std::size_t>(*p_.limit)) return false;
      rs.rows.push_back(project(src));
      return !(p_.limit && rs.rows.size() >= static_cast<std::size_t>(*p_.limit));
    });
  }

  // ----- joins and/or grouping: flat bindings, no early exit -----
  void runGeneric(ResultSet& rs) {
    // Base access + base-only filter pushdown.
    std::vector<RowId> flat;  // bindings, `stride` ids each
    std::size_t stride = 1;
    scanAccess(p_.access, *tables_[0], params_, stats_, [&](RowId id) {
      const SingleRow src{&tables_[0]->row(id)};
      for (const auto& c : p_.baseFilter) {
        if (!valueIsTrue(evalExpr(*c, params_, src))) return true;
      }
      flat.push_back(id);
      return true;
    });

    // Join steps, widening each binding by one id.
    for (std::size_t j = 0; j < p_.joins.size(); ++j) {
      const SelectPlan::JoinStep& step = p_.joins[j];
      const Table& inner = *tables_[j + 1];
      const std::size_t innerBytes = inner.avgRowBytes();
      std::vector<RowId> next;
      const std::size_t n = flat.size() / stride;
      for (std::size_t b = 0; b < n; ++b) {
        const RowId* ids = flat.data() + b * stride;
        auto extend = [&](RowId id) {
          next.insert(next.end(), ids, ids + stride);
          next.push_back(id);
        };
        Value keyTmp;
        switch (step.kind) {
          case SelectPlan::JoinStep::Kind::PkLookup: {
            stats_.usedIndex = true;
            const Value& key = evalRef(*step.outerKey, params_, FlatRow{&tables_, ids}, keyTmp);
            if (key.isNull()) break;  // NULL never joins
            if (auto id = inner.findByPk(key)) {
              ++stats_.rowsExamined;
              stats_.bytesExamined += innerBytes;
              extend(*id);
            }
            break;
          }
          case SelectPlan::JoinStep::Kind::IndexLookup: {
            stats_.usedIndex = true;
            const Value& key = evalRef(*step.outerKey, params_, FlatRow{&tables_, ids}, keyTmp);
            if (key.isNull()) break;
            for (RowId id : inner.findByIndex(step.innerColumn, key)) {
              ++stats_.rowsExamined;
              stats_.bytesExamined += innerBytes;
              extend(id);
            }
            break;
          }
          case SelectPlan::JoinStep::Kind::ScanEq: {
            const Value& key = evalRef(*step.outerKey, params_, FlatRow{&tables_, ids}, keyTmp);
            inner.forEachRow([&](RowId id) {
              ++stats_.rowsExamined;
              stats_.bytesExamined += innerBytes;
              if (!key.isNull() && inner.row(id)[step.innerColumn] == key) extend(id);
            });
            break;
          }
          case SelectPlan::JoinStep::Kind::Cross:
            inner.forEachRow([&](RowId id) {
              ++stats_.rowsExamined;
              stats_.bytesExamined += innerBytes;
              extend(id);
            });
            break;
        }
      }
      flat = std::move(next);
      ++stride;
    }

    // Residual filter over fully bound rows.
    if (!p_.residual.empty()) {
      std::vector<RowId> kept;
      const std::size_t n = flat.size() / stride;
      for (std::size_t b = 0; b < n; ++b) {
        const RowId* ids = flat.data() + b * stride;
        const FlatRow src{&tables_, ids};
        bool pass = true;
        for (const auto& c : p_.residual) {
          if (!valueIsTrue(evalExpr(*c, params_, src))) {
            pass = false;
            break;
          }
        }
        if (pass) kept.insert(kept.end(), ids, ids + stride);
      }
      flat = std::move(kept);
    }

    if (p_.grouped) {
      runGrouped(flat, stride, rs);
      return;
    }
    emitRows(flat.size() / stride,
             [&](std::size_t b) { return FlatRow{&tables_, flat.data() + b * stride}; }, rs);
  }

  /// Groups the bindings and emits one row per group. A hash table over the
  /// group keys gives every binding its group id; a counting pass then lays
  /// each group's members out contiguously in binding order, so aggregates
  /// accumulate in binding order and double SUM/AVG do not depend on how
  /// groups are found. Groups are visited in ascending key order: that is
  /// the output order without ORDER BY, and the tie order under one (Best
  /// Sellers ties on `total`).
  void runGrouped(const std::vector<RowId>& flat, std::size_t stride, ResultSet& rs) {
    const std::size_t n = flat.size() / stride;
    const std::size_t width = p_.groupKeys.size();
    // Key values, `width` per group, groups numbered in order of first arrival.
    std::vector<Value> keys;
    std::vector<std::uint32_t> groupOf(n, 0);
    std::size_t groups = 0;
    if (width == 0) {
      groups = 1;  // even over empty input: aggregates then produce one row
    } else {
      const GroupKeyHash hash{&keys, width};
      const GroupKeyEq eq{&keys, width};
      std::unordered_set<std::uint32_t, GroupKeyHash, GroupKeyEq> index(0, hash, eq);
      for (std::size_t b = 0; b < n; ++b) {
        // Stage the binding's key as a new group's; drop it if it exists.
        const FlatRow src{&tables_, flat.data() + b * stride};
        for (const auto& g : p_.groupKeys) keys.push_back(evalExpr(*g, params_, src));
        const auto [it, fresh] = index.insert(static_cast<std::uint32_t>(groups));
        if (fresh) {
          ++groups;
        } else {
          keys.resize(groups * width);
        }
        groupOf[b] = *it;
      }
    }
    stats_.aggregatedGroups += groups;

    // Group g's members are members[start[g], start[g + 1]).
    std::vector<std::size_t> start(groups + 1, 0);
    for (std::uint32_t g : groupOf) ++start[g + 1];
    for (std::size_t g = 0; g < groups; ++g) start[g + 1] += start[g];
    std::vector<const RowId*> members(n);
    {
      std::vector<std::size_t> fill(start.begin(), start.end() - 1);
      for (std::size_t b = 0; b < n; ++b) members[fill[groupOf[b]]++] = flat.data() + b * stride;
    }
    auto group = [&](std::size_t g) {
      return GroupView{&tables_, std::span<const RowId* const>(members).subspan(
                                     start[g], start[g + 1] - start[g])};
    };

    std::vector<std::uint32_t> visit(groups);
    std::iota(visit.begin(), visit.end(), std::uint32_t{0});
    std::sort(visit.begin(), visit.end(), [&](std::uint32_t a, std::uint32_t b) {
      for (std::size_t k = 0; k < width; ++k) {
        const int c = keys[a * width + k].compare(keys[b * width + k]);
        if (c != 0) return c < 0;
      }
      return a < b;
    });

    std::vector<std::uint32_t> kept;
    kept.reserve(groups);
    for (std::uint32_t g : visit) {
      const GroupView view = group(g);
      if (p_.having && view.size() > 0 &&
          !valueIsTrue(evalGrouped(*p_.having, params_, view))) {
        continue;
      }
      kept.push_back(g);
    }
    emitOrdered(
        kept.size(),
        [&](std::size_t i) {
          const GroupView view = group(kept[i]);
          Row out;
          out.reserve(p_.items.size());
          for (const auto& item : p_.items) out.push_back(groupItem(item, view));
          return out;
        },
        [&](std::size_t i, const SelectPlan::OrderKey& ok) {
          const GroupView view = group(kept[i]);
          if (ok.outputIndex) return groupItem(p_.items[*ok.outputIndex], view);
          return view.size() > 0 ? evalGrouped(*ok.expr, params_, view) : Value();
        },
        rs);
  }

  /// One output column of a group. The one group of an ungrouped aggregate
  /// over empty input has no members: COUNT is 0 there, anything else NULL.
  Value groupItem(const SelectPlan::OutItem& item, const GroupView& group) const {
    if (group.size() == 0) {
      const bool count = item.expr && item.expr->kind == Expr::Kind::Aggregate &&
                         item.expr->agg == AggFunc::Count;
      return count ? Value(std::int64_t{0}) : Value();
    }
    if (item.direct) return group.member(0).at(*item.direct);
    return evalGrouped(*item.expr, params_, group);
  }

  /// emitOrdered over non-grouped candidates; `rowAt(i)` is candidate i's
  /// row source.
  template <typename RowAt>
  void emitRows(std::size_t n, RowAt&& rowAt, ResultSet& rs) {
    emitOrdered(
        n, [&](std::size_t i) { return project(rowAt(i)); },
        [&](std::size_t i, const SelectPlan::OrderKey& ok) { return orderKey(ok, rowAt(i)); },
        rs);
  }

  /// The one tail for every path that collects its candidates before
  /// emitting: DISTINCT, ORDER BY, OFFSET/LIMIT. Candidates are numbered in
  /// arrival order (a RowId, a binding or a group); `project(i)` builds
  /// candidate i's output row, `key(i, orderKey)` one of its ORDER BY keys.
  /// Each candidate is carried only as its keys, packed flat, plus its
  /// arrival index. The rows inside OFFSET/LIMIT are picked by (keys,
  /// arrival index), which is what a stable sort of every candidate and a
  /// slice return, and only those rows are projected.
  template <typename Project, typename Key>
  void emitOrdered(std::size_t n, Project&& project, Key&& key, ResultSet& rs) {
    const std::size_t width = p_.orderBy.size();
    std::vector<Value> keys;
    std::vector<Row> uniques;
    if (p_.distinct) {
      // DISTINCT compares finished rows, so every candidate is projected
      // here. The first occurrence of a row wins, and with it its keys.
      for (std::size_t i = 0; i < n; ++i) {
        Row out = project(i);
        if (containsRow(uniques, out)) continue;
        for (const auto& ok : p_.orderBy) keys.push_back(key(i, ok));
        uniques.push_back(std::move(out));
      }
      n = uniques.size();
    } else {
      keys.reserve(n * width);
      for (std::size_t i = 0; i < n; ++i) {
        for (const auto& ok : p_.orderBy) keys.push_back(key(i, ok));
      }
    }
    auto emit = [&](std::size_t i) {
      rs.rows.push_back(p_.distinct ? std::move(uniques[i]) : project(i));
    };

    const std::size_t begin = std::min<std::size_t>(n, static_cast<std::size_t>(p_.offset));
    std::size_t end = n;
    if (p_.limit) end = std::min(end, begin + static_cast<std::size_t>(*p_.limit));
    if (width == 0) {
      for (std::size_t i = begin; i < end; ++i) emit(i);
      return;
    }
    // The modeled filesort sorts every candidate, whatever the host skips.
    stats_.rowsSorted += n;
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), std::size_t{0});
    auto before = [&](std::size_t a, std::size_t b) {
      for (std::size_t k = 0; k < width; ++k) {
        const int c = keys[a * width + k].compare(keys[b * width + k]);
        if (c != 0) return p_.orderBy[k].descending ? c > 0 : c < 0;
      }
      return a < b;
    };
    const auto mid = order.begin() + static_cast<std::ptrdiff_t>(end);
    if (mid == order.end()) {
      std::sort(order.begin(), order.end(), before);
    } else {
      std::partial_sort(order.begin(), mid, order.end(), before);
    }
    for (std::size_t i = begin; i < end; ++i) emit(order[i]);
  }

  /// O(1) MAX/MIN/COUNT(*) from index metadata. Whether the table is empty
  /// is checked here, at execution — the plan must stay data-independent.
  ResultSet runAggFast() {
    const Table& table = *tables_[0];
    const AccessPath& a = p_.access;
    ResultSet rs;
    rs.columns.push_back(a.aggOutputName);
    Row row;
    switch (a.aggFast) {
      case AccessPath::AggFastKind::CountStar:
        row.push_back(Value(static_cast<std::int64_t>(table.size())));
        stats_.rowsExamined += 1;
        break;
      case AccessPath::AggFastKind::MaxAutoPk: {
        // The auto-increment counter bounds every live pk from above (explicit
        // inserts bump it past themselves), but the row holding the newest id
        // may have been deleted — probe downward until a live row answers.
        Value found;
        for (std::int64_t id = table.maxAssignedId(); id >= 1; --id) {
          stats_.rowsExamined += 1;
          if (table.findByPk(Value(id))) {
            found = Value(id);
            break;
          }
        }
        row.push_back(std::move(found));
        break;
      }
      case AccessPath::AggFastKind::IndexMin: {
        // NULLs sort first in the index and MIN ignores them.
        const auto* idx = table.orderedIndex(a.aggColumn);
        const auto it = idx->upper_bound(Value());
        row.push_back(it == idx->end() ? Value() : it->first);
        stats_.rowsExamined += 1;
        break;
      }
      case AccessPath::AggFastKind::IndexMax: {
        // The largest key is NULL only when every value is NULL — and then
        // MAX is NULL anyway.
        const auto v = table.indexMax(a.aggColumn);
        row.push_back(v && !v->isNull() ? *v : Value());
        stats_.rowsExamined += 1;
        break;
      }
      case AccessPath::AggFastKind::None:
        throw std::runtime_error("malformed aggregate fast path");
    }
    rs.rows.push_back(std::move(row));
    if (p_.offset > 0 || (p_.limit && *p_.limit == 0)) rs.rows.clear();
    stats_.usedIndex = true;
    stats_.rowsReturned += rs.rows.size();
    stats_.resultBytes += rs.byteSize();
    return rs;
  }

  const SelectPlan& p_;
  std::span<const Value> params_;
  ExecStats& stats_;
  std::vector<const Table*> tables_;
};

// ---------------------------------------------------------------------------
// Writes.

/// Candidate rows for UPDATE/DELETE: access path plus residual re-check.
std::vector<RowId> writeMatches(const Table& table, const AccessPath& access,
                                const std::vector<CompiledExprPtr>& residual,
                                std::span<const Value> params, ExecStats& stats) {
  std::vector<RowId> out;
  scanAccess(access, table, params, stats, [&](RowId id) {
    const SingleRow src{&table.row(id)};
    for (const auto& c : residual) {
      if (!valueIsTrue(evalExpr(*c, params, src))) return true;
    }
    out.push_back(id);
    return true;
  });
  return out;
}

/// Applies a write LIMIT/OFFSET to the matched rows. Matches arrive in RowId
/// order (LIMIT/OFFSET plans force FullScan access), which defines the slice.
std::vector<RowId> sliceWriteMatches(std::vector<RowId> matches,
                                     const std::optional<std::int64_t>& limit,
                                     std::int64_t offset) {
  if (!limit && offset <= 0) return matches;
  const std::size_t begin =
      std::min(matches.size(), static_cast<std::size_t>(std::max<std::int64_t>(offset, 0)));
  std::size_t end = matches.size();
  if (limit) {
    const auto want = static_cast<std::size_t>(std::max<std::int64_t>(*limit, 0));
    end = std::min(end, begin + want);
  }
  return {matches.begin() + static_cast<std::ptrdiff_t>(begin),
          matches.begin() + static_cast<std::ptrdiff_t>(end)};
}

ExecResult executeInsert(Database& db, const InsertPlan& p, std::span<const Value> params) {
  ExecResult result;
  Table& table = db.table(p.tableName);
  Row row(p.columnCount);  // default NULLs
  for (std::size_t i = 0; i < p.values.size(); ++i) {
    row[p.targets[i].column] =
        coerce(evalExpr(*p.values[i], params, NoRow{}), p.targets[i].type);
  }
  result.lastInsertId = table.insert(std::move(row));
  result.affectedRows = 1;
  result.stats.rowsModified = 1;
  return result;
}

ExecResult executeUpdate(Database& db, const UpdatePlan& p, std::span<const Value> params) {
  ExecResult result;
  Table& table = db.table(p.tableName);
  const auto matches = sliceWriteMatches(
      writeMatches(table, p.access, p.residual, params, result.stats), p.limit, p.offset);
  for (RowId id : matches) {
    // Evaluate every assignment against the pre-update row, then apply.
    const SingleRow src{&table.row(id)};
    std::vector<Value> newValues;
    newValues.reserve(p.sets.size());
    for (const auto& t : p.sets) {
      newValues.push_back(coerce(evalExpr(*t.value, params, src), t.type));
    }
    for (std::size_t i = 0; i < p.sets.size(); ++i) {
      table.updateCell(id, p.sets[i].column, std::move(newValues[i]));
    }
  }
  result.affectedRows = matches.size();
  result.stats.rowsModified = matches.size();
  return result;
}

ExecResult executeDelete(Database& db, const DeletePlan& p, std::span<const Value> params) {
  ExecResult result;
  Table& table = db.table(p.tableName);
  const auto matches = sliceWriteMatches(
      writeMatches(table, p.access, p.residual, params, result.stats), p.limit, p.offset);
  for (RowId id : matches) table.erase(id);
  result.affectedRows = matches.size();
  result.stats.rowsModified = matches.size();
  return result;
}

// ----- read memo key -----

/// Exact identity of two bound parameters: same type and same value, doubles
/// bitwise. Value::compare is too loose for a memo key: int 5 and double 5.0
/// compare equal but project differently.
bool sameParam(const Value& a, const Value& b) {
  if (a.isInt()) return b.isInt() && a.asInt() == b.asInt();
  if (a.isDouble()) {
    return b.isDouble() &&
           std::bit_cast<std::uint64_t>(a.asDouble()) == std::bit_cast<std::uint64_t>(b.asDouble());
  }
  if (a.isString()) return b.isString() && a.asString() == b.asString();
  return b.isNull();
}

std::size_t paramHash(const Value& v) {
  if (v.isInt()) return std::hash<std::int64_t>{}(v.asInt());
  if (v.isDouble()) return std::hash<std::uint64_t>{}(std::bit_cast<std::uint64_t>(v.asDouble()));
  if (v.isString()) return std::hash<std::string>{}(v.asString());
  return 0x9E3779B9u;
}

std::size_t memoKey(const Plan* plan, std::span<const Value> params) {
  std::size_t h = std::hash<const Plan*>{}(plan);
  for (const Value& v : params) {
    h ^= paramHash(v) + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  }
  return h;
}

bool readsUnchanged(const std::vector<std::pair<const Table*, std::uint64_t>>& reads) {
  return std::all_of(reads.begin(), reads.end(),
                     [](const auto& r) { return r.first->version() == r.second; });
}

}  // namespace

bool readMemoApplies(const Plan& plan) {
  if (plan.kind != Statement::Kind::Select) return false;
  const SelectPlan& s = plan.select;
  const bool pointAccess = s.access.kind == AccessPath::Kind::PkEq ||
                           s.access.kind == AccessPath::Kind::AggFast;
  return s.tableNames.size() != 1 || !pointAccess;
}

// ---------------------------------------------------------------------------
// Executor entry points.

ExecResult Executor::executePlan(const Plan& plan, std::span<const Value> params) {
  if (params.size() < plan.paramCount) {
    throw std::runtime_error("statement needs " + std::to_string(plan.paramCount) +
                             " parameters, got " + std::to_string(params.size()) + ": " +
                             plan.text);
  }
  switch (plan.kind) {
    case Statement::Kind::Select: {
      ExecResult result;
      result.resultSet = SelectExec(db_, plan.select, params, result.stats).run();
      return result;
    }
    case Statement::Kind::Insert:
      return executeInsert(db_, plan.insert, params);
    case Statement::Kind::Update:
      return executeUpdate(db_, plan.update, params);
    case Statement::Kind::Delete:
      return executeDelete(db_, plan.del, params);
    case Statement::Kind::LockTables:
    case Statement::Kind::UnlockTables:
      // Lock statements are handled by the DatabaseServer; executing them
      // against the bare engine is a no-op.
      return {};
  }
  throw std::runtime_error("unhandled statement kind");
}

ExecResult Executor::execute(const Statement& stmt, std::span<const Value> params) {
  if (params.size() < stmt.paramCount) {
    throw std::runtime_error("statement needs " + std::to_string(stmt.paramCount) +
                             " parameters, got " + std::to_string(params.size()) + ": " +
                             stmt.text);
  }
  return executePlan(*buildPlan(stmt, db_), params);
}

ExecResult Executor::execute(const PlannedStatement& stmt, std::span<const Value> params) {
  std::shared_ptr<const Plan> plan = stmt.planFor(db_);
  if (!readMemoApplies(*plan) || params.size() < plan->paramCount) {
    return executePlan(*plan, params);
  }
  // A SELECT writes nothing, so the versions read after it ran are the
  // versions its result reflects.
  const auto bound = params.first(plan->paramCount);
  const std::size_t key = memoKey(plan.get(), bound);
  auto [it, end] = memo_.equal_range(key);
  for (; it != end; ++it) {
    MemoEntry& e = it->second;
    if (e.plan != plan || !std::equal(bound.begin(), bound.end(), e.params.begin(),
                                      e.params.end(), sameParam)) {
      continue;
    }
    if (readsUnchanged(e.reads)) {
      ++memoHits_;
    } else {
      e.result = executePlan(*plan, params);
      for (auto& [table, version] : e.reads) version = table->version();
    }
    return e.result;
  }
  MemoEntry e{plan, {bound.begin(), bound.end()}, {}, executePlan(*plan, params)};
  for (const std::string& name : plan->select.tableNames) {
    const Table& table = db_.table(name);
    e.reads.emplace_back(&table, table.version());
  }
  return memo_.emplace(key, std::move(e))->second.result;
}

ExecResult Executor::query(std::string_view sql, std::span<const Value> params) {
  return execute(*parseSql(sql), params);
}

}  // namespace mwsim::db

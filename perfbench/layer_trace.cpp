#include "layer_trace.hpp"

#include <array>
#include <chrono>
#include <cstddef>
#include <span>

#include "apps/auction/schema.hpp"
#include "apps/bookstore/schema.hpp"
#include "core/dataset_cache.hpp"
#include "core/experiment.hpp"
#include "db/executor.hpp"
#include "db/parser.hpp"
#include "db/plan.hpp"
#include "obs/analyzer.hpp"
#include "sim/simulation.hpp"

namespace perfbench {

namespace {

std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

const char* spanKindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::Experiment: return "experiment";
    case SpanKind::DatasetGet: return "dataset_get";
    case SpanKind::CreateSchema: return "create_schema";
    case SpanKind::Populate: return "populate";
    case SpanKind::SelectExec: return "select_exec";
    case SpanKind::WriteExec: return "write_exec";
    case SpanKind::Parse: return "parse";
    case SpanKind::Plan: return "plan";
    case SpanKind::RunUntil: return "run_until";
    case SpanKind::Analyze: return "analyze";
  }
  return "?";
}

Recorder& Recorder::global() {
  static Recorder instance;
  return instance;
}

void Recorder::start() {
  spans_.clear();
  stack_.clear();
  point_ = 0;
  on_ = true;
}

std::uint32_t Recorder::open(SpanKind kind) {
  const auto id = static_cast<std::uint32_t>(spans_.size());
  Span& s = spans_.emplace_back();
  s.kind = kind;
  s.parent = stack_.empty() ? kNoSpan : stack_.back();
  s.point = point_;
  stack_.push_back(id);
  s.startNs = nowNs();  // last, so the bookkeeping above is not inside the span
  return id;
}

void Recorder::close(std::uint32_t id, std::uint64_t payload) {
  const std::int64_t t = nowNs();
  Span& s = spans_[id];
  s.endNs = t;
  s.payload = payload;
  stack_.pop_back();
}

std::vector<LayerMetric> layerSplit(const std::vector<Span>& spans) {
  constexpr std::size_t kKinds = static_cast<std::size_t>(SpanKind::Analyze) + 1;
  std::array<double, kKinds> selfNs{};
  std::array<double, kKinds> totalNs{};
  std::array<std::uint64_t, kKinds> count{};
  std::array<std::uint64_t, kKinds> payload{};
  double buildNs = 0;
  double rootNs = 0;
  std::uint64_t rootSpans = 0;
  std::uint64_t buildSpans = 0;

  std::vector<double> childNs(spans.size(), 0.0);
  std::vector<bool> inBuild(spans.size(), false);
  // Parents precede their children (ids are assigned at open), so one
  // forward pass marks build subtrees and a backward pass has every child
  // sum complete before its parent is read.
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const bool buildRoot = s.kind == SpanKind::CreateSchema || s.kind == SpanKind::Populate;
    inBuild[i] = buildRoot || (s.parent != kNoSpan && inBuild[s.parent]);
    if (buildRoot) ++buildSpans;
  }
  for (std::size_t i = spans.size(); i-- > 0;) {
    const Span& s = spans[i];
    const double dur = static_cast<double>(s.endNs - s.startNs);
    if (s.parent != kNoSpan) {
      childNs[s.parent] += dur;
    } else {
      rootNs += dur;
      ++rootSpans;
    }
    const double self = dur - childNs[i];
    if (inBuild[i]) {
      buildNs += self;
      continue;
    }
    const auto k = static_cast<std::size_t>(s.kind);
    selfNs[k] += self;
    totalNs[k] += dur;
    ++count[k];
    payload[k] += s.payload;
  }

  auto at = [](const auto& arr, SpanKind kind) { return arr[static_cast<std::size_t>(kind)]; };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  constexpr double kS = 1e-9;
  const double selectNs = at(selfNs, SpanKind::SelectExec);
  const std::uint64_t rows = at(payload, SpanKind::SelectExec);
  const double nondbNs = at(selfNs, SpanKind::RunUntil);
  const std::uint64_t events = at(payload, SpanKind::RunUntil);
  const std::uint64_t parsePlanCalls = at(count, SpanKind::Parse) + at(count, SpanKind::Plan);
  return {
      {"bench.traced_total_s", "s", rootNs * kS, rootSpans},
      {"core.dataset.build_s", "s", buildNs * kS, buildSpans},
      {"core.dataset.clone_s", "s", at(selfNs, SpanKind::DatasetGet) * kS,
       at(count, SpanKind::DatasetGet)},
      {"core.dataset.gets", "count", static_cast<double>(at(count, SpanKind::DatasetGet)),
       at(count, SpanKind::DatasetGet)},
      {"core.experiment.other_s", "s", at(selfNs, SpanKind::Experiment) * kS,
       at(count, SpanKind::Experiment)},
      {"db.select.exec_s", "s", selectNs * kS, at(count, SpanKind::SelectExec)},
      {"db.select.calls", "count", static_cast<double>(at(count, SpanKind::SelectExec)),
       at(count, SpanKind::SelectExec)},
      {"db.rows_examined", "count", static_cast<double>(rows),
       at(count, SpanKind::SelectExec)},
      {"db.select.ns_per_row", "ns", ratio(selectNs, static_cast<double>(rows)),
       at(count, SpanKind::SelectExec)},
      {"db.write.exec_s", "s", at(selfNs, SpanKind::WriteExec) * kS,
       at(count, SpanKind::WriteExec)},
      {"db.write.calls", "count", static_cast<double>(at(count, SpanKind::WriteExec)),
       at(count, SpanKind::WriteExec)},
      {"db.parse_calls", "count", static_cast<double>(at(count, SpanKind::Parse)),
       at(count, SpanKind::Parse)},
      {"db.plan_calls", "count", static_cast<double>(at(count, SpanKind::Plan)),
       at(count, SpanKind::Plan)},
      {"db.parse_plan_s", "s",
       (at(selfNs, SpanKind::Parse) + at(selfNs, SpanKind::Plan)) * kS, parsePlanCalls},
      {"sim.run_s", "s", at(totalNs, SpanKind::RunUntil) * kS, at(count, SpanKind::RunUntil)},
      {"sim.events", "count", static_cast<double>(events), at(count, SpanKind::RunUntil)},
      {"sim.nondb_s", "s", nondbNs * kS, at(count, SpanKind::RunUntil)},
      {"sim.nondb_ns_per_event", "ns", ratio(nondbNs, static_cast<double>(events)),
       at(count, SpanKind::RunUntil)},
      {"obs.analyze_s", "s", at(selfNs, SpanKind::Analyze) * kS,
       at(count, SpanKind::Analyze)},
  };
}

}  // namespace perfbench

// ---------------------------------------------------------------------------
// Link-time wrappers. Each pair names the mangled symbol twice: __real_<sym>
// is the original definition, __wrap_<sym> is what every other object file's
// call now reaches (see PERFBENCH_WRAPPED in CMakeLists.txt). If a signature
// in src/ changes, the __real_ reference no longer resolves and the link
// fails, rather than the split silently missing a layer.
// ---------------------------------------------------------------------------

namespace perfbench::wrap {

using mwsim::db::Database;

#define PERFBENCH_SYM(mangled) __asm__("__real_" mangled)
#define PERFBENCH_WRAP(mangled) __asm__("__wrap_" mangled)

#define PERFBENCH_DATASET_GET "_ZN5mwsim4core12DatasetCache3getENS0_3AppEdm"
Database realGet(mwsim::core::DatasetCache* self, mwsim::core::App app, double scale,
                 std::uint64_t dataSeed) PERFBENCH_SYM(PERFBENCH_DATASET_GET);
Database wrapGet(mwsim::core::DatasetCache* self, mwsim::core::App app, double scale,
                 std::uint64_t dataSeed) PERFBENCH_WRAP(PERFBENCH_DATASET_GET);
Database wrapGet(mwsim::core::DatasetCache* self, mwsim::core::App app, double scale,
                 std::uint64_t dataSeed) {
  ScopedSpan span(SpanKind::DatasetGet);
  return realGet(self, app, scale, dataSeed);
}

// createSchema/populate for each app: same shape, different Scale type.
#define PERFBENCH_APP_WRAPPERS(ns, nsMangled)                                          \
  void realCreate_##ns(Database& d)                                                    \
      PERFBENCH_SYM("_ZN5mwsim4apps" nsMangled "12createSchemaERNS_2db8DatabaseE");    \
  void wrapCreate_##ns(Database& d)                                                    \
      PERFBENCH_WRAP("_ZN5mwsim4apps" nsMangled "12createSchemaERNS_2db8DatabaseE");   \
  void wrapCreate_##ns(Database& d) {                                                  \
    ScopedSpan span(SpanKind::CreateSchema);                                           \
    realCreate_##ns(d);                                                                \
  }                                                                                    \
  void realPopulate_##ns(Database& d, const mwsim::apps::ns::Scale& s,                 \
                         mwsim::sim::Rng& rng)                                         \
      PERFBENCH_SYM("_ZN5mwsim4apps" nsMangled                                         \
                    "8populateERNS_2db8DatabaseERKNS1_5ScaleERNS_3sim3RngE");          \
  void wrapPopulate_##ns(Database& d, const mwsim::apps::ns::Scale& s,                 \
                         mwsim::sim::Rng& rng)                                         \
      PERFBENCH_WRAP("_ZN5mwsim4apps" nsMangled                                        \
                     "8populateERNS_2db8DatabaseERKNS1_5ScaleERNS_3sim3RngE");         \
  void wrapPopulate_##ns(Database& d, const mwsim::apps::ns::Scale& s,                 \
                         mwsim::sim::Rng& rng) {                                       \
    ScopedSpan span(SpanKind::Populate);                                               \
    realPopulate_##ns(d, s, rng);                                                      \
  }

PERFBENCH_APP_WRAPPERS(bookstore, "9bookstore")
PERFBENCH_APP_WRAPPERS(auction, "7auction")

#define PERFBENCH_EXECUTE                                                              \
  "_ZN5mwsim2db8Executor7executeERKNS0_16PlannedStatementESt4spanIKNS0_5ValueELm"      \
  "18446744073709551615EE"
mwsim::db::ExecResult realExecute(mwsim::db::Executor* self,
                                  const mwsim::db::PlannedStatement& stmt,
                                  std::span<const mwsim::db::Value> params)
    PERFBENCH_SYM(PERFBENCH_EXECUTE);
mwsim::db::ExecResult wrapExecute(mwsim::db::Executor* self,
                                  const mwsim::db::PlannedStatement& stmt,
                                  std::span<const mwsim::db::Value> params)
    PERFBENCH_WRAP(PERFBENCH_EXECUTE);
mwsim::db::ExecResult wrapExecute(mwsim::db::Executor* self,
                                  const mwsim::db::PlannedStatement& stmt,
                                  std::span<const mwsim::db::Value> params) {
  if (!perfbench::Recorder::global().on()) return realExecute(self, stmt, params);
  ScopedSpan span(stmt.stmt().kind == mwsim::db::Statement::Kind::Select
                      ? SpanKind::SelectExec
                      : SpanKind::WriteExec);
  mwsim::db::ExecResult result = realExecute(self, stmt, params);
  span.setPayload(result.stats.rowsExamined);
  return result;
}

#define PERFBENCH_PARSE "_ZN5mwsim2db8parseSqlESt17basic_string_viewIcSt11char_traitsIcEE"
std::shared_ptr<const mwsim::db::Statement> realParse(std::string_view sql)
    PERFBENCH_SYM(PERFBENCH_PARSE);
std::shared_ptr<const mwsim::db::Statement> wrapParse(std::string_view sql)
    PERFBENCH_WRAP(PERFBENCH_PARSE);
std::shared_ptr<const mwsim::db::Statement> wrapParse(std::string_view sql) {
  ScopedSpan span(SpanKind::Parse);
  return realParse(sql);
}

#define PERFBENCH_PLAN "_ZN5mwsim2db9buildPlanERKNS0_9StatementERKNS0_8DatabaseE"
std::shared_ptr<const mwsim::db::Plan> realPlan(const mwsim::db::Statement& stmt,
                                                const Database& db)
    PERFBENCH_SYM(PERFBENCH_PLAN);
std::shared_ptr<const mwsim::db::Plan> wrapPlan(const mwsim::db::Statement& stmt,
                                                const Database& db)
    PERFBENCH_WRAP(PERFBENCH_PLAN);
std::shared_ptr<const mwsim::db::Plan> wrapPlan(const mwsim::db::Statement& stmt,
                                                const Database& db) {
  ScopedSpan span(SpanKind::Plan);
  return realPlan(stmt, db);
}

#define PERFBENCH_RUN_UNTIL "_ZN5mwsim3sim10Simulation8runUntilEl"
void realRunUntil(mwsim::sim::Simulation* self, mwsim::sim::SimTime t)
    PERFBENCH_SYM(PERFBENCH_RUN_UNTIL);
void wrapRunUntil(mwsim::sim::Simulation* self, mwsim::sim::SimTime t)
    PERFBENCH_WRAP(PERFBENCH_RUN_UNTIL);
void wrapRunUntil(mwsim::sim::Simulation* self, mwsim::sim::SimTime t) {
  if (!perfbench::Recorder::global().on()) return realRunUntil(self, t);
  ScopedSpan span(SpanKind::RunUntil);
  const std::uint64_t before = self->eventsProcessed();
  realRunUntil(self, t);
  span.setPayload(self->eventsProcessed() - before);
}

#define PERFBENCH_ANALYZE                                                              \
  "_ZN5mwsim3obs7analyzeERKNS0_13MetricsReportEPKNS_5trace6ReportEllNS0_15AnalyzerOptionsE"
mwsim::obs::Verdict realAnalyze(const mwsim::obs::MetricsReport& report,
                                const mwsim::trace::Report* traces, mwsim::sim::SimTime from,
                                mwsim::sim::SimTime to, mwsim::obs::AnalyzerOptions options)
    PERFBENCH_SYM(PERFBENCH_ANALYZE);
mwsim::obs::Verdict wrapAnalyze(const mwsim::obs::MetricsReport& report,
                                const mwsim::trace::Report* traces, mwsim::sim::SimTime from,
                                mwsim::sim::SimTime to, mwsim::obs::AnalyzerOptions options)
    PERFBENCH_WRAP(PERFBENCH_ANALYZE);
mwsim::obs::Verdict wrapAnalyze(const mwsim::obs::MetricsReport& report,
                                const mwsim::trace::Report* traces, mwsim::sim::SimTime from,
                                mwsim::sim::SimTime to, mwsim::obs::AnalyzerOptions options) {
  ScopedSpan span(SpanKind::Analyze);
  return realAnalyze(report, traces, from, to, options);
}

}  // namespace perfbench::wrap

#pragma once

/// Host-time span recorder for the benchmark's traced run.
///
/// layer_trace.cpp defines __wrap_ versions of a handful of out-of-line
/// simulator entry points (dataset build and get, SQL execute, parse, plan,
/// Simulation::runUntil, obs::analyze). The benchmark links with
/// -Wl,--wrap=<symbol> for each of them, so every call from another object
/// file lands in the wrapper, which forwards to the real function. While the
/// recorder is on, each wrapped call becomes a Span: kind, start, end, parent
/// and the id of the sweep point it belongs to. Spans stay in memory; the
/// layer split is computed from them after the run. While the recorder is
/// off, a wrapper costs one predictable branch.
///
/// Single-threaded by design: the benchmark runs points on one host thread.

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class SpanKind : std::uint8_t {
  Experiment,    // core::runExperiment, opened by the driver
  DatasetGet,    // core::DatasetCache::get (self time = the clone)
  CreateSchema,  // apps::{bookstore,auction}::createSchema (cold build)
  Populate,      // apps::{bookstore,auction}::populate (cold build)
  SelectExec,    // db::Executor::execute(PlannedStatement) of a SELECT
  WriteExec,     // ... of an INSERT / UPDATE / DELETE
  Parse,         // db::parseSql
  Plan,          // db::buildPlan
  RunUntil,      // sim::Simulation::runUntil
  Analyze,       // obs::analyze
};

const char* spanKindName(SpanKind kind);

inline constexpr std::uint32_t kNoSpan = 0xFFFFFFFFu;

struct Span {
  std::int64_t startNs = 0;
  std::int64_t endNs = 0;
  /// RunUntil: events processed; SelectExec/WriteExec: rows examined.
  std::uint64_t payload = 0;
  std::uint32_t parent = kNoSpan;
  /// Sweep point the span belongs to (0 = set-up, outside any point).
  std::uint32_t point = 0;
  SpanKind kind = SpanKind::Experiment;
};

class Recorder {
 public:
  static Recorder& global();

  /// Clears previous spans and starts recording.
  void start();
  void stop() { on_ = false; }
  bool on() const { return on_; }
  void setPoint(std::uint32_t point) { point_ = point; }

  std::uint32_t open(SpanKind kind);
  void close(std::uint32_t id, std::uint64_t payload = 0);

  /// Moves the recorded spans out (the recorder keeps none).
  std::vector<Span> take() { return std::move(spans_); }

 private:
  bool on_ = false;
  std::uint32_t point_ = 0;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> stack_;
};

/// RAII span; a no-op while the recorder is off.
class ScopedSpan {
 public:
  explicit ScopedSpan(SpanKind kind)
      : id_(Recorder::global().on() ? Recorder::global().open(kind) : kNoSpan) {}
  ~ScopedSpan() {
    if (id_ != kNoSpan) Recorder::global().close(id_, payload_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  void setPayload(std::uint64_t payload) { payload_ = payload; }

 private:
  std::uint32_t id_;
  std::uint64_t payload_ = 0;
};

/// One per-layer figure of the split, with the number of timed calls (or
/// spans) it was computed from.
struct LayerMetric {
  std::string name;
  std::string unit;
  double value = 0;
  std::uint64_t samples = 0;
};

/// Self time per layer: a span's duration minus its children's. Every span
/// under a CreateSchema/Populate span counts as dataset build; otherwise a
/// span's self time goes to the layer of its own kind. The time layers
/// therefore sum to `bench.traced_total_s`, the summed duration of the root
/// spans. Count and derived metrics ride along.
std::vector<LayerMetric> layerSplit(const std::vector<Span>& spans);

}  // namespace perfbench

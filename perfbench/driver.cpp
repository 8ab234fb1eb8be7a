/// perfbench_driver — runs one benchmark workload through core::runExperiment
/// the way the figure benches do (metrics layer on, per-request tracing off,
/// one host thread, pointParams seeds) and prints one JSON document with the
/// raw measurements: set-up times, per-sweep wall/CPU time and every point's
/// simulated results, plus the traced layer split with --trace 1. A fixed
/// reference kernel is timed next to every measured interval, so run.py can
/// scale the times to one host speed.
/// perfbench/run.py builds this binary, chooses the workload's parameters,
/// checks the results and prints the metrics.

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <exception>
#include <numeric>
#include <string>
#include <string_view>
#include <vector>

#include "core/dataset_cache.hpp"
#include "core/experiment.hpp"
#include "layer_trace.hpp"
#include "middleware/db_session.hpp"

namespace {

using mwsim::core::App;
using mwsim::core::ExperimentParams;
using mwsim::core::ExperimentResult;
using perfbench::LayerMetric;
using perfbench::Recorder;
using perfbench::Span;

constexpr const char* kUsage =
    "usage: perfbench_driver --app bookstore|auction --mix N --clients N[,N...]\n"
    "                        --seed N --seconds S --trace 0|1\n"
    "                        [--rampup-sec S] [--measure-sec S] [--rampdown-sec S]\n"
    "                        [--setup-reps N] [--spans-out FILE]\n";

struct Options {
  App app = App::Bookstore;
  int mix = 0;
  std::vector<int> clients;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  double rampUpSec = 2;
  double measureSec = 10;
  double rampDownSec = 5;
  int setupReps = 1;
  std::string spansOut;
};

[[noreturn]] void usageError(const std::string& why) {
  std::fprintf(stderr, "perfbench_driver: %s\n%s", why.c_str(), kUsage);
  std::exit(2);
}

template <typename Int>
Int parseInt(std::string_view flag, std::string_view text, Int lo, Int hi) {
  Int v{};
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), v);
  if (ec != std::errc{} || end != text.data() + text.size() || text.empty() || v < lo ||
      v > hi) {
    usageError(std::string(flag) + ": invalid value '" + std::string(text) + "'");
  }
  return v;
}

double parseSeconds(std::string_view flag, const char* text, double lo, double hi) {
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || !std::isfinite(v) || v < lo || v > hi) {
    usageError(std::string(flag) + ": invalid value '" + text + "'");
  }
  return v;
}

Options parseOptions(int argc, char** argv) {
  Options o;
  bool seen[6] = {};  // app, mix, clients, seed, seconds, trace
  for (int i = 1; i < argc; i += 2) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) usageError(std::string(flag) + ": missing value");
    const char* value = argv[i + 1];
    if (flag == "--app") {
      const std::string_view v = value;
      if (v == "bookstore") o.app = App::Bookstore;
      else if (v == "auction") o.app = App::Auction;
      else usageError("--app: unknown application '" + std::string(v) + "'");
      seen[0] = true;
    } else if (flag == "--mix") {
      o.mix = parseInt<int>(flag, value, 0, 2);
      seen[1] = true;
    } else if (flag == "--clients") {
      o.clients.clear();
      std::string_view rest = value;
      while (true) {
        const auto comma = rest.find(',');
        o.clients.push_back(parseInt<int>(flag, rest.substr(0, comma), 1, 100000));
        if (comma == std::string_view::npos) break;
        rest.remove_prefix(comma + 1);
      }
      seen[2] = true;
    } else if (flag == "--seed") {
      o.seed = parseInt<std::uint64_t>(flag, value, 0, UINT64_MAX);
      seen[3] = true;
    } else if (flag == "--seconds") {
      o.seconds = parseSeconds(flag, value, 0.001, 3600);
      seen[4] = true;
    } else if (flag == "--trace") {
      o.trace = parseInt<int>(flag, value, 0, 1) == 1;
      seen[5] = true;
    } else if (flag == "--rampup-sec") {
      o.rampUpSec = parseSeconds(flag, value, 0, 3600);
    } else if (flag == "--measure-sec") {
      o.measureSec = parseSeconds(flag, value, 0.001, 3600);
    } else if (flag == "--rampdown-sec") {
      o.rampDownSec = parseSeconds(flag, value, 0, 3600);
    } else if (flag == "--setup-reps") {
      o.setupReps = parseInt<int>(flag, value, 1, 100);
    } else if (flag == "--spans-out") {
      o.spansOut = value;
    } else {
      usageError("unknown flag '" + std::string(flag) + "'");
    }
  }
  for (bool s : seen) {
    if (!s) usageError("--app, --mix, --clients, --seed, --seconds and --trace are required");
  }
  return o;
}

double nowSec() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpuSec() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Wall and process-CPU seconds of one interval.
struct Cost {
  double wall = 0;
  double cpu = 0;
};

std::uint64_t splitmix(std::uint64_t& x) {
  std::uint64_t z = (x += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// A fixed piece of host work, independent of the simulator's code. On a
/// shared host the speed of a vCPU drifts by tens of percent from minute to
/// minute; the kernel runs right before and after every measured interval,
/// so the interval can be scaled to the speed the kernel saw. Its work is
/// shaped like the simulator's, which is what the drift slows most: tables
/// of heap strings built, copied, scanned and freed (dataset build, clone,
/// SELECT scans, teardown), and dependent loads over a table larger than the
/// caches (index lookups).
class ReferenceKernel {
 public:
  ReferenceKernel() : next_(kSlots) {
    // Sattolo's algorithm: the table is one random cycle through every slot.
    std::iota(next_.begin(), next_.end(), 0u);
    std::uint64_t x = 1;
    for (std::uint32_t i = kSlots - 1; i > 0; --i) {
      std::swap(next_[i], next_[splitmix(x) % i]);
    }
  }

  Cost run() {
    const double wall0 = nowSec();
    const double cpu0 = cpuSec();
    std::uint32_t at = 0;
    for (int i = 0; i < kHops; ++i) at = next_[at];
    std::uint64_t x = 1;
    std::vector<std::pair<std::string, std::string>> rows;
    rows.reserve(kRows);
    for (int i = 0; i < kRows; ++i) {
      rows.emplace_back("row-" + std::to_string(splitmix(x)),
                        std::string(48 + i % 32, static_cast<char>('a' + i % 26)));
    }
    auto copy = rows;
    std::size_t hits = 0;
    for (const auto& [key, text] : copy) hits += text.find(key.back()) != std::string::npos;
    std::sort(copy.begin(), copy.end());
    sink_ = sink_ + at + hits + copy[kRows / 2].first.size();
    return {nowSec() - wall0, cpuSec() - cpu0};
  }

 private:
  static constexpr std::uint32_t kSlots = 1u << 23;  // 32 MiB
  static constexpr int kHops = 60000;
  static constexpr int kRows = 1 << 15;
  std::vector<std::uint32_t> next_;
  volatile std::uint64_t sink_ = 0;
};

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string numList(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) out += (i ? "," : "") + num(values[i]);
  return out + "]";
}

std::string jsonString(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// The simulated results checked against the recorded expected values.
std::string pointJson(const ExperimentParams& p, const ExperimentResult& r) {
  std::string s = "{\"config\":" + jsonString(mwsim::core::configurationName(p.config));
  s += ",\"clients\":" + std::to_string(p.clients);
  s += ",\"ipm\":" + num(r.throughputIpm);
  s += ",\"interactions\":" + std::to_string(r.interactions);
  s += ",\"rw_interactions\":" + std::to_string(r.readWriteInteractions);
  s += ",\"queries\":" + std::to_string(r.queries);
  s += ",\"mean_s\":" + num(r.meanResponseSeconds);
  s += ",\"p90_s\":" + num(r.p90ResponseSeconds);
  s += ",\"lock_acq\":" + std::to_string(r.lockAcquisitions);
  s += ",\"lock_contended\":" + std::to_string(r.contendedLockAcquisitions);
  s += ",\"lock_wait_s\":" + num(r.lockWaitSeconds);
  s += ",\"lock_mgr_wait_s\":" + num(r.lockManagerWaitSeconds);
  s += ",\"web_errors\":" + std::to_string(r.webErrors);
  return s + "}";
}

struct Sweep {
  bool traced = false;
  double wallSec = 0;
  double simSec = 0;
  std::vector<std::string> points;
  std::vector<double> pointWallSec;
  std::vector<double> pointCpuSec;
  // The reference kernel before each point and after the last one.
  std::vector<double> refWallSec;
  std::vector<double> refCpuSec;
  std::vector<Span> spans;
  std::uint64_t stmtHit = 0, stmtMiss = 0, planHit = 0, planMiss = 0;
};

void addRef(Sweep& sweep, ReferenceKernel& ref) {
  const Cost c = ref.run();
  sweep.refWallSec.push_back(c.wall);
  sweep.refCpuSec.push_back(c.cpu);
}

Sweep runSweep(const std::vector<ExperimentParams>& points, bool traced,
               ReferenceKernel& ref) {
  // Every sweep starts from a cold statement/plan cache, like a figure
  // bench process does, so each sweep does the same parse and plan work.
  mwsim::mw::StatementCache::global().clear();
  Sweep sweep;
  sweep.traced = traced;
  Recorder& rec = Recorder::global();
  if (traced) rec.start();
  const double sweep0 = nowSec();
  for (std::size_t i = 0; i < points.size(); ++i) {
    const ExperimentParams& p = points[i];
    addRef(sweep, ref);
    rec.setPoint(static_cast<std::uint32_t>(i + 1));
    const double wall0 = nowSec();
    const double cpu0 = cpuSec();
    try {
      ExperimentResult r;
      {
        perfbench::ScopedSpan span(perfbench::SpanKind::Experiment);
        r = mwsim::core::runExperiment(p);
      }
      sweep.points.push_back(pointJson(p, r));
      if (r.metrics) {
        sweep.stmtHit += r.metrics->counterTotal("db.stmt_cache.hit");
        sweep.stmtMiss += r.metrics->counterTotal("db.stmt_cache.miss");
        sweep.planHit += r.metrics->counterTotal("db.plan_cache.hit");
        sweep.planMiss += r.metrics->counterTotal("db.plan_cache.miss");
      }
    } catch (const std::exception& e) {
      sweep.points.push_back("{\"config\":" +
                             jsonString(mwsim::core::configurationName(p.config)) +
                             ",\"clients\":" + std::to_string(p.clients) +
                             ",\"error\":" + jsonString(e.what()) + "}");
    }
    sweep.pointCpuSec.push_back(cpuSec() - cpu0);
    sweep.pointWallSec.push_back(nowSec() - wall0);
    sweep.simSec += mwsim::sim::toSeconds(p.rampUp + p.measure + p.rampDown);
  }
  addRef(sweep, ref);
  sweep.wallSec = nowSec() - sweep0;
  if (traced) {
    rec.stop();
    sweep.spans = rec.take();
  }
  return sweep;
}

/// Appends `extra` to `base`, shifting parent ids past base's spans.
void appendSpans(std::vector<Span>& base, const std::vector<Span>& extra) {
  const auto offset = static_cast<std::uint32_t>(base.size());
  for (Span s : extra) {
    if (s.parent != perfbench::kNoSpan) s.parent += offset;
    base.push_back(s);
  }
}

void writeSpans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench_driver: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "id\tparent\tpoint\tname\tstart_ns\tend_ns\tpayload\n");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f, "%zu\t%lld\t%u\t%s\t%lld\t%lld\t%llu\n", i,
                 s.parent == perfbench::kNoSpan ? -1LL : static_cast<long long>(s.parent),
                 s.point, perfbench::spanKindName(s.kind), static_cast<long long>(s.startNs),
                 static_cast<long long>(s.endNs), static_cast<unsigned long long>(s.payload));
  }
  std::fclose(f);
}

double ratio(std::uint64_t hit, std::uint64_t miss) {
  return hit + miss == 0 ? 0.0 : static_cast<double>(hit) / static_cast<double>(hit + miss);
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parseOptions(argc, argv);

  ExperimentParams base;
  base.app = opt.app;
  base.mix = opt.mix;
  base.seed = opt.seed;
  base.rampUp = mwsim::sim::fromSeconds(opt.rampUpSec);
  base.measure = mwsim::sim::fromSeconds(opt.measureSec);
  base.rampDown = mwsim::sim::fromSeconds(opt.rampDownSec);
  base.metrics.enabled = mwsim::obs::kEnabled;
  std::vector<ExperimentParams> points;
  for (auto config : mwsim::core::allConfigurations()) {
    for (int clients : opt.clients) {
      points.push_back(mwsim::core::pointParams(base, config, clients));
    }
  }
  const ExperimentParams& first = points.front();
  const double scale =
      opt.app == App::Bookstore ? first.bookstoreScale : first.auctionHistoryScale;

  // Set-up: the cold dataset build, i.e. the first DatasetCache::get for the
  // workload's key. Repeated from an empty cache; the last build stays cached
  // for the sweeps.
  auto& cache = mwsim::core::DatasetCache::global();
  const std::uint64_t buildsBefore = cache.builds();
  ReferenceKernel ref;
  ref.run();  // first touch of its table and allocations
  std::vector<double> setupSec;
  std::vector<double> setupRefSec;  // reference kernel before and after each build
  std::size_t datasetBytes = 0;
  std::vector<Span> setupSpans;
  const int setupReps = opt.trace ? 1 : opt.setupReps;
  for (int rep = 0; rep < setupReps; ++rep) {
    cache.clear();
    setupRefSec.push_back(ref.run().wall);
    if (opt.trace) Recorder::global().start();
    const double t0 = nowSec();
    {
      const mwsim::db::Database db = cache.get(opt.app, scale, first.dataSeed);
      setupSec.push_back(nowSec() - t0);
      datasetBytes = db.approxBytes();
    }
    if (opt.trace) {
      Recorder::global().stop();
      setupSpans = Recorder::global().take();
    }
    setupRefSec.push_back(ref.run().wall);
  }

  // Sweeps until the window is used up, at least one. The traced run
  // alternates untraced and traced sweeps, ending on a traced one, so the
  // overhead of tracing is measured in one process.
  std::vector<Sweep> sweeps;
  const double start = nowSec();
  do {
    sweeps.push_back(runSweep(points, /*traced=*/false, ref));
    if (opt.trace) sweeps.push_back(runSweep(points, /*traced=*/true, ref));
  } while (nowSec() - start < opt.seconds);
  const std::uint64_t builds = cache.builds() - buildsBefore;

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);

  std::string out = "{\"setup_s\":" + numList(setupSec);
  out += ",\"setup_ref_s\":" + numList(setupRefSec);
  out += ",\"dataset_bytes\":" + std::to_string(datasetBytes);
  out += ",\"peak_rss_kib\":" + std::to_string(ru.ru_maxrss);
  out += ",\"sweeps\":[";
  for (std::size_t i = 0; i < sweeps.size(); ++i) {
    const Sweep& s = sweeps[i];
    out += i ? "," : "";
    out += "{\"traced\":" + std::string(s.traced ? "true" : "false");
    out += ",\"sim_s\":" + num(s.simSec);
    out += ",\"point_wall_s\":" + numList(s.pointWallSec);
    out += ",\"point_cpu_s\":" + numList(s.pointCpuSec);
    out += ",\"ref_wall_s\":" + numList(s.refWallSec);
    out += ",\"ref_cpu_s\":" + numList(s.refCpuSec) + ",\"points\":[";
    for (std::size_t p = 0; p < s.points.size(); ++p) out += (p ? "," : "") + s.points[p];
    out += "]}";
  }
  out += "]";

  if (opt.trace) {
    // The ledger is set-up plus the traced sweep with the median wall time.
    std::vector<const Sweep*> traced;
    for (const Sweep& s : sweeps) {
      if (s.traced) traced.push_back(&s);
    }
    std::sort(traced.begin(), traced.end(),
              [](const Sweep* a, const Sweep* b) { return a->wallSec < b->wallSec; });
    const Sweep& ledger = *traced[(traced.size() - 1) / 2];
    std::vector<Span> spans = setupSpans;
    appendSpans(spans, ledger.spans);
    std::vector<LayerMetric> layers = perfbench::layerSplit(spans);
    layers.push_back({"core.dataset.mib", "MiB",
                      static_cast<double>(datasetBytes) / (1024.0 * 1024.0), 1});
    layers.push_back({"core.dataset.builds", "count", static_cast<double>(builds), builds});
    layers.push_back({"db.stmt_cache.hit_ratio", "ratio", ratio(ledger.stmtHit, ledger.stmtMiss),
                      ledger.stmtHit + ledger.stmtMiss});
    layers.push_back({"db.plan_cache.hit_ratio", "ratio", ratio(ledger.planHit, ledger.planMiss),
                      ledger.planHit + ledger.planMiss});
    out += ",\"layers\":[";
    for (std::size_t i = 0; i < layers.size(); ++i) {
      const LayerMetric& m = layers[i];
      out += i ? "," : "";
      out += "{\"name\":" + jsonString(m.name) + ",\"unit\":" + jsonString(m.unit) +
             ",\"value\":" + num(m.value) + ",\"samples\":" + std::to_string(m.samples) + "}";
    }
    out += "]";
    if (!opt.spansOut.empty()) writeSpans(opt.spansOut, spans);
  }
  out += "}\n";
  std::fputs(out.c_str(), stdout);
  return 0;
}

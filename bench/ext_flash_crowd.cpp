/// Extension — open-loop flash-crowd experiment. The paper's closed-loop
/// client emulator self-throttles: when the site slows down, so do the
/// clients. A real traffic surge does not — sessions keep arriving at the
/// offered rate regardless of how the site is doing. This bench offers an
/// open-loop Poisson session stream whose rate follows a flash-crowd shape
/// (base rate, then a ramp to surgeMultiplier × base, hold, decay) and
/// sweeps the surge multiplier: below the knee, completed throughput tracks
/// the offered rate; past it, admission control sheds the excess and the
/// site keeps serving at capacity instead of collapsing.
///
/// Extra flags on top of the common harness set:
///   --base-rate R        base session arrivals/sec (default 2)
///   --surge a,b,...      surge multipliers, one run each (default 1,2,4,8)
///   --surge-start T      surge start, seconds from run start (default 90)
///   --ramp-sec D         surge ramp-up duration (default 15)
///   --hold-sec D         time at peak rate (default 60)
///   --decay-sec D        decay back to base (default 30)
///   --max-sessions N     admission cap on active sessions (default 400)
///   --bucket-sec B       time-series bucket width (default 10)
///   --help               print usage and exit
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/harness.hpp"
#include "obs/analyzer.hpp"
#include "stats/report.hpp"

using namespace mwsim;

namespace {

const char* argValue(int argc, char** argv, const char* name) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  }
  return nullptr;
}

std::vector<double> parseDoubleList(const char* text) {
  std::vector<double> out;
  std::string item;
  for (const char* p = text;; ++p) {
    if (*p == ',' || *p == '\0') {
      if (!item.empty()) out.push_back(std::atof(item.c_str()));
      item.clear();
      if (*p == '\0') break;
    } else {
      item.push_back(*p);
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0) {
      std::printf(
          "ext_flash_crowd — open-loop surge sweep: shed vs collapse\n\n"
          "usage: ext_flash_crowd [options]\n"
          "  --base-rate R      base session arrivals/sec (default 2)\n"
          "  --surge a,b,...    surge multipliers (default 1,2,4,8)\n"
          "  --surge-start T    surge start time (default 90)\n"
          "  --ramp-sec D       ramp to peak (default 15)\n"
          "  --hold-sec D       hold at peak (default 60)\n"
          "  --decay-sec D      decay to base (default 30)\n"
          "  --max-sessions N   admission cap (default 400)\n"
          "  --bucket-sec B     time-series bucket width (default 10)\n"
          "  --measure-sec N  --rampup-sec N  --seed N  --jobs N\n"
          "  --csv  (see bench/harness.hpp)\n");
      return 0;
    }
  }

  bench::FigureSpec spec;
  spec.app = core::App::Auction;
  spec.mix = 1;  // bidding
  const auto opts = bench::BenchOptions::parse(argc, argv);
  const auto config = core::Configuration::WsPhpDb;

  double baseRate = 2.0;
  if (const char* v = argValue(argc, argv, "--base-rate")) baseRate = std::atof(v);
  std::vector<double> surges{1, 2, 4, 8};
  if (const char* v = argValue(argc, argv, "--surge")) surges = parseDoubleList(v);
  double surgeStart = 90.0;
  if (const char* v = argValue(argc, argv, "--surge-start")) surgeStart = std::atof(v);
  double rampSec = 15.0;
  if (const char* v = argValue(argc, argv, "--ramp-sec")) rampSec = std::atof(v);
  double holdSec = 60.0;
  if (const char* v = argValue(argc, argv, "--hold-sec")) holdSec = std::atof(v);
  double decaySec = 30.0;
  if (const char* v = argValue(argc, argv, "--decay-sec")) decaySec = std::atof(v);
  int maxSessions = 400;
  if (const char* v = argValue(argc, argv, "--max-sessions")) maxSessions = std::atoi(v);
  double bucketSec = 10.0;
  if (const char* v = argValue(argc, argv, "--bucket-sec")) bucketSec = std::atof(v);

  std::printf("== Extension: open-loop flash crowd (auction, bidding mix, %s) ==\n",
              core::configurationName(config));
  std::printf("(base %.1f sessions/s, surge at t=%.0fs ramp %.0fs hold %.0fs decay "
              "%.0fs, cap %d sessions, measure %.0fs, ramp-up %.0fs, seed %llu)\n\n",
              baseRate, surgeStart, rampSec, holdSec, decaySec, maxSessions,
              opts.measureSec, opts.rampUpSec,
              static_cast<unsigned long long>(opts.seed));
  std::fflush(stdout);

  std::vector<core::ExperimentParams> points;
  for (double surge : surges) {
    auto base = opts.baseParams(spec);
    base.scenario.mode = scenario::ArrivalMode::OpenLoop;
    base.scenario.arrivals = scenario::RateSchedule::flashCrowd(
        baseRate, surge, surgeStart, rampSec, holdSec, decaySec);
    base.scenario.maxInFlightSessions = maxSessions;
    base.scenario.seriesInterval = sim::fromSeconds(bucketSec);
    points.push_back(core::pointParams(base, config, /*clients=*/0));
  }
  const auto results = bench::runPoints(points, opts);

  stats::TextTable table({"surge ×", "peak rate/s", "ipm", "arrivals", "shed",
                          "shed %", "errors", "mean RT ms", "p90 RT ms"});
  std::string csv =
      "surge,peak_rate,ipm,arrivals,shed,shed_pct,errors,mean_rt_ms,p90_rt_ms\n";
  for (std::size_t i = 0; i < surges.size(); ++i) {
    const auto& r = results[i];
    const double shedPct =
        r.openLoopArrivals == 0
            ? 0.0
            : 100.0 * static_cast<double>(r.shedSessions) /
                  static_cast<double>(r.openLoopArrivals);
    table.addRow({stats::fmt(surges[i], 1), stats::fmt(baseRate * surges[i], 1),
                  stats::fmt(r.throughputIpm, 0), std::to_string(r.openLoopArrivals),
                  std::to_string(r.shedSessions), stats::fmt(shedPct, 1),
                  std::to_string(r.webErrors),
                  stats::fmt(r.meanResponseSeconds * 1e3, 0),
                  stats::fmt(r.p90ResponseSeconds * 1e3, 0)});
    csv += stats::fmt(surges[i], 1) + "," + stats::fmt(baseRate * surges[i], 1) + "," +
           stats::fmt(r.throughputIpm, 0) + "," + std::to_string(r.openLoopArrivals) +
           "," + std::to_string(r.shedSessions) + "," + stats::fmt(shedPct, 1) + "," +
           std::to_string(r.webErrors) + "," +
           stats::fmt(r.meanResponseSeconds * 1e3, 0) + "," +
           stats::fmt(r.p90ResponseSeconds * 1e3, 0) + "\n";
  }
  std::printf("%s\n", table.str().c_str());
  if (opts.csv) std::printf("%s\n", csv.c_str());

  for (std::size_t i = 0; i < surges.size(); ++i) {
    if (results[i].series) {
      std::string label = "surge ×" + stats::fmt(surges[i], 1);
      bench::printTimeSeries(label.c_str(), *results[i].series);
    }
  }

  // Surge-window verdicts: past the knee the verdict's note attributes the
  // completed-throughput plateau to admission shedding, not just the
  // saturated resource.
  std::printf("\nsurge-window verdicts:\n");
  for (std::size_t i = 0; i < surges.size(); ++i) {
    if (!results[i].metrics) continue;
    const obs::Verdict v = obs::analyze(
        *results[i].metrics, nullptr, sim::fromSeconds(surgeStart),
        sim::fromSeconds(surgeStart + rampSec + holdSec + decaySec));
    std::printf("  verdict[surge ×%s]: %s\n", stats::fmt(surges[i], 1).c_str(),
                v.oneLine().c_str());
  }
  std::fflush(stdout);

  std::printf("\nexpected: at low surge, throughput tracks the offered rate and "
              "nothing sheds; past the knee the admission cap sheds the excess "
              "while completed throughput plateaus at capacity (response times "
              "bounded by the cap) — degradation by refusal, not collapse.\n");
  std::fflush(stdout);
  return 0;
}

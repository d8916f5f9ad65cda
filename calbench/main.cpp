// calbench — the repository's benchmark (README.md beside this file).
//
//   calbench --workload <flows|replay|checkpoint|chaos> --seed <n>
//            --seconds <s> --trace <0|1> [--tiny] [--trace-out <file>]
//
// Runs one workload as a closed loop for about `--seconds` seconds and
// prints, as its last stdout line, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ones. Every host time except host.ref_s and host.wall_raw_s is
// calibrated against the reference kernel run before and after it.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "ref_kernel.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace calbench {
namespace {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string traceOut;
};

/// Calls measured per run at the least, however long they take (and never
/// fewer than one per batch).
constexpr std::size_t kMinCalls = 3;

/// Host seconds one set-up sample spans at the least.
constexpr double kMinSetupSeconds = 1e-3;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "calbench: %s\nusage: calbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--tiny] [--trace-out <file>]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool haveWorkload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        usage(("missing value for " + arg).c_str());
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      o.workload = value();
      haveWorkload = true;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      o.trace = value() == "1";
    } else if (arg == "--tiny") {
      o.tiny = true;
    } else if (arg == "--trace-out") {
      o.traceOut = value();
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (!haveWorkload) {
    usage("--workload is required");
  }
  if (!(o.seconds > 0.0 && o.seconds <= 600.0)) {
    usage("--seconds must be in (0, 600]");
  }
  return o;
}

double median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Peak resident set of the process so far: VmHWM of /proc/self/status.
/// Not getrusage's ru_maxrss, which keeps the peak of the process image
/// that exec replaced (the Python launcher in run.py).
double peakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // in kB
    }
  }
  throw std::runtime_error("cannot read VmHWM from /proc/self/status");
}

/// Times reference runs and converts raw host seconds into calibrated ones.
class Calibrator {
 public:
  /// Runs the reference kernel once; returns its raw seconds.
  double measure() {
    const Clock::time_point t0 = Clock::now();
    const std::uint64_t sum = kernel_.run();
    const double s = secondsSince(t0);
    if (sum != kRefChecksum) {
      ++badChecksums_;
    }
    raw_.push_back(s);
    return s;
  }
  /// Calibration factor for work timed between two reference runs.
  [[nodiscard]] static double factor(double refBefore, double refAfter) {
    return kNominalRefSeconds / (0.5 * (refBefore + refAfter));
  }
  [[nodiscard]] const std::vector<double>& raw() const noexcept {
    return raw_;
  }
  [[nodiscard]] int badChecksums() const noexcept { return badChecksums_; }

 private:
  RefKernel kernel_;
  std::vector<double> raw_;
  int badChecksums_ = 0;
};

/// Run-wide bookkeeping shared by both modes.
struct Tally {
  struct Reference {
    std::uint64_t fingerprint = 0;
    std::uint64_t horizonSteps = 0;
    std::uint64_t failed = 0;
    double makespan = 0.0;
  };
  /// Operations of the first call of each batch. Every later call of a
  /// batch repeats its inputs and must repeat its outcome, so the counts
  /// depend on the seed alone, not on how many calls fit in the run.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::set<std::string> failures;
  std::set<std::string> problems;
  /// First result of each batch.
  std::map<std::size_t, Reference> first;

  /// Counts the first call of a batch and checks every later one against
  /// it: they had the same inputs, so at any worker count and with tracing
  /// on or off they must give the same fingerprint, round count and failed
  /// operations.
  void add(const CallResult& r, std::size_t batch, const char* what) {
    problems.insert(r.problems.begin(), r.problems.end());
    const auto [it, isFirst] = first.try_emplace(
        batch,
        Reference{r.fingerprint, r.horizonSteps, r.failed, r.makespan});
    if (isFirst) {
      attempted += r.attempted;
      failed += r.failed;
      failures.insert(r.failures.begin(), r.failures.end());
      return;
    }
    const Reference& ref = it->second;
    if (r.fingerprint != ref.fingerprint ||
        r.horizonSteps != ref.horizonSteps || r.failed != ref.failed) {
      char buf[256];
      std::snprintf(buf, sizeof buf,
                    "determinism: %s call of batch %zu gave fingerprint "
                    "%016llx / %llu horizon steps / %llu failed, first call "
                    "%016llx / %llu / %llu",
                    what, batch, static_cast<unsigned long long>(r.fingerprint),
                    static_cast<unsigned long long>(r.horizonSteps),
                    static_cast<unsigned long long>(r.failed),
                    static_cast<unsigned long long>(ref.fingerprint),
                    static_cast<unsigned long long>(ref.horizonSteps),
                    static_cast<unsigned long long>(ref.failed));
      problems.insert(buf);
    }
  }

  /// Median simulated span over the run's batches.
  [[nodiscard]] double makespan() const {
    std::vector<double> spans;
    for (const auto& [batch, ref] : first) {
      spans.push_back(ref.makespan);
    }
    return median(spans);
  }
};

/// Calls a run must make at the least.
std::size_t minCalls(const Workload& wl) {
  return std::max(kMinCalls, wl.batches());
}

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

void printResult(const Tally& tally, const Calibrator& cal,
                 const std::vector<Metric>& metrics) {
  for (const std::string& f : tally.failures) {
    std::printf("# failed: %s\n", f.c_str());
  }
  for (const std::string& p : tally.problems) {
    std::printf("# incorrect: %s\n", p.c_str());
  }
  if (cal.badChecksums() > 0) {
    std::printf("# incorrect: reference kernel checksum mismatch in %d runs\n",
                cal.badChecksums());
  }
  const bool correct = tally.problems.empty() && cal.badChecksums() == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

// ---------------------------------------------------------------------------
// --trace 0: end-to-end metrics, no probe, no tracer.

void runUntraced(const Options& opt, Workload& wl) {
  Tally tally;
  const unsigned w = wl.workers();
  // Warm-up call of every batch: thread pool, allocator and page cache
  // settle; not timed. The process's peak resident set is read after them
  // and before the reference kernel exists, so it is the workload's own.
  for (std::size_t batch = 0; batch < wl.batches(); ++batch) {
    wl.setup(batch);
    tally.add(wl.call(w, nullptr, 0), batch, "warm-up");
  }
  const double peakRss = peakRssMb();

  Calibrator cal;
  std::vector<double> wall;
  std::vector<double> wallRaw;
  std::vector<double> setup;
  const Clock::time_point start = Clock::now();
  double refBefore = cal.measure();
  while (secondsSince(start) < opt.seconds || wall.size() < minCalls(wl)) {
    const std::size_t batch = wall.size() % wl.batches();
    // Set-up is repeated until the sample spans kMinSetupSeconds (the last
    // repetition feeds the call), so that short set-ups still measure well
    // above timer noise.
    int repeats = 0;
    const Clock::time_point s0 = Clock::now();
    double setupSpan = 0.0;
    do {
      wl.setup(batch);
      ++repeats;
      setupSpan = secondsSince(s0);
    } while (setupSpan < kMinSetupSeconds);
    const double setupRaw = setupSpan / repeats;
    const CallResult r = wl.call(w, nullptr, 0);
    const double refAfter = cal.measure();
    const double f = Calibrator::factor(refBefore, refAfter);
    wall.push_back(r.wallSeconds * f);
    wallRaw.push_back(r.wallSeconds);
    setup.push_back(setupRaw * f);
    tally.add(r, batch, "measured");
    refBefore = refAfter;
  }
  std::printf("# calls: %zu, ref runs: %zu, raw medians: ref %.6f s, "
              "call %.6f s\n",
              wall.size(), cal.raw().size(), median(cal.raw()),
              median(wallRaw));
  printResult(tally, cal,
              {{"wall_s", "s", median(wall)},
               {"setup_s", "s", median(setup)},
               {"peak_rss_mb", "MB", peakRss},
               {"sim_makespan_s", "sim_s", tally.makespan()}});
}

// ---------------------------------------------------------------------------
// --trace 1: per-layer metrics. Each cycle runs an untraced call at W, a
// traced call at W (probe + spans + re-run analysis), and a traced call at
// one worker, each between two reference runs.

/// Per-layer metrics in output order, with units. Counts a workload cannot
/// reach read 0 (README.md lists where each one is measured).
struct LayerDef {
  const char* name;
  const char* unit;
};
constexpr LayerDef kLayers[] = {
    {"host.ref_s", "s"},
    {"host.wall_raw_s", "s"},
    {"host.cpu_s", "s"},
    {"host.cpu_per_wall", "ratio"},
    {"host.tracing_overhead_s", "s"},
    {"sim.events", "count"},
    {"sim.batches", "count"},
    {"sim.max_queue_depth", "count"},
    {"sim.loop_s", "s"},
    {"sim.ns_per_event", "ns"},
    {"sim.executor.speedup_vs_1", "ratio"},
    {"sim.shard_loop.critical_s", "s"},
    {"sim.shard_loop.avail_parallelism", "ratio"},
    {"net.flows", "count"},
    {"net.events_per_flow", "ratio"},
    {"net.ns_per_flow", "ns"},
    {"platform.horizon_steps", "count"},
    {"platform.sync_rounds", "count"},
    {"platform.dispatched_shards", "count"},
    {"platform.barriers_skipped", "count"},
    {"platform.outside_loops_s", "s"},
    {"platform.us_per_step", "us"},
    {"platform.storage_requests", "count"},
    {"platform.storage_completions", "count"},
    {"io.bytes_delivered", "B"},
    {"io.app_wait_s", "sim_s"},
    {"io.app_paused_s", "sim_s"},
    {"io.pauses_honored", "count"},
    {"calciom.msgs", "count"},
    {"calciom.decisions", "count"},
    {"calciom.grants", "count"},
    {"calciom.pauses", "count"},
    {"calciom.cpu_waste_core_s", "core_s"},
    {"calciom.oracle_s", "s"},
    {"calciom.us_per_msg", "us"},
    {"analysis.divergence_s", "s"},
    {"analysis.grant_drift_mean_s", "sim_s"},
    {"fault.msgs_seen", "count"},
    {"fault.msgs_dropped", "count"},
    {"fault.lease_reclaims", "count"},
    {"fault.arbiter_restarts", "count"},
    {"fault.wal_appended", "count"},
    {"fault.degraded_sessions", "count"},
    {"fault.campaign_ms_p50", "ms"},
    {"fault.campaign_ms_p99", "ms"},
    {"fault.exclusive_violations", "count"},
    {"workload.jobs", "count"},
    {"workload.peak_buffered", "count"},
};

double hostOr0(const CallResult& r, const char* name) {
  const auto it = r.hostSeconds.find(name);
  return it == r.hostSeconds.end() ? 0.0 : it->second;
}

void runTraced(const Options& opt, Workload& wl) {
  Calibrator cal;
  Tally tally;
  Tracer tracer(Clock::now());
  const unsigned w = wl.workers();
  wl.setup(0);
  tally.add(wl.call(w, nullptr, 0), 0, "warm-up");

  // Calibrated per-cycle samples. Every call of a cycle runs its batch.
  std::vector<double> wallUntraced, wallRaw, cpu, cpuPerWall, wallTraced,
      wallOne, loop, critical, parallelism, outside, oracle, divergence, p50,
      p99;
  // Counts of the first traced call of each batch.
  std::map<std::size_t, std::map<std::string, double>> batchCounts;
  const Clock::time_point start = Clock::now();
  double ref0 = cal.measure();
  while (secondsSince(start) < opt.seconds ||
         wallTraced.size() < minCalls(wl)) {
    const std::size_t batch = wallTraced.size() % wl.batches();
    // Untraced call at W.
    wl.setup(batch);
    const CallResult u = wl.call(w, nullptr, 0);
    const double ref1 = cal.measure();
    const double fu = Calibrator::factor(ref0, ref1);
    tally.add(u, batch, "untraced");
    wallUntraced.push_back(u.wallSeconds * fu);
    wallRaw.push_back(u.wallSeconds);
    cpu.push_back(u.cpuSeconds * fu);
    cpuPerWall.push_back(ratio(u.cpuSeconds, u.wallSeconds));

    // Traced call at W, then the re-run analysis calls.
    const std::uint64_t callSpan = tracer.beginCall("call W");
    const std::uint64_t setupSpan = tracer.open("setup", callSpan);
    wl.setup(batch);
    tracer.close(setupSpan);
    const std::uint64_t runSpan = tracer.open("run", callSpan);
    CallResult t = wl.call(w, &tracer, runSpan);
    tracer.close(runSpan);
    wl.analyze(t, tracer);
    tracer.close(callSpan);
    const double ref2 = cal.measure();
    const double ft = Calibrator::factor(ref1, ref2);
    tally.add(t, batch, "traced");
    batchCounts.try_emplace(batch, t.counts);
    wallTraced.push_back(t.wallSeconds * ft);
    const double loopW = hostOr0(t, "sim.loop_s");
    const double criticalW = hostOr0(t, "sim.shard_loop.critical_s");
    loop.push_back(loopW * ft);
    critical.push_back(criticalW * ft);
    parallelism.push_back(ratio(loopW, criticalW));
    oracle.push_back(hostOr0(t, "calciom.oracle_s") * ft);
    divergence.push_back(hostOr0(t, "analysis.divergence_s") * ft);
    p50.push_back(hostOr0(t, "fault.campaign_ms_p50") * ft * 1e3);
    p99.push_back(hostOr0(t, "fault.campaign_ms_p99") * ft * 1e3);

    // Traced call at one worker: the executor's speed-up, and the host time
    // spent outside shard loops and analysis calls.
    const std::uint64_t oneSpan = tracer.beginCall("call 1");
    wl.setup(batch);
    const CallResult one = wl.call(1, &tracer, oneSpan);
    tracer.close(oneSpan);
    const double ref3 = cal.measure();
    const double f1 = Calibrator::factor(ref2, ref3);
    tally.add(one, batch, "one-worker");
    wallOne.push_back(one.wallSeconds * f1);
    outside.push_back((one.wallSeconds - hostOr0(one, "sim.loop_s")) * f1 -
                      oracle.back() - divergence.back());
    ref0 = ref3;
  }

  // Per-layer counts are per call: the mean over the run's batches.
  std::map<std::string, double> counts;
  for (const auto& [batch, c] : batchCounts) {
    for (const auto& [name, value] : c) {
      counts[name] += value / static_cast<double>(batchCounts.size());
    }
  }
  auto count = [&](const std::string& name) {
    const auto it = counts.find(name);
    return it == counts.end() ? 0.0 : it->second;
  };
  std::map<std::string, double> v;
  for (const auto& [name, value] : counts) {
    v[name] = value;
  }
  v["host.ref_s"] = median(cal.raw());
  v["host.wall_raw_s"] = median(wallRaw);
  v["host.cpu_s"] = median(cpu);
  v["host.cpu_per_wall"] = median(cpuPerWall);
  v["host.tracing_overhead_s"] = median(wallTraced) - median(wallUntraced);
  v["sim.loop_s"] = median(loop);
  v["sim.ns_per_event"] = 1e9 * ratio(v["sim.loop_s"], count("sim.events"));
  v["sim.executor.speedup_vs_1"] = ratio(median(wallOne), median(wallTraced));
  v["sim.shard_loop.critical_s"] = median(critical);
  v["sim.shard_loop.avail_parallelism"] = median(parallelism);
  v["net.events_per_flow"] = ratio(count("sim.events"), count("net.flows"));
  v["net.ns_per_flow"] = 1e9 * ratio(v["sim.loop_s"], count("net.flows"));
  v["platform.outside_loops_s"] = median(outside);
  v["platform.us_per_step"] =
      1e6 * ratio(v["platform.outside_loops_s"],
                  count("platform.horizon_steps"));
  v["calciom.oracle_s"] = median(oracle);
  v["calciom.us_per_msg"] = 1e6 * ratio(v["calciom.oracle_s"],
                                        count("calciom.msgs"));
  v["analysis.divergence_s"] = median(divergence);
  v["fault.campaign_ms_p50"] = median(p50);
  v["fault.campaign_ms_p99"] = median(p99);

  std::vector<Metric> metrics;
  for (const LayerDef& def : kLayers) {
    metrics.push_back({def.name, def.unit, v[def.name]});
  }
  if (!opt.traceOut.empty()) {
    if (tracer.write(opt.traceOut)) {
      std::printf("# trace: %zu spans (%zu dropped) written to %s\n",
                  tracer.kept(), tracer.dropped(), opt.traceOut.c_str());
    } else {
      tally.problems.insert("trace: cannot write " + opt.traceOut);
    }
  }
  std::printf("# cycles: %zu, ref runs: %zu, calibrated wall: untraced %.6f "
              "s, traced %.6f s, one worker %.6f s\n",
              wallTraced.size(), cal.raw().size(), median(wallUntraced),
              median(wallTraced), median(wallOne));
  printResult(tally, cal, metrics);
}

}  // namespace
}  // namespace calbench

int main(int argc, char** argv) {
  using namespace calbench;
  const Options opt = parse(argc, argv);
  try {
    std::unique_ptr<Workload> wl = makeWorkload(opt.workload, opt.seed,
                                                opt.tiny);
    std::printf("# calbench workload=%s seed=%llu seconds=%g trace=%d%s\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.seconds,
                opt.trace ? 1 : 0, opt.tiny ? " tiny" : "");
    std::printf("# host: nproc=%u workers=%u build=%s nominal_ref_s=%.3f "
                "ref_checksum=%016llx\n",
                std::thread::hardware_concurrency(), wl->workers(),
                CALBENCH_BUILD_TYPE, kNominalRefSeconds,
                static_cast<unsigned long long>(kRefChecksum));
    std::fflush(stdout);
    if (opt.trace) {
      runTraced(opt, *wl);
    } else {
      runUntraced(opt, *wl);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "calbench: %s\n", e.what());
    return 1;
  }
  return 0;
}

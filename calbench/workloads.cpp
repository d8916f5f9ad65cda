#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>
#include <stdexcept>
#include <utility>

#include "analysis/cluster_scenario.hpp"
#include "analysis/replay.hpp"
#include "bench/flow_scenarios.hpp"
#include "calciom/arbiter_core.hpp"
#include "calciom/global_arbiter.hpp"
#include "fault/chaos.hpp"
#include "platform/presets.hpp"
#include "sim/rng.hpp"
#include "workload/trace.hpp"

namespace calbench {
namespace {

namespace sim = calciom::sim;
namespace platform = calciom::platform;
namespace replay = calciom::analysis::replay;
namespace fault = calciom::fault;
using calciom::core::PolicyKind;

/// FNV-1a over 64-bit words; doubles fold by bit pattern.
class Fingerprint {
 public:
  void fold(std::uint64_t v) noexcept {
    h_ ^= v;
    h_ *= 0x100000001B3ULL;
  }
  void foldBits(double v) noexcept {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    fold(bits);
  }
  void foldDecisions(
      const std::vector<calciom::core::DecisionRecord>& decisions) {
    for (const calciom::core::DecisionRecord& d : decisions) {
      foldBits(d.time);
      fold(d.requester);
      fold(static_cast<std::uint64_t>(d.action));
      for (std::uint32_t a : d.accessors) {
        fold(a);
      }
      for (const auto& c : d.costs) {
        foldBits(c.metricCost);
      }
    }
  }
  void foldGrants(const std::vector<calciom::core::GrantRecord>& grants) {
    for (const calciom::core::GrantRecord& g : grants) {
      foldBits(g.time);
      fold(g.app);
      fold(g.resume ? 1 : 0);
    }
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ULL;
};

/// Counters every cluster the benchmark can reach exposes.
void addClusterCounts(CallResult& out, const platform::ClusterStats& s) {
  out.counts["sim.events"] = static_cast<double>(s.total.processedEvents);
  out.counts["sim.batches"] = static_cast<double>(s.total.dispatchBatches);
  out.counts["sim.max_queue_depth"] =
      static_cast<double>(s.total.maxQueueDepth);
  out.counts["platform.horizon_steps"] = static_cast<double>(s.horizonSteps);
  out.counts["platform.sync_rounds"] = static_cast<double>(s.syncRounds);
  out.counts["platform.dispatched_shards"] =
      static_cast<double>(s.dispatchedShards);
  out.counts["platform.barriers_skipped"] =
      static_cast<double>(s.barriersSkipped);
}

// ---------------------------------------------------------------------------
// flows: clustered FlowNet transfers on 16 shards, no hooks, no arbiter.

/// Runs one worker's transfers and records when its last flow completed.
sim::Task timedFlowWorker(sim::Engine& eng, calciom::net::FlowNet& net,
                          const calciom::scenarios::WorkerPlan& plan,
                          const std::vector<calciom::net::ResourceId>& res,
                          double* finish) {
  co_await eng.spawn(calciom::scenarios::flowWorker(net, plan, res));
  *finish = eng.now();
}

class FlowsWorkload final : public Workload {
 public:
  FlowsWorkload(std::uint64_t seed, bool tiny)
      : seed_(seed),
        clustersPerShard_(tiny ? 4 : 48),
        workersPerShard_(tiny ? 40 : 1200),
        flowsPerWorker_(tiny ? 2 : 3) {}

  [[nodiscard]] unsigned workers() const override { return 2; }

  void setup(std::size_t /*batch*/) override {
    cluster_.reset();
    platform::ClusterSpec spec;
    spec.name = "flows";
    spec.shards = kShards;
    spec.seed = seed_;
    cluster_ = std::make_unique<platform::Cluster>(spec);
    // flowWorker holds references into scenarios_ and resources_; both are
    // sized up front so no reallocation moves them during the run.
    scenarios_.clear();
    scenarios_.reserve(kShards);
    resources_.assign(kShards, {});
    done_.clear();
    finish_.assign(kShards * static_cast<std::size_t>(workersPerShard_), 0.0);
    sim::SplitMix64 seeds(seed_);
    for (std::size_t s = 0; s < kShards; ++s) {
      scenarios_.push_back(calciom::scenarios::makeClusteredScenario(
          seeds.next(), clustersPerShard_, workersPerShard_, flowsPerWorker_));
      calciom::net::FlowNet& net = cluster_->machine(s).net();
      for (double cap : scenarios_[s].capacities) {
        resources_[s].push_back(net.addResource(cap));
      }
      for (const calciom::scenarios::WorkerPlan& plan :
           scenarios_[s].workers) {
        double* finish = &finish_[done_.size()];
        done_.push_back(cluster_->engine(s).spawn(timedFlowWorker(
            cluster_->engine(s), net, plan, resources_[s], finish)));
      }
    }
  }

  CallResult call(unsigned workers, Tracer* tracer,
                  std::uint64_t callSpan) override {
    std::unique_ptr<BarrierProbe> probe;
    if (tracer != nullptr) {
      probe = std::make_unique<BarrierProbe>(*tracer, callSpan, true);
      probe->attach(*cluster_);
      cluster_->addBarrierHook(probe.get());
    }
    HostTimer timer;
    timer.start();
    cluster_->run(workers);
    timer.stop();

    CallResult out;
    const platform::ClusterStats stats = cluster_->stats();
    addClusterCounts(out, stats);
    out.horizonSteps = stats.horizonSteps;
    out.hostSeconds["sim.loop_s"] = stats.cpuSeconds;
    if (probe) {
      out.hostSeconds["sim.shard_loop.critical_s"] = probe->criticalSeconds();
    }
    Fingerprint fp;
    std::size_t worker = 0;
    double spans = 0.0;
    for (std::size_t s = 0; s < kShards; ++s) {
      const sim::EngineStats es = cluster_->engine(s).stats();
      fp.fold(es.processedEvents);
      fp.fold(es.scheduledEvents);
      fp.fold(es.dispatchBatches);
      fp.fold(es.maxQueueDepth);
      fp.foldBits(cluster_->engine(s).now());
      // Every flow completes and delivers exactly the bytes it requested:
      // each worker's trigger fires after its last flow, and each resource
      // carried exactly the requested bytes of the flows routed over it.
      const calciom::net::FlowNet& net = cluster_->machine(s).net();
      std::vector<double> requested(resources_[s].size(), 0.0);
      for (const calciom::scenarios::WorkerPlan& plan :
           scenarios_[s].workers) {
        for (double b : plan.bytes) {
          requested[plan.link] += b;
          requested[plan.server] += b;
        }
      }
      std::vector<bool> exact(resources_[s].size());
      for (std::size_t r = 0; r < resources_[s].size(); ++r) {
        const double delivered = net.deliveredThrough(resources_[s][r]);
        fp.foldBits(delivered);
        exact[r] = std::abs(delivered - requested[r]) <=
                   1e-9 * std::max(1.0, requested[r]);
      }
      double shardSpan = 0.0;
      for (const calciom::scenarios::WorkerPlan& plan :
           scenarios_[s].workers) {
        const std::uint64_t flows = plan.bytes.size();
        out.attempted += flows;
        shardSpan = std::max(shardSpan, finish_[worker]);
        fp.foldBits(finish_[worker]);
        const bool ok = done_[worker++]->fired() && exact[plan.link] &&
                        exact[plan.server];
        if (!ok) {
          out.failed += flows;
          out.failures.push_back("flows: shard " + std::to_string(s) +
                                 " worker " + std::to_string(plan.app));
        }
      }
      spans += shardSpan;
    }
    // The shards are independent campaigns: the batch's span is their mean
    // makespan (the maximum over 768 clusters would be an extreme value
    // that swings with the seed).
    out.makespan = spans / static_cast<double>(kShards);
    out.fingerprint = fp.value();
    out.counts["net.flows"] = static_cast<double>(out.attempted);
    timer.start();
    cluster_.reset();  // teardown is part of the call, as in runCluster
    timer.stop();
    out.wallSeconds = timer.wall();
    out.cpuSeconds = timer.cpu();
    return out;
  }

 private:
  static constexpr std::size_t kShards = 16;
  std::uint64_t seed_;
  int clustersPerShard_;
  int workersPerShard_;
  int flowsPerWorker_;
  std::unique_ptr<platform::Cluster> cluster_;
  std::vector<calciom::scenarios::FlowScenario> scenarios_;
  std::vector<std::vector<calciom::net::ResourceId>> resources_;
  std::vector<std::shared_ptr<sim::Trigger>> done_;
  std::vector<double> finish_;
};

// ---------------------------------------------------------------------------
// replay: an IntrepidModel slice through the GlobalArbiter of 4+1 shards.

class ReplayWorkload final : public Workload {
 public:
  ReplayWorkload(std::uint64_t seed, bool tiny) {
    cfg_.model.seed = sim::SplitMix64(seed).next();
    cfg_.model.horizonSeconds = tiny ? 6 * 3600.0 : 15 * 86400.0;
    cfg_.policy = PolicyKind::Dynamic;
    cfg_.computeShards = 4;
    cfg_.syncHorizonSeconds = 30.0;
  }

  [[nodiscard]] unsigned workers() const override { return 2; }

  void setup(std::size_t /*batch*/) override {
    // The job list the replay must complete, generated from the same model.
    expectedJobs_ = cfg_.model.generate().size();
  }

  CallResult call(unsigned workers, Tracer* /*tracer*/,
                  std::uint64_t /*callSpan*/) override {
    cfg_.workers = workers;
    HostTimer timer;
    timer.start();
    last_ = replay::replayCluster(cfg_);
    timer.stop();
    const replay::ReplayResult& r = last_;

    CallResult out;
    out.wallSeconds = timer.wall();
    out.cpuSeconds = timer.cpu();
    out.attempted = expectedJobs_;
    // Every generated job completes: its session's Complete reached the
    // captured app→arbiter stream.
    std::set<std::uint32_t> completed;
    for (const calciom::core::CapturedEvent& e : r.captured) {
      if (e.payload.get(calciom::core::msg::kType) ==
          calciom::core::msg::kComplete) {
        completed.insert(e.app);
      }
    }
    if (r.jobs != expectedJobs_) {
      out.problems.push_back("replay: injected " + std::to_string(r.jobs) +
                             " of " + std::to_string(expectedJobs_) +
                             " generated jobs");
    }
    if (completed.size() < expectedJobs_) {
      out.failed = expectedJobs_ - completed.size();
      out.failures.push_back("replay: " + std::to_string(out.failed) +
                             " jobs never completed");
    }
    // The core drains to Idle: the captured protocol stream, replayed into
    // a bare core, leaves nobody accessing, waiting or paused.
    calciom::core::ArbiterCore core(calciom::core::makePolicy(
        cfg_.policy, nullptr, cfg_.dynamicOptions));
    calciom::core::ArbiterCore::Commands commands;
    for (const calciom::core::CapturedEvent& e : r.captured) {
      core.onMessage(e.time + cfg_.messageLatencySeconds, e.app, e.payload,
                     commands);
      commands.clear();
    }
    if (!core.idle()) {
      out.problems.push_back("replay: arbiter core did not drain to Idle");
    }

    Fingerprint fp;
    fp.foldDecisions(r.decisions);
    fp.foldGrants(r.grants);
    fp.foldBits(r.cpuSecondsWaited);
    fp.fold(r.jobs);
    fp.fold(r.engineEvents);
    fp.fold(r.horizonSteps);
    fp.fold(r.captured.size());
    fp.foldBits(r.divergence.grantTimeL1DriftSeconds);
    out.fingerprint = fp.value();
    out.horizonSteps = r.horizonSteps;
    out.makespan = r.traceSpanSeconds;

    out.counts["sim.events"] = static_cast<double>(r.engineEvents);
    out.counts["platform.horizon_steps"] = static_cast<double>(r.horizonSteps);
    out.counts["platform.sync_rounds"] = static_cast<double>(r.syncRounds);
    out.counts["calciom.msgs"] = static_cast<double>(r.captured.size());
    out.counts["calciom.decisions"] = static_cast<double>(r.decisions.size());
    out.counts["calciom.grants"] = static_cast<double>(r.grantsIssued);
    out.counts["calciom.pauses"] = static_cast<double>(r.pausesIssued);
    out.counts["calciom.cpu_waste_core_s"] = r.cpuSecondsWaited;
    out.counts["io.app_wait_s"] = r.sessionWaitSeconds;
    out.counts["io.app_paused_s"] = r.sessionPausedSeconds;
    out.counts["io.pauses_honored"] = static_cast<double>(r.pausesHonored);
    out.counts["analysis.grant_drift_mean_s"] =
        r.divergence.matchedGrants == 0
            ? 0.0
            : r.divergence.grantTimeL1DriftSeconds /
                  static_cast<double>(r.divergence.matchedGrants);
    out.counts["workload.jobs"] = static_cast<double>(r.jobs);
    out.counts["workload.peak_buffered"] =
        static_cast<double>(r.peakStreamBuffered);
    out.hostSeconds["sim.loop_s"] = r.engineCpuSeconds;
    return out;
  }

  void analyze(CallResult& result, Tracer& tracer) override {
    const std::uint64_t parent = tracer.currentCall();
    const Clock::time_point t0 = Clock::now();
    const replay::OracleSchedule oracle =
        replay::oracleReplay(last_.captured, cfg_.policy,
                             cfg_.messageLatencySeconds, cfg_.dynamicOptions);
    const Clock::time_point t1 = Clock::now();
    const replay::DivergenceReport div = replay::computeDivergence(
        last_.decisions, last_.grants, last_.cpuSecondsWaited, oracle);
    const Clock::time_point t2 = Clock::now();
    tracer.add("oracleReplay", t0, t1, parent, {});
    tracer.add("computeDivergence", t1, t2, parent, {});
    result.hostSeconds["calciom.oracle_s"] =
        std::chrono::duration<double>(t1 - t0).count();
    result.hostSeconds["analysis.divergence_s"] =
        std::chrono::duration<double>(t2 - t1).count();
    if (oracle.grants.size() != last_.oracle.grants.size() ||
        div.grantTimeL1DriftSeconds !=
            last_.divergence.grantTimeL1DriftSeconds) {
      result.problems.push_back(
          "replay: re-run oracle/divergence disagrees with the replay's own");
    }
  }

 private:
  replay::ReplayConfig cfg_;
  std::uint64_t expectedJobs_ = 0;
  replay::ReplayResult last_;
};

// ---------------------------------------------------------------------------
// checkpoint: the paper's interference experiments, machine-wide: every
// application size of Figure 4 writing with both periods of Figure 3, one
// per compute shard, against one storage shard with cache, Dynamic policy.

class CheckpointWorkload final : public Workload {
 public:
  CheckpointWorkload(std::uint64_t seed, bool tiny)
      : seed_(seed), tiny_(tiny) {}

  [[nodiscard]] unsigned workers() const override { return 2; }

  void setup(std::size_t /*batch*/) override {
    // Figure 4: A = 336 processes against B in {8, ..., 336}.
    static constexpr int kSizes[] = {336, 8, 16, 32, 64, 128, 256, 336};
    // Figure 3: 8 MiB per process, written every 10 s (10 iterations) by A
    // and every 7 s (14 iterations) by B.
    struct Period {
      int iterations;
      double computeSeconds;
    };
    static constexpr Period kPeriods[] = {{10, 10.0}, {14, 7.0}};
    // Figure 2 sweeps the start offset dt over [-15, 15] s; which
    // application comes first is the sign, so offsets are drawn in [0, 15].
    static constexpr double kMaxOffsetSeconds = 15.0;

    sim::Xoshiro256 rng(seed_);
    cfg_ = {};
    // Figure 3's server caches: one burst fits, two overflow them.
    cfg_.machine = platform::grid5000Nancy(true);
    cfg_.machine.fs.server.cacheBytes = 64e6;
    cfg_.machine.fs.server.restoreFraction = 0.5;
    cfg_.policy = PolicyKind::Dynamic;
    expectedBytes_ = 0;
    iterations_ = 0;
    for (const Period& period : kPeriods) {
      for (int size : kSizes) {
        calciom::workload::IorConfig app;
        app.name = "ior" + std::to_string(cfg_.apps.size());
        app.processes = size;
        app.pattern = calciom::io::contiguousPattern(8u << 20);
        app.iterations = tiny_ ? 2 : period.iterations;
        app.computeSeconds = period.computeSeconds;
        app.startOffset = rng.uniform(0.0, kMaxOffsetSeconds);
        expectedBytes_ += static_cast<std::uint64_t>(app.processes) *
                          app.pattern.bytesPerProcess() *
                          static_cast<std::uint64_t>(app.filesPerPhase) *
                          static_cast<std::uint64_t>(app.iterations);
        iterations_ += static_cast<std::uint64_t>(app.iterations);
        const std::size_t shard = cfg_.apps.size();
        cfg_.apps.push_back(calciom::analysis::ClusterAppPlan{app, shard});
        if (tiny_ && cfg_.apps.size() == 4) {
          break;
        }
      }
      if (tiny_) {
        break;
      }
    }
    cfg_.shards = cfg_.apps.size() + 1;
  }

  CallResult call(unsigned workers, Tracer* tracer,
                  std::uint64_t callSpan) override {
    calciom::analysis::ClusterScenarioConfig cfg = cfg_;
    cfg.workers = workers;
    std::unique_ptr<BarrierProbe> probe;
    calciom::GlobalArbiter* arbiter = nullptr;
    if (tracer != nullptr) {
      probe = std::make_unique<BarrierProbe>(*tracer, callSpan, false);
      cfg.barrierHooks = {probe.get()};
      cfg.prepare = [&](platform::Cluster& cluster,
                        calciom::GlobalArbiter* ga) {
        probe->attach(cluster);
        arbiter = ga;
      };
    }
    HostTimer timer;
    timer.start();
    const calciom::analysis::ClusterRunResult r =
        calciom::analysis::runCluster(cfg);
    timer.stop();

    CallResult out;
    out.wallSeconds = timer.wall();
    out.cpuSeconds = timer.cpu();
    out.attempted = iterations_;
    // Every app finishes every iteration, and the PFS receives exactly the
    // bytes the apps wrote.
    std::uint64_t appBytes = 0;
    for (std::size_t i = 0; i < r.apps.size(); ++i) {
      const auto want = static_cast<std::size_t>(cfg.apps[i].app.iterations);
      const std::size_t got = std::min(r.apps[i].iterations.size(), want);
      if (got < want) {
        out.failed += want - got;
        out.failures.push_back("checkpoint: " + cfg.apps[i].app.name +
                               " finished " + std::to_string(got) + " of " +
                               std::to_string(want) + " iterations");
      }
      appBytes += r.apps[i].totalBytes();
    }
    // The PFS total is a floating-point sum over flows.
    const double wantBytes = static_cast<double>(expectedBytes_);
    if (appBytes != expectedBytes_ ||
        std::abs(r.bytesDelivered - wantBytes) > 1e-9 * wantBytes) {
      out.problems.push_back(
          "checkpoint: PFS received " + std::to_string(r.bytesDelivered) +
          " bytes, apps wrote " + std::to_string(appBytes) + ", expected " +
          std::to_string(expectedBytes_));
    }

    Fingerprint fp;
    for (std::uint64_t e : r.shardEvents) {
      fp.fold(e);
    }
    for (double c : r.shardClocks) {
      fp.foldBits(c);
    }
    fp.foldBits(r.bytesDelivered);
    fp.foldDecisions(r.decisions);
    fp.foldGrants(r.grantLog);
    fp.fold(r.storage.requestsForwarded);
    fp.fold(r.storage.completionsForwarded);
    for (const calciom::workload::AppStats& app : r.apps) {
      fp.foldBits(app.firstStart);
      fp.foldBits(app.lastEnd);
    }
    out.fingerprint = fp.value();
    out.horizonSteps = r.horizonSteps;
    out.makespan = r.spanSeconds;

    if (probe) {
      addClusterCounts(out, probe->stats());
      out.hostSeconds["sim.shard_loop.critical_s"] = probe->criticalSeconds();
    }
    double events = 0.0;
    for (std::uint64_t e : r.shardEvents) {
      events += static_cast<double>(e);
    }
    out.counts["sim.events"] = events;
    out.counts["platform.horizon_steps"] = static_cast<double>(r.horizonSteps);
    out.counts["platform.sync_rounds"] = static_cast<double>(r.syncRounds);
    out.counts["platform.storage_requests"] =
        static_cast<double>(r.storage.requestsForwarded);
    out.counts["platform.storage_completions"] =
        static_cast<double>(r.storage.completionsForwarded);
    double wait = 0.0;
    double paused = 0.0;
    double honored = 0.0;
    for (const calciom::workload::AppStats& app : r.apps) {
      wait += app.sessionWaitSeconds;
      paused += app.sessionPausedSeconds;
      honored += app.pausesHonored;
    }
    out.counts["io.bytes_delivered"] = r.bytesDelivered;
    out.counts["io.app_wait_s"] = wait;
    out.counts["io.app_paused_s"] = paused;
    out.counts["io.pauses_honored"] = honored;
    if (arbiter != nullptr) {
      out.counts["calciom.msgs"] =
          static_cast<double>(arbiter->messagesMerged());
    }
    out.counts["calciom.decisions"] = static_cast<double>(r.decisions.size());
    out.counts["calciom.grants"] = static_cast<double>(r.grantsIssued);
    out.counts["calciom.pauses"] = static_cast<double>(r.pausesIssued);
    out.counts["calciom.cpu_waste_core_s"] = r.cpuSecondsWaited;
    out.counts["workload.jobs"] = static_cast<double>(r.apps.size());
    out.hostSeconds["sim.loop_s"] = r.engineCpuSeconds;
    return out;
  }

 private:
  std::uint64_t seed_;
  bool tiny_;
  calciom::analysis::ClusterScenarioConfig cfg_;
  std::uint64_t expectedBytes_ = 0;
  std::uint64_t iterations_ = 0;
};

// ---------------------------------------------------------------------------
// chaos: fault-plane campaigns over both transports and three policies,
// with and without an arbiter crash.

const char* transportName(fault::ChaosTransport t) {
  return t == fault::ChaosTransport::SameEngine ? "SameEngine" : "Cluster";
}

/// Nearest-rank percentile of an unsorted sample.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

class ChaosWorkload final : public Workload {
 public:
  ChaosWorkload(std::uint64_t seed, bool tiny)
      : seed_(seed), batches_(tiny ? 1 : 10), plansPerCall_(tiny ? 1 : 27) {}

  [[nodiscard]] unsigned workers() const override { return 1; }
  // Campaign costs vary widely from plan to plan: one batch of 27 plans
  // differed by 25% between seeds, so a run cycles through ten.
  [[nodiscard]] std::size_t batches() const override { return batches_; }

  void setup(std::size_t batch) override {
    cells_.clear();
    for (std::uint64_t j = 0; j < plansPerCall_; ++j) {
      // Consecutive plan seeds: --seed n covers [n·B·K, (n+1)·B·K) for B
      // batches of K plans.
      const std::uint64_t planSeed =
          (seed_ * batches_ + batch) * plansPerCall_ + j;
      for (fault::ChaosTransport transport :
           {fault::ChaosTransport::SameEngine,
            fault::ChaosTransport::Cluster}) {
        for (PolicyKind policy :
             {PolicyKind::Fcfs, PolicyKind::Interrupt, PolicyKind::Dynamic}) {
          for (bool crash : {false, true}) {
            Cell cell;
            cell.seed = planSeed;
            cell.crash = crash;
            cell.cfg.transport = transport;
            cell.cfg.policy = policy;
            cell.cfg.workers = 1;
            cell.cfg.plan = fault::chaosPlan(planSeed, cell.cfg.apps);
            if (crash) {
              cell.cfg.plan =
                  fault::withArbiterCrash(std::move(cell.cfg.plan), planSeed);
            }
            cells_.push_back(std::move(cell));
          }
        }
      }
    }
  }

  CallResult call(unsigned /*workers*/, Tracer* tracer,
                  std::uint64_t callSpan) override {
    CallResult out;
    Fingerprint fp;
    std::vector<double> campaignSeconds;
    std::vector<double> simSeconds;
    double loop = 0.0;
    double msgsSeen = 0, dropped = 0, reclaims = 0, restarts = 0, wal = 0,
           degraded = 0, violations = 0, decisions = 0, grants = 0,
           pauses = 0, waste = 0, apps = 0;
    HostTimer timer;
    for (const Cell& cell : cells_) {
      timer.start();
      const Clock::time_point t0 = Clock::now();
      const fault::ChaosResult r = fault::runChaos(cell.cfg);
      const Clock::time_point t1 = Clock::now();
      timer.stop();
      campaignSeconds.push_back(std::chrono::duration<double>(t1 - t0).count());
      ++out.attempted;
      const bool exclusive = cell.cfg.policy == PolicyKind::Fcfs ||
                             cell.cfg.policy == PolicyKind::Interrupt;
      // Checked in every cell, crash cells included.
      std::string broken;
      if (r.survivorsCompleted != r.survivors) {
        broken += " liveness(" + std::to_string(r.survivorsCompleted) + "/" +
                  std::to_string(r.survivors) + ")";
      }
      if (!r.arbiterIdle) {
        broken += " arbiterIdle=false";
      }
      if (exclusive && r.maxConcurrentAccessors > 1) {
        broken += " maxConcurrentAccessors=" +
                  std::to_string(r.maxConcurrentAccessors);
        violations += 1;
      }
      if (!broken.empty()) {
        ++out.failed;
        out.failures.push_back(
            std::string("chaos: transport=") +
            transportName(cell.cfg.transport) +
            " policy=" + calciom::core::toString(cell.cfg.policy) +
            " seed=" + std::to_string(cell.seed) +
            " arbiter_crash=" + (cell.crash ? "1" : "0") + ":" + broken);
      }
      if (tracer != nullptr) {
        char args[128];
        std::snprintf(args, sizeof args,
                      "\"transport\": \"%s\", \"policy\": \"%s\", "
                      "\"seed\": %llu, \"crash\": %d",
                      transportName(cell.cfg.transport),
                      calciom::core::toString(cell.cfg.policy),
                      static_cast<unsigned long long>(cell.seed),
                      cell.crash ? 1 : 0);
        tracer->add("runChaos", t0, t1, callSpan, args);
      }
      fp.fold(r.fingerprint);
      fp.foldBits(r.simSeconds);
      fp.fold(r.maxConcurrentAccessors);
      fp.fold(static_cast<std::uint64_t>(r.survivorsCompleted));
      loop += r.engineCpuSeconds;
      simSeconds.push_back(r.simSeconds);
      msgsSeen += static_cast<double>(r.messagesSeen);
      dropped += static_cast<double>(r.messagesDropped);
      reclaims += static_cast<double>(r.leaseReclaims);
      restarts += static_cast<double>(r.arbiterRestarts);
      wal += static_cast<double>(r.walAppended);
      degraded += r.degradedSessions;
      decisions += static_cast<double>(r.decisionCount);
      grants += static_cast<double>(r.grants);
      pauses += static_cast<double>(r.pauses);
      waste += r.cpuSecondsWaited;
      apps += static_cast<double>(r.apps.size());
    }
    out.wallSeconds = timer.wall();
    out.cpuSeconds = timer.cpu();
    out.fingerprint = fp.value();
    // Median campaign span: a few campaigns per batch wait out degradation
    // timeouts, and a mean would swing with how many the seed drew.
    out.makespan = percentile(simSeconds, 0.5);
    out.counts["fault.msgs_seen"] = msgsSeen;
    out.counts["fault.msgs_dropped"] = dropped;
    out.counts["fault.lease_reclaims"] = reclaims;
    out.counts["fault.arbiter_restarts"] = restarts;
    out.counts["fault.wal_appended"] = wal;
    out.counts["fault.degraded_sessions"] = degraded;
    out.counts["fault.exclusive_violations"] = violations;
    out.counts["calciom.decisions"] = decisions;
    out.counts["calciom.grants"] = grants;
    out.counts["calciom.pauses"] = pauses;
    out.counts["calciom.cpu_waste_core_s"] = waste;
    out.counts["workload.jobs"] = apps;
    out.hostSeconds["sim.loop_s"] = loop;
    out.hostSeconds["fault.campaign_ms_p50"] = percentile(campaignSeconds, 0.5);
    out.hostSeconds["fault.campaign_ms_p99"] =
        percentile(campaignSeconds, 0.99);
    return out;
  }

 private:
  struct Cell {
    std::uint64_t seed = 0;
    bool crash = false;
    fault::ChaosConfig cfg;
  };
  std::uint64_t seed_;
  std::uint64_t batches_;
  std::uint64_t plansPerCall_;
  std::vector<Cell> cells_;
};

}  // namespace

std::unique_ptr<Workload> makeWorkload(const std::string& name,
                                       std::uint64_t seed, bool tiny) {
  if (name == "flows") {
    return std::make_unique<FlowsWorkload>(seed, tiny);
  }
  if (name == "replay") {
    return std::make_unique<ReplayWorkload>(seed, tiny);
  }
  if (name == "checkpoint") {
    return std::make_unique<CheckpointWorkload>(seed, tiny);
  }
  if (name == "chaos") {
    return std::make_unique<ChaosWorkload>(seed, tiny);
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace calbench

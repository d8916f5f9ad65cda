#pragma once

/// \file trace.hpp
/// Span recording for the traced run (`--trace 1`) and the barrier probe
/// that feeds it. Spans are kept in memory and written out once, at exit,
/// in the Trace Event format (chrome://tracing, Perfetto).

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "platform/cluster.hpp"
#include "sim/barrier_hook.hpp"

namespace calbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// CPU seconds the whole process (every thread) has used.
[[nodiscard]] inline double processCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Accumulates host wall and process-CPU seconds over timed sections.
class HostTimer {
 public:
  void start() {
    wall0_ = Clock::now();
    cpu0_ = processCpuSeconds();
  }
  void stop() {
    wall_ += secondsSince(wall0_);
    cpu_ += processCpuSeconds() - cpu0_;
  }
  [[nodiscard]] double wall() const noexcept { return wall_; }
  [[nodiscard]] double cpu() const noexcept { return cpu_; }

 private:
  Clock::time_point wall0_;
  double cpu0_ = 0.0;
  double wall_ = 0.0;
  double cpu_ = 0.0;
};

/// One timed interval at a layer boundary. `call` groups every span of one
/// workload call; `parent` is the span that caused this one (0 = root).
struct Span {
  std::string name;
  Clock::time_point start;
  Clock::time_point end;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t call = 0;
  std::string args;  // pre-rendered JSON object members, may be empty
};

class Tracer {
 public:
  /// Spans beyond this many are counted, not kept (a flows call fires
  /// thousands of barriers).
  static constexpr std::size_t kMaxSpans = 1u << 18;

  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  /// Starts a new call; later spans without an explicit parent hang off it.
  std::uint64_t beginCall(const std::string& name) {
    call_ = nextId_;
    return open(name, 0);
  }
  [[nodiscard]] std::uint64_t currentCall() const noexcept { return call_; }

  /// Opens a span now; close it with close(). Returns its id.
  std::uint64_t open(const std::string& name, std::uint64_t parent) {
    const std::uint64_t id = nextId_++;
    open_.push_back(Span{name, Clock::now(), {}, id, parent, call_, {}});
    return id;
  }
  void close(std::uint64_t id, std::string args = {}) {
    for (std::size_t i = open_.size(); i-- > 0;) {
      if (open_[i].id == id) {
        Span s = std::move(open_[i]);
        open_.erase(open_.begin() + static_cast<std::ptrdiff_t>(i));
        s.end = Clock::now();
        s.args = std::move(args);
        keep(std::move(s));
        return;
      }
    }
  }
  /// Records an already-measured interval.
  void add(const std::string& name, Clock::time_point start,
           Clock::time_point end, std::uint64_t parent, std::string args) {
    keep(Span{name, start, end, nextId_++, parent, call_, std::move(args)});
  }

  [[nodiscard]] std::size_t kept() const noexcept { return spans_.size(); }
  [[nodiscard]] std::size_t dropped() const noexcept { return dropped_; }

  /// Writes every kept span; returns false if the file cannot be written.
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return false;
    }
    std::fprintf(f, "{\"traceEvents\": [\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const double ts = micros(s.start);
      std::fprintf(f,
                   "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                   "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %llu, "
                   "\"parent\": %llu, \"call\": %llu%s%s}}%s\n",
                   s.name.c_str(), ts, micros(s.end) - ts,
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.call),
                   s.args.empty() ? "" : ", ", s.args.c_str(),
                   i + 1 == spans_.size() ? "" : ",");
    }
    std::fprintf(f, "], \"otherData\": {\"dropped_spans\": %zu}}\n", dropped_);
    return std::fclose(f) == 0;
  }

 private:
  [[nodiscard]] double micros(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }
  void keep(Span s) {
    if (spans_.size() < kMaxSpans) {
      spans_.push_back(std::move(s));
    } else {
      ++dropped_;
    }
  }

  Clock::time_point origin_;
  std::uint64_t nextId_ = 1;
  std::uint64_t call_ = 0;
  std::vector<Span> open_;
  std::vector<Span> spans_;
  std::size_t dropped_ = 0;
};

/// A barrier hook that only observes. At every fired barrier it records one
/// span (from the previous barrier to this one: the round's shard loops plus
/// the hooks registered before it) and the round's critical path, the
/// largest per-shard event-loop time since the previous barrier.
///
/// It must not change the round sequence: beside other hooks it votes
/// kNever, so the minimum vote — and with it every horizon and skip — is
/// theirs; on a cluster without hooks it votes `now`, which keeps the grid
/// horizon and fires a no-op barrier after each round, exactly where the
/// hookless cluster would have ended the round anyway.
class BarrierProbe final : public calciom::sim::BarrierHook {
 public:
  BarrierProbe(Tracer& tracer, std::uint64_t parentSpan, bool alone)
      : tracer_(tracer), parent_(parentSpan), alone_(alone) {}

  void attach(calciom::platform::Cluster& cluster) {
    cluster_ = &cluster;
    shardLoop_.assign(cluster.shardCount(), 0.0);
    mark_ = Clock::now();
  }

  bool onBarrier(calciom::sim::Time barrierTime) override {
    const Clock::time_point now = Clock::now();
    double roundCritical = 0.0;
    for (std::size_t i = 0; i < shardLoop_.size(); ++i) {
      const double loop = cluster_->engine(i).stats().wallSeconds;
      roundCritical = std::max(roundCritical, loop - shardLoop_[i]);
      shardLoop_[i] = loop;
    }
    criticalSeconds_ += roundCritical;
    last_ = cluster_->stats();
    char args[96];
    std::snprintf(args, sizeof args,
                  "\"sim_time\": %.9g, \"critical_us\": %.3f", barrierTime,
                  roundCritical * 1e6);
    tracer_.add("barrier", mark_, now, parent_, args);
    mark_ = Clock::now();
    return false;
  }

  calciom::sim::Time nextBarrierNeededBy(calciom::sim::Time now) override {
    // A vote is taken after every round, so the snapshot includes the last
    // round; only a skip of the final drain barrier comes after it.
    last_ = cluster_->stats();
    return alone_ ? now : calciom::sim::kNever;
  }

  /// Sum over fired barriers of the round's slowest shard loop: the event
  /// loop time no worker count can hide.
  [[nodiscard]] double criticalSeconds() const noexcept {
    return criticalSeconds_;
  }
  /// Cluster counters as of the last vote or barrier.
  [[nodiscard]] const calciom::platform::ClusterStats& stats() const noexcept {
    return last_;
  }

 private:
  Tracer& tracer_;
  std::uint64_t parent_;
  bool alone_;
  calciom::platform::Cluster* cluster_ = nullptr;
  std::vector<double> shardLoop_;
  Clock::time_point mark_;
  double criticalSeconds_ = 0.0;
  calciom::platform::ClusterStats last_;
};

}  // namespace calbench

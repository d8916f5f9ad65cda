#pragma once

/// \file workloads.hpp
/// The four benchmark workloads (README.md, "Workloads"). Each is a closed
/// loop: one caller, one fixed-size batch per call. A run cycles through
/// `batches()` batches, all built from the workload seed by setup().

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "trace.hpp"

namespace calbench {

/// What one call produced. `counts` are deterministic (simulated-time)
/// layer counters; `hostSeconds` are raw host timings, calibrated by
/// main.cpp.
struct CallResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// One line per failed operation, naming it well enough to reproduce.
  std::vector<std::string> failures;
  /// Violated output checks that are not per-operation failures (lost
  /// determinism, inconsistent totals); any entry makes the run incorrect.
  std::vector<std::string> problems;
  /// Host wall and process-CPU seconds of the calls into the simulator
  /// (output checks excluded), raw.
  double wallSeconds = 0.0;
  double cpuSeconds = 0.0;
  /// Folds every deterministic output of the call.
  std::uint64_t fingerprint = 0;
  std::uint64_t horizonSteps = 0;
  /// Simulated span of the batch, seconds.
  double makespan = 0.0;
  std::map<std::string, double> counts;
  std::map<std::string, double> hostSeconds;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Worker threads of a measured call (W).
  [[nodiscard]] virtual unsigned workers() const = 0;
  /// Distinct batches a run cycles through.
  [[nodiscard]] virtual std::size_t batches() const { return 1; }
  /// Generates the inputs of batch `batch` (< batches()) and assembles what
  /// the next call runs on.
  virtual void setup(std::size_t batch) = 0;
  /// Runs the batch set up last. With a tracer, barrier spans are recorded
  /// by a probe under span `callSpan`.
  virtual CallResult call(unsigned workers, Tracer* tracer,
                          std::uint64_t callSpan) = 0;
  /// Traced runs only: re-runs the analysis calls on the last call's output
  /// and adds their host seconds to `result`.
  virtual void analyze(CallResult& /*result*/, Tracer& /*tracer*/) {}
};

/// `tiny` shrinks every batch to smoke-test size.
[[nodiscard]] std::unique_ptr<Workload> makeWorkload(const std::string& name,
                                                     std::uint64_t seed,
                                                     bool tiny);

}  // namespace calbench

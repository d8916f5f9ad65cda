#pragma once

/// \file flow_net_reference.hpp
/// The original global-recompute implementation of the weighted max–min
/// fluid network, retained verbatim as an oracle. `ReferenceFlowNet`
/// re-runs progressive filling over *every* active flow and *every*
/// resource on each flow event — O(F·R) per event, O(F·R²) worst case —
/// which is simple enough to audit by eye. The production `FlowNet`
/// (flow_net.hpp) must agree with it on rates and completion order; the
/// differential property test in tests/net_reference_test.cpp and the
/// perf_flownet bench both drive the two side by side.
///
/// Do not optimise this class. Its value is being obviously correct.

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "net/flow_net.hpp"
#include "sim/engine.hpp"
#include "sim/sync.hpp"
#include "sim/time.hpp"

namespace calciom::net {

/// Weighted max–min fair fluid network, global-recompute reference version.
/// Mirrors the FlowNet interface (minus the rates listeners) so the two can
/// be driven by the same test harness.
class ReferenceFlowNet {
 public:
  explicit ReferenceFlowNet(sim::Engine& engine) : engine_(engine) {}
  ReferenceFlowNet(const ReferenceFlowNet&) = delete;
  ReferenceFlowNet& operator=(const ReferenceFlowNet&) = delete;

  ResourceId addResource(double capacity, std::string name = {});
  void setCapacity(ResourceId r, double capacity);

  [[nodiscard]] double capacity(ResourceId r) const;
  [[nodiscard]] const std::string& resourceName(ResourceId r) const;
  [[nodiscard]] std::size_t resourceCount() const noexcept {
    return resources_.size();
  }

  FlowId start(FlowSpec spec);

  [[nodiscard]] std::shared_ptr<sim::Trigger> completion(FlowId f) const;
  [[nodiscard]] bool finished(FlowId f) const;
  [[nodiscard]] double currentRate(FlowId f) const;
  [[nodiscard]] double remainingBytes(FlowId f) const;
  [[nodiscard]] std::size_t activeFlowCount() const noexcept {
    return activeCount_;
  }

  [[nodiscard]] double throughputOf(ResourceId r) const;
  [[nodiscard]] double deliveredThrough(ResourceId r) const;
  [[nodiscard]] int activeGroupsThrough(ResourceId r) const;
  [[nodiscard]] bool groupActiveThrough(ResourceId r, std::uint32_t group) const;

 private:
  struct Resource {
    double capacity;
    std::string name;
    double delivered = 0.0;
  };
  struct Flow {
    FlowSpec spec;
    double remaining = 0.0;
    double rate = 0.0;
    bool active = false;
    std::shared_ptr<sim::Trigger> done = std::make_shared<sim::Trigger>();
  };

  /// Bytes below which a flow counts as complete (guards FP drift).
  static constexpr double kByteEpsilon = 1e-6;

  Flow& flowRef(FlowId f);
  [[nodiscard]] const Flow& flowRef(FlowId f) const;

  void advanceTo(sim::Time t);
  void recompute();
  void computeRates();
  void scheduleNextCompletion();
  void completionEvent(std::uint64_t generation);

  sim::Engine& engine_;
  std::vector<Resource> resources_;
  std::vector<Flow> flows_;  // indexed by FlowId; flows are never removed
  std::vector<FlowId> active_;  // sorted ids of in-flight flows
  std::size_t activeCount_ = 0;
  sim::Time lastAdvance_ = 0.0;
  std::uint64_t generation_ = 0;
};

}  // namespace calciom::net

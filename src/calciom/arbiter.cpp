#include "calciom/arbiter.hpp"

#include <utility>

#include "sim/contracts.hpp"

namespace calciom::core {

Arbiter::Arbiter(sim::Engine& engine, mpi::PortRegistry& ports,
                 std::unique_ptr<Policy> policy)
    : Arbiter(engine, ports, std::move(policy), ArbiterOptions{}) {}

Arbiter::Arbiter(sim::Engine& engine, mpi::PortRegistry& ports,
                 std::unique_ptr<Policy> policy,
                 const ArbiterOptions& options)
    : engine_(engine),
      ports_(ports),
      core_(std::move(policy)),
      options_(options),
      store_(options.walCapacity) {
  CALCIOM_EXPECTS(options_.checkpointEverySeconds >= 0.0);
  CALCIOM_EXPECTS(options_.recoveryWindowSeconds >= 0.0);
  core_.configureLeases(options_.leases);
  core_.setAudit(options_.auditInvariants);
  openPort();
}

Arbiter::~Arbiter() {
  *alive_ = false;
  if (portOpen_) {
    ports_.closePort(msg::arbiterPort());
  }
}

void Arbiter::openPort() {
  ports_.openPort(msg::arbiterPort(),
                  [this](std::uint32_t from, mpi::Info payload) {
                    onMessage(from, std::move(payload));
                  });
  portOpen_ = true;
}

void Arbiter::onMessage(std::uint32_t from, mpi::Info payload) {
  if (crashed_) {
    return;  // a closed port should make this unreachable, but be explicit
  }
  if (options_.checkpointEverySeconds > 0.0) {
    store_.logMessage(engine_.now(), from, payload);
  }
  core_.onMessage(engine_.now(), from, payload, scratch_);
  dispatchCommands();
  maybeCheckpoint();
  maybeArmTick();
}

void Arbiter::onApplicationTerminated(std::uint32_t appId) {
  if (crashed_) {
    // The job scheduler cannot reach a dead arbiter; it re-reports the
    // death once the process is back (restart() applies the backlog).
    pendingTerminations_.push_back(appId);
    return;
  }
  if (options_.checkpointEverySeconds > 0.0) {
    store_.logTermination(engine_.now(), appId);
  }
  core_.onApplicationTerminated(engine_.now(), appId, scratch_);
  dispatchCommands();
  maybeCheckpoint();
  maybeArmTick();
}

void Arbiter::crash() {
  if (crashed_) {
    return;
  }
  crashed_ = true;
  if (portOpen_) {
    ports_.closePort(msg::arbiterPort());
    portOpen_ = false;
  }
  // The tick chain has no cancellation; a pending tick fires into the
  // crashed_ guard and dies there. In-memory core state is conceptually
  // gone — restart() rebuilds it from the store and never reads it.
}

void Arbiter::restart() {
  CALCIOM_EXPECTS(crashed_);
  crashed_ = false;
  openPort();
  const sim::Time now = engine_.now();
  store_.restoreInto(core_);
  core_.beginRecovery(now, options_.recoveryWindowSeconds, ++restarts_,
                      scratch_);
  // Deaths reported while we were down: the restored (or WAL-replayed)
  // state may still hold records for them.
  for (const std::uint32_t appId : pendingTerminations_) {
    if (options_.checkpointEverySeconds > 0.0) {
      store_.logTermination(now, appId);
    }
    core_.onApplicationTerminated(now, appId, scratch_);
  }
  pendingTerminations_.clear();
  dispatchCommands();
  maybeArmTick();
}

void Arbiter::dispatchCommands() {
  for (const ArbiterCommand& cmd : scratch_) {
    mpi::Info payload;
    payload.set(msg::kType, toWire(cmd.type));
    // cmdSeq is stamped whenever the command came from a live record
    // (emit() starts it at 1); epoch/incarnation/arbiter-incarnation only
    // when meaningful, so unsequenced receivers see legacy payloads and a
    // never-crashed arbiter's wire format is byte-identical to the
    // pre-recovery one.
    if (cmd.cmdSeq != 0) {
      payload.setInt(msg::kCmdSeq, static_cast<long long>(cmd.cmdSeq));
    }
    if (cmd.epoch != 0) {
      payload.setInt(msg::kEpoch, static_cast<long long>(cmd.epoch));
    }
    if (cmd.incarnation != 0) {
      payload.setInt(msg::kIncarnation,
                     static_cast<long long>(cmd.incarnation));
    }
    if (cmd.arbiterIncarnation != 0) {
      payload.setInt(msg::kArbiterIncarnation,
                     static_cast<long long>(cmd.arbiterIncarnation));
    }
    ports_.send(msg::appPort(cmd.app), /*fromApp=*/0, std::move(payload));
  }
  scratch_.clear();
}

void Arbiter::maybeCheckpoint() {
  if (options_.checkpointEverySeconds <= 0.0) {
    return;
  }
  const sim::Time now = engine_.now();
  if (store_.checkpoints() == 0 ||
      now - store_.lastCheckpointAt() >= options_.checkpointEverySeconds) {
    store_.checkpoint(core_, now);
  }
}

void Arbiter::maybeArmTick() {
  if (options_.tickSeconds <= 0.0 || tickArmed_ || crashed_ ||
      (core_.idle() && !core_.recovering())) {
    return;
  }
  tickArmed_ = true;
  engine_.scheduleAfter(options_.tickSeconds, [this, alive = alive_] {
    if (!*alive) {
      return;
    }
    tickArmed_ = false;
    if (crashed_) {
      return;  // the process died while this tick was in flight
    }
    if (options_.checkpointEverySeconds > 0.0) {
      store_.logTick(engine_.now());
    }
    core_.onTick(engine_.now(), scratch_);
    dispatchCommands();
    maybeArmTick();
  });
}

}  // namespace calciom::core

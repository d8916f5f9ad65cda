#pragma once

/// \file recovery.hpp
/// The stable-storage model behind arbiter crash-recovery: a checkpoint
/// slot holding the last `ArbiterSnapshot` plus a *bounded* write-ahead log
/// of decision-core inputs since that checkpoint. A production arbiter
/// would fsync both; here they simply survive the simulated process death
/// (the frontend object keeps the store while the core is wiped and
/// rebuilt).
///
/// The WAL holds every input that can move the core: wire messages
/// (`onMessage`), job-scheduler terminations, and timer ticks (`onTick`,
/// the lease sweep and reconciliation-window close). A tick left out would
/// let a restore resurrect an accessor the live core had already reclaimed
/// and granted past, so a later "accessing" heartbeat from that app makes
/// two accessors.
///
/// Restore = `ArbiterCore::restore(snapshot)` followed by replaying the WAL
/// through the core's normal entry points with the commands *discarded* —
/// every replayed input already produced (and delivered, at most once) its
/// commands before the crash, so re-delivering them would duplicate
/// traffic; commands that were genuinely lost in the crash are healed by
/// the reconciliation window (`ArbiterCore::beginRecovery`), not by replay.
///
/// The WAL is bounded on purpose: inputs appended past `walCapacity` are
/// dropped (counted in `walDropped()`) and form the un-checkpointed tail
/// the reconciliation protocol exists for. Capacity 0 means "no WAL" —
/// recovery leans entirely on reconciliation.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "calciom/arbiter_core.hpp"
#include "mpi/info.hpp"
#include "sim/time.hpp"

namespace calciom::core {

/// One decision-core input captured in the write-ahead log: a wire message
/// (`onMessage`), a job-scheduler termination, or a timer tick (`onTick`).
struct WalEntry {
  enum class Kind : std::uint8_t { Message, Termination, Tick };
  sim::Time time = 0.0;
  Kind kind = Kind::Message;
  std::uint32_t app = 0;  // unused for ticks
  mpi::Info payload;      // empty for terminations and ticks
};

class CheckpointStore {
 public:
  explicit CheckpointStore(std::size_t walCapacity = 0)
      : walCapacity_(walCapacity) {}

  void setWalCapacity(std::size_t cap) { walCapacity_ = cap; }
  [[nodiscard]] std::size_t walCapacity() const noexcept {
    return walCapacity_;
  }

  /// Snapshots `core` into the checkpoint slot and truncates the WAL —
  /// everything logged so far is folded into the snapshot. Pure
  /// observation of the core.
  void checkpoint(const ArbiterCore& core, sim::Time now);

  /// Appends one wire input to the WAL (drops it, counted, once full).
  void logMessage(sim::Time now, std::uint32_t from, const mpi::Info& payload);
  /// Appends one scheduler termination to the WAL.
  void logTermination(sim::Time now, std::uint32_t app);
  /// Appends one timer tick (`ArbiterCore::onTick`) to the WAL.
  void logTick(sim::Time now);

  [[nodiscard]] bool hasCheckpoint() const noexcept {
    return snap_.has_value();
  }
  [[nodiscard]] const std::optional<ArbiterSnapshot>& checkpointSnapshot()
      const noexcept {
    return snap_;
  }

  /// Restores `core` from the checkpoint (an empty snapshot when none was
  /// ever taken) and replays the WAL, discarding replay-generated
  /// commands. Returns the number of entries replayed. The caller then
  /// opens the reconciliation window for whatever the WAL did not cover.
  std::size_t restoreInto(ArbiterCore& core) const;

  [[nodiscard]] std::uint64_t checkpoints() const noexcept {
    return checkpoints_;
  }
  [[nodiscard]] sim::Time lastCheckpointAt() const noexcept {
    return lastCheckpointAt_;
  }
  [[nodiscard]] std::size_t walSize() const noexcept { return wal_.size(); }
  [[nodiscard]] std::uint64_t walAppended() const noexcept {
    return walAppended_;
  }
  /// Inputs that arrived with the WAL full — the un-checkpointed tail the
  /// reconciliation protocol must rebuild from session reports.
  [[nodiscard]] std::uint64_t walDropped() const noexcept {
    return walDropped_;
  }

 private:
  void append(WalEntry entry);

  std::optional<ArbiterSnapshot> snap_;
  std::vector<WalEntry> wal_;
  std::size_t walCapacity_;
  std::uint64_t checkpoints_ = 0;
  std::uint64_t walAppended_ = 0;
  std::uint64_t walDropped_ = 0;
  sim::Time lastCheckpointAt_ = 0.0;
};

}  // namespace calciom::core

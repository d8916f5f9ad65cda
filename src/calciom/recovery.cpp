#include "calciom/recovery.hpp"

#include <utility>

namespace calciom::core {

void CheckpointStore::checkpoint(const ArbiterCore& core, sim::Time now) {
  snap_ = core.snapshot(now);
  wal_.clear();
  ++checkpoints_;
  lastCheckpointAt_ = now;
}

void CheckpointStore::append(WalEntry entry) {
  ++walAppended_;
  if (wal_.size() >= walCapacity_) {
    ++walDropped_;
    return;
  }
  wal_.push_back(std::move(entry));
}

void CheckpointStore::logMessage(sim::Time now, std::uint32_t from,
                                 const mpi::Info& payload) {
  append(WalEntry{now, WalEntry::Kind::Message, from, payload});
}

void CheckpointStore::logTermination(sim::Time now, std::uint32_t app) {
  append(WalEntry{now, WalEntry::Kind::Termination, app, {}});
}

void CheckpointStore::logTick(sim::Time now) {
  append(WalEntry{now, WalEntry::Kind::Tick, 0, {}});
}

std::size_t CheckpointStore::restoreInto(ArbiterCore& core) const {
  core.restore(snap_ ? *snap_ : ArbiterSnapshot{});
  ArbiterCore::Commands discard;
  for (const WalEntry& e : wal_) {
    switch (e.kind) {
      case WalEntry::Kind::Message:
        core.onMessage(e.time, e.app, e.payload, discard);
        break;
      case WalEntry::Kind::Termination:
        core.onApplicationTerminated(e.time, e.app, discard);
        break;
      case WalEntry::Kind::Tick:
        core.onTick(e.time, discard);
        break;
    }
    // Replayed inputs already produced and delivered their commands before
    // the crash; losses are healed by reconciliation, not re-delivery.
    discard.clear();
  }
  return wal_.size();
}

}  // namespace calciom::core

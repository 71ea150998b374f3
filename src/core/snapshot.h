#ifndef TSQ_CORE_SNAPSHOT_H_
#define TSQ_CORE_SNAPSHOT_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>

namespace tsq::core {

/// Engine-level snapshot isolation for the write path.
///
/// Readers (Execute, SaveTo) pin a snapshot with PinRead(): while any pin is
/// held, no write can commit, so a pinned reader always sees one consistent
/// (dataset, index, planner-epoch) world — never a half-applied Insert or
/// Remove. Writers (Insert, Remove, and the control-plane mutators) take
/// LockWrite(): exclusive against readers *and* each other, so a write
/// commits atomically — stage the record, the index entry and the planner
/// epoch bump, then release; the first reader to pin afterwards sees all of
/// it or none of it.
///
/// The lock is writer-preferring: once a writer is waiting, new read pins
/// queue behind it, so a stream of back-to-back queries cannot starve
/// Insert/Remove (a writer waits only for the readers already in flight).
/// Writers are serialized in arrival order by the underlying mutex.
///
/// Every committed write bumps `version()` (while still holding the write
/// lock). A ReadPin captures the version it pinned — that is the snapshot
/// identity carried into QueryTrace::snapshot_version, and what lets the
/// differential fuzzer's --mutate mode evaluate its oracle at exactly the
/// state a concurrent query saw.
class SnapshotManager {
 public:
  SnapshotManager() = default;

  SnapshotManager(const SnapshotManager&) = delete;
  SnapshotManager& operator=(const SnapshotManager&) = delete;

  /// Shared hold on the current snapshot; blocks writers until released.
  /// Movable so PinRead() can return it; not copyable.
  class ReadPin {
   public:
    ReadPin(ReadPin&& other) noexcept
        : manager_(other.manager_), version_(other.version_) {
      other.manager_ = nullptr;
    }
    ReadPin& operator=(ReadPin&&) = delete;
    ReadPin(const ReadPin&) = delete;
    ReadPin& operator=(const ReadPin&) = delete;
    ~ReadPin();

    /// The committed write version this pin captured (stable for the pin's
    /// lifetime: no write can commit while it is held).
    std::uint64_t version() const { return version_; }

   private:
    friend class SnapshotManager;
    ReadPin(const SnapshotManager* manager, std::uint64_t version)
        : manager_(manager), version_(version) {}

    const SnapshotManager* manager_;
    std::uint64_t version_;
  };

  /// Exclusive hold for one write. Released on destruction; call
  /// BumpVersion() on the manager before releasing iff state was mutated.
  class WriteLock {
   public:
    WriteLock(WriteLock&& other) noexcept : manager_(other.manager_) {
      other.manager_ = nullptr;
    }
    WriteLock& operator=(WriteLock&&) = delete;
    WriteLock(const WriteLock&) = delete;
    WriteLock& operator=(const WriteLock&) = delete;
    ~WriteLock();

   private:
    friend class SnapshotManager;
    explicit WriteLock(SnapshotManager* manager) : manager_(manager) {}

    SnapshotManager* manager_;
  };

  /// Blocks until no writer is active or waiting, then pins the current
  /// snapshot. Const: pinning is a logically-read-only operation (Execute
  /// is const).
  ReadPin PinRead() const;

  /// Blocks until every reader has unpinned and any earlier writer is done,
  /// then returns the exclusive hold.
  WriteLock LockWrite();

  /// Commits one write: increments the version. Must only be called while
  /// holding the WriteLock. Returns the new version.
  std::uint64_t BumpVersion();

  /// The number of committed writes. Reading it outside a pin or the write
  /// lock is a racy-but-atomic peek (useful for logging, not for snapshot
  /// reasoning).
  std::uint64_t version() const {
    return version_.load(std::memory_order_acquire);
  }

 private:
  void UnpinRead() const;
  void UnlockWrite();

  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  mutable int active_readers_ = 0;
  mutable int waiting_writers_ = 0;
  mutable bool writer_active_ = false;
  std::atomic<std::uint64_t> version_{0};
};

}  // namespace tsq::core

#endif  // TSQ_CORE_SNAPSHOT_H_

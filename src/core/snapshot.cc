#include "core/snapshot.h"

namespace tsq::core {

SnapshotManager::ReadPin SnapshotManager::PinRead() const {
  std::unique_lock<std::mutex> lock(mu_);
  // Writer preference: queue behind any waiting writer so a continuous
  // query stream cannot starve Insert/Remove.
  cv_.wait(lock, [this] { return !writer_active_ && waiting_writers_ == 0; });
  ++active_readers_;
  return ReadPin(this, version_.load(std::memory_order_relaxed));
}

void SnapshotManager::UnpinRead() const {
  bool last = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    --active_readers_;
    last = active_readers_ == 0;
  }
  if (last) cv_.notify_all();  // writers wait for the *last* reader
}

SnapshotManager::ReadPin::~ReadPin() {
  if (manager_ != nullptr) manager_->UnpinRead();
}

SnapshotManager::WriteLock SnapshotManager::LockWrite() {
  std::unique_lock<std::mutex> lock(mu_);
  ++waiting_writers_;
  cv_.wait(lock, [this] { return !writer_active_ && active_readers_ == 0; });
  --waiting_writers_;
  writer_active_ = true;
  return WriteLock(this);
}

void SnapshotManager::UnlockWrite() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    writer_active_ = false;
  }
  cv_.notify_all();
}

SnapshotManager::WriteLock::~WriteLock() {
  if (manager_ != nullptr) manager_->UnlockWrite();
}

std::uint64_t SnapshotManager::BumpVersion() {
  // Caller holds the write lock, so no reader can be capturing concurrently;
  // release pairs with the acquire in version() for outside peeks.
  return version_.fetch_add(1, std::memory_order_release) + 1;
}

}  // namespace tsq::core

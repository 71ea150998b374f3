#ifndef TSQ_STORAGE_FAULT_INJECTION_H_
#define TSQ_STORAGE_FAULT_INJECTION_H_

#include <cstddef>
#include <cstdint>

#include "common/status.h"

namespace tsq::storage {

/// What a FaultHook asks a storage read to inject. The default-constructed
/// decision injects nothing, so hooks only describe the unusual case.
struct FaultDecision {
  enum class Action {
    kNone,          ///< Serve the read normally.
    kFail,          ///< Return `status` without touching the page.
    kCorruptBytes,  ///< Flip a byte of the page as it is "read off disk".
    kShortRead,     ///< Torn read: only the first `valid_bytes` arrive.
  };

  Action action = Action::kNone;

  /// The error returned for kFail. Must be non-OK when action == kFail.
  Status status;

  /// For kCorruptBytes: which byte of the page to flip (taken mod page size).
  std::size_t byte_offset = 0;

  /// For kShortRead: how many leading bytes of the page are delivered; the
  /// remainder arrives as zeros, as if the transfer was cut off.
  std::size_t valid_bytes = 0;

  /// Extra simulated latency for this read, on top of the file's configured
  /// read delay. Applies to every action, including kNone.
  std::uint64_t delay_nanos = 0;
};

/// What a FaultHook asks a checkpoint write step to inject. A crash decision
/// simulates the process dying at that step: the writer returns `status`
/// immediately and leaves everything already on disk exactly as it is — no
/// cleanup, no rollback — which is what a recovery test needs to see.
struct WriteFaultDecision {
  bool crash = false;

  /// The error returned for a crash. A default (OK) status is replaced by a
  /// generic IoError naming the step.
  Status status;
};

/// Fault-injection hook consulted by PageFile::Read and — through OnWrite —
/// by every step of the atomic checkpoint writer.
///
/// The hook is installed with SetFaultHook (an atomic pointer swap) and is
/// consulted once per read with the page id being served. Implementations
/// must be thread-safe: reads are issued concurrently from executor worker
/// threads. The hook's owner must keep it alive until it has been uninstalled
/// (SetFaultHook(nullptr)) and all in-flight reads have drained.
///
/// Corruption and short-read injections in PageFile mutate the page *as
/// delivered*, not the stored copy, and then run the normal checksum
/// verification — so they exercise the real detection path and the file
/// stays healthy for subsequent reads.
class FaultHook {
 public:
  virtual ~FaultHook() = default;

  /// Decides what to inject into the read of `page_id`.
  virtual FaultDecision OnRead(std::uint32_t page_id) = 0;

  /// Decides whether to "crash" the write path at the named step
  /// ("create", "append", "sync", "rename", "dirsync", "gc" — see
  /// storage::AtomicFile and SimilarityEngine::SaveTo). Called once per
  /// step in save order, so a policy that crashes at the k-th call sweeps
  /// every torn on-disk state a real crash could leave. The default injects
  /// nothing, keeping read-only hooks source-compatible.
  virtual WriteFaultDecision OnWrite(const char* step) {
    (void)step;
    return WriteFaultDecision{};
  }
};

}  // namespace tsq::storage

#endif  // TSQ_STORAGE_FAULT_INJECTION_H_

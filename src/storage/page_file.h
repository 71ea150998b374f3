#ifndef TSQ_STORAGE_PAGE_FILE_H_
#define TSQ_STORAGE_PAGE_FILE_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

#include "common/status.h"
#include "storage/atomic_file.h"
#include "storage/fault_injection.h"

namespace tsq::storage {

/// Fixed page size; sized like a classic database page so that R*-tree node
/// fan-outs and record-per-page counts are realistic.
inline constexpr std::size_t kPageSize = 4096;

using PageId = std::uint32_t;
inline constexpr PageId kInvalidPageId = 0xFFFFFFFF;

/// One disk page.
struct Page {
  std::array<std::uint8_t, kPageSize> bytes{};
};

/// Counters exposed by the page file. The paper's experiments report "number
/// of disk accesses"; `reads` is that number for whatever structure lives in
/// this file.
///
/// Counting convention: only *successful* I/Os are counted, everywhere. A
/// Read that fails (OutOfRange or Corruption) and a Write that fails
/// (OutOfRange) leave the counters untouched, so `reads`/`writes` equal the
/// number of pages actually served/stored.
struct IoStats {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t allocations = 0;
};

/// An in-memory simulation of a paged disk file.
///
/// Every Read/Write is counted, which makes index traversals and record
/// fetches measurable in the same unit the paper uses (page accesses),
/// independent of the host machine. Each page carries a 64-bit digest
/// (Digest) maintained on write and verified on every read, so corruption
/// (or the failure-injection test hook) is detected rather than silently
/// propagated.
///
/// Thread safety: Read, Write, Allocate and the counters may be called
/// concurrently — page content is guarded by a mutex and the counters are
/// atomic. A Read holds the mutex only to copy the page and its stored
/// digest into the caller's buffer; fault mutation and verification run on
/// that private copy after the lock is released. The simulated read-delay
/// spin also happens on the calling thread *outside* the lock, so N
/// concurrent readers pay their latencies in parallel (the model of N
/// independent disks the parallel executor assumes). SaveTo/LoadFrom still
/// require external exclusion from writers.
///
/// Pages live in a std::deque, whose blocks never move once allocated:
/// growing the file allocates one more block instead of reallocating and
/// copying every page, so the file's peak footprint is its size, not twice
/// its size at each doubling.
class PageFile {
 public:
  PageFile() = default;

  PageFile(const PageFile&) = delete;
  PageFile& operator=(const PageFile&) = delete;

  /// Allocates a zeroed page and returns its id.
  PageId Allocate();

  /// Simulates storage latency: every Read spins for `nanos` nanoseconds on
  /// the calling thread (concurrent readers spin independently). Benchmarks
  /// use this to reproduce the paper's cost ratio between a disk access and
  /// a sequence comparison (C_cmp = 0.4 * C_DA on their 1999 hardware);
  /// 0 (the default) disables the delay.
  void set_read_delay_nanos(std::uint64_t nanos) {
    read_delay_nanos_.store(nanos, std::memory_order_relaxed);
  }
  std::uint64_t read_delay_nanos() const {
    return read_delay_nanos_.load(std::memory_order_relaxed);
  }

  /// Number of allocated pages.
  std::size_t page_count() const {
    std::lock_guard<std::mutex> lock(mu_);
    return pages_.size();
  }

  /// Reads page `id` into `*out`: one copy of the stored page, taken under
  /// the mutex together with its stored digest, then verified outside the
  /// lock. Fails with OutOfRange for an unknown id and Corruption when the
  /// delivered bytes do not match the stored digest. On failure the content
  /// of `*out` is unspecified.
  Status Read(PageId id, Page* out);

  /// Writes `page` to `id` and updates its digest.
  Status Write(PageId id, const Page& page);

  /// The page digest: eight independent FNV-1a chains over the page's
  /// 64-bit words (chain j takes words j, j + 8, j + 16, ...), folded into
  /// one value by a ninth FNV-1a pass over the chain states. Each chain and
  /// the fold are bijective in every input word, so changing any single word
  /// always changes the digest; the chains have no data dependency on each
  /// other, so a core runs them in parallel (portable scalar code, no ISA
  /// dispatch).
  static std::uint64_t Digest(const Page& page);

  /// Snapshot of the counters (each counter is read atomically; the snapshot
  /// as a whole is not a consistent cut under concurrent I/O).
  IoStats stats() const {
    IoStats out;
    out.reads = reads_.load(std::memory_order_relaxed);
    out.writes = writes_.load(std::memory_order_relaxed);
    out.allocations = allocations_.load(std::memory_order_relaxed);
    return out;
  }
  void ResetStats() {
    reads_.store(0, std::memory_order_relaxed);
    writes_.store(0, std::memory_order_relaxed);
    allocations_.store(0, std::memory_order_relaxed);
  }

  /// Drops every page (ids restart from 0). Counters are left alone — reset
  /// them separately if the rebuild's I/O should not be charged to anyone.
  /// Requires external exclusion from every concurrent reader and writer
  /// (the engine calls this only under its write lock).
  void Clear();

  /// Test hook: flips a byte in the stored page without updating the
  /// digest, so the next Read reports corruption.
  Status CorruptForTesting(PageId id, std::size_t byte_offset);

  /// Installs (or, with nullptr, removes) a fault-injection hook consulted
  /// at the top of every Read. kFail decisions return the hook's status
  /// without counting the read; kCorruptBytes/kShortRead mutate the
  /// caller's delivered copy and let the normal digest verification detect
  /// the damage, so the stored copy stays intact. The caller must keep the
  /// hook alive until it is uninstalled and in-flight reads have drained.
  void SetFaultHook(FaultHook* hook) {
    fault_hook_.store(hook, std::memory_order_release);
  }

  /// Writes every page to `path` (format v3, binary: magic, page count, the
  /// per-page digests, then the raw pages). Persisting the digests is what
  /// lets LoadFrom detect bytes corrupted at rest.
  ///
  /// The write is atomic: content goes to `<path>.tmp` and is fsynced
  /// before being renamed into place (storage::AtomicFile), so a crash or
  /// error mid-save leaves the previous complete file at `path` untouched.
  /// `hook`, when non-null, has its OnWrite consulted at every step — the
  /// crash-recovery harness's injection point. `digest`, when non-null,
  /// receives the written file's size and hash (the checkpoint manifest
  /// entry).
  Status SaveTo(const std::string& path, FaultHook* hook = nullptr,
                FileDigest* digest = nullptr) const;

  /// Replaces this file's contents with the pages stored at `path` after
  /// verifying every page against its *persisted* digest (counters reset).
  /// Returns Corruption — without modifying this file — when a digest does
  /// not match, when the file is truncated or its header page count is
  /// inconsistent with its size (validated before any allocation, so a
  /// corrupted count can never trigger bad_alloc), or for the legacy
  /// formats: v1 carried no checksums and v2 carried the serial FNV-1a
  /// checksum that Digest replaced, so neither can be verified.
  Status LoadFrom(const std::string& path);

 private:
  mutable std::mutex mu_;  // guards pages_ and digests_
  std::deque<Page> pages_;
  std::vector<std::uint64_t> digests_;
  std::atomic<std::uint64_t> reads_{0};
  std::atomic<std::uint64_t> writes_{0};
  std::atomic<std::uint64_t> allocations_{0};
  std::atomic<std::uint64_t> read_delay_nanos_{0};
  std::atomic<FaultHook*> fault_hook_{nullptr};
};

}  // namespace tsq::storage

#endif  // TSQ_STORAGE_PAGE_FILE_H_

#ifndef TSQ_EXEC_PARALLEL_H_
#define TSQ_EXEC_PARALLEL_H_

#include <cstddef>
#include <functional>
#include <vector>

#include "common/status.h"

namespace tsq::exec {

/// Number of worker threads a request for `requested` resolves to: the value
/// itself, or the hardware concurrency (at least 1) when `requested` is 0.
std::size_t EffectiveThreads(std::size_t requested);

/// Runs tasks `0 .. count-1` by invoking `fn(task_index)` across at most
/// `num_threads` workers (0 = one per hardware thread). Tasks are claimed in
/// index order; every task runs exactly once regardless of other tasks'
/// failures, so stats accumulated by task bodies are complete even on error.
/// Returns the lowest-task-index non-OK status, or OK.
///
/// When the effective worker count (or `count`) is 1, tasks run inline on
/// the calling thread — same semantics, no thread is ever created. Otherwise
/// the call starts that many threads and joins them before returning. Query
/// executors rely on this: results and counters must not depend on the
/// thread count, only on the task decomposition.
Status ParallelFor(std::size_t num_threads, std::size_t count,
                   const std::function<Status(std::size_t)>& fn);

/// ParallelFor over many items' task lists at once: item i has `counts[i]`
/// subtasks, and all of them run through one ParallelFor, item-major (item
/// 0's subtasks in order, then item 1's, ...), so slow items steal workers
/// from fast ones instead of each item fanning out alone. Batch executors
/// merge per-item results in that order, which equals the order the item's
/// solo execution would have used.
///
/// `fn(item, subtask)` statuses are aggregated *per item*: entry i of the
/// returned vector is the lowest-subtask-index non-OK status of item i (or
/// OK). Every subtask runs regardless of failures — including failures of
/// other items, so one item's fault never truncates a co-batched item's
/// work. The per-item aggregation mirrors what item i's solo ParallelFor
/// would have returned.
std::vector<Status> ParallelForBatch(
    std::size_t num_threads, const std::vector<std::size_t>& counts,
    const std::function<Status(std::size_t item, std::size_t subtask)>& fn);

/// Number of fixed-size chunks covering `count` items (`ceil(count/chunk)`).
/// Chunk boundaries depend only on `count` and `chunk`, never on the thread
/// count — the decomposition invariant behind deterministic parallel query
/// results.
std::size_t ChunkCount(std::size_t count, std::size_t chunk);

/// Half-open item range `[first, last)` of chunk `index`.
struct ChunkRange {
  std::size_t first = 0;
  std::size_t last = 0;
};
ChunkRange ChunkBounds(std::size_t count, std::size_t chunk,
                       std::size_t index);

}  // namespace tsq::exec

#endif  // TSQ_EXEC_PARALLEL_H_

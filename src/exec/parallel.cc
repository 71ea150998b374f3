#include "exec/parallel.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <system_error>
#include <thread>

#include "common/check.h"

namespace tsq::exec {

std::size_t EffectiveThreads(std::size_t requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

Status ParallelFor(std::size_t num_threads, std::size_t count,
                   const std::function<Status(std::size_t)>& fn) {
  if (count == 0) return Status::Ok();
  const std::size_t workers =
      std::min(EffectiveThreads(num_threads), count);
  if (workers <= 1) {
    Status first = Status::Ok();
    for (std::size_t i = 0; i < count; ++i) {
      Status status = fn(i);
      if (!status.ok() && first.ok()) first = std::move(status);
    }
    return first;
  }

  // Errors are rare; keep only the lowest-index failure instead of an
  // O(count) status array (million-item fan-outs should not pay a per-item
  // allocation just to report one error).
  std::mutex error_mu;
  std::size_t first_error_index = count;
  Status first_error;
  std::atomic<std::size_t> next{0};
  const auto claim_loop = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      Status status = fn(i);
      if (!status.ok()) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (i < first_error_index) {
          first_error_index = i;
          first_error = std::move(status);
        }
      }
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(workers);
  try {
    for (std::size_t w = 0; w < workers; ++w) threads.emplace_back(claim_loop);
  } catch (const std::system_error&) {
    // The system is out of threads. The loop is shared, so the workers
    // already started and the caller finish every task; the threads must
    // still be joined before they go out of scope.
    claim_loop();
  }
  // Joining makes every task's writes visible to the caller.
  for (std::thread& thread : threads) thread.join();
  return first_error;
}

std::vector<Status> ParallelForBatch(
    std::size_t num_threads, const std::vector<std::size_t>& counts,
    const std::function<Status(std::size_t item, std::size_t subtask)>& fn) {
  // One item-major task list: item 0's subtasks in order, then item 1's, ...
  struct Task {
    std::size_t item;
    std::size_t subtask;
  };
  std::size_t total = 0;
  for (const std::size_t count : counts) total += count;
  std::vector<Task> tasks;
  tasks.reserve(total);
  for (std::size_t item = 0; item < counts.size(); ++item) {
    for (std::size_t subtask = 0; subtask < counts[item]; ++subtask) {
      tasks.push_back(Task{item, subtask});
    }
  }
  std::vector<Status> statuses(counts.size(), Status::Ok());
  // first_bad[i] = lowest failing subtask index of item i seen so far; the
  // winning status is chosen by subtask index, not completion order, so the
  // aggregate is the same for every thread count.
  std::vector<std::size_t> first_bad(counts.size(), SIZE_MAX);
  std::mutex mu;
  // The outer ParallelFor never sees a failure: per-item statuses are
  // captured here, so the aggregation stays per item.
  (void)ParallelFor(num_threads, tasks.size(), [&](std::size_t index) {
    const Task& task = tasks[index];
    Status status = fn(task.item, task.subtask);
    if (!status.ok()) {
      std::lock_guard<std::mutex> lock(mu);
      if (task.subtask < first_bad[task.item]) {
        first_bad[task.item] = task.subtask;
        statuses[task.item] = std::move(status);
      }
    }
    return Status::Ok();
  });
  return statuses;
}

std::size_t ChunkCount(std::size_t count, std::size_t chunk) {
  TSQ_CHECK_GE(chunk, std::size_t{1});
  return (count + chunk - 1) / chunk;
}

ChunkRange ChunkBounds(std::size_t count, std::size_t chunk,
                       std::size_t index) {
  ChunkRange range;
  range.first = index * chunk;
  range.last = std::min(count, range.first + chunk);
  return range;
}

}  // namespace tsq::exec

#ifndef TSQ_TESTING_FAULT_POLICY_H_
#define TSQ_TESTING_FAULT_POLICY_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "common/status.h"
#include "storage/fault_injection.h"

namespace tsq::testing {

/// Declarative description of a fault schedule over the stream of page
/// reads. Read ordinals are 1-based and counted across every page file the
/// policy is installed on (SimilarityEngine::SetReadFaultHook installs it on
/// both the record and the index file). A zero field disables that fault
/// kind.
struct FaultPolicyConfig {
  /// Fail exactly the n-th read with `failure_code`.
  std::uint64_t fail_nth_read = 0;
  /// Fail every k-th read (k, 2k, 3k, ...) with `failure_code`.
  std::uint64_t fail_every_k = 0;
  /// Status code used for fail_nth_read / fail_every_k.
  StatusCode failure_code = StatusCode::kIoError;
  /// Deliver the n-th read with one byte flipped (checksum corruption).
  std::uint64_t corrupt_nth_read = 0;
  /// Deliver the n-th read torn: only the first `short_read_bytes` bytes
  /// arrive, the rest of the page reads back as zeros.
  std::uint64_t short_nth_read = 0;
  std::size_t short_read_bytes = 512;
  /// Extra latency injected into every read, faulted or not.
  std::uint64_t delay_nanos = 0;
};

/// A thread-safe storage::FaultHook driven by a FaultPolicyConfig.
///
/// Precedence when several ordinals coincide: fail > corrupt > short read.
/// The policy counts the reads it has seen and the faults it has injected,
/// so tests can assert a fault actually fired.
class FaultPolicy : public storage::FaultHook {
 public:
  explicit FaultPolicy(FaultPolicyConfig config = FaultPolicyConfig());

  storage::FaultDecision OnRead(std::uint32_t page_id) override;

  const FaultPolicyConfig& config() const { return config_; }
  std::uint64_t reads_seen() const {
    return reads_.load(std::memory_order_relaxed);
  }
  std::uint64_t faults_injected() const {
    return faults_.load(std::memory_order_relaxed);
  }

  /// Rewinds the read counter so the schedule replays from the start.
  void Reset();

  /// Human-readable one-liner ("fail-nth(3, IO_ERROR)", "corrupt-nth(2)",
  /// ...) for fuzzer repro output.
  std::string Describe() const;

 private:
  Status MakeFailure(std::uint32_t page_id, std::uint64_t ordinal) const;

  FaultPolicyConfig config_;
  std::atomic<std::uint64_t> reads_{0};
  std::atomic<std::uint64_t> faults_{0};
};

/// A storage::FaultHook that "crashes" a checkpoint save at its k-th write
/// step: OnWrite returns crash=true on the k-th consultation, aborting the
/// save right there and leaving whatever files the preceding steps already
/// produced exactly as a real crash would. Read faults are never injected.
///
/// steps_seen() after a completed (uncrashed) save tells the harness how
/// many steps that save had — once k exceeds it, SaveTo runs to completion
/// and the sweep is done.
class CrashPolicy : public storage::FaultHook {
 public:
  /// Crash at the `crash_at_step`-th OnWrite consultation (1-based);
  /// 0 never crashes (pure step counter).
  explicit CrashPolicy(std::uint64_t crash_at_step = 0)
      : crash_at_step_(crash_at_step) {}

  storage::FaultDecision OnRead(std::uint32_t page_id) override {
    (void)page_id;  // never faults reads
    return storage::FaultDecision{};
  }

  storage::WriteFaultDecision OnWrite(const char* step) override {
    const std::uint64_t ordinal =
        steps_.fetch_add(1, std::memory_order_relaxed) + 1;
    storage::WriteFaultDecision decision;
    if (crash_at_step_ != 0 && ordinal == crash_at_step_) {
      decision.crash = true;
      decision.status = Status::IoError("injected crash at write step " +
                                        std::to_string(ordinal) + " (" +
                                        step + ")");
      last_step_name_ = step;
    }
    return decision;
  }

  std::uint64_t steps_seen() const {
    return steps_.load(std::memory_order_relaxed);
  }
  /// Name of the step the crash fired at ("sync", "rename", ...); empty
  /// while no crash has fired.
  const std::string& crashed_step() const { return last_step_name_; }

  void Reset() { steps_.store(0, std::memory_order_relaxed); }

  std::string Describe() const {
    return "crash-at-step(" + std::to_string(crash_at_step_) + ")";
  }

 private:
  std::uint64_t crash_at_step_;
  std::atomic<std::uint64_t> steps_{0};
  std::string last_step_name_;
};

}  // namespace tsq::testing

#endif  // TSQ_TESTING_FAULT_POLICY_H_

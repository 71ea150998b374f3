// Seeded differential fuzzer: generates deterministic datasets and query
// workloads, runs them through every execution configuration and checks each
// result against the brute-force oracle (see src/testing/differential.h).
//
//   fuzz_queries --seed=1..50 --iters=200          # the acceptance sweep
//   fuzz_queries --seed=7 --case=13                # reproduce one failure
//   fuzz_queries --mutate --seed=1..20 --iters=100 # concurrent-write sweep
//   fuzz_queries --checkpoint --seed=1..5 --iters=3 # crash-recovery sweep
//   fuzz_queries --batch --seed=1..20 --iters=100  # batched-execution sweep
//   fuzz_queries --batch --mutate --seed=1..20 --iters=100
//
// Every divergence prints a self-contained repro line and the tool exits
// non-zero.

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include <unistd.h>

#include "testing/differential.h"

namespace {

struct FuzzOptions {
  std::uint64_t seed_lo = 1;
  std::uint64_t seed_hi = 5;
  std::size_t iters = 50;
  bool have_case = false;
  std::size_t case_index = 0;
  bool mutate = false;
  bool checkpoint = false;
  bool batch = false;
  std::string ckpt_dir;
  tsq::testing::DiffConfig config;
};

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--seed=N | --seed=A..B] [--iters=N] [--case=K]\n"
      "          [--with-faults | --no-faults] [--tol=X] [--mutate]\n"
      "          [--checkpoint] [--ckpt-dir=PATH] [--batch]\n"
      "\n"
      "Runs seeded query workloads through {scan, ST-index, MT-index,\n"
      "auto} x {1,4,8} threads and compares every result against a\n"
      "brute-force oracle; with faults enabled, also checks that\n"
      "injected storage errors surface as Status, never as wrong results.\n"
      "Each algorithm's 4- and 8-thread runs, and its 1-thread run repeated\n"
      "under the other kernel ISA (scalar when AVX2 is active), must equal\n"
      "its 1-thread run byte for byte: matches, stats, per-rectangle stats\n"
      "and trace signature, so auto also picks one plan per case.\n"
      "Each index also sweeps a query-transformation case: a range or\n"
      "k-NN query whose query series carries a fixed transformation.\n"
      "\n"
      "Every mode takes the same two knobs: --tol=X, the relative tolerance\n"
      "on distances and correlations (default 1e-6; match membership is\n"
      "always exact), and --no-faults, which skips the fault sweep of the\n"
      "plain and --batch modes (the other modes inject no read faults).\n"
      "A failure's repro line repeats both when they were given.\n"
      "\n"
      "--mutate switches to the concurrent-write sweep: a seeded writer\n"
      "thread commits Insert/Remove while the queries run, and each result\n"
      "is checked against the oracle evaluated at the snapshot version the\n"
      "query pinned; pinned versions must never go backwards.\n"
      "\n"
      "--checkpoint switches to the crash-recovery sweep: each case saves a\n"
      "baseline checkpoint, commits a few writes, then aborts SaveTo at\n"
      "every write step in turn; after each simulated crash LoadFrom must\n"
      "recover an engine answering exactly at the old or new checkpoint.\n"
      "--ckpt-dir picks the scratch directory (default: a fresh directory\n"
      "under the system temp dir, removed on success).\n"
      "\n"
      "--batch switches to the batched-execution sweep: each case groups\n"
      "several generated specs (plus seeded duplicates, which execute\n"
      "again) into one ExecuteBatch call and diffs every entry\n"
      "byte-for-byte (matches, stats, per-rectangle stats, trace\n"
      "signature) against the per-spec sequential Execute, itself checked\n"
      "against the oracle; faults apply per entry (error-or-exact, and one\n"
      "faulted read fails at most one entry). Combine with --mutate for\n"
      "concurrent-write batches checked at each batch's single pinned\n"
      "snapshot.\n",
      argv0);
}

bool ParseUint(const char* text, std::uint64_t* out) {
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') return false;
  *out = value;
  return true;
}

bool ParseArgs(int argc, char** argv, FuzzOptions* options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--seed=", 0) == 0) {
      const std::string value = arg.substr(7);
      const std::size_t dots = value.find("..");
      if (dots == std::string::npos) {
        if (!ParseUint(value.c_str(), &options->seed_lo)) return false;
        options->seed_hi = options->seed_lo;
      } else {
        if (!ParseUint(value.substr(0, dots).c_str(), &options->seed_lo) ||
            !ParseUint(value.substr(dots + 2).c_str(), &options->seed_hi)) {
          return false;
        }
      }
    } else if (arg.rfind("--iters=", 0) == 0) {
      std::uint64_t value = 0;
      if (!ParseUint(arg.c_str() + 8, &value)) return false;
      options->iters = static_cast<std::size_t>(value);
    } else if (arg.rfind("--case=", 0) == 0) {
      std::uint64_t value = 0;
      if (!ParseUint(arg.c_str() + 7, &value)) return false;
      options->have_case = true;
      options->case_index = static_cast<std::size_t>(value);
    } else if (arg == "--mutate") {
      options->mutate = true;
    } else if (arg == "--batch") {
      options->batch = true;
    } else if (arg == "--checkpoint") {
      options->checkpoint = true;
    } else if (arg.rfind("--ckpt-dir=", 0) == 0) {
      options->ckpt_dir = arg.substr(11);
      if (options->ckpt_dir.empty()) return false;
    } else if (arg == "--with-faults") {
      options->config.with_faults = true;
    } else if (arg == "--no-faults") {
      options->config.with_faults = false;
    } else if (arg.rfind("--tol=", 0) == 0) {
      char* end = nullptr;
      options->config.tolerance = std::strtod(arg.c_str() + 6, &end);
      if (end == arg.c_str() + 6 || *end != '\0') return false;
    } else if (arg == "--help" || arg == "-h") {
      Usage(argv[0]);
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return false;
    }
  }
  if (options->seed_hi < options->seed_lo) {
    std::fprintf(stderr, "--seed: empty range\n");
    return false;
  }
  if (options->mutate && options->checkpoint) {
    std::fprintf(stderr, "--mutate and --checkpoint are exclusive\n");
    return false;
  }
  if (options->batch && options->checkpoint) {
    std::fprintf(stderr, "--batch and --checkpoint are exclusive\n");
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  FuzzOptions options;
  if (!ParseArgs(argc, argv, &options)) {
    Usage(argv[0]);
    return 2;
  }

  // Scratch directory for --checkpoint; per-seed prefixes keep manifests
  // apart. A user-chosen --ckpt-dir is kept, an auto-created one is removed
  // when the sweep passes (failures leave the torn files for inspection).
  bool cleanup_ckpt_dir = false;
  std::filesystem::path ckpt_dir;
  if (options.checkpoint) {
    if (options.ckpt_dir.empty()) {
      std::error_code ec;
      ckpt_dir = std::filesystem::temp_directory_path(ec);
      if (ec) ckpt_dir = ".";
      ckpt_dir /= "tsq_fuzz_ckpt_" + std::to_string(::getpid());
      cleanup_ckpt_dir = true;
    } else {
      ckpt_dir = options.ckpt_dir;
    }
    std::error_code ec;
    std::filesystem::create_directories(ckpt_dir, ec);
    if (ec) {
      std::fprintf(stderr, "cannot create checkpoint dir %s: %s\n",
                   ckpt_dir.c_str(), ec.message().c_str());
      return 2;
    }
  }

  // The flags a repro line repeats: the mode, then (after the seed and case)
  // whatever changes the verdict.
  std::string mode_flags;
  if (options.batch) mode_flags += " --batch";
  if (options.mutate) mode_flags += " --mutate";
  if (options.checkpoint) mode_flags += " --checkpoint";
  std::string verdict_flags;
  if (!options.config.with_faults) verdict_flags += " --no-faults";
  if (options.config.tolerance != tsq::testing::DiffConfig().tolerance) {
    char tol[32];
    const auto printed =
        std::to_chars(tol, tol + sizeof tol, options.config.tolerance);
    verdict_flags += " --tol=" + std::string(tol, printed.ptr);
  }

  std::size_t cases = 0;
  std::size_t runs = 0;
  std::size_t fault_runs = 0;
  std::size_t fault_errors = 0;
  std::size_t writes = 0;
  std::size_t failures = 0;

  for (std::uint64_t seed = options.seed_lo; seed <= options.seed_hi; ++seed) {
    tsq::testing::DifferentialRunner runner(seed);
    const std::string ckpt_prefix =
        (ckpt_dir / ("seed" + std::to_string(seed))).string();
    const std::size_t begin = options.have_case ? options.case_index : 0;
    const std::size_t end =
        options.have_case ? options.case_index + 1 : options.iters;
    for (std::size_t index = begin; index < end; ++index) {
      std::vector<tsq::testing::CaseOutcome> outcomes;
      if (options.checkpoint) {
        outcomes.push_back(
            runner.RunCheckpointCase(index, ckpt_prefix, options.config));
      } else if (options.batch) {
        outcomes.push_back(
            options.mutate ? runner.RunBatchMutateCase(index, options.config)
                           : runner.RunBatchCase(index, options.config));
      } else if (options.mutate) {
        outcomes.push_back(runner.RunMutateCase(index, options.config));
      } else {
        outcomes.push_back(runner.RunCase(index, options.config));
        outcomes.push_back(runner.RunQueryTransformCase(index, options.config));
      }
      for (const tsq::testing::CaseOutcome& outcome : outcomes) {
        ++cases;
        runs += outcome.runs;
        fault_runs += outcome.fault_runs;
        fault_errors += outcome.fault_errors;
        writes += outcome.writes;
        if (outcome.passed) continue;
        ++failures;
        std::fprintf(stderr, "FAIL seed=%llu case=%zu: %s\n",
                     static_cast<unsigned long long>(seed), index,
                     outcome.failure.c_str());
        std::fprintf(stderr, "  query: %s\n", outcome.description.c_str());
        // Mutate and checkpoint cases change the dataset, so case K only
        // reproduces after replaying cases 0..K-1 against the same runner.
        const std::string which =
            options.mutate || options.checkpoint
                ? " --iters=" + std::to_string(index + 1)
                : " --case=" + std::to_string(index);
        std::fprintf(stderr, "  repro: fuzz_queries%s --seed=%llu%s%s\n",
                     mode_flags.c_str(), static_cast<unsigned long long>(seed),
                     which.c_str(), verdict_flags.c_str());
      }
    }
  }

  std::printf(
      "fuzz_queries: %zu case(s), %zu engine run(s), %zu fault run(s) "
      "(%zu surfaced errors), %zu concurrent write(s), %zu failure(s)\n",
      cases, runs, fault_runs, fault_errors, writes, failures);
  if (cleanup_ckpt_dir && failures == 0) {
    std::error_code ec;
    std::filesystem::remove_all(ckpt_dir, ec);  // best-effort
  }
  return failures == 0 ? 0 : 1;
}

#include "obs/trace.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace tsq::obs {

const char* PhaseName(Phase phase) {
  switch (phase) {
    case Phase::kPlan:
      return "plan";
    case Phase::kIndexTraversal:
      return "index-traversal";
    case Phase::kBound:
      return "bound";
    case Phase::kCandidateFetch:
      return "candidate-fetch";
    case Phase::kVerification:
      return "verification";
    case Phase::kMerge:
      return "merge";
  }
  return "unknown";
}

void PhaseStats::AddTask(std::uint64_t task_nanos, std::uint64_t item_count) {
  nanos += task_nanos;
  max_task_nanos = std::max(max_task_nanos, task_nanos);
  ++tasks;
  items += item_count;
}

std::string QueryTrace::DeterministicSignature() const {
  std::ostringstream os;
  os << algorithm;
  for (std::size_t p = 0; p < kPhaseCount; ++p) {
    os << ';' << PhaseName(static_cast<Phase>(p))
       << " tasks=" << phases[p].tasks << " items=" << phases[p].items;
  }
  // Only the decision itself — cache_hit and the cost numbers vary with
  // call order and calibration, the chosen plan must not.
  if (planner.planned) {
    const PlanCandidateTrace* chosen = planner.chosen_candidate();
    os << ";planner chosen=" << (chosen != nullptr ? chosen->label : "?");
  }
  return os.str();
}

std::string FormatTrace(const QueryTrace& trace) {
  std::ostringstream os;
  char line[160];
  std::snprintf(line, sizeof line,
                "%s, %zu thread(s), total %.3f ms, snapshot v%llu, "
                "checkpoint e%llu%s%s\n",
                trace.algorithm.c_str(), trace.num_threads,
                static_cast<double>(trace.total_nanos) * 1e-6,
                static_cast<unsigned long long>(trace.snapshot_version),
                static_cast<unsigned long long>(trace.checkpoint_epoch),
                trace.kernel_isa.empty() ? "" : ", kernels ",
                trace.kernel_isa.c_str());
  os << line;
  if (trace.batch_size > 0) {
    std::snprintf(line, sizeof line, "  batch: %zu queries\n",
                  trace.batch_size);
    os << line;
  }
  for (std::size_t p = 0; p < kPhaseCount; ++p) {
    const PhaseStats& phase = trace.phases[p];
    if (phase.empty()) continue;
    std::snprintf(line, sizeof line,
                  "  %-16s %9.3f ms  (tasks %llu, max %.3f ms, items %llu)\n",
                  PhaseName(static_cast<Phase>(p)),
                  static_cast<double>(phase.nanos) * 1e-6,
                  static_cast<unsigned long long>(phase.tasks),
                  static_cast<double>(phase.max_task_nanos) * 1e-6,
                  static_cast<unsigned long long>(phase.items));
    os << line;
  }
  if (trace.planner.planned) {
    const PlanCandidateTrace* chosen = trace.planner.chosen_candidate();
    std::snprintf(line, sizeof line, "  planner: chose %s (est %.1f%s, %s)\n",
                  chosen != nullptr ? chosen->label.c_str() : "?",
                  trace.planner.estimated_cost,
                  trace.planner.cache_hit ? "" : ", freshly planned",
                  trace.planner.actual_cost >= 0.0 ? "measured below"
                                                   : "actual cost unknown");
    os << line;
    if (trace.planner.actual_cost >= 0.0) {
      std::snprintf(line, sizeof line, "    actual cost %.1f\n",
                    trace.planner.actual_cost);
      os << line;
    }
    for (const PlanCandidateTrace& c : trace.planner.candidates) {
      std::snprintf(line, sizeof line, "    %-24s est %10.1f%s\n",
                    c.label.c_str(), c.estimated_cost,
                    c.chosen ? "  <= chosen" : "");
      os << line;
    }
  }
  return os.str();
}

std::string TraceToJson(const QueryTrace& trace) {
  std::ostringstream os;
  os << "{\"algorithm\":\"" << trace.algorithm << "\""
     << ",\"num_threads\":" << trace.num_threads
     << ",\"total_nanos\":" << trace.total_nanos
     << ",\"snapshot_version\":" << trace.snapshot_version
     << ",\"checkpoint_epoch\":" << trace.checkpoint_epoch;
  if (!trace.kernel_isa.empty()) {
    os << ",\"kernel_isa\":\"" << trace.kernel_isa << "\"";
  }
  if (trace.batch_size > 0) {
    os << ",\"batch\":{\"size\":" << trace.batch_size << '}';
  }
  os << ",\"phases\":[";
  bool first = true;
  for (std::size_t p = 0; p < kPhaseCount; ++p) {
    const PhaseStats& phase = trace.phases[p];
    if (phase.empty()) continue;
    if (!first) os << ',';
    first = false;
    os << "{\"phase\":\"" << PhaseName(static_cast<Phase>(p)) << "\""
       << ",\"nanos\":" << phase.nanos
       << ",\"max_task_nanos\":" << phase.max_task_nanos
       << ",\"tasks\":" << phase.tasks << ",\"items\":" << phase.items << '}';
  }
  os << ']';
  if (trace.planner.planned) {
    os << ",\"planner\":{\"planned\":true,\"cache_hit\":"
       << (trace.planner.cache_hit ? "true" : "false")
       << ",\"estimated_cost\":" << trace.planner.estimated_cost
       << ",\"actual_cost\":" << trace.planner.actual_cost
       << ",\"candidates\":[";
    for (std::size_t i = 0; i < trace.planner.candidates.size(); ++i) {
      const PlanCandidateTrace& c = trace.planner.candidates[i];
      if (i > 0) os << ',';
      os << "{\"label\":\"" << c.label
         << "\",\"estimated_cost\":" << c.estimated_cost
         << ",\"chosen\":" << (c.chosen ? "true" : "false") << '}';
    }
    os << "]}";
  }
  os << '}';
  return os.str();
}

}  // namespace tsq::obs

#include "core/explain.h"

#include <sstream>

#include "obs/trace.h"

namespace tsq::core {

namespace {

// The stats counters alone, as one JSON object with fixed keys.
std::string StatsToJson(const QueryStats& stats) {
  std::ostringstream os;
  os << "{\"index_nodes_accessed\":" << stats.index_nodes_accessed
     << ",\"index_leaves_accessed\":" << stats.index_leaves_accessed
     << ",\"record_pages_read\":" << stats.record_pages_read
     << ",\"candidates\":" << stats.candidates
     << ",\"verified_candidates\":" << stats.verified_candidates
     << ",\"comparisons\":" << stats.comparisons
     << ",\"traversals\":" << stats.traversals
     << ",\"output_size\":" << stats.output_size
     << ",\"disk_accesses\":" << stats.disk_accesses() << '}';
  return os.str();
}

}  // namespace

std::string Explain(const QueryResult& result) {
  const QueryStats& stats = result.stats();
  std::ostringstream os;
  os << obs::FormatTrace(result.trace());
  os << "  stats: disk_accesses=" << stats.disk_accesses()
     << " (index=" << stats.index_nodes_accessed
     << ", records=" << stats.record_pages_read << ")"
     << " candidates=" << stats.candidates
     << " verified=" << stats.verified_candidates
     << " comparisons=" << stats.comparisons
     << " traversals=" << stats.traversals
     << " output=" << stats.output_size << "\n";
  return os.str();
}

std::string ExplainJson(const QueryResult& result) {
  std::ostringstream os;
  os << "{\"trace\":" << obs::TraceToJson(result.trace())
     << ",\"stats\":" << StatsToJson(result.stats()) << '}';
  return os.str();
}

}  // namespace tsq::core

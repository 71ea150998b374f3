#ifndef TSQ_CORE_EXPLAIN_H_
#define TSQ_CORE_EXPLAIN_H_

#include <string>

#include "core/engine.h"

namespace tsq::core {

/// Human-readable account of one executed query: the phase-timing table of
/// its QueryTrace followed by the QueryStats counters. The analogue of a
/// database EXPLAIN ANALYZE — it describes the plan that *ran*, so it is
/// rendered from a result, not from a spec.
std::string Explain(const QueryResult& result);

/// Machine-readable form: {"trace":{...},"stats":{...}} where "trace" is
/// obs::TraceToJson and "stats" holds every QueryStats counter by name.
/// This is the document benchmarks write for --trace-json=<path>.
std::string ExplainJson(const QueryResult& result);

}  // namespace tsq::core

#endif  // TSQ_CORE_EXPLAIN_H_

#ifndef TSQ_TSQ_H_
#define TSQ_TSQ_H_

/// Umbrella header: everything an application needs to load sequences, build
/// a SimilarityEngine and run similarity queries, in one include.
///
///   #include "tsq.h"
///
///   tsq::core::SimilarityEngine engine(std::move(series));
///   tsq::core::RangeQuerySpec spec;
///   ...
///   auto result = engine.Execute(spec, {.num_threads = 4});
///
/// Internal layers (storage pages, R*-tree nodes, DFT plans) are reachable
/// through these headers but are not part of the stable surface; the stable
/// surface is SimilarityEngine::Execute, the three QuerySpec alternatives,
/// ExecOptions, the transform builders and the lang compiler.

#include "common/status.h"       // Status, Result<T>
#include "core/cost_model.h"     // Eq. 18-20 cost model
#include "core/engine.h"         // SimilarityEngine, QuerySpec, QueryResult
#include "core/explain.h"        // Explain / ExplainJson over a QueryResult
#include "core/query.h"          // Algorithm, ExecOptions, specs and stats
#include "exec/parallel.h"       // ParallelFor (used by custom drivers)
#include "obs/metrics.h"         // process-wide MetricsRegistry
#include "obs/trace.h"           // QueryTrace, FormatTrace, TraceToJson
#include "lang/compiler.h"       // textual query language -> QuerySpec
#include "transform/builders.h"  // MovingAverageRange, TimeShiftRange, ...
#include "transform/cluster.h"   // transformation-set clustering (Sec. 4.3)
#include "transform/ordering.h"  // dominance chains (Sec. 4.4)
#include "ts/distance.h"         // D(x, y), CorrelationToDistanceThreshold
#include "ts/generate.h"         // synthetic random walks
#include "ts/io.h"               // CSV loading
#include "ts/ops.h"              // moving average, shifts, ...

#endif  // TSQ_TSQ_H_

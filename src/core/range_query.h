#ifndef TSQ_CORE_RANGE_QUERY_H_
#define TSQ_CORE_RANGE_QUERY_H_

#include <vector>

#include "core/query.h"

namespace tsq::core {

// Range queries (the paper's Query 1) execute through SimilarityEngine:
// Execute() runs one as a one-query batch, ExecuteBatch() runs many, and
// both go through the one pipeline in batch_executor.cc.

/// Sorts matches by (series_id, transform_index) for set comparison.
void SortMatches(std::vector<Match>* matches);

}  // namespace tsq::core

#endif  // TSQ_CORE_RANGE_QUERY_H_

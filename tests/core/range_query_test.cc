#include "core/range_query.h"

#include <cmath>
#include <limits>

#include "core/engine.h"
#include "kernels/kernels.h"
#include "obs/metrics.h"
#include "test_util.h"
#include "testing/oracle.h"
#include "gtest/gtest.h"
#include "transform/builders.h"
#include "ts/distance.h"

namespace tsq::core {
namespace {

struct Workload {
  std::unique_ptr<SimilarityEngine> engine;
  const Dataset* dataset = nullptr;

  // Runs `spec` through the engine under a forced algorithm.
  Result<RangeQueryResult> Run(const RangeQuerySpec& spec,
                               Algorithm algorithm) const {
    Result<QueryResult> result =
        engine->Execute(spec, {.planner = {.algorithm = algorithm}});
    if (!result.ok()) return result.status();
    return *result->range();
  }
};

Workload MakeWorkload(std::vector<ts::Series> series,
                      transform::FeatureLayout layout = {}) {
  SimilarityEngine::Options options;
  options.layout = layout;
  Workload w;
  w.engine = std::make_unique<SimilarityEngine>(std::move(series), options);
  w.dataset = &w.engine->dataset();
  return w;
}

RangeQuerySpec MovingAverageSpec(const Workload& w, std::size_t query_id,
                                 std::size_t first_w, std::size_t last_w,
                                 double correlation = 0.96) {
  RangeQuerySpec spec;
  spec.query = ts::Denormalize(w.dataset->normal(query_id));
  spec.transforms =
      transform::MovingAverageRange(w.dataset->length(), first_w, last_w);
  spec.epsilon =
      ts::CorrelationToDistanceThreshold(correlation, w.dataset->length());
  return spec;
}

void ExpectSameMatches(std::vector<Match> a, std::vector<Match> b) {
  SortMatches(&a);
  SortMatches(&b);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].series_id, b[i].series_id) << i;
    EXPECT_EQ(a[i].transform_index, b[i].transform_index) << i;
    EXPECT_NEAR(a[i].distance, b[i].distance, 1e-6) << i;
  }
}

// The central correctness property (Lemma 1, end to end): every algorithm
// returns exactly the brute-force answer set, on varied datasets, layouts
// and partitionings.
class RangeQueryEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(RangeQueryEquivalenceTest, AllAlgorithmsMatchBruteForce) {
  const int seed = GetParam();
  const auto series = (seed % 2 == 0)
                          ? testutil::RandomWalks(120, 128, seed)
                          : testutil::Stocks(120, 128, seed);
  transform::FeatureLayout layout;
  layout.use_symmetry = (seed % 3 != 0);
  layout.include_mean_std = (seed % 4 != 0);
  Workload w = MakeWorkload(series, layout);

  for (std::size_t query_id : {std::size_t{0}, std::size_t{57}}) {
    const RangeQuerySpec spec = MovingAverageSpec(w, query_id, 5, 20);
    const std::vector<Match> expected =
        testing::Oracle(*w.dataset).Range(spec);

    for (Algorithm algorithm :
         {Algorithm::kSequentialScan, Algorithm::kStIndex,
          Algorithm::kMtIndex}) {
      auto result = w.Run(spec, algorithm);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      ExpectSameMatches(result->matches, expected);
      EXPECT_EQ(result->stats.output_size, expected.size());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RangeQueryEquivalenceTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

TEST(RangeQueryTest, PartitionedMtIndexStillExact) {
  Workload w = MakeWorkload(testutil::Stocks(150, 128, 42));
  RangeQuerySpec spec = MovingAverageSpec(w, 3, 6, 29);
  const std::vector<Match> expected =
      testing::Oracle(*w.dataset).Range(spec);
  for (std::size_t per_group : {1u, 2u, 5u, 8u, 24u}) {
    spec.partition =
        transform::PartitionBySize(spec.transforms.size(), per_group);
    auto result = w.Run(spec, Algorithm::kMtIndex);
    ASSERT_TRUE(result.ok());
    ExpectSameMatches(result->matches, expected);
    EXPECT_EQ(result->stats.traversals, spec.partition.size());
  }
}

// Range verification evaluates a candidate against its rectangle's whole
// group in one kernel call. With groups of 1, 2, 3, 5 and 16 transformations
// (every remainder of the AVX2 blocks of four, and fig5's 16), every plan
// returns the oracle's matches, forced scalar and the best ISA agree on
// matches, QueryStats and the trace signature, and the kernel layer counts
// one call per comparison.
TEST(RangeQueryTest, GroupedVerificationAgreesAcrossIsas) {
  Workload w = MakeWorkload(testutil::RandomWalks(300, 128, 30));
  RangeQuerySpec spec = MovingAverageSpec(w, 11, 2, 28, 0.9);
  std::size_t next = 0;
  for (const std::size_t size : {1u, 2u, 3u, 5u, 16u}) {
    std::vector<std::size_t>& group = spec.partition.emplace_back();
    for (std::size_t k = 0; k < size; ++k) group.push_back(next++);
  }
  ASSERT_EQ(next, spec.transforms.size());
  const std::vector<Match> expected =
      testing::Oracle(*w.dataset).Range(spec);
  ASSERT_FALSE(expected.empty());
  obs::Counter* calls =
      obs::MetricsRegistry::Global().counter("engine.kernels.calls");
  const kernels::Isa best = kernels::BestSupportedIsa();
  for (const Algorithm algorithm : {Algorithm::kSequentialScan,
                                    Algorithm::kStIndex,
                                    Algorithm::kMtIndex}) {
    std::vector<QueryResult> runs;
    for (const kernels::Isa isa : {kernels::Isa::kScalar, best}) {
      kernels::ForceIsaForTesting(isa);
      const std::uint64_t calls0 = calls->value();
      Result<QueryResult> result =
          w.engine->Execute(spec, {.planner = {.algorithm = algorithm}});
      const std::uint64_t call_delta = calls->value() - calls0;
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(call_delta, result->stats().comparisons)
          << AlgorithmName(algorithm) << " " << kernels::IsaName(isa);
      ExpectSameMatches(result->range()->matches, expected);
      runs.push_back(std::move(*result));
    }
    kernels::ForceIsaForTesting(best);
    EXPECT_EQ(runs[0].range()->matches, runs[1].range()->matches)
        << AlgorithmName(algorithm);
    EXPECT_EQ(runs[0].stats(), runs[1].stats()) << AlgorithmName(algorithm);
    EXPECT_EQ(runs[0].trace().DeterministicSignature(),
              runs[1].trace().DeterministicSignature())
        << AlgorithmName(algorithm);
  }
}

TEST(RangeQueryTest, QueryFromOutsideTheDataset) {
  Workload w = MakeWorkload(testutil::RandomWalks(100, 128, 7));
  RangeQuerySpec spec;
  spec.query = testutil::RandomWalks(1, 128, 999)[0];
  spec.transforms = transform::MovingAverageRange(128, 1, 10);
  spec.epsilon = ts::CorrelationToDistanceThreshold(0.9, 128);
  const auto expected = testing::Oracle(*w.dataset).Range(spec);
  for (Algorithm algorithm : {Algorithm::kSequentialScan, Algorithm::kStIndex,
                              Algorithm::kMtIndex}) {
    auto result = w.Run(spec, algorithm);
    ASSERT_TRUE(result.ok());
    ExpectSameMatches(result->matches, expected);
  }
}

TEST(RangeQueryTest, SelfQueryAlwaysMatchesWithIdentityWindow) {
  // Querying a dataset member with MA-1 (identity) must return itself with
  // distance 0.
  Workload w = MakeWorkload(testutil::RandomWalks(50, 64, 8));
  RangeQuerySpec spec = MovingAverageSpec(w, 11, 1, 1, 0.9);
  auto result = w.Run(spec, Algorithm::kMtIndex);
  ASSERT_TRUE(result.ok());
  bool found_self = false;
  for (const Match& m : result->matches) {
    if (m.series_id == 11) {
      found_self = true;
      EXPECT_NEAR(m.distance, 0.0, 1e-6);
    }
  }
  EXPECT_TRUE(found_self);
}

TEST(RangeQueryTest, ShiftTransformsExact) {
  // Shifts exercise the angle-wrapping machinery (pure phase transforms).
  Workload w = MakeWorkload(testutil::RandomWalks(80, 64, 9));
  RangeQuerySpec spec;
  spec.query = ts::Denormalize(w.dataset->normal(5));
  spec.transforms = transform::ShiftRange(64, 0, 10);
  spec.epsilon = ts::CorrelationToDistanceThreshold(0.9, 64);
  const auto expected = testing::Oracle(*w.dataset).Range(spec);
  EXPECT_FALSE(expected.empty());  // shift 0 matches the query itself
  for (Algorithm algorithm : {Algorithm::kStIndex, Algorithm::kMtIndex}) {
    auto result = w.Run(spec, algorithm);
    ASSERT_TRUE(result.ok());
    ExpectSameMatches(result->matches, expected);
  }
}

TEST(RangeQueryTest, MomentumAndMixedTransformSet) {
  Workload w = MakeWorkload(testutil::Stocks(100, 128, 10));
  RangeQuerySpec spec;
  spec.query = ts::Denormalize(w.dataset->normal(0));
  spec.transforms.push_back(transform::MomentumTransform(128));
  spec.transforms.push_back(transform::MovingAverageTransform(128, 7));
  spec.transforms.push_back(transform::ShiftTransform(128, 3));
  spec.transforms.push_back(transform::InvertTransform(128));
  spec.epsilon = 2.0;
  const auto expected = testing::Oracle(*w.dataset).Range(spec);
  for (Algorithm algorithm : {Algorithm::kSequentialScan, Algorithm::kStIndex,
                              Algorithm::kMtIndex}) {
    auto result = w.Run(spec, algorithm);
    ASSERT_TRUE(result.ok());
    ExpectSameMatches(result->matches, expected);
  }
}

TEST(RangeQueryTest, OrderedScaleSetBinarySearch) {
  Workload w = MakeWorkload(testutil::RandomWalks(60, 64, 11));
  RangeQuerySpec spec;
  spec.query = ts::Denormalize(w.dataset->normal(2));
  spec.transforms = transform::ScaleRange(64, 1.0, 50.0, 1.0);
  spec.epsilon = 20.0;
  spec.use_ordering = true;
  const auto expected = testing::Oracle(*w.dataset).Range(spec);
  EXPECT_FALSE(expected.empty());

  RangeQuerySpec linear = spec;
  linear.use_ordering = false;
  for (Algorithm algorithm : {Algorithm::kSequentialScan, Algorithm::kStIndex,
                              Algorithm::kMtIndex}) {
    auto ordered = w.Run(spec, algorithm);
    auto plain = w.Run(linear, algorithm);
    ASSERT_TRUE(ordered.ok());
    ASSERT_TRUE(plain.ok());
    ExpectSameMatches(ordered->matches, expected);
    ExpectSameMatches(plain->matches, expected);
    // Binary search never evaluates more distances than the linear sweep,
    // and strictly fewer whenever a post-processing step sees more than one
    // transformation (ST-index verifies one transformation per traversal,
    // so there the two coincide).
    EXPECT_LE(ordered->stats.comparisons, plain->stats.comparisons)
        << AlgorithmName(algorithm);
    if (algorithm != Algorithm::kStIndex) {
      EXPECT_LT(ordered->stats.comparisons, plain->stats.comparisons)
          << AlgorithmName(algorithm);
    }
  }
}

TEST(RangeQueryTest, StatsAccounting) {
  Workload w = MakeWorkload(testutil::Stocks(200, 128, 12));
  const RangeQuerySpec spec = MovingAverageSpec(w, 0, 10, 25);

  w.engine->ResetIoStats();
  auto seq = w.Run(spec, Algorithm::kSequentialScan);
  ASSERT_TRUE(seq.ok());
  EXPECT_EQ(seq->stats.index_nodes_accessed, 0u);
  // The scan's record_pages_read counts the pages its fetches actually
  // touched: exactly the physical reads issued, and at least one full pass
  // over the record file (records straddling a page boundary are counted
  // once per fetch that touches them, so the sum can exceed record_pages()).
  EXPECT_EQ(seq->stats.record_pages_read, w.dataset->record_io().reads);
  EXPECT_GE(seq->stats.record_pages_read, w.dataset->record_pages());
  EXPECT_EQ(seq->stats.candidates, w.dataset->active_size());
  EXPECT_EQ(seq->stats.comparisons,
            w.dataset->size() * spec.transforms.size());

  auto mt = w.engine->Execute(
      spec, {.planner = {.algorithm = Algorithm::kMtIndex}});
  ASSERT_TRUE(mt.ok());
  const QueryStats& mt_stats = mt->stats();
  EXPECT_EQ(mt_stats.traversals, 1u);
  ASSERT_EQ(mt->group_stats.size(), 1u);
  EXPECT_EQ(mt->group_stats[0].transforms, spec.transforms.size());
  EXPECT_GE(mt_stats.index_nodes_accessed, 1u);
  EXPECT_GE(mt_stats.index_nodes_accessed, mt_stats.index_leaves_accessed);
  // MT-index reads fewer record pages than the scan (filtering works).
  EXPECT_LT(mt_stats.record_pages_read, seq->stats.record_pages_read);
  EXPECT_LT(mt_stats.comparisons, seq->stats.comparisons);

  auto st = w.Run(spec, Algorithm::kStIndex);
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->stats.traversals, spec.transforms.size());
  // One traversal (MT) reads fewer index pages than |T| traversals (ST).
  EXPECT_LT(mt_stats.index_nodes_accessed, st->stats.index_nodes_accessed);
}

TEST(RangeQueryTest, InvalidSpecsRejected) {
  Workload w = MakeWorkload(testutil::RandomWalks(10, 64, 13));
  RangeQuerySpec spec;
  spec.query = ts::Series(32, 1.0);  // wrong length
  spec.transforms = transform::MovingAverageRange(64, 1, 2);
  spec.epsilon = 1.0;
  EXPECT_EQ(w.Run(spec, Algorithm::kMtIndex).status().code(),
            StatusCode::kInvalidArgument);

  spec.query = ts::Series(64, 1.0);
  spec.transforms.clear();
  EXPECT_EQ(w.Run(spec, Algorithm::kMtIndex).status().code(),
            StatusCode::kInvalidArgument);

  spec.transforms = transform::MovingAverageRange(64, 1, 4);
  spec.epsilon = -1.0;
  EXPECT_EQ(w.Run(spec, Algorithm::kMtIndex).status().code(),
            StatusCode::kInvalidArgument);

  // A NaN threshold makes every comparison false; reject it like a negative.
  spec.epsilon = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(w.Run(spec, Algorithm::kMtIndex).status().code(),
            StatusCode::kInvalidArgument);

  spec.epsilon = 1.0;
  spec.partition = {{0, 1}, {1, 2, 3}};  // overlapping groups
  EXPECT_EQ(w.Run(spec, Algorithm::kMtIndex).status().code(),
            StatusCode::kInvalidArgument);

  spec.partition = {{0, 1}};  // not covering
  EXPECT_EQ(w.Run(spec, Algorithm::kMtIndex).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(RangeQueryTest, DataOnlyTargetMatchesBruteForce) {
  // SIGMOD'97-style semantics: transform the data sequence only.
  Workload w = MakeWorkload(testutil::Stocks(120, 128, 16));
  RangeQuerySpec spec;
  spec.query = ts::Denormalize(w.dataset->normal(4));
  spec.target = TransformTarget::kDataOnly;
  spec.transforms = transform::MovingAverageRange(128, 1, 15);
  for (std::size_t s : {1u, 2u, 126u, 127u}) {
    spec.transforms.push_back(transform::ShiftTransform(128, s));
  }
  spec.epsilon = 2.5;
  const auto expected = testing::Oracle(*w.dataset).Range(spec);
  EXPECT_FALSE(expected.empty());
  for (Algorithm algorithm : {Algorithm::kSequentialScan, Algorithm::kStIndex,
                              Algorithm::kMtIndex}) {
    auto result = w.Run(spec, algorithm);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectSameMatches(result->matches, expected);
  }
}

TEST(RangeQueryTest, DataOnlyShiftsAreMeaningful) {
  // Under kBoth a pure shift never changes the distance; under kDataOnly it
  // does — that is the whole point of the mode.
  Workload w = MakeWorkload(testutil::RandomWalks(50, 64, 17));
  RangeQuerySpec spec;
  spec.query = ts::Denormalize(w.dataset->normal(9));
  spec.transforms = {transform::ShiftTransform(64, 0),
                     transform::ShiftTransform(64, 7)};
  spec.epsilon = 1e-6;

  spec.target = TransformTarget::kBoth;
  auto both = testing::Oracle(*w.dataset).Range(spec);
  // Both shifts match the query itself (distance 0 either way).
  EXPECT_EQ(both.size(), 2u);

  spec.target = TransformTarget::kDataOnly;
  auto data_only = testing::Oracle(*w.dataset).Range(spec);
  // Only the unshifted version still matches.
  ASSERT_EQ(data_only.size(), 1u);
  EXPECT_EQ(data_only[0].transform_index, 0u);
}

TEST(RangeQueryTest, QueryTransformAlignment) {
  // Example 1.2 as a unit test: plant a copy of the query whose reaction is
  // lagged by 3 days; the (shift o momentum) vs momentum(q) query finds it
  // at exactly that lag.
  // Like the paper's PCG/PCL: two smooth, tightly coupled series whose large
  // reaction spikes are three days apart, so the momenta are spike-dominated.
  const std::size_t n = 128;
  auto series = testutil::Stocks(60, n, 18);
  Rng rng(1812);
  ts::Series query(n);
  ts::Series lagged(n);
  double a = 50.0, b = 60.0;
  for (std::size_t t = 0; t < n; ++t) {
    const double shared = 0.1 * rng.NextGaussian();
    a += shared + 0.02 * rng.NextGaussian();
    b += shared + 0.02 * rng.NextGaussian();
    query[t] = a;
    lagged[t] = b;
  }
  query[40] += 8.0;    // query reacts on day 40
  lagged[43] += 8.0;   // stock 0 reacts three days later
  series[0] = lagged;
  Workload w = MakeWorkload(series);

  RangeQuerySpec spec;
  spec.query = query;
  spec.query_transform = transform::MomentumTransform(n);
  spec.target = TransformTarget::kDataOnly;
  std::vector<transform::SpectralTransform> momentum = {
      transform::MomentumTransform(n)};
  std::vector<transform::SpectralTransform> shifts;
  for (std::size_t s = 0; s < 6; ++s) {
    shifts.push_back(transform::ShiftTransform(n, (n - s) % n));
  }
  spec.transforms = transform::ComposeSpectralSets(momentum, shifts);
  spec.epsilon = 4.0;  // the aligned lag scores ~2, every other lag ~20

  const auto expected = testing::Oracle(*w.dataset).Range(spec);
  for (Algorithm algorithm : {Algorithm::kSequentialScan, Algorithm::kStIndex,
                              Algorithm::kMtIndex}) {
    auto result = w.Run(spec, algorithm);
    ASSERT_TRUE(result.ok());
    ExpectSameMatches(result->matches, expected);
  }
  // The lag-3 composed transform (index 3) matches stock 0.
  bool found = false;
  for (const Match& m : expected) {
    if (m.series_id == 0 && m.transform_index == 3) found = true;
  }
  EXPECT_TRUE(found);
}

// A query transformation that zeroes coefficient 1 but keeps its mirror
// n - 1 leaves the query spectrum non-Hermitian, so the symmetry weight
// overstates the indexed coefficients' share of the distance: the index
// lost matches the scan found. Under the symmetry layout it is rejected on
// every algorithm; without symmetry nothing is doubled and every algorithm
// agrees with the oracle.
TEST(RangeQueryTest, NonRealPreservingQueryTransformRejectedUnderSymmetry) {
  const std::size_t n = 32;
  std::vector<dft::Complex> multipliers(n, {1.0, 0.0});
  multipliers[1] = {0.0, 0.0};
  const transform::SpectralTransform lopsided("drop-f1", multipliers);
  ASSERT_FALSE(lopsided.PreservesRealSequences());
  const auto series = testutil::RandomWalks(200, n, 32);
  for (const bool symmetry : {true, false}) {
    transform::FeatureLayout layout;
    layout.use_symmetry = symmetry;
    Workload w = MakeWorkload(series, layout);
    RangeQuerySpec spec;
    spec.query = ts::Denormalize(w.dataset->normal(9));
    spec.transforms = {transform::SpectralTransform::Identity(n)};
    spec.query_transform = lopsided;
    const auto spectrum = w.dataset->FetchSpectrum(9);
    ASSERT_TRUE(spectrum.ok());
    spec.epsilon = std::sqrt(1.5 * std::norm((*spectrum)[1]));
    const auto expected = testing::Oracle(*w.dataset).Range(spec);
    for (Algorithm algorithm : {Algorithm::kSequentialScan,
                                Algorithm::kStIndex, Algorithm::kMtIndex}) {
      const auto result = w.Run(spec, algorithm);
      if (symmetry) {
        EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
            << AlgorithmName(algorithm);
      } else {
        ASSERT_TRUE(result.ok()) << AlgorithmName(algorithm);
        ExpectSameMatches(result->matches, expected);
      }
    }
  }
}

TEST(RangeQueryTest, OrderingRejectedForDataOnlyTarget) {
  Workload w = MakeWorkload(testutil::RandomWalks(10, 64, 19));
  RangeQuerySpec spec;
  spec.query = ts::Denormalize(w.dataset->normal(0));
  spec.transforms = transform::ScaleRange(64, 1.0, 5.0);
  spec.epsilon = 1.0;
  spec.target = TransformTarget::kDataOnly;
  spec.use_ordering = true;
  EXPECT_EQ(w.Run(spec, Algorithm::kMtIndex).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(RangeQueryTest, ZeroEpsilonReturnsNothing) {
  Workload w = MakeWorkload(testutil::RandomWalks(20, 64, 14));
  RangeQuerySpec spec = MovingAverageSpec(w, 0, 1, 5);
  spec.epsilon = 0.0;  // strict '<' comparison: even exact matches fail
  for (Algorithm algorithm : {Algorithm::kSequentialScan, Algorithm::kStIndex,
                              Algorithm::kMtIndex}) {
    auto result = w.Run(spec, algorithm);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result->matches.empty());
  }
}

TEST(RangeQueryTest, LargeEpsilonReturnsEverything) {
  Workload w = MakeWorkload(testutil::RandomWalks(30, 64, 15));
  RangeQuerySpec spec = MovingAverageSpec(w, 0, 1, 4);
  spec.epsilon = 1e6;
  for (Algorithm algorithm : {Algorithm::kSequentialScan, Algorithm::kStIndex,
                              Algorithm::kMtIndex}) {
    auto result = w.Run(spec, algorithm);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->matches.size(),
              w.dataset->size() * spec.transforms.size());
  }
}

TEST(RangeQueryTest, NonFiniteQueryRejectedUnderEveryAlgorithm) {
  // A NaN or ±inf sample makes every distance NaN, so without the check the
  // query would "succeed" with zero matches.
  Workload w = MakeWorkload(testutil::RandomWalks(40, 64, 17));
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    RangeQuerySpec spec = MovingAverageSpec(w, 3, 1, 6);
    spec.query[10] = bad;
    for (Algorithm algorithm :
         {Algorithm::kSequentialScan, Algorithm::kStIndex,
          Algorithm::kMtIndex, Algorithm::kAuto}) {
      EXPECT_EQ(w.Run(spec, algorithm).status().code(),
                StatusCode::kInvalidArgument)
          << bad << " under " << AlgorithmName(algorithm);
    }
  }
}

TEST(RangeQueryTest, NonFiniteQueryFailsOnlyItsBatchEntry) {
  Workload w = MakeWorkload(testutil::RandomWalks(40, 64, 18));
  const RangeQuerySpec good = MovingAverageSpec(w, 5, 1, 6);
  RangeQuerySpec bad = good;
  bad.query[0] = std::numeric_limits<double>::quiet_NaN();
  const auto batch = w.engine->ExecuteBatch({QuerySpec(good), QuerySpec(bad)});
  ASSERT_EQ(batch.size(), 2u);
  ASSERT_TRUE(batch[0].ok()) << batch[0].status().ToString();
  ExpectSameMatches(batch[0]->range()->matches,
                    testing::Oracle(*w.dataset).Range(good));
  EXPECT_EQ(batch[1].status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace tsq::core

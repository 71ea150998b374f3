#include "core/join_query.h"

#include <limits>

#include "core/polar_bounds.h"
#include "test_util.h"
#include "testing/oracle.h"
#include "gtest/gtest.h"
#include "transform/builders.h"
#include "transform/transform_mbr.h"
#include "ts/distance.h"
#include "ts/ops.h"

namespace tsq::core {
namespace {

struct Workload {
  std::unique_ptr<Dataset> dataset;
  std::unique_ptr<SequenceIndex> index;
};

Workload MakeWorkload(std::vector<ts::Series> series) {
  Workload w;
  w.dataset = std::make_unique<Dataset>(std::move(series),
                                        transform::FeatureLayout{});
  w.index = std::make_unique<SequenceIndex>(*w.dataset);
  return w;
}

ExecOptions Forced(Algorithm algorithm) {
  ExecOptions options;
  options.planner.algorithm = algorithm;
  return options;
}

void ExpectSameJoinMatches(std::vector<JoinMatch> a,
                           std::vector<JoinMatch> b) {
  SortJoinMatches(&a);
  SortJoinMatches(&b);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].a, b[i].a) << i;
    EXPECT_EQ(a[i].b, b[i].b) << i;
    EXPECT_EQ(a[i].transform_index, b[i].transform_index) << i;
    EXPECT_NEAR(a[i].value, b[i].value, 1e-6) << i;
  }
}

TEST(TransformedCorrelationTest, MatchesTimeDomainComputation) {
  const auto series = testutil::Stocks(20, 128, 1);
  Dataset dataset(series, transform::FeatureLayout{});
  const auto t = transform::MovingAverageTransform(128, 9);
  for (std::size_t a = 0; a < 5; ++a) {
    for (std::size_t b = a + 1; b < 5; ++b) {
      const double via_freq = TransformedCorrelation(
          t, *dataset.FetchSpectrum(a), *dataset.FetchSpectrum(b));
      const double via_time = ts::CrossCorrelation(
          t.ApplyToSeries(dataset.normal(a).values),
          t.ApplyToSeries(dataset.normal(b).values));
      EXPECT_NEAR(via_freq, via_time, 1e-9);
    }
  }
}

TEST(TransformedCorrelationTest, IdentityMatchesPlainCorrelation) {
  const auto series = testutil::Stocks(10, 64, 2);
  Dataset dataset(series, transform::FeatureLayout{});
  const auto id = transform::SpectralTransform::Identity(64);
  const double via_freq = TransformedCorrelation(
      id, *dataset.FetchSpectrum(0), *dataset.FetchSpectrum(1));
  const double direct = ts::CrossCorrelation(dataset.normal(0).values,
                                             dataset.normal(1).values);
  EXPECT_NEAR(via_freq, direct, 1e-9);
}

// Distance-mode joins are exactly filterable: all three algorithms must
// agree with brute force (the join analogue of Lemma 1).
class DistanceJoinEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(DistanceJoinEquivalenceTest, AllAlgorithmsMatchBruteForce) {
  const int seed = GetParam();
  Workload w = MakeWorkload(testutil::Stocks(60, 128, seed));
  JoinQuerySpec spec;
  spec.mode = JoinMode::kDistance;
  spec.epsilon = ts::CorrelationToDistanceThreshold(0.97, 128);
  spec.transforms = transform::MovingAverageRange(128, 5, 14);

  const auto expected = testing::Oracle(*w.dataset).Join(spec);
  for (Algorithm algorithm : {Algorithm::kSequentialScan, Algorithm::kStIndex,
                              Algorithm::kMtIndex}) {
    auto result = RunJoinQuery(*w.dataset, *w.index, spec, Forced(algorithm));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectSameJoinMatches(result->matches, expected);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DistanceJoinEquivalenceTest,
                         ::testing::Values(1, 2, 3));

TEST(JoinQueryTest, CorrelationModeSoundAndComplete) {
  // Correlation mode: results must be a subset of brute force with exact
  // values (soundness always); on this workload the filter also achieves
  // full recall.
  Workload w = MakeWorkload(testutil::Stocks(80, 128, 4));
  JoinQuerySpec spec;
  spec.mode = JoinMode::kCorrelation;
  spec.min_correlation = 0.985;
  spec.transforms = transform::MovingAverageRange(128, 5, 14);

  const auto expected = testing::Oracle(*w.dataset).Join(spec);
  EXPECT_FALSE(expected.empty());
  for (Algorithm algorithm : {Algorithm::kSequentialScan, Algorithm::kStIndex,
                              Algorithm::kMtIndex}) {
    auto result = RunJoinQuery(*w.dataset, *w.index, spec, Forced(algorithm));
    ASSERT_TRUE(result.ok());
    ExpectSameJoinMatches(result->matches, expected);
  }
}

TEST(JoinQueryTest, PartitionedJoinStillExact) {
  Workload w = MakeWorkload(testutil::Stocks(50, 128, 5));
  JoinQuerySpec spec;
  spec.mode = JoinMode::kDistance;
  spec.epsilon = 1.0;
  spec.transforms = transform::MovingAverageRange(128, 6, 17);
  const auto expected = testing::Oracle(*w.dataset).Join(spec);
  for (std::size_t per_group : {1u, 3u, 12u}) {
    spec.partition =
        transform::PartitionBySize(spec.transforms.size(), per_group);
    auto result = RunJoinQuery(*w.dataset, *w.index, spec,
                               Forced(Algorithm::kMtIndex));
    ASSERT_TRUE(result.ok());
    ExpectSameJoinMatches(result->matches, expected);
    EXPECT_EQ(result->stats.traversals, spec.partition.size());
  }
}

TEST(JoinQueryTest, PairsAreOrderedAndDistinct) {
  Workload w = MakeWorkload(testutil::Stocks(40, 128, 6));
  JoinQuerySpec spec;
  spec.mode = JoinMode::kDistance;
  spec.epsilon = 2.0;
  spec.transforms = transform::MovingAverageRange(128, 8, 10);
  auto result = RunJoinQuery(*w.dataset, *w.index, spec,
                             Forced(Algorithm::kMtIndex));
  ASSERT_TRUE(result.ok());
  std::set<std::tuple<std::size_t, std::size_t, std::size_t>> seen;
  for (const JoinMatch& m : result->matches) {
    EXPECT_LT(m.a, m.b);
    EXPECT_TRUE(seen.insert({m.a, m.b, m.transform_index}).second)
        << "duplicate pair";
  }
}

TEST(JoinQueryTest, IndexJoinBeatsScanOnIo) {
  Workload w = MakeWorkload(testutil::Stocks(150, 128, 7));
  JoinQuerySpec spec;
  spec.mode = JoinMode::kCorrelation;
  spec.min_correlation = 0.99;
  spec.transforms = transform::MovingAverageRange(128, 5, 14);

  auto seq =
      RunJoinQuery(*w.dataset, *w.index, spec,
                   Forced(Algorithm::kSequentialScan));
  auto mt = RunJoinQuery(*w.dataset, *w.index, spec,
                         Forced(Algorithm::kMtIndex));
  ASSERT_TRUE(seq.ok());
  ASSERT_TRUE(mt.ok());
  // The filter prunes nearly all of the ~11k pairs.
  EXPECT_LT(mt->stats.candidates, seq->stats.candidates / 4);
  EXPECT_LT(mt->stats.comparisons, seq->stats.comparisons / 4);
}

TEST(JoinQueryTest, SingleRectangleCandidatesMatchMappedPointPairs) {
  // Under one transformation rectangle the index join is a filter over the
  // mapped feature points: its candidates are exactly the pairs whose mapped
  // points pass the polar bound.
  for (const std::uint64_t seed : {11, 12, 13}) {
    Workload w = MakeWorkload(testutil::Stocks(300, 128, seed));
    JoinQuerySpec spec;
    spec.mode = JoinMode::kCorrelation;
    spec.min_correlation = 0.99;
    spec.transforms = transform::MovingAverageRange(128, 5, 14);
    auto result = RunJoinQuery(*w.dataset, *w.index, spec,
                               Forced(Algorithm::kMtIndex));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->stats.traversals, 1u);

    const transform::FeatureLayout& layout = w.dataset->layout();
    std::vector<transform::FeatureTransform> fts;
    for (const transform::SpectralTransform& t : spec.transforms) {
      fts.push_back(t.ToFeatureTransform(layout));
    }
    const transform::TransformMbr mbr(fts, layout);
    const double eps =
        ts::CorrelationToDistanceThreshold(spec.min_correlation, 128);
    std::vector<rstar::Rect> mapped;
    for (std::size_t i = 0; i < w.dataset->size(); ++i) {
      mapped.push_back(
          mbr.Apply(rstar::Rect::FromPoint(w.dataset->features(i))));
    }
    std::uint64_t expected = 0;
    for (std::size_t a = 0; a < mapped.size(); ++a) {
      for (std::size_t b = a + 1; b < mapped.size(); ++b) {
        if (RectPairSquaredDistanceLowerBound(mapped[a], mapped[b], layout) <=
            eps * eps) {
          ++expected;
        }
      }
    }
    EXPECT_GT(expected, 0u) << seed;
    EXPECT_EQ(result->stats.candidates, expected) << seed;
  }
}

TEST(JoinQueryTest, InvalidSpecsRejected) {
  Workload w = MakeWorkload(testutil::Stocks(10, 64, 8));
  JoinQuerySpec spec;
  EXPECT_EQ(RunJoinQuery(*w.dataset, *w.index, spec,
                         Forced(Algorithm::kMtIndex))
                .status()
                .code(),
            StatusCode::kInvalidArgument);  // no transforms
  spec.transforms = transform::MovingAverageRange(64, 1, 2);
  spec.mode = JoinMode::kDistance;
  spec.epsilon = -0.5;
  EXPECT_EQ(RunJoinQuery(*w.dataset, *w.index, spec,
                         Forced(Algorithm::kMtIndex))
                .status()
                .code(),
            StatusCode::kInvalidArgument);

  // NaN thresholds must be rejected, not silently evaluate to "no pair
  // qualifies" after reading the whole relation.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  spec.mode = JoinMode::kDistance;
  spec.epsilon = nan;
  EXPECT_EQ(RunJoinQuery(*w.dataset, *w.index, spec,
                         Forced(Algorithm::kMtIndex))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  spec.mode = JoinMode::kCorrelation;
  spec.min_correlation = nan;
  EXPECT_EQ(RunJoinQuery(*w.dataset, *w.index, spec,
                         Forced(Algorithm::kMtIndex))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

// The transformation checks a range query makes hold for joins too, under
// every algorithm: a partition must name each transformation exactly once,
// and under the symmetry property (the default layout) every transformation
// must map real sequences to real sequences. Unchecked, an out-of-range
// partition index reads past the transformation vector, and a partial or
// repeating partition or a non-real-preserving transformation yields fewer
// pairs than the oracle.
TEST(JoinQueryTest, MalformedTransformationSpecsRejected) {
  Workload w = MakeWorkload(testutil::Stocks(40, 64, 10));
  JoinQuerySpec valid;
  valid.mode = JoinMode::kDistance;
  valid.epsilon = 1.0;
  valid.transforms = transform::MovingAverageRange(64, 1, 4);
  ASSERT_EQ(valid.transforms.size(), 4u);

  std::vector<JoinQuerySpec> malformed;
  for (const transform::Partition& partition :
       {transform::Partition{{0, 1}, {2, 7}},    // names transformation 7
        transform::Partition{{0, 1}, {1}},       // repeats 1, leaves out 2, 3
        transform::Partition{{0, 1, 2, 3}, {}}}) {  // empty group
    malformed.push_back(valid);
    malformed.back().partition = partition;
  }
  // Multiplies coefficient 1 by i but leaves its mirror n-1 alone, so
  // M_{n-1} != conj(M_1).
  std::vector<dft::Complex> lopsided(64, {1.0, 0.0});
  lopsided[1] = {0.0, 1.0};
  malformed.push_back(valid);
  malformed.back().transforms.push_back(
      transform::SpectralTransform("lopsided", lopsided));

  for (Algorithm algorithm : {Algorithm::kSequentialScan, Algorithm::kStIndex,
                              Algorithm::kMtIndex}) {
    ASSERT_TRUE(
        RunJoinQuery(*w.dataset, *w.index, valid, Forced(algorithm)).ok());
    for (std::size_t i = 0; i < malformed.size(); ++i) {
      EXPECT_EQ(
          RunJoinQuery(*w.dataset, *w.index, malformed[i], Forced(algorithm))
              .status()
              .code(),
          StatusCode::kInvalidArgument)
          << AlgorithmName(algorithm) << " malformed spec " << i;
    }
  }
}

TEST(JoinQueryTest, EmptyResultWhenThresholdImpossible) {
  Workload w = MakeWorkload(testutil::RandomWalks(30, 64, 9));
  JoinQuerySpec spec;
  spec.mode = JoinMode::kCorrelation;
  spec.min_correlation = 1.0;  // above the (n-1)/n ceiling
  spec.transforms = transform::MovingAverageRange(64, 1, 3);
  for (Algorithm algorithm : {Algorithm::kSequentialScan,
                              Algorithm::kMtIndex}) {
    auto result = RunJoinQuery(*w.dataset, *w.index, spec, Forced(algorithm));
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result->matches.empty());
  }
}

}  // namespace
}  // namespace tsq::core

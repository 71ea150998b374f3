#include "core/knn_query.h"

#include <cmath>
#include <limits>

#include "test_util.h"
#include "testing/oracle.h"
#include "gtest/gtest.h"
#include "transform/builders.h"

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

void ExpectSameNeighbors(const std::vector<KnnMatch>& actual,
                         const std::vector<KnnMatch>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    // Distances must agree exactly; ids can differ only on exact ties.
    EXPECT_NEAR(actual[i].distance, expected[i].distance, 1e-6) << "rank " << i;
  }
  // The sets of ids must agree up to tie-breaking at equal distance.
  for (std::size_t i = 0; i < actual.size(); ++i) {
    bool found = false;
    for (std::size_t j = 0; j < expected.size(); ++j) {
      if (actual[i].series_id == expected[j].series_id &&
          std::fabs(actual[i].distance - expected[j].distance) < 1e-6) {
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found) << "unexpected neighbor " << actual[i].series_id;
  }
}

class KnnEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(KnnEquivalenceTest, AllAlgorithmsMatchBruteForce) {
  const int seed = GetParam();
  Workload w = MakeWorkload(seed % 2 == 0
                                ? testutil::RandomWalks(100, 128, seed)
                                : testutil::Stocks(100, 128, seed));
  KnnQuerySpec spec;
  spec.query = ts::Denormalize(w.dataset->normal(seed % 10));
  spec.k = 1 + seed % 7;
  spec.transforms = transform::MovingAverageRange(128, 5, 15);

  const auto expected = testing::Oracle(*w.dataset).Knn(spec);
  ASSERT_EQ(expected.size(), spec.k);
  for (Algorithm algorithm : {Algorithm::kSequentialScan, Algorithm::kStIndex,
                              Algorithm::kMtIndex}) {
    auto result = RunKnnQuery(*w.dataset, *w.index, spec, Forced(algorithm));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectSameNeighbors(result->matches, expected);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KnnEquivalenceTest,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(KnnQueryTest, NearestToDatasetMemberIsItself) {
  Workload w = MakeWorkload(testutil::RandomWalks(50, 64, 10));
  KnnQuerySpec spec;
  spec.query = ts::Denormalize(w.dataset->normal(17));
  spec.k = 1;
  spec.transforms = {transform::SpectralTransform::Identity(64)};
  auto result = RunKnnQuery(*w.dataset, *w.index, spec,
                            Forced(Algorithm::kMtIndex));
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->matches.size(), 1u);
  EXPECT_EQ(result->matches[0].series_id, 17u);
  EXPECT_NEAR(result->matches[0].distance, 0.0, 1e-6);
}

TEST(KnnQueryTest, ResultsSortedAscending) {
  Workload w = MakeWorkload(testutil::Stocks(80, 128, 11));
  KnnQuerySpec spec;
  spec.query = ts::Denormalize(w.dataset->normal(0));
  spec.k = 10;
  spec.transforms = transform::MovingAverageRange(128, 3, 9);
  auto result = RunKnnQuery(*w.dataset, *w.index, spec,
                            Forced(Algorithm::kMtIndex));
  ASSERT_TRUE(result.ok());
  for (std::size_t i = 1; i < result->matches.size(); ++i) {
    EXPECT_LE(result->matches[i - 1].distance, result->matches[i].distance);
  }
}

TEST(KnnQueryTest, KLargerThanDataset) {
  Workload w = MakeWorkload(testutil::RandomWalks(7, 64, 12));
  KnnQuerySpec spec;
  spec.query = testutil::RandomWalks(1, 64, 99)[0];
  spec.k = 20;
  spec.transforms = transform::MovingAverageRange(64, 1, 3);
  auto result = RunKnnQuery(*w.dataset, *w.index, spec,
                            Forced(Algorithm::kMtIndex));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->matches.size(), 7u);
}

TEST(KnnQueryTest, IndexKnnPrunesCandidates) {
  Workload w = MakeWorkload(testutil::RandomWalks(500, 128, 13));
  KnnQuerySpec spec;
  spec.query = ts::Denormalize(w.dataset->normal(42));
  spec.k = 5;
  spec.transforms = transform::MovingAverageRange(128, 5, 10);
  auto mt = RunKnnQuery(*w.dataset, *w.index, spec,
                        Forced(Algorithm::kMtIndex));
  auto seq =
      RunKnnQuery(*w.dataset, *w.index, spec,
                  Forced(Algorithm::kSequentialScan));
  ASSERT_TRUE(mt.ok());
  ASSERT_TRUE(seq.ok());
  ExpectSameNeighbors(mt->matches, seq->matches);
  // The branch-and-bound search must not refine every sequence.
  EXPECT_LT(mt->stats.candidates, w.dataset->size());
}

TEST(KnnQueryTest, ReportsBestTransformPerNeighbor) {
  Workload w = MakeWorkload(testutil::Stocks(60, 128, 14));
  KnnQuerySpec spec;
  spec.query = ts::Denormalize(w.dataset->normal(1));
  spec.k = 3;
  spec.transforms = transform::MovingAverageRange(128, 1, 20);
  auto result = RunKnnQuery(*w.dataset, *w.index, spec,
                            Forced(Algorithm::kMtIndex));
  ASSERT_TRUE(result.ok());
  for (const KnnMatch& m : result->matches) {
    ASSERT_LT(m.transform_index, spec.transforms.size());
    // The reported transform actually achieves the reported distance.
    const double d2 =
        spec.transforms[m.transform_index].TransformedSquaredDistance(
            *w.dataset->FetchSpectrum(m.series_id),
            w.dataset->plan().Forward(std::span<const double>(
                ts::Normalize(spec.query).values)));
    EXPECT_NEAR(std::sqrt(d2), m.distance, 1e-6);
  }
}

TEST(KnnQueryTest, DataOnlyTargetMatchesBruteForce) {
  Workload w = MakeWorkload(testutil::Stocks(80, 128, 20));
  KnnQuerySpec spec;
  spec.query = ts::Denormalize(w.dataset->normal(3));
  spec.k = 5;
  spec.target = TransformTarget::kDataOnly;
  spec.transforms = transform::MovingAverageRange(128, 1, 8);
  for (std::size_t s : {1u, 127u}) {
    spec.transforms.push_back(transform::ShiftTransform(128, s));
  }
  const auto expected = testing::Oracle(*w.dataset).Knn(spec);
  for (Algorithm algorithm : {Algorithm::kSequentialScan, Algorithm::kStIndex,
                              Algorithm::kMtIndex}) {
    auto result = RunKnnQuery(*w.dataset, *w.index, spec, Forced(algorithm));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectSameNeighbors(result->matches, expected);
  }
}

TEST(KnnQueryTest, QueryTransformSupported) {
  Workload w = MakeWorkload(testutil::Stocks(60, 128, 21));
  KnnQuerySpec spec;
  spec.query = ts::Denormalize(w.dataset->normal(2));
  spec.k = 4;
  spec.target = TransformTarget::kDataOnly;
  spec.query_transform = transform::MomentumTransform(128);
  std::vector<transform::SpectralTransform> momentum = {
      transform::MomentumTransform(128)};
  spec.transforms = transform::ComposeSpectralSets(
      momentum, transform::ShiftRange(128, 0, 3));
  const auto expected = testing::Oracle(*w.dataset).Knn(spec);
  auto result = RunKnnQuery(*w.dataset, *w.index, spec,
                            Forced(Algorithm::kMtIndex));
  ASSERT_TRUE(result.ok());
  ExpectSameNeighbors(result->matches, expected);
  // The query itself (shift 0, momentum == momentum) is the top match.
  EXPECT_EQ(result->matches[0].series_id, 2u);
  EXPECT_NEAR(result->matches[0].distance, 0.0, 1e-6);
}

TEST(KnnQueryTest, InvalidSpecsRejected) {
  Workload w = MakeWorkload(testutil::RandomWalks(10, 64, 15));
  KnnQuerySpec spec;
  spec.query = ts::Series(32, 0.0);
  spec.k = 1;
  spec.transforms = transform::MovingAverageRange(64, 1, 2);
  EXPECT_EQ(RunKnnQuery(*w.dataset, *w.index, spec, Forced(Algorithm::kMtIndex))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  spec.query = ts::Series(64, 0.0);
  spec.transforms.clear();
  EXPECT_EQ(RunKnnQuery(*w.dataset, *w.index, spec, Forced(Algorithm::kMtIndex))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

// The transformation checks a range query makes hold for k-NN too, under
// every algorithm: a partition must name each transformation exactly once,
// the fixed query transformation must have the dataset's length, and under
// the symmetry property (the default layout) every transformation must map
// real sequences to real sequences. Unchecked, an out-of-range partition
// index reads past the transformation vector, a partial or repeating
// partition or a non-real-preserving transformation yields neighbours that
// differ from the oracle's, and a short query transformation aborts the
// process.
TEST(KnnQueryTest, MalformedTransformationSpecsRejected) {
  Workload w = MakeWorkload(testutil::RandomWalks(40, 64, 18));
  KnnQuerySpec valid;
  valid.query = ts::Denormalize(w.dataset->normal(5));
  valid.k = 3;
  valid.transforms = transform::MovingAverageRange(64, 1, 4);
  ASSERT_EQ(valid.transforms.size(), 4u);

  std::vector<KnnQuerySpec> malformed;
  for (const transform::Partition& partition :
       {transform::Partition{{0, 1}, {2, 7}},    // names transformation 7
        transform::Partition{{0}},               // leaves out 1..3
        transform::Partition{{0, 1}, {1, 2, 3}},  // repeats 1
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
  malformed.push_back(valid);
  malformed.back().query_transform = transform::MomentumTransform(32);

  for (Algorithm algorithm : {Algorithm::kSequentialScan, Algorithm::kStIndex,
                              Algorithm::kMtIndex}) {
    ASSERT_TRUE(
        RunKnnQuery(*w.dataset, *w.index, valid, Forced(algorithm)).ok());
    for (std::size_t i = 0; i < malformed.size(); ++i) {
      EXPECT_EQ(
          RunKnnQuery(*w.dataset, *w.index, malformed[i], Forced(algorithm))
              .status()
              .code(),
          StatusCode::kInvalidArgument)
          << AlgorithmName(algorithm) << " malformed spec " << i;
    }
  }
}

// The k-NN twin of the range case: a query transformation that zeroes
// coefficient 1 but keeps its mirror is rejected under the symmetry layout,
// and without symmetry every algorithm returns the oracle's neighbours.
TEST(KnnQueryTest, NonRealPreservingQueryTransformRejectedUnderSymmetry) {
  const std::size_t n = 32;
  std::vector<dft::Complex> multipliers(n, {1.0, 0.0});
  multipliers[1] = {0.0, 0.0};
  const auto series = testutil::RandomWalks(200, n, 33);
  for (const bool symmetry : {true, false}) {
    transform::FeatureLayout layout;
    layout.use_symmetry = symmetry;
    const Dataset dataset(series, layout);
    const SequenceIndex index(dataset);
    KnnQuerySpec spec;
    spec.query = ts::Denormalize(dataset.normal(9));
    spec.k = 5;
    spec.transforms = {transform::SpectralTransform::Identity(n)};
    spec.query_transform = transform::SpectralTransform("drop-f1", multipliers);
    const auto expected = testing::Oracle(dataset).Knn(spec);
    for (Algorithm algorithm : {Algorithm::kSequentialScan,
                                Algorithm::kStIndex, Algorithm::kMtIndex}) {
      const auto result =
          RunKnnQuery(dataset, index, spec, Forced(algorithm));
      if (symmetry) {
        EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
            << AlgorithmName(algorithm);
      } else {
        ASSERT_TRUE(result.ok()) << AlgorithmName(algorithm);
        ExpectSameNeighbors(result->matches, expected);
      }
    }
  }
}

// Regression: a NaN (or infinite) query value makes every distance NaN, and
// sorting NaN distances with a naive `a < b` comparator is undefined
// behaviour (no strict weak ordering). The spec must be rejected up front,
// on every algorithm, instead of feeding NaN keys to the sort.
TEST(KnnQueryTest, NonFiniteQueryRejected) {
  Workload w = MakeWorkload(testutil::RandomWalks(20, 64, 16));
  KnnQuerySpec spec;
  spec.k = 3;
  spec.transforms = transform::MovingAverageRange(64, 1, 4);
  for (const double poison : {std::numeric_limits<double>::quiet_NaN(),
                              std::numeric_limits<double>::infinity(),
                              -std::numeric_limits<double>::infinity()}) {
    spec.query = ts::Series(64, 1.0);
    spec.query[17] = poison;
    for (Algorithm algorithm :
         {Algorithm::kSequentialScan, Algorithm::kStIndex,
          Algorithm::kMtIndex}) {
      EXPECT_EQ(RunKnnQuery(*w.dataset, *w.index, spec, Forced(algorithm))
                    .status()
                    .code(),
                StatusCode::kInvalidArgument);
    }
  }
}

// Exact distance ties must break by series id, so results are deterministic
// whatever sort implementation or thread count produced them.
TEST(KnnQueryTest, TiesBreakByseriesId) {
  // Two identical copies of every series: each pair ties exactly.
  auto series = testutil::RandomWalks(10, 64, 17);
  auto twin = series;
  series.insert(series.end(), twin.begin(), twin.end());
  Workload w = MakeWorkload(std::move(series));
  KnnQuerySpec spec;
  spec.query = ts::Denormalize(w.dataset->normal(3));
  spec.k = 4;
  spec.transforms = transform::MovingAverageRange(64, 1, 3);
  auto result =
      RunKnnQuery(*w.dataset, *w.index, spec,
                  Forced(Algorithm::kSequentialScan));
  ASSERT_TRUE(result.ok());
  for (std::size_t i = 1; i < result->matches.size(); ++i) {
    const KnnMatch& prev = result->matches[i - 1];
    const KnnMatch& cur = result->matches[i];
    EXPECT_TRUE(prev.distance < cur.distance ||
                (prev.distance == cur.distance &&
                 prev.series_id < cur.series_id))
        << "rank " << i;
  }
}

}  // namespace
}  // namespace tsq::core

#include "core/engine.h"
#include "core/range_query.h"
#include "../core/test_util.h"
#include "testing/oracle.h"
#include "gtest/gtest.h"
#include "transform/builders.h"
#include "transform/partition.h"
#include "ts/distance.h"

namespace tsq::core {
namespace {

// Randomized cross-algorithm equivalence sweep over mixed transformation
// sets, layouts and partitionings — the paper's Lemma 1 plus our safe query
// region, exercised end to end through the engine facade.
class EndToEndSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(EndToEndSweepTest, EverythingAgreesWithBruteForce) {
  const int seed = GetParam();
  Rng rng(seed * 7919);
  const std::size_t n = (seed % 2 == 0) ? 128 : 64;
  const std::size_t count = 80 + 10 * (seed % 4);

  SimilarityEngine::Options options;
  options.layout.use_symmetry = seed % 2 == 0;
  options.layout.include_mean_std = seed % 3 != 0;
  options.layout.num_coefficients = 2 + seed % 2;
  SimilarityEngine engine(seed % 2 == 0 ? testutil::Stocks(count, n, seed)
                                        : testutil::RandomWalks(count, n, seed),
                          options);

  // Random mixed transformation set.
  RangeQuerySpec spec;
  spec.query = ts::Denormalize(engine.dataset().normal(seed % count));
  for (int i = 0; i < 3 + seed % 4; ++i) {
    switch (rng.UniformInt(0, 3)) {
      case 0:
        spec.transforms.push_back(transform::MovingAverageTransform(
            n, 1 + rng.UniformInt(0, static_cast<std::int64_t>(n) / 3)));
        break;
      case 1:
        spec.transforms.push_back(transform::ShiftTransform(
            n, rng.UniformInt(0, static_cast<std::int64_t>(n) - 1)));
        break;
      case 2:
        spec.transforms.push_back(transform::MomentumTransform(n));
        break;
      default:
        spec.transforms.push_back(
            transform::Inverted(transform::MovingAverageTransform(
                n, 1 + rng.UniformInt(0, 20))));
        break;
    }
  }
  spec.epsilon = rng.Uniform(0.5, 6.0);

  const std::vector<Match> expected =
      testing::Oracle(engine.dataset()).Range(spec);

  auto check = [&](Algorithm algorithm, const transform::Partition& partition) {
    RangeQuerySpec run_spec = spec;
    run_spec.partition = partition;
    auto result = engine.Execute(run_spec, {.planner = {.algorithm = algorithm}});
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    std::vector<Match> actual = result->range()->matches;
    std::vector<Match> want = expected;
    SortMatches(&actual);
    SortMatches(&want);
    ASSERT_EQ(actual.size(), want.size())
        << AlgorithmName(algorithm) << " seed " << seed;
    for (std::size_t i = 0; i < actual.size(); ++i) {
      EXPECT_EQ(actual[i].series_id, want[i].series_id);
      EXPECT_EQ(actual[i].transform_index, want[i].transform_index);
    }
  };

  check(Algorithm::kSequentialScan, {});
  check(Algorithm::kStIndex, {});
  check(Algorithm::kMtIndex, {});
  check(Algorithm::kMtIndex,
        transform::PartitionBySize(spec.transforms.size(), 2));
  check(Algorithm::kMtIndex,
        transform::PartitionByClusters(
            [&] {
              std::vector<transform::FeatureTransform> fts;
              for (const auto& t : spec.transforms) {
                fts.push_back(t.ToFeatureTransform(options.layout));
              }
              return fts;
            }(),
            3));
}

INSTANTIATE_TEST_SUITE_P(Seeds, EndToEndSweepTest,
                         ::testing::Range(1, 11));

TEST(EndToEndTest, TwoClusterWorkloadAllPartitionings) {
  // The Fig. 9 workload shape: MAs plus inverted MAs (two clusters), checked
  // for exactness under every per-MBR packing the figure sweeps.
  const std::size_t n = 128;
  SimilarityEngine engine(testutil::Stocks(120, n, 77));
  RangeQuerySpec spec;
  spec.query = ts::Denormalize(engine.dataset().normal(3));
  const auto mvs = transform::MovingAverageRange(n, 6, 17);
  spec.transforms = mvs;
  for (const auto& t : mvs) {
    spec.transforms.push_back(transform::Inverted(t));
  }
  spec.epsilon = ts::CorrelationToDistanceThreshold(0.96, n);

  const std::vector<Match> expected =
      testing::Oracle(engine.dataset()).Range(spec);
  for (std::size_t per_group : {1u, 4u, 8u, 12u, 24u}) {
    RangeQuerySpec run_spec = spec;
    run_spec.partition =
        transform::PartitionBySize(spec.transforms.size(), per_group);
    auto result =
        engine.Execute(run_spec, {.planner = {.algorithm = Algorithm::kMtIndex}});
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->range()->matches.size(), expected.size())
        << "per_group=" << per_group;
  }
}

TEST(EndToEndTest, FilteringActuallyPrunes) {
  // Sanity on the whole pipeline's efficiency claims: MT-index reads far
  // fewer pages than a sequential scan on a selective query over a larger
  // dataset.
  SimilarityEngine engine(testutil::Stocks(600, 128, 88));
  RangeQuerySpec spec;
  spec.query = ts::Denormalize(engine.dataset().normal(0));
  spec.transforms = transform::MovingAverageRange(128, 10, 25);
  spec.epsilon = ts::CorrelationToDistanceThreshold(0.96, 128);

  auto seq = engine.Execute(spec, {.planner = {.algorithm = Algorithm::kSequentialScan}});
  auto st = engine.Execute(spec, {.planner = {.algorithm = Algorithm::kStIndex}});
  auto mt = engine.Execute(spec, {.planner = {.algorithm = Algorithm::kMtIndex}});
  ASSERT_TRUE(seq.ok());
  ASSERT_TRUE(st.ok());
  ASSERT_TRUE(mt.ok());
  EXPECT_EQ(seq->range()->matches.size(), mt->range()->matches.size());
  EXPECT_EQ(st->range()->matches.size(), mt->range()->matches.size());

  // MT: single traversal, fewer total disk accesses than both competitors.
  EXPECT_LT(mt->stats().disk_accesses(), seq->stats().disk_accesses());
  EXPECT_LT(mt->stats().disk_accesses(), st->stats().disk_accesses());
  EXPECT_LT(mt->stats().comparisons, seq->stats().comparisons);
}

TEST(EndToEndTest, CompositionQueryRewriting) {
  // Section 3.3: a query over "s-day shift followed by w-day MA" rewrites to
  // a flat transformation set and must return the same answers as applying
  // the two steps explicitly.
  const std::size_t n = 64;
  SimilarityEngine engine(testutil::Stocks(60, n, 99));
  const auto shifts = transform::ShiftRange(n, 0, 3);
  const auto mvs = transform::MovingAverageRange(n, 2, 4);

  RangeQuerySpec composed;
  composed.query = ts::Denormalize(engine.dataset().normal(7));
  composed.transforms = transform::ComposeSpectralSets(shifts, mvs);
  composed.epsilon = 1.5;
  auto result = engine.Execute(composed, {.planner = {.algorithm = Algorithm::kMtIndex}});
  ASSERT_TRUE(result.ok());

  // Ground truth: apply shift then MA by hand over in-memory data.
  std::vector<Match> expected;
  const ts::NormalForm qn = ts::Normalize(composed.query);
  std::size_t index = 0;
  for (const auto& shift : shifts) {
    for (const auto& mv : mvs) {
      for (std::size_t i = 0; i < engine.size(); ++i) {
        const ts::Series a =
            mv.ApplyToSeries(shift.ApplyToSeries(engine.dataset().normal(i).values));
        const ts::Series b = mv.ApplyToSeries(shift.ApplyToSeries(qn.values));
        const double d = ts::EuclideanDistance(a, b);
        if (d < composed.epsilon) {
          expected.push_back(Match{i, index, d});
        }
      }
      ++index;
    }
  }
  std::vector<Match> actual = result->range()->matches;
  SortMatches(&actual);
  SortMatches(&expected);
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i].series_id, expected[i].series_id);
    EXPECT_EQ(actual[i].transform_index, expected[i].transform_index);
    EXPECT_NEAR(actual[i].distance, expected[i].distance, 1e-6);
  }
}

}  // namespace
}  // namespace tsq::core

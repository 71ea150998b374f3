#include "core/dataset.h"

#include <cmath>
#include <limits>
#include <vector>

#include "test_util.h"
#include "gtest/gtest.h"
#include "ts/distance.h"

namespace tsq::core {
namespace {

TEST(DatasetTest, BuildsAllDerivedArtifacts) {
  const auto series = testutil::RandomWalks(20, 128, 1);
  Dataset dataset(series, transform::FeatureLayout{});
  EXPECT_EQ(dataset.size(), 20u);
  EXPECT_EQ(dataset.length(), 128u);
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    EXPECT_EQ(dataset.normal(i).values.size(), 128u);
    EXPECT_EQ(dataset.FetchSpectrum(i)->size(), 128u);
    EXPECT_EQ(dataset.features(i).size(), 6u);
    // Normal forms are zero mean / unit stddev.
    const ts::SeriesStats stats = ts::ComputeStats(dataset.normal(i).values);
    EXPECT_NEAR(stats.mean, 0.0, 1e-9);
    EXPECT_NEAR(stats.stddev, 1.0, 1e-9);
  }
}

TEST(DatasetTest, FeaturesMatchSpectra) {
  const auto series = testutil::RandomWalks(5, 64, 2);
  transform::FeatureLayout layout;
  Dataset dataset(series, layout);
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    const auto spectrum = dataset.plan().Forward(dataset.normal(i).values);
    const auto& features = dataset.features(i);
    EXPECT_NEAR(features[layout.magnitude_dimension(0)],
                std::abs(spectrum[1]), 1e-12);
    EXPECT_NEAR(features[layout.angle_dimension(1)], std::arg(spectrum[2]),
                1e-12);
    // The cartesian copy is the stored record's own coefficients.
    EXPECT_TRUE(testutil::CoefficientsMatchRecord(dataset, i)) << i;
  }
}

TEST(DatasetTest, FetchSpectrumMatchesInMemorySpectrum) {
  const auto series = testutil::RandomWalks(10, 128, 3);
  Dataset dataset(series, transform::FeatureLayout{});
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    const auto fetched = dataset.FetchSpectrum(i);
    ASSERT_TRUE(fetched.ok());
    const auto spectrum = dataset.plan().Forward(dataset.normal(i).values);
    ASSERT_EQ(fetched->size(), spectrum.size());
    for (std::size_t f = 0; f < fetched->size(); ++f) {
      EXPECT_LT(std::abs((*fetched)[f] - spectrum[f]), 1e-9);
    }
  }
}

TEST(DatasetTest, FetchSpectrumIntoFillsScratchBitExactly) {
  const auto series = testutil::RandomWalks(10, 128, 3);
  Dataset dataset(series, transform::FeatureLayout{});
  std::vector<dft::Complex> scratch(dataset.length());
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    std::uint64_t pages = 0;
    ASSERT_TRUE(dataset.FetchSpectrumInto(i, scratch, &pages).ok());
    // The stored bytes, unchanged: the record is the normal form's DFT.
    EXPECT_EQ(scratch, dataset.plan().Forward(dataset.normal(i).values));
    EXPECT_GE(pages, 1u);
  }
  std::vector<dft::Complex> wrong(dataset.length() - 1);
  EXPECT_EQ(dataset.FetchSpectrumInto(0, wrong).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(dataset.FetchSpectrumInto(dataset.size(), scratch).code(),
            StatusCode::kOutOfRange);
}

TEST(DatasetTest, FetchCountsPageReads) {
  const auto series = testutil::RandomWalks(10, 128, 4);
  Dataset dataset(series, transform::FeatureLayout{});
  EXPECT_EQ(dataset.record_io().reads, 0u);  // load I/O was reset
  ASSERT_TRUE(dataset.FetchSpectrum(0).ok());
  EXPECT_GE(dataset.record_io().reads, 1u);
  dataset.ResetRecordIo();
  EXPECT_EQ(dataset.record_io().reads, 0u);
}

TEST(DatasetTest, RecordPagesScaleWithData) {
  // A record is the complex spectrum: 256 doubles = 2 KiB, so ~2 records per
  // 4 KiB page (packed).
  const auto series = testutil::RandomWalks(100, 128, 5);
  Dataset dataset(series, transform::FeatureLayout{});
  EXPECT_GE(dataset.record_pages(), 50u);
  EXPECT_LE(dataset.record_pages(), 70u);
}

TEST(DatasetTest, ConstantSeriesHandled) {
  std::vector<ts::Series> series = {ts::Series(32, 5.0),
                                    testutil::RandomWalks(1, 32, 6)[0]};
  Dataset dataset(series, transform::FeatureLayout{});
  // Constant series: normal form all zeros, features finite.
  for (double v : dataset.features(0)) {
    EXPECT_TRUE(std::isfinite(v));
  }
  EXPECT_EQ(dataset.normal(0).stddev, 0.0);
}

TEST(DatasetTest, ValidateNormalFormRejectsOverflowingStatistics) {
  // Every value is finite, but the spread overflows.
  ts::Series huge(128);
  for (std::size_t i = 0; i < huge.size(); ++i) {
    huge[i] = i % 2 == 0 ? 1e308 : -1e308;
  }
  EXPECT_EQ(ValidateNormalForm(ts::Normalize(huge)).code(),
            StatusCode::kInvalidArgument);
  ts::Series nan = testutil::RandomWalks(1, 128, 7)[0];
  nan[40] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(ValidateNormalForm(ts::Normalize(nan)).code(),
            StatusCode::kInvalidArgument);
  const std::vector<ts::Series> walks = testutil::RandomWalks(3, 128, 7);
  EXPECT_TRUE(ValidateNormalForm(ts::Normalize(walks[0])).ok());

  // Huge and tiny values whose statistics stay finite pass, and index to
  // finite features.
  std::vector<ts::Series> extreme = walks;
  for (double& v : extreme[1]) v *= 1e140;
  for (double& v : extreme[2]) v *= 1e-300;
  for (const ts::Series& series : extreme) {
    EXPECT_TRUE(ValidateNormalForm(ts::Normalize(series)).ok());
  }
  Dataset dataset(extreme, transform::FeatureLayout{});
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    for (const double v : dataset.features(i)) EXPECT_TRUE(std::isfinite(v));
  }
}

TEST(DatasetDeathTest, MismatchedLengthsRejected) {
  std::vector<ts::Series> series = {ts::Series(32, 1.0), ts::Series(64, 1.0)};
  EXPECT_DEATH(Dataset(series, transform::FeatureLayout{}), "equal length");
}

TEST(DatasetDeathTest, SymmetryLayoutMustNotDoubleACoefficient) {
  // Length 4 under the default layout keeps f = 2 = n/2, its own mirror.
  const auto short_walks = testutil::RandomWalks(3, 4, 5);
  EXPECT_DEATH(Dataset(short_walks, transform::FeatureLayout{}), "2f < length");
  // The DC term has no distinct mirror either.
  transform::FeatureLayout dc;
  dc.first_coefficient = 0;
  EXPECT_DEATH(Dataset(testutil::RandomWalks(3, 16, 5), dc), "1 <= f");
  // Without symmetry nothing is doubled, and length 5 keeps f = 1, 2 < 5/2.
  transform::FeatureLayout plain;
  plain.use_symmetry = false;
  EXPECT_EQ(Dataset(short_walks, plain).size(), 3u);
  EXPECT_EQ(Dataset(testutil::RandomWalks(3, 5, 5), transform::FeatureLayout{})
                .size(),
            3u);
}

}  // namespace
}  // namespace tsq::core

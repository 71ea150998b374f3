#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "core/engine.h"
#include "core/index.h"
#include "core/range_query.h"
#include "gtest/gtest.h"
#include "test_util.h"
#include "transform/builders.h"
#include "ts/distance.h"

namespace tsq::core {
namespace {

class PersistenceTest : public ::testing::Test {
 protected:
  void TearDown() override {
    // Checkpoints are a manifest plus epoch-named file trios; sweep
    // everything under the prefix.
    const std::filesystem::path prefix(prefix_);
    std::error_code ec;
    for (const auto& entry :
         std::filesystem::directory_iterator(prefix.parent_path(), ec)) {
      if (entry.path().filename().string().rfind(
              prefix.filename().string(), 0) == 0) {
        std::filesystem::remove(entry.path(), ec);
      }
    }
  }
  // Per-test prefix: ctest discovers each test as its own process and runs
  // them in parallel, so a shared prefix would race.
  std::string prefix_ =
      ::testing::TempDir() + "/tsq_persist_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name();
};

TEST_F(PersistenceTest, SaveLoadRoundTripPreservesAnswers) {
  SimilarityEngine original(testutil::Stocks(120, 128, 60));
  RangeQuerySpec spec;
  spec.query = ts::Denormalize(original.dataset().normal(7));
  spec.transforms = transform::MovingAverageRange(128, 5, 20);
  spec.epsilon = ts::CorrelationToDistanceThreshold(0.96, 128);
  const auto before =
      original.Execute(spec, {.planner = {.algorithm = Algorithm::kMtIndex}});
  ASSERT_TRUE(before.ok());

  ASSERT_TRUE(original.SaveTo(prefix_).ok());
  const auto loaded = SimilarityEngine::LoadFrom(prefix_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->size(), original.size());
  EXPECT_EQ((*loaded)->length(), original.length());
  EXPECT_TRUE((*loaded)->index().tree().CheckInvariants().ok());
  // The loaded cartesian coefficients are the loaded records' own, and the
  // original's, bit for bit.
  for (std::size_t i = 0; i < original.dataset().size(); ++i) {
    EXPECT_TRUE(testutil::CoefficientsMatchRecord((*loaded)->dataset(), i))
        << i;
    EXPECT_EQ(std::memcmp((*loaded)->dataset().coefficients(i).data(),
                          original.dataset().coefficients(i).data(),
                          original.dataset().coefficients(i).size_bytes()),
              0)
        << i;
  }

  // Identical answers and identical index traversal counters.
  for (Algorithm algorithm : {Algorithm::kSequentialScan, Algorithm::kStIndex,
                              Algorithm::kMtIndex}) {
    const auto a = original.Execute(spec, {.planner = {.algorithm = algorithm}});
    const auto b = (*loaded)->Execute(spec, {.planner = {.algorithm = algorithm}});
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    std::vector<Match> ma = a->range()->matches, mb = b->range()->matches;
    SortMatches(&ma);
    SortMatches(&mb);
    ASSERT_EQ(ma.size(), mb.size()) << AlgorithmName(algorithm);
    for (std::size_t i = 0; i < ma.size(); ++i) {
      EXPECT_EQ(ma[i].series_id, mb[i].series_id);
      EXPECT_NEAR(ma[i].distance, mb[i].distance, 1e-9);
    }
    EXPECT_EQ(a->stats().index_nodes_accessed,
              b->stats().index_nodes_accessed);
  }
}

TEST_F(PersistenceTest, LoadedEngineSupportsUpdatesAndQueries) {
  SimilarityEngine original(testutil::RandomWalks(40, 64, 61));
  ASSERT_TRUE(original.Remove(3).ok());  // persist a tombstone too
  ASSERT_TRUE(original.SaveTo(prefix_).ok());

  auto loaded = SimilarityEngine::LoadFrom(prefix_);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ((*loaded)->size(), 39u);
  EXPECT_TRUE((*loaded)->dataset().removed(3));

  // Insert into the reopened engine and find the new sequence.
  ts::Series fresh = ts::Denormalize((*loaded)->dataset().normal(0));
  const auto id = (*loaded)->Insert(fresh);
  ASSERT_TRUE(id.ok());
  RangeQuerySpec spec;
  spec.query = fresh;
  spec.transforms = {transform::SpectralTransform::Identity(64)};
  spec.epsilon = 0.1;
  const auto result =
      (*loaded)->Execute(spec, {.planner = {.algorithm = Algorithm::kMtIndex}});
  ASSERT_TRUE(result.ok());
  bool found = false;
  for (const Match& m : result->range()->matches) {
    if (m.series_id == *id) found = true;
    EXPECT_NE(m.series_id, 3u);  // tombstone stays dead
  }
  EXPECT_TRUE(found);
  EXPECT_TRUE((*loaded)->index().tree().CheckInvariants().ok());

  // Save the mutated engine and reload once more.
  ASSERT_TRUE((*loaded)->SaveTo(prefix_).ok());
  const auto again = SimilarityEngine::LoadFrom(prefix_);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ((*again)->size(), 40u);
}

TEST_F(PersistenceTest, CustomLayoutSurvivesRoundTrip) {
  SimilarityEngine::Options options;
  options.layout.num_coefficients = 3;
  options.layout.include_mean_std = false;
  options.layout.use_symmetry = false;
  SimilarityEngine original(testutil::Stocks(50, 64, 62), options);
  ASSERT_TRUE(original.SaveTo(prefix_).ok());
  const auto loaded = SimilarityEngine::LoadFrom(prefix_);
  ASSERT_TRUE(loaded.ok());
  const auto& layout = (*loaded)->dataset().layout();
  EXPECT_EQ(layout.num_coefficients, 3u);
  EXPECT_FALSE(layout.include_mean_std);
  EXPECT_FALSE(layout.use_symmetry);
  EXPECT_EQ((*loaded)->index().tree().dimensions(), 6u);
}

TEST_F(PersistenceTest, MissingAndCorruptFilesRejected) {
  EXPECT_EQ(SimilarityEngine::LoadFrom("/nonexistent/prefix").status().code(),
            StatusCode::kIoError);

  SimilarityEngine original(testutil::RandomWalks(10, 64, 63));
  ASSERT_TRUE(original.SaveTo(prefix_).ok());
  const std::string meta_path =
      prefix_ + "." + std::to_string(original.checkpoint_epoch()) + ".meta";
  // Truncate the committed meta file behind the manifest's back: the digest
  // check must reject the checkpoint before anything parses it.
  {
    std::ofstream out(meta_path, std::ios::trunc);
    out << "tsqmeta 2\nlength 64\n";
  }
  EXPECT_EQ(SimilarityEngine::LoadFrom(prefix_).status().code(),
            StatusCode::kCorruption);

  // A truncated manifest is Corruption too.
  ASSERT_TRUE(original.SaveTo(prefix_).ok());
  {
    std::ofstream out(prefix_ + ".manifest", std::ios::trunc);
    out << "tsqckpt 1\n";
  }
  EXPECT_EQ(SimilarityEngine::LoadFrom(prefix_).status().code(),
            StatusCode::kCorruption);
}

TEST_F(PersistenceTest, SaveReplacesCheckpointAtomicallyAndSweepsOldEpochs) {
  SimilarityEngine original(testutil::RandomWalks(12, 64, 64));
  ASSERT_TRUE(original.SaveTo(prefix_).ok());
  const std::uint64_t first = original.checkpoint_epoch();
  EXPECT_GT(first, 0u);
  ASSERT_TRUE(original.Remove(1).ok());
  ASSERT_TRUE(original.SaveTo(prefix_).ok());
  const std::uint64_t second = original.checkpoint_epoch();
  EXPECT_GT(second, first);

  // The superseded epoch's files are garbage-collected after the commit.
  for (const char* suffix : {".records", ".index", ".meta"}) {
    EXPECT_FALSE(std::filesystem::exists(
        prefix_ + "." + std::to_string(first) + suffix))
        << suffix;
    EXPECT_TRUE(std::filesystem::exists(
        prefix_ + "." + std::to_string(second) + suffix))
        << suffix;
  }

  const auto loaded = SimilarityEngine::LoadFrom(prefix_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->checkpoint_epoch(), second);
  EXPECT_TRUE((*loaded)->dataset().removed(1));
}

// Every leaf entry holds exactly the point Dataset::features derives for its
// id: the index is built, grown and shrunk by derived points, and a loaded
// dataset derives them again from its records and meta statistics.
void ExpectLeafPointsAreDerivedFeatures(const SimilarityEngine& engine,
                                        const std::string& context) {
  const Dataset& dataset = engine.dataset();
  std::size_t entries = 0;
  const Status walked = engine.index().tree().VisitNodes(
      [&](const rstar::RStarTree::NodeView& node) {
        if (!node.is_leaf) return;
        for (std::size_t i = 0; i < node.size(); ++i) {
          ++entries;
          ASSERT_LT(node.ids[i], dataset.size()) << context;
          const rstar::Point features = dataset.features(node.ids[i]);
          ASSERT_EQ(features.size(), node.dimensions) << context;
          const rstar::RectView rect = node.rect(i);
          for (std::size_t d = 0; d < features.size(); ++d) {
            const double low = rect.low(d);
            const double high = rect.high(d);
            EXPECT_EQ(std::memcmp(&low, &features[d], sizeof(double)), 0)
                << context << ": id " << node.ids[i] << " dim " << d;
            EXPECT_EQ(std::memcmp(&high, &features[d], sizeof(double)), 0)
                << context << ": id " << node.ids[i] << " dim " << d;
          }
        }
      });
  ASSERT_TRUE(walked.ok()) << walked.ToString();
  EXPECT_EQ(entries, dataset.active_size()) << context;
}

TEST_F(PersistenceTest, LeafPointsAreTheDerivedFeatures) {
  SimilarityEngine engine(testutil::RandomWalks(600, 64, 61));
  ExpectLeafPointsAreDerivedFeatures(engine, "fresh");
  for (const ts::Series& series : testutil::RandomWalks(80, 64, 62)) {
    ASSERT_TRUE(engine.Insert(series).ok());
  }
  for (std::size_t id = 0; id < engine.dataset().size(); id += 7) {
    ASSERT_TRUE(engine.Remove(id).ok());
  }
  ExpectLeafPointsAreDerivedFeatures(engine, "after writes");
  ASSERT_TRUE(engine.SaveTo(prefix_).ok());
  const auto loaded = SimilarityEngine::LoadFrom(prefix_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectLeafPointsAreDerivedFeatures(**loaded, "loaded");
}

// SequenceIndex::RemoveEntry deletes by the derived point, so it must find
// every live id's entry: on a built index, after InsertEntry, and on the
// same pages reopened with LoadFrom. The engine's Remove rebuilds the whole
// index when an entry is missed, so only a direct call can see a miss.
TEST_F(PersistenceTest, IndexRemovesEveryLiveIdByItsDerivedPoint) {
  Dataset dataset(testutil::RandomWalks(300, 64, 63),
                  transform::FeatureLayout());
  SequenceIndex built(dataset);
  for (const ts::Series& series : testutil::RandomWalks(40, 64, 64)) {
    const Result<std::size_t> id = dataset.Append(series);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ASSERT_TRUE(built.InsertEntry(*id).ok()) << *id;
  }
  const std::string path = prefix_ + ".index";
  ASSERT_TRUE(built.SaveTo(path).ok());
  auto reopened =
      SequenceIndex::LoadFrom(dataset, rstar::TreeOptions(), path,
                              built.tree().root_page(), built.tree().height(),
                              built.tree().size());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  for (SequenceIndex* index : {&built, reopened->get()}) {
    for (std::size_t id = 0; id < dataset.size(); ++id) {
      const Status removed = index->RemoveEntry(id);
      ASSERT_TRUE(removed.ok()) << id << ": " << removed.ToString();
    }
    EXPECT_EQ(index->tree().size(), 0u);
  }
}

}  // namespace
}  // namespace tsq::core

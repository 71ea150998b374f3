// Load-path robustness: every way a checkpoint can be damaged at rest —
// truncation at any 4 KiB boundary, a flipped bit in any region (page-file
// header, checksum table, page body, meta, manifest), a tampered meta field
// behind a fixed-up manifest — must surface as a clean Corruption/IoError
// from SimilarityEngine::LoadFrom. Never a crash, never a bad_alloc, never
// a silently wrong engine.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/cost_model.h"
#include "core/engine.h"
#include "gtest/gtest.h"
#include "storage/atomic_file.h"
#include "test_util.h"
#include "testing/differential.h"
#include "testing/fault_policy.h"
#include "transform/spectral_transform.h"
#include "ts/normal_form.h"

namespace tsq::core {
namespace {

std::string ReadAllBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteAllBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

class CheckpointRobustnessTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Per-test prefix: gtest_discover_tests runs every test of this suite as
    // its own ctest process, in parallel — a shared prefix would let one
    // test's SaveTo/GC race another's damaged-file edits.
    prefix_ = ::testing::TempDir() + "/tsq_ckpt_robust_" +
              ::testing::UnitTest::GetInstance()->current_test_info()->name();
    engine_ = std::make_unique<SimilarityEngine>(
        testutil::RandomWalks(20, 64, 70));
    ASSERT_TRUE(engine_->Remove(2).ok());  // persist a tombstone too
    ASSERT_TRUE(engine_->SaveTo(prefix_).ok());
    epoch_ = engine_->checkpoint_epoch();
    ASSERT_GT(epoch_, 0u);
    for (const std::string& path : AllFiles()) {
      pristine_.emplace_back(path, ReadAllBytes(path));
    }
  }

  void TearDown() override {
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

  std::string EpochFile(const char* suffix) const {
    return prefix_ + "." + std::to_string(epoch_) + suffix;
  }
  std::string ManifestFile() const { return prefix_ + ".manifest"; }
  std::vector<std::string> AllFiles() const {
    return {ManifestFile(), EpochFile(".records"), EpochFile(".index"),
            EpochFile(".meta")};
  }
  // Sorted names of every file in the prefix's directory that belongs to
  // the prefix: the manifest, each epoch's trio and any `.tmp` orphan.
  std::vector<std::string> PrefixFiles() const {
    const std::filesystem::path prefix(prefix_);
    const std::string base = prefix.filename().string() + ".";
    std::vector<std::string> names;
    for (const auto& entry :
         std::filesystem::directory_iterator(prefix.parent_path())) {
      const std::string name = entry.path().filename().string();
      if (name.rfind(base, 0) == 0) names.push_back(name);
    }
    std::sort(names.begin(), names.end());
    return names;
  }

  void RestorePristine() {
    for (const auto& [path, bytes] : pristine_) WriteAllBytes(path, bytes);
  }

  // Expects LoadFrom to fail with Corruption or IoError under `context`.
  void ExpectRejected(const std::string& context) {
    const auto loaded = SimilarityEngine::LoadFrom(prefix_);
    ASSERT_FALSE(loaded.ok()) << context << ": damaged checkpoint loaded";
    const StatusCode code = loaded.status().code();
    EXPECT_TRUE(code == StatusCode::kCorruption ||
                code == StatusCode::kIoError)
        << context << ": " << loaded.status().ToString();
  }

  // Applies `edit` to the committed meta file's lines, then patches the
  // manifest so the tampered meta passes the digest check — the test then
  // exercises the field validation behind it, not the checksum in front.
  void TamperMeta(const std::function<void(std::vector<std::string>&)>& edit) {
    std::vector<std::string> lines;
    {
      std::istringstream in(ReadAllBytes(EpochFile(".meta")));
      std::string line;
      while (std::getline(in, line)) lines.push_back(line);
    }
    edit(lines);
    std::string text;
    for (const std::string& line : lines) text += line + "\n";
    WriteAllBytes(EpochFile(".meta"), text);

    const auto digest = storage::DigestFile(EpochFile(".meta"));
    ASSERT_TRUE(digest.ok());
    std::string manifest;
    std::istringstream in(ReadAllBytes(ManifestFile()));
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("meta ", 0) == 0) {
        std::ostringstream out;
        out << "meta " << digest->size << " " << digest->fnv1a;
        line = out.str();
      }
      manifest += line + "\n";
    }
    WriteAllBytes(ManifestFile(), manifest);
  }

  // Rewrites the space-separated fields of meta line `index`.
  static void EditFields(std::vector<std::string>& lines, std::size_t index,
                         const std::function<void(std::vector<std::string>&)>&
                             edit) {
    ASSERT_LT(index, lines.size());
    std::vector<std::string> fields;
    std::istringstream in(lines[index]);
    std::string field;
    while (in >> field) fields.push_back(field);
    edit(fields);
    std::string joined;
    for (std::size_t i = 0; i < fields.size(); ++i) {
      joined += (i == 0 ? "" : " ") + fields[i];
    }
    lines[index] = joined;
  }

  // Overwrites fields of meta line `index` (field 0 is its tag, `tag`), then
  // expects LoadFrom to reject the checkpoint as Corruption.
  void ExpectMetaEditIsCorruption(
      std::size_t index, const std::string& tag,
      const std::vector<std::pair<std::size_t, std::string>>& edits) {
    TamperMeta([&](std::vector<std::string>& lines) {
      EditFields(lines, index, [&](std::vector<std::string>& f) {
        ASSERT_EQ(f[0], tag);
        for (const auto& [field, value] : edits) f.at(field) = value;
      });
    });
    const auto loaded = SimilarityEngine::LoadFrom(prefix_);
    ASSERT_FALSE(loaded.ok()) << tag << ": damaged checkpoint loaded";
    EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption)
        << tag << ": " << loaded.status().ToString();
  }

  // Inserts a twin of live sequence 3 and checkpoints it, then drops the
  // twin's meta row while its leaf entry stays: `*loaded` holds one leaf id
  // past its dataset, beside the twin's live original. Sets `*twin` too.
  void LoadWithTwinLeafPastTheDataset(
      ts::Series* twin, std::unique_ptr<SimilarityEngine>* loaded) {
    *twin = ts::Denormalize(engine_->dataset().normal(3));
    ASSERT_TRUE(engine_->Insert(*twin).ok());
    ASSERT_TRUE(engine_->SaveTo(prefix_).ok());
    epoch_ = engine_->checkpoint_epoch();
    const std::size_t dropped = engine_->dataset().size() - 1;
    TamperMeta([](std::vector<std::string>& lines) {
      lines.pop_back();  // the twin's row
      EditFields(lines, 3, [](std::vector<std::string>& f) {
        ASSERT_EQ(f[0], "tree");
        f[3] = std::to_string(std::stoull(f[3]) - 1);
      });
      EditFields(lines, 5, [](std::vector<std::string>& f) {
        ASSERT_EQ(f[0], "sequences");
        f[1] = std::to_string(std::stoull(f[1]) - 1);
      });
    });
    auto result = SimilarityEngine::LoadFrom(prefix_);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ((*result)->dataset().size(), dropped);
    *loaded = std::move(*result);
  }

  // Range, k-NN and join specs under two identities, the first two querying
  // `twin`.
  static std::vector<QuerySpec> TwinSpecs(const ts::Series& twin) {
    const std::vector<transform::SpectralTransform> transforms = {
        transform::SpectralTransform::Identity(64),
        transform::SpectralTransform::Identity(64)};
    RangeQuerySpec range;
    range.query = twin;
    range.transforms = transforms;
    range.epsilon = 1e-6;
    KnnQuerySpec knn;
    knn.query = twin;
    knn.transforms = transforms;
    knn.k = 2;  // the live twin alone cannot end the search
    JoinQuerySpec join;
    join.mode = JoinMode::kDistance;
    join.epsilon = 1e-6;
    join.transforms = transforms;
    return {range, knn, join};
  }

  std::string prefix_;  // set in SetUp() — unique per test
  std::uint64_t epoch_ = 0;
  std::unique_ptr<SimilarityEngine> engine_;
  std::vector<std::pair<std::string, std::string>> pristine_;
};

TEST_F(CheckpointRobustnessTest, PristineCheckpointLoads) {
  const auto loaded = SimilarityEngine::LoadFrom(prefix_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->size(), engine_->size());
}

TEST_F(CheckpointRobustnessTest, TruncationAtEveryPageBoundaryRejected) {
  for (const std::string& path : AllFiles()) {
    const std::uint64_t size = std::filesystem::file_size(path);
    std::vector<std::uint64_t> cuts;
    for (std::uint64_t at = 0; at < size; at += 4096) cuts.push_back(at);
    cuts.push_back(size - 1);  // off-by-one torn tail
    for (const std::uint64_t at : cuts) {
      RestorePristine();
      std::filesystem::resize_file(path, at);
      ExpectRejected(path + " truncated to " + std::to_string(at));
    }
  }
  RestorePristine();
  EXPECT_TRUE(SimilarityEngine::LoadFrom(prefix_).ok());
}

TEST_F(CheckpointRobustnessTest, BitFlipInEveryRegionRejected) {
  // Offsets hit the page-file header, the checksum table, a page body, the
  // meta text and the manifest text; the tail byte of each file rides along.
  for (const std::string& path : AllFiles()) {
    const std::string bytes = ReadAllBytes(path);
    std::vector<std::size_t> offsets = {0, bytes.size() / 2,
                                        bytes.size() - 1};
    if (bytes.size() > 4300) {
      offsets.push_back(8);     // page-file count field
      offsets.push_back(20);    // checksum table
      offsets.push_back(4200);  // inside the first page body
    }
    for (const std::size_t at : offsets) {
      RestorePristine();
      std::string flipped = bytes;
      flipped[at] = static_cast<char>(flipped[at] ^ 0xFF);
      WriteAllBytes(path, flipped);
      ExpectRejected(path + " bit-flipped at " + std::to_string(at));
    }
  }
  RestorePristine();
  EXPECT_TRUE(SimilarityEngine::LoadFrom(prefix_).ok());
}

TEST_F(CheckpointRobustnessTest, MissingTrioFileRejected) {
  for (const char* suffix : {".records", ".index", ".meta"}) {
    RestorePristine();
    std::filesystem::remove(EpochFile(suffix));
    ExpectRejected(std::string("missing ") + suffix);
  }
}

// The regression the bugfix is named for: a meta file whose tree capacity
// reads 0 used to reach min_fill / capacity and divide by zero.
TEST_F(CheckpointRobustnessTest, ZeroTreeCapacityIsCorruptionNotCrash) {
  TamperMeta([](std::vector<std::string>& lines) {
    EditFields(lines, 3, [](std::vector<std::string>& f) {
      ASSERT_EQ(f[0], "tree");
      f[4] = "0";  // capacity
      f[5] = "0";  // min_fill (<= capacity, so only the capacity check fires)
    });
  });
  const auto loaded = SimilarityEngine::LoadFrom(prefix_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

TEST_F(CheckpointRobustnessTest, MinFillAboveCapacityRejected) {
  TamperMeta([](std::vector<std::string>& lines) {
    EditFields(lines, 3, [](std::vector<std::string>& f) {
      ASSERT_EQ(f[0], "tree");
      f[5] = std::to_string(std::stoull(f[4]) + 1);
    });
  });
  ExpectRejected("min_fill > capacity");
}

TEST_F(CheckpointRobustnessTest, TreeSizeDisagreeingWithLiveRowsRejected) {
  TamperMeta([](std::vector<std::string>& lines) {
    EditFields(lines, 3, [](std::vector<std::string>& f) {
      ASSERT_EQ(f[0], "tree");
      f[3] = std::to_string(std::stoull(f[3]) + 1);
    });
  });
  ExpectRejected("tree size != live rows");
}

// Meta values that are each checked before anything is sized or indexed
// from them. The fixture saves 20 walks of length 64 under the default
// layout: "layout 1 2 1 1" (mean/stddev plus coefficients 1..2, 6
// dimensions, 39 entries per node page).
TEST_F(CheckpointRobustnessTest, HugeSequenceCountIsCorruption) {
  ExpectMetaEditIsCorruption(5, "sequences", {{1, "1000000000000000000"}});
}

TEST_F(CheckpointRobustnessTest, LengthPastTheRecordsFileIsCorruption) {
  ExpectMetaEditIsCorruption(1, "length", {{1, "100000000000000"}});
}

TEST_F(CheckpointRobustnessTest, CoefficientPastTheLengthIsCorruption) {
  ExpectMetaEditIsCorruption(2, "layout", {{3, "70"}});  // first coefficient
}

TEST_F(CheckpointRobustnessTest, LayoutTooWideForANodePageIsCorruption) {
  // 82 dimensions: 3 entries fit a page, fewer than the tree's capacity.
  ExpectMetaEditIsCorruption(2, "layout", {{2, "40"}});
}

TEST_F(CheckpointRobustnessTest, LayoutWithNoDimensionsIsCorruption) {
  ExpectMetaEditIsCorruption(2, "layout", {{1, "0"}, {2, "0"}});
}

TEST_F(CheckpointRobustnessTest, NegativeCoefficientCountIsCorruption) {
  // Parses as SIZE_MAX, whose dimension count would wrap.
  ExpectMetaEditIsCorruption(2, "layout", {{2, "-1"}});
}

TEST_F(CheckpointRobustnessTest, SymmetryLayoutKeepingAMirrorIsCorruption) {
  // Coefficients 32..33 of a length-64 series: 32 = n/2 is its own mirror
  // and 33 is 31's, so the symmetry weight would count them twice.
  ExpectMetaEditIsCorruption(2, "layout", {{3, "32"}});
}

TEST_F(CheckpointRobustnessTest, SymmetryLayoutKeepingTheDcTermIsCorruption) {
  ExpectMetaEditIsCorruption(2, "layout", {{3, "0"}});  // first coefficient
}

TEST_F(CheckpointRobustnessTest, TreeCapacityBelowFourIsCorruption) {
  ExpectMetaEditIsCorruption(3, "tree", {{4, "3"}, {5, "1"}});
}

TEST_F(CheckpointRobustnessTest, TreeCapacityPastAPageIsCorruption) {
  ExpectMetaEditIsCorruption(3, "tree", {{4, "100000"}});
}

TEST_F(CheckpointRobustnessTest, OutOfRangeRecordLocationRejected) {
  TamperMeta([](std::vector<std::string>& lines) {
    // Line 6 is the first sequence row: "page offset removed mean stddev".
    EditFields(lines, 6, [](std::vector<std::string>& f) {
      f[0] = "999999";
    });
  });
  ExpectRejected("record page out of range");
}

// The 4-byte length header does not fit at offsets 4093..4095, so such a
// location is damaged meta, not a store read that runs off its page.
TEST_F(CheckpointRobustnessTest, RecordHeaderPastPageEndIsCorruption) {
  TamperMeta([](std::vector<std::string>& lines) {
    EditFields(lines, 6, [](std::vector<std::string>& f) {
      f[1] = std::to_string(storage::kPageSize - 3);  // offset
    });
  });
  const auto loaded = SimilarityEngine::LoadFrom(prefix_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption)
      << loaded.status().ToString();
}

// A location inside another record's payload reads a "length" out of
// spectrum bytes. The fetch checks it against the spectrum size before
// reading further or allocating anything sized from it.
TEST_F(CheckpointRobustnessTest, RecordLocationInsidePayloadIsCorruption) {
  // Sequence 0's record starts the first page: header at 0, X_0 at 4..19,
  // X_1's real part from 20. The u32 found at 20 is mantissa bits, not the
  // record length (64 complex values = 1024 bytes).
  constexpr std::uint32_t kInsidePayload = 20;
  const std::string records = ReadAllBytes(EpochFile(".records"));
  std::uint64_t pages = 0;
  std::memcpy(&pages, records.data() + 8, sizeof pages);
  const std::size_t first_page = 16 + 8 * pages;
  std::uint32_t found = 0;
  std::memcpy(&found, records.data() + first_page + kInsidePayload,
              sizeof found);
  ASSERT_NE(found, 64u * 16u);
  TamperMeta([](std::vector<std::string>& lines) {
    EditFields(lines, 6, [](std::vector<std::string>& f) {
      ASSERT_EQ(f[0], "0");
      ASSERT_EQ(f[1], "0");
      f[1] = std::to_string(kInsidePayload);
    });
  });
  const auto loaded = SimilarityEngine::LoadFrom(prefix_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption)
      << loaded.status().ToString();
}

TEST_F(CheckpointRobustnessTest, NonFiniteNormalFormRejected) {
  TamperMeta([](std::vector<std::string>& lines) {
    EditFields(lines, 6, [](std::vector<std::string>& f) {
      f[4] = "nan";  // stddev
    });
  });
  ExpectRejected("non-finite stddev");
}

// A records file whose header claims an absurd page count must be bounded
// against the actual file size — Corruption, not a bad_alloc from
// allocating exabytes. The manifest is fixed up so the digest check in
// front does not mask the count validation.
TEST_F(CheckpointRobustnessTest, HugePageCountIsCorruptionNotBadAlloc) {
  std::string bytes = ReadAllBytes(EpochFile(".records"));
  const std::uint64_t huge = std::uint64_t{1} << 60;
  std::memcpy(bytes.data() + 8, &huge, sizeof huge);
  WriteAllBytes(EpochFile(".records"), bytes);
  const auto digest = storage::DigestFile(EpochFile(".records"));
  ASSERT_TRUE(digest.ok());
  std::string manifest;
  std::istringstream in(ReadAllBytes(ManifestFile()));
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("records ", 0) == 0) {
      std::ostringstream out;
      out << "records " << digest->size << " " << digest->fnv1a;
      line = out.str();
    }
    manifest += line + "\n";
  }
  WriteAllBytes(ManifestFile(), manifest);

  const auto loaded = SimilarityEngine::LoadFrom(prefix_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

TEST_F(CheckpointRobustnessTest, CrashDebrisIsSweptOnLoad) {
  // Crash the next save mid-way: the new epoch's partial files are debris,
  // the manifest still commits the old epoch.
  tsq::testing::CrashPolicy policy(9);
  engine_->SetCheckpointFaultHook(&policy);
  ASSERT_FALSE(engine_->SaveTo(prefix_).ok());
  engine_->SetCheckpointFaultHook(nullptr);

  std::vector<std::string> committed;
  for (const std::string& path : AllFiles()) {
    committed.push_back(std::filesystem::path(path).filename().string());
  }
  std::sort(committed.begin(), committed.end());
  const std::vector<std::string> crashed = PrefixFiles();
  EXPECT_TRUE(std::includes(crashed.begin(), crashed.end(), committed.begin(),
                            committed.end()));
  EXPECT_GT(crashed.size(), committed.size()) << "no debris to sweep";

  const auto loaded = SimilarityEngine::LoadFrom(prefix_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->checkpoint_epoch(), epoch_);
  EXPECT_EQ(PrefixFiles(), committed);
}

// A meta file one row short of the index: the tree still holds a leaf entry
// for the dropped id, so a query that reaches it must get the same
// OutOfRange whether it runs alone or in a batch that shares record fetches.
TEST_F(CheckpointRobustnessTest, LeafIdPastTheDatasetIsOutOfRange) {
  const std::size_t dropped = engine_->dataset().size() - 1;
  TamperMeta([](std::vector<std::string>& lines) {
    lines.pop_back();  // the last sequence row
    EditFields(lines, 3, [](std::vector<std::string>& f) {
      ASSERT_EQ(f[0], "tree");
      f[3] = std::to_string(std::stoull(f[3]) - 1);
    });
    EditFields(lines, 5, [](std::vector<std::string>& f) {
      ASSERT_EQ(f[0], "sequences");
      f[1] = std::to_string(std::stoull(f[1]) - 1);
    });
  });
  const auto loaded = SimilarityEngine::LoadFrom(prefix_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ((*loaded)->dataset().size(), dropped);

  RangeQuerySpec spec;
  spec.query = ts::Denormalize(engine_->dataset().normal(dropped));
  spec.transforms = {transform::SpectralTransform::Identity(64)};
  spec.epsilon = 0.5;
  const ExecOptions mt{.planner = {.algorithm = Algorithm::kMtIndex}};
  const auto solo = (*loaded)->Execute(spec, mt);
  ASSERT_FALSE(solo.ok());
  EXPECT_EQ(solo.status().code(), StatusCode::kOutOfRange)
      << solo.status().ToString();

  const auto batch = (*loaded)->ExecuteBatch({spec, spec}, {.exec = mt});
  ASSERT_EQ(batch.size(), 2u);
  for (const auto& entry : batch) {
    ASSERT_FALSE(entry.ok());
    EXPECT_EQ(entry.status().code(), StatusCode::kOutOfRange)
        << entry.status().ToString();
  }
}

// The same damage where the dropped row was a twin of a live sequence, so
// the damaged leaf passes every rectangle test beside its twin while every
// other candidate is far away. Its id has no features, so the feature bound
// must neither read them nor prune it: range, k-NN and join queries all
// fetch it and report OutOfRange. Pruning it instead would silently answer
// OK.
TEST_F(CheckpointRobustnessTest, LeafIdPastTheDatasetIsNeverPruned) {
  ts::Series twin;
  std::unique_ptr<SimilarityEngine> loaded;
  ASSERT_NO_FATAL_FAILURE(LoadWithTwinLeafPastTheDataset(&twin, &loaded));
  const std::vector<QuerySpec> specs = TwinSpecs(twin);
  for (const Algorithm algorithm : {Algorithm::kStIndex,
                                    Algorithm::kMtIndex}) {
    const ExecOptions options{.planner = {.algorithm = algorithm}};
    for (const QuerySpec& spec : specs) {
      const auto result = loaded->Execute(spec, options);
      ASSERT_FALSE(result.ok()) << AlgorithmName(algorithm) << " spec "
                                << spec.index();
      EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange)
          << AlgorithmName(algorithm) << " spec " << spec.index() << ": "
          << result.status().ToString();
    }
    const auto batch =
        loaded->ExecuteBatch({specs[0], specs[0]}, {.exec = options});
    for (const auto& entry : batch) {
      EXPECT_EQ(entry.status().code(), StatusCode::kOutOfRange)
          << AlgorithmName(algorithm) << ": " << entry.status().ToString();
    }
  }
}

// The same damage under kAuto. The planner's sample reads
// Dataset::coefficients by the ids its walk finds on leaf pages; the walk
// reaches the damaged entry and the sample leaves it out. Every query then
// reports the damage, or answers as the oracle does when its plan never
// reads that leaf (a sequential scan).
TEST_F(CheckpointRobustnessTest, AutoPlanSampleLeavesOutALeafIdPastTheDataset) {
  // Over the fixture's 20 walks the tree is one leaf, and the twin's entry
  // comes last in it, past every entry the sample takes; over 200 walks it
  // sits inside the walk.
  engine_ = std::make_unique<SimilarityEngine>(
      testutil::RandomWalks(200, 64, 71));
  ts::Series twin;
  std::unique_ptr<SimilarityEngine> loaded;
  ASSERT_NO_FATAL_FAILURE(LoadWithTwinLeafPastTheDataset(&twin, &loaded));
  const std::size_t dropped = loaded->dataset().size();
  const auto estimator = TreeCostEstimator::Create(loaded->index());
  ASSERT_TRUE(estimator.ok()) << estimator.status().ToString();
  bool sampled = false;
  for (std::size_t s = 0; s < estimator->sample_size(); ++s) {
    sampled = sampled || estimator->sample_id(s) == dropped;
  }
  ASSERT_TRUE(sampled) << "the sample does not reach the damaged entry";

  const testing::Oracle oracle(loaded->dataset());
  const std::vector<QuerySpec> specs = TwinSpecs(twin);
  const auto check = [&](const QuerySpec& spec,
                         const Result<QueryResult>& result) {
    if (!result.ok()) {
      EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange)
          << "spec " << spec.index() << ": " << result.status().ToString();
      return;
    }
    EXPECT_EQ(testing::OracleDiff(testing::ExpectedFor(oracle, spec), *result,
                                  Algorithm::kAuto, 1e-6),
              "")
        << "spec " << spec.index();
  };
  for (const QuerySpec& spec : specs) check(spec, loaded->Execute(spec));
  const auto batch = loaded->ExecuteBatch(specs);
  ASSERT_EQ(batch.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) check(specs[i], batch[i]);
}

TEST_F(CheckpointRobustnessTest, CheckpointEpochStampedIntoTraces) {
  const auto loaded = SimilarityEngine::LoadFrom(prefix_);
  ASSERT_TRUE(loaded.ok());
  RangeQuerySpec spec;
  spec.query = ts::Denormalize((*loaded)->dataset().normal(0));
  spec.transforms = {transform::SpectralTransform::Identity(64)};
  spec.epsilon = 0.5;
  const auto result = (*loaded)->Execute(spec);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->trace().checkpoint_epoch, epoch_);
  EXPECT_NE(obs::FormatTrace(result->trace()).find(
                "checkpoint e" + std::to_string(epoch_)),
            std::string::npos);
}

}  // namespace
}  // namespace tsq::core

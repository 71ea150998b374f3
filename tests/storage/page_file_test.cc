#include "storage/page_file.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "testing/fault_policy.h"

namespace tsq::storage {
namespace {

TEST(PageFileTest, AllocateReturnsSequentialIds) {
  PageFile file;
  EXPECT_EQ(file.Allocate(), 0u);
  EXPECT_EQ(file.Allocate(), 1u);
  EXPECT_EQ(file.Allocate(), 2u);
  EXPECT_EQ(file.page_count(), 3u);
}

TEST(PageFileTest, WriteThenReadRoundTrip) {
  PageFile file;
  const PageId id = file.Allocate();
  Page page;
  for (std::size_t i = 0; i < kPageSize; ++i) {
    page.bytes[i] = static_cast<std::uint8_t>(i * 31);
  }
  ASSERT_TRUE(file.Write(id, page).ok());
  Page read;
  ASSERT_TRUE(file.Read(id, &read).ok());
  EXPECT_EQ(read.bytes, page.bytes);
}

TEST(PageFileTest, FreshPageIsZeroed) {
  PageFile file;
  const PageId id = file.Allocate();
  Page read;
  ASSERT_TRUE(file.Read(id, &read).ok());
  for (std::uint8_t b : read.bytes) EXPECT_EQ(b, 0);
}

TEST(PageFileTest, ReadBeyondEndFails) {
  PageFile file;
  file.Allocate();
  Page page;
  EXPECT_EQ(file.Read(5, &page).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(file.Write(5, page).code(), StatusCode::kOutOfRange);
}

TEST(PageFileTest, CountsReadsAndWrites) {
  PageFile file;
  const PageId id = file.Allocate();
  Page page;
  ASSERT_TRUE(file.Write(id, page).ok());
  ASSERT_TRUE(file.Read(id, &page).ok());
  ASSERT_TRUE(file.Read(id, &page).ok());
  EXPECT_EQ(file.stats().allocations, 1u);
  EXPECT_EQ(file.stats().writes, 1u);
  EXPECT_EQ(file.stats().reads, 2u);
  file.ResetStats();
  EXPECT_EQ(file.stats().reads, 0u);
  EXPECT_EQ(file.stats().writes, 0u);
}

TEST(PageFileTest, SimulatedReadDelaySlowsReads) {
  PageFile file;
  const PageId id = file.Allocate();
  Page page;
  // With a 200us delay, 50 reads must take at least 10ms.
  file.set_read_delay_nanos(200000);
  EXPECT_EQ(file.read_delay_nanos(), 200000u);
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 50; ++i) ASSERT_TRUE(file.Read(id, &page).ok());
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_GE(std::chrono::duration<double>(elapsed).count(), 0.010);
  // Disabling restores fast reads (no strict timing assertion needed).
  file.set_read_delay_nanos(0);
  ASSERT_TRUE(file.Read(id, &page).ok());
}

TEST(PageFileTest, DetectsCorruption) {
  PageFile file;
  const PageId id = file.Allocate();
  Page page;
  page.bytes[100] = 42;
  ASSERT_TRUE(file.Write(id, page).ok());
  ASSERT_TRUE(file.CorruptForTesting(id, 100).ok());
  Page read;
  EXPECT_EQ(file.Read(id, &read).code(), StatusCode::kCorruption);
}

TEST(PageFileTest, RewriteAfterCorruptionHeals) {
  PageFile file;
  const PageId id = file.Allocate();
  Page page;
  ASSERT_TRUE(file.Write(id, page).ok());
  ASSERT_TRUE(file.CorruptForTesting(id, 0).ok());
  // A fresh write recomputes the checksum.
  ASSERT_TRUE(file.Write(id, page).ok());
  Page read;
  EXPECT_TRUE(file.Read(id, &read).ok());
}

class PageFilePersistenceTest : public ::testing::Test {
 protected:
  void TearDown() override {
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }
  // Per-test path: ctest discovers each test as its own process and runs
  // them in parallel, so a shared path would race.
  std::string path_ =
      ::testing::TempDir() + "/tsq_pages_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() + ".bin";
};

TEST_F(PageFilePersistenceTest, SaveLoadRoundTrip) {
  PageFile file;
  for (int i = 0; i < 5; ++i) {
    const PageId id = file.Allocate();
    Page page;
    for (std::size_t b = 0; b < kPageSize; ++b) {
      page.bytes[b] = static_cast<std::uint8_t>(i * 31 + b);
    }
    ASSERT_TRUE(file.Write(id, page).ok());
  }
  ASSERT_TRUE(file.SaveTo(path_).ok());

  PageFile loaded;
  ASSERT_TRUE(loaded.LoadFrom(path_).ok());
  ASSERT_EQ(loaded.page_count(), 5u);
  for (PageId id = 0; id < 5; ++id) {
    Page original, copy;
    ASSERT_TRUE(file.Read(id, &original).ok());
    ASSERT_TRUE(loaded.Read(id, &copy).ok());
    EXPECT_EQ(original.bytes, copy.bytes);
  }
  // Counters start fresh after a load (minus the reads above).
  loaded.ResetStats();
  EXPECT_EQ(loaded.stats().reads, 0u);
}

// Pages live in fixed blocks that never move, so growing the file across
// many block boundaries (and past two 256-page save chunks) must keep every
// earlier page's bytes and digest, and the grown file must round-trip
// through SaveTo/LoadFrom.
TEST_F(PageFilePersistenceTest, GrowthAcrossBlockBoundariesKeepsEveryPage) {
  constexpr std::size_t kPages = 600;
  const auto pattern = [](std::size_t id, std::uint8_t salt) {
    Page page;
    for (std::size_t b = 0; b < kPageSize; ++b) {
      page.bytes[b] = static_cast<std::uint8_t>(id * 7 + b * 13 + salt);
    }
    return page;
  };
  PageFile file;
  Page read;
  for (std::size_t i = 0; i < kPages; ++i) {
    ASSERT_EQ(file.Allocate(), i);
    ASSERT_TRUE(file.Write(static_cast<PageId>(i), pattern(i, 0)).ok());
    // The first page survives every allocation that grew the file.
    ASSERT_TRUE(file.Read(0, &read).ok());
    ASSERT_EQ(read.bytes, pattern(0, 0).bytes) << "after page " << i;
  }
  // Rewrites after the growth land in place.
  for (std::size_t i = 0; i < kPages; i += 37) {
    ASSERT_TRUE(file.Write(static_cast<PageId>(i), pattern(i, 1)).ok());
  }
  const auto expected = [&](std::size_t i) {
    return pattern(i, i % 37 == 0 ? 1 : 0);
  };
  for (std::size_t i = 0; i < kPages; ++i) {
    ASSERT_TRUE(file.Read(static_cast<PageId>(i), &read).ok()) << i;
    EXPECT_EQ(read.bytes, expected(i).bytes) << i;
  }
  ASSERT_TRUE(file.SaveTo(path_).ok());

  PageFile loaded;
  ASSERT_TRUE(loaded.LoadFrom(path_).ok());
  ASSERT_EQ(loaded.page_count(), kPages);
  for (std::size_t i = 0; i < kPages; ++i) {
    ASSERT_TRUE(loaded.Read(static_cast<PageId>(i), &read).ok()) << i;
    EXPECT_EQ(read.bytes, expected(i).bytes) << i;
    EXPECT_EQ(PageFile::Digest(read), PageFile::Digest(expected(i))) << i;
  }
  // Each page's digest still guards that page alone, in the last block too.
  ASSERT_TRUE(loaded.CorruptForTesting(kPages - 1, 5).ok());
  EXPECT_EQ(loaded.Read(kPages - 1, &read).code(), StatusCode::kCorruption);
  EXPECT_TRUE(loaded.Read(kPages - 2, &read).ok());
}

TEST_F(PageFilePersistenceTest, EmptyFileRoundTrip) {
  PageFile file;
  ASSERT_TRUE(file.SaveTo(path_).ok());
  PageFile loaded;
  ASSERT_TRUE(loaded.LoadFrom(path_).ok());
  EXPECT_EQ(loaded.page_count(), 0u);
}

TEST_F(PageFilePersistenceTest, RejectsGarbageAndTruncation) {
  {
    std::ofstream out(path_, std::ios::binary);
    out << "this is not a page file";
  }
  PageFile loaded;
  EXPECT_EQ(loaded.LoadFrom(path_).code(), StatusCode::kCorruption);

  // Valid header claiming more pages than the file holds.
  PageFile file;
  file.Allocate();
  file.Allocate();
  ASSERT_TRUE(file.SaveTo(path_).ok());
  std::error_code ec;
  std::filesystem::resize_file(path_, 16 + kPageSize, ec);
  ASSERT_FALSE(ec);
  EXPECT_EQ(loaded.LoadFrom(path_).code(), StatusCode::kCorruption);

  EXPECT_EQ(loaded.LoadFrom("/nonexistent/nope.bin").code(),
            StatusCode::kIoError);
}

TEST(PageFileTest, FailedIosLeaveCountersUntouched) {
  // Convention: only successful I/Os count. Neither a failed Read
  // (OutOfRange, Corruption) nor a failed Write (OutOfRange) moves the
  // counters, per file or the process-wide storage.page_file.writes.
  const obs::Counter* process_writes =
      obs::MetricsRegistry::Global().counter("storage.page_file.writes");
  PageFile file;
  const PageId id = file.Allocate();
  Page page;
  std::uint64_t writes_before = process_writes->value();
  ASSERT_TRUE(file.Write(id, page).ok());
  EXPECT_EQ(process_writes->value(), writes_before + 1);
  file.ResetStats();

  writes_before = process_writes->value();
  EXPECT_EQ(file.Read(99, &page).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(file.Write(99, page).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(file.stats().reads, 0u);
  EXPECT_EQ(file.stats().writes, 0u);
  EXPECT_EQ(process_writes->value(), writes_before);

  ASSERT_TRUE(file.CorruptForTesting(id, 5).ok());
  EXPECT_EQ(file.Read(id, &page).code(), StatusCode::kCorruption);
  EXPECT_EQ(file.stats().reads, 0u);

  // A successful read after healing counts exactly once.
  ASSERT_TRUE(file.Write(id, page).ok());
  ASSERT_TRUE(file.Read(id, &page).ok());
  EXPECT_EQ(file.stats().reads, 1u);
  EXPECT_EQ(file.stats().writes, 1u);
  EXPECT_EQ(process_writes->value(), writes_before + 1);
}

TEST_F(PageFilePersistenceTest, CorruptionSurvivesSaveAndIsReportedOnLoad) {
  // CorruptForTesting leaves the stored checksum stale; SaveTo persists the
  // checksums, so LoadFrom must flag the corrupted page instead of
  // recomputing a "valid" checksum from the corrupted bytes.
  PageFile file;
  const PageId id = file.Allocate();
  Page page;
  page.bytes[11] = 23;
  ASSERT_TRUE(file.Write(id, page).ok());
  ASSERT_TRUE(file.CorruptForTesting(id, 11).ok());
  ASSERT_TRUE(file.SaveTo(path_).ok());

  PageFile loaded;
  EXPECT_EQ(loaded.LoadFrom(path_).code(), StatusCode::kCorruption);
  EXPECT_EQ(loaded.page_count(), 0u);  // a failed load commits nothing
}

TEST_F(PageFilePersistenceTest, OnDiskCorruptionIsReportedOnLoad) {
  PageFile file;
  for (int i = 0; i < 3; ++i) {
    const PageId id = file.Allocate();
    Page page;
    page.bytes[0] = static_cast<std::uint8_t>(40 + i);
    ASSERT_TRUE(file.Write(id, page).ok());
  }
  ASSERT_TRUE(file.SaveTo(path_).ok());

  // Flip one byte in the middle page's on-disk image (header is
  // magic + count + 3 checksums = 5 * 8 bytes).
  {
    std::fstream f(path_, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.good());
    f.seekp(5 * 8 + kPageSize + 100, std::ios::beg);
    f.put(static_cast<char>(0xEE));
  }
  PageFile loaded;
  const Status status = loaded.LoadFrom(path_);
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
  EXPECT_NE(status.message().find("page 1"), std::string::npos);

  // An untampered copy still loads and verifies.
  ASSERT_TRUE(file.SaveTo(path_).ok());
  EXPECT_TRUE(loaded.LoadFrom(path_).ok());
  EXPECT_EQ(loaded.page_count(), 3u);
}

TEST_F(PageFilePersistenceTest, RejectsLegacyV1Format) {
  // A v1 file (old magic, no checksum block) cannot be verified; loading it
  // must fail closed rather than re-blessing whatever bytes are present.
  constexpr std::uint64_t kV1Magic = 0x545351504147u;
  const std::uint64_t count = 1;
  {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(&kV1Magic), sizeof kV1Magic);
    out.write(reinterpret_cast<const char*>(&count), sizeof count);
    const std::vector<char> zeros(kPageSize, 0);
    out.write(zeros.data(), static_cast<std::streamsize>(zeros.size()));
  }
  PageFile loaded;
  const Status status = loaded.LoadFrom(path_);
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
  EXPECT_NE(status.message().find("v1"), std::string::npos);

  // A v2 file is well-formed (magic, count, one checksum, one page) but its
  // serial FNV-1a checksums are not the v3 digest, so it cannot be verified
  // either: rejected with its version named, nothing committed.
  constexpr std::uint64_t kV2Magic = 0x325347505153u;
  {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(&kV2Magic), sizeof kV2Magic);
    out.write(reinterpret_cast<const char*>(&count), sizeof count);
    const std::uint64_t checksum = 0;
    out.write(reinterpret_cast<const char*>(&checksum), sizeof checksum);
    const std::vector<char> zeros(kPageSize, 0);
    out.write(zeros.data(), static_cast<std::streamsize>(zeros.size()));
  }
  const Status v2 = loaded.LoadFrom(path_);
  EXPECT_EQ(v2.code(), StatusCode::kCorruption);
  EXPECT_NE(v2.message().find("v2"), std::string::npos) << v2.ToString();
  EXPECT_EQ(loaded.page_count(), 0u);
}

TEST_F(PageFilePersistenceTest, HugePageCountIsCorruptionNotBadAlloc) {
  PageFile file;
  file.Allocate();
  ASSERT_TRUE(file.SaveTo(path_).ok());
  // Patch the header's page count to something no allocator survives; the
  // load must bound it against the file size, not trust it.
  for (const std::uint64_t huge :
       {std::uint64_t{1} << 60, std::uint64_t{0} - 1, std::uint64_t{2}}) {
    std::fstream f(path_, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(8);
    f.write(reinterpret_cast<const char*>(&huge), sizeof huge);
    f.close();
    PageFile loaded;
    EXPECT_EQ(loaded.LoadFrom(path_).code(), StatusCode::kCorruption)
        << "count=" << huge;
  }
}

TEST_F(PageFilePersistenceTest, SaveLeavesOldFileIntactOnInjectedCrash) {
  PageFile first;
  const PageId id = first.Allocate();
  Page page;
  page.bytes[0] = 42;
  ASSERT_TRUE(first.Write(id, page).ok());
  ASSERT_TRUE(first.SaveTo(path_).ok());

  // Crash a bigger save at every write step: the file at `path_` must stay
  // byte-for-byte loadable as the first save's content.
  PageFile second;
  second.Allocate();
  second.Allocate();
  for (std::uint64_t step = 1;; ++step) {
    testing::CrashPolicy policy(step);
    const Status saved = second.SaveTo(path_, &policy);
    PageFile loaded;
    ASSERT_TRUE(loaded.LoadFrom(path_).ok()) << "step " << step;
    if (saved.ok()) {
      EXPECT_EQ(loaded.page_count(), 2u);
      break;
    }
    // Before the rename the old single-page file survives; a crash on the
    // directory sync lands after the rename, so the new file is already
    // (atomically) published. Anything else — a torn or mixed file — fails
    // the LoadFrom above.
    if (loaded.page_count() == 1u) {
      Page check;
      ASSERT_TRUE(loaded.Read(id, &check).ok());
      EXPECT_EQ(check.bytes[0], 42);
    } else {
      EXPECT_EQ(loaded.page_count(), 2u) << "step " << step;
      EXPECT_STREQ(policy.crashed_step().c_str(), "dirsync")
          << "step " << step;
    }
    ASSERT_LT(step, 100u) << "crash sweep did not terminate";
    std::error_code ec;
    std::filesystem::remove(path_ + ".tmp", ec);  // crash debris
  }
}

// A random page with no zero byte, so zeroing any suffix changes it.
Page RandomNonZeroPage(std::uint64_t seed) {
  Rng rng(seed);
  Page page;
  for (std::uint8_t& b : page.bytes) {
    b = static_cast<std::uint8_t>(1 + rng.UniformInt(0, 254));
  }
  return page;
}

TEST(PageFileDigestTest, EveryByteAndEveryLaneReachesTheDigest) {
  const Page page = RandomNonZeroPage(41);
  const std::uint64_t digest = PageFile::Digest(page);
  EXPECT_EQ(PageFile::Digest(page), digest);  // a pure function of the bytes

  // Flipping any one byte changes the digest.
  for (std::size_t i = 0; i < kPageSize; ++i) {
    Page flipped = page;
    flipped.bytes[i] ^= 0x5A;
    ASSERT_NE(PageFile::Digest(flipped), digest) << "byte " << i;
  }
  // So does zeroing the suffix from each 8-byte boundary: the last word
  // alone belongs to one lane, so this fails for any lane the fold misses.
  for (std::size_t start = 0; start < kPageSize; start += 8) {
    Page truncated = page;
    std::fill(truncated.bytes.begin() + start, truncated.bytes.end(),
              std::uint8_t{0});
    ASSERT_NE(PageFile::Digest(truncated), digest) << "suffix from " << start;
  }
}

TEST(PageFileTest, ConcurrentReadsNeverSeeATornPage) {
  // Readers race a writer that alternates between two valid images of one
  // page. The copy and its digest are taken under the lock and verified
  // outside it, so every successful read must be one image, byte for byte.
  PageFile file;
  const PageId id = file.Allocate();
  const Page images[2] = {RandomNonZeroPage(1), RandomNonZeroPage(2)};
  ASSERT_TRUE(file.Write(id, images[0]).ok());
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> torn{0};
  std::atomic<std::uint64_t> failed{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      Page page;
      for (int k = 0; k < 2000; ++k) {
        if (!file.Read(id, &page).ok()) {
          ++failed;
        } else if (page.bytes != images[0].bytes &&
                   page.bytes != images[1].bytes) {
          ++torn;
        }
      }
    });
  }
  std::thread writer([&] {
    for (std::size_t k = 0; !stop.load(); ++k) {
      ASSERT_TRUE(file.Write(id, images[k % 2]).ok());
    }
  });
  for (std::thread& reader : readers) reader.join();
  stop = true;
  writer.join();
  EXPECT_EQ(torn.load(), 0u);
  EXPECT_EQ(failed.load(), 0u);
  EXPECT_EQ(file.stats().reads, 3u * 2000u);
}

TEST(PageFileTest, CorruptForTestingValidatesArguments) {
  PageFile file;
  EXPECT_EQ(file.CorruptForTesting(0, 0).code(), StatusCode::kOutOfRange);
  const PageId id = file.Allocate();
  EXPECT_EQ(file.CorruptForTesting(id, kPageSize).code(),
            StatusCode::kOutOfRange);
}

}  // namespace
}  // namespace tsq::storage

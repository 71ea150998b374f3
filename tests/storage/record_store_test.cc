#include "storage/record_store.h"

#include "common/rng.h"
#include "gtest/gtest.h"

namespace tsq::storage {
namespace {

// Stores `series` as a record of doubles, the layout GetSeries decodes.
Result<RecordId> StoreSeries(RecordStore& store, const ts::Series& series) {
  return store.Append({reinterpret_cast<const std::uint8_t*>(series.data()),
                       series.size() * sizeof(double)});
}

TEST(RecordStoreTest, SmallRecordRoundTrip) {
  PageFile file;
  RecordStore store(&file);
  const std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5};
  const auto id = store.Append(payload);
  ASSERT_TRUE(id.ok());
  const auto read = store.Get(*id);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, payload);
}

TEST(RecordStoreTest, EmptyRecord) {
  PageFile file;
  RecordStore store(&file);
  const auto id = store.Append(std::vector<std::uint8_t>{});
  ASSERT_TRUE(id.ok());
  const auto read = store.Get(*id);
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read->empty());
}

TEST(RecordStoreTest, ManyRecordsPackIntoPages) {
  PageFile file;
  RecordStore store(&file);
  // 1 KiB records: several fit per 4 KiB page.
  std::vector<RecordId> ids;
  for (int i = 0; i < 12; ++i) {
    std::vector<std::uint8_t> payload(1024, static_cast<std::uint8_t>(i));
    const auto id = store.Append(payload);
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  EXPECT_LE(file.page_count(), 5u);  // ~3 KiB of payload per page minimum
  for (int i = 0; i < 12; ++i) {
    const auto read = store.Get(ids[i]);
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(read->size(), 1024u);
    EXPECT_EQ((*read)[0], static_cast<std::uint8_t>(i));
  }
}

TEST(RecordStoreTest, RecordLargerThanPageSpans) {
  PageFile file;
  RecordStore store(&file);
  Rng rng(6);
  std::vector<std::uint8_t> payload(3 * kPageSize + 17);
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng.Next64());
  const auto id = store.Append(payload);
  ASSERT_TRUE(id.ok());
  EXPECT_GE(file.page_count(), 4u);
  const auto read = store.Get(*id);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, payload);
}

TEST(RecordStoreTest, InterleavedSizes) {
  PageFile file;
  RecordStore store(&file);
  Rng rng(7);
  std::vector<std::pair<RecordId, std::vector<std::uint8_t>>> expected;
  for (int i = 0; i < 100; ++i) {
    std::vector<std::uint8_t> payload(rng.UniformInt(0, 6000));
    for (auto& b : payload) b = static_cast<std::uint8_t>(rng.Next64());
    const auto id = store.Append(payload);
    ASSERT_TRUE(id.ok());
    expected.emplace_back(*id, std::move(payload));
  }
  EXPECT_EQ(store.record_count(), 100u);
  for (const auto& [id, payload] : expected) {
    const auto read = store.Get(id);
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(*read, payload);
  }
}

TEST(RecordStoreTest, SeriesHelpersRoundTrip) {
  PageFile file;
  RecordStore store(&file);
  const ts::Series series = {1.5, -2.25, 3.125, 0.0, 1e100};
  const auto id = StoreSeries(store, series);
  ASSERT_TRUE(id.ok());
  const auto read = store.GetSeries(*id);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, series);
}

TEST(RecordStoreTest, GetCountsPageReads) {
  PageFile file;
  RecordStore store(&file);
  const auto small = StoreSeries(store, ts::Series(100, 1.0));  // 800 B
  ASSERT_TRUE(small.ok());
  const auto big = StoreSeries(store, ts::Series(1000, 2.0));  // ~8 KiB
  ASSERT_TRUE(big.ok());
  file.ResetStats();
  ASSERT_TRUE(store.GetSeries(*small).ok());
  const std::uint64_t small_reads = file.stats().reads;
  ASSERT_TRUE(store.GetSeries(*big).ok());
  const std::uint64_t big_reads = file.stats().reads - small_reads;
  EXPECT_EQ(small_reads, 1u);
  EXPECT_GE(big_reads, 2u);  // spans multiple pages
}

TEST(RecordStoreTest, CorruptPageSurfacesOnGet) {
  PageFile file;
  RecordStore store(&file);
  const auto id = StoreSeries(store, ts::Series(10, 3.0));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(file.CorruptForTesting(id->page, 10).ok());
  EXPECT_EQ(store.GetSeries(*id).status().code(), StatusCode::kCorruption);
}

TEST(RecordStoreTest, ReadIntoFillsExactSpanAndCountsPages) {
  PageFile file;
  RecordStore store(&file);
  Rng rng(19);
  std::vector<std::pair<RecordId, std::vector<std::uint8_t>>> records;
  for (int i = 0; i < 30; ++i) {
    std::vector<std::uint8_t> payload(rng.UniformInt(0, 9000));
    for (auto& b : payload) b = static_cast<std::uint8_t>(rng.Next64());
    const auto id = store.Append(payload);
    ASSERT_TRUE(id.ok());
    records.emplace_back(*id, std::move(payload));
  }
  for (const auto& [id, payload] : records) {
    std::uint64_t get_pages = 0;
    ASSERT_TRUE(store.Get(id, &get_pages).ok());
    std::vector<std::uint8_t> out(payload.size());
    std::uint64_t pages = 0;
    ASSERT_TRUE(store.ReadInto(id, out, &pages).ok());
    EXPECT_EQ(out, payload);
    EXPECT_EQ(pages, get_pages);  // the same walk, the same pages
  }
}

TEST(RecordStoreTest, ReadIntoRejectsLengthMismatchBeforeReadingPayload) {
  PageFile file;
  RecordStore store(&file);
  const auto id = store.Append(std::vector<std::uint8_t>(3 * kPageSize, 7));
  ASSERT_TRUE(id.ok());
  for (const std::size_t size : {std::size_t{0}, 3 * kPageSize - 1,
                                 3 * kPageSize + 1}) {
    std::vector<std::uint8_t> out(size);
    std::uint64_t pages = 0;
    EXPECT_EQ(store.ReadInto(*id, out, &pages).code(),
              StatusCode::kCorruption)
        << size;
    EXPECT_EQ(pages, 1u) << "only the header page is read";
  }
}

TEST(RecordStoreTest, GetRejectsBogusOffset) {
  PageFile file;
  RecordStore store(&file);
  ASSERT_TRUE(store.Append(std::vector<std::uint8_t>{1, 2, 3}).ok());
  EXPECT_EQ(store.Get(RecordId{0, kPageSize - 1}).status().code(),
            StatusCode::kOutOfRange);
}

}  // namespace
}  // namespace tsq::storage

#include "storage/fault_injection.h"

#include <cstdint>

#include "gtest/gtest.h"
#include "storage/page_file.h"
#include "testing/fault_policy.h"

namespace tsq::storage {
namespace {

using tsq::testing::FaultPolicy;
using tsq::testing::FaultPolicyConfig;

void FillFile(PageFile* file, std::size_t pages) {
  for (std::size_t i = 0; i < pages; ++i) {
    const PageId id = file->Allocate();
    Page page;
    for (std::size_t b = 0; b < kPageSize; ++b) {
      page.bytes[b] = static_cast<std::uint8_t>(i * 7 + b);
    }
    EXPECT_TRUE(file->Write(id, page).ok());
  }
}

TEST(FaultInjectionTest, FailNthReadUsesChosenCodeAndIsUncounted) {
  PageFile file;
  FillFile(&file, 3);
  file.ResetStats();
  FaultPolicyConfig config;
  config.fail_nth_read = 2;
  config.failure_code = StatusCode::kFailedPrecondition;
  FaultPolicy policy(config);
  file.SetFaultHook(&policy);

  Page page;
  EXPECT_TRUE(file.Read(0, &page).ok());
  EXPECT_EQ(file.Read(1, &page).code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(file.Read(2, &page).ok());
  // Failed reads never count (same convention as OutOfRange/Corruption).
  EXPECT_EQ(file.stats().reads, 2u);
  EXPECT_EQ(policy.reads_seen(), 3u);
  EXPECT_EQ(policy.faults_injected(), 1u);
  file.SetFaultHook(nullptr);
}

TEST(FaultInjectionTest, FailEveryKthRead) {
  PageFile file;
  FillFile(&file, 1);
  FaultPolicyConfig config;
  config.fail_every_k = 3;
  FaultPolicy policy(config);
  file.SetFaultHook(&policy);

  Page page;
  for (int round = 0; round < 3; ++round) {
    EXPECT_TRUE(file.Read(0, &page).ok());
    EXPECT_TRUE(file.Read(0, &page).ok());
    EXPECT_EQ(file.Read(0, &page).code(), StatusCode::kIoError);
  }
  EXPECT_EQ(policy.faults_injected(), 3u);
  file.SetFaultHook(nullptr);
}

TEST(FaultInjectionTest, CorruptionIsCaughtByRealChecksumAndIsTransient) {
  PageFile file;
  FillFile(&file, 2);
  FaultPolicyConfig config;
  config.corrupt_nth_read = 1;
  FaultPolicy policy(config);
  file.SetFaultHook(&policy);

  // The injected flip corrupts only the *delivered* copy; the genuine
  // checksum verification rejects it, and the stored page stays healthy.
  Page page;
  EXPECT_EQ(file.Read(0, &page).code(), StatusCode::kCorruption);
  EXPECT_TRUE(file.Read(0, &page).ok());
  EXPECT_EQ(page.bytes[0], 0u);
  EXPECT_EQ(page.bytes[100], 100u);
  file.SetFaultHook(nullptr);
}

TEST(FaultInjectionTest, ShortReadIsCaughtByChecksum) {
  PageFile file;
  FillFile(&file, 1);
  FaultPolicyConfig config;
  config.short_nth_read = 1;
  config.short_read_bytes = 512;
  FaultPolicy policy(config);
  file.SetFaultHook(&policy);

  Page page;
  EXPECT_EQ(file.Read(0, &page).code(), StatusCode::kCorruption);
  EXPECT_TRUE(file.Read(0, &page).ok());
  file.SetFaultHook(nullptr);
}

TEST(FaultInjectionTest, FailPrecedesCorruptPrecedesShort) {
  PageFile file;
  FillFile(&file, 1);
  FaultPolicyConfig config;
  config.fail_nth_read = 1;
  config.corrupt_nth_read = 1;
  config.short_nth_read = 1;
  FaultPolicy policy(config);
  file.SetFaultHook(&policy);

  Page page;
  EXPECT_EQ(file.Read(0, &page).code(), StatusCode::kIoError);
  EXPECT_EQ(policy.faults_injected(), 1u);
  file.SetFaultHook(nullptr);
}

TEST(FaultInjectionTest, RemovingHookRestoresNormalReads) {
  PageFile file;
  FillFile(&file, 1);
  FaultPolicyConfig config;
  config.fail_every_k = 1;  // every read fails while installed
  FaultPolicy policy(config);
  file.SetFaultHook(&policy);
  Page page;
  EXPECT_FALSE(file.Read(0, &page).ok());
  file.SetFaultHook(nullptr);
  EXPECT_TRUE(file.Read(0, &page).ok());
}

TEST(FaultInjectionTest, InjectedDelayDoesNotChangeResults) {
  PageFile file;
  FillFile(&file, 1);
  FaultPolicyConfig config;
  config.delay_nanos = 1000;
  FaultPolicy policy(config);
  file.SetFaultHook(&policy);
  Page page;
  EXPECT_TRUE(file.Read(0, &page).ok());
  EXPECT_EQ(page.bytes[42], 42u);
  EXPECT_EQ(policy.faults_injected(), 0u);  // latency is not a fault
  file.SetFaultHook(nullptr);
}

TEST(FaultInjectionTest, DescribeNamesTheSchedule) {
  FaultPolicyConfig config;
  config.fail_nth_read = 3;
  config.corrupt_nth_read = 2;
  FaultPolicy policy(config);
  EXPECT_EQ(policy.Describe(), "fail-nth(3, IO_ERROR) + corrupt-nth(2)");
  EXPECT_EQ(FaultPolicy().Describe(), "no-faults");
}

}  // namespace
}  // namespace tsq::storage

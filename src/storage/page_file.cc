#include "storage/page_file.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <sstream>

#include "obs/metrics.h"
#include "storage/atomic_file.h"

namespace tsq::storage {

namespace {

std::string PageIdMessage(const char* what, PageId id, std::size_t count) {
  std::ostringstream msg;
  msg << what << ": page " << id << " (file has " << count << " pages)";
  return msg.str();
}

// Process-wide total of successful page writes over every PageFile (the
// per-instance atomics are the resettable, benchmark-facing numbers).
obs::Counter* PageWritesCounter() {
  static obs::Counter* const counter =
      obs::MetricsRegistry::Global().counter("storage.page_file.writes");
  return counter;
}

}  // namespace

std::uint64_t PageFile::Digest(const Page& page) {
  // One serial FNV-1a chain over the 512 words is a 512-long chain of
  // dependent multiplies; eight interleaved chains cut the dependency depth
  // to 64, which the multiplier pipelines. Each step (h ^ w) * prime is a
  // bijection of h for a fixed word and of w for a fixed h (the prime is
  // odd), and so is each fold step, hence any single-word change reaches
  // the digest.
  constexpr std::size_t kLanes = 8;
  constexpr std::uint64_t kOffset = 0xCBF29CE484222325ull;
  constexpr std::uint64_t kPrime = 0x100000001B3ull;
  static_assert(kPageSize % (kLanes * sizeof(std::uint64_t)) == 0);
  std::uint64_t lanes[kLanes] = {};
  for (std::size_t j = 0; j < kLanes; ++j) {
    // Distinct seeds, so equal word streams in two chains do not yield
    // equal chain states.
    lanes[j] = kOffset ^ (j * 0x9E3779B97F4A7C15ull);
  }
  const std::uint8_t* data = page.bytes.data();
  for (std::size_t i = 0; i < kPageSize;
       i += kLanes * sizeof(std::uint64_t)) {
    for (std::size_t j = 0; j < kLanes; ++j) {
      std::uint64_t word = 0;
      std::memcpy(&word, data + i + j * sizeof word, sizeof word);
      lanes[j] = (lanes[j] ^ word) * kPrime;
    }
  }
  std::uint64_t hash = kOffset;
  for (const std::uint64_t lane : lanes) hash = (hash ^ lane) * kPrime;
  return hash;
}

PageId PageFile::Allocate() {
  std::lock_guard<std::mutex> lock(mu_);
  pages_.emplace_back();
  digests_.push_back(Digest(pages_.back()));
  allocations_.fetch_add(1, std::memory_order_relaxed);
  return static_cast<PageId>(pages_.size() - 1);
}

Status PageFile::Read(PageId id, Page* out) {
  FaultDecision fault;
  if (FaultHook* hook = fault_hook_.load(std::memory_order_acquire)) {
    fault = hook->OnRead(id);
  }
  const std::uint64_t delay = read_delay_nanos() + fault.delay_nanos;
  if (delay > 0) {
    // Spin outside the lock: concurrent readers pay their simulated
    // latencies in parallel, like requests in flight on independent disks.
    const auto until = std::chrono::steady_clock::now() +
                       std::chrono::nanoseconds(delay);
    while (std::chrono::steady_clock::now() < until) {
      // Models the fixed per-page cost of a (cached-era) disk access.
    }
  }
  if (fault.action == FaultDecision::Action::kFail) {
    // Failed I/Os are never counted; the hook's status stands in for the
    // device error verbatim.
    return fault.status.ok()
               ? Status::IoError(PageIdMessage("injected fault", id, 0))
               : fault.status;
  }
  std::uint64_t expected = 0;
  std::size_t count = 0;
  {
    // The lock covers exactly one copy: the page and its digest are taken
    // as one consistent pair, so a concurrent Write can never produce a
    // torn delivery that verifies.
    std::lock_guard<std::mutex> lock(mu_);
    count = pages_.size();
    if (id >= count) {
      return Status::OutOfRange(PageIdMessage("read", id, count));
    }
    *out = pages_[id];
    expected = digests_[id];
  }
  // Faults mutate the page *as delivered* — the caller's private copy, not
  // the stored one — and then go through the normal verification below:
  // corruption and torn reads are caught by the same digest a real mismatch
  // would hit.
  if (fault.action == FaultDecision::Action::kCorruptBytes) {
    out->bytes[fault.byte_offset % kPageSize] ^= 0xFF;
  } else if (fault.action == FaultDecision::Action::kShortRead &&
             fault.valid_bytes < kPageSize) {
    std::fill(out->bytes.begin() + fault.valid_bytes, out->bytes.end(),
              std::uint8_t{0});
  }
  if (Digest(*out) != expected) {
    return Status::Corruption(PageIdMessage("checksum mismatch", id, count));
  }
  reads_.fetch_add(1, std::memory_order_relaxed);
  return Status::Ok();
}

Status PageFile::Write(PageId id, const Page& page) {
  // Digest before taking the lock: only the copy needs it.
  const std::uint64_t digest = Digest(page);
  std::lock_guard<std::mutex> lock(mu_);
  if (id >= pages_.size()) {
    return Status::OutOfRange(PageIdMessage("write", id, pages_.size()));
  }
  pages_[id] = page;
  digests_[id] = digest;
  writes_.fetch_add(1, std::memory_order_relaxed);
  PageWritesCounter()->Increment();
  return Status::Ok();
}

void PageFile::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  pages_.clear();
  digests_.clear();
}

namespace {
// Format v1 ("TSQPAG") stored raw pages only; LoadFrom recomputed checksums
// from whatever bytes it read, so on-disk corruption round-tripped as valid.
// v2 ("TSQPG2") persisted per-page checksums of one serial FNV-1a chain. v3
// ("TSQPG3") persists the lane-parallel Digest instead; the values differ
// from v2's, so v2 files cannot be verified and are rejected like v1.
constexpr std::uint64_t kPageFileMagicV1 = 0x545351504147u;     // "TSQPAG"
constexpr std::uint64_t kPageFileMagicV2 = 0x325347505153u;     // "TSQPG2"
constexpr std::uint64_t kPageFileMagicV3 = 0x335347505153u;     // "TSQPG3"
}  // namespace

Status PageFile::SaveTo(const std::string& path, FaultHook* hook,
                        FileDigest* digest) const {
  // Write-to-temp + rename: a crash or error anywhere in here leaves the
  // previous complete file at `path` untouched (the old SaveTo opened the
  // destination with std::ios::trunc, so a torn save destroyed the last
  // good checkpoint before the new one existed).
  AtomicFile out(path, hook);
  TSQ_RETURN_IF_ERROR(out.Open());
  std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t count = pages_.size();
  TSQ_RETURN_IF_ERROR(out.Append(&kPageFileMagicV3, sizeof kPageFileMagicV3));
  TSQ_RETURN_IF_ERROR(out.Append(&count, sizeof count));
  if (!digests_.empty()) {
    TSQ_RETURN_IF_ERROR(out.Append(digests_.data(),
                                   digests_.size() * sizeof(std::uint64_t)));
  }
  // Pages go out in bounded chunks: each chunk is one crash point for the
  // write-fault sweep, so big files do not blow up the number of injection
  // steps while small files still get a mid-body torn state.
  constexpr std::size_t kPagesPerChunk = 256;
  std::vector<std::uint8_t> chunk;
  for (std::size_t begin = 0; begin < pages_.size();
       begin += kPagesPerChunk) {
    const std::size_t end = std::min(begin + kPagesPerChunk, pages_.size());
    chunk.clear();
    chunk.reserve((end - begin) * kPageSize);
    for (std::size_t i = begin; i < end; ++i) {
      chunk.insert(chunk.end(), pages_[i].bytes.begin(),
                   pages_[i].bytes.end());
    }
    TSQ_RETURN_IF_ERROR(out.Append(chunk.data(), chunk.size()));
  }
  TSQ_RETURN_IF_ERROR(out.Commit());
  if (digest != nullptr) *digest = out.digest();
  return Status::Ok();
}

Status PageFile::LoadFrom(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open for reading: " + path);
  in.seekg(0, std::ios::end);
  const std::uint64_t file_size = static_cast<std::uint64_t>(in.tellg());
  in.seekg(0, std::ios::beg);
  std::uint64_t magic = 0;
  std::uint64_t count = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof magic);
  in.read(reinterpret_cast<char*>(&count), sizeof count);
  if (!in || (magic != kPageFileMagicV3 && magic != kPageFileMagicV2 &&
              magic != kPageFileMagicV1)) {
    return Status::Corruption("not a tsq page file: " + path);
  }
  if (magic == kPageFileMagicV1) {
    return Status::Corruption(
        "unsupported page file format v1 (no persisted checksums): " + path);
  }
  if (magic == kPageFileMagicV2) {
    return Status::Corruption(
        "unsupported page file format v2 (serial FNV-1a checksums, replaced "
        "by the v3 page digest): " +
        path);
  }
  // Bound the header's page count against the actual file size *before*
  // allocating anything: a corrupted count would otherwise request exabytes
  // and die on bad_alloc instead of reporting Corruption. Exact-size match
  // also rejects trailing garbage.
  const std::uint64_t header = sizeof magic + sizeof count;
  if (count > (file_size - std::min(file_size, header)) /
                  (sizeof(std::uint64_t) + kPageSize) ||
      file_size != header + count * (sizeof(std::uint64_t) + kPageSize)) {
    return Status::Corruption("page count inconsistent with file size: " +
                              path);
  }
  std::vector<std::uint64_t> digests(count);
  for (std::uint64_t& digest : digests) {
    in.read(reinterpret_cast<char*>(&digest), sizeof digest);
    if (!in) return Status::Corruption("truncated page file: " + path);
  }
  std::deque<Page> pages(count);
  for (Page& page : pages) {
    in.read(reinterpret_cast<char*>(page.bytes.data()), kPageSize);
    if (!in) return Status::Corruption("truncated page file: " + path);
  }
  // Verify against the *persisted* digests before committing anything:
  // bytes corrupted at rest no longer re-bless themselves on load.
  for (std::size_t i = 0; i < pages.size(); ++i) {
    if (Digest(pages[i]) != digests[i]) {
      return Status::Corruption(
          PageIdMessage("checksum mismatch on load", static_cast<PageId>(i),
                        pages.size()) +
          " in " + path);
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  pages_ = std::move(pages);
  digests_ = std::move(digests);
  ResetStats();
  return Status::Ok();
}

Status PageFile::CorruptForTesting(PageId id, std::size_t byte_offset) {
  std::lock_guard<std::mutex> lock(mu_);
  if (id >= pages_.size()) {
    return Status::OutOfRange(PageIdMessage("corrupt", id, pages_.size()));
  }
  if (byte_offset >= kPageSize) {
    return Status::OutOfRange("corrupt: byte offset beyond page");
  }
  pages_[id].bytes[byte_offset] ^= 0xFF;
  return Status::Ok();
}

}  // namespace tsq::storage

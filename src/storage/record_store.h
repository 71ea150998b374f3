#ifndef TSQ_STORAGE_RECORD_STORE_H_
#define TSQ_STORAGE_RECORD_STORE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "storage/page_file.h"
#include "ts/series.h"

namespace tsq::storage {

/// Locates a stored record: the page it starts on and the byte offset of its
/// header within that page.
struct RecordId {
  PageId page = kInvalidPageId;
  std::uint32_t offset = 0;

  bool operator==(const RecordId&) const = default;
};

/// Append-only store of variable-length records packed into pages.
///
/// This is the "full database record" storage of the paper's Query 1: the
/// post-processing step fetches each candidate's complete sequence from here,
/// and every page touched counts as a disk access — the second term of the
/// cost model (Eq. 18).
///
/// Layout: records are appended into the current page as
/// [u32 total_length][payload fragment]; a record that does not fit continues
/// on freshly allocated (hence consecutive) pages until exhausted. A page's
/// trailing free space smaller than a header starts a new page. Payload byte
/// p of a record therefore sits at byte `offset + kHeaderSize + p` counted
/// from the start of its header page.
///
/// Every read goes through one page-walk: it reads (and counts) the header
/// page, lets the calling method check the stored length and pick the
/// destination (ReadInto rejects a length that differs from its span; Get
/// sizes a fresh buffer), then copies the whole payload, fragment by
/// fragment, straight from each page buffer to the destination.
class RecordStore {
 public:
  /// Bytes of the length header in front of every record.
  static constexpr std::uint32_t kHeaderSize = sizeof(std::uint32_t);

  /// The store allocates pages from (and counts reads against) `file`, which
  /// it does not own. The file must be used exclusively by this store.
  explicit RecordStore(PageFile* file);

  RecordStore(const RecordStore&) = delete;
  RecordStore& operator=(const RecordStore&) = delete;

  /// Appends a record; returns its id.
  Result<RecordId> Append(std::span<const std::uint8_t> payload);

  /// Fetches a record by id (reads, and counts, every page it spans). When
  /// `pages_read` is non-null it is *incremented* by the number of page
  /// reads this call issued — the per-task accounting the parallel query
  /// executor uses instead of diffing the file's global counter.
  Result<std::vector<std::uint8_t>> Get(RecordId id,
                                        std::uint64_t* pages_read =
                                            nullptr) const;

  /// Copy-free fetch: copies record `id`'s payload straight from the page
  /// buffers into `out`, which must be exactly the payload's size. The
  /// header's length is checked against `out.size()` before any payload
  /// byte is read, so a mismatch (a wrong or corrupted record location)
  /// fails with Corruption without reading further pages. `pages_read` as
  /// in Get. On failure the content of `out` is unspecified.
  Status ReadInto(RecordId id, std::span<std::uint8_t> out,
                  std::uint64_t* pages_read = nullptr) const;

  /// Convenience: fetches a record and decodes it as a series of doubles.
  /// `pages_read`, when non-null, is incremented per page read (see Get).
  Result<ts::Series> GetSeries(RecordId id,
                               std::uint64_t* pages_read = nullptr) const;

  std::size_t record_count() const { return record_count_; }

  /// Persistence hooks: the append cursor to save alongside the page file,
  /// and its restoration after PageFile::LoadFrom.
  PageId current_page() const { return current_page_; }
  std::uint32_t cursor() const { return cursor_; }
  void RestoreForLoad(PageId current_page, std::uint32_t cursor,
                      std::size_t record_count) {
    current_page_ = current_page;
    cursor_ = cursor;
    record_count_ = record_count;
  }

 private:
  // Where a walk delivers the payload's `length` bytes: decided by the
  // caller from the stored length, after the header page is read.
  struct Target {
    std::uint8_t* dest = nullptr;
    std::size_t length = 0;
  };

  // The one page-walk behind every read. `place(total)` sees the stored
  // payload length and returns the Target (or the error that stops the
  // read); the walk then copies the target's bytes page by page.
  template <typename Place>
  Status Walk(RecordId id, std::uint64_t* pages_read, Place&& place) const;

  PageFile* file_;
  PageId current_page_ = kInvalidPageId;
  std::uint32_t cursor_ = 0;  // next free byte within current_page_
  std::size_t record_count_ = 0;
};

}  // namespace tsq::storage

#endif  // TSQ_STORAGE_RECORD_STORE_H_

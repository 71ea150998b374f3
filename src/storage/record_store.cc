#include "storage/record_store.h"

#include <cstring>
#include <string>

#include "common/check.h"

namespace tsq::storage {

RecordStore::RecordStore(PageFile* file) : file_(file) {
  TSQ_CHECK(file != nullptr);
}

Result<RecordId> RecordStore::Append(std::span<const std::uint8_t> payload) {
  // Start a fresh page when there is no room for even the header plus one
  // payload byte (or for the header of an empty record).
  const std::uint32_t min_space =
      kHeaderSize + (payload.empty() ? 0u : 1u);
  if (current_page_ == kInvalidPageId || cursor_ + min_space > kPageSize) {
    current_page_ = file_->Allocate();
    cursor_ = 0;
  }

  const RecordId id{current_page_, cursor_};
  Page page;
  TSQ_RETURN_IF_ERROR(file_->Read(current_page_, &page));

  const std::uint32_t total = static_cast<std::uint32_t>(payload.size());
  std::memcpy(page.bytes.data() + cursor_, &total, kHeaderSize);
  cursor_ += kHeaderSize;

  std::size_t written = 0;
  while (true) {
    const std::size_t space = kPageSize - cursor_;
    const std::size_t chunk = std::min(space, payload.size() - written);
    // An empty payload may have a null data(), which memcpy must not get.
    if (chunk > 0) {
      std::memcpy(page.bytes.data() + cursor_, payload.data() + written,
                  chunk);
    }
    written += chunk;
    cursor_ += static_cast<std::uint32_t>(chunk);
    TSQ_RETURN_IF_ERROR(file_->Write(current_page_, page));
    if (written == payload.size()) break;
    // Continue on a fresh page; freshly allocated pages are consecutive, so
    // a read can follow the record by incrementing the page id.
    const PageId next = file_->Allocate();
    TSQ_CHECK_EQ(next, current_page_ + 1);
    current_page_ = next;
    cursor_ = 0;
    TSQ_RETURN_IF_ERROR(file_->Read(current_page_, &page));
  }
  ++record_count_;
  return id;
}

template <typename Place>
Status RecordStore::Walk(RecordId id, std::uint64_t* pages_read,
                         Place&& place) const {
  if (std::size_t{id.offset} + kHeaderSize > kPageSize) {
    return Status::OutOfRange("record offset beyond page");
  }
  Page page;
  TSQ_RETURN_IF_ERROR(file_->Read(id.page, &page));
  if (pages_read != nullptr) ++*pages_read;
  std::uint32_t total = 0;
  std::memcpy(&total, page.bytes.data() + id.offset, kHeaderSize);
  const Result<Target> target = place(total);
  if (!target.ok()) return target.status();

  // Continuation pages are consecutive and carry payload from byte 0, so
  // the first requested byte's page and in-page cursor follow from its
  // position counted from the header page's first byte.
  const std::size_t position =
      std::size_t{id.offset} + kHeaderSize + target->first;
  PageId page_id = id.page + static_cast<PageId>(position / kPageSize);
  std::size_t cursor = position % kPageSize;
  PageId loaded = id.page;
  std::size_t copied = 0;
  while (copied < target->length) {
    if (page_id != loaded) {
      TSQ_RETURN_IF_ERROR(file_->Read(page_id, &page));
      if (pages_read != nullptr) ++*pages_read;
      loaded = page_id;
    }
    const std::size_t chunk =
        std::min(kPageSize - cursor, target->length - copied);
    std::memcpy(target->dest + copied, page.bytes.data() + cursor, chunk);
    copied += chunk;
    ++page_id;
    cursor = 0;
  }
  return Status::Ok();
}

Result<std::vector<std::uint8_t>> RecordStore::Get(
    RecordId id, std::uint64_t* pages_read) const {
  std::vector<std::uint8_t> payload;
  TSQ_RETURN_IF_ERROR(
      Walk(id, pages_read, [&payload](std::uint32_t total) -> Result<Target> {
        payload.resize(total);
        return Target{payload.data(), 0, total};
      }));
  return payload;
}

Status RecordStore::ReadInto(RecordId id, std::span<std::uint8_t> out,
                             std::uint64_t* pages_read) const {
  return Walk(id, pages_read, [out](std::uint32_t total) -> Result<Target> {
    if (total != out.size()) {
      return Status::Corruption("record holds " + std::to_string(total) +
                                " bytes, expected " +
                                std::to_string(out.size()));
    }
    return Target{out.data(), 0, out.size()};
  });
}

Result<std::vector<std::uint8_t>> RecordStore::GetRange(
    RecordId id, std::size_t byte_offset, std::size_t length) const {
  std::vector<std::uint8_t> out;
  TSQ_RETURN_IF_ERROR(
      Walk(id, nullptr, [&](std::uint32_t total) -> Result<Target> {
        if (byte_offset > total || length > total - byte_offset) {
          return Status::OutOfRange("range exceeds record payload");
        }
        out.resize(length);
        return Target{out.data(), byte_offset, length};
      }));
  return out;
}

Result<ts::Series> RecordStore::GetSeriesRange(RecordId id, std::size_t first,
                                               std::size_t count) const {
  Result<std::vector<std::uint8_t>> bytes =
      GetRange(id, first * sizeof(double), count * sizeof(double));
  if (!bytes.ok()) return bytes.status();
  ts::Series series(count);
  std::memcpy(series.data(), bytes->data(), bytes->size());
  return series;
}

Result<RecordId> RecordStore::AppendSeries(const ts::Series& series) {
  return Append({reinterpret_cast<const std::uint8_t*>(series.data()),
                 series.size() * sizeof(double)});
}

Result<ts::Series> RecordStore::GetSeries(RecordId id,
                                          std::uint64_t* pages_read) const {
  ts::Series series;
  TSQ_RETURN_IF_ERROR(
      Walk(id, pages_read, [&series](std::uint32_t total) -> Result<Target> {
        if (total % sizeof(double) != 0) {
          return Status::Corruption("record size is not a multiple of 8");
        }
        series.resize(total / sizeof(double));
        return Target{reinterpret_cast<std::uint8_t*>(series.data()), 0,
                      total};
      }));
  return series;
}

}  // namespace tsq::storage

#ifndef TSQ_TS_IO_H_
#define TSQ_TS_IO_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "ts/series.h"

namespace tsq::ts {

/// Writes one series per row as comma-separated values. Rows may have
/// different lengths. Overwrites the file if it exists.
Status WriteCsv(const std::string& path, const std::vector<Series>& data);

/// Reads a CSV written by WriteCsv (or any numeric CSV, one series per row).
/// Lines holding only whitespace are skipped. A field that is not one finite
/// number, optionally surrounded by whitespace, yields Corruption naming
/// `path:line`.
Result<std::vector<Series>> ReadCsv(const std::string& path);

}  // namespace tsq::ts

#endif  // TSQ_TS_IO_H_

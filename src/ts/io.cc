#include "ts/io.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>

namespace tsq::ts {

Status WriteCsv(const std::string& path, const std::vector<Series>& data) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return Status::IoError("cannot open for writing: " + path);
  }
  out.precision(17);
  for (const Series& row : data) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out << ',';
      out << row[i];
    }
    out << '\n';
  }
  out.flush();
  if (!out) return Status::IoError("write failed: " + path);
  return Status::Ok();
}

Result<std::vector<Series>> ReadCsv(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::IoError("cannot open for reading: " + path);
  }
  std::vector<Series> data;
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    // Blank, also when a CRLF file leaves its '\r' on an empty line.
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    Series row;
    std::stringstream fields(line);
    std::string field;
    while (std::getline(fields, field, ',')) {
      char* end = nullptr;
      errno = 0;
      const double value = std::strtod(field.c_str(), &end);
      // Trailing whitespace is allowed, so a CRLF line's '\r' is too.
      const char* rest = end;
      while (std::isspace(static_cast<unsigned char>(*rest))) ++rest;
      if (end == field.c_str() || *rest != '\0' || errno == ERANGE ||
          !std::isfinite(value)) {
        std::ostringstream msg;
        msg << path << ":" << line_number << ": not a finite number: '"
            << field << "'";
        return Status::Corruption(msg.str());
      }
      row.push_back(value);
    }
    data.push_back(std::move(row));
  }
  return data;
}

}  // namespace tsq::ts

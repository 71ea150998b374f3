#ifndef TSQ_TESTS_CORE_TEST_UTIL_H_
#define TSQ_TESTS_CORE_TEST_UTIL_H_

#include <cstring>
#include <span>
#include <vector>

#include "common/rng.h"
#include "core/dataset.h"
#include "ts/generate.h"
#include "ts/series.h"

namespace tsq::core::testutil {

/// Small synthetic random-walk workload (the paper's recipe, shrunk for unit
/// tests).
inline std::vector<ts::Series> RandomWalks(std::size_t count,
                                           std::size_t length,
                                           std::uint64_t seed) {
  ts::RandomWalkConfig config;
  config.num_series = count;
  config.length = length;
  config.seed = seed;
  return ts::GenerateRandomWalks(config);
}

/// Small correlated stock-market workload.
inline std::vector<ts::Series> Stocks(std::size_t count, std::size_t length,
                                      std::uint64_t seed) {
  ts::StockMarketConfig config;
  config.num_series = count;
  config.length = length;
  config.num_sectors = std::max<std::size_t>(2, count / 8);
  config.seed = seed;
  return ts::GenerateStockMarket(config);
}

/// True when dataset.coefficients(i) holds sequence i's stored record at
/// the layout's indexed coefficients, bit for bit (memcmp against
/// FetchSpectrum). False when the fetch fails.
inline bool CoefficientsMatchRecord(const Dataset& dataset, std::size_t i) {
  const Result<std::vector<dft::Complex>> record = dataset.FetchSpectrum(i);
  if (!record.ok()) return false;
  const std::span<const dft::Complex> stored = dataset.coefficients(i);
  if (stored.size() != dataset.layout().num_coefficients) return false;
  for (std::size_t c = 0; c < stored.size(); ++c) {
    if (std::memcmp(&stored[c], &(*record)[dataset.layout().coefficient(c)],
                    sizeof(dft::Complex)) != 0) {
      return false;
    }
  }
  return true;
}

}  // namespace tsq::core::testutil

#endif  // TSQ_TESTS_CORE_TEST_UTIL_H_

// tsq command-line shell: load a CSV of sequences (one per row) or generate
// a synthetic market, then run queries in the tsq query language.
//
//   ./build/examples/tsq_cli [--csv FILE | --stocks N | --walks N] [--len L]
//   tsq> find similar to series 17 under mv(1..40) within correlation 0.96
//   tsq> find 5 nearest to series 3 under momentum then shift(0..10) apply data
//   tsq> find pairs under mv(5..14) within correlation 0.99
//   tsq> help | stats | quit
//
// Queries can also be piped on stdin (one per line), making the shell
// scriptable:   echo "find pairs under mv(5) within correlation 0.99" |
//               ./build/examples/tsq_cli --stocks 200

#include <charconv>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <system_error>
#include <vector>

#include "common/stopwatch.h"
#include "core/dataset.h"
#include "core/engine.h"
#include "lang/compiler.h"
#include "transform/feature_layout.h"
#include "ts/generate.h"
#include "ts/io.h"
#include "ts/normal_form.h"

namespace {

void PrintHelp() {
  std::printf(
      "queries:\n"
      "  find similar to series <id> under <transforms> within\n"
      "      (correlation <rho> | distance <eps>) [options]\n"
      "  find <k> nearest to series <id> under <transforms> [options]\n"
      "  find pairs under <transforms> within (correlation r | distance e)\n"
      "transforms:  mv(1..40), momentum[(s)], shift(s), ema(a), lwma(w),\n"
      "  scale(a), invert, band(lo, hi), diff2, identity; ranges lo..hi[:step];\n"
      "  compose with THEN, union with ','\n"
      "options:     using (mt|st|scan), apply (both|data), per_mbr <g>,\n"
      "  groups <g>, clustered, ordered\n"
      "commands:    help, stats, quit\n");
}

// A whole decimal count, nothing before or after it.
bool ParseCount(const char* text, std::size_t* out) {
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, *out);
  return ec == std::errc() && ptr == end;
}

// Why the engine cannot index sequences of `length` values, or "": under
// the symmetry property every retained DFT coefficient f needs 2f < length.
std::string LengthProblem(std::size_t length) {
  if (tsq::transform::FeatureLayout{}.SymmetrySoundFor(length)) return "";
  return "sequences of " + std::to_string(length) +
         " values are too short for the index's DFT features";
}

// Why the engine cannot index `data`, or "" when it can. The engine checks
// the same conditions by aborting, so they are checked here first.
std::string DataProblem(const std::vector<tsq::ts::Series>& data) {
  if (data.empty()) return "no sequences";
  const std::size_t length = data.front().size();
  for (std::size_t i = 1; i < data.size(); ++i) {
    if (data[i].size() != length) {
      return "sequence " + std::to_string(i) + " has " +
             std::to_string(data[i].size()) + " values, sequence 0 has " +
             std::to_string(length);
    }
  }
  if (const std::string why = LengthProblem(length); !why.empty()) return why;
  for (std::size_t i = 0; i < data.size(); ++i) {
    const tsq::Status status =
        tsq::core::ValidateNormalForm(tsq::ts::Normalize(data[i]));
    if (!status.ok()) {
      return "sequence " + std::to_string(i) + ": " + status.message();
    }
  }
  return "";
}

}  // namespace

int main(int argc, char** argv) {
  std::string csv;
  std::size_t stocks = 0;
  std::size_t walks = 0;
  std::size_t length = 128;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (arg == "--csv") {
      csv = next();
    } else if (arg == "--stocks" || arg == "--walks" || arg == "--len") {
      std::size_t* count = arg == "--stocks" ? &stocks
                           : arg == "--walks" ? &walks
                                              : &length;
      const char* text = next();
      if (!ParseCount(text, count)) {
        std::fprintf(stderr, "%s takes a whole number, got '%s'\n",
                     arg.c_str(), text);
        return 1;
      }
    } else {
      std::fprintf(stderr,
                   "usage: %s [--csv FILE | --stocks N | --walks N] "
                   "[--len L]\n",
                   argv[0]);
      return 2;
    }
  }
  // Synthetic data is checked by its length before it is generated.
  if (csv.empty()) {
    if (const std::string why = LengthProblem(length); !why.empty()) {
      std::fprintf(stderr, "cannot index: %s\n", why.c_str());
      return 1;
    }
  }

  std::vector<tsq::ts::Series> data;
  if (!csv.empty()) {
    auto loaded = tsq::ts::ReadCsv(csv);
    if (!loaded.ok()) {
      std::fprintf(stderr, "cannot load %s: %s\n", csv.c_str(),
                   loaded.status().ToString().c_str());
      return 1;
    }
    data = std::move(*loaded);
    std::printf("loaded %zu sequences from %s\n", data.size(), csv.c_str());
  } else if (walks > 0) {
    tsq::ts::RandomWalkConfig config;
    config.num_series = walks;
    config.length = length;
    data = tsq::ts::GenerateRandomWalks(config);
    std::printf("generated %zu random walks of length %zu\n", walks, length);
  } else {
    tsq::ts::StockMarketConfig config;
    config.num_series = stocks > 0 ? stocks : 1068;
    config.length = length;
    data = tsq::ts::GenerateStockMarket(config);
    std::printf("generated %zu synthetic stocks of length %zu\n",
                config.num_series, length);
  }

  if (const std::string why = DataProblem(data); !why.empty()) {
    std::fprintf(stderr, "cannot index: %s\n", why.c_str());
    return 1;
  }

  tsq::Stopwatch build_watch;
  tsq::core::SimilarityEngine engine(std::move(data));
  std::printf("indexed %zu sequences in %.0f ms; type 'help' for the query "
              "language\n",
              engine.size(), build_watch.ElapsedMillis());

  std::string line;
  while (true) {
    std::printf("tsq> ");
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) break;
    // Trim.
    const auto begin = line.find_first_not_of(" \t\r\n");
    if (begin == std::string::npos) continue;
    const auto end = line.find_last_not_of(" \t\r\n");
    const std::string text = line.substr(begin, end - begin + 1);
    if (text == "quit" || text == "exit") break;
    if (text == "help") {
      PrintHelp();
      continue;
    }
    if (text == "stats") {
      std::printf("sequences: %zu (length %zu), index height %zu, "
                  "record pages %zu\n",
                  engine.size(), engine.length(),
                  engine.index().tree().height(),
                  engine.dataset().record_pages());
      continue;
    }
    const auto compiled = tsq::lang::CompileQuery(text, engine);
    if (!compiled.ok()) {
      std::printf("error: %s\n", compiled.status().ToString().c_str());
      continue;
    }
    tsq::Stopwatch watch;
    const auto rendered = tsq::lang::Execute(*compiled, engine);
    if (!rendered.ok()) {
      std::printf("error: %s\n", rendered.status().ToString().c_str());
      continue;
    }
    std::printf("%s(%.1f ms)\n", rendered->c_str(), watch.ElapsedMillis());
  }
  return 0;
}

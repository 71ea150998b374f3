#include "lang/compiler.h"

#include "../core/test_util.h"
#include "core/range_query.h"
#include "gtest/gtest.h"
#include "transform/builders.h"
#include "ts/distance.h"

namespace tsq::lang {
namespace {

core::SimilarityEngine MakeEngine() {
  return core::SimilarityEngine(core::testutil::Stocks(60, 128, 50));
}

TEST(ExpandPipelinesTest, RangesAndLabels) {
  Pipeline pipeline = {Factor{"mv", {Arg{5.0, 8.0, 1.0, true}}, 0}};
  const auto transforms = ExpandPipelines({pipeline}, 128);
  ASSERT_TRUE(transforms.ok()) << transforms.status().ToString();
  ASSERT_EQ(transforms->size(), 4u);
  EXPECT_EQ((*transforms)[0].label(), "mv5");
  EXPECT_EQ((*transforms)[3].label(), "mv8");
}

TEST(ExpandPipelinesTest, ThenComposesEveryPair) {
  Pipeline pipeline = {Factor{"momentum", {}, 0},
                       Factor{"shift", {Arg{0.0, 2.0, 1.0, true}}, 0}};
  const auto transforms = ExpandPipelines({pipeline}, 64);
  ASSERT_TRUE(transforms.ok());
  EXPECT_EQ(transforms->size(), 3u);  // 1 momentum x 3 shifts
}

TEST(ExpandPipelinesTest, AllBuiltinsResolve) {
  for (const char* text :
       {"mv(3)", "ma(3)", "lwma(4)", "ema(0.3)", "momentum", "momentum(2)",
        "shift(5)", "shift(-2)", "pshift(1)", "scale(2.5)", "invert",
        "identity", "band(1, 8)", "diff2"}) {
    Result<ParsedQuery> q = Parse(std::string("find similar to series 0 "
                                              "under ") +
                                  text + " within distance 1");
    ASSERT_TRUE(q.ok()) << text;
    const auto transforms = ExpandPipelines(q->pipelines, 64);
    EXPECT_TRUE(transforms.ok()) << text << ": "
                                 << transforms.status().ToString();
  }
}

TEST(ExpandPipelinesTest, NegativeShiftWrapsCircularly) {
  Pipeline pipeline = {Factor{"shift", {Arg{-2.0, -2.0, 1.0, false}}, 0}};
  const auto transforms = ExpandPipelines({pipeline}, 64);
  ASSERT_TRUE(transforms.ok());
  EXPECT_EQ((*transforms)[0].label(), "shift62");
}

TEST(ExpandPipelinesTest, Errors) {
  EXPECT_FALSE(ExpandPipelines({{Factor{"nope", {}, 7}}}, 64).ok());
  EXPECT_FALSE(
      ExpandPipelines({{Factor{"mv", {Arg{0.0, 0.0, 1.0, false}}, 0}}}, 64)
          .ok());  // window 0
  EXPECT_FALSE(
      ExpandPipelines({{Factor{"mv", {Arg{2.5, 2.5, 1.0, false}}, 0}}}, 64)
          .ok());  // non-integer window
  EXPECT_FALSE(ExpandPipelines({{Factor{"invert",
                                        {Arg{1.0, 1.0, 1.0, false}},
                                        0}}},
                               64)
                   .ok());  // unexpected arg
}

TEST(CompilerTest, RangeQueryEndToEnd) {
  const auto engine = MakeEngine();
  const auto compiled = CompileQuery(
      "find similar to series 7 under mv(1..40) within correlation 0.96",
      engine);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  const auto* spec = std::get_if<core::RangeQuerySpec>(&compiled->spec);
  ASSERT_NE(spec, nullptr);
  EXPECT_EQ(spec->transforms.size(), 40u);
  EXPECT_NEAR(spec->epsilon,
              ts::CorrelationToDistanceThreshold(0.96, 128), 1e-12);

  // And it runs, agreeing with a hand-built spec.
  const auto via_lang = engine.Execute(*spec, compiled->options);
  ASSERT_TRUE(via_lang.ok());
  core::RangeQuerySpec manual;
  manual.query = ts::Denormalize(engine.dataset().normal(7));
  manual.transforms = transform::MovingAverageRange(128, 1, 40);
  manual.epsilon = ts::CorrelationToDistanceThreshold(0.96, 128);
  const auto via_api =
      engine.Execute(manual, {.planner = {.algorithm = core::Algorithm::kMtIndex}});
  ASSERT_TRUE(via_api.ok());
  EXPECT_EQ(via_lang->range()->matches.size(),
            via_api->range()->matches.size());
}

TEST(CompilerTest, KnnQueryEndToEnd) {
  const auto engine = MakeEngine();
  const auto compiled = CompileQuery(
      "find 4 nearest to series 2 under mv(1..10) using scan", engine);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  EXPECT_EQ(compiled->options.planner.algorithm, core::Algorithm::kSequentialScan);
  const auto* spec = std::get_if<core::KnnQuerySpec>(&compiled->spec);
  ASSERT_NE(spec, nullptr);
  EXPECT_EQ(spec->k, 4u);
  const auto result = engine.Execute(*spec, compiled->options);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->knn()->matches.size(), 4u);
  EXPECT_EQ(result->knn()->matches[0].series_id, 2u);
}

TEST(CompilerTest, JoinQueryEndToEnd) {
  const auto engine = MakeEngine();
  const auto compiled = CompileQuery(
      "find pairs under mv(5..14) within correlation 0.99", engine);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  const auto* spec = std::get_if<core::JoinQuerySpec>(&compiled->spec);
  ASSERT_NE(spec, nullptr);
  EXPECT_EQ(spec->mode, core::JoinMode::kCorrelation);
  EXPECT_TRUE(engine.Execute(*spec, compiled->options).ok());
}

TEST(CompilerTest, GroupingOptions) {
  const auto engine = MakeEngine();
  const auto per_mbr = CompileQuery(
      "find similar to series 0 under mv(6..29) within correlation 0.96 "
      "per_mbr 8",
      engine);
  ASSERT_TRUE(per_mbr.ok());
  EXPECT_EQ(std::get<core::RangeQuerySpec>(per_mbr->spec).partition.size(),
            3u);

  const auto clustered = CompileQuery(
      "find similar to series 0 under mv(6..29), invert then mv(6..29) "
      "within correlation 0.96 clustered",
      engine);
  ASSERT_TRUE(clustered.ok());
  EXPECT_GE(std::get<core::RangeQuerySpec>(clustered->spec).partition.size(),
            2u);
}

TEST(CompilerTest, ApplyDataAndOrdered) {
  const auto engine = MakeEngine();
  const auto data_only = CompileQuery(
      "find similar to series 1 under shift(0..5) within distance 2 apply "
      "data",
      engine);
  ASSERT_TRUE(data_only.ok());
  EXPECT_EQ(std::get<core::RangeQuerySpec>(data_only->spec).target,
            core::TransformTarget::kDataOnly);

  const auto ordered = CompileQuery(
      "find similar to series 1 under scale(2..50) within distance 30 "
      "ordered",
      engine);
  ASSERT_TRUE(ordered.ok());
  EXPECT_TRUE(std::get<core::RangeQuerySpec>(ordered->spec).use_ordering);
}

TEST(CompilerTest, SemanticErrors) {
  const auto engine = MakeEngine();
  EXPECT_EQ(CompileQuery("find similar to series 9999 under mv(3) within "
                         "distance 1",
                         engine)
                .status()
                .code(),
            StatusCode::kNotFound);
  EXPECT_EQ(CompileQuery("find similar to series 0 under mv(3) within "
                         "correlation 1.5",
                         engine)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(CompileQuery("find pairs under mv(3) within correlation 0.9 "
                         "ordered",
                         engine)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(CompileQuery("find similar to series 0 under mv(2..4) within "
                         "distance 1 groups 9",
                         engine)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

// A reversed band (which BandPassTransform's check would abort on), a range
// of 10^8 values, a step below the value's ulp (which never advances) and a
// composition past the limit are each InvalidArgument at their factor.
TEST(CompilerTest, RejectsUnboundedExpansionsAtTheirPosition) {
  const auto engine = MakeEngine();
  const std::string prefix = "find similar to series 1 under ";
  const struct {
    const char* transforms;
    std::size_t factor_offset;  // of the rejected factor, in `transforms`
  } cases[] = {
      {"band(5, 2)", 0},
      {"scale(1..100000000)", 0},
      {"scale(1..2:1e-300)", 0},
      {"scale(1..4097)", 0},
      {"scale(1..64) then scale(1..65)", 18},
      {"scale(1..4000), scale(1..97)", 16},
  };
  for (const auto& c : cases) {
    const auto compiled = CompileQuery(
        prefix + c.transforms + " within correlation 0.96", engine);
    ASSERT_FALSE(compiled.ok()) << c.transforms;
    EXPECT_EQ(compiled.status().code(), StatusCode::kInvalidArgument)
        << c.transforms;
    const std::string position =
        "(at position " + std::to_string(prefix.size() + c.factor_offset) +
        ")";
    EXPECT_NE(compiled.status().message().find(position), std::string::npos)
        << c.transforms << ": " << compiled.status().ToString();
  }
}

// The bounds admit exactly 4 096 values and transformations, and a range
// that passes keeps the values its step accumulates.
TEST(CompilerTest, ExpansionBoundsAdmitTheirLimit) {
  const auto engine = MakeEngine();
  for (const char* transforms :
       {"scale(1..4096)", "scale(1..64) then scale(1..64)",
        "scale(1..4000), scale(1..96)"}) {
    const auto compiled = CompileQuery(
        std::string("find similar to series 1 under ") + transforms +
            " within correlation 0.96",
        engine);
    ASSERT_TRUE(compiled.ok()) << transforms << ": "
                               << compiled.status().ToString();
    EXPECT_EQ(
        std::get<core::RangeQuerySpec>(compiled->spec).transforms.size(),
        4096u)
        << transforms;
  }
  Pipeline pipeline = {Factor{"scale", {Arg{0.1, 0.5, 0.1, true}}, 0}};
  const auto transforms = ExpandPipelines({pipeline}, 128);
  ASSERT_TRUE(transforms.ok()) << transforms.status().ToString();
  ASSERT_EQ(transforms->size(), 5u);
  double expected = 0.1;  // 0.1 + 0.1 + 0.1 is not 0.3
  for (const transform::SpectralTransform& t : *transforms) {
    EXPECT_EQ(t.multiplier(0).real(), expected);
    expected += 0.1;
  }
}

TEST(CompilerTest, AllDocumentedExamplesCompile) {
  // Every complete example in docs/QUERY_LANGUAGE.md must compile.
  const auto engine = MakeEngine();
  const char* examples[] = {
      "find similar to series 17 under mv(1..40) within correlation 0.96",
      "find similar to series 3 under mv(6..29), invert then mv(6..29) "
      "within correlation 0.96 clustered",
      "find similar to series 2 under scale(2..100) within distance 40 "
      "ordered using scan",
      "find 5 nearest to series 3 under momentum then shift(-5..5) apply "
      "data",
      "find pairs under mv(5..14) within correlation 0.99 using st",
  };
  for (const char* text : examples) {
    const auto compiled = CompileQuery(text, engine);
    EXPECT_TRUE(compiled.ok())
        << text << ": " << compiled.status().ToString();
  }
}

TEST(CompilerTest, ExecuteRendersJoinSummary) {
  const auto engine = MakeEngine();
  const auto join = CompileQuery(
      "find pairs under mv(5..9) within correlation 0.99", engine);
  ASSERT_TRUE(join.ok());
  const auto rendered = Execute(*join, engine, 5);
  ASSERT_TRUE(rendered.ok());
  EXPECT_NE(rendered->find("pair match(es)"), std::string::npos);
}

TEST(CompilerTest, ExecuteRendersSummaries) {
  const auto engine = MakeEngine();
  const auto compiled = CompileQuery(
      "find similar to series 7 under mv(1..10) within correlation 0.96",
      engine);
  ASSERT_TRUE(compiled.ok());
  const auto rendered = Execute(*compiled, engine, 3);
  ASSERT_TRUE(rendered.ok());
  EXPECT_NE(rendered->find("match(es)"), std::string::npos);
  EXPECT_NE(rendered->find("series 7"), std::string::npos);  // self match

  const auto knn = CompileQuery(
      "find 2 nearest to series 0 under identity", engine);
  ASSERT_TRUE(knn.ok());
  const auto knn_text = Execute(*knn, engine);
  ASSERT_TRUE(knn_text.ok());
  EXPECT_NE(knn_text->find("neighbour"), std::string::npos);
}

}  // namespace
}  // namespace tsq::lang

// Per-layer replays of the traced run: each metric times calls into one
// layer's public functions, from this file, on the workload's own engine
// (or on a copy of its structures the benchmark owns). Every replay is one
// root span; each timed chunk of calls is a child span.

#include <cstdio>
#include <span>
#include <variant>

#include "bench.h"
#include "common/clock.h"
#include "common/rng.h"
#include "kernels/kernels.h"
#include "obs/metrics.h"
#include "plan/planner.h"
#include "rstar/rstar_tree.h"
#include "storage/page_file.h"
#include "ts/distance.h"
#include "ts/generate.h"

namespace tsq::perfbench {

namespace {

constexpr std::uint64_t kReplayStream = 5;
constexpr std::size_t kChunks = 16;

// Times `chunks` x `per_chunk` calls of call(k), k = 0, 1, ...; returns the
// median over chunks of the mean nanoseconds per call. A call returns false
// on failure, which is counted in *failures.
template <typename Call>
double NanosPerCall(SpanLog* spans, const std::string& name,
                    std::size_t per_chunk, std::size_t* failures,
                    Call&& call) {
  const std::uint64_t op_id = spans->NextOpId();
  std::vector<double> per_call;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> chunk_spans;
  const std::uint64_t start = MonotonicNanos();
  std::size_t k = 0;
  for (std::size_t c = 0; c < kChunks; ++c) {
    const std::uint64_t t0 = MonotonicNanos();
    for (std::size_t j = 0; j < per_chunk; ++j) {
      if (!call(k++)) ++*failures;
    }
    const std::uint64_t t1 = MonotonicNanos();
    per_call.push_back(static_cast<double>(t1 - t0) /
                       static_cast<double>(per_chunk));
    chunk_spans.emplace_back(t0, t1);
  }
  const std::int64_t root =
      spans->Add("replay." + name, start, MonotonicNanos(), -1, op_id);
  for (const auto& [t0, t1] : chunk_spans) {
    spans->Add(name, t0, t1, root, op_id);
  }
  return Quantile(std::move(per_call), 0.5);
}

std::span<const double> AsDoubles(const std::vector<dft::Complex>& x) {
  return {reinterpret_cast<const double*>(x.data()), 2 * x.size()};
}

std::vector<std::size_t> LiveIds(const core::Dataset& dataset, Rng& rng,
                                 std::size_t count) {
  std::vector<std::size_t> ids;
  ids.reserve(count);
  while (ids.size() < count) {
    const auto id = static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(dataset.size()) - 1));
    if (!dataset.removed(id)) ids.push_back(id);
  }
  return ids;
}

}  // namespace

std::map<std::string, double> ReplayLayers(const WorkloadConfig& workload,
                                           core::SimilarityEngine& engine,
                                           std::uint64_t seed,
                                           const std::string& scratch_dir,
                                           SpanLog* spans,
                                           std::size_t* failures) {
  std::map<std::string, double> out;
  const core::Dataset& dataset = engine.dataset();
  Rng rng(Mix(seed, kReplayStream));
  const std::vector<std::size_t> ids = LiveIds(dataset, rng, 1024);
  const auto id_at = [&ids](std::size_t k) { return ids[k % ids.size()]; };

  // --- core / storage: record fetches -------------------------------------
  out["core.fetch_spectrum_ns"] = NanosPerCall(
      spans, "core.fetch_spectrum", 256, failures,
      [&](std::size_t k) { return dataset.FetchSpectrum(id_at(k)).ok(); });
  out["storage.record_get_ns"] = NanosPerCall(
      spans, "storage.record_get", 256, failures, [&](std::size_t k) {
        return dataset.records().GetSeries(dataset.record_id(id_at(k))).ok();
      });

  // --- storage: raw page I/O on a copy of the record file ------------------
  {
    const std::string path = scratch_dir + "/records." + workload.name;
    storage::PageFile copy;
    if (!dataset.SaveRecordsTo(path).ok() || !copy.LoadFrom(path).ok()) {
      ++*failures;
    }
    std::remove(path.c_str());
    const std::size_t pages = copy.page_count();
    std::vector<storage::PageId> order(1024);
    for (storage::PageId& p : order) {
      p = static_cast<storage::PageId>(
          rng.UniformInt(0, static_cast<std::int64_t>(pages) - 1));
    }
    storage::Page page;
    out["storage.page_read_ns"] = NanosPerCall(
        spans, "storage.page_read", 256, failures, [&](std::size_t k) {
          return copy.Read(order[k % order.size()], &page).ok();
        });
    out["storage.page_write_ns"] = NanosPerCall(
        spans, "storage.page_write", 256, failures, [&](std::size_t k) {
          // Writes back the page last read: valid content, same checksum work.
          return copy.Write(order[k % order.size()], page).ok();
        });
  }

  // --- rstar: node decode over every page of the workload's tree -----------
  {
    const rstar::RStarTree& tree = engine.index().tree();
    std::vector<storage::PageId> nodes;
    if (!tree.VisitNodes([&nodes](const rstar::RStarTree::NodeView& view) {
               nodes.push_back(view.page);
             }).ok()) {
      ++*failures;
    }
    rstar::RStarTree::NodeView view;
    out["rstar.node_read_ns"] = NanosPerCall(
        spans, "rstar.node_read", nodes.size(), failures, [&](std::size_t k) {
          return tree.ReadNodeView(nodes[k % nodes.size()], &view).ok();
        });
  }

  // --- rstar: insert / delete on a bulk-loaded tree the benchmark owns -----
  {
    storage::PageFile file;
    const std::size_t dims = dataset.features(0).size();
    rstar::RStarTree tree(&file, dims);
    std::vector<rstar::Entry> entries;
    for (std::size_t i = 0; i < dataset.size(); ++i) {
      if (dataset.removed(i)) continue;
      entries.push_back({rstar::Rect::FromPoint(dataset.features(i)), i});
    }
    if (!tree.BulkLoad(std::move(entries)).ok()) ++*failures;
    // New points: live feature vectors nudged by up to 0.1%.
    std::vector<rstar::Entry> fresh;
    for (std::size_t k = 0; k < kChunks * 16; ++k) {
      rstar::Point point = dataset.features(id_at(k));
      for (double& x : point) x *= 1.0 + 1e-3 * rng.Uniform(-1.0, 1.0);
      fresh.push_back({rstar::Rect::FromPoint(point), dataset.size() + k});
    }
    out["rstar.insert_us"] =
        NanosPerCall(spans, "rstar.insert", 16, failures, [&](std::size_t k) {
          return tree.Insert(fresh[k].rect, fresh[k].id).ok();
        }) / 1e3;
    out["rstar.delete_us"] =
        NanosPerCall(spans, "rstar.delete", 16, failures, [&](std::size_t k) {
          return tree.Delete(fresh[k].rect, fresh[k].id).ok();
        }) / 1e3;
  }

  // --- kernels: the dispatched Eq. 12 comparison with the query's bound ----
  const core::QuerySpec spec = RepresentativeSpec(workload, engine, ids[0]);
  {
    const auto* range = std::get_if<core::RangeQuerySpec>(&spec);
    const auto& transforms =
        range != nullptr ? range->transforms
                         : std::get<core::JoinQuerySpec>(spec).transforms;
    // The join has no epsilon; its index filter uses the Eq. 9 threshold.
    const double epsilon =
        range != nullptr ? range->epsilon
                         : ts::CorrelationToDistanceThreshold(
                               std::get<core::JoinQuerySpec>(spec).min_correlation,
                               dataset.length());
    Result<std::vector<dft::Complex>> query = dataset.FetchSpectrum(ids[0]);
    if (!query.ok()) {
      ++*failures;
      return out;
    }
    std::vector<std::vector<dft::Complex>> candidates;
    for (std::size_t k = 0; k < 256; ++k) {
      Result<std::vector<dft::Complex>> spectrum = dataset.FetchSpectrum(id_at(k + 1));
      if (!spectrum.ok()) {
        ++*failures;
        continue;
      }
      candidates.push_back(std::move(*spectrum));
    }
    double sink = 0.0;
    const std::size_t per_candidate = transforms.size();
    out["kernels.comparison_ns"] = NanosPerCall(
        spans, "kernels.comparison", candidates.size() * per_candidate,
        failures, [&](std::size_t k) {
          const std::size_t c = (k / per_candidate) % candidates.size();
          sink += kernels::WeightedSquaredDistanceWithin(
              AsDoubles(candidates[c]), AsDoubles(*query),
              transforms[k % per_candidate].component_squared_magnitudes(),
              epsilon * epsilon);
          return true;
        });
    if (!(sink >= 0.0)) ++*failures;
  }

  // --- plan: cached plans, and the first plan after a write ----------------
  {
    const core::PlannerOptions options = BenchExecOptions().planner;
    plan::Planner& planner = engine.planner();
    const auto plan = [&]() {
      return std::visit(
          [&](const auto& s) { return planner.Plan(s, options).ok(); }, spec);
    };
    if (!plan()) ++*failures;  // make sure the next calls hit the cache
    out["plan.plan_ns"] = NanosPerCall(spans, "plan.plan", 64, failures,
                                       [&](std::size_t) { return plan(); });

    // Each round inserts a fresh random walk (the write bumps the planner
    // epoch), times the first Plan() after it, and removes the walk again.
    obs::Counter* page_writes =
        obs::MetricsRegistry::Global().counter("storage.page_file.writes");
    std::uint64_t writes = 0;
    std::vector<double> replan;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> plan_spans;
    const std::uint64_t op_id = spans->NextOpId();
    const std::uint64_t start = MonotonicNanos();
    for (std::size_t round = 0; round < kChunks; ++round) {
      const ts::Series walk =
          ts::GenerateRandomWalk(dataset.length(), 500.0, rng);
      const std::uint64_t before = page_writes->value();
      const Result<std::size_t> id = engine.Insert(walk);
      if (!id.ok()) {
        ++*failures;
        continue;
      }
      writes += page_writes->value() - before;
      const std::uint64_t t0 = MonotonicNanos();
      if (!plan()) ++*failures;
      const std::uint64_t t1 = MonotonicNanos();
      replan.push_back(static_cast<double>(t1 - t0));
      plan_spans.emplace_back(t0, t1);
      if (!engine.Remove(*id).ok()) ++*failures;
    }
    const std::int64_t root =
        spans->Add("replay.plan.replan", start, MonotonicNanos(), -1, op_id);
    for (const auto& [t0, t1] : plan_spans) {
      spans->Add("plan.replan", t0, t1, root, op_id);
    }
    out["plan.replan_ns"] = Quantile(replan, 0.5);
    out["storage.page_writes_per_insert"] =
        replan.empty() ? 0.0
                       : static_cast<double>(writes) /
                             static_cast<double>(replan.size());
  }
  return out;
}

}  // namespace tsq::perfbench

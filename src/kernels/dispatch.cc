// Runtime dispatch: the active ISA is resolved once (TSQ_KERNEL_ISA, then
// CPUID) and cached in an atomic; every dispatched entry point routes through
// the selected variant's table and maintains the engine.kernels.* metrics.
// Because both variants are bitwise identical (see internal.h), the choice
// is purely a speed decision and is excluded from deterministic signatures.

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "common/check.h"
#include "kernels/internal.h"
#include "kernels/kernels.h"
#include "obs/metrics.h"

namespace tsq::kernels {

namespace {

struct KernelMetrics {
  obs::Counter* calls;
  obs::Counter* elements;
  obs::Counter* early_abandons;
};

KernelMetrics& Metrics() {
  static KernelMetrics m = [] {
    auto& reg = obs::MetricsRegistry::Global();
    return KernelMetrics{reg.counter("engine.kernels.calls"),
                         reg.counter("engine.kernels.elements"),
                         reg.counter("engine.kernels.early_abandons")};
  }();
  return m;
}

// One update per counter per dispatched call.
inline void Count(std::size_t calls, std::size_t elements,
                  std::size_t abandons) {
  KernelMetrics& m = Metrics();
  m.calls->Increment(calls);
  m.elements->Increment(elements);
  if (abandons > 0) m.early_abandons->Increment(abandons);
}

// kScalar + 1 etc.; 0 means "not yet resolved".
std::atomic<int> g_active{0};
// The active ISA's table, set where the ISA is resolved or forced (nullptr
// until then), so that a dispatched call costs one atomic load.
std::atomic<const KernelTable*> g_table{nullptr};

inline const KernelTable& ActiveTable() {
  const KernelTable* table = g_table.load(std::memory_order_acquire);
  return table != nullptr ? *table : TableFor(ActiveIsa());
}

// The weighted kernel of the active ISA on `count` weight vectors whose
// lengths the caller checked, counted per weight vector.
inline void RunWeighted(const double* x, const double* y,
                        const std::span<const double>* w, std::size_t count,
                        std::size_t n, double bound, EarlyAbandonResult* out) {
  ActiveTable().weighted_squared_distance_within(x, y, w, count, n, bound,
                                                 out);
  std::size_t elements = 0;
  std::size_t abandons = 0;
  for (std::size_t t = 0; t < count; ++t) {
    elements += out[t].consumed;
    if (out[t].consumed < n) ++abandons;
  }
  Count(count, elements, abandons);
}

}  // namespace

const char* IsaName(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return "scalar";
    case Isa::kAvx2:
      return "avx2";
  }
  return "unknown";
}

bool IsaSupported(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return true;
    case Isa::kAvx2:
#if defined(__x86_64__) || defined(_M_X64)
      return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
      return false;
#endif
  }
  return false;
}

Isa BestSupportedIsa() {
  return IsaSupported(Isa::kAvx2) ? Isa::kAvx2 : Isa::kScalar;
}

Isa ResolveIsa(const char* env_value, Isa best_supported) {
  // Pure function of the arguments. Scalar runs everywhere, and "avx2" is
  // satisfiable exactly when AVX2 is the best supported variant, so every
  // value but "scalar" (unset, empty, "auto", "avx2", unknown) resolves to
  // best_supported.
  if (env_value != nullptr &&
      std::strcmp(env_value, IsaName(Isa::kScalar)) == 0) {
    return Isa::kScalar;
  }
  return best_supported;
}

Isa ActiveIsa() {
  int packed = g_active.load(std::memory_order_acquire);
  if (packed == 0) {
    const Isa resolved =
        ResolveIsa(std::getenv("TSQ_KERNEL_ISA"), BestSupportedIsa());
    packed = static_cast<int>(resolved) + 1;
    int expected = 0;
    // Racing first callers resolve identically (pure function of env+CPU),
    // so whoever wins the CAS is equivalent. The winner publishes its table
    // unless a forced ISA already set one.
    if (g_active.compare_exchange_strong(expected, packed,
                                         std::memory_order_acq_rel)) {
      const KernelTable* unset = nullptr;
      g_table.compare_exchange_strong(unset, &TableFor(resolved),
                                      std::memory_order_acq_rel);
    }
  }
  return static_cast<Isa>(packed - 1);
}

void ForceIsaForTesting(Isa isa) {
  TSQ_CHECK(IsaSupported(isa))
      << "cannot force unsupported kernel ISA " << IsaName(isa);
  g_active.store(static_cast<int>(isa) + 1, std::memory_order_release);
  g_table.store(&TableFor(isa), std::memory_order_release);
}

const KernelTable& TableFor(Isa isa) {
  TSQ_CHECK(IsaSupported(isa))
      << "kernel ISA " << IsaName(isa) << " not supported on this machine";
  switch (isa) {
    case Isa::kScalar:
      return ScalarKernelTable();
#if defined(__x86_64__) || defined(_M_X64)
    case Isa::kAvx2:
      return Avx2KernelTable();
#else
    default:
      break;
#endif
  }
  return ScalarKernelTable();
}

double WeightedSquaredDistanceWithin(std::span<const double> x,
                                     std::span<const double> y,
                                     std::span<const double> w, double bound) {
  TSQ_CHECK_EQ(x.size(), y.size());
  TSQ_CHECK_EQ(x.size(), w.size());
  EarlyAbandonResult r;
  RunWeighted(x.data(), y.data(), &w, 1, x.size(), bound, &r);
  return r.value;
}

void WeightedSquaredDistancesWithin(std::span<const double> x,
                                    std::span<const double> y,
                                    std::span<const std::span<const double>> w,
                                    double bound,
                                    std::span<EarlyAbandonResult> out) {
  TSQ_CHECK_EQ(x.size(), y.size());
  TSQ_CHECK_EQ(w.size(), out.size());
  for (const std::span<const double> weights : w) {
    TSQ_CHECK_EQ(x.size(), weights.size());
  }
  RunWeighted(x.data(), y.data(), w.data(), w.size(), x.size(), bound,
              out.data());
}

double TransformedToPlainSquaredDistanceWithin(std::span<const double> x,
                                               std::span<const double> q,
                                               std::span<const double> mul_re,
                                               std::span<const double> mul_im,
                                               double bound) {
  TSQ_CHECK_EQ(x.size(), q.size());
  TSQ_CHECK_EQ(x.size(), mul_re.size());
  TSQ_CHECK_EQ(x.size(), mul_im.size());
  const EarlyAbandonResult r = ActiveTable().transformed_to_plain_within(
      x.data(), q.data(), mul_re.data(), mul_im.data(), x.size(), bound);
  Count(1, r.consumed, r.consumed < x.size() ? 1 : 0);
  return r.value;
}

WeightedDotSums WeightedDotEnergies(std::span<const double> x,
                                    std::span<const double> y,
                                    std::span<const double> w) {
  TSQ_CHECK_EQ(x.size(), y.size());
  TSQ_CHECK_EQ(x.size(), w.size());
  Count(1, x.size(), 0);
  return ActiveTable().weighted_dot_sums(x.data(), y.data(), w.data(),
                                         x.size());
}

}  // namespace tsq::kernels

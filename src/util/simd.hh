/**
 * @file
 * Portable fixed-width SIMD kernels with runtime dispatch.
 *
 * The simulator's hot loops (fused symbolic SpGEMM, PE-stat folds,
 * Design-4 job weights, the numeric-SpGEMM emit) bottom out in a small
 * set of flat-array kernels. This header is their one doorway: each
 * kernel has a scalar reference implementation plus vector variants
 * (AVX2/AVX-512 on x86-64, NEON on aarch64) compiled into
 * src/util/simd.cc and selected once per process at first use.
 * misam-lint's
 * no-raw-intrinsics rule confines the intrinsics themselves to
 * src/util/simd.* so no other translation unit can fork behavior on the
 * instruction set.
 *
 * Determinism contract: every kernel is integer-exact or element-wise
 * IEEE-identical to its scalar variant — fixed-width lanes, no
 * reassociated floating-point reductions — so results are byte-equal
 * across backends and `MISAM_THREADS`. tests/test_simd_dispatch.cpp
 * pins each kernel scalar-vs-best and re-runs the golden workloads per
 * backend.
 *
 * Backend selection: the best instruction set the host supports, unless
 * `MISAM_SIMD=scalar|avx2|neon|avx512` (read through util/env.hh)
 * forces one. Forcing a backend the host cannot execute is a fatal
 * configuration error rather than a silent downgrade.
 */

#ifndef MISAM_UTIL_SIMD_HH
#define MISAM_UTIL_SIMD_HH

#include <cstddef>
#include <cstdint>

namespace misam {

class MetricsRegistry;

namespace simd {

/** Dispatch targets, in increasing preference order per platform. */
enum class Backend
{
    Scalar = 0,
    Avx2 = 1,
    Neon = 2,
    Avx512 = 3,
};

/** Stable lowercase name ("scalar", "avx2", "neon", "avx512"). */
const char *backendName(Backend backend);

/** True when this host can execute `backend`. Scalar always can. */
bool backendSupported(Backend backend);

/** The widest backend this host supports. */
Backend bestSupportedBackend();

/**
 * The backend every kernel currently dispatches to: resolved once from
 * `MISAM_SIMD` / CPU detection on first use, or the last value forced
 * by setBackendForTesting().
 */
Backend activeBackend();

/**
 * Force the dispatch target (test/bench only). Fatal when the host
 * cannot execute `backend`. Not thread-safe against in-flight kernels;
 * callers flip it between single-threaded phases.
 */
void setBackendForTesting(Backend backend);

/** Drop a forced backend and re-resolve from MISAM_SIMD / detection. */
void resetBackendFromEnv();

// ---------------------------------------------------------------------
// Kernels. All operate on 64-bit words; callers static_assert their
// element types down to these.
// ---------------------------------------------------------------------

/** acc[i] |= src[i] for i < words. */
void orInto(std::uint64_t *acc, const std::uint64_t *src,
            std::size_t words);

/** Total popcount of words[0..n), zeroing the array as it goes. */
std::uint64_t popcountAndClear(std::uint64_t *words, std::size_t n);

/**
 * Design-4 job weights: dst[i] = meta + ceil(row_nnz[i] / eff_lanes),
 * the division and ceil performed element-wise in IEEE f64 exactly as
 * the scalar loop writes them (row_nnz values must stay below 2^52,
 * which nnz counts always do).
 */
void ceilDivWeights(std::uint64_t *dst, const std::uint64_t *row_nnz,
                    std::size_t n, double eff_lanes, std::uint64_t meta);

/** Reduction of peScheduleFold over an accumulator array. */
struct PeFold
{
    std::uint64_t schedule_length = 0; ///< max over PEs.
    std::uint64_t total_elements = 0;  ///< sum of field 0.
    std::uint64_t busy_cycles = 0;     ///< sum of field 1.
};

/**
 * Fold `n` PE accumulator records laid out as 4 contiguous u64 fields
 * [total_elements, total_work, max_row_count, rows_at_max] (the layout
 * of sim::PeAccumulator). Per record the schedule length is
 * max(total_work, (max_row_count-1)*dep + rows_at_max), zero when
 * total_work is zero; the fold takes the max of those and the sums of
 * the first two fields. `dep` and every max_row_count must fit 32 bits.
 */
PeFold peScheduleFold(const std::uint64_t *acc4, std::size_t n,
                      std::uint64_t dep);

/**
 * Expand an occupancy bitmap into ascending bit positions: for each set
 * bit b of words[0..n), append `base + w*64 + bit` to dst (as u32) and
 * clear the word. Returns the number of positions written. dst must
 * have room for the total popcount. The numeric-SpGEMM emit uses this
 * to produce column-ordered output rows without sorting.
 */
std::size_t expandSetBits(std::uint64_t *words, std::size_t n,
                          std::uint32_t base, std::uint32_t *dst);

// ---------------------------------------------------------------------
// Observability. Coarse trip counters: bumped once per kernel call (or
// once per consumer call for composite paths), never per element.
// ---------------------------------------------------------------------

/** Process-lifetime totals of the SIMD-layer trip counters. */
struct SimdCounters
{
    std::uint64_t bitmap_rows = 0;        ///< Bitmap symbolic A-rows.
    std::uint64_t weight_builds = 0;      ///< ceilDivWeights calls.
    std::uint64_t pe_folds = 0;           ///< peScheduleFold calls.
    std::uint64_t csc_blocked = 0;        ///< Cache-blocked csrToCsc runs.
    std::uint64_t expand_rows = 0;        ///< Numeric bitmap-emit rows.
};

/** Snapshot of the process-wide SIMD counters. */
SimdCounters simdCounters();

/** Consumer-side bumps for composite paths (see SimdCounters). */
void noteBitmapRows(std::uint64_t rows);
void noteBlockedCsc();
void noteExpandRows(std::uint64_t rows);

/**
 * Mirror future SIMD-layer events into `registry`: the `simd.backend`
 * gauge (Backend ordinal) plus the `simd.*` trip counters
 * (docs/OBSERVABILITY.md). nullptr detaches. Same contract as
 * setSimKernelMetrics: resolve-at-attach, mirroring starts at zero, and
 * the golden-trace registries never attach it.
 */
void setSimdMetrics(MetricsRegistry *registry);

/** RAII attach/detach for setSimdMetrics. */
class ScopedSimdMetrics
{
  public:
    explicit ScopedSimdMetrics(MetricsRegistry *registry)
    {
        setSimdMetrics(registry);
    }

    ~ScopedSimdMetrics() { setSimdMetrics(nullptr); }

    ScopedSimdMetrics(const ScopedSimdMetrics &) = delete;
    ScopedSimdMetrics &operator=(const ScopedSimdMetrics &) = delete;
};

} // namespace simd
} // namespace misam

#endif // MISAM_UTIL_SIMD_HH

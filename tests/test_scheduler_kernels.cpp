/**
 * @file
 * Bit-identity and bookkeeping tests for the scratch-arena scheduler
 * kernels and the shared symbolic-SpGEMM cache (sim/workspace.hh).
 *
 * The contract under test: the stamped flat kernels (schedule,
 * scheduleFromHistogram) and the fused symbolic analysis reproduce the
 * retained naive reference kernels byte-for-byte on every field, across
 * matrix structures, tilings, PE counts, dependency distances, both
 * scheduler policies, and the weighted Design-4 path — while performing
 * zero steady-state heap allocations and keeping the kernel counters
 * deterministic for any thread count.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <tuple>
#include <vector>

#include "sim/design_sim.hh"
#include "sim/scheduler.hh"
#include "sim/tiling.hh"
#include "sim/workspace.hh"
#include "sparse/convert.hh"
#include "sparse/generate.hh"
#include "sparse/spgemm.hh"
#include "util/metrics.hh"
#include "util/parallel.hh"
#include "util/random.hh"
#include "util/simd.hh"

#include "simd_test_util.hh"

namespace misam {
namespace {

/** Restore the reference-kernel flag even if a test assertion fails. */
class ReferenceKernelGuard
{
  public:
    ReferenceKernelGuard() : saved_(useReferenceSimKernels()) {}
    ~ReferenceKernelGuard() { setUseReferenceSimKernels(saved_); }

  private:
    bool saved_;
};

CsrMatrix
makeMatrix(int structure, Index rows, Index cols, double density, Rng &rng)
{
    switch (structure) {
      case 0:
        return generateUniform(rows, cols, density, rng);
      case 1:
        return generateRowImbalanced(rows, cols, density, 0.05, 20.0,
                                     rng);
      default:
        return generateBanded(rows, cols, std::max<Index>(cols / 8, 1),
                              density * 4.0, rng);
    }
}

void
expectStatsEqual(const TileScheduleStats &fast,
                 const TileScheduleStats &ref)
{
    EXPECT_EQ(fast.schedule_length, ref.schedule_length);
    EXPECT_EQ(fast.total_elements, ref.total_elements);
    EXPECT_EQ(fast.busy_cycles, ref.busy_cycles);
    EXPECT_EQ(fast.bubble_cycles, ref.bubble_cycles);
    EXPECT_EQ(fast.slot_cycles, ref.slot_cycles);
    // Bit-identity, not tolerance: both kernels evaluate the same
    // division on the same integers.
    EXPECT_EQ(fast.pe_utilization, ref.pe_utilization);
}

void
expectSimEqual(const SimResult &fast, const SimResult &ref)
{
    EXPECT_EQ(fast.design, ref.design);
    EXPECT_EQ(fast.total_cycles, ref.total_cycles);
    EXPECT_EQ(fast.exec_seconds, ref.exec_seconds);
    EXPECT_EQ(fast.read_a_cycles, ref.read_a_cycles);
    EXPECT_EQ(fast.read_b_cycles, ref.read_b_cycles);
    EXPECT_EQ(fast.compute_cycles, ref.compute_cycles);
    EXPECT_EQ(fast.write_c_cycles, ref.write_c_cycles);
    EXPECT_EQ(fast.overhead_cycles, ref.overhead_cycles);
    EXPECT_EQ(fast.pe_utilization, ref.pe_utilization);
    EXPECT_EQ(fast.multiplies, ref.multiplies);
    EXPECT_EQ(fast.output_nnz, ref.output_nnz);
    EXPECT_EQ(fast.num_tiles, ref.num_tiles);
    EXPECT_EQ(fast.avg_power_watts, ref.avg_power_watts);
    EXPECT_EQ(fast.energy_joules, ref.energy_joules);
    EXPECT_EQ(fast.stats.issued_nonzeros, ref.stats.issued_nonzeros);
    EXPECT_EQ(fast.stats.busy_cycles, ref.stats.busy_cycles);
    EXPECT_EQ(fast.stats.bubble_cycles, ref.stats.bubble_cycles);
    EXPECT_EQ(fast.stats.slot_cycles, ref.stats.slot_cycles);
    EXPECT_EQ(fast.stats.fill_cycles, ref.stats.fill_cycles);
    EXPECT_EQ(fast.stats.tile_refills, ref.stats.tile_refills);
    EXPECT_EQ(fast.stats.hbm_read_a_bytes, ref.stats.hbm_read_a_bytes);
    EXPECT_EQ(fast.stats.hbm_read_b_bytes, ref.stats.hbm_read_b_bytes);
    EXPECT_EQ(fast.stats.hbm_write_c_bytes, ref.stats.hbm_write_c_bytes);
    EXPECT_EQ(fast.stats.b_bytes_dense_equiv,
              ref.stats.b_bytes_dense_equiv);
}

// --------------------------------------------------------------------
// schedule() vs scheduleReference(): every policy, weighting, shape
// --------------------------------------------------------------------

class KernelSweep
    : public testing::TestWithParam<std::tuple<int, int, int, int>>
{
};

TEST_P(KernelSweep, StampedKernelMatchesReference)
{
    const auto [kind_idx, pes, dep, structure] = GetParam();
    const auto kind = static_cast<SchedulerKind>(kind_idx);
    Rng rng(static_cast<std::uint64_t>(kind_idx) * 7919 +
            static_cast<std::uint64_t>(pes) * 131 +
            static_cast<std::uint64_t>(dep) * 17 +
            static_cast<std::uint64_t>(structure));
    const CsrMatrix a = makeMatrix(structure, 160, 224, 0.06, rng);
    const CscMatrix a_csc = csrToCsc(a);
    const TileScheduler sched(kind, pes, dep);

    // Column-dependent weights exercising the Design-4 path, including
    // zeros (both kernels clamp to >= 1).
    std::vector<Offset> weights(a.cols());
    for (Offset &w : weights)
        w = rng.uniformInt(std::uint64_t{7});

    for (const Index height : {Index{32}, Index{70}, Index{224}}) {
        const auto tiles = fixedRowTiles(a.cols(), height);
        for (const KTile &tile : tiles) {
            const std::vector<Offset> *weight_options[] = {nullptr,
                                                           &weights};
            for (const std::vector<Offset> *w : weight_options) {
                expectStatsEqual(sched.schedule(a_csc, tile, w),
                                 sched.scheduleReference(a_csc, tile, w));
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KernelSweep,
    testing::Combine(testing::Values(0, 1), testing::Values(1, 3, 16, 64),
                     testing::Values(1, 2, 5), testing::Values(0, 1, 2)));

TEST(SchedulerKernels, EmptyTileMatchesReference)
{
    Rng rng(11);
    const CsrMatrix a = generateUniform(64, 64, 0.05, rng);
    const CscMatrix a_csc = csrToCsc(a);
    const TileScheduler sched(SchedulerKind::Row, 8, 2);
    expectStatsEqual(sched.schedule(a_csc, {10, 10}),
                     sched.scheduleReference(a_csc, {10, 10}));
}

// Row policy has three routes: the bucketing pass (schedule), the
// retained strided pass (scheduleRowStrided), and the hash-map
// reference. All three must agree on every shape, tile offset, PE
// count, and weighting — including tiles whose k_lo is not a multiple
// of the PE stride (the remainder arithmetic scheduleRowStrided
// hoists).
TEST(SchedulerKernels, RowStridedRouteMatchesBucketingAndReference)
{
    for (const int structure : {0, 1, 2}) {
        Rng rng(static_cast<std::uint64_t>(structure) + 23);
        const CsrMatrix a = makeMatrix(structure, 160, 224, 0.06, rng);
        const CscMatrix a_csc = csrToCsc(a);
        std::vector<Offset> weights(a.cols());
        for (Offset &w : weights)
            w = rng.uniformInt(std::uint64_t{7});

        for (const int pes : {1, 3, 16, 64}) {
            const TileScheduler sched(SchedulerKind::Row, pes, 2);
            for (const Index height : {Index{32}, Index{70}, Index{224}}) {
                for (const KTile &tile : fixedRowTiles(a.cols(), height)) {
                    const std::vector<Offset> *weight_options[] = {
                        nullptr, &weights};
                    for (const std::vector<Offset> *w : weight_options) {
                        const TileScheduleStats ref =
                            sched.scheduleReference(a_csc, tile, w);
                        expectStatsEqual(
                            sched.scheduleRowStrided(a_csc, tile, w), ref);
                        expectStatsEqual(sched.schedule(a_csc, tile, w),
                                         ref);
                    }
                }
            }
        }
    }
}

// --------------------------------------------------------------------
// precomputed histograms: the shared-plan fold
// --------------------------------------------------------------------

TEST(SchedulerKernels, HistogramFoldMatchesReference)
{
    Rng rng(42);
    const CsrMatrix a =
        generateRowImbalanced(192, 256, 0.05, 0.05, 20.0, rng);
    const CscMatrix a_csc = csrToCsc(a);
    const auto tiles = fixedRowTiles(a.cols(), 48);
    const TileRowHistograms hist = buildTileRowHistograms(a_csc, tiles);
    ASSERT_EQ(hist.tile_ptr.size(), tiles.size() + 1);

    for (const int pes : {1, 4, 32}) {
        const TileScheduler sched(SchedulerKind::Col, pes, 2);
        for (std::size_t t = 0; t < tiles.size(); ++t) {
            expectStatsEqual(sched.scheduleFromHistogram(hist.tileBins(t)),
                             sched.scheduleReference(a_csc, tiles[t]));
        }
    }
}

// --------------------------------------------------------------------
// whole-simulator bit-identity: fast kernels vs reference kernels
// --------------------------------------------------------------------

class DesignIdentity : public testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(DesignIdentity, FastPathMatchesReferencePath)
{
    const auto [design_idx, structure] = GetParam();
    const DesignId id = allDesigns()[static_cast<std::size_t>(design_idx)];
    ReferenceKernelGuard guard;
    Rng rng(static_cast<std::uint64_t>(design_idx) * 100 +
            static_cast<std::uint64_t>(structure));
    const CsrMatrix a = makeMatrix(structure, 200, 180, 0.04, rng);
    const CsrMatrix b = makeMatrix(structure, 180, 96, 0.08, rng);

    setUseReferenceSimKernels(true);
    const SimResult ref = simulateDesign(id, a, b);
    setUseReferenceSimKernels(false);
    const SimResult fast = simulateDesign(id, a, b);
    expectSimEqual(fast, ref);
}

INSTANTIATE_TEST_SUITE_P(Designs, DesignIdentity,
                         testing::Combine(testing::Values(0, 1, 2, 3),
                                          testing::Values(0, 1, 2)));

TEST(DesignIdentityAll, AllDesignsAndOverloadsAgree)
{
    ReferenceKernelGuard guard;
    Rng rng(7);
    const CsrMatrix a =
        generateRowImbalanced(240, 200, 0.05, 0.1, 15.0, rng);
    const CsrMatrix b = generateUniform(200, 128, 0.03, rng);
    const CscMatrix a_csc = csrToCsc(a);

    setUseReferenceSimKernels(true);
    const auto ref = simulateAllDesigns(a, b);
    setUseReferenceSimKernels(false);
    const auto fast = simulateAllDesigns(a, b);
    const auto fast_csc = simulateAllDesigns(a, a_csc, b);
    const SymbolicStats symbolic = spgemmSymbolic(a, b);
    const auto fast_sym = simulateAllDesigns(a, a_csc, b, 1, &symbolic);
    for (std::size_t i = 0; i < kNumDesigns; ++i) {
        expectSimEqual(fast[i], ref[i]);
        expectSimEqual(fast_csc[i], ref[i]);
        expectSimEqual(fast_sym[i], ref[i]);
        // The shared-plan fan-out must agree with the one-design entry
        // points, pass-through CSC or not.
        expectSimEqual(simulateDesign(allDesigns()[i], a, b), ref[i]);
        expectSimEqual(simulateDesign(allDesigns()[i], a, a_csc, b),
                       ref[i]);
    }
}

TEST(DesignIdentityAll, DetailedAndFunctionalOverloadsAgree)
{
    ReferenceKernelGuard guard;
    Rng rng(19);
    const CsrMatrix a = generateBanded(160, 160, 24, 0.3, rng);
    const CsrMatrix b = generateUniform(160, 64, 0.06, rng);
    const CscMatrix a_csc = csrToCsc(a);

    for (const DesignId id : allDesigns()) {
        const DesignConfig &cfg = designConfig(id);
        setUseReferenceSimKernels(true);
        const DetailedSimResult ref = simulateDesignDetailed(cfg, a, b);
        setUseReferenceSimKernels(false);
        const DetailedSimResult fast =
            simulateDesignDetailed(cfg, a, a_csc, b);
        expectSimEqual(fast.summary, ref.summary);
        ASSERT_EQ(fast.tiles.size(), ref.tiles.size());
        for (std::size_t t = 0; t < ref.tiles.size(); ++t) {
            EXPECT_EQ(fast.tiles[t].a_elements, ref.tiles[t].a_elements);
            EXPECT_EQ(fast.tiles[t].compute_cycles,
                      ref.tiles[t].compute_cycles);
            EXPECT_EQ(fast.tiles[t].pe_utilization,
                      ref.tiles[t].pe_utilization);
        }

        const FunctionalResult fn = executeFunctional(cfg, a, a_csc, b);
        expectSimEqual(fn.sim, fast.summary);
        EXPECT_EQ(fn.product, spgemmRowWise(a, b));
    }
}

// --------------------------------------------------------------------
// symbolic analysis: fused pass and the fingerprint cache
// --------------------------------------------------------------------

TEST(SymbolicSpgemm, FusedPassMatchesTwoPassReference)
{
    for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
        Rng rng(seed);
        const CsrMatrix a = makeMatrix(static_cast<int>(seed % 3), 120,
                                       140, 0.05, rng);
        const CsrMatrix b = generateUniform(140, 80, 0.07, rng);
        const SymbolicStats sym = spgemmSymbolic(a, b);
        EXPECT_EQ(sym.multiplies, spgemmMultiplyCount(a, b));
        EXPECT_EQ(sym.output_nnz, spgemmOutputNnz(a, b));
        ASSERT_EQ(sym.b_row_nnz.size(), b.rows());
        for (Index k = 0; k < b.rows(); ++k)
            EXPECT_EQ(sym.b_row_nnz[k], b.rowNnz(k));
    }
}

// --------------------------------------------------------------------
// symbolic full-row rule: in the bitmap merge, an A row selecting a
// full B row (nnz == b.cols()) has exactly b.cols() output columns and
// skips the merge
// --------------------------------------------------------------------

/** CSR with unit values; each row's columns are sorted here. */
CsrMatrix
csrFromRows(Index cols, std::vector<std::vector<Index>> rows)
{
    std::vector<Offset> row_ptr = {0};
    std::vector<Index> col_idx;
    for (std::vector<Index> &r : rows) {
        std::sort(r.begin(), r.end());
        col_idx.insert(col_idx.end(), r.begin(), r.end());
        row_ptr.push_back(col_idx.size());
    }
    std::vector<Value> values(col_idx.size(), 1.0);
    return {static_cast<Index>(rows.size()), cols, std::move(row_ptr),
            std::move(col_idx), std::move(values)};
}

/** Every column of a `cols`-wide row except `skip` (none if >= cols). */
std::vector<Index>
allColumnsBut(Index cols, Index skip)
{
    std::vector<Index> row;
    for (Index j = 0; j < cols; ++j)
        if (j != skip)
            row.push_back(j);
    return row;
}

/** `count` distinct random columns below `cols`. */
std::vector<Index>
randomColumns(Index cols, Index count, Rng &rng)
{
    std::vector<Index> row(cols);
    std::iota(row.begin(), row.end(), Index{0});
    for (Index i = 0; i < count; ++i)
        std::swap(row[i], row[i + rng.uniformInt(cols - i)]);
    row.resize(count);
    return row;
}

/**
 * spgemmSymbolic against the two-pass references and b_row_nnz under
 * every backend, on the bitmap merge (which counts every A row in
 * simd.bitmap_rows; the variant is a function of shape).
 */
void
expectBitmapSymbolicMatchesReference(const CsrMatrix &a,
                                     const CsrMatrix &b, const char *what)
{
    const Offset want_mult = spgemmMultiplyCount(a, b);
    const Offset want_nnz = spgemmOutputNnz(a, b);
    for (const simd::Backend backend : simd_test::backendsUnderTest()) {
        simd_test::ScopedBackend forced(backend);
        const std::uint64_t rows_before = simd::simdCounters().bitmap_rows;
        const SymbolicStats sym = spgemmSymbolic(a, b);
        const char *name = simd::backendName(backend);
        EXPECT_EQ(simd::simdCounters().bitmap_rows - rows_before,
                  a.rows())
            << what << " backend=" << name;
        EXPECT_EQ(sym.multiplies, want_mult) << what << " backend=" << name;
        EXPECT_EQ(sym.output_nnz, want_nnz) << what << " backend=" << name;
        ASSERT_EQ(sym.b_row_nnz.size(), b.rows()) << what;
        for (Index k = 0; k < b.rows(); ++k)
            ASSERT_EQ(sym.b_row_nnz[k], b.rowNnz(k)) << what;
    }
}

TEST(SymbolicFullRows, DenseBCountsEveryColumnPerNonEmptyRow)
{
    // 192 columns (3 words), 100 (partial last word), 64 (one exact
    // word) and 1. Every B row is full, so every non-empty A row has
    // exactly b.cols() output columns.
    for (const Index cols : {Index{192}, Index{100}, Index{64}, Index{1}}) {
        Rng rng(600 + cols);
        const CsrMatrix b = generateDenseCsr(10, cols, rng);
        const CsrMatrix a = csrFromRows(
            10, {{}, {3}, {0, 4, 9}, {1, 2}, {}, randomColumns(10, 6, rng)});
        const std::string what = "dense cols=" + std::to_string(cols);
        expectBitmapSymbolicMatchesReference(a, b, what.c_str());
        const SymbolicStats sym = spgemmSymbolic(a, b);
        EXPECT_EQ(sym.output_nnz, Offset{4} * cols) << what;
        EXPECT_EQ(sym.multiplies, a.nnz() * cols) << what;
    }
}

TEST(SymbolicFullRows, MixedFullAndSparseRowsOnBitmapPath)
{
    // 100 columns: two occupancy words, the second partial. Rows 0, 5
    // and 11 are full; row 13 misses one column; row 9 is empty.
    constexpr Index kCols = 100;
    Rng rng(601);
    std::vector<std::vector<Index>> b_rows;
    for (Index k = 0; k < 16; ++k) {
        if (k == 0 || k == 5 || k == 11)
            b_rows.push_back(allColumnsBut(kCols, kCols));
        else if (k == 13)
            b_rows.push_back(allColumnsBut(kCols, 57));
        else if (k == 9)
            b_rows.emplace_back();
        else
            b_rows.push_back(randomColumns(kCols, 30, rng));
    }
    const CsrMatrix b = csrFromRows(kCols, b_rows);
    const CsrMatrix a = csrFromRows(16, {
        {},           // empty
        {5},          // one nonzero, full row
        {0, 11},      // only full rows
        {1, 2, 3},    // only sparse rows
        {0, 1, 7},    // both, full row first
        {2, 6, 11},   // both, full row last
        {3},          // one nonzero, sparse row
        {9},          // one nonzero, empty row
        {13},         // one nonzero, near-full row
        {9, 13},      // near-full + empty: still one short
        {13, 14},     // near-full + sparse
        {4, 5, 9, 13} // full among empty, near-full and sparse
    });
    expectBitmapSymbolicMatchesReference(a, b, "mixed bitmap");
    const SymbolicStats sym = spgemmSymbolic(a, b);
    EXPECT_EQ(spgemmRowWise(a, b).nnz(), sym.output_nnz);
}

TEST(SymbolicCache, HitMissSemantics)
{
    clearSymbolicCache();
    Rng rng(5);
    const CsrMatrix a = generateUniform(64, 64, 0.1, rng);
    const CsrMatrix b = generateUniform(64, 48, 0.1, rng);
    const CsrMatrix b2 = generateUniform(64, 48, 0.1, rng);

    const SimKernelCounters before = simKernelCounters();
    const auto s1 = cachedSpgemmSymbolic(a, b);
    const auto s2 = cachedSpgemmSymbolic(a, b);
    const auto s3 = cachedSpgemmSymbolic(a, b2);
    const SimKernelCounters after = simKernelCounters();

    EXPECT_EQ(after.symbolic_misses - before.symbolic_misses, 2u);
    EXPECT_EQ(after.symbolic_hits - before.symbolic_hits, 1u);
    EXPECT_EQ(s1.get(), s2.get()); // Shared entry, not a recompute.
    EXPECT_EQ(symbolicCacheEntries(), 2u);

    const SymbolicStats direct = spgemmSymbolic(a, b);
    EXPECT_EQ(s1->multiplies, direct.multiplies);
    EXPECT_EQ(s1->output_nnz, direct.output_nnz);
    EXPECT_EQ(s3->multiplies, spgemmMultiplyCount(a, b2));

    clearSymbolicCache();
    EXPECT_EQ(symbolicCacheEntries(), 0u);
}

TEST(SymbolicCache, ConcurrentLookupsComputeExactlyOnce)
{
    clearSymbolicCache();
    Rng rng(9);
    const CsrMatrix a = generateUniform(96, 96, 0.08, rng);
    const CsrMatrix b = generateUniform(96, 64, 0.08, rng);
    const SymbolicStats expect = spgemmSymbolic(a, b);

    const SimKernelCounters before = simKernelCounters();
    constexpr std::size_t kLookups = 64;
    std::vector<Offset> mults(kLookups, 0);
    parallelFor(
        kLookups,
        [&](std::size_t i) {
            mults[i] = cachedSpgemmSymbolic(a, b)->multiplies;
        },
        8);
    const SimKernelCounters after = simKernelCounters();

    for (const Offset m : mults)
        EXPECT_EQ(m, expect.multiplies);
    // Exactly-once: one miss regardless of racing requesters; the hit
    // and miss deltas always sum to the lookup count.
    EXPECT_EQ(after.symbolic_misses - before.symbolic_misses, 1u);
    EXPECT_EQ((after.symbolic_hits - before.symbolic_hits) +
                  (after.symbolic_misses - before.symbolic_misses),
              kLookups);
    clearSymbolicCache();
}

TEST(SymbolicCache, EvictsOldestBeyondCapacity)
{
    clearSymbolicCache();
    Rng rng(13);
    const SimKernelCounters before = simKernelCounters();
    // More distinct pairs than the FIFO capacity (128): evictions must
    // fire and the entry count must stay bounded.
    for (std::uint64_t i = 0; i < 140; ++i) {
        Rng pair_rng(1000 + i);
        const CsrMatrix a = generateUniform(24, 24, 0.2, pair_rng);
        const CsrMatrix b = generateUniform(24, 16, 0.2, pair_rng);
        cachedSpgemmSymbolic(a, b);
    }
    const SimKernelCounters after = simKernelCounters();
    EXPECT_EQ(after.symbolic_misses - before.symbolic_misses, 140u);
    EXPECT_GE(after.symbolic_evictions - before.symbolic_evictions, 12u);
    EXPECT_LE(symbolicCacheEntries(), 128u);
    clearSymbolicCache();
}

TEST(HistogramCache, MatchesDirectBuildAndCountsHitsMissesEvictions)
{
    clearHistogramCache();
    Rng rng(29);
    const CsrMatrix a = generateUniform(96, 96, 0.08, rng);
    const CsrMatrix b = generateUniform(96, 64, 0.05, rng);
    const CscMatrix a_csc = csrToCsc(a);

    const SimKernelCounters before = simKernelCounters();
    const auto first = cachedTileRowHistograms(a, a_csc, b.rows(), 32);
    const auto again = cachedTileRowHistograms(a, a_csc, b.rows(), 32);
    SimKernelCounters after = simKernelCounters();
    EXPECT_EQ(after.hist_misses - before.hist_misses, 1u);
    EXPECT_EQ(after.hist_hits - before.hist_hits, 1u);
    EXPECT_EQ(first.get(), again.get()); // One shared entry.

    // A different tile height is a different tiling: its own entry.
    cachedTileRowHistograms(a, a_csc, b.rows(), 48);
    after = simKernelCounters();
    EXPECT_EQ(after.hist_misses - before.hist_misses, 2u);

    // The memoized set matches a direct build, bin for bin.
    const TileRowHistograms want =
        buildTileRowHistograms(a_csc, fixedRowTiles(b.rows(), 32));
    ASSERT_EQ(first->tile_ptr, want.tile_ptr);
    ASSERT_EQ(first->bins.size(), want.bins.size());
    for (std::size_t i = 0; i < want.bins.size(); ++i) {
        EXPECT_EQ(first->bins[i].row, want.bins[i].row);
        EXPECT_EQ(first->bins[i].count, want.bins[i].count);
    }

    // More distinct keys than the FIFO capacity (16): evictions must
    // fire and the entry count must stay bounded.
    for (int i = 0; i < 20; ++i) {
        Rng pair_rng(2000 + i);
        const CsrMatrix m = generateUniform(48, 48, 0.1, pair_rng);
        const CscMatrix m_csc = csrToCsc(m);
        cachedTileRowHistograms(m, m_csc, 48, 16);
    }
    after = simKernelCounters();
    EXPECT_GE(after.hist_evictions - before.hist_evictions, 6u);
    EXPECT_LE(histogramCacheEntries(), 16u);
    clearHistogramCache();
}

// --------------------------------------------------------------------
// counters: thread-count determinism and metrics mirroring
// --------------------------------------------------------------------

TEST(KernelCounters, ScratchReusesDeterministicAcrossThreadCounts)
{
    Rng rng(21);
    const CsrMatrix a = generateUniform(128, 128, 0.06, rng);
    const CsrMatrix b = generateUniform(128, 96, 0.05, rng);

    std::uint64_t delta1 = 0;
    for (const unsigned threads : {1u, 4u}) {
        // A warm histogram cache would skip the hoisted builds (and
        // their per-tile scratch reuses) on the second run; start both
        // runs cold so they do identical work.
        clearHistogramCache();
        const SimKernelCounters before = simKernelCounters();
        simulateAllDesigns(a, b, threads);
        const SimKernelCounters after = simKernelCounters();
        const std::uint64_t delta =
            after.scratch_reuses - before.scratch_reuses;
        EXPECT_GT(delta, 0u);
        if (threads == 1u)
            delta1 = delta;
        else
            EXPECT_EQ(delta, delta1);
    }
}

TEST(KernelCounters, MetricsMirrorCountsOnlyWhileAttached)
{
    Rng rng(23);
    const CsrMatrix a = generateUniform(64, 64, 0.1, rng);
    const CsrMatrix b = generateUniform(64, 32, 0.1, rng);

    MetricsRegistry registry;
    {
        const ScopedSimKernelMetrics attach(&registry);
        const SimKernelCounters before = simKernelCounters();
        simulateAllDesigns(a, b);
        const SimKernelCounters after = simKernelCounters();
        EXPECT_EQ(registry.counter("sim.sched.scratch_reuses").value(),
                  after.scratch_reuses - before.scratch_reuses);
    }
    const std::uint64_t frozen =
        registry.counter("sim.sched.scratch_reuses").value();
    simulateAllDesigns(a, b);
    EXPECT_EQ(registry.counter("sim.sched.scratch_reuses").value(),
              frozen);
}

// --------------------------------------------------------------------
// steady state: the arenas stop allocating once warmed up
// --------------------------------------------------------------------

TEST(Workspace, ZeroSteadyStateAllocations)
{
    Rng rng(31);
    const CsrMatrix a =
        generateRowImbalanced(256, 256, 0.05, 0.05, 20.0, rng);
    const CsrMatrix b = generateUniform(256, 128, 0.04, rng);

    simulateAllDesigns(a, b); // Warm this thread's arenas.
    const std::uint64_t warm = SimWorkspace::local().allocationEvents();
    for (int i = 0; i < 3; ++i)
        simulateAllDesigns(a, b);
    EXPECT_EQ(SimWorkspace::local().allocationEvents(), warm);
}

} // namespace
} // namespace misam

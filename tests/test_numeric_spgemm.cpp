/**
 * @file
 * Fused numeric SpGEMM suite (sparse/spgemm_numeric.hh): the product is
 * pinned byte-equal to spgemmRowWise and value-checked against a naive
 * dense triple-loop reference over seeded shapes (including 0-row /
 * 0-col / 0-nnz operands), on both emit paths, across every backend
 * this host supports. The fingerprint-keyed memoization
 * (sim/workspace.hh: cachedSpgemmNumeric) is exercised for hit / miss /
 * eviction accounting, and FunctionalResult is pinned byte-stable
 * across backends and thread-count-dependent cache warm-up.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sim/design_sim.hh"
#include "sim/workspace.hh"
#include "sparse/generate.hh"
#include "sparse/spgemm.hh"
#include "sparse/spgemm_numeric.hh"
#include "util/random.hh"
#include "util/simd.hh"

#include "simd_test_util.hh"

namespace misam {
namespace {

using simd::Backend;

using simd_test::backendsUnderTest;
using simd_test::ScopedBackend;

CsrMatrix
emptyMatrix(Index rows, Index cols)
{
    return CsrMatrix(
        rows, cols,
        std::vector<Offset>(static_cast<std::size_t>(rows) + 1, 0), {},
        {});
}

/**
 * Naive dense triple-loop reference: densify both operands, accumulate
 * C(i, j) over ascending k, and keep the *structural* occupancy (a
 * position is present when any A(i,k), B(k,j) pair contributes, even if
 * the values cancel). The k-ascending accumulation order matches the
 * Gustavson kernels', so values agree to within approxEqual.
 */
CsrMatrix
denseTripleLoop(const CsrMatrix &a, const CsrMatrix &b)
{
    const Index rows = a.rows();
    const Index cols = b.cols();
    const Index inner = a.cols();
    std::vector<Value> da(static_cast<std::size_t>(rows) * inner, 0.0);
    std::vector<char> sa(static_cast<std::size_t>(rows) * inner, 0);
    std::vector<Value> db(static_cast<std::size_t>(inner) * cols, 0.0);
    std::vector<char> sb(static_cast<std::size_t>(inner) * cols, 0);
    for (Index i = 0; i < rows; ++i) {
        auto cs = a.rowCols(i);
        auto vs = a.rowVals(i);
        for (std::size_t p = 0; p < cs.size(); ++p) {
            da[static_cast<std::size_t>(i) * inner + cs[p]] = vs[p];
            sa[static_cast<std::size_t>(i) * inner + cs[p]] = 1;
        }
    }
    for (Index k = 0; k < inner; ++k) {
        auto cs = b.rowCols(k);
        auto vs = b.rowVals(k);
        for (std::size_t p = 0; p < cs.size(); ++p) {
            db[static_cast<std::size_t>(k) * cols + cs[p]] = vs[p];
            sb[static_cast<std::size_t>(k) * cols + cs[p]] = 1;
        }
    }

    std::vector<Offset> row_ptr(static_cast<std::size_t>(rows) + 1, 0);
    std::vector<Index> col_idx;
    std::vector<Value> values;
    std::vector<Value> acc(cols, 0.0);
    std::vector<char> hit(cols, 0);
    for (Index i = 0; i < rows; ++i) {
        std::fill(acc.begin(), acc.end(), 0.0);
        std::fill(hit.begin(), hit.end(), 0);
        for (Index k = 0; k < inner; ++k) {
            if (!sa[static_cast<std::size_t>(i) * inner + k])
                continue;
            const Value av =
                da[static_cast<std::size_t>(i) * inner + k];
            for (Index j = 0; j < cols; ++j) {
                if (!sb[static_cast<std::size_t>(k) * cols + j])
                    continue;
                acc[j] +=
                    av * db[static_cast<std::size_t>(k) * cols + j];
                hit[j] = 1;
            }
        }
        for (Index j = 0; j < cols; ++j) {
            if (hit[j]) {
                col_idx.push_back(j);
                values.push_back(acc[j]);
            }
        }
        row_ptr[i + 1] = values.size();
    }
    return {rows, cols, std::move(row_ptr), std::move(col_idx),
            std::move(values)};
}

void
expectSimEqual(const SimResult &got, const SimResult &want,
               const char *what)
{
    EXPECT_EQ(got.design, want.design) << what;
    EXPECT_EQ(got.total_cycles, want.total_cycles) << what;
    EXPECT_EQ(got.exec_seconds, want.exec_seconds) << what;
    EXPECT_EQ(got.read_a_cycles, want.read_a_cycles) << what;
    EXPECT_EQ(got.read_b_cycles, want.read_b_cycles) << what;
    EXPECT_EQ(got.compute_cycles, want.compute_cycles) << what;
    EXPECT_EQ(got.write_c_cycles, want.write_c_cycles) << what;
    EXPECT_EQ(got.overhead_cycles, want.overhead_cycles) << what;
    EXPECT_EQ(got.pe_utilization, want.pe_utilization) << what;
    EXPECT_EQ(got.multiplies, want.multiplies) << what;
    EXPECT_EQ(got.output_nnz, want.output_nnz) << what;
    EXPECT_EQ(got.num_tiles, want.num_tiles) << what;
}

TEST(NumericSpgemm, MatchesRowWiseAndDenseReferenceOverSeededShapes)
{
    for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
        Rng rng(seed);
        const CsrMatrix a =
            seed % 2 == 0
                ? generateUniform(120, 96, 0.06, rng)
                : generateRowImbalanced(96, 120, 0.05, 0.04, 20.0, rng);
        const CsrMatrix b = generateUniform(a.cols(), 72, 0.08, rng);
        const SymbolicStats sym = spgemmSymbolic(a, b);

        const CsrMatrix fused = spgemmNumericFused(a, b, &sym);
        fused.validate();
        EXPECT_EQ(fused, spgemmRowWise(a, b)) << "seed=" << seed;
        EXPECT_TRUE(fused.approxEqual(denseTripleLoop(a, b)))
            << "seed=" << seed;
        // Null symbolic stats recompute internally; same product.
        EXPECT_EQ(fused, spgemmNumericFused(a, b)) << "seed=" << seed;
        EXPECT_EQ(fused.nnz(), sym.output_nnz) << "seed=" << seed;
    }
}

TEST(NumericSpgemm, DegenerateOperandShapes)
{
    Rng rng(6);
    const CsrMatrix some = generateUniform(8, 8, 0.4, rng);
    struct Case
    {
        const char *name;
        CsrMatrix a;
        CsrMatrix b;
    };
    const Case cases[] = {
        {"0x0 * 0x0", emptyMatrix(0, 0), emptyMatrix(0, 0)},
        {"0x8 * some", emptyMatrix(0, 8), some},
        {"zero-nnz a", emptyMatrix(8, 8), some},
        {"b zero cols", some, emptyMatrix(8, 0)},
        {"zero-nnz b", some, emptyMatrix(8, 8)},
    };
    for (const Case &c : cases) {
        for (Backend backend : backendsUnderTest()) {
            ScopedBackend forced(backend);
            const CsrMatrix fused = spgemmNumericFused(c.a, c.b);
            fused.validate();
            EXPECT_EQ(fused, spgemmRowWise(c.a, c.b)) << c.name;
            EXPECT_EQ(fused.nnz(), 0u) << c.name;
            EXPECT_EQ(fused.rows(), c.a.rows()) << c.name;
            EXPECT_EQ(fused.cols(), c.b.cols()) << c.name;
        }
    }
}

TEST(NumericSpgemm, BothEmitPathsMatchAcrossBackends)
{
    Rng rng(7);
    // Dense-ish output clears output_nnz >= words * rows -> bitmap
    // expand emit; a hypersparse wide product fails the gate -> sort
    // emit. The gate reads shapes only, so the simd.expand_rows trip
    // counter moves on the first family and stays flat on the second,
    // on every backend.
    const CsrMatrix a_expand = generateUniform(96, 80, 0.10, rng);
    const CsrMatrix b_expand = generateUniform(80, 70, 0.40, rng);
    const CsrMatrix a_sort = generateUniform(64, 48, 0.08, rng);
    const CsrMatrix b_sort = generateUniform(48, 9000, 0.0004, rng);

    const CsrMatrix want_expand = spgemmRowWise(a_expand, b_expand);
    const CsrMatrix want_sort = spgemmRowWise(a_sort, b_sort);
    for (Backend backend : backendsUnderTest()) {
        ScopedBackend forced(backend);
        const std::uint64_t before = simd::simdCounters().expand_rows;
        EXPECT_EQ(spgemmNumericFused(a_expand, b_expand), want_expand)
            << simd::backendName(backend);
        EXPECT_GT(simd::simdCounters().expand_rows, before)
            << simd::backendName(backend);
        const std::uint64_t after = simd::simdCounters().expand_rows;
        EXPECT_EQ(spgemmNumericFused(a_sort, b_sort), want_sort)
            << simd::backendName(backend);
        EXPECT_EQ(simd::simdCounters().expand_rows, after)
            << simd::backendName(backend);
    }
}

TEST(NumericSpgemm, CacheCountsHitsMissesEvictions)
{
    clearNumericCache();
    Rng rng(8);
    const CsrMatrix a = generateUniform(40, 32, 0.2, rng);
    const CsrMatrix b = generateUniform(32, 24, 0.2, rng);

    const SimKernelCounters before = simKernelCounters();
    const auto first = cachedSpgemmNumeric(a, b);
    const auto second = cachedSpgemmNumeric(a, b);
    EXPECT_EQ(first.get(), second.get());
    EXPECT_EQ(*first, spgemmRowWise(a, b));
    SimKernelCounters now = simKernelCounters();
    EXPECT_EQ(now.numeric_misses, before.numeric_misses + 1);
    EXPECT_EQ(now.numeric_hits, before.numeric_hits + 1);
    EXPECT_EQ(numericCacheEntries(), 1u);

    // Distinct pairs past the FIFO capacity evict the oldest ready
    // entries; the capacity bound holds afterwards.
    for (int extra = 0; extra < 20; ++extra) {
        const CsrMatrix bx = generateUniform(32, 24, 0.2, rng);
        cachedSpgemmNumeric(a, bx);
    }
    now = simKernelCounters();
    EXPECT_GT(now.numeric_evictions, before.numeric_evictions);
    EXPECT_LE(numericCacheEntries(), 16u);

    // The evicted original recomputes: a fresh miss, same product.
    const SimKernelCounters pre = simKernelCounters();
    const auto recomputed = cachedSpgemmNumeric(a, b);
    EXPECT_EQ(*recomputed, *first);
    EXPECT_EQ(simKernelCounters().numeric_misses, pre.numeric_misses + 1);
    clearNumericCache();
}

TEST(NumericSpgemm, FunctionalResultByteEqualAcrossBackendsAndThreads)
{
    Rng rng(9);
    const CsrMatrix a =
        generateRowImbalanced(192, 192, 0.04, 0.05, 16.0, rng);
    const CsrMatrix b = generateUniform(192, 128, 0.05, rng);

    FunctionalResult want;
    bool first = true;
    for (Backend backend : backendsUnderTest()) {
        ScopedBackend forced(backend);
        for (unsigned threads : {1u, 4u}) {
            // Cold caches per combination, then a thread-count-shaped
            // warm-up: the FunctionalResult must not depend on either.
            clearSymbolicCache();
            clearCscCache();
            clearNumericCache();
            simulateAllDesigns(a, b, threads);
            for (DesignId id :
                 {DesignId::D1, DesignId::D2, DesignId::D3,
                  DesignId::D4}) {
                const FunctionalResult got =
                    executeFunctional(designConfig(id), a, b);
                if (first) {
                    want = got;
                    first = false;
                    continue;
                }
                if (got.sim.design == want.sim.design) {
                    expectSimEqual(got.sim, want.sim,
                                   simd::backendName(backend));
                }
                EXPECT_EQ(got.product, want.product)
                    << simd::backendName(backend)
                    << " threads=" << threads;
            }
        }
    }
}

} // namespace
} // namespace misam

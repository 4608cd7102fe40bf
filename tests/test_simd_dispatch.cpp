/**
 * @file
 * Dispatch-parity suite for the runtime-selected SIMD layer
 * (util/simd.hh): every kernel is byte-identical between the scalar
 * reference backend and the widest backend this host supports, at the
 * kernel level (awkward lengths straddling every vector-width boundary)
 * and at the consumer level (symbolic SpGEMM, CSR->CSC, matrix
 * fingerprints, full SimResults). Degenerate operand shapes (zero rows,
 * zero cols, zero nnz) are pinned per kernel as well — the hot-path
 * edge cases must take the same early-outs on every backend.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sim/design_sim.hh"
#include "sim/workspace.hh"
#include "sparse/convert.hh"
#include "sparse/csc.hh"
#include "sparse/csr.hh"
#include "sparse/fingerprint.hh"
#include "sparse/generate.hh"
#include "sparse/spgemm.hh"
#include "util/random.hh"
#include "util/simd.hh"

#include "simd_test_util.hh"

namespace misam {
namespace {

using simd::Backend;

using simd_test::backendsUnderTest;
using simd_test::ScopedBackend;

/** Lengths straddling every lane-width and unroll boundary. */
const std::size_t kLengths[] = {0, 1, 3, 4, 5, 63, 64, 65, 257};

std::vector<std::uint64_t>
patternWords(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::uint64_t> words(n);
    for (std::uint64_t &w : words)
        w = rng.next();
    return words;
}

CsrMatrix
emptyMatrix(Index rows, Index cols)
{
    return CsrMatrix(rows, cols,
                     std::vector<Offset>(static_cast<std::size_t>(rows) + 1,
                                         0),
                     {}, {});
}

/**
 * A memo-free rebuild of `m` from its arrays. fingerprintMatrix
 * memoizes the digest on the matrix object (and a copy carries the
 * memo), so a cross-backend fingerprint comparison must hash a fresh
 * rebuild under each backend or it only reads back the first digest.
 */
CsrMatrix
rebuiltFromArrays(const CsrMatrix &m)
{
    return CsrMatrix(m.rows(), m.cols(), m.rowPtr(), m.colIdx(),
                     m.values());
}

void
expectCscEqual(const CscMatrix &got, const CscMatrix &want,
               const char *what)
{
    EXPECT_EQ(got.rows(), want.rows()) << what;
    EXPECT_EQ(got.cols(), want.cols()) << what;
    EXPECT_EQ(got.colPtr(), want.colPtr()) << what;
    EXPECT_EQ(got.rowIdx(), want.rowIdx()) << what;
    EXPECT_EQ(got.values(), want.values()) << what;
}

void
expectResultsEqual(const std::array<SimResult, kNumDesigns> &got,
                   const std::array<SimResult, kNumDesigns> &want,
                   const char *what)
{
    for (std::size_t d = 0; d < kNumDesigns; ++d) {
        EXPECT_EQ(got[d].design, want[d].design) << what;
        EXPECT_EQ(got[d].total_cycles, want[d].total_cycles) << what;
        EXPECT_EQ(got[d].exec_seconds, want[d].exec_seconds) << what;
        EXPECT_EQ(got[d].read_a_cycles, want[d].read_a_cycles) << what;
        EXPECT_EQ(got[d].read_b_cycles, want[d].read_b_cycles) << what;
        EXPECT_EQ(got[d].compute_cycles, want[d].compute_cycles) << what;
        EXPECT_EQ(got[d].write_c_cycles, want[d].write_c_cycles) << what;
        EXPECT_EQ(got[d].overhead_cycles, want[d].overhead_cycles)
            << what;
        EXPECT_EQ(got[d].pe_utilization, want[d].pe_utilization) << what;
        EXPECT_EQ(got[d].multiplies, want[d].multiplies) << what;
        EXPECT_EQ(got[d].output_nnz, want[d].output_nnz) << what;
        EXPECT_EQ(got[d].num_tiles, want[d].num_tiles) << what;
        EXPECT_EQ(got[d].avg_power_watts, want[d].avg_power_watts)
            << what;
        EXPECT_EQ(got[d].energy_joules, want[d].energy_joules) << what;
    }
}

TEST(SimdDispatch, BackendPlumbing)
{
    EXPECT_TRUE(simd::backendSupported(Backend::Scalar));
    EXPECT_TRUE(simd::backendSupported(simd::bestSupportedBackend()));
    EXPECT_STREQ(simd::backendName(Backend::Scalar), "scalar");
    EXPECT_STREQ(simd::backendName(Backend::Avx2), "avx2");
    EXPECT_STREQ(simd::backendName(Backend::Neon), "neon");
    EXPECT_STREQ(simd::backendName(Backend::Avx512), "avx512");
    // AVX-512 subsumes AVX2: any host that can run the new backend can
    // also run the old one, so the parity matrix is never sparse.
    if (simd::backendSupported(Backend::Avx512)) {
        EXPECT_TRUE(simd::backendSupported(Backend::Avx2));
    }
    {
        ScopedBackend forced(Backend::Scalar);
        EXPECT_EQ(simd::activeBackend(), Backend::Scalar);
    }
    // After the scope, dispatch re-resolves from MISAM_SIMD/detection;
    // either way the active backend must be one the host supports.
    EXPECT_TRUE(simd::backendSupported(simd::activeBackend()));
}

TEST(SimdDispatch, OrIntoParity)
{
    for (std::size_t n : kLengths) {
        std::vector<std::uint64_t> acc_ref =
            patternWords(n, 0x100 + n);
        const std::vector<std::uint64_t> src =
            patternWords(n, 0x200 + n);
        std::vector<std::uint64_t> want = acc_ref;
        for (std::size_t i = 0; i < n; ++i)
            want[i] |= src[i];
        for (Backend backend : backendsUnderTest()) {
            ScopedBackend forced(backend);
            std::vector<std::uint64_t> acc = acc_ref;
            simd::orInto(acc.data(), src.data(), n);
            EXPECT_EQ(acc, want)
                << "n=" << n << " backend=" << simd::backendName(backend);
        }
    }
}

TEST(SimdDispatch, PopcountAndClearParity)
{
    for (std::size_t n : kLengths) {
        const std::vector<std::uint64_t> base =
            patternWords(n, 0x300 + n);
        std::uint64_t want = 0;
        for (std::uint64_t w : base)
            want += static_cast<std::uint64_t>(__builtin_popcountll(w));
        for (Backend backend : backendsUnderTest()) {
            ScopedBackend forced(backend);
            std::vector<std::uint64_t> words = base;
            EXPECT_EQ(simd::popcountAndClear(words.data(), n), want)
                << "n=" << n << " backend=" << simd::backendName(backend);
            EXPECT_EQ(words, std::vector<std::uint64_t>(n, 0))
                << "n=" << n << " backend=" << simd::backendName(backend);
        }
    }
}

TEST(SimdDispatch, CeilDivWeightsParity)
{
    const double eff_lanes[] = {1.0, 3.7, 16.0};
    for (std::size_t n : kLengths) {
        Rng rng(0x600 + n);
        std::vector<std::uint64_t> row_nnz(n);
        for (std::uint64_t &v : row_nnz)
            v = rng.uniformInt(1 << 20);
        for (double lanes : eff_lanes) {
            std::vector<std::uint64_t> want;
            bool first = true;
            for (Backend backend : backendsUnderTest()) {
                ScopedBackend forced(backend);
                std::vector<std::uint64_t> dst(n, 0);
                simd::ceilDivWeights(dst.data(), row_nnz.data(), n,
                                     lanes, 7);
                if (first) {
                    want = dst;
                    first = false;
                    continue;
                }
                EXPECT_EQ(dst, want)
                    << "n=" << n << " lanes=" << lanes
                    << " backend=" << simd::backendName(backend);
            }
        }
    }
}

TEST(SimdDispatch, PeScheduleFoldParity)
{
    for (std::size_t n : kLengths) {
        Rng rng(0x700 + n);
        std::vector<std::uint64_t> acc4(4 * n);
        for (std::size_t i = 0; i < n; ++i) {
            acc4[4 * i + 0] = rng.uniformInt(1 << 24); // total_elements
            acc4[4 * i + 1] = rng.uniformInt(1 << 24); // total_work
            acc4[4 * i + 2] = rng.uniformInt(1 << 16); // max_row_count
            acc4[4 * i + 3] = rng.uniformInt(1 << 16); // rows_at_max
        }
        const std::uint64_t dep = 4;
        simd::PeFold want;
        for (std::size_t i = 0; i < n; ++i) {
            const std::uint64_t work = acc4[4 * i + 1];
            std::uint64_t len = 0;
            if (work != 0) {
                const std::uint64_t mrc = acc4[4 * i + 2];
                const std::uint64_t tail =
                    (mrc == 0 ? 0 : (mrc - 1) * dep) + acc4[4 * i + 3];
                len = work > tail ? work : tail;
            }
            if (len > want.schedule_length)
                want.schedule_length = len;
            want.total_elements += acc4[4 * i + 0];
            want.busy_cycles += acc4[4 * i + 1];
        }
        for (Backend backend : backendsUnderTest()) {
            ScopedBackend forced(backend);
            const simd::PeFold got =
                simd::peScheduleFold(acc4.data(), n, dep);
            EXPECT_EQ(got.schedule_length, want.schedule_length)
                << "n=" << n << " backend=" << simd::backendName(backend);
            EXPECT_EQ(got.total_elements, want.total_elements) << "n=" << n;
            EXPECT_EQ(got.busy_cycles, want.busy_cycles) << "n=" << n;
        }
    }
}

TEST(SimdDispatch, ExpandSetBitsParity)
{
    for (std::size_t n : kLengths) {
        // AND-ed patterns give sparse-ish words; also pin the all-ones
        // and all-zeros words via the first two positions.
        std::vector<std::uint64_t> base = patternWords(n, 0x800 + n);
        const std::vector<std::uint64_t> other =
            patternWords(n, 0x900 + n);
        for (std::size_t i = 0; i < n; ++i)
            base[i] &= other[i];
        if (n >= 2) {
            base[0] = ~std::uint64_t{0};
            base[1] = 0;
        }
        std::uint64_t total_bits = 0;
        for (std::uint64_t w : base)
            total_bits +=
                static_cast<std::uint64_t>(__builtin_popcountll(w));
        std::vector<std::uint32_t> want;
        bool first = true;
        for (Backend backend : backendsUnderTest()) {
            ScopedBackend forced(backend);
            std::vector<std::uint64_t> words = base;
            std::vector<std::uint32_t> dst(total_bits + 1,
                                           0xdeadbeefu);
            const std::size_t cnt = simd::expandSetBits(
                words.data(), n, 1000, dst.data());
            EXPECT_EQ(cnt, total_bits)
                << "n=" << n << " backend=" << simd::backendName(backend);
            EXPECT_EQ(words, std::vector<std::uint64_t>(n, 0))
                << "n=" << n << " backend=" << simd::backendName(backend);
            EXPECT_EQ(dst[total_bits], 0xdeadbeefu) << "overwrite";
            dst.resize(cnt);
            // Positions are ascending and offset by the base.
            for (std::size_t i = 1; i < dst.size(); ++i)
                ASSERT_LT(dst[i - 1], dst[i]) << "n=" << n;
            if (!dst.empty()) {
                EXPECT_GE(dst.front(), 1000u);
            }
            if (first) {
                want = dst;
                first = false;
                continue;
            }
            EXPECT_EQ(dst, want)
                << "n=" << n << " backend=" << simd::backendName(backend);
        }
    }
}

TEST(SimdDispatch, SymbolicBothMergePathsMatchReferenceCounts)
{
    Rng rng(11);
    // Dense-ish B keeps nnz >= words * rows -> bitmap merge path;
    // hypersparse wide B fails that gate -> marker path. The path is a
    // pure function of shape, so every backend takes the same one.
    const CsrMatrix a_bitmap = generateUniform(96, 80, 0.08, rng);
    const CsrMatrix b_bitmap = generateUniform(80, 70, 0.45, rng);
    const CsrMatrix a_marker = generateUniform(64, 48, 0.10, rng);
    const CsrMatrix b_marker = generateUniform(48, 9000, 0.0004, rng);

    const auto check = [](const CsrMatrix &a, const CsrMatrix &b,
                          const char *what) {
        const Offset want_mult = spgemmMultiplyCount(a, b);
        const Offset want_nnz = spgemmOutputNnz(a, b);
        for (Backend backend : backendsUnderTest()) {
            ScopedBackend forced(backend);
            const SymbolicStats sym = spgemmSymbolic(a, b);
            EXPECT_EQ(sym.multiplies, want_mult)
                << what << " backend=" << simd::backendName(backend);
            EXPECT_EQ(sym.output_nnz, want_nnz)
                << what << " backend=" << simd::backendName(backend);
            ASSERT_EQ(sym.b_row_nnz.size(), b.rows()) << what;
            for (Index k = 0; k < b.rows(); ++k)
                ASSERT_EQ(sym.b_row_nnz[k], b.rowNnz(k)) << what;
        }
    };
    check(a_bitmap, b_bitmap, "bitmap");
    check(a_marker, b_marker, "marker");
}

TEST(SimdDispatch, CsrToCscMatchesReferenceOnBothRoutes)
{
    Rng rng(12);
    // Small/narrow -> direct counting route; wide and populous enough
    // (cols >= 8192, nnz >= cols) -> cache-blocked staging route.
    const CsrMatrix direct = generateUniform(300, 200, 0.03, rng);
    const CsrMatrix blocked = generateUniform(512, 16384, 0.01, rng);
    ASSERT_GE(blocked.nnz(), blocked.cols());

    for (Backend backend : backendsUnderTest()) {
        ScopedBackend forced(backend);
        expectCscEqual(csrToCsc(direct), csrToCscReference(direct),
                       "direct");
        const std::uint64_t blocked_before =
            simd::simdCounters().csc_blocked;
        expectCscEqual(csrToCsc(blocked), csrToCscReference(blocked),
                       "blocked");
        EXPECT_GT(simd::simdCounters().csc_blocked, blocked_before);
    }
}

TEST(SimdDispatch, FingerprintsIdenticalAcrossBackends)
{
    Rng rng(13);
    // Big enough that values/col_idx take multiple 512-word bulk
    // chunks, plus a tail that is not a multiple of four.
    const CsrMatrix big = generateUniform(256, 512, 0.05, rng);
    const CsrMatrix tiny = generateUniform(5, 7, 0.3, rng);

    for (const CsrMatrix *m : {&big, &tiny}) {
        Fingerprint128 want{};
        bool first = true;
        for (Backend backend : backendsUnderTest()) {
            ScopedBackend forced(backend);
            const Fingerprint128 fp =
                fingerprintMatrix(rebuiltFromArrays(*m));
            if (first) {
                want = fp;
                first = false;
                continue;
            }
            EXPECT_EQ(fp.hi, want.hi)
                << "backend=" << simd::backendName(backend);
            EXPECT_EQ(fp.lo, want.lo)
                << "backend=" << simd::backendName(backend);
        }
    }
}

TEST(SimdDispatch, SimResultsIdenticalAcrossBackendsAndThreads)
{
    Rng rng(14);
    const CsrMatrix a = generateUniform(384, 384, 0.02, rng);
    const CsrMatrix b = generateUniform(384, 256, 0.015, rng);

    std::array<SimResult, kNumDesigns> want{};
    bool first = true;
    for (Backend backend : backendsUnderTest()) {
        ScopedBackend forced(backend);
        for (unsigned threads : {1u, 4u}) {
            // Drop the fingerprint-keyed memoization between runs so
            // each backend/thread combination computes from scratch
            // instead of replaying the first run's cached values.
            clearSymbolicCache();
            clearCscCache();
            const std::array<SimResult, kNumDesigns> got =
                simulateAllDesigns(a, b, threads);
            if (first) {
                want = got;
                first = false;
                continue;
            }
            expectResultsEqual(got, want, simd::backendName(backend));
        }
    }
}

// ---------------------------------------------------------------------
// Degenerate operand shapes: zero rows, zero cols, zero nnz. Every
// backend must take the same trivial early-outs and agree on the
// (empty) outputs.
// ---------------------------------------------------------------------

TEST(SimdDispatch, DegenerateSymbolicShapes)
{
    Rng rng(15);
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
            const SymbolicStats sym = spgemmSymbolic(c.a, c.b);
            EXPECT_EQ(sym.multiplies, spgemmMultiplyCount(c.a, c.b))
                << c.name;
            EXPECT_EQ(sym.output_nnz, spgemmOutputNnz(c.a, c.b))
                << c.name;
            EXPECT_EQ(sym.b_row_nnz.size(), c.b.rows()) << c.name;
        }
    }
}

TEST(SimdDispatch, DegenerateConversionShapes)
{
    const CsrMatrix shapes[] = {emptyMatrix(0, 0), emptyMatrix(0, 9),
                                emptyMatrix(9, 0), emptyMatrix(9, 9)};
    for (const CsrMatrix &m : shapes) {
        for (Backend backend : backendsUnderTest()) {
            ScopedBackend forced(backend);
            const CscMatrix got = csrToCsc(m);
            expectCscEqual(got, csrToCscReference(m), "degenerate");
            EXPECT_EQ(got.nnz(), 0u);
            ASSERT_EQ(got.colPtr().size(),
                      static_cast<std::size_t>(m.cols()) + 1);
            EXPECT_EQ(got.colPtr().back(), 0u);
        }
    }
}

TEST(SimdDispatch, DegenerateFingerprintShapes)
{
    const CsrMatrix shapes[] = {emptyMatrix(0, 0), emptyMatrix(0, 9),
                                emptyMatrix(9, 0), emptyMatrix(9, 9)};
    std::vector<Fingerprint128> fps;
    for (const CsrMatrix &m : shapes) {
        Fingerprint128 want{};
        bool first = true;
        for (Backend backend : backendsUnderTest()) {
            ScopedBackend forced(backend);
            const Fingerprint128 fp =
                fingerprintMatrix(rebuiltFromArrays(m));
            if (first) {
                want = fp;
                first = false;
            } else {
                EXPECT_EQ(fp.hi, want.hi);
                EXPECT_EQ(fp.lo, want.lo);
            }
        }
        fps.push_back(want);
    }
    // Shape participates in the fingerprint: the four empty matrices
    // must all hash differently.
    for (std::size_t i = 0; i < fps.size(); ++i)
        for (std::size_t j = i + 1; j < fps.size(); ++j)
            EXPECT_FALSE(fps[i].hi == fps[j].hi &&
                         fps[i].lo == fps[j].lo)
                << i << " vs " << j;
}

} // namespace
} // namespace misam

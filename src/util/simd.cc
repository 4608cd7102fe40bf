#include "util/simd.hh"

#include <atomic>
#include <bit>
#include <cmath>
#include <string>

#include "util/env.hh"
#include "util/logging.hh"
#include "util/metrics.hh"

#if defined(__x86_64__)
#include <immintrin.h>
#endif
#if defined(__aarch64__)
#include <arm_neon.h>
#endif

namespace misam::simd {

namespace {

// ---------------------------------------------------------------------
// Backend selection.
// ---------------------------------------------------------------------

/** -1 until first resolution; a Backend ordinal afterwards. */
std::atomic<int> g_backend{-1};

Backend
resolveFromEnv()
{
    const std::string requested = envString("MISAM_SIMD");
    if (requested.empty())
        return bestSupportedBackend();
    Backend backend = Backend::Scalar;
    if (requested == "scalar")
        backend = Backend::Scalar;
    else if (requested == "avx2")
        backend = Backend::Avx2;
    else if (requested == "neon")
        backend = Backend::Neon;
    else if (requested == "avx512")
        backend = Backend::Avx512;
    else
        fatal("MISAM_SIMD: unknown backend '", requested,
              "' (expected scalar|avx2|neon|avx512)");
    if (!backendSupported(backend))
        fatal("MISAM_SIMD: backend '", requested,
              "' is not executable on this host");
    return backend;
}

// ---------------------------------------------------------------------
// Observability: process-wide totals plus resolve-at-attach mirrors
// (the setSimKernelMetrics pattern from sim/workspace.cc).
// ---------------------------------------------------------------------

std::atomic<std::uint64_t> g_bitmap_rows{0};
std::atomic<std::uint64_t> g_weight_builds{0};
std::atomic<std::uint64_t> g_pe_folds{0};
std::atomic<std::uint64_t> g_csc_blocked{0};
std::atomic<std::uint64_t> g_expand_rows{0};

std::atomic<Counter *> g_mirror_bitmap_rows{nullptr};
std::atomic<Counter *> g_mirror_weight_builds{nullptr};
std::atomic<Counter *> g_mirror_pe_folds{nullptr};
std::atomic<Counter *> g_mirror_csc_blocked{nullptr};
std::atomic<Counter *> g_mirror_expand_rows{nullptr};
std::atomic<Gauge *> g_mirror_backend{nullptr};

void
bumpBy(std::atomic<std::uint64_t> &total, std::atomic<Counter *> &mirror,
       std::uint64_t n)
{
    total.fetch_add(n, std::memory_order_relaxed);
    if (Counter *c = mirror.load(std::memory_order_relaxed))
        c->add(n);
}

void
publishBackendGauge()
{
    if (Gauge *g = g_mirror_backend.load(std::memory_order_relaxed))
        g->set(static_cast<double>(static_cast<int>(activeBackend())));
}

// ---------------------------------------------------------------------
// Scalar reference kernels. Every vector variant must match these
// byte-for-byte (tests/test_simd_dispatch.cpp).
// ---------------------------------------------------------------------
// misam-lint: hot-path begin -- kernel bodies run per 64-bit word of every bitmask pass; any allocation here multiplies by nnz

void
orIntoScalar(std::uint64_t *acc, const std::uint64_t *src,
             std::size_t words)
{
    for (std::size_t i = 0; i < words; ++i)
        acc[i] |= src[i];
}

std::uint64_t
popcountAndClearScalar(std::uint64_t *words, std::size_t n)
{
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < n; ++i) {
        total += static_cast<std::uint64_t>(std::popcount(words[i]));
        words[i] = 0;
    }
    return total;
}

void
ceilDivWeightsScalar(std::uint64_t *dst, const std::uint64_t *row_nnz,
                     std::size_t n, double eff_lanes, std::uint64_t meta)
{
    for (std::size_t i = 0; i < n; ++i) {
        const auto gather = static_cast<std::uint64_t>(
            std::ceil(static_cast<double>(row_nnz[i]) / eff_lanes));
        dst[i] = meta + gather;
    }
}

std::uint64_t
peLengthScalar(const std::uint64_t *rec, std::uint64_t dep)
{
    const std::uint64_t total_work = rec[1];
    const std::uint64_t max_row_count = rec[2];
    const std::uint64_t rows_at_max = rec[3];
    if (total_work == 0)
        return 0;
    const std::uint64_t cooldown =
        max_row_count > 0 ? (max_row_count - 1) * dep + rows_at_max : 0;
    return total_work > cooldown ? total_work : cooldown;
}

PeFold
peScheduleFoldScalar(const std::uint64_t *acc4, std::size_t n,
                     std::uint64_t dep)
{
    PeFold fold;
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t *rec = acc4 + 4 * i;
        const std::uint64_t len = peLengthScalar(rec, dep);
        if (len > fold.schedule_length)
            fold.schedule_length = len;
        fold.total_elements += rec[0];
        fold.busy_cycles += rec[1];
    }
    return fold;
}

std::size_t
expandSetBitsScalar(std::uint64_t *words, std::size_t n,
                    std::uint32_t base, std::uint32_t *dst)
{
    std::size_t out = 0;
    for (std::size_t w = 0; w < n; ++w) {
        std::uint64_t bits = words[w];
        const std::uint32_t word_base =
            base + static_cast<std::uint32_t>(w) * 64u;
        while (bits != 0) {
            dst[out++] = word_base + static_cast<std::uint32_t>(
                                         std::countr_zero(bits));
            bits &= bits - 1;
        }
        words[w] = 0;
    }
    return out;
}

// ---------------------------------------------------------------------
// AVX2 kernels (x86-64, selected at runtime via cpuid).
// ---------------------------------------------------------------------

#if defined(__x86_64__)

#define MISAM_AVX2 __attribute__((target("avx2")))

MISAM_AVX2 void
orIntoAvx2(std::uint64_t *acc, const std::uint64_t *src,
           std::size_t words)
{
    std::size_t i = 0;
    for (; i + 4 <= words; i += 4) {
        const __m256i a = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(acc + i));
        const __m256i b = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(src + i));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(acc + i),
                            _mm256_or_si256(a, b));
    }
    for (; i < words; ++i)
        acc[i] |= src[i];
}

MISAM_AVX2 std::uint64_t
popcountAndClearAvx2(std::uint64_t *words, std::size_t n)
{
    // Mula's nibble-table popcount: per byte, two pshufb lookups summed
    // into 64-bit buckets via sad_epu8.
    const __m256i lookup = _mm256_setr_epi8(
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1, 1, 2, 1,
        2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
    const __m256i low_mask = _mm256_set1_epi8(0x0f);
    const __m256i zero = _mm256_setzero_si256();
    __m256i acc = zero;
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256i v = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(words + i));
        const __m256i lo = _mm256_and_si256(v, low_mask);
        const __m256i hi =
            _mm256_and_si256(_mm256_srli_epi32(v, 4), low_mask);
        const __m256i cnt =
            _mm256_add_epi8(_mm256_shuffle_epi8(lookup, lo),
                            _mm256_shuffle_epi8(lookup, hi));
        acc = _mm256_add_epi64(acc, _mm256_sad_epu8(cnt, zero));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(words + i),
                            zero);
    }
    alignas(32) std::uint64_t lanes[4];
    _mm256_store_si256(reinterpret_cast<__m256i *>(lanes), acc);
    std::uint64_t total = lanes[0] + lanes[1] + lanes[2] + lanes[3];
    for (; i < n; ++i) {
        total += static_cast<std::uint64_t>(std::popcount(words[i]));
        words[i] = 0;
    }
    return total;
}

// f64 <-> u64 conversion for values below 2^52: or/subtract against the
// 2^52 exponent pattern keeps the integer in the mantissa bits exactly.
constexpr long long kExp52 = 0x4330000000000000LL; // (double)2^52 bits.

MISAM_AVX2 __m256d
u64ToF64Avx2(__m256i v)
{
    const __m256i shifted =
        _mm256_or_si256(v, _mm256_set1_epi64x(kExp52));
    return _mm256_sub_pd(_mm256_castsi256_pd(shifted),
                         _mm256_set1_pd(4503599627370496.0));
}

MISAM_AVX2 __m256i
f64ToU64Avx2(__m256d d)
{
    const __m256d shifted =
        _mm256_add_pd(d, _mm256_set1_pd(4503599627370496.0));
    return _mm256_sub_epi64(_mm256_castpd_si256(shifted),
                            _mm256_set1_epi64x(kExp52));
}

MISAM_AVX2 void
ceilDivWeightsAvx2(std::uint64_t *dst, const std::uint64_t *row_nnz,
                   std::size_t n, double eff_lanes, std::uint64_t meta)
{
    const __m256d lanes_v = _mm256_set1_pd(eff_lanes);
    const __m256i meta_v =
        _mm256_set1_epi64x(static_cast<long long>(meta));
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256i nnz = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(row_nnz + i));
        const __m256d q =
            _mm256_div_pd(u64ToF64Avx2(nnz), lanes_v);
        const __m256d c = _mm256_round_pd(
            q, _MM_FROUND_TO_POS_INF | _MM_FROUND_NO_EXC);
        _mm256_storeu_si256(
            reinterpret_cast<__m256i *>(dst + i),
            _mm256_add_epi64(f64ToU64Avx2(c), meta_v));
    }
    ceilDivWeightsScalar(dst + i, row_nnz + i, n - i, eff_lanes, meta);
}

MISAM_AVX2 __m256i
maxU64Avx2(__m256i a, __m256i b)
{
    // Values stay far below 2^63, so the signed compare is exact.
    const __m256i gt = _mm256_cmpgt_epi64(b, a);
    return _mm256_blendv_epi8(a, b, gt);
}

MISAM_AVX2 PeFold
peScheduleFoldAvx2(const std::uint64_t *acc4, std::size_t n,
                   std::uint64_t dep)
{
    const __m256i dep_v =
        _mm256_set1_epi64x(static_cast<long long>(dep));
    const __m256i one = _mm256_set1_epi64x(1);
    const __m256i zero = _mm256_setzero_si256();
    __m256i len_acc = zero;
    __m256i te_acc = zero;
    __m256i tw_acc = zero;
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const std::uint64_t *base = acc4 + 4 * i;
        const __m256i r0 = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(base));
        const __m256i r1 = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(base + 4));
        const __m256i r2 = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(base + 8));
        const __m256i r3 = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(base + 12));
        // 4x4 u64 transpose: four records -> one vector per field.
        const __m256i t0 = _mm256_unpacklo_epi64(r0, r1);
        const __m256i t1 = _mm256_unpackhi_epi64(r0, r1);
        const __m256i t2 = _mm256_unpacklo_epi64(r2, r3);
        const __m256i t3 = _mm256_unpackhi_epi64(r2, r3);
        const __m256i te = _mm256_permute2x128_si256(t0, t2, 0x20);
        const __m256i tw = _mm256_permute2x128_si256(t1, t3, 0x20);
        const __m256i mc = _mm256_permute2x128_si256(t0, t2, 0x31);
        const __m256i ram = _mm256_permute2x128_si256(t1, t3, 0x31);
        // cooldown = (mc - 1) * dep + ram, forced to 0 when mc == 0
        // (mc and dep fit 32 bits, so mul_epu32 is the full product).
        const __m256i cooldown_raw = _mm256_add_epi64(
            _mm256_mul_epu32(_mm256_sub_epi64(mc, one), dep_v), ram);
        const __m256i mc_zero = _mm256_cmpeq_epi64(mc, zero);
        const __m256i cooldown =
            _mm256_andnot_si256(mc_zero, cooldown_raw);
        __m256i len = maxU64Avx2(tw, cooldown);
        len = _mm256_andnot_si256(_mm256_cmpeq_epi64(tw, zero), len);
        len_acc = maxU64Avx2(len_acc, len);
        te_acc = _mm256_add_epi64(te_acc, te);
        tw_acc = _mm256_add_epi64(tw_acc, tw);
    }
    alignas(32) std::uint64_t len_l[4];
    alignas(32) std::uint64_t te_l[4];
    alignas(32) std::uint64_t tw_l[4];
    _mm256_store_si256(reinterpret_cast<__m256i *>(len_l), len_acc);
    _mm256_store_si256(reinterpret_cast<__m256i *>(te_l), te_acc);
    _mm256_store_si256(reinterpret_cast<__m256i *>(tw_l), tw_acc);
    PeFold fold;
    for (int lane = 0; lane < 4; ++lane) {
        if (len_l[lane] > fold.schedule_length)
            fold.schedule_length = len_l[lane];
        fold.total_elements += te_l[lane];
        fold.busy_cycles += tw_l[lane];
    }
    const PeFold tail = peScheduleFoldScalar(acc4 + 4 * i, n - i, dep);
    if (tail.schedule_length > fold.schedule_length)
        fold.schedule_length = tail.schedule_length;
    fold.total_elements += tail.total_elements;
    fold.busy_cycles += tail.busy_cycles;
    return fold;
}

#undef MISAM_AVX2

// ---------------------------------------------------------------------
// AVX-512 kernels (x86-64, runtime-probed for F+BW+DQ+VL). The host we
// target has no VPOPCNTDQ, so popcount stays on Mula's shuffle method,
// just at 512-bit width; DQ's vpmullq gives the schedule fold a full
// 64-bit product.
// ---------------------------------------------------------------------

#define MISAM_AVX512                                                   \
    __attribute__((target("avx512f,avx512bw,avx512dq,avx512vl")))

MISAM_AVX512 void
orIntoAvx512(std::uint64_t *acc, const std::uint64_t *src,
             std::size_t words)
{
    std::size_t i = 0;
    for (; i + 8 <= words; i += 8) {
        const __m512i a = _mm512_loadu_si512(acc + i);
        const __m512i b = _mm512_loadu_si512(src + i);
        _mm512_storeu_si512(acc + i, _mm512_or_si512(a, b));
    }
    for (; i < words; ++i)
        acc[i] |= src[i];
}

MISAM_AVX512 std::uint64_t
popcountAndClearAvx512(std::uint64_t *words, std::size_t n)
{
    const __m512i lookup = _mm512_broadcast_i32x4(_mm_setr_epi8(
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4));
    const __m512i low_mask = _mm512_set1_epi8(0x0f);
    const __m512i zero = _mm512_setzero_si512();
    __m512i acc = zero;
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m512i v = _mm512_loadu_si512(words + i);
        const __m512i lo = _mm512_and_si512(v, low_mask);
        const __m512i hi =
            _mm512_and_si512(_mm512_srli_epi32(v, 4), low_mask);
        const __m512i cnt =
            _mm512_add_epi8(_mm512_shuffle_epi8(lookup, lo),
                            _mm512_shuffle_epi8(lookup, hi));
        acc = _mm512_add_epi64(acc, _mm512_sad_epu8(cnt, zero));
        _mm512_storeu_si512(words + i, zero);
    }
    std::uint64_t total =
        static_cast<std::uint64_t>(_mm512_reduce_add_epi64(acc));
    for (; i < n; ++i) {
        total += static_cast<std::uint64_t>(std::popcount(words[i]));
        words[i] = 0;
    }
    return total;
}

MISAM_AVX512 void
ceilDivWeightsAvx512(std::uint64_t *dst, const std::uint64_t *row_nnz,
                     std::size_t n, double eff_lanes,
                     std::uint64_t meta)
{
    // DQ's direct u64<->f64 conversions round/truncate exactly like the
    // scalar casts, so no 2^52 trick is needed here.
    const __m512d lanes_v = _mm512_set1_pd(eff_lanes);
    const __m512i meta_v =
        _mm512_set1_epi64(static_cast<long long>(meta));
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m512i nnz = _mm512_loadu_si512(row_nnz + i);
        const __m512d q =
            _mm512_div_pd(_mm512_cvtepu64_pd(nnz), lanes_v);
        const __m512d c = _mm512_roundscale_pd(
            q, _MM_FROUND_TO_POS_INF | _MM_FROUND_NO_EXC);
        _mm512_storeu_si512(
            dst + i,
            _mm512_add_epi64(_mm512_cvttpd_epu64(c), meta_v));
    }
    ceilDivWeightsScalar(dst + i, row_nnz + i, n - i, eff_lanes, meta);
}

MISAM_AVX512 PeFold
peScheduleFoldAvx512(const std::uint64_t *acc4, std::size_t n,
                     std::uint64_t dep)
{
    const __m512i dep_v =
        _mm512_set1_epi64(static_cast<long long>(dep));
    const __m512i one = _mm512_set1_epi64(1);
    const __m512i zero = _mm512_setzero_si512();
    const __m512i lo_half = _mm512_setr_epi64(0, 1, 2, 3, 8, 9, 10, 11);
    __m512i len_acc = zero;
    __m512i te_acc = zero;
    __m512i tw_acc = zero;
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const std::uint64_t *base = acc4 + 4 * i;
        const __m512i z0 = _mm512_loadu_si512(base);
        const __m512i z1 = _mm512_loadu_si512(base + 8);
        const __m512i z2 = _mm512_loadu_si512(base + 16);
        const __m512i z3 = _mm512_loadu_si512(base + 24);
        // 8x4 u64 transpose via two-source permutes: per field f, lanes
        // {f, f+4} of each record pair, then splice the four-record
        // halves together.
        __m512i field[4];
        for (int f = 0; f < 4; ++f) {
            const __m512i idx = _mm512_setr_epi64(f, f + 4, f + 8,
                                                  f + 12, f, f + 4,
                                                  f + 8, f + 12);
            const __m512i a = _mm512_permutex2var_epi64(z0, idx, z1);
            const __m512i b = _mm512_permutex2var_epi64(z2, idx, z3);
            field[f] = _mm512_permutex2var_epi64(a, lo_half, b);
        }
        const __m512i te = field[0];
        const __m512i tw = field[1];
        const __m512i mc = field[2];
        const __m512i ram = field[3];
        const __m512i cooldown_raw = _mm512_add_epi64(
            _mm512_mullo_epi64(_mm512_sub_epi64(mc, one), dep_v), ram);
        const __mmask8 mc_nz = _mm512_test_epi64_mask(mc, mc);
        const __m512i cooldown =
            _mm512_maskz_mov_epi64(mc_nz, cooldown_raw);
        const __mmask8 tw_nz = _mm512_test_epi64_mask(tw, tw);
        const __m512i len = _mm512_maskz_mov_epi64(
            tw_nz, _mm512_max_epu64(tw, cooldown));
        len_acc = _mm512_max_epu64(len_acc, len);
        te_acc = _mm512_add_epi64(te_acc, te);
        tw_acc = _mm512_add_epi64(tw_acc, tw);
    }
    PeFold fold;
    fold.schedule_length = _mm512_reduce_max_epu64(len_acc);
    fold.total_elements =
        static_cast<std::uint64_t>(_mm512_reduce_add_epi64(te_acc));
    fold.busy_cycles =
        static_cast<std::uint64_t>(_mm512_reduce_add_epi64(tw_acc));
    const PeFold tail = peScheduleFoldScalar(acc4 + 4 * i, n - i, dep);
    if (tail.schedule_length > fold.schedule_length)
        fold.schedule_length = tail.schedule_length;
    fold.total_elements += tail.total_elements;
    fold.busy_cycles += tail.busy_cycles;
    return fold;
}

MISAM_AVX512 std::size_t
expandSetBitsAvx512(std::uint64_t *words, std::size_t n,
                    std::uint32_t base, std::uint32_t *dst)
{
    const __m512i iota = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8,
                                           9, 10, 11, 12, 13, 14, 15);
    std::size_t out = 0;
    for (std::size_t w = 0; w < n; ++w) {
        std::uint64_t bits = words[w];
        if (bits == 0)
            continue;
        words[w] = 0;
        const std::uint32_t word_base =
            base + static_cast<std::uint32_t>(w) * 64u;
        // Sparse words: four masked compress-stores cost more than a
        // handful of ctz steps. Same ascending output either way, so
        // the cutover is invisible to callers.
        if (std::popcount(bits) < 8) {
            while (bits != 0) {
                dst[out++] =
                    word_base +
                    static_cast<std::uint32_t>(std::countr_zero(bits));
                bits &= bits - 1;
            }
            continue;
        }
        for (int half = 0; half < 4; ++half) {
            const auto m =
                static_cast<__mmask16>(bits >> (16 * half));
            if (m == 0)
                continue;
            const __m512i vals = _mm512_add_epi32(
                iota, _mm512_set1_epi32(static_cast<int>(
                          word_base + 16u * static_cast<unsigned>(
                                                half))));
            _mm512_mask_compressstoreu_epi32(dst + out, m, vals);
            out += static_cast<std::size_t>(
                std::popcount(static_cast<std::uint32_t>(m)));
        }
    }
    return out;
}

#undef MISAM_AVX512

#endif // __x86_64__

// ---------------------------------------------------------------------
// NEON kernels (aarch64 baseline; no runtime probe needed). The f64 and
// fold kernels stay on the scalar variants there — the integer paths
// are where NEON pays, and every variant is byte-identical anyway.
// ---------------------------------------------------------------------

#if defined(__aarch64__)

void
orIntoNeon(std::uint64_t *acc, const std::uint64_t *src,
           std::size_t words)
{
    std::size_t i = 0;
    for (; i + 2 <= words; i += 2) {
        const uint64x2_t a = vld1q_u64(acc + i);
        const uint64x2_t b = vld1q_u64(src + i);
        vst1q_u64(acc + i, vorrq_u64(a, b));
    }
    for (; i < words; ++i)
        acc[i] |= src[i];
}

std::uint64_t
popcountAndClearNeon(std::uint64_t *words, std::size_t n)
{
    uint64x2_t acc = vdupq_n_u64(0);
    const uint64x2_t zero = vdupq_n_u64(0);
    std::size_t i = 0;
    for (; i + 2 <= n; i += 2) {
        const uint8x16_t v =
            vreinterpretq_u8_u64(vld1q_u64(words + i));
        const uint8x16_t cnt = vcntq_u8(v);
        acc = vaddq_u64(
            acc, vpaddlq_u32(vpaddlq_u16(vpaddlq_u8(cnt))));
        vst1q_u64(words + i, zero);
    }
    std::uint64_t total =
        vgetq_lane_u64(acc, 0) + vgetq_lane_u64(acc, 1);
    for (; i < n; ++i) {
        total += static_cast<std::uint64_t>(std::popcount(words[i]));
        words[i] = 0;
    }
    return total;
}

#endif // __aarch64__
// misam-lint: hot-path end

} // namespace

const char *
backendName(Backend backend)
{
    switch (backend) {
      case Backend::Scalar:
        return "scalar";
      case Backend::Avx2:
        return "avx2";
      case Backend::Neon:
        return "neon";
      case Backend::Avx512:
        return "avx512";
    }
    return "?";
}

bool
backendSupported(Backend backend)
{
    switch (backend) {
      case Backend::Scalar:
        return true;
      case Backend::Avx2:
#if defined(__x86_64__)
        return __builtin_cpu_supports("avx2") != 0;
#else
        return false;
#endif
      case Backend::Neon:
#if defined(__aarch64__)
        return true;
#else
        return false;
#endif
      case Backend::Avx512:
#if defined(__x86_64__)
        return __builtin_cpu_supports("avx512f") != 0 &&
               __builtin_cpu_supports("avx512bw") != 0 &&
               __builtin_cpu_supports("avx512dq") != 0 &&
               __builtin_cpu_supports("avx512vl") != 0;
#else
        return false;
#endif
    }
    return false;
}

Backend
bestSupportedBackend()
{
    if (backendSupported(Backend::Avx512))
        return Backend::Avx512;
    if (backendSupported(Backend::Avx2))
        return Backend::Avx2;
    if (backendSupported(Backend::Neon))
        return Backend::Neon;
    return Backend::Scalar;
}

Backend
activeBackend()
{
    int current = g_backend.load(std::memory_order_relaxed);
    if (current < 0) {
        // Resolution is deterministic, so a first-use race just stores
        // the same value twice.
        current = static_cast<int>(resolveFromEnv());
        g_backend.store(current, std::memory_order_relaxed);
    }
    return static_cast<Backend>(current);
}

void
setBackendForTesting(Backend backend)
{
    if (!backendSupported(backend))
        fatal("setBackendForTesting: backend '", backendName(backend),
              "' is not executable on this host");
    g_backend.store(static_cast<int>(backend),
                    std::memory_order_relaxed);
    publishBackendGauge();
}

void
resetBackendFromEnv()
{
    g_backend.store(-1, std::memory_order_relaxed);
    publishBackendGauge();
}

void
orInto(std::uint64_t *acc, const std::uint64_t *src, std::size_t words)
{
    switch (activeBackend()) {
#if defined(__x86_64__)
      case Backend::Avx2:
        orIntoAvx2(acc, src, words);
        return;
      case Backend::Avx512:
        orIntoAvx512(acc, src, words);
        return;
#endif
#if defined(__aarch64__)
      case Backend::Neon:
        orIntoNeon(acc, src, words);
        return;
#endif
      default:
        orIntoScalar(acc, src, words);
        return;
    }
}

std::uint64_t
popcountAndClear(std::uint64_t *words, std::size_t n)
{
    switch (activeBackend()) {
#if defined(__x86_64__)
      case Backend::Avx2:
        return popcountAndClearAvx2(words, n);
      case Backend::Avx512:
        return popcountAndClearAvx512(words, n);
#endif
#if defined(__aarch64__)
      case Backend::Neon:
        return popcountAndClearNeon(words, n);
#endif
      default:
        return popcountAndClearScalar(words, n);
    }
}

void
ceilDivWeights(std::uint64_t *dst, const std::uint64_t *row_nnz,
               std::size_t n, double eff_lanes, std::uint64_t meta)
{
    bumpBy(g_weight_builds, g_mirror_weight_builds, 1);
    switch (activeBackend()) {
#if defined(__x86_64__)
      case Backend::Avx2:
        ceilDivWeightsAvx2(dst, row_nnz, n, eff_lanes, meta);
        return;
      case Backend::Avx512:
        ceilDivWeightsAvx512(dst, row_nnz, n, eff_lanes, meta);
        return;
#endif
      default:
        ceilDivWeightsScalar(dst, row_nnz, n, eff_lanes, meta);
        return;
    }
}

PeFold
peScheduleFold(const std::uint64_t *acc4, std::size_t n,
               std::uint64_t dep)
{
    bumpBy(g_pe_folds, g_mirror_pe_folds, 1);
    switch (activeBackend()) {
#if defined(__x86_64__)
      case Backend::Avx2:
        return peScheduleFoldAvx2(acc4, n, dep);
      case Backend::Avx512:
        return peScheduleFoldAvx512(acc4, n, dep);
#endif
      default:
        return peScheduleFoldScalar(acc4, n, dep);
    }
}

std::size_t
expandSetBits(std::uint64_t *words, std::size_t n, std::uint32_t base,
              std::uint32_t *dst)
{
    switch (activeBackend()) {
#if defined(__x86_64__)
      case Backend::Avx512:
        return expandSetBitsAvx512(words, n, base, dst);
#endif
      default:
        return expandSetBitsScalar(words, n, base, dst);
    }
}

SimdCounters
simdCounters()
{
    SimdCounters c;
    c.bitmap_rows = g_bitmap_rows.load(std::memory_order_relaxed);
    c.weight_builds = g_weight_builds.load(std::memory_order_relaxed);
    c.pe_folds = g_pe_folds.load(std::memory_order_relaxed);
    c.csc_blocked = g_csc_blocked.load(std::memory_order_relaxed);
    c.expand_rows = g_expand_rows.load(std::memory_order_relaxed);
    return c;
}

void
noteBitmapRows(std::uint64_t rows)
{
    bumpBy(g_bitmap_rows, g_mirror_bitmap_rows, rows);
}

void
noteBlockedCsc()
{
    bumpBy(g_csc_blocked, g_mirror_csc_blocked, 1);
}

void
noteExpandRows(std::uint64_t rows)
{
    bumpBy(g_expand_rows, g_mirror_expand_rows, rows);
}

void
setSimdMetrics(MetricsRegistry *registry)
{
    if (registry == nullptr) {
        g_mirror_bitmap_rows.store(nullptr, std::memory_order_relaxed);
        g_mirror_weight_builds.store(nullptr,
                                     std::memory_order_relaxed);
        g_mirror_pe_folds.store(nullptr, std::memory_order_relaxed);
        g_mirror_csc_blocked.store(nullptr, std::memory_order_relaxed);
        g_mirror_expand_rows.store(nullptr, std::memory_order_relaxed);
        g_mirror_backend.store(nullptr, std::memory_order_relaxed);
        return;
    }
    g_mirror_bitmap_rows.store(
        &registry->counter("simd.bitmap_rows"),
        std::memory_order_relaxed);
    g_mirror_weight_builds.store(
        &registry->counter("simd.weight_builds"),
        std::memory_order_relaxed);
    g_mirror_pe_folds.store(&registry->counter("simd.pe_folds"),
                            std::memory_order_relaxed);
    g_mirror_csc_blocked.store(&registry->counter("simd.csc_blocked"),
                               std::memory_order_relaxed);
    g_mirror_expand_rows.store(
        &registry->counter("simd.expand_rows"),
        std::memory_order_relaxed);
    g_mirror_backend.store(&registry->gauge("simd.backend"),
                           std::memory_order_relaxed);
    publishBackendGauge();
}

} // namespace misam::simd

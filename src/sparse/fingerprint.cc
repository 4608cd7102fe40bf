#include "sparse/fingerprint.hh"

#include <algorithm>
#include <bit>
#include <cstring>

namespace misam {

namespace {

/** splitmix64 finalizer: full-avalanche 64-bit mix. */
std::uint64_t
mix64(std::uint64_t x)
{
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return x;
}

std::uint64_t
rotl64(std::uint64_t x, int r)
{
    return (x << r) | (x >> (64 - r));
}

/**
 * Cheap per-word round for the bulk path. No finalizer — avalanche is
 * deferred to the lane fold / digest, which is what makes this ~4x
 * cheaper than mix() per word.
 */
std::uint64_t
bulkRound(std::uint64_t lane, std::uint64_t word)
{
    return rotl64(lane ^ (word * 0x9e3779b97f4a7c15ULL), 31) *
           0xc2b2ae3d27d4eb4fULL;
}

// Domain separators between the matrix sections, so e.g. a word moving
// from the end of col_idx to the start of values changes the digest.
constexpr std::uint64_t kTagShape = 0x5368617065ULL;   // "Shape"
constexpr std::uint64_t kTagRowPtr = 0x526f77507472ULL; // "RowPtr"
constexpr std::uint64_t kTagColIdx = 0x436f6c496478ULL; // "ColIdx"
constexpr std::uint64_t kTagValues = 0x56616c756573ULL; // "Values"

/** Longest run (words) one mixRange absorbs from col_idx or values. */
constexpr std::size_t kChunkWords = 512;

/** Word i of a 64-bit array (row_ptr, or values bit-cast), in place. */
struct Words64
{
    const void *base;

    std::uint64_t
    operator()(std::size_t i) const
    {
        std::uint64_t w;
        std::memcpy(&w, static_cast<const char *>(base) + 8 * i, 8);
        return w;
    }
};

/** Word i of a u32 array: the pair (2i, 2i+1) packed as lo | hi << 32. */
struct PairsU32
{
    const std::uint32_t *base;

    std::uint64_t
    operator()(std::size_t i) const
    {
        // Little-endian, the pair's eight bytes are the packed word.
        if constexpr (std::endian::native == std::endian::little)
            return Words64{base}(i);
        else
            return static_cast<std::uint64_t>(base[2 * i]) |
                   static_cast<std::uint64_t>(base[2 * i + 1]) << 32;
    }
};

/**
 * Incremental two-lane mixer over 64-bit words. Word order matters
 * (by design: permuted arrays are different content).
 */
class FingerprintHasher
{
  public:
    /** Fold one 64-bit word into both lanes. */
    void
    mix(std::uint64_t word)
    {
        h1_ = mix64(h1_ ^ (word * 0x9e3779b97f4a7c15ULL));
        h2_ = mix64(rotl64(h2_, 29) + (word * 0xc2b2ae3d27d4eb4fULL));
        ++len_;
    }

    /**
     * Absorb words word(0) .. word(n - 1) as one run through the
     * four-lane loop. The lane fold keeps run boundaries part of the
     * digest, so mixRange over two words and two mix() calls produce
     * different (equally valid) digests: the framing is fixed.
     */
    template <class WordAt>
    void mixRange(const WordAt &word, std::size_t n);

    /** Finalize. The hasher may keep absorbing words afterwards. */
    Fingerprint128
    digest() const
    {
        const std::uint64_t a = mix64(h1_ + len_ * 0xff51afd7ed558ccdULL);
        const std::uint64_t b = mix64(h2_ ^ rotl64(a, 31));
        return {a, b};
    }

  private:
    std::uint64_t h1_ = 0x6a09e667f3bcc908ULL; ///< sqrt(2) bits.
    std::uint64_t h2_ = 0xbb67ae8584caa73bULL; ///< sqrt(3) bits.
    std::uint64_t len_ = 0;
};

// misam-lint: hot-path begin -- the lane loop reads every rowPtr/colIdx/values word of an unfingerprinted matrix in place; no buffers
template <class WordAt>
void
FingerprintHasher::mixRange(const WordAt &word, std::size_t n)
{
    // Four independent lanes seeded from the running state, word i
    // going to lane i % 4: the multiply chains of consecutive words
    // overlap instead of serializing. The tail goes through lane 0.
    std::uint64_t lanes[4] = {
        h1_ ^ 0x243f6a8885a308d3ULL,
        h2_ + 0x13198a2e03707344ULL,
        rotl64(h1_, 17) + 0xa4093822299f31d0ULL,
        rotl64(h2_, 41) ^ 0x082efa98ec4e6c89ULL,
    };
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        lanes[0] = bulkRound(lanes[0], word(i));
        lanes[1] = bulkRound(lanes[1], word(i + 1));
        lanes[2] = bulkRound(lanes[2], word(i + 2));
        lanes[3] = bulkRound(lanes[3], word(i + 3));
    }
    for (; i < n; ++i)
        lanes[0] = bulkRound(lanes[0], word(i));
    // Fold the lanes (and the run length, so runs of different word
    // counts never alias) back into the running state through the
    // full-avalanche path.
    mix(lanes[0]);
    mix(lanes[1]);
    mix(lanes[2]);
    mix(lanes[3]);
    mix(n);
}

} // namespace

Fingerprint128
fingerprintMatrix(const CsrMatrix &m)
{
    // The matrix is immutable after construction, so the digest is
    // memoized on the matrix itself: the fingerprint-keyed caches
    // (csc / symbolic / numeric / histogram) all key the same operand
    // and would otherwise each re-hash O(nnz) content per warm lookup.
    {
        std::uint64_t hi, lo;
        if (m.cachedFingerprint(&hi, &lo))
            return {hi, lo};
    }

    FingerprintHasher h;
    h.mix(kTagShape);
    h.mix(m.rows());
    h.mix(m.cols());
    h.mix(m.nnz());

    h.mix(kTagRowPtr);
    static_assert(sizeof(Offset) == sizeof(std::uint64_t));
    h.mixRange(Words64{m.rowPtr().data()}, m.rowPtr().size());

    h.mix(kTagColIdx);
    {
        // Two 32-bit column indices per word, at most kChunkWords words
        // per run. An odd trailing index is a one-word run of its own
        // in the low half; the nnz word mixed above disambiguates that
        // from a packed pair with a zero high half.
        static_assert(sizeof(Index) == sizeof(std::uint32_t));
        const Index *ci = m.colIdx().data();
        const std::size_t n = m.colIdx().size();
        std::size_t i = 0;
        while (i + 1 < n) {
            const std::size_t take = std::min(kChunkWords, (n - i) / 2);
            h.mixRange(PairsU32{ci + i}, take);
            i += 2 * take;
        }
        if (i < n) {
            const std::uint64_t tail = ci[i];
            h.mixRange(Words64{&tail}, 1);
        }
    }

    h.mix(kTagValues);
    {
        static_assert(sizeof(Value) == sizeof(std::uint64_t));
        const Value *vals = m.values().data();
        const std::size_t n = m.values().size();
        for (std::size_t i = 0; i < n; i += kChunkWords)
            h.mixRange(Words64{vals + i}, std::min(kChunkWords, n - i));
    }
    const Fingerprint128 fp = h.digest();
    m.storeFingerprint(fp.hi, fp.lo);
    return fp;
}
// misam-lint: hot-path end

} // namespace misam

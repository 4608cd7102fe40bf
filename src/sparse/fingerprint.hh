/**
 * @file
 * 128-bit content fingerprints for sparse matrices.
 *
 * Lives in sparse/ because a fingerprint is a pure function of CsrMatrix
 * content — every layer above sparse (sim workspace caches, core seed
 * derivation, the serving layer's operand cache) keys on it, so it must
 * sit at the bottom of the include DAG rather than in serve/.
 *
 * The serving layer's operand cache (serve/summary_cache.hh) is
 * content-addressed: two CsrMatrix objects with the same shape and the
 * same row_ptr/col_idx/values arrays hash to the same fingerprint, so a
 * weight matrix resubmitted by every inference request is summarized
 * exactly once. The fingerprint also feeds seed derivation in
 * MisamFramework::executeStream — mixing matrix *content* (not just the
 * row count) into the tile-height RNG, so two streams over different
 * matrices never replay the same tile-size sequence by accident.
 *
 * The hash keeps two splitmix64-finalized lanes of running state; bulk
 * array content flows through a four-lane murmur-style inner loop (one
 * xor-rotate-multiply round per word, lanes independent so the four
 * multiply chains overlap) that is folded back into the running state
 * per run: row_ptr is one run, col_idx and values go in runs of at most
 * 512 words. Deterministic across platforms, and wide enough (128 bits)
 * that accidental collisions are not a practical concern for a cache
 * key. It is NOT cryptographic.
 *
 * The loop is scalar and reads row_ptr, col_idx and values in place,
 * one 8-byte load per word (a col_idx word is a pair of indices). There
 * is no vector variant on purpose: each lane is a serial chain of
 * xor, rotate and multiply, so a vector multiply (vpmullq's latency is
 * several times scalar imul's) only lengthens the chains, and the
 * scalar loop already hashes as fast as a plain read-and-sum of the
 * same arrays.
 */

#ifndef MISAM_SPARSE_FINGERPRINT_HH
#define MISAM_SPARSE_FINGERPRINT_HH

#include <cstddef>
#include <cstdint>

#include "sparse/csr.hh"

namespace misam {

/** A 128-bit content hash. Value-comparable, usable as a map key. */
struct Fingerprint128
{
    std::uint64_t hi = 0;
    std::uint64_t lo = 0;

    bool operator==(const Fingerprint128 &) const = default;

    /** Fold to 64 bits (both lanes are already well mixed). */
    std::uint64_t
    fold() const
    {
        return hi ^ (lo * 0x9e3779b97f4a7c15ULL);
    }
};

/** Hash functor for unordered containers keyed by Fingerprint128. */
struct FingerprintHash
{
    std::size_t
    operator()(const Fingerprint128 &fp) const
    {
        return static_cast<std::size_t>(fp.fold());
    }
};

/**
 * Fingerprint a CSR matrix's full content: shape, row pointers, column
 * indices, and values (bit-cast, so -0.0 and 0.0 differ — fingerprints
 * track representation, not numeric equivalence). O(rows + nnz) with a
 * far smaller constant than feature summarization.
 */
Fingerprint128 fingerprintMatrix(const CsrMatrix &m);

} // namespace misam

#endif // MISAM_SPARSE_FINGERPRINT_HH

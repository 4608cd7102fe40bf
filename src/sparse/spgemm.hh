/**
 * @file
 * Reference (value-correct) SpGEMM kernels for the three dataflows the
 * paper's §2.1 surveys: inner product, outer product, and row-wise
 * (Gustavson) product. These establish functional ground truth for the
 * accelerator models and give the software baselines something real to
 * time; the cycle-level simulators model the *hardware cost* of the same
 * traversals.
 */

#ifndef MISAM_SPARSE_SPGEMM_HH
#define MISAM_SPARSE_SPGEMM_HH

#include <vector>

#include "sparse/csc.hh"
#include "sparse/csr.hh"

namespace misam {

/** The three classical SpGEMM dataflows. */
enum class SpgemmDataflow { InnerProduct, OuterProduct, RowWise };

/** Human-readable dataflow name ("IP", "OP", "RW"). */
const char *dataflowName(SpgemmDataflow dataflow);

/**
 * Row-wise (Gustavson) product: C(i,:) += A(i,k) * B(k,:). The canonical
 * sparse-accumulator implementation; output reuse, no index matching.
 */
CsrMatrix spgemmRowWise(const CsrMatrix &a, const CsrMatrix &b);

/**
 * Inner product: C(i,j) = <A(i,:), B(:,j)> via sorted-list intersection.
 * Requires B in CSC (as the paper notes) to avoid irregular access.
 */
CsrMatrix spgemmInnerProduct(const CsrMatrix &a, const CscMatrix &b);

/**
 * Outer product: C += A(:,k) (x) B(k,:) accumulated across k. Requires A in
 * CSC; partial products are merged with per-row sparse accumulators.
 */
CsrMatrix spgemmOuterProduct(const CscMatrix &a, const CsrMatrix &b);

/** Dispatch on dataflow, converting formats as required. */
CsrMatrix spgemm(const CsrMatrix &a, const CsrMatrix &b,
                 SpgemmDataflow dataflow = SpgemmDataflow::RowWise);

/**
 * Number of scalar multiply ops an SpGEMM performs (the "effectual flops"):
 * sum over k of nnz(A(:,k)) * nnz(B(k,:)). Drives all the cost models.
 */
Offset spgemmMultiplyCount(const CsrMatrix &a, const CsrMatrix &b);

/**
 * Number of nonzeros in the product's structure, without computing values
 * (symbolic phase). Output-size term of the memory-traffic models.
 */
Offset spgemmOutputNnz(const CsrMatrix &a, const CsrMatrix &b);

/**
 * Compression factor nnz(C) / multiplies: how much accumulation collapses
 * partial products. Low factors penalize outer-product dataflows.
 */
double spgemmCompressionFactor(const CsrMatrix &a, const CsrMatrix &b);

/**
 * Everything the cost models need to know about A·B without computing
 * values, from ONE structure traversal: spgemmMultiplyCount and
 * spgemmOutputNnz each re-walk the operands, and Design 4's job weights
 * re-read every B row length — spgemmSymbolic produces all three at
 * once (values identical by construction; pinned by tests).
 */
struct SymbolicStats
{
    Offset multiplies = 0; ///< == spgemmMultiplyCount(a, b).
    Offset output_nnz = 0; ///< == spgemmOutputNnz(a, b).
    std::vector<Offset> b_row_nnz; ///< b_row_nnz[k] == b.rowNnz(k).
};

/**
 * One-pass symbolic analysis of C = A * B (structure only). Full-row
 * rule, in the bitmap merge (the variant a B averaging at least one
 * nonzero per occupancy word takes, dense B included): a B row is full
 * when b_row_nnz[k] == b.cols(); an A row that selects any full row has
 * exactly b.cols() output columns, so its merge stops at the first full
 * row it selects (its multiplies are still summed over every selected
 * row). Full rows are never merged and get no occupancy bitmap, so a
 * dense-B (DNN) product costs one pass over A's column indices. The
 * marker variant (hypersparse B) stamps every selected row.
 */
SymbolicStats spgemmSymbolic(const CsrMatrix &a, const CsrMatrix &b);

} // namespace misam

#endif // MISAM_SPARSE_SPGEMM_HH

/**
 * @file
 * Synthetic sparse-matrix generators.
 *
 * The paper's training set (6,219 matrices, sparsity 1%-99%) mixes
 * SuiteSparse structures with pruned-DNN tensors; these generators produce
 * the structural families that matter to the dataflow choice: uniform
 * random, banded (FEM/CFD-like), blocked, power-law graphs (social/p2p),
 * row-imbalanced, diagonal, and structured-pruned DNN weights.
 */

#ifndef MISAM_SPARSE_GENERATE_HH
#define MISAM_SPARSE_GENERATE_HH

#include <string>

#include "sparse/csr.hh"
#include "sparse/dense.hh"
#include "util/random.hh"

namespace misam {

/**
 * Uniform random matrix: each position independently nonzero with
 * probability `density`. Implemented by per-row binomial sampling of
 * distinct columns, so it is O(nnz), not O(rows*cols).
 */
CsrMatrix generateUniform(Index rows, Index cols, double density, Rng &rng);

/**
 * Banded matrix: nonzeros restricted to |i - j * rows/cols| <= bandwidth,
 * filled with probability `fill`. Models FEM/CFD stencil structures
 * (goodwin, sme3Db, msc10848 families).
 */
CsrMatrix generateBanded(Index rows, Index cols, Index bandwidth,
                         double fill, Rng &rng);

/**
 * Block-diagonal-dominant matrix: dense-ish blocks of `block_size` on the
 * diagonal (density `block_density`) plus sparse background fill. Models
 * circuit and multi-physics matrices (scircuit, gupta2 families).
 */
CsrMatrix generateBlockDiagonal(Index rows, Index cols, Index block_size,
                                double block_density,
                                double background_density, Rng &rng);

/**
 * Power-law (scale-free) square graph adjacency: out-degrees drawn from a
 * Zipf-like distribution with exponent `alpha`, targeting ~`target_nnz`
 * nonzeros. Models social/p2p/co-authorship graphs (p2p-Gnutella,
 * ca-CondMat, email-Enron families).
 */
CsrMatrix generatePowerLawGraph(Index n, Offset target_nnz, double alpha,
                                Rng &rng);

/**
 * Row-imbalanced matrix: a fraction `hot_fraction` of rows receive
 * `imbalance` times the average row length; the rest share the remainder.
 * Directly exercises the A_load_imbalance_row feature / Design 3 niche.
 */
CsrMatrix generateRowImbalanced(Index rows, Index cols, double density,
                                double hot_fraction, double imbalance,
                                Rng &rng);

/** Diagonal matrix with uniform random values. */
CsrMatrix generateDiagonal(Index n, Rng &rng);

/**
 * Structured-pruned DNN weight matrix: whole rows (granularity = rows) or
 * square blocks are kept/zeroed to reach `density`, mirroring STR-style
 * structured pruning of ResNet/VGG layers. Kept positions are fully dense
 * within their structure.
 */
CsrMatrix generateStructuredPruned(Index rows, Index cols, double density,
                                   Index block_size, Rng &rng);

/**
 * R-MAT (Graph500-style) recursive power-law graph: each edge lands in
 * a quadrant with probabilities (pa, pb, pc, 1-pa-pb-pc), recursively.
 * Produces the skewed degree distributions *and* the community-block
 * clustering real social/web graphs exhibit — a harder structural case
 * than the independent-degree power-law generator.
 */
CsrMatrix generateRmat(Index n, Offset target_nnz, double pa, double pb,
                       double pc, Rng &rng);

/** Fully dense matrix in CSR form (the D operand of MS x D workloads). */
CsrMatrix generateDenseCsr(Index rows, Index cols, Rng &rng);

/**
 * fatal() (reason prefixed by `what`) unless a rows x cols
 * generateDenseCsr result fits: its CSR bytes (row pointers, plus a
 * column index and a value per entry) must not overflow 64 bits nor
 * exceed physical memory (when sysconf reports it). Call it before
 * generating a dense operand whose width comes from user input; it
 * allocates nothing.
 */
void requireDenseCsrFits(Index rows, Index cols, const std::string &what);

/** Dense row-major matrix with uniform values in [-1, 1). */
DenseMatrix generateDense(Index rows, Index cols, Rng &rng);

} // namespace misam

#endif // MISAM_SPARSE_GENERATE_HH

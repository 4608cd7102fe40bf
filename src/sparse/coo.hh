/**
 * @file
 * Coordinate-format (COO) sparse matrix.
 *
 * COO is the interchange format of the library: generators emit it, Matrix
 * Market I/O reads and writes it, and conversions produce the compressed
 * formats the kernels and the accelerator models consume. Design 4 of the
 * Misam architecture also streams matrix B in a packed 64-bit COO encoding,
 * which the bandwidth model accounts for (8 packed entries per 512-bit HBM
 * word).
 */

#ifndef MISAM_SPARSE_COO_HH
#define MISAM_SPARSE_COO_HH

#include <vector>

#include "sparse/types.hh"

namespace misam {

/** A single nonzero entry of a COO matrix. */
struct CooEntry
{
    Index row;
    Index col;
    Value value;

    /** Row-major ordering used by sortAndCombine. */
    friend bool
    operator<(const CooEntry &a, const CooEntry &b)
    {
        if (a.row != b.row)
            return a.row < b.row;
        return a.col < b.col;
    }
};

/**
 * Sparse matrix in coordinate format.
 *
 * Entries may be appended in any order; call sortAndCombine() to obtain the
 * canonical row-major, duplicate-free form required by the conversions.
 */
class CooMatrix
{
  public:
    CooMatrix() = default;

    /** Construct an empty rows x cols matrix. */
    CooMatrix(Index rows, Index cols) : rows_(rows), cols_(cols) {}

    /** Number of rows. */
    Index rows() const { return rows_; }

    /** Number of columns. */
    Index cols() const { return cols_; }

    /** Number of stored entries (duplicates count until combined). */
    Offset nnz() const { return entries_.size(); }

    /** Fraction of positions that are stored nonzeros. */
    double density() const;

    /** Append an entry; indices must be in range (panics otherwise). */
    void addEntry(Index row, Index col, Value value);

    /** Reserve capacity for n entries. */
    void reserve(Offset n) { entries_.reserve(n); }

    /** Read-only access to the entry list. */
    const std::vector<CooEntry> &entries() const { return entries_; }

    /** Mutable access (used by conversions and I/O). */
    std::vector<CooEntry> &entries() { return entries_; }

    /**
     * Sort entries row-major and sum duplicates. Entries whose combined
     * value is exactly zero are kept (explicit zeros are legal in Matrix
     * Market files and some pruning flows produce them). A canonical
     * matrix is left as it is after one linear scan, so converting a
     * matrix that is already sorted costs no second sort.
     */
    void sortAndCombine();

    /** True if entries are sorted row-major with no duplicate positions. */
    bool isCanonical() const;

  private:
    Index rows_ = 0;
    Index cols_ = 0;
    std::vector<CooEntry> entries_;
};

} // namespace misam

#endif // MISAM_SPARSE_COO_HH

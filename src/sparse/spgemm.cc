#include "sparse/spgemm.hh"

#include <algorithm>
#include <cstdint>

#include "sparse/convert.hh"
#include "util/logging.hh"
#include "util/simd.hh"

namespace misam {

namespace {

void
checkDims(Index a_cols, Index b_rows)
{
    if (a_cols != b_rows)
        fatal("spgemm: dimension mismatch, A has ", a_cols,
              " columns but B has ", b_rows, " rows");
}

/**
 * Dense sparse-accumulator (SPA) sized to the output column count, reused
 * across rows. Tracks touched positions so reset is O(row nnz).
 */
class SparseAccumulator
{
  public:
    explicit SparseAccumulator(Index cols)
        : values_(cols, 0.0), occupied_(cols, false)
    {
    }

    void
    add(Index col, Value v)
    {
        if (!occupied_[col]) {
            occupied_[col] = true;
            touched_.push_back(col);
        }
        values_[col] += v;
    }

    /** Flush the accumulated row (sorted by column) and reset. */
    void
    flush(std::vector<Index> &col_idx, std::vector<Value> &values)
    {
        std::sort(touched_.begin(), touched_.end());
        for (Index c : touched_) {
            col_idx.push_back(c);
            values.push_back(values_[c]);
            values_[c] = 0.0;
            occupied_[c] = false;
        }
        touched_.clear();
    }

  private:
    std::vector<Value> values_;
    std::vector<bool> occupied_;
    std::vector<Index> touched_;
};

} // namespace

const char *
dataflowName(SpgemmDataflow dataflow)
{
    switch (dataflow) {
      case SpgemmDataflow::InnerProduct:
        return "IP";
      case SpgemmDataflow::OuterProduct:
        return "OP";
      case SpgemmDataflow::RowWise:
        return "RW";
    }
    return "?";
}

CsrMatrix
spgemmRowWise(const CsrMatrix &a, const CsrMatrix &b)
{
    checkDims(a.cols(), b.rows());
    const Index rows = a.rows();
    const Index cols = b.cols();

    std::vector<Offset> row_ptr(rows + 1, 0);
    std::vector<Index> col_idx;
    std::vector<Value> values;
    SparseAccumulator spa(cols);

    for (Index i = 0; i < rows; ++i) {
        auto a_cols = a.rowCols(i);
        auto a_vals = a.rowVals(i);
        for (std::size_t ka = 0; ka < a_cols.size(); ++ka) {
            const Index k = a_cols[ka];
            const Value a_val = a_vals[ka];
            auto b_cols = b.rowCols(k);
            auto b_vals = b.rowVals(k);
            for (std::size_t kb = 0; kb < b_cols.size(); ++kb)
                spa.add(b_cols[kb], a_val * b_vals[kb]);
        }
        spa.flush(col_idx, values);
        row_ptr[i + 1] = values.size();
    }
    return {rows, cols, std::move(row_ptr), std::move(col_idx),
            std::move(values)};
}

CsrMatrix
spgemmInnerProduct(const CsrMatrix &a, const CscMatrix &b)
{
    checkDims(a.cols(), b.rows());
    const Index rows = a.rows();
    const Index cols = b.cols();

    std::vector<Offset> row_ptr(rows + 1, 0);
    std::vector<Index> col_idx;
    std::vector<Value> values;

    for (Index i = 0; i < rows; ++i) {
        auto a_cols = a.rowCols(i);
        auto a_vals = a.rowVals(i);
        if (a_cols.empty()) {
            row_ptr[i + 1] = values.size();
            continue;
        }
        for (Index j = 0; j < cols; ++j) {
            auto b_rows = b.colRows(j);
            auto b_vals = b.colVals(j);
            // Two-pointer intersection of A(i,:) indices with B(:,j).
            std::size_t pa = 0;
            std::size_t pb = 0;
            Value dot = 0.0;
            bool hit = false;
            while (pa < a_cols.size() && pb < b_rows.size()) {
                if (a_cols[pa] < b_rows[pb]) {
                    ++pa;
                } else if (a_cols[pa] > b_rows[pb]) {
                    ++pb;
                } else {
                    dot += a_vals[pa] * b_vals[pb];
                    hit = true;
                    ++pa;
                    ++pb;
                }
            }
            if (hit) {
                col_idx.push_back(j);
                values.push_back(dot);
            }
        }
        row_ptr[i + 1] = values.size();
    }
    return {rows, cols, std::move(row_ptr), std::move(col_idx),
            std::move(values)};
}

CsrMatrix
spgemmOuterProduct(const CscMatrix &a, const CsrMatrix &b)
{
    checkDims(a.cols(), b.rows());
    const Index rows = a.rows();
    const Index cols = b.cols();

    // Accumulate all rank-1 partial products into per-output-row COO-style
    // lists, then merge. This mirrors the format/merge cost structure of
    // outer-product accelerators (partial matrices then merge phase).
    CooMatrix partials(rows, cols);
    for (Index k = 0; k < a.cols(); ++k) {
        auto a_rows = a.colRows(k);
        auto a_vals = a.colVals(k);
        auto b_cols = b.rowCols(k);
        auto b_vals = b.rowVals(k);
        for (std::size_t pa = 0; pa < a_rows.size(); ++pa)
            for (std::size_t pb = 0; pb < b_cols.size(); ++pb)
                partials.addEntry(a_rows[pa], b_cols[pb],
                                  a_vals[pa] * b_vals[pb]);
    }
    return cooToCsr(std::move(partials));
}

CsrMatrix
spgemm(const CsrMatrix &a, const CsrMatrix &b, SpgemmDataflow dataflow)
{
    switch (dataflow) {
      case SpgemmDataflow::RowWise:
        return spgemmRowWise(a, b);
      case SpgemmDataflow::InnerProduct:
        return spgemmInnerProduct(a, csrToCsc(b));
      case SpgemmDataflow::OuterProduct:
        return spgemmOuterProduct(csrToCsc(a), b);
    }
    panic("spgemm: unknown dataflow");
}

Offset
spgemmMultiplyCount(const CsrMatrix &a, const CsrMatrix &b)
{
    checkDims(a.cols(), b.rows());
    // multiplies = sum_i sum_{k in A(i,:)} nnz(B(k,:)).
    Offset total = 0;
    for (Index i = 0; i < a.rows(); ++i)
        for (Index k : a.rowCols(i))
            total += b.rowNnz(k);
    return total;
}

Offset
spgemmOutputNnz(const CsrMatrix &a, const CsrMatrix &b)
{
    checkDims(a.cols(), b.rows());
    const Index cols = b.cols();
    std::vector<Index> mark(cols, 0);
    Index stamp = 0;
    Offset total = 0;
    for (Index i = 0; i < a.rows(); ++i) {
        ++stamp;
        Offset row_nnz = 0;
        for (Index k : a.rowCols(i)) {
            for (Index j : b.rowCols(k)) {
                if (mark[j] != stamp) {
                    mark[j] = stamp;
                    ++row_nnz;
                }
            }
        }
        total += row_nnz;
    }
    return total;
}

double
spgemmCompressionFactor(const CsrMatrix &a, const CsrMatrix &b)
{
    const SymbolicStats sym = spgemmSymbolic(a, b);
    if (sym.multiplies == 0)
        return 1.0;
    return static_cast<double>(sym.output_nnz) /
           static_cast<double>(sym.multiplies);
}

namespace {

/**
 * Bitmap row-merge variant of the fused symbolic pass: each B row
 * becomes a column-occupancy bitmap, each output row ORs the bitmaps
 * its A nonzeros select (simd::orInto) and popcounts the union. Wins
 * when B rows average at least one set bit per occupancy word; the
 * caller gates on that, so hypersparse B stays on the marker path.
 * Full B rows get no bitmap: an output row selecting one has all
 * `cols` columns, so its merge stops there and never reads them.
 */
void
symbolicBitmap(const CsrMatrix &a, const CsrMatrix &b,
               std::size_t words, SymbolicStats &sym)
{
    const Offset cols = b.cols();
    const Offset *b_rp = b.rowPtr().data();
    const Index *b_ci = b.colIdx().data();
    const Offset *row_len = sym.b_row_nnz.data();
    std::vector<std::uint64_t> bitmaps(words * b.rows(), 0);
    for (Index k = 0; k < b.rows(); ++k) {
        if (row_len[k] == cols)
            continue;
        std::uint64_t *bits = bitmaps.data() + words * k;
        for (Offset q = b_rp[k]; q < b_rp[k + 1]; ++q) {
            const Index j = b_ci[q];
            bits[j >> 6] |= std::uint64_t{1} << (j & 63);
        }
    }

    const Offset *a_rp = a.rowPtr().data();
    const Index *a_ci = a.colIdx().data();
    std::vector<std::uint64_t> acc(words, 0);
    for (Index i = 0; i < a.rows(); ++i) {
        const Offset lo = a_rp[i];
        const Offset hi = a_rp[i + 1];
        if (lo == hi)
            continue;
        if (hi - lo == 1) {
            // One selected B row: its distinct columns are its nnz.
            const Index k = a_ci[lo];
            sym.multiplies += row_len[k];
            sym.output_nnz += row_len[k];
            continue;
        }
        // Merge until the first full row; from there the output row
        // has every column, and later rows only add their multiplies
        // (summed in a local: orInto is an opaque call, which would
        // force sym.multiplies through memory every iteration).
        Offset multiplies = 0;
        Offset p = lo;
        for (; p < hi; ++p) {
            const Index k = a_ci[p];
            multiplies += row_len[k];
            if (row_len[k] == cols)
                break;
            simd::orInto(acc.data(), bitmaps.data() + words * k, words);
        }
        if (p < hi) {
            for (++p; p < hi; ++p)
                multiplies += row_len[a_ci[p]];
            std::fill_n(acc.data(), words, std::uint64_t{0});
            sym.output_nnz += cols;
        } else {
            sym.output_nnz += simd::popcountAndClear(acc.data(), words);
        }
        sym.multiplies += multiplies;
    }
    simd::noteBitmapRows(a.rows());
}

/** Marker-array variant (branchless stamps); any backend, any shape. */
void
symbolicMarker(const CsrMatrix &a, const CsrMatrix &b,
               SymbolicStats &sym)
{
    const Offset *a_rp = a.rowPtr().data();
    const Index *a_ci = a.colIdx().data();
    const Offset *b_rp = b.rowPtr().data();
    const Index *b_ci = b.colIdx().data();
    const Offset *row_len = sym.b_row_nnz.data();
    std::vector<Index> mark(b.cols(), 0);
    Index stamp = 0;
    for (Index i = 0; i < a.rows(); ++i) {
        ++stamp;
        Offset row_nnz = 0;
        for (Offset p = a_rp[i]; p < a_rp[i + 1]; ++p) {
            const Index k = a_ci[p];
            sym.multiplies += row_len[k];
            for (Offset q = b_rp[k]; q < b_rp[k + 1]; ++q) {
                const Index j = b_ci[q];
                row_nnz += static_cast<Offset>(mark[j] != stamp);
                mark[j] = stamp;
            }
        }
        sym.output_nnz += row_nnz;
    }
}

} // namespace

SymbolicStats
spgemmSymbolic(const CsrMatrix &a, const CsrMatrix &b)
{
    checkDims(a.cols(), b.rows());
    SymbolicStats sym;
    sym.b_row_nnz.resize(b.rows());
    const Offset *b_rp = b.rowPtr().data();
    for (Index k = 0; k < b.rows(); ++k)
        sym.b_row_nnz[k] = b_rp[k + 1] - b_rp[k];

    // Degenerate operands (0 rows / 0 cols / 0 nnz) take no merge pass
    // at all, so every backend trivially agrees on them.
    if (a.rows() == 0 || a.nnz() == 0 || b.cols() == 0)
        return sym;

    // Fused multiply-count + symbolic-output pass. Identical values to
    // spgemmMultiplyCount/spgemmOutputNnz by construction, from either
    // variant: the path choice depends only on the operand shape (never
    // on backend or thread count), and both variants count the same
    // distinct-column unions.
    const std::size_t words =
        (static_cast<std::size_t>(b.cols()) + 63) / 64;
    constexpr std::size_t kMaxBitmapWords = (64u << 20) / 8;
    const bool use_bitmap =
        b.nnz() >= static_cast<Offset>(words) * b.rows() &&
        words * b.rows() <= kMaxBitmapWords;
    if (use_bitmap)
        symbolicBitmap(a, b, words, sym);
    else
        symbolicMarker(a, b, sym);
    return sym;
}

} // namespace misam

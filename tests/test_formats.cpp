/**
 * @file
 * Unit tests for the sparse-matrix containers (COO/CSR/CSC/dense) and the
 * conversions between them, including structural-invariant enforcement
 * and round-trip properties.
 */

#include <gtest/gtest.h>

#include "sparse/convert.hh"
#include "sparse/generate.hh"

namespace misam {
namespace {

/** 3x4 fixture:  [1 0 2 0; 0 0 0 3; 4 5 0 0] */
CooMatrix
fixtureCoo()
{
    CooMatrix coo(3, 4);
    coo.addEntry(0, 0, 1.0);
    coo.addEntry(0, 2, 2.0);
    coo.addEntry(1, 3, 3.0);
    coo.addEntry(2, 0, 4.0);
    coo.addEntry(2, 1, 5.0);
    return coo;
}

// --------------------------------------------------------------------
// COO
// --------------------------------------------------------------------

TEST(Coo, BasicAccessors)
{
    const CooMatrix coo = fixtureCoo();
    EXPECT_EQ(coo.rows(), 3u);
    EXPECT_EQ(coo.cols(), 4u);
    EXPECT_EQ(coo.nnz(), 5u);
    EXPECT_NEAR(coo.density(), 5.0 / 12.0, 1e-12);
}

TEST(Coo, SortAndCombineSumsDuplicates)
{
    CooMatrix coo(2, 2);
    coo.addEntry(1, 1, 2.0);
    coo.addEntry(0, 0, 1.0);
    coo.addEntry(1, 1, 3.0);
    coo.sortAndCombine();
    ASSERT_EQ(coo.nnz(), 2u);
    EXPECT_EQ(coo.entries()[0].row, 0u);
    EXPECT_DOUBLE_EQ(coo.entries()[1].value, 5.0);
    EXPECT_TRUE(coo.isCanonical());
}

TEST(Coo, SortAndCombineLeavesCanonicalUntouched)
{
    CooMatrix coo = fixtureCoo();
    ASSERT_TRUE(coo.isCanonical());
    const std::vector<CooEntry> before = coo.entries();
    const CooEntry *storage = coo.entries().data();
    coo.sortAndCombine();
    ASSERT_EQ(coo.nnz(), before.size());
    EXPECT_EQ(coo.entries().data(), storage);
    for (std::size_t i = 0; i < before.size(); ++i) {
        EXPECT_EQ(coo.entries()[i].row, before[i].row);
        EXPECT_EQ(coo.entries()[i].col, before[i].col);
        EXPECT_EQ(coo.entries()[i].value, before[i].value);
    }
}

TEST(Coo, SortAndCombineSortsAndSumsUnsortedDuplicates)
{
    CooMatrix coo(3, 3);
    coo.addEntry(2, 1, 1.0);
    coo.addEntry(0, 2, 4.0);
    coo.addEntry(2, 1, 0.5);
    coo.addEntry(0, 0, -1.0);
    coo.addEntry(0, 2, 2.0);
    coo.addEntry(1, 1, 3.0);
    ASSERT_FALSE(coo.isCanonical());
    coo.sortAndCombine();
    EXPECT_TRUE(coo.isCanonical());
    const std::vector<CooEntry> expected = {
        {0, 0, -1.0}, {0, 2, 6.0}, {1, 1, 3.0}, {2, 1, 1.5}};
    ASSERT_EQ(coo.nnz(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(coo.entries()[i].row, expected[i].row);
        EXPECT_EQ(coo.entries()[i].col, expected[i].col);
        EXPECT_EQ(coo.entries()[i].value, expected[i].value);
    }
}

TEST(Coo, IsCanonicalDetectsDisorder)
{
    CooMatrix coo(2, 2);
    coo.addEntry(1, 0, 1.0);
    coo.addEntry(0, 0, 1.0);
    EXPECT_FALSE(coo.isCanonical());
}

TEST(Coo, IsCanonicalDetectsDuplicates)
{
    CooMatrix coo(2, 2);
    coo.addEntry(0, 0, 1.0);
    coo.addEntry(0, 0, 1.0);
    EXPECT_FALSE(coo.isCanonical());
}

TEST(CooDeath, RejectsOutOfRange)
{
    CooMatrix coo(2, 2);
    EXPECT_DEATH(coo.addEntry(2, 0, 1.0), "out of range");
    EXPECT_DEATH(coo.addEntry(0, 2, 1.0), "out of range");
}

TEST(Coo, EmptyMatrixDensityZero)
{
    CooMatrix coo;
    EXPECT_DOUBLE_EQ(coo.density(), 0.0);
}

// --------------------------------------------------------------------
// CSR
// --------------------------------------------------------------------

TEST(Csr, FromCooLayout)
{
    const CsrMatrix csr = cooToCsr(fixtureCoo());
    EXPECT_EQ(csr.rows(), 3u);
    EXPECT_EQ(csr.cols(), 4u);
    EXPECT_EQ(csr.nnz(), 5u);
    EXPECT_EQ(csr.rowNnz(0), 2u);
    EXPECT_EQ(csr.rowNnz(1), 1u);
    EXPECT_EQ(csr.rowNnz(2), 2u);
    EXPECT_EQ(csr.rowCols(0)[1], 2u);
    EXPECT_DOUBLE_EQ(csr.rowVals(2)[1], 5.0);
}

TEST(Csr, EmptyConstruction)
{
    const CsrMatrix csr(5, 7);
    EXPECT_EQ(csr.rows(), 5u);
    EXPECT_EQ(csr.nnz(), 0u);
    for (Index r = 0; r < 5; ++r)
        EXPECT_EQ(csr.rowNnz(r), 0u);
}

TEST(Csr, ValidatePassesOnCanonical)
{
    const CsrMatrix csr = cooToCsr(fixtureCoo());
    csr.validate(); // must not die
    SUCCEED();
}

TEST(CsrDeath, ValidateCatchesBadRowPtr)
{
    EXPECT_DEATH(CsrMatrix(2, 2, {0, 2}, {0, 1}, {1.0, 1.0}),
                 "rowPtr size");
}

TEST(CsrDeath, ValidateCatchesColumnOutOfRange)
{
    EXPECT_DEATH(CsrMatrix(1, 2, {0, 1}, {2}, {1.0}), "out of range");
}

TEST(CsrDeath, ValidateCatchesUnsortedColumns)
{
    EXPECT_DEATH(CsrMatrix(1, 3, {0, 2}, {1, 0}, {1.0, 1.0}),
                 "strictly increasing");
}

TEST(CsrDeath, ValidateCatchesNnzMismatch)
{
    EXPECT_DEATH(CsrMatrix(1, 3, {0, 1}, {0, 1}, {1.0, 1.0}),
                 "colIdx/values|rowPtr back");
}

TEST(Csr, ApproxEqualToleratesRoundoff)
{
    CsrMatrix a = cooToCsr(fixtureCoo());
    CooMatrix coo = fixtureCoo();
    coo.entries()[0].value += 1e-12;
    CsrMatrix b = cooToCsr(std::move(coo));
    EXPECT_TRUE(a.approxEqual(b));
    EXPECT_FALSE(a == b);
}

TEST(Csr, ApproxEqualRejectsStructureChange)
{
    CsrMatrix a = cooToCsr(fixtureCoo());
    CooMatrix coo = fixtureCoo();
    coo.addEntry(0, 1, 9.0);
    CsrMatrix b = cooToCsr(std::move(coo));
    EXPECT_FALSE(a.approxEqual(b));
}

TEST(Csr, DensityDense)
{
    Rng rng(1);
    const CsrMatrix d = generateDenseCsr(4, 4, rng);
    EXPECT_DOUBLE_EQ(d.density(), 1.0);
}

// --------------------------------------------------------------------
// CSC + conversions
// --------------------------------------------------------------------

TEST(Csc, FromCsrLayout)
{
    const CscMatrix csc = csrToCsc(cooToCsr(fixtureCoo()));
    EXPECT_EQ(csc.rows(), 3u);
    EXPECT_EQ(csc.cols(), 4u);
    EXPECT_EQ(csc.nnz(), 5u);
    EXPECT_EQ(csc.colNnz(0), 2u); // rows 0 and 2
    EXPECT_EQ(csc.colNnz(2), 1u);
    EXPECT_EQ(csc.colRows(0)[0], 0u);
    EXPECT_EQ(csc.colRows(0)[1], 2u);
    EXPECT_DOUBLE_EQ(csc.colVals(1)[0], 5.0);
}

TEST(CscDeath, ValidateCatchesBadColPtr)
{
    EXPECT_DEATH(CscMatrix(2, 2, {0, 2}, {0, 1}, {1.0, 1.0}),
                 "colPtr size");
}

TEST(Convert, CsrCscRoundTrip)
{
    Rng rng(2);
    const CsrMatrix a = generateUniform(50, 70, 0.1, rng);
    EXPECT_EQ(cscToCsr(csrToCsc(a)), a);
}

TEST(Convert, CooCsrRoundTrip)
{
    Rng rng(3);
    const CsrMatrix a = generateUniform(40, 40, 0.15, rng);
    EXPECT_EQ(cooToCsr(csrToCoo(a)), a);
}

TEST(Convert, TransposeTwiceIsIdentity)
{
    Rng rng(4);
    const CsrMatrix a = generateUniform(30, 60, 0.2, rng);
    EXPECT_EQ(transpose(transpose(a)), a);
}

TEST(Convert, TransposeSwapsDims)
{
    Rng rng(5);
    const CsrMatrix a = generateUniform(30, 60, 0.1, rng);
    const CsrMatrix t = transpose(a);
    EXPECT_EQ(t.rows(), 60u);
    EXPECT_EQ(t.cols(), 30u);
    EXPECT_EQ(t.nnz(), a.nnz());
}

TEST(Convert, TransposeMovesEntries)
{
    const CsrMatrix a = cooToCsr(fixtureCoo());
    const CsrMatrix t = transpose(a);
    const DenseMatrix da = csrToDense(a);
    const DenseMatrix dt = csrToDense(t);
    for (Index r = 0; r < 3; ++r)
        for (Index c = 0; c < 4; ++c)
            EXPECT_DOUBLE_EQ(da.at(r, c), dt.at(c, r));
}

TEST(Convert, DenseRoundTrip)
{
    Rng rng(6);
    const CsrMatrix a = generateUniform(20, 20, 0.3, rng);
    EXPECT_EQ(denseToCsr(csrToDense(a)), a);
}

TEST(Convert, SliceRowsBasic)
{
    const CsrMatrix a = cooToCsr(fixtureCoo());
    const CsrMatrix s = sliceRows(a, 1, 3);
    EXPECT_EQ(s.rows(), 2u);
    EXPECT_EQ(s.cols(), 4u);
    EXPECT_EQ(s.nnz(), 3u);
    EXPECT_EQ(s.rowCols(0)[0], 3u);
    EXPECT_DOUBLE_EQ(s.rowVals(1)[1], 5.0);
}

TEST(Convert, SliceRowsFullAndEmpty)
{
    const CsrMatrix a = cooToCsr(fixtureCoo());
    EXPECT_EQ(sliceRows(a, 0, a.rows()), a);
    const CsrMatrix empty = sliceRows(a, 1, 1);
    EXPECT_EQ(empty.rows(), 0u);
    EXPECT_EQ(empty.nnz(), 0u);
}

TEST(ConvertDeath, SliceRowsRejectsBadRange)
{
    const CsrMatrix a = cooToCsr(fixtureCoo());
    EXPECT_DEATH(sliceRows(a, 2, 1), "bad range");
    EXPECT_DEATH(sliceRows(a, 0, 4), "bad range");
}

TEST(Convert, SlicesConcatenateToWhole)
{
    Rng rng(7);
    const CsrMatrix a = generateUniform(37, 23, 0.2, rng);
    Offset total = 0;
    for (Index lo = 0; lo < a.rows(); lo += 10) {
        const Index hi = std::min<Index>(lo + 10, a.rows());
        total += sliceRows(a, lo, hi).nnz();
    }
    EXPECT_EQ(total, a.nnz());
}

// --------------------------------------------------------------------
// DenseMatrix
// --------------------------------------------------------------------

TEST(Dense, ZeroInitialized)
{
    const DenseMatrix m(3, 4);
    EXPECT_EQ(m.countNonzeros(), 0u);
    EXPECT_DOUBLE_EQ(m.at(2, 3), 0.0);
}

TEST(Dense, AtReadsAndWrites)
{
    DenseMatrix m(2, 2);
    m.at(1, 0) = 7.0;
    EXPECT_DOUBLE_EQ(m.at(1, 0), 7.0);
    EXPECT_EQ(m.countNonzeros(), 1u);
}

TEST(DenseDeath, BoundsChecked)
{
    DenseMatrix m(2, 2);
    EXPECT_DEATH(m.at(2, 0), "out of range");
}

} // namespace
} // namespace misam

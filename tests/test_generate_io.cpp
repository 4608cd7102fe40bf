/**
 * @file
 * Tests for the synthetic matrix generators (structural properties,
 * density targets, determinism) and Matrix Market I/O: round trips, the
 * accepted syntax, the writer's exact bytes, every refusal, and a seeded
 * mutation run that must end in a parse or a refusal, never a signal.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "features/features.hh"
#include "sparse/generate.hh"
#include "sparse/io.hh"
#include "sparse/convert.hh"

#include "mutation_test_util.hh"

namespace misam {
namespace {

// --------------------------------------------------------------------
// generators
// --------------------------------------------------------------------

class UniformDensity : public testing::TestWithParam<double>
{
};

TEST_P(UniformDensity, HitsTargetDensity)
{
    const double target = GetParam();
    Rng rng(42);
    const CsrMatrix m = generateUniform(400, 400, target, rng);
    EXPECT_NEAR(m.density(), target, std::max(0.01, target * 0.15));
}

INSTANTIATE_TEST_SUITE_P(Sweep, UniformDensity,
                         testing::Values(0.01, 0.05, 0.1, 0.3, 0.6, 0.9));

TEST(Generate, UniformDeterministicPerSeed)
{
    Rng r1(5), r2(5);
    const CsrMatrix a = generateUniform(64, 64, 0.2, r1);
    const CsrMatrix b = generateUniform(64, 64, 0.2, r2);
    EXPECT_EQ(a, b);
}

TEST(Generate, UniformDifferentSeedsDiffer)
{
    Rng r1(5), r2(6);
    const CsrMatrix a = generateUniform(64, 64, 0.2, r1);
    const CsrMatrix b = generateUniform(64, 64, 0.2, r2);
    EXPECT_NE(a, b);
}

TEST(Generate, UniformZeroDensityEmpty)
{
    Rng rng(7);
    const CsrMatrix m = generateUniform(50, 50, 0.0, rng);
    EXPECT_EQ(m.nnz(), 0u);
}

TEST(GenerateDeath, UniformRejectsBadDensity)
{
    Rng rng(8);
    EXPECT_EXIT(generateUniform(10, 10, 1.5, rng),
                testing::ExitedWithCode(1), "density");
}

TEST(Generate, BandedStaysInBand)
{
    Rng rng(9);
    const Index bw = 5;
    const CsrMatrix m = generateBanded(100, 100, bw, 0.8, rng);
    for (Index r = 0; r < m.rows(); ++r)
        for (Index c : m.rowCols(r))
            EXPECT_LE(std::abs(static_cast<long>(r) -
                               static_cast<long>(c)),
                      static_cast<long>(bw));
    EXPECT_GT(m.nnz(), 0u);
}

TEST(Generate, BandedDiagonalAlwaysPresent)
{
    Rng rng(10);
    const CsrMatrix m = generateBanded(60, 60, 3, 0.0, rng);
    EXPECT_EQ(m.nnz(), 60u); // only the mandatory diagonal
}

TEST(Generate, BandedRectangularScalesBand)
{
    Rng rng(11);
    const CsrMatrix m = generateBanded(50, 100, 4, 0.9, rng);
    EXPECT_EQ(m.rows(), 50u);
    EXPECT_EQ(m.cols(), 100u);
    for (Index r = 0; r < m.rows(); ++r)
        for (Index c : m.rowCols(r))
            EXPECT_LE(std::abs(static_cast<long>(c) -
                               static_cast<long>(r) * 2),
                      4L);
}

TEST(Generate, BlockDiagonalConcentratesOnBlocks)
{
    Rng rng(12);
    const CsrMatrix m =
        generateBlockDiagonal(128, 128, 16, 0.8, 0.0, rng);
    // Every entry must fall inside its 16x16 diagonal block.
    for (Index r = 0; r < m.rows(); ++r) {
        const Index rb = (r / 16) * 16;
        for (Index c : m.rowCols(r)) {
            EXPECT_GE(c, rb);
            EXPECT_LT(c, rb + 16);
        }
    }
}

TEST(Generate, BlockDiagonalBackgroundAddsOffBlock)
{
    Rng rng(13);
    const CsrMatrix with_bg =
        generateBlockDiagonal(128, 128, 16, 0.5, 0.02, rng);
    bool off_block = false;
    for (Index r = 0; r < with_bg.rows() && !off_block; ++r) {
        const Index rb = (r / 16) * 16;
        for (Index c : with_bg.rowCols(r))
            if (c < rb || c >= rb + 16)
                off_block = true;
    }
    EXPECT_TRUE(off_block);
}

TEST(Generate, PowerLawHitsNnzTarget)
{
    Rng rng(14);
    const CsrMatrix m = generatePowerLawGraph(2000, 20000, 2.1, rng);
    EXPECT_EQ(m.rows(), 2000u);
    EXPECT_EQ(m.cols(), 2000u);
    // Duplicate collapses lose a few percent.
    EXPECT_GT(m.nnz(), 14000u);
    EXPECT_LT(m.nnz(), 24000u);
}

TEST(Generate, PowerLawMoreImbalancedThanUniform)
{
    Rng rng(15);
    const CsrMatrix pl = generatePowerLawGraph(1000, 10000, 2.1, rng);
    const CsrMatrix un = generateUniform(1000, 1000, 0.01, rng);
    const MatrixStats spl = computeMatrixStats(pl);
    const MatrixStats sun = computeMatrixStats(un);
    EXPECT_GT(spl.row.imbalance, sun.row.imbalance);
    EXPECT_GT(spl.col.imbalance, sun.col.imbalance);
}

TEST(Generate, RowImbalancedHasHotRows)
{
    Rng rng(16);
    const CsrMatrix m =
        generateRowImbalanced(500, 500, 0.02, 0.02, 12.0, rng);
    const MatrixStats s = computeMatrixStats(m);
    EXPECT_GT(s.row.imbalance, 6.0);
    EXPECT_NEAR(m.density(), 0.02, 0.006);
}

TEST(GenerateDeath, RowImbalancedValidatesParams)
{
    Rng rng(17);
    EXPECT_EXIT(generateRowImbalanced(10, 10, 0.1, 0.0, 5.0, rng),
                testing::ExitedWithCode(1), "hot_fraction");
    EXPECT_EXIT(generateRowImbalanced(10, 10, 0.1, 0.1, 0.5, rng),
                testing::ExitedWithCode(1), "imbalance");
}

TEST(Generate, DiagonalExactStructure)
{
    Rng rng(18);
    const CsrMatrix m = generateDiagonal(32, rng);
    EXPECT_EQ(m.nnz(), 32u);
    for (Index r = 0; r < 32; ++r) {
        ASSERT_EQ(m.rowNnz(r), 1u);
        EXPECT_EQ(m.rowCols(r)[0], r);
    }
}

TEST(Generate, StructuredPrunedBlockAligned)
{
    Rng rng(19);
    const CsrMatrix m = generateStructuredPruned(64, 64, 0.3, 8, rng);
    // Every kept 8x8 block must be fully dense: check that within each
    // block, either all 64 or none of the positions are present.
    for (Index rb = 0; rb < 64; rb += 8) {
        for (Index cb = 0; cb < 64; cb += 8) {
            int count = 0;
            for (Index r = rb; r < rb + 8; ++r)
                for (Index c : m.rowCols(r))
                    if (c >= cb && c < cb + 8)
                        ++count;
            EXPECT_TRUE(count == 0 || count == 64)
                << "block (" << rb << "," << cb << ") has " << count;
        }
    }
}

TEST(Generate, StructuredPrunedDensityApproximate)
{
    Rng rng(20);
    const CsrMatrix m = generateStructuredPruned(256, 256, 0.2, 8, rng);
    EXPECT_NEAR(m.density(), 0.2, 0.05);
}

TEST(Generate, DenseCsrFullyPopulated)
{
    Rng rng(21);
    const CsrMatrix m = generateDenseCsr(10, 20, rng);
    EXPECT_EQ(m.nnz(), 200u);
    EXPECT_DOUBLE_EQ(m.density(), 1.0);
}

TEST(Generate, DenseMatrixNoZeros)
{
    Rng rng(22);
    const DenseMatrix m = generateDense(16, 16, rng);
    EXPECT_EQ(m.countNonzeros(), 256u);
}

// --------------------------------------------------------------------
// Matrix Market I/O
// --------------------------------------------------------------------

TEST(MatrixMarket, WriteReadRoundTrip)
{
    Rng rng(30);
    const CsrMatrix a = generateUniform(40, 30, 0.15, rng);
    std::stringstream ss;
    writeMatrixMarket(ss, a);
    const CsrMatrix b = cooToCsr(readMatrixMarket(ss));
    EXPECT_EQ(a.rows(), b.rows());
    EXPECT_EQ(a.cols(), b.cols());
    EXPECT_TRUE(a.approxEqual(b, 1e-6));
}

TEST(MatrixMarket, ParsesGeneralReal)
{
    std::stringstream ss("%%MatrixMarket matrix coordinate real general\n"
                         "% comment line\n"
                         "2 3 2\n"
                         "1 1 1.5\n"
                         "2 3 -2.0\n");
    const CooMatrix coo = readMatrixMarket(ss);
    EXPECT_EQ(coo.rows(), 2u);
    EXPECT_EQ(coo.cols(), 3u);
    EXPECT_EQ(coo.nnz(), 2u);
    EXPECT_DOUBLE_EQ(coo.entries()[0].value, 1.5);
}

TEST(MatrixMarket, ExpandsSymmetric)
{
    std::stringstream ss(
        "%%MatrixMarket matrix coordinate real symmetric\n"
        "3 3 2\n"
        "2 1 4.0\n"
        "3 3 5.0\n");
    const CooMatrix coo = readMatrixMarket(ss);
    // (2,1) mirrors to (1,2); the diagonal entry does not duplicate.
    EXPECT_EQ(coo.nnz(), 3u);
}

TEST(MatrixMarket, PatternDefaultsToOne)
{
    std::stringstream ss(
        "%%MatrixMarket matrix coordinate pattern general\n"
        "2 2 1\n"
        "1 2\n");
    const CooMatrix coo = readMatrixMarket(ss);
    ASSERT_EQ(coo.nnz(), 1u);
    EXPECT_DOUBLE_EQ(coo.entries()[0].value, 1.0);
}

TEST(MatrixMarketDeath, RejectsMissingBanner)
{
    std::stringstream ss("not a matrix market file\n1 1 0\n");
    EXPECT_EXIT(readMatrixMarket(ss), testing::ExitedWithCode(1),
                "banner");
}

TEST(MatrixMarketDeath, RejectsUnsupportedField)
{
    std::stringstream ss(
        "%%MatrixMarket matrix coordinate complex general\n"
        "1 1 0\n");
    EXPECT_EXIT(readMatrixMarket(ss), testing::ExitedWithCode(1),
                "unsupported field");
}

TEST(MatrixMarketDeath, RejectsOutOfRangeIndex)
{
    std::stringstream ss(
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 1\n"
        "3 1 1.0\n");
    EXPECT_EXIT(readMatrixMarket(ss), testing::ExitedWithCode(1),
                "out of range");
}

TEST(MatrixMarketDeath, RejectsTruncatedEntries)
{
    std::stringstream ss(
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 2\n"
        "1 1 1.0\n");
    EXPECT_EXIT(readMatrixMarket(ss), testing::ExitedWithCode(1),
                "truncated");
}

TEST(MatrixMarketDeath, MissingFileFails)
{
    EXPECT_EXIT(readMatrixMarketFile("/nonexistent/path.mtx"),
                testing::ExitedWithCode(1), "cannot open");
}

TEST(MatrixMarketDeath, RejectsRowsBeyondIndexRange)
{
    std::stringstream ss(
        "%%MatrixMarket matrix coordinate real general\n"
        "4294967297 4 2\n"
        "1 1 1.0\n"
        "2 2 2.0\n");
    EXPECT_EXIT(readMatrixMarket(ss), testing::ExitedWithCode(1),
                "MatrixMarket: .*32-bit index range");
}

TEST(MatrixMarketDeath, RejectsColsBeyondIndexRange)
{
    std::stringstream ss(
        "%%MatrixMarket matrix coordinate real general\n"
        "4 4294967296 1\n"
        "1 1 1.0\n");
    EXPECT_EXIT(readMatrixMarket(ss), testing::ExitedWithCode(1),
                "MatrixMarket: .*32-bit index range");
}

TEST(MatrixMarketDeath, RejectsRowsAtIndexMax)
{
    // rows + 1 wraps to 0 in Index arithmetic, so the conversions would
    // size row_ptr as 0 and write past it.
    std::stringstream ss(
        "%%MatrixMarket matrix coordinate real general\n"
        "4294967295 4 1\n"
        "1 1 1.0\n");
    EXPECT_EXIT(readMatrixMarket(ss), testing::ExitedWithCode(1),
                "MatrixMarket: .*32-bit index range");
}

TEST(MatrixMarketDeath, RejectsColsAtIndexMax)
{
    std::stringstream ss(
        "%%MatrixMarket matrix coordinate real general\n"
        "4 4294967295 1\n"
        "1 1 1.0\n");
    EXPECT_EXIT(readMatrixMarket(ss), testing::ExitedWithCode(1),
                "MatrixMarket: .*32-bit index range");
}

TEST(MatrixMarketDeath, RejectsNnzBeyondInput)
{
    std::stringstream ss(
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 999999999999\n"
        "1 1 1.0\n");
    EXPECT_EXIT(readMatrixMarket(ss), testing::ExitedWithCode(1),
                "MatrixMarket: nnz 999999999999 exceeds");
}

TEST(MatrixMarketDeath, RejectsNonFiniteValues)
{
    for (const char *token : {"inf", "-inf", "nan", "Infinity", "1e999",
                              "-1e999"}) {
        std::stringstream ss(
            std::string("%%MatrixMarket matrix coordinate real general\n"
                        "2 2 1\n"
                        "1 1 ") +
            token + "\n");
        EXPECT_EXIT(readMatrixMarket(ss), testing::ExitedWithCode(1),
                    "MatrixMarket: non-finite value at entry 0")
            << token;
    }
}

// --------------------------------------------------------------------
// Matrix Market syntax: every value is compared bitwise with strtod of
// the same token, an oracle independent of the reader.
// --------------------------------------------------------------------

struct ExpectedEntry
{
    Index row;
    Index col;
    const char *token;
};

std::uint64_t
bits(double v)
{
    return std::bit_cast<std::uint64_t>(v);
}

/** Parse `text`; its canonical entries must match `expected` exactly. */
void
expectParses(const std::string &text, Index rows, Index cols,
             const std::vector<ExpectedEntry> &expected)
{
    std::stringstream ss(text);
    const CooMatrix coo = readMatrixMarket(ss);
    EXPECT_EQ(coo.rows(), rows);
    EXPECT_EQ(coo.cols(), cols);
    ASSERT_EQ(coo.nnz(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
        const CooEntry &e = coo.entries()[i];
        EXPECT_EQ(e.row, expected[i].row) << "entry " << i;
        EXPECT_EQ(e.col, expected[i].col) << "entry " << i;
        EXPECT_EQ(bits(e.value),
                  bits(std::strtod(expected[i].token, nullptr)))
            << "entry " << i << " token " << expected[i].token;
    }
}

TEST(MatrixMarketSyntax, Tabs)
{
    expectParses("%%MatrixMarket\tmatrix\tcoordinate\treal\tgeneral\n"
                 "2\t2\t2\n"
                 "1\t1\t0.125\n"
                 "2\t\t2\t-7.5\t\n",
                 2, 2, {{0, 0, "0.125"}, {1, 1, "-7.5"}});
}

TEST(MatrixMarketSyntax, CrlfLineEnds)
{
    expectParses("%%MatrixMarket matrix coordinate real general\r\n"
                 "% a comment\r\n"
                 "2 3 2\r\n"
                 "1 3 1.1\r\n"
                 "2 1 2.2\r\n",
                 2, 3, {{0, 2, "1.1"}, {1, 0, "2.2"}});
}

TEST(MatrixMarketSyntax, EntrySplitAcrossLines)
{
    expectParses("%%MatrixMarket matrix coordinate real general\n"
                 "2 2 2\n"
                 "1\n2\n3.5\n"
                 "2 1\n-4.25\n",
                 2, 2, {{0, 1, "3.5"}, {1, 0, "-4.25"}});
}

TEST(MatrixMarketSyntax, BlankLinesBetweenEntries)
{
    expectParses("%%MatrixMarket matrix coordinate real general\n"
                 "\n"
                 "3 3 2\n"
                 "1 1 9.75\n"
                 "\n   \n\t\n"
                 "3 3 0.001\n"
                 "\n",
                 3, 3, {{0, 0, "9.75"}, {2, 2, "0.001"}});
}

TEST(MatrixMarketSyntax, LeadingPlus)
{
    expectParses("%%MatrixMarket matrix coordinate real general\n"
                 "+2 +2 +2\n"
                 "+1 +2 +3.25\n"
                 "+2 +1 +.5\n",
                 2, 2, {{0, 1, "+3.25"}, {1, 0, "+.5"}});
}

TEST(MatrixMarketSyntax, ExponentForms)
{
    expectParses(
        "%%MatrixMarket matrix coordinate real general\n"
        "1 7 7\n"
        "1 1 1E-3\n"
        "1 2 2.5e+05\n"
        "1 3 -6.02e23\n"
        "1 4 1.e2\n"
        "1 5 1e-310\n"  // subnormal
        "1 6 1e-400\n"  // underflows to zero, as strtod gives
        "1 7 0.1000000000000000055511151231257827\n",
        1, 7,
        {{0, 0, "1E-3"},
         {0, 1, "2.5e+05"},
         {0, 2, "-6.02e23"},
         {0, 3, "1.e2"},
         {0, 4, "1e-310"},
         {0, 5, "1e-400"},
         {0, 6, "0.1000000000000000055511151231257827"}});
}

TEST(MatrixMarketSyntax, IntegerField)
{
    expectParses("%%MatrixMarket matrix coordinate integer general\n"
                 "2 2 3\n"
                 "1 1 7\n"
                 "1 2 -3\n"
                 "2 2 +12\n",
                 2, 2, {{0, 0, "7"}, {0, 1, "-3"}, {1, 1, "12"}});
}

TEST(MatrixMarketSyntax, Pattern)
{
    expectParses("%%MatrixMarket matrix coordinate pattern general\n"
                 "3 3 2\n"
                 "3 1\n"
                 "1 2\n",
                 3, 3, {{0, 1, "1"}, {2, 0, "1"}});
}

TEST(MatrixMarketSyntax, SymmetricMirrorsOffDiagonal)
{
    expectParses("%%MatrixMarket matrix coordinate real symmetric\n"
                 "3 3 2\n"
                 "2 1 4.5\n"
                 "3 3 -5\n",
                 3, 3, {{0, 1, "4.5"}, {1, 0, "4.5"}, {2, 2, "-5"}});
}

TEST(MatrixMarketSyntax, UpperCaseBannerTokens)
{
    expectParses("%%MatrixMarket MATRIX COORDINATE REAL GENERAL\n"
                 "1 1 1\n"
                 "1 1 2.75\n",
                 1, 1, {{0, 0, "2.75"}});
    expectParses("%%MatrixMarket Matrix Coordinate Pattern Symmetric\n"
                 "2 2 1\n"
                 "2 1\n",
                 2, 2, {{0, 1, "1"}, {1, 0, "1"}});
}

TEST(MatrixMarketSyntax, MissingFinalNewline)
{
    expectParses("%%MatrixMarket matrix coordinate real general\n"
                 "1 2 2\n"
                 "1 2 8\n"
                 "1 1 -0.0",
                 1, 2, {{0, 0, "-0.0"}, {0, 1, "8"}});
}

// --------------------------------------------------------------------
// Matrix Market writer
// --------------------------------------------------------------------

TEST(MatrixMarket, WriterBytesArePinned)
{
    // Values whose %.6g form is easy to get wrong; the expected text is
    // what `ostream << double` prints for them.
    CooMatrix coo(3, 4);
    coo.addEntry(0, 0, 1e-7);
    coo.addEntry(0, 3, 123456789.0);
    coo.addEntry(1, 1, 1.0 / 3.0);
    coo.addEntry(1, 2, -0.0);
    coo.addEntry(2, 0, 1e5);
    coo.addEntry(2, 2, 1e6);
    coo.addEntry(2, 3, -2.5);
    std::ostringstream out;
    writeMatrixMarket(out, cooToCsr(coo));
    EXPECT_EQ(out.str(), "%%MatrixMarket matrix coordinate real general\n"
                         "3 4 7\n"
                         "1 1 1e-07\n"
                         "1 4 1.23457e+08\n"
                         "2 2 0.333333\n"
                         "2 3 -0\n"
                         "3 1 100000\n"
                         "3 3 1e+06\n"
                         "3 4 -2.5\n");
}

// --------------------------------------------------------------------
// Seeded mutation run over the reader
// --------------------------------------------------------------------

const char kMutationBase[] =
    "%%MatrixMarket matrix coordinate real general\n"
    "% seeded mutation base\n"
    "4 5 6\n"
    "1 1 1.5\n"
    "1 5 -2.25e-3\n"
    "2 2 3\n"
    "3 4 1e5\n"
    "4 1 -0.5\n"
    "4 5 7\n";

bool
isSpaceByte(char c)
{
    return c == ' ' || (c >= '\t' && c <= '\r');
}

using mutation_test::parsedOrRefused;
using mutation_test::substituted;

/** About 64 deterministic mutants of kMutationBase. */
std::vector<std::string>
mutationCorpus()
{
    const std::string base = kMutationBase;
    std::vector<std::string> mutants;
    // Truncation at the end of every field.
    for (std::size_t i = 1; i <= base.size(); ++i)
        if (!isSpaceByte(base[i - 1]) &&
            (i == base.size() || isSpaceByte(base[i])))
            mutants.push_back(base.substr(0, i));
    // Seeded single-byte replacements, any byte value.
    Rng rng(0x6d747866);
    for (int i = 0; i < 20; ++i) {
        std::string m = base;
        m[rng.uniformInt(m.size())] =
            static_cast<char>(rng.uniformInt(std::uint64_t{256}));
        mutants.push_back(m);
    }
    // Overflowing sizes, non-finite and out-of-range values, bad indices.
    for (const auto &[from, to] :
         std::vector<std::pair<std::string, std::string>>{
             {"4 5 6", "4294967297 5 6"},
             {"4 5 6", "4 4294967296 6"},
             {"4 5 6", "4 5 999999999999"},
             {"4 5 6", "4 5 18446744073709551615"},
             {"4 5 6", "4 5 99999999999999999999"},
             {"4 5 6", "-4 5 6"},
             {"1.5", "inf"},
             {"1.5", "nan"},
             {"1.5", "1e999"},
             {"1.5", "-1e999"},
             {"1.5", "1e-999"},
             {"1.5", "0x1p3"},
             {"2 2 3", "0 2 3"},
             {"2 2 3", "2 6 3"},
             {"2 2 3", "-2 2 3"},
             {"4 5 7\n", "4 5 7"}, // missing final newline
         })
        mutants.push_back(substituted(base, from, to));
    return mutants;
}

TEST(MatrixMarketFuzz, SeededMutantsParseOrRefuse)
{
    const std::vector<std::string> mutants = mutationCorpus();
    ASSERT_GE(mutants.size(), 60u);
    for (std::size_t i = 0; i < mutants.size(); ++i) {
        EXPECT_EXIT(
            {
                std::stringstream ss(mutants[i]);
                const CooMatrix coo = readMatrixMarket(ss);
                cooToCsr(coo);
                std::fprintf(stderr, "parsed\n");
                std::exit(0);
            },
            parsedOrRefused, "parsed|MatrixMarket: ")
            << "mutant " << i << ":\n"
            << mutants[i];
    }
}

} // namespace
} // namespace misam

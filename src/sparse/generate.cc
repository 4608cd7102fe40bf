#include "sparse/generate.hh"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include <unistd.h>

#include "sparse/convert.hh"
#include "util/logging.hh"

namespace misam {

namespace {

Value
randomValue(Rng &rng)
{
    // Uniform in [-1, 1) excluding exact zero so generated entries are
    // always structural nonzeros.
    Value v = rng.uniform(-1.0, 1.0);
    return v == 0.0 ? 0.5 : v;
}

/** Build a CSR row by sampling k distinct columns out of `cols`. */
void
appendSampledRow(CooMatrix &coo, Index row, Index cols, Offset k, Rng &rng)
{
    k = std::min<Offset>(k, cols);
    if (k == 0)
        return;
    for (std::uint64_t c : rng.sampleDistinct(cols, k))
        coo.addEntry(row, static_cast<Index>(c), randomValue(rng));
}

} // namespace

CsrMatrix
generateUniform(Index rows, Index cols, double density, Rng &rng)
{
    if (density < 0.0 || density > 1.0)
        fatal("generateUniform: density ", density, " out of [0,1]");
    CooMatrix coo(rows, cols);
    coo.reserve(static_cast<Offset>(density * rows * cols * 1.05));
    for (Index r = 0; r < rows; ++r) {
        // Binomial(cols, density) approximated by a normal for large cols,
        // exact-ish via rounding of a Poisson-like draw for small ones.
        const double expect = density * cols;
        double k_real =
            expect + rng.normal() * std::sqrt(expect * (1.0 - density));
        auto k = static_cast<std::int64_t>(std::llround(k_real));
        k = std::clamp<std::int64_t>(k, 0, cols);
        appendSampledRow(coo, r, cols, static_cast<Offset>(k), rng);
    }
    return cooToCsr(std::move(coo));
}

CsrMatrix
generateBanded(Index rows, Index cols, Index bandwidth, double fill,
               Rng &rng)
{
    CooMatrix coo(rows, cols);
    const double scale =
        rows > 0 ? static_cast<double>(cols) / rows : 1.0;
    for (Index r = 0; r < rows; ++r) {
        const auto center = static_cast<std::int64_t>(r * scale);
        const std::int64_t lo =
            std::max<std::int64_t>(0, center - bandwidth);
        const std::int64_t hi =
            std::min<std::int64_t>(cols - 1, center + bandwidth);
        for (std::int64_t c = lo; c <= hi; ++c)
            if (c == center || rng.bernoulli(fill))
                coo.addEntry(r, static_cast<Index>(c), randomValue(rng));
    }
    return cooToCsr(std::move(coo));
}

CsrMatrix
generateBlockDiagonal(Index rows, Index cols, Index block_size,
                      double block_density, double background_density,
                      Rng &rng)
{
    if (block_size == 0)
        fatal("generateBlockDiagonal: block_size must be positive");
    CooMatrix coo(rows, cols);
    // Dense-ish diagonal blocks.
    for (Index rb = 0; rb < rows; rb += block_size) {
        const Index r_end = std::min<Index>(rb + block_size, rows);
        const Index cb = static_cast<Index>(
            static_cast<std::uint64_t>(rb) * cols / std::max<Index>(rows, 1));
        const Index c_end = std::min<Index>(cb + block_size, cols);
        for (Index r = rb; r < r_end; ++r)
            for (Index c = cb; c < c_end; ++c)
                if (rng.bernoulli(block_density))
                    coo.addEntry(r, c, randomValue(rng));
    }
    // Sparse background.
    if (background_density > 0.0) {
        const auto extra = static_cast<Offset>(
            background_density * static_cast<double>(rows) * cols);
        for (Offset i = 0; i < extra; ++i) {
            const auto r = static_cast<Index>(rng.uniformInt(rows));
            const auto c = static_cast<Index>(rng.uniformInt(cols));
            coo.addEntry(r, c, randomValue(rng));
        }
    }
    return cooToCsr(std::move(coo));
}

CsrMatrix
generatePowerLawGraph(Index n, Offset target_nnz, double alpha, Rng &rng)
{
    if (n == 0)
        fatal("generatePowerLawGraph: empty graph");
    CooMatrix coo(n, n);
    coo.reserve(target_nnz);
    // Draw per-row degrees from the power law, rescale to hit target_nnz.
    std::vector<double> raw_degree(n);
    double total = 0.0;
    for (Index r = 0; r < n; ++r) {
        raw_degree[r] = static_cast<double>(
            rng.powerLaw(std::max<Index>(n / 4, 2), alpha));
        total += raw_degree[r];
    }
    const double scale =
        total > 0.0 ? static_cast<double>(target_nnz) / total : 0.0;
    // Preferential attachment of endpoints: column popularity also follows
    // a power law, realized by sampling columns as n * u^gamma.
    constexpr double gamma = 2.5;
    for (Index r = 0; r < n; ++r) {
        auto degree = static_cast<Offset>(raw_degree[r] * scale + 0.5);
        degree = std::min<Offset>(degree, n);
        for (Offset d = 0; d < degree; ++d) {
            const double u = rng.uniform();
            auto c = static_cast<Index>(std::pow(u, gamma) * n);
            c = std::min<Index>(c, n - 1);
            coo.addEntry(r, c, randomValue(rng));
        }
    }
    return cooToCsr(std::move(coo));
}

CsrMatrix
generateRowImbalanced(Index rows, Index cols, double density,
                      double hot_fraction, double imbalance, Rng &rng)
{
    if (hot_fraction <= 0.0 || hot_fraction >= 1.0)
        fatal("generateRowImbalanced: hot_fraction must be in (0,1)");
    if (imbalance < 1.0)
        fatal("generateRowImbalanced: imbalance must be >= 1");
    CooMatrix coo(rows, cols);
    const double avg_len = density * cols;
    const auto hot_rows = std::max<Index>(
        1, static_cast<Index>(hot_fraction * rows));
    const double hot_len = std::min<double>(avg_len * imbalance, cols);
    // Cold rows absorb the remaining budget so overall density holds.
    const double budget = avg_len * rows - hot_len * hot_rows;
    const double cold_len =
        std::max(0.0, budget / std::max<Index>(rows - hot_rows, 1));

    std::vector<Index> order(rows);
    for (Index r = 0; r < rows; ++r)
        order[r] = r;
    rng.shuffle(order);

    for (Index idx = 0; idx < rows; ++idx) {
        const Index r = order[idx];
        const double len = idx < hot_rows ? hot_len : cold_len;
        const auto k = static_cast<Offset>(std::llround(
            std::max(0.0, len + rng.normal() * std::sqrt(len) * 0.25)));
        appendSampledRow(coo, r, cols, k, rng);
    }
    return cooToCsr(std::move(coo));
}

CsrMatrix
generateDiagonal(Index n, Rng &rng)
{
    CooMatrix coo(n, n);
    for (Index i = 0; i < n; ++i)
        coo.addEntry(i, i, randomValue(rng));
    return cooToCsr(std::move(coo));
}

CsrMatrix
generateStructuredPruned(Index rows, Index cols, double density,
                         Index block_size, Rng &rng)
{
    if (block_size == 0)
        fatal("generateStructuredPruned: block_size must be positive");
    CooMatrix coo(rows, cols);
    // Keep whole block_size x block_size tiles with probability = density.
    for (Index rb = 0; rb < rows; rb += block_size) {
        for (Index cb = 0; cb < cols; cb += block_size) {
            if (!rng.bernoulli(density))
                continue;
            const Index r_end = std::min<Index>(rb + block_size, rows);
            const Index c_end = std::min<Index>(cb + block_size, cols);
            for (Index r = rb; r < r_end; ++r)
                for (Index c = cb; c < c_end; ++c)
                    coo.addEntry(r, c, randomValue(rng));
        }
    }
    return cooToCsr(std::move(coo));
}

CsrMatrix
generateRmat(Index n, Offset target_nnz, double pa, double pb, double pc,
             Rng &rng)
{
    if (n == 0)
        fatal("generateRmat: empty graph");
    if (pa <= 0.0 || pb < 0.0 || pc < 0.0 || pa + pb + pc >= 1.0)
        fatal("generateRmat: bad quadrant probabilities");
    // Round n up to a power of two for the recursion; out-of-range
    // samples are folded back by modulo.
    Index levels = 0;
    while ((Index{1} << levels) < n)
        ++levels;

    CooMatrix coo(n, n);
    coo.reserve(target_nnz);
    for (Offset e = 0; e < target_nnz; ++e) {
        Index r = 0;
        Index c = 0;
        for (Index level = 0; level < levels; ++level) {
            const double u = rng.uniform();
            const Index bit = Index{1} << (levels - 1 - level);
            if (u < pa) {
                // top-left: no bits set
            } else if (u < pa + pb) {
                c |= bit;
            } else if (u < pa + pb + pc) {
                r |= bit;
            } else {
                r |= bit;
                c |= bit;
            }
        }
        coo.addEntry(r % n, c % n, randomValue(rng));
    }
    return cooToCsr(std::move(coo));
}

void
requireDenseCsrFits(Index rows, Index cols, const std::string &what)
{
    const std::uint64_t entries = static_cast<std::uint64_t>(rows) * cols;
    std::uint64_t bytes = 0;
    const bool overflow =
        __builtin_mul_overflow(entries, sizeof(Index) + sizeof(Value),
                               &bytes) ||
        __builtin_add_overflow(
            bytes, (static_cast<std::uint64_t>(rows) + 1) * sizeof(Offset),
            &bytes);
    const long pages = sysconf(_SC_PHYS_PAGES);
    const long page_size = sysconf(_SC_PAGE_SIZE);
    const std::uint64_t physical =
        pages > 0 && page_size > 0
            ? static_cast<std::uint64_t>(pages) *
                  static_cast<std::uint64_t>(page_size)
            : 0;
    if (overflow || (physical != 0 && bytes > physical))
        fatal(what, ": a ", rows, " x ", cols,
              " dense B does not fit in memory (its CSR bytes overflow "
              "64 bits or exceed physical memory)");
}

CsrMatrix
generateDenseCsr(Index rows, Index cols, Rng &rng)
{
    std::vector<Offset> row_ptr(rows + 1);
    std::vector<Index> col_idx;
    std::vector<Value> values;
    col_idx.reserve(static_cast<Offset>(rows) * cols);
    values.reserve(static_cast<Offset>(rows) * cols);
    for (Index r = 0; r < rows; ++r) {
        for (Index c = 0; c < cols; ++c) {
            col_idx.push_back(c);
            values.push_back(randomValue(rng));
        }
        row_ptr[r + 1] = values.size();
    }
    return {rows, cols, std::move(row_ptr), std::move(col_idx),
            std::move(values)};
}

DenseMatrix
generateDense(Index rows, Index cols, Rng &rng)
{
    DenseMatrix m(rows, cols);
    for (Value &v : m.data())
        v = randomValue(rng);
    return m;
}

} // namespace misam

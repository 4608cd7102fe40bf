/**
 * @file
 * Serving-layer tests: content fingerprints, the SummaryCache's
 * exactly-once semantics and deterministic counters, MisamServer's
 * bit-identity with the serial batch path, and regression tests for the
 * stream-tiling seed and zero-latency training fixes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "core/misam.hh"
#include "sparse/fingerprint.hh"
#include "serve/jobfile.hh"
#include "serve/server.hh"
#include "serve/summary_cache.hh"
#include "sparse/convert.hh"
#include "sparse/generate.hh"
#include "sparse/io.hh"
#include "util/metrics.hh"
#include "workloads/training_data.hh"

#include "serve_test_util.hh"
#include "mutation_test_util.hh"

namespace misam {
namespace {

CsrMatrix
testMatrix(std::uint64_t seed, Index rows = 64, Index cols = 64)
{
    Rng rng(seed);
    return generateUniform(rows, cols, 0.05, rng);
}

TEST(Fingerprint, EqualContentEqualFingerprint)
{
    const CsrMatrix a = testMatrix(3);
    const CsrMatrix b = a; // Distinct object, identical content.
    EXPECT_EQ(fingerprintMatrix(a), fingerprintMatrix(b));
}

TEST(Fingerprint, MemoizedOnTheMatrixAndCarriedByCopies)
{
    const CsrMatrix a = testMatrix(11);
    std::uint64_t hi = 0, lo = 0;
    EXPECT_FALSE(a.cachedFingerprint(&hi, &lo));
    const Fingerprint128 fp = fingerprintMatrix(a);
    ASSERT_TRUE(a.cachedFingerprint(&hi, &lo));
    EXPECT_EQ((Fingerprint128{hi, lo}), fp);
    EXPECT_EQ(fingerprintMatrix(a), fp); // Served from the slot.

    // Copies carry the memo; content equality ignores the slot.
    CsrMatrix copy = a;
    ASSERT_TRUE(copy.cachedFingerprint(&hi, &lo));
    EXPECT_EQ((Fingerprint128{hi, lo}), fp);
    EXPECT_EQ(copy, a);
    const CsrMatrix fresh = testMatrix(11);
    EXPECT_FALSE(fresh.cachedFingerprint(&hi, &lo));
    EXPECT_EQ(fresh, a);
    EXPECT_EQ(fingerprintMatrix(fresh), fp);

    // Moves carry the memo forward and drop it from the source, whose
    // vectors are in a moved-from state.
    const CsrMatrix moved = std::move(copy);
    ASSERT_TRUE(moved.cachedFingerprint(&hi, &lo));
    EXPECT_EQ((Fingerprint128{hi, lo}), fp);
    EXPECT_FALSE(copy.cachedFingerprint(&hi, &lo));
    EXPECT_EQ(fingerprintMatrix(moved), fp);
}

TEST(Fingerprint, SensitiveToEveryComponent)
{
    const CsrMatrix base = testMatrix(3);
    const Fingerprint128 fp = fingerprintMatrix(base);

    // A changed value.
    {
        std::vector<Value> values = base.values();
        values.front() += 1.0;
        const CsrMatrix m(base.rows(), base.cols(), base.rowPtr(),
                          base.colIdx(), std::move(values));
        EXPECT_NE(fingerprintMatrix(m), fp);
    }
    // A moved nonzero (different col_idx, same counts). Row 0 has
    // >= 1 nonzero w.h.p. at 5% density on 64 columns; move its first
    // entry to a column not already occupied.
    {
        std::vector<Index> cols = base.colIdx();
        ASSERT_GT(base.rowNnz(0), 0u);
        // Nonzero columns of row 0 are sorted; shifting the last one to
        // the right keeps the row valid if there is room.
        const std::size_t last =
            static_cast<std::size_t>(base.rowPtr()[1]) - 1;
        if (cols[last] + 1 < base.cols()) {
            cols[last] += 1;
            const CsrMatrix m(base.rows(), base.cols(), base.rowPtr(),
                              std::move(cols), base.values());
            EXPECT_NE(fingerprintMatrix(m), fp);
        }
    }
    // Same nnz pattern container, different declared width.
    {
        const CsrMatrix m(base.rows(), base.cols() + 1, base.rowPtr(),
                          base.colIdx(), base.values());
        EXPECT_NE(fingerprintMatrix(m), fp);
    }
    // -0.0 vs 0.0: representation-sensitive by documented contract.
    {
        std::vector<Value> plus = base.values();
        std::vector<Value> minus = base.values();
        plus.front() = 0.0;
        minus.front() = -0.0;
        const CsrMatrix mp(base.rows(), base.cols(), base.rowPtr(),
                           base.colIdx(), std::move(plus));
        const CsrMatrix mm(base.rows(), base.cols(), base.rowPtr(),
                           base.colIdx(), std::move(minus));
        EXPECT_NE(fingerprintMatrix(mp), fingerprintMatrix(mm));
    }
}

/**
 * A deterministic matrix with @p nnz nonzeros, 64 per row, 4096
 * columns and at least one trailing empty row; no RNG behind it, so the
 * pinned digests below depend on the hash alone.
 */
CsrMatrix
pinnedMatrix(std::size_t nnz)
{
    constexpr Offset kPerRow = 64;
    const Index rows = static_cast<Index>(nnz / kPerRow + 2);
    std::vector<Offset> row_ptr(rows + 1);
    for (Index r = 0; r <= rows; ++r)
        row_ptr[r] = std::min<Offset>(r * kPerRow, nnz);
    std::vector<Index> col_idx;
    std::vector<Value> values;
    for (std::size_t k = 0; k < nnz; ++k) {
        const auto r = static_cast<Index>(k / kPerRow);
        col_idx.push_back(static_cast<Index>(k % kPerRow) * 61 + r % 61);
        values.push_back(
            static_cast<double>(k * 2654435761ULL % 1000003) / 7.0 -
            5000.0);
    }
    return CsrMatrix(rows, 4096, std::move(row_ptr), std::move(col_idx),
                     std::move(values));
}

TEST(Fingerprint, DigestsArePinned)
{
    // Fingerprints key every memo cache and seed executeStream's tile
    // RNG, so a changed digest changes goldens. These literals pin the
    // framing: odd col_idx tails, 512-word run edges on col_idx pairs
    // (1023/1024/1025/2049 nnz) and on values (511/512/513/1024 nnz).
    struct Case
    {
        const char *name;
        CsrMatrix m;
        Fingerprint128 want;
    };
    const auto with_second_value = [](Value v) {
        const CsrMatrix m = pinnedMatrix(3);
        std::vector<Value> values = m.values();
        values[1] = v;
        return CsrMatrix(m.rows(), m.cols(), m.rowPtr(), m.colIdx(),
                         std::move(values));
    };
    Rng rng(2024);
    const Case cases[] = {
        {"0x0", CsrMatrix(0, 0, {0}, {}, {}),
         {0x67035d9493a3c999, 0x86300b5efd247cc0}},
        {"5x7 no nnz",
         CsrMatrix(5, 7, std::vector<Offset>(6, 0), {}, {}),
         {0x931b6a2001cb8103, 0x26226bc16fd8b8a4}},
        {"nnz 511", pinnedMatrix(511),
         {0xc2bdf4f0724d1ca4, 0xacbb99719ec4bde9}},
        {"nnz 512", pinnedMatrix(512),
         {0x57f828c2695d9d2c, 0x89d75ae545e11221}},
        {"nnz 513", pinnedMatrix(513),
         {0x3105345ad7ae7709, 0xc7c9a02601811b8f}},
        {"nnz 1023", pinnedMatrix(1023),
         {0x2844e552189e4195, 0x317a6f2a41d55e2b}},
        {"nnz 1024", pinnedMatrix(1024),
         {0x0cbe3f6a4b22848a, 0x79dce870f18d0230}},
        {"nnz 1025", pinnedMatrix(1025),
         {0xbb996ae60f1dfd0f, 0x46db739f87306d0c}},
        {"nnz 2049", pinnedMatrix(2049),
         {0x80cceababfc0bdc9, 0x0987939a78379414}},
        {"dense 512x192", generateDenseCsr(512, 192, rng),
         {0xa6e896c3be47e67a, 0x2284341cd0dc7d2e}},
        {"value 0.0", with_second_value(0.0),
         {0x691ccaff7da07fb0, 0x068b1fd7d7ee8b5c}},
        {"value -0.0", with_second_value(-0.0),
         {0xb3bce2da25f4713f, 0x4aaf2d025f03e378}},
    };
    for (const Case &c : cases) {
        const Fingerprint128 got = fingerprintMatrix(c.m);
        EXPECT_EQ(got, c.want)
            << c.name << ": got {0x" << std::hex << got.hi << ", 0x"
            << got.lo << "}";
    }
}

TEST(Fingerprint, DistinctMatricesDistinctFingerprints)
{
    // A sanity sweep: 64 different matrices, no collisions.
    std::vector<Fingerprint128> fps;
    for (std::uint64_t s = 0; s < 64; ++s)
        fps.push_back(fingerprintMatrix(testMatrix(s)));
    for (std::size_t i = 0; i < fps.size(); ++i)
        for (std::size_t j = i + 1; j < fps.size(); ++j)
            EXPECT_FALSE(fps[i] == fps[j]) << i << " vs " << j;
}

TEST(SummaryCacheTest, MissThenHitReturnsIdenticalSummary)
{
    SummaryCache cache;
    const CsrMatrix m = testMatrix(7);

    const auto first = cache.summary(m);
    EXPECT_EQ(cache.summaryMisses(), 1u);
    EXPECT_EQ(cache.summaryHits(), 0u);

    const CsrMatrix copy = m;
    const auto second = cache.summary(copy);
    EXPECT_EQ(cache.summaryMisses(), 1u);
    EXPECT_EQ(cache.summaryHits(), 1u);
    EXPECT_EQ(first.get(), second.get()); // Same cached object.
    EXPECT_EQ(cache.summaryBytesSaved(), SummaryCache::matrixBytes(m));

    // Cached summary equals a direct computation, field for field.
    const MatrixFeatureSummary direct = summarizeMatrix(m);
    EXPECT_EQ(first->rows, direct.rows);
    EXPECT_EQ(first->cols, direct.cols);
    EXPECT_EQ(first->nnz, direct.nnz);
    const FeatureVector via_cache = combineFeatures(*first, *first);
    const FeatureVector via_direct = combineFeatures(direct, direct);
    EXPECT_EQ(0, std::memcmp(via_cache.values.data(),
                             via_direct.values.data(),
                             sizeof(double) * kNumFeatures));
}

TEST(SummaryCacheTest, CscMemoization)
{
    SummaryCache cache;
    const CsrMatrix m = testMatrix(11);
    const auto c1 = cache.csc(m);
    const auto c2 = cache.csc(m);
    EXPECT_EQ(c1.get(), c2.get());
    EXPECT_EQ(cache.cscMisses(), 1u);
    EXPECT_EQ(cache.cscHits(), 1u);
    // Memoized conversion matches a direct one.
    const CscMatrix direct = csrToCsc(m);
    EXPECT_EQ(c1->colPtr(), direct.colPtr());
    EXPECT_EQ(c1->rowIdx(), direct.rowIdx());
    EXPECT_EQ(c1->values(), direct.values());
}

TEST(SummaryCacheTest, EvictsOldestBeyondCapacity)
{
    SummaryCacheConfig config;
    config.max_entries = 4;
    SummaryCache cache(config);
    for (std::uint64_t s = 0; s < 10; ++s)
        (void)cache.summary(testMatrix(s));
    EXPECT_EQ(cache.summaryMisses(), 10u);
    EXPECT_LE(cache.summaryEntries(), 4u);
    EXPECT_EQ(cache.evictions(), 6u);
    // An evicted matrix recomputes (a new miss, not a hit).
    (void)cache.summary(testMatrix(0));
    EXPECT_EQ(cache.summaryMisses(), 11u);
}

TEST(SummaryCacheTest, DrainsOvershootFromInFlightInsertsExactly)
{
    // Regression: the retired evictIfOverFull evicted at most one
    // entry per insert, so an overshoot created while every entry was
    // still being computed was carried forever — each later insert
    // traded one eviction for its own insertion. Hold three
    // computations in flight past a capacity of two, then assert the
    // next insert drains the excess with exact accounting.
    SummaryCacheConfig config;
    config.max_entries = 2;
    std::atomic<int> entered{0};
    std::atomic<bool> release{false};
    config.summary_compute_hook = [&] {
        entered.fetch_add(1, std::memory_order_relaxed);
        while (!release.load(std::memory_order_relaxed))
            std::this_thread::yield();
    };
    SummaryCache cache(config);
    MetricsRegistry registry;
    cache.setMetrics(&registry);

    std::vector<std::thread> workers;
    for (std::uint64_t s = 0; s < 3; ++s)
        workers.emplace_back(
            [&cache, s] { (void)cache.summary(testMatrix(s)); });
    while (entered.load(std::memory_order_relaxed) < 3)
        std::this_thread::yield();
    // All three are in flight: the bound is overshot by one and
    // nothing is evictable yet.
    EXPECT_EQ(cache.summaryEntries(), 3u);
    EXPECT_EQ(cache.evictions(), 0u);
    release.store(true, std::memory_order_relaxed);
    for (std::thread &t : workers)
        t.join();

    // Fourth insert with three ready entries: must evict TWO (down to
    // the bound), not one.
    (void)cache.summary(testMatrix(3));
    EXPECT_EQ(cache.summaryEntries(), 2u);
    EXPECT_EQ(cache.evictions(), 2u);

    // clear() interleaved with further inserts keeps the accounting
    // exact: a cleared map never yields phantom evictions.
    cache.clear();
    for (std::uint64_t s = 10; s < 13; ++s)
        (void)cache.summary(testMatrix(s));
    EXPECT_EQ(cache.summaryEntries(), 2u);
    EXPECT_EQ(cache.evictions(), 3u);
    cache.clear();
    (void)cache.summary(testMatrix(20));
    EXPECT_EQ(cache.summaryEntries(), 1u);
    EXPECT_EQ(cache.evictions(), 3u);
    EXPECT_EQ(registry.counterValue("cache.evictions"),
              cache.evictions());
}

TEST(SummaryCacheTest, CountersMirrorIntoRegistry)
{
    MetricsRegistry registry;
    SummaryCache cache;
    cache.setMetrics(&registry);
    const CsrMatrix m = testMatrix(13);
    (void)cache.summary(m);
    (void)cache.summary(m);
    (void)cache.summary(m);
    EXPECT_EQ(registry.counterValue("cache.summary_misses"), 1u);
    EXPECT_EQ(registry.counterValue("cache.summary_hits"), 2u);
    EXPECT_EQ(registry.counterValue("cache.summary_bytes_saved"),
              2u * SummaryCache::matrixBytes(m));
}

/** Shared trained framework + job streams: tests/serve_test_util.hh. */
class ServeTest : public serve_test::ServeFixture
{
  protected:
    using serve_test::ServeFixture::freshFramework;

    static std::vector<BatchJob>
    sharedBJobs(std::size_t n)
    {
        return serve_test::sharedBJobs(n);
    }
};

using serve_test::expectSameResults;

TEST_F(ServeTest, CacheRoutingIsBitIdentical)
{
    // execute() with and without a cache attached: identical features
    // and identical downstream decisions.
    MisamFramework plain = freshFramework();
    MisamFramework cached = freshFramework();
    SummaryCache cache;
    cached.setSummaryCache(&cache);

    const CsrMatrix a = testMatrix(17, 200, 160);
    const CsrMatrix b = testMatrix(18, 160, 200);
    const ExecutionReport rp = plain.execute(a, b);
    const ExecutionReport rc = cached.execute(a, b);
    cached.setSummaryCache(nullptr);

    EXPECT_EQ(0, std::memcmp(rp.features.values.data(),
                             rc.features.values.data(),
                             sizeof(double) * kNumFeatures));
    EXPECT_EQ(rp.predicted, rc.predicted);
    EXPECT_EQ(rp.sim.total_cycles, rc.sim.total_cycles);
    EXPECT_EQ(cache.summaryMisses(), 2u); // One per distinct operand.
}

TEST_F(ServeTest, SharedBBatchHitsCacheDeterministically)
{
    // 32 jobs sharing one B: exactly-once semantics pin the counters
    // for ANY thread count — 33 distinct operands, 31 shared-B hits.
    const std::vector<BatchJob> jobs = sharedBJobs(32);
    MisamFramework misam = freshFramework();
    SummaryCache cache;
    misam.setSummaryCache(&cache);
    const BatchReport report = misam.executeBatch(jobs, 4);
    misam.setSummaryCache(nullptr);

    EXPECT_EQ(report.jobs.size(), 32u);
    EXPECT_EQ(cache.summaryMisses(), 33u);
    EXPECT_GE(cache.summaryHits(), 31u);
    EXPECT_EQ(cache.summaryHits() + cache.summaryMisses(), 64u);
}

TEST_F(ServeTest, ServerMatchesSerialBatchAcrossThreadCounts)
{
    const std::vector<BatchJob> jobs = sharedBJobs(24);

    // Ground truth: serial executeBatch, no cache, one thread.
    MisamFramework serial = freshFramework();
    const BatchReport truth = serial.executeBatch(jobs, 1);

    for (unsigned threads : {1u, 4u}) {
        SCOPED_TRACE(threads);
        MisamFramework misam = freshFramework();
        SummaryCache cache;
        misam.setSummaryCache(&cache);
        ServeConfig config;
        config.threads = threads;
        config.window = 5;        // Windows deliberately misaligned
        config.queue_capacity = 7; // with the job count.
        BatchReport served;
        {
            MisamServer server(misam, config);
            server.setMetrics(nullptr);
            served = server.serveAll(jobs);
            EXPECT_EQ(server.admitted(), jobs.size());
            EXPECT_EQ(server.completed(), jobs.size());
            EXPECT_LE(server.queueHighWater(), config.queue_capacity);
        }
        misam.setSummaryCache(nullptr);
        expectSameResults(truth.jobs, served.jobs);
        EXPECT_DOUBLE_EQ(truth.total_execute_s, served.total_execute_s);
        EXPECT_DOUBLE_EQ(truth.total_reconfig_s,
                         served.total_reconfig_s);
        EXPECT_EQ(truth.reconfigurations, served.reconfigurations);
    }
}

TEST_F(ServeTest, ServerCountsMetrics)
{
    MetricsRegistry registry;
    MisamFramework misam = freshFramework();
    ServeConfig config;
    config.window = 4;
    std::vector<BatchJob> jobs = sharedBJobs(10);
    {
        MisamServer server(misam, config);
        server.setMetrics(&registry);
        (void)server.serveAll(std::move(jobs));
    }
    EXPECT_EQ(registry.counterValue("serve.admitted"), 10u);
    EXPECT_EQ(registry.counterValue("serve.completed"), 10u);
    EXPECT_GE(registry.counterValue("serve.windows"), 3u);
}

TEST_F(ServeTest, StreamTilingSeedDependsOnContent)
{
    // Regression: the tiling seed once mixed only a.rows(), so two
    // different matrices with equal height replayed the same tile-size
    // sequence. The seed now mixes a content fingerprint.
    MisamFramework misam = freshFramework();
    Rng rng(5);
    const CsrMatrix m1 = generateUniform(3000, 256, 0.01, rng);
    const CsrMatrix m2 = generateUniform(3000, 256, 0.01, rng);
    const CsrMatrix b = generateUniform(256, 256, 0.05, rng);
    ASSERT_EQ(m1.rows(), m2.rows());
    ASSERT_FALSE(m1 == m2);

    const StreamReport s1 = misam.executeStream(m1, b, 100, 800);
    const StreamReport s2 = misam.executeStream(m2, b, 100, 800);

    // Tile heights are readable off each tile's ARows feature.
    auto heights = [](const StreamReport &s) {
        std::vector<double> h;
        for (const ExecutionReport &t : s.tiles)
            h.push_back(t.features[FeatureId::ARows]);
        return h;
    };
    EXPECT_NE(heights(s1), heights(s2));

    // Determinism is preserved: the same matrix tiles the same way.
    const StreamReport s1b = misam.executeStream(m1, b, 100, 800);
    EXPECT_EQ(heights(s1), heights(s1b));
}

TEST_F(ServeTest, StreamTilesRecordSingleRunExecute)
{
    // Each stream tile executes once: its execute phase must equal the
    // single-run simulated seconds even though the engine amortizes
    // over the remaining tiles.
    MisamFramework misam = freshFramework();
    Rng rng(6);
    const CsrMatrix a = generateUniform(2000, 256, 0.01, rng);
    const CsrMatrix b = generateUniform(256, 256, 0.05, rng);
    const StreamReport s = misam.executeStream(a, b, 200, 600);
    ASSERT_GT(s.tiles.size(), 1u);
    for (const ExecutionReport &t : s.tiles) {
        EXPECT_DOUBLE_EQ(t.breakdown.execute_s, t.sim.exec_seconds);
        EXPECT_DOUBLE_EQ(t.repetitions, 1.0);
    }
}

TEST_F(ServeTest, TrainSurvivesZeroLatencySamples)
{
    // Regression: a validation sample whose simulated latencies are all
    // zero once produced a 0.0 ratio and a geomean panic. Such samples
    // are now skipped and counted.
    std::vector<TrainingSample> samples = *samples_;
    for (std::size_t i = 0; i < samples.size(); i += 4)
        for (SimResult &r : samples[i].results)
            r.exec_seconds = 0.0;

    MetricsRegistry registry;
    MisamFramework misam;
    misam.setMetrics(&registry);
    const TrainingReport report = misam.train(samples);

    EXPECT_TRUE(std::isfinite(report.hit_geomean_speedup));
    EXPECT_TRUE(std::isfinite(report.miss_geomean_slowdown));
    EXPECT_GT(report.hit_geomean_speedup, 0.0);
    EXPECT_GT(report.miss_geomean_slowdown, 0.0);
    // With every 4th sample zeroed, the 30% validation split contains
    // some of them (deterministic seed), so the skip counter moved.
    EXPECT_GT(registry.counterValue("train.degenerate_ratios"), 0u);
}

TEST(JobFileTest, ParsesSchemaAndDefaults)
{
    const std::string path = testing::TempDir() + "/jobs.jsonl";
    {
        std::ofstream out(path);
        out << "# comment line\n";
        out << "\n";
        out << "{\"name\":\"j0\",\"a\":\"a.mtx\",\"repetitions\":8}\n";
        out << "{\"a\":\"b.mtx\",\"b\":\"self\",\"future_key\":true}\n";
        out << "{\"a\":\"c.mtx\",\"dense_cols\":64}\n";
    }
    const std::vector<ServeJobSpec> specs = parseJobFile(path);
    ASSERT_EQ(specs.size(), 3u);
    EXPECT_EQ(specs[0].name, "j0");
    EXPECT_EQ(specs[0].a_path, "a.mtx");
    EXPECT_DOUBLE_EQ(specs[0].repetitions, 8.0);
    EXPECT_EQ(specs[1].name, "job1");
    EXPECT_EQ(specs[1].b_path, "self");
    EXPECT_EQ(specs[2].dense_cols, 64u);
    EXPECT_DOUBLE_EQ(specs[2].repetitions, 1.0);
}

TEST(JobFileTest, MalformedLineIsFatal)
{
    const std::string path = testing::TempDir() + "/bad.jsonl";
    {
        std::ofstream out(path);
        out << "{\"a\":\"x.mtx\"\n"; // Unclosed object.
    }
    EXPECT_DEATH((void)parseJobFile(path), "bad.jsonl:1");
}

TEST(JobFileTest, MissingAIsFatal)
{
    const std::string path = testing::TempDir() + "/noa.jsonl";
    {
        std::ofstream out(path);
        out << "{\"name\":\"x\"}\n";
    }
    EXPECT_DEATH((void)parseJobFile(path), "missing required key 'a'");
}

/** Write `text` to a fresh file under the test temp dir. */
std::string
writeTempFile(const std::string &name, const std::string &text)
{
    const std::string path = testing::TempDir() + "/" + name;
    std::ofstream out(path, std::ios::binary);
    out << text;
    return path;
}

/** Write one seeded matrix as Matrix Market; return its path. */
std::string
writeTempMatrix(const std::string &name, const CsrMatrix &m)
{
    const std::string path = testing::TempDir() + "/" + name;
    writeMatrixMarketFile(path, m);
    return path;
}

CsrMatrix
readBack(const std::string &path)
{
    return cooToCsr(readMatrixMarketFile(path));
}

/** `{"a":...,"b":...}` job line (b omitted when empty). */
std::string
jobLine(const std::string &a, const std::string &b = "")
{
    std::string line = "{\"a\":\"" + a + "\"";
    if (!b.empty())
        line += ",\"b\":\"" + b + "\"";
    return line + "}\n";
}

TEST(JobFileTest, DenseColsNegativeIsFatal)
{
    const std::string path = writeTempFile(
        "dc_neg.jsonl", "{\"a\":\"m.mtx\",\"dense_cols\":-5}\n");
    EXPECT_DEATH((void)parseJobFile(path),
                 "dc_neg.jsonl:1: dense_cols must be an integer");
}

TEST(JobFileTest, DenseColsBeyondIndexIsFatal)
{
    const std::string path = writeTempFile(
        "dc_big.jsonl", "{\"a\":\"m.mtx\",\"dense_cols\":1e20}\n");
    EXPECT_DEATH((void)parseJobFile(path),
                 "dc_big.jsonl:1: dense_cols must be an integer");
}

TEST(JobFileTest, DenseColsNonFiniteIsFatal)
{
    const std::string path = writeTempFile(
        "dc_inf.jsonl", "{\"a\":\"m.mtx\",\"dense_cols\":1e999}\n");
    EXPECT_DEATH((void)parseJobFile(path),
                 "dc_inf.jsonl:1: bad number '1e999'");
}

TEST(JobFileTest, DenseColsFractionIsFatal)
{
    const std::string path = writeTempFile(
        "dc_frac.jsonl", "{\"a\":\"m.mtx\",\"dense_cols\":2.5}\n");
    EXPECT_DEATH((void)parseJobFile(path),
                 "dc_frac.jsonl:1: dense_cols must be an integer");
}

TEST(JobFileTest, DenseColsZeroIsFatal)
{
    const std::string path = writeTempFile(
        "dc_zero.jsonl", "{\"a\":\"m.mtx\",\"dense_cols\":0}\n");
    EXPECT_DEATH((void)parseJobFile(path),
                 "dc_zero.jsonl:1: dense_cols must be an integer");
}

TEST(JobFileTest, RepetitionsNonFiniteIsFatal)
{
    const std::string path = writeTempFile(
        "rep_inf.jsonl", "{\"a\":\"m.mtx\",\"repetitions\":1e999}\n");
    EXPECT_DEATH((void)parseJobFile(path),
                 "rep_inf.jsonl:1: bad number '1e999'");
}

TEST(JobFileTest, NumberWithUnparsedTailIsFatal)
{
    const std::string path = writeTempFile(
        "num_tail.jsonl", "{\"a\":\"m.mtx\",\"repetitions\":1-2}\n");
    EXPECT_DEATH((void)parseJobFile(path),
                 "num_tail.jsonl:1: bad number '1-2'");
}

TEST(JobFileTest, NumberWithoutDigitsIsFatal)
{
    const std::string path = writeTempFile(
        "num_none.jsonl", "{\"a\":\"m.mtx\",\"repetitions\":--}\n");
    EXPECT_DEATH((void)parseJobFile(path),
                 "num_none.jsonl:1: bad number '--'");
}

TEST(JobFileTest, LargestDenseColsParses)
{
    const std::string path = writeTempFile(
        "dc_max.jsonl", "{\"a\":\"m.mtx\",\"dense_cols\":4294967295}\n");
    const std::vector<ServeJobSpec> specs = parseJobFile(path);
    ASSERT_EQ(specs.size(), 1u);
    EXPECT_EQ(specs[0].dense_cols, 4294967295u);
}

TEST(JobFileTest, DenseColsBeyondMemoryIsFatal)
{
    // A 2^24-column A with dense_cols 2^32-1 asks for ~8.6e17 bytes of
    // dense B: more than any machine's memory, refused before anything
    // is allocated.
    const std::string a_path =
        writeTempFile("dc_mem_a.mtx",
                      "%%MatrixMarket matrix coordinate real general\n"
                      "4 16777216 0\n");
    const std::vector<ServeJobSpec> specs = parseJobFile(writeTempFile(
        "dc_mem.jsonl", "{\"name\":\"huge\",\"a\":\"" + a_path +
                            "\",\"dense_cols\":4294967295}\n"));
    ASSERT_EQ(specs.size(), 1u);
    EXPECT_DEATH((void)loadServeJob(specs[0]),
                 "loadServeJob: job 'huge': a 16777216 x 4294967295 "
                 "dense B does not fit in memory");
}

TEST(JobFileTest, SharedBIsReadOnce)
{
    Rng rng(41);
    const std::string b_path =
        writeTempMatrix("once_b.mtx", generateUniform(48, 40, 0.1, rng));
    const CsrMatrix expected_b = readBack(b_path);
    std::string text;
    for (int i = 0; i < 4; ++i)
        text += jobLine(writeTempMatrix("once_a" + std::to_string(i) +
                                            ".mtx",
                                        generateUniform(32, 48, 0.1, rng)),
                        b_path);
    const std::vector<ServeJobSpec> specs =
        parseJobFile(writeTempFile("once.jsonl", text));
    ASSERT_EQ(specs.size(), 4u);

    std::vector<BatchJob> jobs;
    jobs.push_back(loadServeJob(specs[0]));
    // The other three jobs load with the file gone: B was read once.
    ASSERT_EQ(std::remove(b_path.c_str()), 0);
    for (std::size_t i = 1; i < specs.size(); ++i)
        jobs.push_back(loadServeJob(specs[i]));

    const Fingerprint128 fp = fingerprintMatrix(expected_b);
    for (const BatchJob &job : jobs) {
        EXPECT_EQ(job.b, expected_b);
        std::uint64_t hi = 0, lo = 0;
        ASSERT_TRUE(job.b.cachedFingerprint(&hi, &lo));
        EXPECT_EQ((Fingerprint128{hi, lo}), fp);
    }
}

TEST(JobFileTest, PathNamedOnceHasNoSlot)
{
    const std::string text = jobLine("solo.mtx", "w.mtx") +
                             jobLine("twice.mtx", "self") +
                             jobLine("twice.mtx") +
                             "{\"a\":\"d.mtx\",\"dense_cols\":8}\n" +
                             jobLine("x.mtx", "w.mtx");
    const std::vector<ServeJobSpec> specs =
        parseJobFile(writeTempFile("slots.jsonl", text));
    ASSERT_EQ(specs.size(), 5u);
    EXPECT_EQ(specs[0].a_shared, nullptr); // solo.mtx
    EXPECT_NE(specs[0].b_shared, nullptr); // w.mtx, named twice
    EXPECT_EQ(specs[0].b_shared, specs[4].b_shared);
    EXPECT_NE(specs[1].a_shared, nullptr); // twice.mtx ("self" not counted)
    EXPECT_EQ(specs[1].a_shared, specs[2].a_shared);
    EXPECT_EQ(specs[1].b_shared, nullptr);
    EXPECT_EQ(specs[3].a_shared, nullptr); // dense_cols is no path
    EXPECT_EQ(specs[3].b_shared, nullptr);
    EXPECT_EQ(specs[4].a_shared, nullptr);
}

TEST(JobFileTest, SamePathAsBothOperandsLoadsTwoEqualOperands)
{
    Rng rng(42);
    const std::string path =
        writeTempMatrix("both.mtx", generateUniform(40, 40, 0.1, rng));
    const CsrMatrix expected = readBack(path);
    const std::vector<ServeJobSpec> specs =
        parseJobFile(writeTempFile("both.jsonl", jobLine(path, path)));
    ASSERT_EQ(specs.size(), 1u);
    ASSERT_NE(specs[0].a_shared, nullptr); // Two references, one line.
    EXPECT_EQ(specs[0].a_shared, specs[0].b_shared);
    const BatchJob job = loadServeJob(specs[0]);
    EXPECT_EQ(job.a, expected);
    EXPECT_EQ(job.b, expected);
}

TEST(JobFileTest, LoadsBeyondTheCountReadTheFileAgain)
{
    Rng rng(43);
    const std::string path =
        writeTempMatrix("extra.mtx", generateUniform(36, 36, 0.1, rng));
    const CsrMatrix first = readBack(path);
    const std::vector<ServeJobSpec> specs = parseJobFile(
        writeTempFile("extra.jsonl", jobLine(path) + jobLine(path)));
    ASSERT_EQ(specs.size(), 2u);
    EXPECT_EQ(loadServeJob(specs[0]).a, first);
    EXPECT_EQ(loadServeJob(specs[1]).a, first);

    // Both counted loads are spent, so the slot holds nothing: further
    // loads read whatever the file holds now.
    writeMatrixMarketFile(path, generateUniform(36, 36, 0.2, rng));
    const CsrMatrix second = readBack(path);
    ASSERT_FALSE(second == first);
    for (int i = 0; i < 2; ++i) {
        const BatchJob job = loadServeJob(specs[1]);
        EXPECT_EQ(job.a, second);
        EXPECT_EQ(job.b, second); // B defaults to self.
    }
}

TEST_F(ServeTest, SharedOperandJobFileServesLikeFreshReads)
{
    // Two tenants, each B named on three lines, every A distinct.
    Rng rng(44);
    const std::string b_paths[2] = {
        writeTempMatrix("tenant_b0.mtx", generateUniform(96, 64, 0.06, rng)),
        writeTempMatrix("tenant_b1.mtx", generateUniform(96, 80, 0.03, rng))};
    std::vector<std::pair<std::string, std::string>> lines;
    std::string text;
    for (int i = 0; i < 6; ++i) {
        const std::string a_path = writeTempMatrix(
            "tenant_a" + std::to_string(i) + ".mtx",
            generateUniform(64, 96, 0.05, rng));
        lines.emplace_back(a_path, b_paths[i % 2]);
        text += jobLine(a_path, b_paths[i % 2]);
    }
    const std::string job_file = writeTempFile("tenants.jsonl", text);

    const auto serve = [&](auto &&next_job) {
        MisamFramework misam = freshFramework();
        SummaryCache cache;
        misam.setSummaryCache(&cache);
        std::ostringstream out;
        {
            MetricsSink sink(out);
            ServeConfig config;
            config.window = 4;
            MisamServer server(misam, config);
            server.setMetrics(nullptr);
            server.setTraceSink(&sink);
            for (std::size_t i = 0; i < lines.size(); ++i)
                (void)server.submit(next_job(i));
            server.drain();
            for (const ExecutionReport &r : server.report().jobs)
                sink.event("serve.job",
                           {{"name", r.name},
                            {"predicted", designName(r.predicted)},
                            {"chosen", designName(r.decision.chosen)},
                            {"reconfigure", r.decision.reconfigure ? 1 : 0},
                            {"execute_s", r.breakdown.execute_s},
                            {"cycles", r.sim.total_cycles}});
        }
        misam.setSummaryCache(nullptr);
        EXPECT_EQ(cache.summaryMisses(), 8u); // 6 A + 2 B operands.
        return out.str();
    };

    const std::vector<ServeJobSpec> specs = parseJobFile(job_file);
    const std::string shared =
        serve([&](std::size_t i) { return loadServeJob(specs[i]); });
    const std::string fresh = serve([&](std::size_t i) {
        BatchJob job;
        job.name = "job" + std::to_string(i);
        job.a = readBack(lines[i].first);
        job.b = readBack(lines[i].second);
        return job;
    });
    EXPECT_NE(shared.find("\"ev\":\"serve.job\""), std::string::npos);
    EXPECT_EQ(shared, fresh);
}

// --------------------------------------------------------------------
// Seeded mutation run over the job-file parser
// --------------------------------------------------------------------

const char kJobFileBase[] =
    "{\"name\":\"j0\",\"a\":\"a.mtx\",\"b\":\"w.mtx\",\"repetitions\":8}\n"
    "{\"name\":\"j1\",\"a\":\"b.mtx\",\"b\":\"self\"}\n"
    "{\"name\":\"j2\",\"a\":\"c.mtx\",\"dense_cols\":64}\n";

using mutation_test::parsedOrRefused;
using mutation_test::substituted;

/** About 64 deterministic mutants of kJobFileBase. */
std::vector<std::string>
jobFileMutationCorpus()
{
    const std::string base = kJobFileBase;
    std::vector<std::string> mutants;
    // Truncation after every field boundary.
    for (std::size_t i = 1; i <= base.size(); ++i)
        if (base[i - 1] == ':' || base[i - 1] == ',' ||
            base[i - 1] == '}')
            mutants.push_back(base.substr(0, i));
    // Seeded single-byte replacements, any byte value.
    Rng rng(0x6a6f6273);
    for (int i = 0; i < 20; ++i) {
        std::string m = base;
        m[rng.uniformInt(m.size())] =
            static_cast<char>(rng.uniformInt(std::uint64_t{256}));
        mutants.push_back(m);
    }
    for (const auto &[from, to] :
         std::vector<std::pair<std::string, std::string>>{
             // Duplicate keys.
             {"\"a\":\"a.mtx\"", "\"a\":\"a.mtx\",\"a\":\"z.mtx\""},
             {"\"repetitions\":8", "\"repetitions\":8,\"repetitions\":2"},
             {"\"dense_cols\":64", "\"dense_cols\":64,\"dense_cols\":9"},
             // Unterminated strings and bad escapes.
             {"\"j0\"", "\"j0"},
             {"\"self\"}", "\"self}"},
             {"j1", "j\\q"},
             {"j1", "j\\u0041"},
             {"\"j2\"", "\"j2\\"},
             // Overflowing, non-finite and malformed numbers.
             {"8}", "1e999}"},
             {"8}", "-1e999}"},
             {"8}", "1e-999}"},
             {"8}", "1e308}"},
             {"8}", "0.5}"},
             {"8}", "1-2}"},
             {"8}", "--}"},
             {"8}", "+}"},
             {"8}", "99999999999999999999999}"},
             {"64}", "4294967296}"},
             {"64}", "4294967295}"},
             {"64}", "1e20}"},
             {"64}", "1e999}"},
             {"64}", "-5}"},
             {"64}", "0}"},
             {"64}", "2.5}"},
             // b plus dense_cols.
             {"\"dense_cols\"", "\"b\":\"w.mtx\",\"dense_cols\""},
             {"\"dense_cols\"", "\"b\":\"self\",\"dense_cols\""},
         })
        mutants.push_back(substituted(base, from, to));
    return mutants;
}

TEST(JobFileFuzz, SeededMutantsParseOrRefuse)
{
    const std::vector<std::string> mutants = jobFileMutationCorpus();
    ASSERT_GE(mutants.size(), 60u);
    for (std::size_t i = 0; i < mutants.size(); ++i) {
        const std::string path = writeTempFile(
            "mutant" + std::to_string(i) + ".jsonl", mutants[i]);
        EXPECT_EXIT(
            {
                (void)parseJobFile(path);
                std::fprintf(stderr, "parsed\n");
                std::exit(0);
            },
            parsedOrRefused,
            "parsed|mutant" + std::to_string(i) + "\\.jsonl:[0-9]+: ")
            << "mutant " << i << ":\n"
            << mutants[i];
    }
}

} // namespace
} // namespace misam

/**
 * @file
 * Simulator hot-loop bench: scratch-arena scheduler kernels + shared
 * symbolic-SpGEMM analysis vs the retained naive reference kernels.
 *
 * One binary, one thread, same workloads: each seeded workload runs
 * simulateAllDesigns() in fast mode (stamped arenas, shared tilings/
 * histograms, fused symbolic pass) and in reference mode
 * (setUseReferenceSimKernels: per-tile vector construction,
 * unordered_map Row histograms, two-pass symbolic analysis). Results
 * are bit-identical by contract (tests/test_scheduler_kernels.cpp);
 * this bench measures the throughput gap and asserts the steady-state
 * zero-allocation property of the arenas.
 *
 * Output: paper-style rows on stdout plus a machine-readable JSON
 * summary (default BENCH_sim.json; scripts/check.sh smoke-parses it).
 * The summary holds one section per run mode — "full" (the committed
 * numbers, including a per-SIMD-backend comparison) and "smoke" (CI's
 * one-rep sanity run) — and a run only replaces its own section, so a
 * smoke run never clobbers the committed full-run figures.
 *
 * Flags: --out=FILE (JSON path), --smoke (one repetition per workload,
 * for CI), --threads=N / MISAM_THREADS (ignored for the timed loops,
 * which are single-thread by design).
 */

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/common.hh"
#include "sim/design_sim.hh"
#include "sim/workspace.hh"
#include "sparse/generate.hh"
#include "sparse/spgemm.hh"
#include "sparse/spgemm_numeric.hh"
#include "util/simd.hh"
#include "util/table.hh"

using namespace misam;

namespace {

struct HotWorkload
{
    const char *name;
    CsrMatrix a;
    CsrMatrix b;
    std::size_t reps;
};

struct HotRow
{
    const char *name = nullptr;
    std::size_t reps = 0;
    int tiles_per_sample = 0;
    double fast_seconds = 0.0;
    double ref_seconds = 0.0;
    double fast_tiles_per_sec = 0.0;
    double fast_samples_per_sec = 0.0;
    double speedup = 0.0;
    std::uint64_t steady_alloc_delta = 0;
};

std::vector<HotWorkload>
buildWorkloads(bool smoke)
{
    // Seeded populations covering the scheduler regimes: `small` is the
    // many-tiny-samples training shape, `medium` the sparse-B SpGEMM
    // shape where the Row-policy hash removal dominates, `skewed` the
    // row-imbalanced Design-3 niche.
    std::vector<HotWorkload> ws;
    {
        Rng rng(101);
        ws.push_back({"small",
                      generateUniform(384, 384, 0.03, rng),
                      generateUniform(384, 192, 0.05, rng),
                      smoke ? 1u : 40u});
    }
    {
        Rng rng(202);
        ws.push_back({"medium",
                      generateUniform(3072, 3072, 0.01, rng),
                      generateUniform(3072, 1024, 0.001, rng),
                      smoke ? 1u : 6u});
    }
    {
        Rng rng(303);
        ws.push_back({"skewed",
                      generateRowImbalanced(2048, 2048, 0.008, 0.03,
                                            30.0, rng),
                      generateUniform(2048, 512, 0.002, rng),
                      smoke ? 1u : 8u});
    }
    {
        // FEM/CFD-like band-diagonal structure: short, clustered rows
        // whose column runs land in bursts, stressing the Row-policy
        // bucketing pass differently from the uniform families.
        Rng rng(505);
        ws.push_back({"band",
                      generateBanded(2560, 2560, 24, 0.5, rng),
                      generateUniform(2560, 640, 0.003, rng),
                      smoke ? 1u : 8u});
    }
    return ws;
}

double
timeReps(const HotWorkload &w, std::size_t reps)
{
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < reps; ++i)
        simulateAllDesigns(w.a, w.b, /*threads=*/1);
    const auto stop = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(stop - start).count();
}

HotRow
runWorkload(const HotWorkload &w)
{
    HotRow row;
    row.name = w.name;
    row.reps = w.reps;

    // Warm both paths once (arena growth, page faults), then verify the
    // fast path's steady state allocates nothing.
    setUseReferenceSimKernels(false);
    const auto sims = simulateAllDesigns(w.a, w.b, 1);
    for (const SimResult &r : sims)
        row.tiles_per_sample += r.num_tiles;
    const std::uint64_t warm = SimWorkspace::local().allocationEvents();
    row.fast_seconds = timeReps(w, w.reps);
    row.steady_alloc_delta =
        SimWorkspace::local().allocationEvents() - warm;

    setUseReferenceSimKernels(true);
    simulateAllDesigns(w.a, w.b, 1);
    row.ref_seconds = timeReps(w, w.reps);
    setUseReferenceSimKernels(false);

    const double reps_d = static_cast<double>(w.reps);
    if (row.fast_seconds > 0.0) {
        row.fast_samples_per_sec = reps_d / row.fast_seconds;
        row.fast_tiles_per_sec =
            reps_d * row.tiles_per_sample / row.fast_seconds;
        row.speedup = row.ref_seconds / row.fast_seconds;
    }
    return row;
}

/**
 * Per-SIMD-backend timings of the vector-kernel consumers (full mode),
 * one row per shape family. The steady-state loops above either
 * memoize the analysis work or run marker-path shapes that bypass the
 * vector kernels, so they say nothing about the dispatch backends;
 * each row drives the symbolic pass (the bitmap merge, orInto/
 * popcountAndClear, wherever no full B row lets it skip the merge) and
 * the fused numeric kernel's expandSetBits emit on one family's
 * operands, under scalar vs the widest supported backend. The outputs are
 * byte-identical by contract; only the time may differ — and the gap
 * is family-dependent (word count per bitmap row, run lengths), which
 * is why one aggregate row was not enough.
 */
struct BackendRow
{
    const char *family = nullptr;
    double scalar_kernel_seconds = 0.0;
    double best_kernel_seconds = 0.0;
    double vector_vs_scalar = 0.0;
};

struct BackendCompare
{
    const char *best = nullptr;
    std::vector<BackendRow> rows;
};

BackendCompare
compareBackends(const std::vector<HotWorkload> &workloads)
{
    // A dedicated wide-B family (64 occupancy words per row) keeps the
    // bitmap merge in long runs; the simulator families reuse their
    // own operands so the per-family gap reflects the shapes the timed
    // loops above actually run.
    Rng rng(404);
    const CsrMatrix wide_a = generateUniform(1024, 1024, 0.03, rng);
    const CsrMatrix wide_b = generateUniform(1024, 4096, 0.04, rng);
    // The DNN tenant's shape as the end-to-end benchmark serves it
    // (defaultTenantMix() doubled): a 6% A against a dense B, whose full
    // rows the symbolic pass counts without a merge.
    const CsrMatrix dense_a = generateUniform(384, 512, 0.06, rng);
    const CsrMatrix dense_b = generateDenseCsr(512, 192, rng);

    BackendCompare cmp;
    const simd::Backend best = simd::bestSupportedBackend();
    cmp.best = simd::backendName(best);

    struct Driver
    {
        const char *family;
        const CsrMatrix *a;
        const CsrMatrix *b;
        std::size_t reps;
    };
    std::vector<Driver> drivers;
    for (const HotWorkload &w : workloads)
        drivers.push_back({w.name, &w.a, &w.b, 8});
    drivers.push_back({"wide-bitmap", &wide_a, &wide_b, 20});
    drivers.push_back({"dense-b", &dense_a, &dense_b, 20});

    for (const Driver &d : drivers) {
        BackendRow row;
        row.family = d.family;
        for (const simd::Backend backend :
             {simd::Backend::Scalar, best}) {
            simd::setBackendForTesting(backend);
            // Warm (page faults, bitmap build).
            const SymbolicStats sym = spgemmSymbolic(*d.a, *d.b);
            spgemmNumericFused(*d.a, *d.b, &sym);
            const auto start = std::chrono::steady_clock::now();
            for (std::size_t i = 0; i < d.reps; ++i) {
                spgemmSymbolic(*d.a, *d.b);
                spgemmNumericFused(*d.a, *d.b, &sym);
            }
            const auto stop = std::chrono::steady_clock::now();
            const double secs =
                std::chrono::duration<double>(stop - start).count();
            if (backend == simd::Backend::Scalar)
                row.scalar_kernel_seconds = secs;
            row.best_kernel_seconds = secs; // Last iteration is `best`.
        }
        simd::resetBackendFromEnv();
        if (row.best_kernel_seconds > 0.0)
            row.vector_vs_scalar =
                row.scalar_kernel_seconds / row.best_kernel_seconds;
        cmp.rows.push_back(row);
    }
    return cmp;
}

/**
 * Fused numeric SpGEMM (dense accumulator + bitmap occupancy, the
 * executeFunctional fast path) vs the retained sparse-accumulator
 * reference spgemmRowWise, per shape family. Products are
 * byte-identical by contract (tests/test_numeric_spgemm.cpp); this
 * measures the throughput gap. Full mode asserts >= 2x on `medium`.
 */
struct NumericRow
{
    const char *family = nullptr;
    std::size_t reps = 0;
    double fused_seconds = 0.0;
    double naive_seconds = 0.0;
    double speedup = 0.0;
};

std::vector<NumericRow>
compareNumeric(const std::vector<HotWorkload> &workloads)
{
    std::vector<NumericRow> rows;
    for (const HotWorkload &w : workloads) {
        NumericRow row;
        row.family = w.name;
        row.reps = 8;
        // The symbolic analysis is shared by contract on the fast path
        // (cachedSpgemmNumeric warms the symbolic cache), so it sits
        // outside both timed loops.
        const SymbolicStats sym = spgemmSymbolic(w.a, w.b);
        spgemmNumericFused(w.a, w.b, &sym); // Warm.
        auto start = std::chrono::steady_clock::now();
        for (std::size_t i = 0; i < row.reps; ++i)
            spgemmNumericFused(w.a, w.b, &sym);
        auto stop = std::chrono::steady_clock::now();
        row.fused_seconds =
            std::chrono::duration<double>(stop - start).count();

        spgemmRowWise(w.a, w.b); // Warm.
        start = std::chrono::steady_clock::now();
        for (std::size_t i = 0; i < row.reps; ++i)
            spgemmRowWise(w.a, w.b);
        stop = std::chrono::steady_clock::now();
        row.naive_seconds =
            std::chrono::duration<double>(stop - start).count();
        if (row.fused_seconds > 0.0)
            row.speedup = row.naive_seconds / row.fused_seconds;
        rows.push_back(row);
    }
    return rows;
}

/**
 * One mode section ("full" or "smoke"), rendered with its leading
 * comma so sections concatenate after the "bench" field.
 */
std::string
modeSection(const char *mode, const std::vector<HotRow> &rows,
            const BackendCompare *backends,
            const std::vector<NumericRow> *numeric)
{
    std::ostringstream out;
    char buf[512];
    out << ",\n  \"" << mode << "\": {\n    \"workloads\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const HotRow &r = rows[i];
        std::snprintf(
            buf, sizeof buf,
            "      {\"name\": \"%s\", \"reps\": %zu, \"tiles\": %d,\n"
            "       \"fast_seconds\": %.6f, \"ref_seconds\": %.6f,\n"
            "       \"tiles_per_sec\": %.1f, \"samples_per_sec\": %.3f,\n"
            "       \"speedup\": %.3f, \"steady_alloc_events\": %llu}%s\n",
            r.name, r.reps, r.tiles_per_sample, r.fast_seconds,
            r.ref_seconds, r.fast_tiles_per_sec, r.fast_samples_per_sec,
            r.speedup,
            static_cast<unsigned long long>(r.steady_alloc_delta),
            i + 1 < rows.size() ? "," : "");
        out << buf;
    }
    out << "    ]";
    if (backends != nullptr) {
        out << ",\n    \"backends\": {\"best\": \"" << backends->best
            << "\",\n     \"families\": [\n";
        for (std::size_t i = 0; i < backends->rows.size(); ++i) {
            const BackendRow &r = backends->rows[i];
            std::snprintf(buf, sizeof buf,
                          "      {\"family\": \"%s\",\n"
                          "       \"scalar_kernel_seconds\": %.6f,\n"
                          "       \"best_kernel_seconds\": %.6f,\n"
                          "       \"vector_vs_scalar\": %.3f}%s\n",
                          r.family, r.scalar_kernel_seconds,
                          r.best_kernel_seconds, r.vector_vs_scalar,
                          i + 1 < backends->rows.size() ? "," : "");
            out << buf;
        }
        out << "    ]}";
    }
    if (numeric != nullptr) {
        out << ",\n    \"numeric\": [\n";
        for (std::size_t i = 0; i < numeric->size(); ++i) {
            const NumericRow &r = (*numeric)[i];
            std::snprintf(buf, sizeof buf,
                          "      {\"family\": \"%s\", \"reps\": %zu,\n"
                          "       \"fused_seconds\": %.6f,\n"
                          "       \"naive_seconds\": %.6f,\n"
                          "       \"speedup\": %.3f}%s\n",
                          r.family, r.reps, r.fused_seconds,
                          r.naive_seconds, r.speedup,
                          i + 1 < numeric->size() ? "," : "");
            out << buf;
        }
        out << "    ]";
    }
    out << "\n  }";
    return out.str();
}

/**
 * Extract one mode section (with its leading comma) from an existing
 * summary, or "" when absent. Only the current two-section format is
 * recognized — anything else (including the retired flat layout, whose
 * `"smoke": false` field would false-match the marker) is discarded
 * rather than merged.
 */
std::string
extractSection(const std::string &text, const std::string &marker)
{
    const std::size_t at = text.find(marker);
    if (at == std::string::npos)
        return "";
    std::size_t open = at + marker.size();
    while (open < text.size() && text[open] == ' ')
        ++open;
    if (open >= text.size() || text[open] != '{')
        return "";
    const char *const markers[] = {",\n  \"full\":", ",\n  \"smoke\":"};
    std::size_t end = std::string::npos;
    for (const char *other : markers) {
        if (marker == other)
            continue;
        const std::size_t p = text.find(other, open);
        if (p != std::string::npos && p < end)
            end = p;
    }
    if (end == std::string::npos) {
        end = text.rfind('}'); // The file's closing brace.
        if (end == std::string::npos || end <= at)
            return "";
    }
    std::string section = text.substr(at, end - at);
    while (!section.empty() &&
           (section.back() == '\n' || section.back() == ' '))
        section.pop_back();
    return section;
}

/**
 * Write the summary, replacing only the current mode's section and
 * carrying the other mode's section over verbatim ("full" always
 * renders first for a stable committed layout).
 */
void
writeJson(const std::string &path, const std::string &section, bool smoke)
{
    std::string existing;
    {
        std::ifstream in(path);
        if (in) {
            std::stringstream buf;
            buf << in.rdbuf();
            existing = buf.str();
        }
    }
    const std::string kept = extractSection(
        existing, smoke ? ",\n  \"full\":" : ",\n  \"smoke\":");

    std::ofstream out(path, std::ios::trunc);
    if (!out) {
        std::fprintf(stderr, "bench_sim_hot: cannot write %s\n",
                     path.c_str());
        std::exit(1);
    }
    out << "{\n  \"bench\": \"bench_sim_hot\"";
    if (smoke)
        out << kept << section;
    else
        out << section << kept;
    out << "\n}\n";
}

std::string
outPath(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--out=", 0) == 0)
            return arg.substr(6);
        if (arg == "--out" && i + 1 < argc)
            return argv[++i];
    }
    return "BENCH_sim.json";
}

bool
smokeMode(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i)
        if (std::string(argv[i]) == "--smoke")
            return true;
    return false;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::banner("Simulator hot-loop kernels — arena vs reference",
                  "cycle-model throughput (tooling, not a paper figure)");

    const bool smoke = smokeMode(argc, argv);
    const std::string out = outPath(argc, argv);
    const std::vector<HotWorkload> workloads = buildWorkloads(smoke);

    std::vector<HotRow> rows;
    rows.reserve(workloads.size());
    for (const HotWorkload &w : workloads)
        rows.push_back(runWorkload(w));

    TextTable table({"Workload", "Reps", "Tiles", "Fast (s)", "Ref (s)",
                     "Tiles/s", "Samples/s", "Speedup", "Allocs"});
    for (const HotRow &r : rows) {
        table.addRow({r.name, std::to_string(r.reps),
                      std::to_string(r.tiles_per_sample),
                      formatDouble(r.fast_seconds, 3),
                      formatDouble(r.ref_seconds, 3),
                      formatDouble(r.fast_tiles_per_sec, 0),
                      formatDouble(r.fast_samples_per_sec, 2),
                      formatDouble(r.speedup, 2) + "x",
                      std::to_string(r.steady_alloc_delta)});
    }
    std::printf("%s", table.render().c_str());

    BackendCompare cmp;
    std::vector<NumericRow> numeric;
    if (!smoke) {
        cmp = compareBackends(workloads);
        for (const BackendRow &r : cmp.rows)
            std::printf("backends[%s]: symbolic+numeric "
                        "kernels scalar %.3fs vs %s %.3fs (%.2fx)\n",
                        r.family, r.scalar_kernel_seconds, cmp.best,
                        r.best_kernel_seconds, r.vector_vs_scalar);
        numeric = compareNumeric(workloads);
        for (const NumericRow &r : numeric)
            std::printf("numeric[%s]: fused %.3fs vs rowwise %.3fs "
                        "(%.2fx)\n",
                        r.family, r.fused_seconds, r.naive_seconds,
                        r.speedup);
    }

    writeJson(out,
              modeSection(smoke ? "smoke" : "full", rows,
                          smoke ? nullptr : &cmp,
                          smoke ? nullptr : &numeric),
              smoke);
    std::printf("JSON summary written to %s\n", out.c_str());

    // The dynamic counterpart of the static hot-path-alloc lint rule:
    // the annotated hot-path regions (TileScheduler::schedule,
    // RowScratch::add/addRun, the SIMD kernels) promise steady-state
    // allocation freedom, and the arena event counters prove it here
    // for every workload — in smoke mode too, so CI re-checks the
    // promise on each run.
    int failures = 0;
    for (const HotRow &r : rows) {
        if (r.steady_alloc_delta != 0) {
            std::fprintf(stderr,
                         "FAIL: %s performed %llu steady-state arena "
                         "allocations (expected 0; the misam-lint "
                         "hot-path regions promise none)\n",
                         r.name,
                         static_cast<unsigned long long>(
                             r.steady_alloc_delta));
            ++failures;
        }
        // Timing acceptance only in full mode: one smoke rep is noise.
        if (!smoke && std::string(r.name) == "medium" && r.speedup < 2.0) {
            std::fprintf(stderr,
                         "FAIL: medium workload speedup %.2fx < 2x\n",
                         r.speedup);
            ++failures;
        }
    }
    for (const NumericRow &r : numeric) {
        if (std::string(r.family) == "medium" && r.speedup < 2.0) {
            std::fprintf(stderr,
                         "FAIL: numeric medium speedup %.2fx < 2x\n",
                         r.speedup);
            ++failures;
        }
    }
    if (failures == 0)
        std::printf("hot-path check: %zu workload(s) steady-state "
                    "allocation-free (dynamic check of the misam-lint "
                    "hot-path-alloc regions)\n",
                    rows.size());
    return failures == 0 ? 0 : 1;
}

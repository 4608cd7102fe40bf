/**
 * @file
 * misam — command-line front end to the framework.
 *
 * Subcommands:
 *   train     --out FILE [--samples N] [--seed S] [--energy-weight W]
 *             Synthesize a training set, train selector + latency
 *             model, and persist the framework.
 *   predict   --model FILE --matrix A.mtx
 *             [--b B.mtx | --dense-cols N | --self]
 *             [--metrics OUT.jsonl]
 *             Load a trained framework and report the full decision
 *             pipeline for the workload.
 *   analyze   --matrix A.mtx [--b B.mtx | --dense-cols N | --self]
 *             Print the paper's feature set for a workload.
 *   simulate  --matrix A.mtx [--b B.mtx | --dense-cols N | --self]
 *             [--metrics OUT.jsonl]
 *             Run all four design simulators and print the comparison.
 *             --metrics appends a JSONL event trace (see
 *             docs/OBSERVABILITY.md for the schema).
 *   dataset   --out FILE.csv [--samples N] [--seed S]
 *             Export (features, per-design latency, label) rows as CSV
 *             for external ML experimentation.
 *   detail    --matrix A.mtx [--design 1..4] [B flags]
 *             Per-tile phase breakdown (ch_A / ch_B / compute bound)
 *             of one design's execution; defaults to the fastest.
 *   serve     --model FILE --jobs FILE.jsonl [--threads N] [--queue N]
 *             [--window N] [--schedule admission|lookahead] [--prewarm]
 *             [--gather] [--boards N] [--route affinity|least-loaded]
 *             [--metrics OUT.jsonl]
 *             Replay a JSONL job file (see serve/jobfile.hh for the
 *             schema) through MisamServer with a content-addressed
 *             operand cache; prints per-job results plus serve.* /
 *             cache.* counters. --schedule lookahead groups each window
 *             by decided design to coalesce bitstream loads; --prewarm
 *             overlaps the next group's load with execution (partial
 *             reconfig mode); --gather waits for full windows so the
 *             grouping statistics are run-to-run deterministic.
 *             --boards N (> 1) serves through the FleetRouter instead:
 *             N board workers with --route placement (default
 *             affinity — resident/shared bitstreams first), printing
 *             per-board totals plus fleet makespan and queueing-wait
 *             percentiles. Per-job results are identical for every
 *             schedule, route, and board count.
 *
 * Flags accept both "--flag value" and "--flag=value".
 *
 * Matrices are Matrix Market files; B defaults to --self (A x A).
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <string>

#include "core/misam.hh"
#include "core/persistence.hh"
#include "serve/fleet.hh"
#include "serve/jobfile.hh"
#include "serve/server.hh"
#include "serve/summary_cache.hh"
#include "sim/design_sim.hh"
#include "sim/workspace.hh"
#include "sparse/generate.hh"
#include "sparse/convert.hh"
#include "sparse/io.hh"
#include "util/logging.hh"
#include "util/metrics.hh"
#include "util/simd.hh"
#include "util/table.hh"
#include "workloads/training_data.hh"

using namespace misam;

namespace {

/** Minimal --flag value parser; accepts "--flag v" and "--flag=v". */
class Args
{
  public:
    Args(int argc, char **argv) : argc_(argc), argv_(argv) {}

    std::optional<std::string>
    value(const char *flag) const
    {
        const std::string prefix = std::string(flag) + "=";
        for (int i = 2; i < argc_; ++i) {
            if (std::strncmp(argv_[i], prefix.c_str(),
                             prefix.size()) == 0)
                return std::string(argv_[i] + prefix.size());
            if (std::strcmp(argv_[i], flag) == 0 && i + 1 < argc_)
                return std::string(argv_[i + 1]);
        }
        return std::nullopt;
    }

    bool
    has(const char *flag) const
    {
        for (int i = 2; i < argc_; ++i)
            if (std::strcmp(argv_[i], flag) == 0)
                return true;
        return false;
    }

    std::string
    require(const char *flag) const
    {
        auto v = value(flag);
        if (!v)
            fatal("missing required flag ", flag);
        return *v;
    }

    std::size_t
    sizeOr(const char *flag, std::size_t fallback) const
    {
        auto v = value(flag);
        return v ? std::strtoull(v->c_str(), nullptr, 10) : fallback;
    }

    double
    doubleOr(const char *flag, double fallback) const
    {
        auto v = value(flag);
        return v ? std::strtod(v->c_str(), nullptr) : fallback;
    }

  private:
    int argc_;
    char **argv_;
};

/** Resolve the (A, B) pair from the matrix flags. */
std::pair<CsrMatrix, CsrMatrix>
loadWorkload(const Args &args)
{
    const CsrMatrix a =
        cooToCsr(readMatrixMarketFile(args.require("--matrix")));
    if (auto b_path = args.value("--b"))
        return {a, cooToCsr(readMatrixMarketFile(*b_path))};
    if (auto cols = args.value("--dense-cols")) {
        Rng rng(1);
        const auto n = static_cast<Index>(
            std::strtoul(cols->c_str(), nullptr, 10));
        requireDenseCsrFits(a.cols(), n, "--dense-cols");
        return {a, generateDenseCsr(a.cols(), n, rng)};
    }
    if (a.rows() != a.cols())
        fatal("--self needs a square matrix; pass --b or --dense-cols");
    return {a, a};
}

int
cmdTrain(const Args &args)
{
    const std::string out = args.require("--out");
    const std::size_t n = args.sizeOr("--samples", 600);
    const auto seed = static_cast<std::uint64_t>(
        args.sizeOr("--seed", 7));
    const double energy_w = args.doubleOr("--energy-weight", 0.0);

    std::printf("generating %zu training samples (seed %llu)...\n", n,
                static_cast<unsigned long long>(seed));
    const auto samples =
        generateTrainingSamples({.num_samples = n, .seed = seed});

    MisamConfig config;
    config.objective = Objective::weighted(1.0 - energy_w, energy_w);
    MisamFramework misam(config);
    const TrainingReport report = misam.train(samples);

    std::printf("selector: accuracy %.1f%% (cv %.1f%%), %zu nodes, %zu "
                "bytes\n",
                report.selector_accuracy * 100,
                report.selector_cv_accuracy * 100, report.selector_nodes,
                report.selector_size_bytes);
    std::printf("latency model: MAE(log2) %.3f, R^2 %.3f\n",
                report.latency_mae_log2, report.latency_r2);
    saveFrameworkFile(out, misam);
    std::printf("framework saved to %s\n", out.c_str());
    return 0;
}

int
cmdPredict(const Args &args)
{
    MisamFramework misam = loadFrameworkFile(args.require("--model"));
    auto [a, b] = loadWorkload(args);

    MetricsRegistry registry;
    const ScopedSimKernelMetrics kernel_metrics(
        args.has("--metrics") ? &registry : nullptr);
    const simd::ScopedSimdMetrics simd_metrics(
        args.has("--metrics") ? &registry : nullptr);
    if (args.has("--metrics"))
        misam.setMetrics(&registry);
    ExecutionReport rep = misam.execute(a, b);
    TextTable table({"Stage", "Result"});
    table.addRow({"workload", std::to_string(a.rows()) + "x" +
                                  std::to_string(a.cols()) + " * " +
                                  std::to_string(b.rows()) + "x" +
                                  std::to_string(b.cols())});
    table.addRow({"predicted design", designName(rep.predicted)});
    table.addRow({"engine choice",
                  std::string(designName(rep.decision.chosen)) +
                      (rep.decision.reconfigure ? " (reconfigure)"
                                                : " (keep bitstream)")});
    table.addRow({"modeled exec",
                  formatDouble(rep.sim.exec_seconds * 1e3, 4) + " ms"});
    table.addRow({"PE utilization",
                  formatPercent(rep.sim.pe_utilization, 1)});
    table.addRow({"modeled energy",
                  formatDouble(rep.sim.energy_joules * 1e3, 3) + " mJ"});
    table.addRow({"host overhead",
                  formatDouble((rep.breakdown.preprocess_s +
                                rep.breakdown.inference_s +
                                rep.breakdown.engine_s) *
                                   1e3,
                               3) +
                      " ms"});
    std::printf("%s", table.render().c_str());

    if (auto metrics_path = args.value("--metrics")) {
        MetricsSink sink(*metrics_path);
        sink.event("run",
                   {{"cmd", "predict"},
                    {"rows", static_cast<std::uint64_t>(a.rows())},
                    {"cols", static_cast<std::uint64_t>(a.cols())},
                    {"b_cols", static_cast<std::uint64_t>(b.cols())},
                    {"nnz", static_cast<std::uint64_t>(a.nnz())}});
        sink.event("decision",
                   {{"predicted", designName(rep.predicted)},
                    {"chosen", designName(rep.decision.chosen)},
                    {"reconfigure", rep.decision.reconfigure ? 1 : 0},
                    {"overhead_s", rep.decision.overhead_s},
                    {"expected_gain_s", rep.decision.expected_gain_s}});
        emitSimEvents(sink, rep.sim);
        sink.emitRegistry(registry);
        std::printf("metrics trace written to %s (%llu events)\n",
                    metrics_path->c_str(),
                    static_cast<unsigned long long>(sink.eventCount()));
    }
    return 0;
}

int
cmdAnalyze(const Args &args)
{
    auto [a, b] = loadWorkload(args);
    const FeatureVector f = extractFeatures(a, b);
    TextTable table({"Feature", "Value"});
    for (std::size_t i = 0; i < kNumFeatures; ++i)
        table.addRow({featureName(i), formatScientific(f.values[i], 4)});
    std::printf("%s", table.render().c_str());
    return 0;
}

int
cmdSimulate(const Args &args)
{
    MetricsRegistry registry;
    const ScopedSimKernelMetrics kernel_metrics(&registry);
    const simd::ScopedSimdMetrics simd_metrics(&registry);
    ScopedTimer load_timer(registry, "phase.load");
    auto [a, b] = loadWorkload(args);
    load_timer.stop();

    ScopedTimer sim_timer(registry, "phase.simulate");
    const auto sims = simulateAllDesigns(a, b);
    sim_timer.stop();

    TextTable table({"Design", "Cycles", "Exec (ms)", "PE util",
                     "Energy (mJ)", "Tiles"});
    for (const SimResult &r : sims) {
        table.addRow({designName(r.design),
                      formatCount(static_cast<std::uint64_t>(
                          r.total_cycles)),
                      formatDouble(r.exec_seconds * 1e3, 4),
                      formatPercent(r.pe_utilization, 1),
                      formatDouble(r.energy_joules * 1e3, 3),
                      std::to_string(r.num_tiles)});
    }
    std::printf("%s", table.render().c_str());
    std::printf("fastest: %s\n", designName(fastestDesign(sims)));

    if (auto metrics_path = args.value("--metrics")) {
        for (const SimResult &r : sims)
            recordSimMetrics(registry, r);
        MetricsSink sink(*metrics_path);
        sink.event("run",
                   {{"cmd", "simulate"},
                    {"rows", static_cast<std::uint64_t>(a.rows())},
                    {"cols", static_cast<std::uint64_t>(a.cols())},
                    {"b_cols", static_cast<std::uint64_t>(b.cols())},
                    {"nnz", static_cast<std::uint64_t>(a.nnz())}});
        for (const SimResult &r : sims)
            emitSimEvents(sink, r);
        sink.emitRegistry(registry);
        std::printf("metrics trace written to %s (%llu events)\n",
                    metrics_path->c_str(),
                    static_cast<unsigned long long>(sink.eventCount()));
    }
    return 0;
}

int
cmdDetail(const Args &args)
{
    auto [a, b] = loadWorkload(args);
    const auto design = args.value("--design");
    const DesignId id =
        design ? static_cast<DesignId>(
                     std::strtol(design->c_str(), nullptr, 10) - 1)
               : fastestDesign(simulateAllDesigns(a, b));
    if (static_cast<int>(id) < 0 ||
        static_cast<int>(id) >= static_cast<int>(kNumDesigns))
        fatal("--design must be 1..4");

    const DetailedSimResult detailed =
        simulateDesignDetailed(designConfig(id), a, b);
    std::printf("%s: %d tiles, %.4f ms total\n", designName(id),
                detailed.summary.num_tiles,
                detailed.summary.exec_seconds * 1e3);
    TextTable table({"Tile (B rows)", "A nnz", "read A", "read B",
                     "compute", "bound by", "PE util"});
    for (const TileBreakdown &t : detailed.tiles) {
        const char *bound =
            t.bottleneckCycles() == t.compute_cycles ? "compute"
            : t.bottleneckCycles() == t.read_b_cycles ? "ch_B"
                                                      : "ch_A";
        // Built with append rather than an operator+ chain: GCC 12's
        // -Wrestrict misfires on the inlined temporary chain.
        std::string range = "[";
        range += std::to_string(t.k_range.k_lo);
        range += ",";
        range += std::to_string(t.k_range.k_hi);
        range += ")";
        table.addRow({range, formatCount(t.a_elements),
                      formatCount(t.read_a_cycles),
                      formatCount(t.read_b_cycles),
                      formatCount(t.compute_cycles), bound,
                      formatPercent(t.pe_utilization, 1)});
    }
    std::printf("%s", table.render().c_str());
    return 0;
}

int
cmdDataset(const Args &args)
{
    const std::string out = args.require("--out");
    const std::size_t n = args.sizeOr("--samples", 600);
    const auto seed = static_cast<std::uint64_t>(
        args.sizeOr("--seed", 7));

    std::printf("generating %zu samples...\n", n);
    const auto samples =
        generateTrainingSamples({.num_samples = n, .seed = seed});

    std::ofstream csv(out);
    if (!csv)
        fatal("cannot create ", out);
    for (std::size_t i = 0; i < kNumFeatures; ++i)
        csv << featureName(i) << ',';
    csv << "latency_d1,latency_d2,latency_d3,latency_d4,best_design\n";
    for (const TrainingSample &s : samples) {
        for (double v : s.features.values)
            csv << v << ',';
        for (const SimResult &r : s.results)
            csv << r.exec_seconds << ',';
        csv << s.best_design << '\n';
    }
    std::printf("wrote %zu rows to %s\n", samples.size(), out.c_str());
    return 0;
}

int
cmdServe(const Args &args)
{
    MisamFramework misam = loadFrameworkFile(args.require("--model"));
    std::vector<BatchJob> jobs = loadJobFile(args.require("--jobs"));
    if (jobs.empty())
        fatal("serve: job file has no jobs");

    MetricsRegistry registry;
    const ScopedSimKernelMetrics kernel_metrics(&registry);
    const simd::ScopedSimdMetrics simd_metrics(&registry);
    misam.setMetrics(&registry);

    SummaryCache cache;
    cache.setMetrics(&registry);
    misam.setSummaryCache(&cache);

    ServeConfig serve_config;
    serve_config.queue_capacity = args.sizeOr("--queue", 64);
    serve_config.window = args.sizeOr("--window", 16);
    serve_config.threads =
        static_cast<unsigned>(args.sizeOr("--threads", 0));
    if (auto schedule = args.value("--schedule")) {
        if (*schedule == "admission")
            serve_config.schedule = SchedulePolicy::AdmissionOrder;
        else if (*schedule == "lookahead")
            serve_config.schedule = SchedulePolicy::Lookahead;
        else
            fatal("--schedule must be admission or lookahead");
    }
    serve_config.prewarm = args.has("--prewarm");
    serve_config.gather = args.has("--gather");

    const std::size_t num_jobs = jobs.size();
    // The sink is opened before serving so the dispatcher can stream
    // sched.window / sched.group events as lookahead windows execute.
    std::unique_ptr<MetricsSink> sink;
    const auto metrics_path = args.value("--metrics");
    if (metrics_path) {
        sink = std::make_unique<MetricsSink>(*metrics_path);
        sink->event("run",
                    {{"cmd", "serve"},
                     {"jobs", static_cast<std::uint64_t>(num_jobs)},
                     {"threads", static_cast<std::uint64_t>(
                                     serve_config.threads)},
                     {"schedule",
                      schedulePolicyName(serve_config.schedule)},
                     {"prewarm", serve_config.prewarm ? 1 : 0}});
    }
    const std::size_t boards = args.sizeOr("--boards", 1);
    BatchReport report;
    ScheduleStats sched_stats;
    std::vector<FleetRouter::BoardTotals> board_totals;
    std::vector<double> waits;
    double makespan_s = 0.0;
    if (boards > 1) {
        FleetConfig fleet_config;
        fleet_config.boards = boards;
        if (auto route = args.value("--route"))
            fleet_config.route = parseRoutePolicy(*route);
        fleet_config.queue_capacity = serve_config.queue_capacity;
        fleet_config.window = serve_config.window;
        fleet_config.threads = serve_config.threads;
        fleet_config.gather = serve_config.gather;
        FleetRouter fleet(misam, fleet_config);
        fleet.setMetrics(&registry);
        if (sink)
            fleet.setTraceSink(sink.get());
        report = fleet.serveAll(std::move(jobs));
        board_totals = fleet.boardTotals();
        makespan_s = fleet.makespanSeconds();
        for (const FleetRouter::Placement &p : fleet.placements())
            waits.push_back(p.wait_s);
        std::printf("served %zu jobs across %zu boards (queue high "
                    "water %zu, route %s)\n",
                    fleet.completed(), boards, fleet.queueHighWater(),
                    routePolicyName(fleet_config.route));
    } else {
        MisamServer server(misam, serve_config);
        server.setMetrics(&registry);
        if (sink)
            server.setTraceSink(sink.get());
        report = server.serveAll(std::move(jobs));
        sched_stats = server.scheduleStats();
        std::printf("served %zu jobs (queue high water %zu, "
                    "schedule %s%s)\n",
                    server.completed(), server.queueHighWater(),
                    schedulePolicyName(serve_config.schedule),
                    serve_config.prewarm ? "+prewarm" : "");
    }
    misam.setSummaryCache(nullptr);

    TextTable table({"Job", "Predicted", "Ran on", "Switch",
                     "Exec total (ms)"});
    for (const ExecutionReport &r : report.jobs) {
        table.addRow({r.name, designName(r.predicted),
                      designName(r.decision.chosen),
                      r.decision.reconfigure
                          ? formatDouble(r.decision.overhead_s, 2) + "s"
                          : "-",
                      formatDouble(r.breakdown.execute_s * 1e3, 2)});
    }
    std::printf("%s", table.render().c_str());
    std::printf("batch summary: exec %.3f s, switches %d paid "
                "(%.3f s) + %d free, host %.3f ms\n",
                report.total_execute_s, report.reconfigurations,
                report.total_reconfig_s, report.free_switches,
                report.total_host_s * 1e3);
    if (boards > 1) {
        TextTable fleet_table({"Board", "Routed", "Paid loads",
                               "Free moves", "Busy (s)", "Resident"});
        for (std::size_t b = 0; b < board_totals.size(); ++b) {
            const FleetRouter::BoardTotals &t = board_totals[b];
            fleet_table.addRow({std::to_string(b),
                                std::to_string(t.routed),
                                std::to_string(t.paid_loads),
                                std::to_string(t.free_moves),
                                formatDouble(t.busy_s, 3),
                                designName(t.resident)});
        }
        std::printf("%s", fleet_table.render().c_str());
        std::printf("fleet: makespan %.3f s, queue wait p50 %.3f s / "
                    "p99 %.3f s (logical time)\n",
                    makespan_s, waitPercentileSeconds(waits, 50.0),
                    waitPercentileSeconds(waits, 99.0));
    }
    if (boards == 1 &&
        serve_config.schedule == SchedulePolicy::Lookahead) {
        std::printf(
            "lookahead: %zu windows, %zu groups, %zu jobs reordered; "
            "%d chain switches -> %d paid loads (%.3f s); "
            "prewarm hid %.3f s, %.3f s exposed\n",
            sched_stats.windows, sched_stats.groups,
            sched_stats.reordered_jobs, sched_stats.planned_reconfigs,
            sched_stats.paid_loads, sched_stats.paid_reconfig_s,
            sched_stats.overlapped_reconfig_s,
            sched_stats.exposed_reconfig_s);
    }
    std::printf("operand cache: %llu summary hits, %llu misses, "
                "%llu bytes of rescans saved\n",
                static_cast<unsigned long long>(cache.summaryHits()),
                static_cast<unsigned long long>(cache.summaryMisses()),
                static_cast<unsigned long long>(
                    cache.summaryBytesSaved()));

    if (sink) {
        for (const ExecutionReport &r : report.jobs) {
            sink->event("serve.job",
                        {{"name", r.name},
                         {"predicted", designName(r.predicted)},
                         {"chosen", designName(r.decision.chosen)},
                         {"reconfigure", r.decision.reconfigure ? 1 : 0},
                         {"repetitions", r.repetitions},
                         {"execute_s", r.breakdown.execute_s}});
        }
        sink->emitRegistry(registry);
        std::printf("metrics trace written to %s (%llu events)\n",
                    metrics_path->c_str(),
                    static_cast<unsigned long long>(sink->eventCount()));
    }
    return 0;
}

void
usage()
{
    std::fprintf(
        stderr,
        "usage: misam <train|predict|analyze|simulate|dataset|detail|"
        "serve> [flags]\n"
        "  train    --out FILE [--samples N] [--seed S] "
        "[--energy-weight W]\n"
        "  predict  --model FILE --matrix A.mtx [--b B.mtx | "
        "--dense-cols N | --self] [--metrics OUT.jsonl]\n"
        "  analyze  --matrix A.mtx [--b B.mtx | --dense-cols N | "
        "--self]\n"
        "  simulate --matrix A.mtx [--b B.mtx | --dense-cols N | "
        "--self] [--metrics OUT.jsonl]\n"
        "  dataset  --out FILE.csv [--samples N] [--seed S]\n"
        "  detail   --matrix A.mtx [--design 1..4] [B flags]\n"
        "  serve    --model FILE --jobs FILE.jsonl [--threads N] "
        "[--queue N] [--window N]\n"
        "           [--schedule admission|lookahead] [--prewarm] "
        "[--gather]\n"
        "           [--boards N] [--route affinity|least-loaded]\n"
        "           [--metrics OUT.jsonl]\n");
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage();
        return 2;
    }
    const Args args(argc, argv);
    const std::string cmd = argv[1];
    if (cmd == "train")
        return cmdTrain(args);
    if (cmd == "predict")
        return cmdPredict(args);
    if (cmd == "analyze")
        return cmdAnalyze(args);
    if (cmd == "simulate")
        return cmdSimulate(args);
    if (cmd == "dataset")
        return cmdDataset(args);
    if (cmd == "detail")
        return cmdDetail(args);
    if (cmd == "serve")
        return cmdServe(args);
    usage();
    return 2;
}

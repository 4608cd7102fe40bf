#include "pipeline.hh"

#include <algorithm>
#include <filesystem>
#include <memory>

#include "features/features.hh"
#include "serve/fleet.hh"
#include "serve/jobfile.hh"
#include "serve/lookahead.hh"
#include "serve/server.hh"
#include "serve/summary_cache.hh"
#include "sim/design.hh"
#include "sim/workspace.hh"
#include "sparse/convert.hh"
#include "sparse/fingerprint.hh"
#include "sparse/io.hh"
#include "util/metrics.hh"

namespace perfbench {

using namespace misam;

namespace {

SimKernelCounters
memoDelta(const SimKernelCounters &before, const SimKernelCounters &after)
{
    SimKernelCounters d;
    d.symbolic_hits = after.symbolic_hits - before.symbolic_hits;
    d.symbolic_misses = after.symbolic_misses - before.symbolic_misses;
    d.csc_hits = after.csc_hits - before.csc_hits;
    d.csc_misses = after.csc_misses - before.csc_misses;
    d.hist_hits = after.hist_hits - before.hist_hits;
    d.hist_misses = after.hist_misses - before.hist_misses;
    return d;
}

JobOutcome
outcomeOf(const ExecutionReport &rep)
{
    JobOutcome out;
    out.name = rep.name;
    out.predicted = rep.predicted;
    out.chosen = rep.decision.chosen;
    out.reconfigure = rep.decision.reconfigure;
    out.free_switch = rep.decision.free_switch;
    out.cycles = rep.sim.total_cycles;
    out.exec_s = rep.sim.exec_seconds;
    out.execute_s = rep.breakdown.execute_s;
    out.reconfig_s = rep.breakdown.reconfig_s;
    return out;
}

/** Per-job outcomes and chain totals of a report, in admission order. */
void
recordReport(RunOutcome &out, const std::vector<ExecutionReport> &jobs)
{
    for (const ExecutionReport &rep : jobs) {
        out.jobs.push_back(outcomeOf(rep));
        out.total_execute_s += rep.breakdown.execute_s;
        out.chain_reconfigs += rep.decision.reconfigure ? 1 : 0;
        out.free_switches += rep.decision.free_switch ? 1 : 0;
    }
}

/** The fields `misam serve --metrics` writes for every job. */
void
emitJob(MetricsSink &sink, const ExecutionReport &r)
{
    sink.event("serve.job",
               {{"name", r.name},
                {"predicted", designName(r.predicted)},
                {"chosen", designName(r.decision.chosen)},
                {"reconfigure", r.decision.reconfigure ? 1 : 0},
                {"repetitions", r.repetitions},
                {"execute_s", r.breakdown.execute_s}});
}

ServeConfig
serverConfig(const ServeShape &shape)
{
    ServeConfig config;
    config.queue_capacity = shape.queue;
    config.window = shape.window;
    config.threads = shape.threads;
    config.schedule = SchedulePolicy::Lookahead;
    config.gather = true;
    return config;
}

FleetConfig
fleetConfig(const ServeShape &shape)
{
    FleetConfig config;
    config.boards = shape.boards;
    config.route = RoutePolicy::Affinity;
    config.queue_capacity = shape.queue;
    config.window = shape.window;
    config.board_capacity = shape.board_capacity;
    config.threads = shape.threads;
    config.gather = true;
    return config;
}

/**
 * Fingerprint, summarize, combine, predict and decide one job: the
 * serial equivalent of MisamFramework::extractJobFeatures followed by
 * decideJob, split into one span per call.
 */
void
featuresAndDecision(MisamFramework &framework, SummaryCache &cache,
                    ExecutionReport &rep, const BatchJob &job,
                    std::int64_t id, Tracer &tracer, RunOutcome &out)
{
    rep.name = job.name;
    {
        // Summary lookups key on the content fingerprint; computing it
        // here parks it in the operand, so the summary span below
        // measures the cache and the summarizer alone.
        const Span span(tracer, "sparse.fingerprint", id);
        (void)fingerprintMatrix(job.a);
        (void)fingerprintMatrix(job.b);
    }
    out.fingerprint_nnz += job.a.nnz() + job.b.nnz();
    std::shared_ptr<const MatrixFeatureSummary> sa, sb;
    {
        const Span span(tracer, "features.summary", id);
        sa = cache.summary(job.a);
        sb = cache.summary(job.b);
    }
    {
        const Span span(tracer, "features.combine", id);
        rep.features = combineFeatures(*sa, *sb);
    }
    {
        const Span span(tracer, "ml.predict", id);
        rep.predicted = framework.predictDesign(rep.features);
    }
    {
        const Span span(tracer, "reconfig.decide", id);
        rep.decision = framework.engine().decide(
            rep.features, rep.predicted, job.repetitions);
    }
}

/**
 * Simulate one decided job: the serial equivalent of simulateJob with
 * the CSC conversion and (for compressed-B designs) the symbolic pass
 * hoisted into spans of their own. simulateJob then finds both in the
 * caches, exactly as the served path does on its second lookup.
 */
void
simulate(MisamFramework &framework, SummaryCache &cache,
         ExecutionReport &rep, const BatchJob &job, std::int64_t id,
         Tracer &tracer)
{
    {
        const Span span(tracer, "sparse.csc", id);
        (void)cache.csc(job.a);
    }
    if (designConfig(rep.decision.chosen).format_b !=
            FormatB::Uncompressed &&
        !useReferenceSimKernels()) {
        const Span span(tracer, "sim.symbolic", id);
        (void)cachedSpgemmSymbolic(job.a, job.b);
    }
    const Span span(tracer, "sim.simulate", id);
    framework.simulateJob(rep, job.a, job.b, job.repetitions);
}

/** The MisamServer dispatcher, window by window, serially. */
std::vector<ExecutionReport>
composeServer(MisamFramework &framework, SummaryCache &cache,
              const ServeShape &shape, const std::vector<BatchJob> &jobs,
              Tracer &tracer, RunOutcome &out)
{
    const ReconfigTimeModel &time_model =
        framework.engine().config().time_model;
    DesignId resident = framework.engine().currentDesign();
    std::vector<ExecutionReport> reports(jobs.size());
    out.places.resize(jobs.size());
    ScheduleStats stats;
    double clock_s = 0.0;
    for (std::size_t base = 0; base < jobs.size(); base += shape.window) {
        const std::size_t n = std::min(shape.window, jobs.size() - base);
        std::vector<ReconfigDecision> decisions(n);
        for (std::size_t i = 0; i < n; ++i) {
            featuresAndDecision(framework, cache, reports[base + i],
                                jobs[base + i],
                                static_cast<std::int64_t>(base + i),
                                tracer, out);
            decisions[i] = reports[base + i].decision;
        }
        WindowPlan plan;
        {
            const Span span(tracer, "serve.plan");
            plan = planLookaheadWindow(decisions, resident, time_model);
        }
        std::vector<double> group_execute_s(plan.groups.size(), 0.0);
        for (std::size_t g = 0; g < plan.groups.size(); ++g) {
            // Every job arrives at time 0; a group pays its load up
            // front and its jobs then run back to back.
            clock_s += plan.groups[g].load_seconds;
            for (std::size_t k = 0; k < plan.groups[g].jobs.size(); ++k) {
                const std::size_t j = base + plan.groups[g].jobs[k];
                simulate(framework, cache, reports[j], jobs[j],
                         static_cast<std::int64_t>(j), tracer);
                const double execute_s = reports[j].breakdown.execute_s;
                group_execute_s[g] += execute_s;
                Placement &place = out.places[j];
                place.affine = k > 0 || !plan.groups[g].loads_bitstream;
                place.start_s = clock_s;
                place.wait_s = clock_s;
                clock_s += execute_s;
                place.finish_s = clock_s;
            }
        }
        stats.accumulate(plan, accountLookaheadWindow(
                                   plan, group_execute_s, time_model,
                                   /*prewarm=*/false));
        for (const std::size_t j : plan.order)
            out.execution_order.push_back(base + j);
        resident = plan.resident_after;
    }
    out.has_places = true;
    out.paid_loads = stats.paid_loads;
    out.makespan_s = stats.makespanSeconds();
    out.reordered_jobs = stats.reordered_jobs;
    return reports;
}

/**
 * Emit every result as a `serve.job` event to `path`; returns the
 * bytes written.
 */
std::uint64_t
emitResults(const std::string &path,
            const std::vector<ExecutionReport> &reports, Tracer &tracer)
{
    {
        MetricsSink sink(path);
        for (std::size_t i = 0; i < reports.size(); ++i) {
            const Span span(tracer, "util.emit",
                            static_cast<std::int64_t>(i));
            emitJob(sink, reports[i]);
        }
    }
    return std::filesystem::file_size(path);
}

} // namespace

void
resetServingState(MisamFramework &framework)
{
    clearSymbolicCache();
    clearCscCache();
    clearNumericCache();
    clearHistogramCache();
    framework.engine().setCurrentDesign(kInitialDesign);
}

RunOutcome
serveJobFile(MisamFramework &framework, const ServeShape &shape,
             const std::string &job_file, const std::string &emit_path)
{
    RunOutcome out;
    SummaryCache cache;
    framework.setSummaryCache(&cache);
    const SimKernelCounters before = simKernelCounters();
    {
        MisamServer server(framework, serverConfig(shape));
        const double t0 = nowSeconds();
        for (const ServeJobSpec &spec : parseJobFile(job_file))
            (void)server.submit(loadServeJob(spec));
        server.drain();
        const BatchReport report = server.report();
        {
            MetricsSink sink(emit_path);
            for (const ExecutionReport &rep : report.jobs)
                emitJob(sink, rep);
        }
        out.wall_s = nowSeconds() - t0;

        recordReport(out, report.jobs);
        out.admitted = server.admitted();
        out.completed = server.completed();
        out.rejected = server.rejected().size();
        out.execution_order = server.executionOrder();
        const ScheduleStats stats = server.scheduleStats();
        out.paid_loads = stats.paid_loads;
        out.makespan_s = stats.makespanSeconds();
        out.reordered_jobs = stats.reordered_jobs;
        out.queue_high_water = server.queueHighWater();
    }
    out.memo = memoDelta(before, simKernelCounters());
    out.summary_hits = cache.summaryHits();
    out.summary_misses = cache.summaryMisses();
    framework.setSummaryCache(nullptr);
    return out;
}

RunOutcome
serveFleet(MisamFramework &framework, const ServeShape &shape,
           Arrivals traffic)
{
    RunOutcome out;
    SummaryCache cache;
    framework.setSummaryCache(&cache);
    const SimKernelCounters before = simKernelCounters();
    {
        FleetRouter fleet(framework, fleetConfig(shape));
        const double t0 = nowSeconds();
        for (std::size_t i = 0; i < traffic.jobs.size(); ++i)
            (void)fleet.submit(std::move(traffic.jobs[i]),
                               traffic.arrival_s[i]);
        fleet.drain();
        const BatchReport report = fleet.report();
        out.wall_s = nowSeconds() - t0;

        recordReport(out, report.jobs);
        for (const FleetRouter::Placement &p : fleet.placements())
            out.places.push_back(
                {p.board, p.affine, p.start_s, p.wait_s, p.finish_s});
        out.has_places = true;
        out.admitted = fleet.admitted();
        out.completed = fleet.completed();
        out.rejected = fleet.rejected().size();
        for (const FleetRouter::BoardTotals &b : fleet.boardTotals()) {
            out.paid_loads += b.paid_loads;
            out.reordered_jobs += b.stats.reordered_jobs;
        }
        out.makespan_s = fleet.makespanSeconds();
        out.queue_high_water = fleet.queueHighWater();
    }
    out.memo = memoDelta(before, simKernelCounters());
    out.summary_hits = cache.summaryHits();
    out.summary_misses = cache.summaryMisses();
    framework.setSummaryCache(nullptr);
    return out;
}

RunOutcome
composeJobFile(MisamFramework &framework, const ServeShape &shape,
               const std::string &job_file, const std::string &emit_path,
               Tracer &tracer)
{
    RunOutcome out;
    SummaryCache cache;
    framework.setSummaryCache(&cache);
    const SimKernelCounters before = simKernelCounters();
    const std::uint64_t alloc_before =
        SimWorkspace::local().allocationEvents();
    const double t0 = nowSeconds();
    {
        const Span run(tracer, "run");
        std::vector<ServeJobSpec> specs;
        {
            const Span span(tracer, "serve.jobfile.parse");
            specs = parseJobFile(job_file);
        }
        // loadServeJob, call by call, for specs that name both operands.
        std::vector<BatchJob> jobs(specs.size());
        for (std::size_t i = 0; i < specs.size(); ++i) {
            const auto id = static_cast<std::int64_t>(i);
            jobs[i].name = specs[i].name;
            jobs[i].repetitions = specs[i].repetitions;
            for (const bool is_a : {true, false}) {
                const std::string &path =
                    is_a ? specs[i].a_path : specs[i].b_path;
                CooMatrix coo;
                {
                    const Span span(tracer, "sparse.io.read", id);
                    coo = readMatrixMarketFile(path);
                }
                out.bytes_read += std::filesystem::file_size(path);
                out.entries_read += coo.nnz();
                const Span span(tracer, "sparse.convert.coo_to_csr", id);
                (is_a ? jobs[i].a : jobs[i].b) = cooToCsr(std::move(coo));
            }
        }
        const std::vector<ExecutionReport> reports =
            composeServer(framework, cache, shape, jobs, tracer, out);
        out.emit_bytes = emitResults(emit_path, reports, tracer);
        recordReport(out, reports);
    }
    out.wall_s = nowSeconds() - t0;
    out.admitted = out.completed = out.jobs.size();
    out.memo = memoDelta(before, simKernelCounters());
    out.alloc_events =
        SimWorkspace::local().allocationEvents() - alloc_before;
    out.summary_hits = cache.summaryHits();
    out.summary_misses = cache.summaryMisses();
    framework.setSummaryCache(nullptr);
    return out;
}

RunOutcome
composeFleet(MisamFramework &framework, const ServeShape &shape,
             Arrivals traffic, Tracer &tracer)
{
    RunOutcome out;
    SummaryCache cache;
    framework.setSummaryCache(&cache);
    const SimKernelCounters before = simKernelCounters();
    const std::uint64_t alloc_before =
        SimWorkspace::local().allocationEvents();
    const ReconfigTimeModel &time_model =
        framework.engine().config().time_model;
    const std::vector<BatchJob> &jobs = traffic.jobs;
    std::vector<BoardState> boards(
        shape.boards, BoardState{framework.engine().currentDesign(), 0.0});
    std::vector<double> board_clock_s(shape.boards, 0.0);
    std::vector<ExecutionReport> reports(jobs.size());
    out.places.resize(jobs.size());
    const double t0 = nowSeconds();
    {
        const Span run(tracer, "run");
        for (std::size_t base = 0; base < jobs.size();
             base += shape.window) {
            const std::size_t n =
                std::min(shape.window, jobs.size() - base);
            std::vector<ReconfigDecision> decisions(n);
            for (std::size_t i = 0; i < n; ++i) {
                featuresAndDecision(framework, cache, reports[base + i],
                                    jobs[base + i],
                                    static_cast<std::int64_t>(base + i),
                                    tracer, out);
                decisions[i] = reports[base + i].decision;
            }
            FleetWindowPlan plan;
            {
                const Span span(tracer, "serve.plan");
                std::vector<double> est_latency_s(n);
                for (std::size_t i = 0; i < n; ++i)
                    est_latency_s[i] =
                        framework.engine().predictLatencySeconds(
                            reports[base + i].features,
                            decisions[i].chosen) *
                        jobs[base + i].repetitions;
                const std::vector<double> arrival_s(
                    traffic.arrival_s.begin() +
                        static_cast<std::ptrdiff_t>(base),
                    traffic.arrival_s.begin() +
                        static_cast<std::ptrdiff_t>(base + n));
                plan = planFleetWindow(decisions, est_latency_s, arrival_s,
                                       RoutePolicy::Affinity, time_model,
                                       shape.board_capacity, boards);
            }
            // Each board runs its slice in planned group order on its
            // own logical clock, as FleetRouter's board workers do.
            for (std::size_t b = 0; b < shape.boards; ++b) {
                const WindowPlan &bp = plan.board_plans[b];
                double &clock_s = board_clock_s[b];
                for (const LookaheadGroup &group : bp.groups) {
                    clock_s += group.load_seconds;
                    for (const std::size_t k : group.jobs) {
                        const std::size_t j = base + plan.board_jobs[b][k];
                        simulate(framework, cache, reports[j], jobs[j],
                                 static_cast<std::int64_t>(j), tracer);
                        Placement &place = out.places[j];
                        place.board = b;
                        place.affine = plan.routes[j - base].affine;
                        place.start_s =
                            std::max(traffic.arrival_s[j], clock_s);
                        place.wait_s = place.start_s - traffic.arrival_s[j];
                        clock_s =
                            place.start_s + reports[j].breakdown.execute_s;
                        place.finish_s = clock_s;
                    }
                }
                out.reordered_jobs += bp.reordered_jobs;
            }
            out.paid_loads += plan.paid_loads;
        }
        recordReport(out, reports);
    }
    out.wall_s = nowSeconds() - t0;
    out.has_places = true;
    out.makespan_s =
        *std::max_element(board_clock_s.begin(), board_clock_s.end());
    out.admitted = out.completed = out.jobs.size();
    out.memo = memoDelta(before, simKernelCounters());
    out.alloc_events =
        SimWorkspace::local().allocationEvents() - alloc_before;
    out.summary_hits = cache.summaryHits();
    out.summary_misses = cache.summaryMisses();
    framework.setSummaryCache(nullptr);
    return out;
}

std::size_t
countMismatches(const RunOutcome &served, const RunOutcome &reference,
                std::string &why)
{
    std::size_t bad = 0;
    auto note = [&](const std::string &what) {
        if (why.empty())
            why = what;
    };
    const std::size_t n = std::min(served.jobs.size(), reference.jobs.size());
    if (served.jobs.size() != reference.jobs.size()) {
        bad += std::max(served.jobs.size(), reference.jobs.size()) - n;
        note("served " + std::to_string(served.jobs.size()) +
             " jobs, reference " + std::to_string(reference.jobs.size()));
    }
    for (std::size_t i = 0; i < n; ++i) {
        const bool job_ok = served.jobs[i] == reference.jobs[i];
        const bool place_ok = !served.has_places ||
                              (i < served.places.size() &&
                               served.places[i] == reference.places[i]);
        if (!job_ok || !place_ok) {
            ++bad;
            note("job " + std::to_string(i) + " (" +
                 reference.jobs[i].name + ") " +
                 (job_ok ? "placement" : "result") +
                 " differs from the serial composition");
        }
    }
    if (served.admitted != served.completed + served.rejected ||
        served.rejected != 0) {
        bad += std::max<std::size_t>(served.rejected, 1);
        note("admitted != completed + rejected, or jobs rejected");
    }
    // Schedule-level agreement; a server run's per-job timeline is the
    // reference's only when these hold.
    if ((!served.execution_order.empty() &&
         served.execution_order != reference.execution_order) ||
        served.paid_loads != reference.paid_loads ||
        served.makespan_s != reference.makespan_s ||
        served.reordered_jobs != reference.reordered_jobs) {
        bad = std::max<std::size_t>(bad, 1);
        note("schedule (order, paid loads, makespan) differs from the "
             "serial composition");
    }
    return bad;
}

} // namespace perfbench

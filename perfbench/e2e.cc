/**
 * @file
 * perfbench_e2e — end-to-end host wall-clock benchmark of misam serving.
 *
 *   perfbench_e2e --workload NAME --seed N --seconds T --trace 0|1
 *                 --workdir DIR [--spans FILE] [--size full|smoke]
 *
 * Workloads (closed-loop batch replays from one submitting thread that
 * the bounded admission queue back-pressures; two-tenant
 * defaultTenantMix() traffic with operand dimensions scaled up):
 *
 *   cli_replay  what `misam serve` does: parse a JSONL job file, read A
 *               and the tenant's B from Matrix Market for every line,
 *               serve through MisamServer, emit JSONL results.
 *   fleet_cold  library traffic to a 4-board FleetRouter; every job has
 *               a distinct A, so only the tenants' shared B repeats.
 *   fleet_warm  the same fleet and mix over a pool of 32 operand pairs;
 *               every job is a fresh object, so the memo caches hit
 *               but each operand is fingerprinted again.
 *
 * Set-up (training-set synthesis, training, traffic generation, Matrix
 * Market files) runs four times and `setup_s` is its median. Every
 * measured run starts cold: the four simulator memo caches are emptied,
 * a fresh SummaryCache is attached, and the engine is reset to its
 * initial bitstream. Runs repeat until --seconds have passed; host
 * times are medians over runs. Every thread of the process shares one
 * CPU (confineToOneCpu in trace.hh says why). Every host time is
 * reported in reference seconds: scaled by the host's speed, which a
 * probe kernel measures in the gaps between runs (hostspeed.hh).
 *
 * --trace 0 prints the end-to-end metrics; --trace 1 alternates a
 * traced serial composition (pipeline.hh) with an untraced run and
 * prints the per-layer metrics, writing the spans to --spans.
 * Every served run is checked against the serial composition job by
 * job; any difference counts as a failed job and the exit code is 1.
 * The last line of stdout is one JSON object:
 * {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
 */

#include <sys/resource.h>
#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/misam.hh"
#include "hostspeed.hh"
#include "pipeline.hh"
#include "serve/fleet.hh"
#include "serve/jobfile.hh"
#include "sim/design_sim.hh"
#include "sim/workspace.hh"
#include "sparse/io.hh"
#include "util/parallel.hh"
#include "trace.hh"
#include "workloads/traffic.hh"
#include "workloads/training_data.hh"

using namespace misam;
using namespace perfbench;

namespace {

/** One workload: what it serves and how. */
struct Workload
{
    const char *name;
    bool job_file;     ///< Replay a JSONL job file (else library calls).
    std::size_t jobs;  ///< Jobs per measured run.
    std::size_t pool;  ///< Distinct operand pairs (0: one per job).
    ServeShape shape;
    SpeedKernel speed;  ///< The kind of work its runs mostly do.
    double sensitivity; ///< How strongly run time follows that kernel.
};

/** Sizes that differ between a measured run and the smoke test. */
struct Size
{
    std::size_t cli_jobs;
    std::size_t fleet_jobs;
    std::size_t pool;
    Index scale;              ///< Multiplier on the mix's dimensions.
    std::size_t train_samples;
    std::size_t setup_repeats;
    std::size_t min_runs;
    double warmup_s; ///< Untimed served runs before measuring.
};

constexpr Size kFull{64, 512, 32, 2, 96, 4, 4, 1.0};
constexpr Size kSmoke{12, 24, 8, 1, 60, 1, 1, 0.0};

/** Training-set seed: the model is the same for every workload seed. */
constexpr std::uint64_t kTrainSeed = 33;

/** Mean logical gap between arrivals in the fleet traffic (seconds). */
constexpr double kMeanInterarrivalS = 1.0;

/**
 * Host-speed probing: the gap after a measured interval runs the probe
 * for this share of the interval's host time (and the first gap for
 * kFirstProbeS), so every interval is bracketed by a fresh sample.
 */
constexpr double kProbeShare = 0.25;
constexpr double kFirstProbeS = 0.05;

/** Set-up's sensitivity to the Sort kernel (slope ~1 on the reference host). */
constexpr double kSetupSensitivity = 1.0;

std::vector<Workload>
workloads(const Size &size)
{
    ServeShape cli;
    cli.threads = 1;
    cli.window = 8;
    cli.queue = 8;

    ServeShape fleet;
    fleet.boards = 4;
    fleet.threads = 4;
    fleet.window = 32;
    fleet.queue = 64;
    fleet.board_capacity = 8;

    // Sensitivities: slopes of log run time on log kernel time measured
    // on the reference host (hostspeed.hh): cli_replay 1.09-1.11,
    // fleet_cold 0.61-0.85, fleet_warm 0.35-0.59.
    return {{"cli_replay", true, size.cli_jobs, 0, cli, SpeedKernel::Text,
             1.0},
            {"fleet_cold", false, size.fleet_jobs, 0, fleet,
             SpeedKernel::Sort, 0.75},
            {"fleet_warm", false, size.fleet_jobs, size.pool, fleet,
             SpeedKernel::Sort, 0.45}};
}

/** defaultTenantMix() with every operand dimension scaled. */
std::vector<TrafficTenant>
scaledMix(Index scale)
{
    std::vector<TrafficTenant> mix = defaultTenantMix();
    for (TrafficTenant &t : mix) {
        t.a_rows *= scale;
        t.a_cols *= scale;
        t.b_cols *= scale;
    }
    return mix;
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string workdir;
    std::string spans; ///< Where a traced run writes its spans.
    bool smoke = false;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench_e2e: %s\n"
                 "usage: perfbench_e2e --workload cli_replay|fleet_cold|"
                 "fleet_warm --seed N --seconds T --trace 0|1 "
                 "--workdir DIR [--spans FILE] [--size full|smoke]\n",
                 why.c_str());
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string value = argv[++i];
        try {
            if (flag == "--workload")
                args.workload = value;
            else if (flag == "--seed")
                args.seed = std::stoull(value);
            else if (flag == "--seconds")
                args.seconds = std::stod(value);
            else if (flag == "--trace")
                args.trace = std::stoi(value) != 0;
            else if (flag == "--workdir")
                args.workdir = value;
            else if (flag == "--spans")
                args.spans = value;
            else if (flag == "--size")
                args.smoke = value == "smoke";
            else
                usage("unknown flag " + flag);
        } catch (const std::exception &) {
            usage("bad value for " + flag + ": " + value);
        }
    }
    if (args.workdir.empty())
        usage("--workdir is required");
    if (args.spans.empty())
        args.spans = args.workdir + "/spans.jsonl";
    if (!(args.seconds > 0.0))
        usage("--seconds must be positive");
    return args;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** A trained deployment plus the traffic it will serve. */
struct Deployment
{
    MisamFramework framework;
    Arrivals traffic;     ///< Never fingerprinted: each run copies it.
    std::string job_file; ///< cli_replay only.
};

/**
 * Build everything a run needs, one span per set-up layer. The model
 * trains on a fixed seed with one thread, so its cost and its choices
 * do not depend on the workload seed or the host's core count.
 */
Deployment
setUp(const Workload &w, const Size &size, const Args &args,
      Tracer &tracer)
{
    MisamConfig config;
    config.engine_config.time_model.mode = ReconfigMode::Partial;
    Deployment d{MisamFramework(config), {}, {}};
    std::vector<TrainingSample> samples;
    {
        const Span span(tracer, "workloads.train_gen");
        samples = generateTrainingSamples({.num_samples = size.train_samples,
                                           .seed = kTrainSeed,
                                           .max_dim = 512,
                                           .threads = 1});
    }
    {
        const Span span(tracer, "ml.train");
        (void)d.framework.train(samples);
    }
    std::vector<std::size_t> tenant_of;
    {
        const Span span(tracer, "workloads.traffic_gen");
        TrafficConfig tc;
        tc.seed = args.seed;
        tc.jobs = w.pool > 0 ? w.pool : w.jobs;
        tc.arrival = ArrivalProcess::Bursty;
        tc.mean_interarrival_s = kMeanInterarrivalS;
        tc.tenants = scaledMix(size.scale);
        const std::vector<TrafficJob> stream = generateTraffic(tc);
        // A pooled stream cycles over the pool; each lap repeats the
        // pool's arrival gaps after the previous lap's last arrival.
        const double lap_s = stream.back().arrival_s;
        for (std::size_t i = 0; i < w.jobs; ++i) {
            const TrafficJob &src = stream[i % stream.size()];
            const std::size_t lap = i / stream.size();
            BatchJob job = src.job;
            if (lap > 0)
                job.name += "@" + std::to_string(lap);
            d.traffic.jobs.push_back(std::move(job));
            tenant_of.push_back(src.tenant);
            d.traffic.arrival_s.push_back(src.arrival_s +
                                          static_cast<double>(lap) * lap_s);
        }
    }
    if (w.job_file) {
        const Span span(tracer, "sparse.io.write");
        const std::vector<TrafficTenant> mix = scaledMix(size.scale);
        std::vector<std::string> b_paths;
        for (std::size_t t = 0; t < mix.size(); ++t)
            b_paths.push_back(args.workdir + "/b_" + mix[t].name + ".mtx");
        std::vector<bool> b_written(mix.size(), false);
        d.job_file = args.workdir + "/jobs.jsonl";
        std::ofstream jobs(d.job_file);
        for (std::size_t i = 0; i < d.traffic.jobs.size(); ++i) {
            const BatchJob &job = d.traffic.jobs[i];
            const std::size_t tenant = tenant_of[i];
            if (!b_written[tenant]) {
                writeMatrixMarketFile(b_paths[tenant], job.b);
                b_written[tenant] = true;
            }
            const std::string a_path =
                args.workdir + "/a_" + std::to_string(i) + ".mtx";
            writeMatrixMarketFile(a_path, job.a);
            jobs << "{\"name\":\"" << job.name << "\",\"a\":\"" << a_path
                 << "\",\"b\":\"" << b_paths[tenant]
                 << "\",\"repetitions\":" << job.repetitions << "}\n";
        }
        if (!jobs)
            throw std::runtime_error("cannot write " + d.job_file);
    }
    return d;
}

/**
 * The fastest design of every job's operand pair, from the simulator
 * itself (outside any measured region).
 */
std::vector<DesignId>
oracleDesigns(const Workload &w, const Deployment &d)
{
    // Served operands are the parsed ones for cli_replay. Fleet operands
    // are copied so the served traffic never carries a fingerprint.
    const std::vector<BatchJob> jobs =
        w.job_file ? loadJobFile(d.job_file)
                   : std::vector<BatchJob>(d.traffic.jobs.begin(),
                                           d.traffic.jobs.begin() +
                                               static_cast<std::ptrdiff_t>(
                                                   w.pool > 0 ? w.pool
                                                              : w.jobs));
    std::vector<DesignId> best;
    for (const BatchJob &job : jobs)
        best.push_back(fastestDesign(simulateAllDesigns(job.a, job.b)));
    std::vector<DesignId> out(w.jobs);
    for (std::size_t i = 0; i < w.jobs; ++i)
        out[i] = best[i % best.size()];
    return out;
}

/** Host times below are in reference seconds (hostspeed.hh). */
struct Measured
{
    std::vector<double> served_wall_s;
    std::vector<double> traced_wall_s;
    std::vector<double> speed; ///< Host speed of each round.
    std::map<std::string, std::vector<double>> layer_s;
    RunOutcome reference;
    RunOutcome last_served;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::string first_failure;
    double peak_rss_mb = 0.0; ///< Peak resident set of the served runs.
};

RunOutcome
serveOnce(Deployment &d, const Workload &w, const std::string &emit_path)
{
    resetServingState(d.framework);
    if (w.job_file)
        return serveJobFile(d.framework, w.shape, d.job_file, emit_path);
    return serveFleet(d.framework, w.shape, d.traffic);
}

RunOutcome
composeOnce(Deployment &d, const Workload &w, const std::string &emit_path,
            Tracer &tracer)
{
    resetServingState(d.framework);
    if (w.job_file)
        return composeJobFile(d.framework, w.shape, d.job_file, emit_path,
                              tracer);
    return composeFleet(d.framework, w.shape, d.traffic, tracer);
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

void
check(Measured &m, const RunOutcome &served, const std::string &emitted,
      const std::string &reference_emitted)
{
    std::string why;
    std::size_t bad = countMismatches(served, m.reference, why);
    if (emitted != reference_emitted) {
        bad = std::max<std::size_t>(bad, 1);
        if (why.empty())
            why = "emitted results differ from the serial composition";
    }
    m.attempted += served.jobs.size();
    m.failed += std::min(bad, served.jobs.size());
    if (bad > 0 && m.first_failure.empty())
        m.first_failure = why;
}

/**
 * Return freed heap pages to the kernel and restart its peak-resident-set
 * counter (VmHWM), so a later peakRssMb() covers only what follows:
 * the live deployment plus the served runs, not the set-up repeats, the
 * oracle or the reference composition. Returns false where the kernel
 * cannot reset the counter.
 */
bool
resetPeakRss()
{
#ifdef __GLIBC__
    (void)malloc_trim(0);
#endif
    std::ofstream clear("/proc/self/clear_refs");
    clear << "5" << std::flush;
    return static_cast<bool>(clear);
}

/** VmHWM in MB; the process-lifetime ru_maxrss where it is missing. */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // "  123 kB"
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

Measured
measure(Deployment &d, const Workload &w, const Args &args,
        const Size &size, Tracer &tracer)
{
    Measured m;
    const std::string served_emit = args.workdir + "/served.jsonl";
    const std::string composed_emit = args.workdir + "/composed.jsonl";
    Tracer off(false);
    std::string reference_emitted;
    if (!args.trace) {
        m.reference = composeOnce(d, w, composed_emit, off);
        if (w.job_file)
            reference_emitted = slurp(composed_emit);
    }
    HostSpeed speed(w.speed, w.sensitivity);
    if (!resetPeakRss())
        std::fprintf(stderr, "perfbench_e2e: cannot reset the peak "
                             "resident set; peak_rss_mb covers the whole "
                             "process\n");
    // Untimed served runs first, so one-off costs of the first runs
    // (page faults, idle cores waking up) stay out of the medians.
    const double warm_until = nowSeconds() + size.warmup_s;
    while (nowSeconds() < warm_until)
        (void)serveOnce(d, w, served_emit);
    speed.sample(kFirstProbeS);
    const double deadline = nowSeconds() + args.seconds;
    for (std::size_t run = 0;
         run < size.min_runs || nowSeconds() < deadline; ++run) {
        // One round: a traced composition (trace 1 only), a served run,
        // then a probe gap; the round's host times are scaled by the
        // speed of the gaps on both sides of it.
        double traced_wall = 0.0;
        std::map<std::string, double> traced_layers;
        if (args.trace) {
            tracer.clear();
            RunOutcome traced =
                composeOnce(d, w, composed_emit, tracer);
            traced_wall = traced.wall_s;
            traced_layers = tracer.selfSeconds();
            if (run == 0) {
                m.reference = std::move(traced);
                if (w.job_file)
                    reference_emitted = slurp(composed_emit);
            } else {
                std::string emitted =
                    w.job_file ? slurp(composed_emit) : std::string();
                check(m, traced, emitted, reference_emitted);
            }
        }
        RunOutcome served = serveOnce(d, w, served_emit);
        speed.sample(kProbeShare * (traced_wall + served.wall_s));
        const double f = speed.scale();
        m.speed.push_back(speed.speed());
        m.served_wall_s.push_back(f * served.wall_s);
        if (args.trace) {
            m.traced_wall_s.push_back(f * traced_wall);
            for (const auto &[name, s] : traced_layers)
                m.layer_s[name].push_back(f * s);
        }
        const std::string emitted =
            w.job_file ? slurp(served_emit) : std::string();
        check(m, served, emitted, reference_emitted);
        m.last_served = std::move(served);
    }
    m.peak_rss_mb = peakRssMb();
    return m;
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

std::string
jsonDouble(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

void
printResult(bool correct, std::size_t attempted, std::size_t failed,
            const std::vector<Metric> &metrics)
{
    for (const Metric &m : metrics)
        std::printf("  %-34s %16.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        if (i > 0)
            json += ", ";
        json += "\"" + metrics[i].name + "\": {\"value\": " +
                jsonDouble(metrics[i].value) + ", \"unit\": \"" +
                metrics[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
}

/** Nearest-rank percentile of the logical waits. */
double
waitPercentile(const RunOutcome &placed, double pct)
{
    std::vector<double> waits;
    for (const Placement &p : placed.places)
        waits.push_back(p.wait_s);
    return waitPercentileSeconds(std::move(waits), pct);
}

std::vector<Metric>
endToEndMetrics(const Measured &m, const std::vector<DesignId> &oracle,
                double setup_s, std::size_t jobs)
{
    // A MisamServer run has no per-job timeline of its own; once the
    // gate has shown its schedule equal to the reference, the
    // reference's timeline is its timeline.
    const RunOutcome &served = m.last_served;
    const RunOutcome &placed = served.has_places ? served : m.reference;
    std::size_t hits = 0;
    for (std::size_t i = 0; i < served.jobs.size() && i < oracle.size();
         ++i)
        hits += served.jobs[i].predicted == oracle[i] ? 1 : 0;
    std::size_t affine = 0;
    for (const Placement &p : placed.places)
        affine += p.affine ? 1 : 0;
    const auto n = static_cast<double>(jobs);
    return {
        {"setup_s", setup_s, "s"},
        {"jobs_per_s", n / median(m.served_wall_s), "jobs/s"},
        {"peak_rss_mb", m.peak_rss_mb, "MB"},
        {"logical_exec_s", served.total_execute_s, "s"},
        {"logical_paid_loads_per_1k", 1000.0 * served.paid_loads / n,
         "loads/1k_jobs"},
        {"selector_hit_rate", static_cast<double>(hits) / n, "ratio"},
        {"logical_makespan_s", served.makespan_s, "s"},
        {"logical_wait_p50_s", waitPercentile(placed, 50.0), "s"},
        {"logical_wait_p99_s", waitPercentile(placed, 99.0), "s"},
        {"logical_affine_share", static_cast<double>(affine) / n,
         "ratio"},
    };
}

std::vector<Metric>
perLayerMetrics(const Measured &m, const std::map<std::string, double> &setup,
                double setup_speed)
{
    auto layer = [&](const std::string &name) {
        const auto it = m.layer_s.find(name);
        return it == m.layer_s.end() ? 0.0 : median(it->second);
    };
    auto setupLayer = [&](const std::string &name) {
        const auto it = setup.find(name);
        return it == setup.end() ? 0.0 : it->second;
    };
    const RunOutcome &served = m.last_served;
    const RunOutcome &traced = m.reference;
    const double traced_wall = median(m.traced_wall_s);
    const double served_wall = median(m.served_wall_s);
    double layer_sum = 0.0;
    for (const auto &[name, runs] : m.layer_s)
        if (name != "run")
            layer_sum += median(runs);
    const SimKernelCounters &memo = served.memo;
    const auto lookups = [](std::uint64_t h, std::uint64_t miss) {
        return static_cast<double>(h + miss);
    };
    const double summary_lookups =
        lookups(served.summary_hits, served.summary_misses);
    const double sym = lookups(memo.symbolic_hits, memo.symbolic_misses);
    const double csc = lookups(memo.csc_hits, memo.csc_misses);
    const double hist = lookups(memo.hist_hits, memo.hist_misses);
    return {
        {"workloads.train_gen_s", setupLayer("workloads.train_gen"), "s"},
        {"ml.train_s", setupLayer("ml.train"), "s"},
        {"workloads.traffic_gen_s", setupLayer("workloads.traffic_gen"),
         "s"},
        {"sparse.io.write_s", setupLayer("sparse.io.write"), "s"},
        {"serve.jobfile.parse_s", layer("serve.jobfile.parse"), "s"},
        {"sparse.io.read_s", layer("sparse.io.read"), "s"},
        {"sparse.io.bytes_read", static_cast<double>(traced.bytes_read),
         "bytes"},
        {"sparse.io.entries", static_cast<double>(traced.entries_read),
         "count"},
        {"sparse.convert.coo_to_csr_s", layer("sparse.convert.coo_to_csr"),
         "s"},
        {"sparse.fingerprint_s", layer("sparse.fingerprint"), "s"},
        {"sparse.fingerprint.nnz",
         static_cast<double>(traced.fingerprint_nnz), "count"},
        {"features.summary_s", layer("features.summary"), "s"},
        {"features.combine_s", layer("features.combine"), "s"},
        {"serve.summary_cache.hit_ratio",
         ratio(static_cast<double>(served.summary_hits), summary_lookups),
         "ratio"},
        {"serve.summary_cache.lookups", summary_lookups, "count"},
        {"sparse.csc_s", layer("sparse.csc"), "s"},
        {"sim.symbolic_s", layer("sim.symbolic"), "s"},
        {"sim.simulate_s", layer("sim.simulate"), "s"},
        {"sim.alloc_events", static_cast<double>(traced.alloc_events),
         "count"},
        {"sim.memo.symbolic_hit_ratio",
         ratio(static_cast<double>(memo.symbolic_hits), sym), "ratio"},
        {"sim.memo.symbolic_lookups", sym, "count"},
        {"sim.memo.csc_hit_ratio",
         ratio(static_cast<double>(memo.csc_hits), csc), "ratio"},
        {"sim.memo.csc_lookups", csc, "count"},
        {"sim.memo.hist_hit_ratio",
         ratio(static_cast<double>(memo.hist_hits), hist), "ratio"},
        {"sim.memo.hist_lookups", hist, "count"},
        {"ml.predict_s", layer("ml.predict"), "s"},
        {"reconfig.decide_s", layer("reconfig.decide"), "s"},
        {"reconfig.paid_loads", static_cast<double>(served.chain_reconfigs),
         "count"},
        {"reconfig.free_switches",
         static_cast<double>(served.free_switches), "count"},
        {"serve.plan_s", layer("serve.plan"), "s"},
        {"serve.orchestration_s", served_wall - layer_sum, "s"},
        {"serve.queue_high_water",
         static_cast<double>(served.queue_high_water), "count"},
        {"serve.sched.reordered_jobs",
         static_cast<double>(served.reordered_jobs), "count"},
        {"util.emit_s", layer("util.emit"), "s"},
        {"util.emit_bytes", static_cast<double>(traced.emit_bytes), "bytes"},
        {"trace.traced_wall_s", traced_wall, "s"},
        {"trace.untraced_wall_s", served_wall, "s"},
        {"trace.overhead_s", traced_wall - served_wall, "s"},
        {"trace.parse_share",
         ratio(layer("sparse.io.read") + layer("sparse.convert.coo_to_csr"),
               traced_wall),
         "ratio"},
        {"host.speed", median(m.speed), "ratio"},
        {"host.setup_speed", setup_speed, "ratio"},
    };
}

int
run(const Args &args)
{
    const Size &size = args.smoke ? kSmoke : kFull;
    std::vector<Workload> all = workloads(size);
    const auto it =
        std::find_if(all.begin(), all.end(), [&](const Workload &w) {
            return args.workload == w.name;
        });
    if (it == all.end())
        usage("unknown workload '" + args.workload + "'");
    const Workload &w = *it;
    std::filesystem::create_directories(args.workdir);
    // Before any thread exists, so that every thread inherits the mask.
    const int cpu = confineToOneCpu();
    (void)ThreadPool::global();

    // Set-up, several times: its median is setup_s, and its last
    // product is what the runs serve. Set-up is mostly operand
    // generation, so the Sort kernel measures the host's speed.
    std::vector<double> setup_runs;
    std::vector<double> setup_speeds;
    std::map<std::string, std::vector<double>> setup_layers;
    Tracer setup_tracer(true);
    std::unique_ptr<Deployment> d;
    HostSpeed setup_speed(SpeedKernel::Sort, kSetupSensitivity);
    setup_speed.sample(kFirstProbeS);
    for (std::size_t i = 0; i < size.setup_repeats; ++i) {
        setup_tracer.clear();
        d.reset();
        const double t0 = nowSeconds();
        d = std::make_unique<Deployment>(setUp(w, size, args, setup_tracer));
        const double wall = nowSeconds() - t0;
        setup_speed.sample(kProbeShare * wall);
        const double f = setup_speed.scale();
        setup_speeds.push_back(setup_speed.speed());
        setup_runs.push_back(f * wall);
        for (const auto &[name, s] : setup_tracer.selfSeconds())
            setup_layers[name].push_back(f * s);
    }
    std::map<std::string, double> setup_median;
    for (const auto &[name, runs] : setup_layers)
        setup_median[name] = median(runs);

    const std::vector<DesignId> oracle = oracleDesigns(w, *d);

    Tracer tracer(args.trace);
    const Measured m = measure(*d, w, args, size, tracer);
    const bool correct = m.failed == 0;

    std::printf("perfbench %s seed=%llu trace=%d: %zu jobs per run, %zu "
                "runs, %zu boards, %u extraction threads, %s %d\n",
                w.name, static_cast<unsigned long long>(args.seed),
                args.trace ? 1 : 0, w.jobs, m.served_wall_s.size(),
                w.job_file ? std::size_t(1) : w.shape.boards,
                w.shape.threads, cpu >= 0 ? "all on CPU" : "CPU mask unset",
                cpu);
    std::printf("host times in reference seconds; host speed %.3f of "
                "reference in the runs, %.3f in set-up\n",
                median(m.speed), median(setup_speeds));
    std::printf("  %-34s %16.6f ratio\n", "failed_frac",
                ratio(static_cast<double>(m.failed),
                      static_cast<double>(m.attempted)));
    if (!correct)
        std::printf("correctness gate FAILED: %s\n",
                    m.first_failure.c_str());
    if (args.trace) {
        tracer.writeJsonl(args.spans);
        std::printf("spans of the last traced run written to %s\n",
                    args.spans.c_str());
        printResult(correct, m.attempted, m.failed,
                    perLayerMetrics(m, setup_median, median(setup_speeds)));
    } else {
        printResult(correct, m.attempted, m.failed,
                    endToEndMetrics(m, oracle, median(setup_runs), w.jobs));
    }
    std::fflush(stdout);
    return correct ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(parseArgs(argc, argv));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench_e2e: %s\n", e.what());
        return 1;
    }
}

/**
 * @file
 * The two ways the benchmark drives a batch of jobs through misam.
 *
 * Served runs go through the public serving front-ends exactly as a
 * user does: `MisamServer` for a JSONL job file (what `misam serve`
 * runs) or `FleetRouter` for library traffic. They are timed with
 * tracing off and give the end-to-end metrics.
 *
 * Composed runs rebuild the same path serially from the library's
 * public building blocks, one span per call: parse, fingerprint,
 * summarize, combine, predict, decide, plan, CSC, symbolic pass,
 * simulate, emit. They are the traced run, and, because the serving
 * layers promise results bit-identical to this serial composition, they
 * are also the reference the correctness gate checks every served run
 * against.
 */

#ifndef PERFBENCH_PIPELINE_HH
#define PERFBENCH_PIPELINE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/misam.hh"
#include "sim/workspace.hh"
#include "trace.hh"

namespace perfbench {

/** How a workload is served. */
struct ServeShape
{
    std::size_t boards = 1;        ///< Fleet boards.
    unsigned threads = 1;          ///< Feature-extraction threads.
    std::size_t window = 16;       ///< Dispatch / routing window.
    std::size_t queue = 32;        ///< Admission queue bound.
    std::size_t board_capacity = 8; ///< Fleet: jobs per board per window.
};

/** Design every run starts from: the engine is reset to it. */
constexpr misam::DesignId kInitialDesign = misam::DesignId::D1;

/** What the correctness gate compares for one job. */
struct JobOutcome
{
    std::string name;
    misam::DesignId predicted = misam::DesignId::D1;
    misam::DesignId chosen = misam::DesignId::D1;
    bool reconfigure = false;
    bool free_switch = false;
    double cycles = 0.0;     ///< Simulated kernel cycles.
    double exec_s = 0.0;     ///< Simulated seconds of one execution.
    double execute_s = 0.0;  ///< Logical execute seconds (x repetitions).
    double reconfig_s = 0.0; ///< Logical reconfiguration seconds.

    bool operator==(const JobOutcome &) const = default;
};

/** Logical placement of one job on a board's timeline. */
struct Placement
{
    std::size_t board = 0;
    bool affine = false; ///< Ran without a bitstream load of its own.
    double start_s = 0.0;
    double wait_s = 0.0; ///< start - arrival.
    double finish_s = 0.0;

    bool operator==(const Placement &) const = default;
};

/** Everything one run produced that the benchmark reports or checks. */
struct RunOutcome
{
    double wall_s = 0.0; ///< Host seconds, bytes-or-submit to result.

    std::vector<JobOutcome> jobs;   ///< Admission order.
    std::vector<Placement> places;  ///< Admission order; see below.
    /** Admission indices in fabric order (MisamServer and composed
     *  single-board runs). */
    std::vector<std::size_t> execution_order;
    /** A served MisamServer run exposes no per-job timeline; its
     *  placements come from the composed reference once the execution
     *  order and the schedule totals are shown equal. */
    bool has_places = false;

    std::size_t admitted = 0;
    std::size_t completed = 0;
    std::size_t rejected = 0;

    double total_execute_s = 0.0; ///< Logical seconds.
    int chain_reconfigs = 0;      ///< Engine verdicts that switch.
    int free_switches = 0;
    int paid_loads = 0;           ///< Physical bitstream loads.
    double makespan_s = 0.0;      ///< Logical seconds.
    std::size_t reordered_jobs = 0;
    std::size_t queue_high_water = 0;

    std::uint64_t summary_hits = 0;
    std::uint64_t summary_misses = 0;
    misam::SimKernelCounters memo; ///< Deltas over the run.
    std::uint64_t alloc_events = 0; ///< Composed runs: sim arena growth.
    std::uint64_t fingerprint_nnz = 0; ///< Composed runs.
    std::uint64_t bytes_read = 0;      ///< Composed job-file runs.
    std::uint64_t entries_read = 0;    ///< Composed job-file runs.
    std::uint64_t emit_bytes = 0;      ///< Composed job-file runs.
};

/** Jobs with their logical arrival times (fleet traffic). */
struct Arrivals
{
    std::vector<misam::BatchJob> jobs;
    std::vector<double> arrival_s;
};

/**
 * Empty the four process-wide simulator memo caches and put the
 * engine's loaded bitstream back to kInitialDesign, so a run starts
 * cold and every run sees the same decision chain.
 */
void resetServingState(misam::MisamFramework &framework);

/**
 * Serve a JSONL job file through MisamServer: one submitting thread
 * parses the file, loads each job's Matrix Market operands and submits
 * it (blocking while the admission queue is full), then drains and
 * writes one `serve.job` event per result to `emit_path`. The calling
 * thread is the submitter.
 */
RunOutcome serveJobFile(misam::MisamFramework &framework,
                        const ServeShape &shape,
                        const std::string &job_file,
                        const std::string &emit_path);

/** Serve traffic through FleetRouter from one submitting thread. */
RunOutcome serveFleet(misam::MisamFramework &framework,
                      const ServeShape &shape, Arrivals traffic);

/** Serial, traced composition of serveJobFile. */
RunOutcome composeJobFile(misam::MisamFramework &framework,
                          const ServeShape &shape,
                          const std::string &job_file,
                          const std::string &emit_path, Tracer &tracer);

/** Serial, traced composition of serveFleet. */
RunOutcome composeFleet(misam::MisamFramework &framework,
                        const ServeShape &shape, Arrivals traffic,
                        Tracer &tracer);

/**
 * Compare a served run with the composed reference. Returns the number
 * of jobs that differ (a missing or extra job counts once) and
 * describes the first difference in `why`.
 */
std::size_t countMismatches(const RunOutcome &served,
                            const RunOutcome &reference, std::string &why);

} // namespace perfbench

#endif // PERFBENCH_PIPELINE_HH

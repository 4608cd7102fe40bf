/**
 * @file
 * FleetRouter — sharded multi-board serving with bitstream-affinity
 * routing.
 *
 * `MisamServer` drives one simulated FPGA. The fleet router scales that
 * out: N board workers, each owning its own ReconfigEngine state
 * (physical resident design), a per-board lookahead plan, and a bounded
 * batch queue, behind one bounded admission queue. The dispatcher pulls
 * windows in admission order, runs the *global* predict/decide chain
 * exactly as MisamServer does, then routes each decided job to a board:
 *
 *  - **Affinity** (default): prefer a board whose resident bitstream
 *    already covers the job's decided design — `switchSeconds == 0`,
 *    which includes the shared partial-reconfig designs (a D2-resident
 *    board takes a D3 job for free). Among affine boards pick the one
 *    with the least predicted backlog; when no affine board has window
 *    capacity, fall back to the cheapest switch, then least backlog,
 *    then lowest id.
 *  - **LeastLoaded**: ignore affinity; least predicted backlog first,
 *    switch cost and id break ties.
 *
 * Routing is a pure function (`planFleetWindow`) of the decisions,
 * per-job predicted latencies, arrival times, and the boards' logical
 * state — no wall clock, no queue-depth races — so placements, the
 * `fleet.route` trace, and every counter are byte-stable for any
 * `MISAM_THREADS` and any producer/dispatcher interleaving. Each
 * board's slice of the window is then re-planned with
 * `planLookaheadWindow` against that board's resident design, so a
 * board pays one physical load per same-design group.
 *
 * Determinism contract: the decision chain is global and serial in
 * admission order — job i's decision never depends on where jobs are
 * placed — so per-job results are bit-identical across routing
 * policies, board counts, and thread counts, and a 1-board fleet is
 * bit-identical to MisamServer (pinned by tests/test_fleet.cpp). Only
 * the physical accounting (paid loads, logical queueing delay) differs
 * between policies; that difference is what bench_fleet measures.
 *
 * Shutdown contract (the MisamServer contract generalized to a fleet):
 * every admitted job is executed or listed in rejected() — never
 * silently dropped. stop(true)/the destructor drains the admission
 * queue and every board queue; stop(false) rejects the undispatched
 * admission tail *and* each board's not-yet-started batches (a batch
 * already executing finishes). `admitted == completed + rejected`
 * holds fleet-wide, and `routed == completed + rejected` per board.
 */

#ifndef MISAM_SERVE_FLEET_HH
#define MISAM_SERVE_FLEET_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/misam.hh"
#include "reconfig/engine.hh"
#include "serve/lookahead.hh"

namespace misam {

class MetricsRegistry;
class MetricsSink;

/** Fleet routing policy. */
enum class RoutePolicy {
    Affinity,   ///< Resident/shared bitstream first, cost fallback.
    LeastLoaded ///< Predicted backlog only; affinity ignored.
};

/** Stable policy name ("affinity" / "least-loaded"). */
const char *routePolicyName(RoutePolicy policy);

/** Parse a policy name; fatal() on anything else. */
RoutePolicy parseRoutePolicy(const std::string &name);

/** Knobs of the fleet router. */
struct FleetConfig
{
    std::size_t boards = 2;          ///< Board workers (>= 1).
    RoutePolicy route = RoutePolicy::Affinity;
    std::size_t queue_capacity = 64; ///< Admission queue bound.
    std::size_t window = 16;         ///< Routing window (jobs).
    /**
     * Max jobs routed to one board per window — the affinity spill
     * valve: once a board's slice is full the planner spills to the
     * next-best board instead of pinning one board per design. Also
     * bounds each board's batch queue (in windows of this size).
     */
    std::size_t board_capacity = 8;
    unsigned threads = 0;            ///< Extraction fan-out (0 = auto).
    /** Hold windows until `window` jobs gathered (or a drain). */
    bool gather = false;
};

/** Router-visible logical state of one board (pure planning input). */
struct BoardState
{
    DesignId resident = DesignId::D1; ///< Design loaded on the fabric.
    double ready_s = 0.0; ///< Predicted logical time the backlog drains.
};

/** One job's placement verdict. */
struct RouteChoice
{
    std::size_t board = 0;
    bool affine = false;  ///< Placed without paying a bitstream load.
    double switch_s = 0.0; ///< Load seconds the placement adds.
};

/** One window's fleet placement plus per-board lookahead plans. */
struct FleetWindowPlan
{
    std::vector<RouteChoice> routes; ///< Per window job.
    /** Window-relative job indices per board, in routed order. */
    std::vector<std::vector<std::size_t>> board_jobs;
    /** Per-board lookahead plan (empty groups when a board got none). */
    std::vector<WindowPlan> board_plans;
    /** Free (shared-bitstream) design moves per board, routed order. */
    std::vector<int> board_free_moves;
    std::size_t affine_routed = 0;   ///< Placements with switch_s == 0.
    std::size_t fallback_routed = 0; ///< Placements that pay a switch.
    int paid_loads = 0;   ///< Sum of board plans' physical loads.
    int free_moves = 0;   ///< Design changes on a shared bitstream.
    double paid_reconfig_s = 0.0; ///< Seconds of the paid loads.
};

/**
 * Route one window. `decisions[i]` is job i's (globally) decided
 * design, `est_latency_s[i]` its predicted execute seconds (already
 * scaled by repetitions), `arrival_s[i]` its logical arrival. Advances
 * `boards` (resident designs and predicted backlogs) in place.
 * Deterministic: ties break toward the lowest board id.
 */
FleetWindowPlan planFleetWindow(const std::vector<ReconfigDecision> &decisions,
                                const std::vector<double> &est_latency_s,
                                const std::vector<double> &arrival_s,
                                RoutePolicy policy,
                                const ReconfigTimeModel &time_model,
                                std::size_t board_capacity,
                                std::vector<BoardState> &boards);

/**
 * Emit the window's `fleet.route` (one per job, admission order) and
 * `fleet.board` (one per board with jobs, board order) events.
 * `base_index` is the admission index of the window's first job;
 * `boards_after` is the board state planFleetWindow left behind.
 */
void emitFleetEvents(MetricsSink &sink, const FleetWindowPlan &plan,
                     const std::vector<ReconfigDecision> &decisions,
                     std::size_t base_index,
                     const std::vector<BoardState> &boards_after);

/** Nearest-rank percentile of the jobs' logical queueing waits. */
double waitPercentileSeconds(std::vector<double> waits, double pct);

class FleetRouter
{
  public:
    /** A job settled as rejected by the shutdown contract. */
    struct RejectedJob
    {
        std::size_t index;  ///< Admission index.
        std::string name;
        /** Board that abandoned it, or kRouterRejected for jobs the
         *  dispatcher never routed. */
        std::size_t board;
    };
    static constexpr std::size_t kRouterRejected = std::size_t(-1);

    /** Logical placement record of one completed job. */
    struct Placement
    {
        std::size_t board = 0;
        bool affine = false;
        double arrival_s = 0.0;
        double start_s = 0.0;  ///< max(arrival, board clock) + loads.
        double wait_s = 0.0;   ///< start - arrival: queueing latency.
        double finish_s = 0.0; ///< start + execute seconds.
    };

    /** Per-board outcome totals. */
    struct BoardTotals
    {
        std::size_t routed = 0;
        std::size_t completed = 0;
        std::size_t rejected = 0;
        int paid_loads = 0;
        int free_moves = 0;
        double paid_reconfig_s = 0.0;
        double busy_s = 0.0;    ///< Executed seconds (x repetitions).
        double finish_s = 0.0;  ///< Board logical clock after last job.
        DesignId resident = DesignId::D1; ///< Physical resident design.
        ScheduleStats stats;    ///< Per-board lookahead accounting.
    };

    /** Spawns the dispatcher and one worker per board. */
    FleetRouter(MisamFramework &framework, FleetConfig config = {});
    ~FleetRouter();

    FleetRouter(const FleetRouter &) = delete;
    FleetRouter &operator=(const FleetRouter &) = delete;

    /** Blocking bounded admission; returns the admission index. */
    std::size_t submit(BatchJob job, double arrival_s = 0.0);

    /** Stop and settle every admitted job (see shutdown contract). */
    void stop(bool drain_queue = true);

    /** Wait for every admitted job to settle without stopping. */
    void drain();

    /** submit-all + drain + report, in one call. */
    BatchReport serveAll(std::vector<BatchJob> jobs);

    /**
     * Completed jobs in admission order, with totals accumulated in
     * that order — bit-identical to MisamServer's report for a 1-board
     * fleet over the same stream.
     */
    BatchReport report() const;

    /** Placements parallel to report().jobs (admission order). */
    std::vector<Placement> placements() const;

    /** Rejections sorted by admission index. */
    std::vector<RejectedJob> rejected() const;

    std::size_t admitted() const;
    std::size_t completed() const;

    /** Per-board totals (index == board id). */
    std::vector<BoardTotals> boardTotals() const;

    /** Max board logical finish time — fleet makespan. */
    double makespanSeconds() const;

    std::size_t queueHighWater() const;

    void setMetrics(MetricsRegistry *metrics);
    void setTraceSink(MetricsSink *sink);

    const FleetConfig &config() const { return config_; }

  private:
    struct AdmittedJob
    {
        BatchJob job;
        double arrival_s = 0.0;
    };

    /** One routed per-board slice of a window. */
    struct BoardBatch
    {
        std::vector<std::size_t> indices; ///< Admission indices.
        std::vector<BatchJob> jobs;       ///< Parallel to indices.
        std::vector<ExecutionReport> partial; ///< Decided reports.
        std::vector<double> arrivals;
        WindowPlan plan; ///< Batch-relative lookahead plan.
        int free_moves = 0;
    };

    /** One board worker: queue, thread, and its physical engine. */
    struct Board
    {
        std::unique_ptr<ReconfigEngine> engine; ///< Resident tracking.
        std::thread worker;
        std::deque<BoardBatch> batches; ///< Guarded by the fleet mutex.
        std::size_t queued_jobs = 0;    ///< Jobs in `batches`.
        double clock_s = 0.0;           ///< Board logical time.
        BoardTotals totals;
    };

    struct JobSlot
    {
        bool done = false;
        ExecutionReport result;
        Placement place;
    };

    void dispatchLoop();
    void boardLoop(std::size_t board_id);
    void runBoardBatch(std::size_t board_id, BoardBatch batch,
                       std::unique_lock<std::mutex> &lock);
    bool allSettledLocked() const;

    MisamFramework &framework_;
    FleetConfig config_;

    mutable std::mutex mutex_;
    std::condition_variable admit_cv_; ///< Admission-capacity waiters.
    std::condition_variable wake_cv_;  ///< Dispatcher wakeups.
    std::condition_variable board_cv_; ///< Board-worker wakeups.
    std::condition_variable space_cv_; ///< Board-queue-capacity waiters.
    std::condition_variable done_cv_;  ///< Settlement waiters.

    std::deque<AdmittedJob> queue_;
    std::size_t admitted_ = 0;
    std::size_t dispatched_ = 0;
    std::size_t completed_ = 0;
    std::size_t high_water_ = 0;
    std::size_t drain_waiters_ = 0;
    bool stopping_ = false;
    bool abandon_ = false;
    bool boards_stopping_ = false;
    bool workers_joined_ = false; ///< stop() has claimed the joins.

    std::vector<JobSlot> slots_; ///< Indexed by admission index.
    std::vector<RejectedJob> rejected_;
    std::vector<std::unique_ptr<Board>> boards_;
    std::vector<BoardState> board_states_; ///< Dispatcher-private.

    MetricsRegistry *metrics_ = nullptr;
    MetricsSink *trace_sink_ = nullptr;

    std::thread dispatcher_;
};

} // namespace misam

#endif // MISAM_SERVE_FLEET_HH

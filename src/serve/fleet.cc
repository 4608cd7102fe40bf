#include "serve/fleet.hh"

#include <algorithm>
#include <utility>

#include "util/logging.hh"
#include "util/metrics.hh"
#include "util/parallel.hh"

namespace misam {

const char *
routePolicyName(RoutePolicy policy)
{
    switch (policy) {
    case RoutePolicy::Affinity:
        return "affinity";
    case RoutePolicy::LeastLoaded:
        return "least-loaded";
    }
    return "?";
}

RoutePolicy
parseRoutePolicy(const std::string &name)
{
    if (name == "affinity")
        return RoutePolicy::Affinity;
    if (name == "least-loaded")
        return RoutePolicy::LeastLoaded;
    fatal("unknown route policy '", name,
          "' (expected affinity or least-loaded)");
}

FleetWindowPlan
planFleetWindow(const std::vector<ReconfigDecision> &decisions,
                const std::vector<double> &est_latency_s,
                const std::vector<double> &arrival_s, RoutePolicy policy,
                const ReconfigTimeModel &time_model,
                std::size_t board_capacity, std::vector<BoardState> &boards)
{
    const std::size_t n = decisions.size();
    if (est_latency_s.size() != n || arrival_s.size() != n)
        panic("planFleetWindow: input vectors disagree on the job count");
    if (boards.empty())
        fatal("planFleetWindow: need at least one board");
    const std::size_t num_boards = boards.size();
    // Capacity 0 means unbounded (every job may land on one board).
    const std::size_t cap = board_capacity == 0 ? n + 1 : board_capacity;

    FleetWindowPlan plan;
    plan.routes.resize(n);
    plan.board_jobs.assign(num_boards, {});
    plan.board_plans.resize(num_boards);
    plan.board_free_moves.assign(num_boards, 0);

    // `last_design[b]` tracks the design the board would hold after the
    // jobs routed to it so far this window, in routed order; the
    // per-board lookahead plan below regroups against the *entry*
    // resident design, which is what the fabric actually holds.
    std::vector<DesignId> entry_resident(num_boards);
    std::vector<DesignId> last_design(num_boards);
    for (std::size_t b = 0; b < num_boards; ++b)
        entry_resident[b] = last_design[b] = boards[b].resident;

    for (std::size_t i = 0; i < n; ++i) {
        const DesignId design = decisions[i].chosen;
        const auto switch_cost = [&](std::size_t b) {
            return time_model.switchSeconds(last_design[b], design);
        };
        const auto has_capacity = [&](std::size_t b) {
            return plan.board_jobs[b].size() < cap;
        };

        std::size_t pick = num_boards;
        if (policy == RoutePolicy::Affinity) {
            // Affine pass: boards whose resident bitstream covers the
            // design for free (same design, or the shared D2/D3 pair).
            for (std::size_t b = 0; b < num_boards; ++b) {
                if (!has_capacity(b) || switch_cost(b) != 0.0)
                    continue;
                if (pick == num_boards ||
                    boards[b].ready_s < boards[pick].ready_s)
                    pick = b;
            }
        }
        if (pick == num_boards) {
            // Cost/benefit fallback (and the whole LeastLoaded policy):
            // lexicographic over (switch cost, backlog) — Affinity puts
            // cost first, LeastLoaded backlog first — id breaks ties.
            // First pass respects window capacity; if every board is
            // full the window overflows capacity rather than dropping.
            for (int pass = 0; pass < 2 && pick == num_boards; ++pass) {
                for (std::size_t b = 0; b < num_boards; ++b) {
                    if (pass == 0 && !has_capacity(b))
                        continue;
                    if (pick == num_boards) {
                        pick = b;
                        continue;
                    }
                    const double cost_b = switch_cost(b);
                    const double cost_p = switch_cost(pick);
                    const double ready_b = boards[b].ready_s;
                    const double ready_p = boards[pick].ready_s;
                    bool better;
                    if (policy == RoutePolicy::Affinity)
                        better = cost_b < cost_p ||
                                 (cost_b == cost_p && ready_b < ready_p);
                    else
                        better = ready_b < ready_p ||
                                 (ready_b == ready_p && cost_b < cost_p);
                    if (better)
                        pick = b;
                }
            }
        }

        const double switch_s = switch_cost(pick);
        plan.routes[i] = RouteChoice{pick, switch_s == 0.0, switch_s};
        if (switch_s == 0.0)
            ++plan.affine_routed;
        else
            ++plan.fallback_routed;
        if (last_design[pick] != design && switch_s == 0.0) {
            ++plan.free_moves;
            ++plan.board_free_moves[pick];
        }
        boards[pick].ready_s =
            std::max(boards[pick].ready_s, arrival_s[i]) + switch_s +
            est_latency_s[i];
        last_design[pick] = design;
        plan.board_jobs[pick].push_back(i);
    }

    // Re-plan each board's slice against its entry resident design:
    // same-design runs coalesce into one physical load exactly as a
    // single-board lookahead window would.
    for (std::size_t b = 0; b < num_boards; ++b) {
        if (plan.board_jobs[b].empty())
            continue;
        std::vector<ReconfigDecision> board_chain;
        board_chain.reserve(plan.board_jobs[b].size());
        DesignId prev = entry_resident[b];
        for (const std::size_t j : plan.board_jobs[b]) {
            ReconfigDecision step;
            step.chosen = decisions[j].chosen;
            step.overhead_s = time_model.switchSeconds(prev, step.chosen);
            step.reconfigure = step.overhead_s > 0.0;
            step.free_switch =
                prev != step.chosen && step.overhead_s == 0.0;
            prev = step.chosen;
            board_chain.push_back(step);
        }
        plan.board_plans[b] =
            planLookaheadWindow(board_chain, entry_resident[b], time_model);
        plan.paid_loads += plan.board_plans[b].paid_loads;
        plan.paid_reconfig_s += plan.board_plans[b].paid_reconfig_s;
        boards[b].resident = plan.board_plans[b].resident_after;
    }
    return plan;
}

void
emitFleetEvents(MetricsSink &sink, const FleetWindowPlan &plan,
                const std::vector<ReconfigDecision> &decisions,
                std::size_t base_index,
                const std::vector<BoardState> &boards_after)
{
    for (std::size_t i = 0; i < plan.routes.size(); ++i) {
        const RouteChoice &route = plan.routes[i];
        sink.event("fleet.route",
                   {{"job", std::uint64_t(base_index + i)},
                    {"design", designName(decisions[i].chosen)},
                    {"board", std::uint64_t(route.board)},
                    {"affine", std::uint64_t(route.affine ? 1 : 0)},
                    {"switch_s", route.switch_s}});
    }
    for (std::size_t b = 0; b < plan.board_jobs.size(); ++b) {
        if (plan.board_jobs[b].empty())
            continue;
        const WindowPlan &board_plan = plan.board_plans[b];
        sink.event("fleet.board",
                   {{"board", std::uint64_t(b)},
                    {"jobs", std::uint64_t(plan.board_jobs[b].size())},
                    {"groups", std::uint64_t(board_plan.groups.size())},
                    {"paid_loads", board_plan.paid_loads},
                    {"load_s", board_plan.paid_reconfig_s},
                    {"resident_after",
                     designName(board_plan.resident_after)},
                    {"ready_s", boards_after[b].ready_s}});
    }
}

double
waitPercentileSeconds(std::vector<double> waits, double pct)
{
    if (waits.empty())
        return 0.0;
    std::sort(waits.begin(), waits.end());
    if (waits.size() == 1)
        return waits.front();
    // Linear interpolation between closest ranks — deterministic and
    // libm-free.
    const double clamped = std::max(0.0, std::min(100.0, pct));
    const double pos = clamped / 100.0 * double(waits.size() - 1);
    const std::size_t lo = std::size_t(pos);
    const std::size_t hi = std::min(lo + 1, waits.size() - 1);
    const double frac = pos - double(lo);
    return waits[lo] + frac * (waits[hi] - waits[lo]);
}

FleetRouter::FleetRouter(MisamFramework &framework, FleetConfig config)
    : framework_(framework), config_(config)
{
    if (config_.boards == 0)
        fatal("FleetRouter: boards must be positive");
    if (config_.queue_capacity == 0)
        fatal("FleetRouter: queue_capacity must be positive");
    if (config_.window == 0)
        fatal("FleetRouter: window must be positive");
    if (config_.gather && config_.queue_capacity < config_.window)
        fatal("FleetRouter: gather mode requires queue_capacity >= "
              "window");
    if (!framework_.trained())
        fatal("FleetRouter: framework must be trained before serving");

    const DesignId initial = framework_.engine().currentDesign();
    board_states_.assign(config_.boards, BoardState{initial, 0.0});
    boards_.reserve(config_.boards);
    for (std::size_t b = 0; b < config_.boards; ++b) {
        auto board = std::make_unique<Board>();
        // Each board owns a real engine instance: its currentDesign()
        // is the board's physical resident bitstream, updated as its
        // batches execute. The *decision* chain stays global in the
        // shared framework — see the header's determinism contract.
        board->engine = std::make_unique<ReconfigEngine>(
            framework_.engine().latencyModel(),
            framework_.engine().config(), initial);
        board->totals.resident = initial;
        boards_.push_back(std::move(board));
    }
    for (std::size_t b = 0; b < config_.boards; ++b)
        boards_[b]->worker = std::thread([this, b] { boardLoop(b); });
    dispatcher_ = std::thread([this] { dispatchLoop(); });
}

FleetRouter::~FleetRouter()
{
    stop(true);
    if (dispatcher_.joinable())
        dispatcher_.join();
    for (const std::unique_ptr<Board> &board : boards_)
        if (board->worker.joinable())
            board->worker.join();
}

std::size_t
FleetRouter::submit(BatchJob job, double arrival_s)
{
    std::unique_lock<std::mutex> lock(mutex_);
    admit_cv_.wait(lock, [this] {
        return stopping_ || queue_.size() < config_.queue_capacity;
    });
    if (stopping_)
        fatal("FleetRouter::submit: fleet is shutting down");
    queue_.push_back(AdmittedJob{std::move(job), arrival_s});
    slots_.emplace_back();
    const std::size_t index = admitted_++;
    high_water_ = std::max(high_water_, queue_.size());
    if (metrics_) {
        metrics_->add("fleet.admitted");
        metrics_->set("fleet.queue_high_water",
                      static_cast<double>(high_water_));
    }
    lock.unlock();
    wake_cv_.notify_one();
    return index;
}

void
FleetRouter::stop(bool drain_queue)
{
    std::unique_lock<std::mutex> lock(mutex_);
    if (!stopping_) {
        stopping_ = true;
        abandon_ = !drain_queue;
        wake_cv_.notify_all();
        admit_cv_.notify_all();
        space_cv_.notify_all();
        board_cv_.notify_all();
    }
    // The fleet-wide shutdown contract: every admitted job settles as
    // completed or rejected before stop() returns.
    done_cv_.wait(lock, [this] { return allSettledLocked(); });

    // Settled and stopping: the dispatcher and board threads are done
    // or returning. Join them here, once and never from one of them,
    // so a fatal() after stop() (submit on a stopped fleet) exits with
    // no live threads.
    const std::thread::id self = std::this_thread::get_id();
    if (workers_joined_ || self == dispatcher_.get_id())
        return;
    for (const std::unique_ptr<Board> &board : boards_)
        if (self == board->worker.get_id())
            return;
    workers_joined_ = true;
    lock.unlock();
    dispatcher_.join();
    for (const std::unique_ptr<Board> &board : boards_)
        board->worker.join();
}

void
FleetRouter::drain()
{
    std::unique_lock<std::mutex> lock(mutex_);
    ++drain_waiters_;
    wake_cv_.notify_all();
    done_cv_.wait(lock, [this] { return allSettledLocked(); });
    --drain_waiters_;
}

BatchReport
FleetRouter::serveAll(std::vector<BatchJob> jobs)
{
    for (BatchJob &job : jobs)
        submit(std::move(job));
    drain();
    return report();
}

bool
FleetRouter::allSettledLocked() const
{
    return completed_ + rejected_.size() == admitted_;
}

BatchReport
FleetRouter::report() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    BatchReport report;
    for (const JobSlot &slot : slots_) {
        if (!slot.done)
            continue;
        const ExecutionReport &rep = slot.result;
        report.total_execute_s += rep.breakdown.execute_s;
        report.total_reconfig_s += rep.breakdown.reconfig_s;
        report.total_host_s += rep.breakdown.preprocess_s +
                               rep.breakdown.inference_s +
                               rep.breakdown.engine_s;
        if (rep.decision.reconfigure)
            ++report.reconfigurations;
        if (rep.decision.free_switch)
            ++report.free_switches;
        report.jobs.push_back(rep);
    }
    return report;
}

std::vector<FleetRouter::Placement>
FleetRouter::placements() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<Placement> out;
    for (const JobSlot &slot : slots_)
        if (slot.done)
            out.push_back(slot.place);
    return out;
}

std::vector<FleetRouter::RejectedJob>
FleetRouter::rejected() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<RejectedJob> out = rejected_;
    std::sort(out.begin(), out.end(),
              [](const RejectedJob &a, const RejectedJob &b) {
                  return a.index < b.index;
              });
    return out;
}

std::size_t
FleetRouter::admitted() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return admitted_;
}

std::size_t
FleetRouter::completed() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return completed_;
}

std::vector<FleetRouter::BoardTotals>
FleetRouter::boardTotals() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<BoardTotals> out;
    out.reserve(boards_.size());
    for (const std::unique_ptr<Board> &board : boards_)
        out.push_back(board->totals);
    return out;
}

double
FleetRouter::makespanSeconds() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    double makespan = 0.0;
    for (const std::unique_ptr<Board> &board : boards_)
        makespan = std::max(makespan, board->totals.finish_s);
    return makespan;
}

std::size_t
FleetRouter::queueHighWater() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return high_water_;
}

void
FleetRouter::setMetrics(MetricsRegistry *metrics)
{
    std::lock_guard<std::mutex> lock(mutex_);
    metrics_ = metrics;
    if (metrics_)
        metrics_->set("fleet.boards",
                      static_cast<double>(config_.boards));
}

void
FleetRouter::setTraceSink(MetricsSink *sink)
{
    std::lock_guard<std::mutex> lock(mutex_);
    trace_sink_ = sink;
}

void
FleetRouter::dispatchLoop()
{
    const ReconfigTimeModel &time_model =
        framework_.engine().config().time_model;
    // A board may queue up to two windows' worth of its per-window
    // routing share before the dispatcher blocks — enough to keep
    // boards busy, bounded enough for back-pressure to reach submit().
    const std::size_t board_queue_bound =
        std::max<std::size_t>(1, config_.board_capacity) * 2;

    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        wake_cv_.wait(lock, [this] {
            if (stopping_)
                return true;
            if (queue_.empty())
                return false;
            return !config_.gather || queue_.size() >= config_.window ||
                   drain_waiters_ > 0;
        });
        if (abandon_ && !queue_.empty()) {
            // stop(false): settle the unrouted tail as rejections.
            std::size_t tail = 0;
            while (!queue_.empty()) {
                rejected_.push_back({dispatched_++,
                                     std::move(queue_.front().job.name),
                                     kRouterRejected});
                queue_.pop_front();
                ++tail;
            }
            if (metrics_)
                metrics_->add("fleet.rejected", tail);
            boards_stopping_ = true;
            board_cv_.notify_all();
            done_cv_.notify_all();
            return;
        }
        if (queue_.empty()) {
            if (stopping_) {
                boards_stopping_ = true;
                board_cv_.notify_all();
                return;
            }
            continue;
        }

        // Pull one window in admission order; popping frees admission
        // capacity immediately.
        std::vector<AdmittedJob> window;
        const std::size_t n = std::min(config_.window, queue_.size());
        window.reserve(n);
        for (std::size_t i = 0; i < n; ++i) {
            window.push_back(std::move(queue_.front()));
            queue_.pop_front();
        }
        const std::size_t base = dispatched_;
        dispatched_ += n;
        MetricsRegistry *metrics = metrics_;
        MetricsSink *sink = trace_sink_;
        lock.unlock();
        admit_cv_.notify_all();
        if (metrics)
            metrics->add("fleet.windows");

        // Stage 1 — parallel: per-job feature extraction.
        std::vector<ExecutionReport> reports(n);
        for (std::size_t i = 0; i < n; ++i)
            reports[i].name = window[i].job.name;
        parallelFor(
            n,
            [&](std::size_t i) {
                framework_.extractJobFeatures(reports[i], window[i].job.a,
                                              window[i].job.b);
            },
            config_.threads);

        // Stage 2 — serial, admission order: the *global* decision
        // chain. Job i's decision depends only on jobs 0..i-1, never on
        // placement, which is what makes per-job results bit-identical
        // across routing policies and board counts.
        std::vector<ReconfigDecision> decisions(n);
        std::vector<double> est_latency_s(n);
        std::vector<double> arrival_s(n);
        for (std::size_t i = 0; i < n; ++i) {
            framework_.decideJob(reports[i], window[i].job.repetitions);
            decisions[i] = reports[i].decision;
            est_latency_s[i] =
                framework_.engine().predictLatencySeconds(
                    reports[i].features, decisions[i].chosen) *
                window[i].job.repetitions;
            arrival_s[i] = window[i].arrival_s;
        }

        // Stage 3 — deterministic routing over logical board state.
        FleetWindowPlan plan = planFleetWindow(
            decisions, est_latency_s, arrival_s, config_.route,
            time_model, config_.board_capacity, board_states_);
        if (sink)
            emitFleetEvents(*sink, plan, decisions, base, board_states_);
        if (metrics) {
            metrics->add("fleet.routed_affine", plan.affine_routed);
            metrics->add("fleet.routed_fallback", plan.fallback_routed);
        }

        // Stage 4 — hand each board its slice, in board order, with
        // bounded board queues providing back-pressure.
        lock.lock();
        for (std::size_t b = 0; b < boards_.size(); ++b) {
            if (plan.board_jobs[b].empty())
                continue;
            BoardBatch batch;
            const std::size_t count = plan.board_jobs[b].size();
            batch.indices.reserve(count);
            batch.jobs.reserve(count);
            batch.partial.reserve(count);
            batch.arrivals.reserve(count);
            for (const std::size_t j : plan.board_jobs[b]) {
                batch.indices.push_back(base + j);
                batch.jobs.push_back(std::move(window[j].job));
                batch.partial.push_back(std::move(reports[j]));
                batch.arrivals.push_back(arrival_s[j]);
                JobSlot &slot = slots_[base + j];
                slot.place.board = b;
                slot.place.affine = plan.routes[j].affine;
                slot.place.arrival_s = arrival_s[j];
            }
            batch.plan = std::move(plan.board_plans[b]);
            batch.free_moves = plan.board_free_moves[b];
            boards_[b]->totals.routed += count;
            space_cv_.wait(lock, [&] {
                return abandon_ ||
                       boards_[b]->queued_jobs + count <=
                           board_queue_bound ||
                       count > board_queue_bound;
            });
            boards_[b]->queued_jobs += count;
            boards_[b]->batches.push_back(std::move(batch));
        }
        board_cv_.notify_all();
    }
}

void
FleetRouter::boardLoop(std::size_t board_id)
{
    Board &board = *boards_[board_id];
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        board_cv_.wait(lock, [&] {
            return boards_stopping_ || !board.batches.empty();
        });
        if (!board.batches.empty()) {
            BoardBatch batch = std::move(board.batches.front());
            board.batches.pop_front();
            board.queued_jobs -= batch.jobs.size();
            space_cv_.notify_all();
            if (abandon_) {
                // stop(false): a batch not yet started is rejected
                // whole; only an in-flight batch runs to completion.
                for (std::size_t k = 0; k < batch.jobs.size(); ++k)
                    rejected_.push_back({batch.indices[k],
                                         std::move(batch.jobs[k].name),
                                         board_id});
                board.totals.rejected += batch.jobs.size();
                if (metrics_)
                    metrics_->add("fleet.rejected", batch.jobs.size());
                done_cv_.notify_all();
                continue;
            }
            runBoardBatch(board_id, std::move(batch), lock);
            continue;
        }
        if (boards_stopping_)
            return;
    }
}

void
FleetRouter::runBoardBatch(std::size_t board_id, BoardBatch batch,
                           std::unique_lock<std::mutex> &lock)
{
    Board &board = *boards_[board_id];
    const ReconfigTimeModel &time_model =
        framework_.engine().config().time_model;
    MetricsRegistry *metrics = metrics_;
    lock.unlock();

    // Simulate in planned group order; the board's logical clock pays
    // each group's bitstream load up front, then jobs run back to back
    // (a job that arrives after the board frees up starts at its
    // arrival instead). simulateJob is thread-safe: the decision chain
    // already ran, so boards execute concurrently.
    const std::size_t count = batch.jobs.size();
    std::vector<double> group_execute_s(batch.plan.groups.size(), 0.0);
    std::vector<double> start_s(count, 0.0);
    std::vector<double> finish_s(count, 0.0);
    double clock_s = board.clock_s;
    double busy_s = 0.0;
    for (std::size_t g = 0; g < batch.plan.groups.size(); ++g) {
        clock_s += batch.plan.groups[g].load_seconds;
        for (const std::size_t j : batch.plan.groups[g].jobs) {
            framework_.simulateJob(batch.partial[j], batch.jobs[j].a,
                                   batch.jobs[j].b,
                                   batch.jobs[j].repetitions);
            const double execute_s = batch.partial[j].breakdown.execute_s;
            group_execute_s[g] += execute_s;
            start_s[j] = std::max(batch.arrivals[j], clock_s);
            clock_s = start_s[j] + execute_s;
            finish_s[j] = clock_s;
            busy_s += execute_s;
        }
    }
    const WindowAccounting acct = accountLookaheadWindow(
        batch.plan, group_execute_s, time_model, false);
    board.clock_s = clock_s;
    board.engine->setCurrentDesign(batch.plan.resident_after);

    lock.lock();
    for (std::size_t j = 0; j < count; ++j) {
        JobSlot &slot = slots_[batch.indices[j]];
        if (slot.done)
            panic("FleetRouter: job ", batch.indices[j],
                  " settled twice");
        slot.done = true;
        slot.result = std::move(batch.partial[j]);
        slot.place.start_s = start_s[j];
        slot.place.wait_s = start_s[j] - batch.arrivals[j];
        slot.place.finish_s = finish_s[j];
    }
    completed_ += count;
    board.totals.completed += count;
    board.totals.paid_loads += batch.plan.paid_loads;
    board.totals.free_moves += batch.free_moves;
    board.totals.paid_reconfig_s += batch.plan.paid_reconfig_s;
    board.totals.busy_s += busy_s;
    board.totals.finish_s = clock_s;
    board.totals.resident = batch.plan.resident_after;
    board.totals.stats.accumulate(batch.plan, acct);
    if (metrics) {
        metrics->add("fleet.completed", count);
        metrics->add("fleet.paid_loads",
                     static_cast<std::uint64_t>(batch.plan.paid_loads));
        if (batch.free_moves > 0)
            metrics->add("fleet.free_moves",
                         static_cast<std::uint64_t>(batch.free_moves));
    }
    done_cv_.notify_all();
}

} // namespace misam

#include "util/parallel.hh"

#include <cstdlib>

#include "util/env.hh"

namespace misam {

namespace {

thread_local bool t_in_parallel_region = false;

/** RAII flag so nested parallelFor calls fall back to inline. */
struct RegionGuard
{
    RegionGuard() { t_in_parallel_region = true; }
    ~RegionGuard() { t_in_parallel_region = false; }
};

} // namespace

unsigned
hardwareThreads()
{
    const unsigned h = std::thread::hardware_concurrency();
    return h > 0 ? h : 1;
}

unsigned
resolveThreads(unsigned requested)
{
    if (requested > 0)
        return requested;
    if (const char *env = envRaw("MISAM_THREADS")) {
        const long v = std::strtol(env, nullptr, 10);
        if (v >= 1)
            return static_cast<unsigned>(v);
    }
    return hardwareThreads();
}

bool
inParallelRegion()
{
    return t_in_parallel_region;
}

ThreadPool::ThreadPool(unsigned threads)
{
    ensureWorkers(threads);
}

void
ThreadPool::ensureWorkers(unsigned target)
{
    // Only called from the constructor or under submit_mutex_ with no
    // job in flight, so pushing to workers_ is safe. New workers must
    // start from the *current* generation, not 0: otherwise a pool that
    // has already run jobs (generation_ > 0) would satisfy the wake
    // predicate immediately and the fresh worker would run a phantom
    // pass over stale job state.
    if (target > kMaxWorkers)
        target = kMaxWorkers;
    std::uint64_t g;
    {
        std::lock_guard<std::mutex> lk(mutex_);
        g = generation_;
    }
    while (workers_.size() < target)
        workers_.emplace_back([this, g] { workerLoop(g); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lk(mutex_);
        stop_ = true;
    }
    wake_cv_.notify_all();
    for (std::thread &w : workers_)
        w.join();
}

void
ThreadPool::drainJob(std::size_t n,
                     const std::function<void(std::size_t)> &fn)
{
    RegionGuard guard;
    for (;;) {
        const std::size_t i =
            job_next_.fetch_add(1, std::memory_order_relaxed);
        if (i >= n)
            return;
        fn(i);
    }
}

void
ThreadPool::workerLoop(std::uint64_t start_generation)
{
    std::uint64_t seen = start_generation;
    std::unique_lock<std::mutex> lk(mutex_);
    for (;;) {
        wake_cv_.wait(lk, [&] { return stop_ || generation_ != seen; });
        if (stop_)
            return;
        seen = generation_;
        const std::size_t n = job_n_;
        const std::function<void(std::size_t)> *fn = job_fn_;
        // Claim a participation slot; late wakers past the cap skip the
        // job body entirely but still must report done below.
        const bool participate =
            job_claims_.fetch_add(1, std::memory_order_relaxed) <
            job_max_workers_;
        lk.unlock();
        if (participate)
            drainJob(n, *fn);
        lk.lock();
        if (--workers_pending_ == 0)
            done_cv_.notify_all();
    }
}

void
ThreadPool::forEach(std::size_t n,
                    const std::function<void(std::size_t)> &fn,
                    unsigned max_workers)
{
    std::lock_guard<std::mutex> submit(submit_mutex_);
    ensureWorkers(max_workers);
    if (workers_.empty() || max_workers == 0) {
        RegionGuard guard;
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }
    {
        std::lock_guard<std::mutex> lk(mutex_);
        job_fn_ = &fn;
        job_n_ = n;
        job_max_workers_ = max_workers;
        job_next_.store(0, std::memory_order_relaxed);
        job_claims_.store(0, std::memory_order_relaxed);
        workers_pending_ = threadCount();
        ++generation_;
    }
    wake_cv_.notify_all();
    drainJob(n, fn); // The caller is a lane too.
    std::unique_lock<std::mutex> lk(mutex_);
    done_cv_.wait(lk, [&] { return workers_pending_ == 0; });
    job_fn_ = nullptr;
}

ThreadPool &
ThreadPool::global()
{
    // Leaked on purpose, like the memo caches: fatal() exits through
    // std::exit, and a static pool's destructor would then join workers
    // that are mid-job or, in a forked child, do not exist.
    // misam-lint: allow(guarded-state) -- magic-static init is thread-safe and ThreadPool synchronizes internally (job_mutex_/done_cv_)
    static ThreadPool &pool = *new ThreadPool(
        resolveThreads(0) > 1 ? resolveThreads(0) - 1 : 0);
    return pool;
}

void
parallelFor(std::size_t n, const std::function<void(std::size_t)> &fn,
            unsigned threads)
{
    const unsigned t = resolveThreads(threads);
    if (n <= 1 || t <= 1 || inParallelRegion()) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }
    ThreadPool::global().forEach(n, fn, t - 1);
}

} // namespace misam

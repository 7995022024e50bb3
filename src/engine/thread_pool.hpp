// Minimal fixed-size thread pool for the engine's per-method stages.
//
// Two usage patterns share one set of workers:
//   * run_batch(): fans a batch of tasks out and waits for all of them
//     (the engine runs a window's method stages this way; tests and
//     benches use it to spread the workers over CPUs);
//   * run() (linalg::BlockRunner): a kernel region.  A running task
//     splits an operator apply into blocks and claims blocks itself;
//     workers that are idle and spinning join in, one block at a
//     time.  With no such worker the caller runs the whole range as one
//     call, so a busy pool costs the caller nothing.  Regions from
//     several tasks may be open at once; queued tasks take precedence.
// run_batch() returns once the pool has no queued or running task;
// regions do not count as pending work and mix freely with it.
//
// Who helps: a worker with no queued task spins while a solve scope is
// open (begin_solve() / end_solve(), linalg::SolveScope; the CG-regime
// operator QP holds one for its whole run) and sleeps on the condition
// variable otherwise.  begin_solve() wakes sleeping workers once, when
// the first scope opens; a region never wakes anyone.  So a worker
// that is idle at any point of a solve stays with it through the
// solver's serial stretches between regions (multiplier sweeps,
// factorizations, restarts) until the last scope closes, and pools
// that never run a CG-regime solve (paper-scale windows, engines
// without operator QPs) never spin, as plain task pools do.  Spinners
// yield the CPU every 64 pauses: a woken worker may be placed on its
// waker's CPU, and a pool may have more threads than the host has
// free CPUs, so a spinner must give way to a solving thread it shares
// a CPU with.
//
// Constructed with zero threads the pool degrades to inline execution,
// which keeps single-threaded runs deterministic and trivially
// debuggable.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "linalg/parallel.hpp"
#include "obs/metric_cell.hpp"

namespace tme::engine {

class ThreadPool final : public linalg::BlockRunner {
  public:
    explicit ThreadPool(std::size_t threads) {
        workers_.reserve(threads);
        for (std::size_t i = 0; i < threads; ++i) {
            workers_.emplace_back([this] { worker(); });
        }
    }

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    ~ThreadPool() {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            stop_ = true;
            work_epoch_.fetch_add(1, std::memory_order_relaxed);
        }
        work_cv_.notify_all();
        for (std::thread& t : workers_) t.join();
    }

    std::size_t thread_count() const { return workers_.size(); }

    /// Runs all tasks and blocks until every one has finished (inline,
    /// in order, with zero workers).  Tasks must not throw.
    void run_batch(std::vector<std::function<void()>> tasks) {
        if (workers_.empty()) {
            for (auto& task : tasks) task();
            return;
        }
        {
            std::lock_guard<std::mutex> lock(mutex_);
            for (auto& task : tasks) queue_.push(std::move(task));
            pending_ += tasks.size();
            work_epoch_.fetch_add(1, std::memory_order_relaxed);
        }
        work_cv_.notify_all();
        std::unique_lock<std::mutex> lock(mutex_);
        done_cv_.wait(lock, [this] { return pending_ == 0; });
    }

    /// Kernel region: runs body over [0, blocks) with the caller and the
    /// currently spinning workers claiming blocks, and returns once all
    /// have finished.  Never allocates; body must not throw or open a
    /// nested region.
    void run(std::size_t blocks, linalg::BlockBody body) override {
        if (blocks == 0) return;
        ++regions_run_;
        Region region(blocks, body);
        bool shared = false;
        if (blocks > 1 && !workers_.empty()) {
            std::lock_guard<std::mutex> lock(mutex_);
            shared = spinning_ > 0;
            if (shared) {
                ++regions_shared_;
                link(region);
                work_epoch_.fetch_add(1, std::memory_order_relaxed);
            }
        }
        if (!shared) {
            body(0, blocks);
            return;
        }
        region.drain();
        finish(region);
    }

    /// Solve scope (linalg::SolveScope): idle workers spin, ready for
    /// regions, until the last open scope ends.  The first scope wakes
    /// the sleeping workers; no-ops on a zero-worker pool.
    void begin_solve() override {
        if (workers_.empty()) return;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (active_solves_++ > 0) return;
            work_epoch_.fetch_add(1, std::memory_order_relaxed);
        }
        work_cv_.notify_all();
    }
    void end_solve() override {
        if (workers_.empty()) return;
        std::lock_guard<std::mutex> lock(mutex_);
        // The last scope ends: spinning workers re-check and sleep.
        if (--active_solves_ == 0) {
            work_epoch_.fetch_add(1, std::memory_order_relaxed);
        }
    }

    /// Cumulative kernel-region counters: regions run (blocks > 0),
    /// regions offered to spinning workers, and blocks run by helpers
    /// (a region offered while its helpers are descheduled may get
    /// none).  Relaxed reads; exact once the regions have returned.
    struct KernelStats {
        std::size_t regions = 0;
        std::size_t regions_shared = 0;
        std::size_t helper_blocks = 0;
    };
    KernelStats kernel_stats() const {
        return {regions_run_.load(), regions_shared_.load(),
                helper_blocks_.load()};
    }

  private:
    /// One open region, on its caller's stack.  `next` hands out block
    /// indices; `helpers` counts workers currently inside drain().
    /// Helpers join only under mutex_ while the region is linked.
    struct Region {
        Region(std::size_t n, linalg::BlockBody b) : blocks(n), body(b) {}

        /// Claims and runs blocks until none is left; returns how many.
        std::size_t drain() {
            std::size_t ran = 0;
            for (std::size_t b = next.fetch_add(1, std::memory_order_relaxed);
                 b < blocks;
                 b = next.fetch_add(1, std::memory_order_relaxed)) {
                body(b, b + 1);
                ++ran;
            }
            return ran;
        }
        bool claimable() const {
            return next.load(std::memory_order_relaxed) < blocks;
        }

        const std::size_t blocks;
        const linalg::BlockBody body;
        std::atomic<std::size_t> next{0};
        std::atomic<std::size_t> helpers{0};
        Region* prev = nullptr;
        Region* succ = nullptr;
    };

    /// How long a region caller waiting for its helpers spins before
    /// blocking.
    static constexpr std::chrono::microseconds kIdleSpin{2000};

    static void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#elif defined(__aarch64__)
        asm volatile("yield");
#endif
    }

    /// Spins (yielding every 64 pauses) until done() or kIdleSpin has
    /// passed; returns done().
    template <class Pred>
    static bool spin_until(Pred done) {
        const auto deadline = std::chrono::steady_clock::now() + kIdleSpin;
        while (true) {
            for (int i = 0; i < 64; ++i) {
                if (done()) return true;
                cpu_relax();
            }
            if (std::chrono::steady_clock::now() >= deadline) return done();
            std::this_thread::yield();
        }
    }

    void link(Region& r) {  // under mutex_
        r.succ = regions_;
        if (regions_ != nullptr) regions_->prev = &r;
        regions_ = &r;
    }
    void unlink(Region& r) {  // under mutex_
        if (r.prev != nullptr) {
            r.prev->succ = r.succ;
        } else {
            regions_ = r.succ;
        }
        if (r.succ != nullptr) r.succ->prev = r.prev;
    }
    Region* claimable_region() const {  // under mutex_
        for (Region* r = regions_; r != nullptr; r = r->succ) {
            if (r->claimable()) return r;
        }
        return nullptr;
    }

    /// Unlinks the region, then waits for the helpers still inside it:
    /// a spin on the acquire count, then a blocking wait.  A helper's
    /// last touch of the region is its acq_rel decrement under mutex_,
    /// after which the caller may pop the region off its stack.
    void finish(Region& r) {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            unlink(r);
            if (r.helpers.load(std::memory_order_relaxed) == 0) return;
        }
        if (spin_until([&r] {
                return r.helpers.load(std::memory_order_acquire) == 0;
            })) {
            return;
        }
        std::unique_lock<std::mutex> lock(mutex_);
        region_cv_.wait(lock, [&r] {
            return r.helpers.load(std::memory_order_relaxed) == 0;
        });
    }

    void worker() {
        std::unique_lock<std::mutex> lock(mutex_);
        while (true) {
            if (!queue_.empty()) {
                std::function<void()> task = std::move(queue_.front());
                queue_.pop();
                lock.unlock();
                task();
                lock.lock();
                if (--pending_ == 0) done_cv_.notify_all();
                continue;
            }
            if (Region* r = claimable_region()) {
                r->helpers.fetch_add(1, std::memory_order_relaxed);
                lock.unlock();
                helper_blocks_ += r->drain();
                lock.lock();
                if (r->helpers.fetch_sub(1, std::memory_order_acq_rel) ==
                    1) {
                    region_cv_.notify_all();
                }
                continue;
            }
            if (stop_) return;
            if (active_solves_ > 0) {
                // Hot idle: watch for new work without the mutex.  Every
                // post, scope change and stop bumps work_epoch_ under
                // mutex_, so an unchanged epoch means nothing arrived.
                const std::size_t seen =
                    work_epoch_.load(std::memory_order_relaxed);
                ++spinning_;
                lock.unlock();
                for (unsigned i = 1;
                     work_epoch_.load(std::memory_order_relaxed) == seen; ++i) {
                    cpu_relax();
                    if (i % 64 == 0) std::this_thread::yield();
                }
                lock.lock();
                --spinning_;
                continue;
            }
            work_cv_.wait(lock, [this] {
                return stop_ || !queue_.empty() || active_solves_ > 0;
            });
        }
    }

    std::vector<std::thread> workers_;
    std::queue<std::function<void()>> queue_;
    std::mutex mutex_;
    std::condition_variable work_cv_;
    std::condition_variable done_cv_;
    std::condition_variable region_cv_;
    Region* regions_ = nullptr;  ///< open regions (intrusive list)
    std::size_t spinning_ = 0;   ///< workers in their hot-idle spin
    std::size_t active_solves_ = 0;  ///< open solve scopes
    /// Bumped under mutex_ on every task push, region link, first
    /// begin_solve, last end_solve and stop.
    std::atomic<std::size_t> work_epoch_{0};
    obs::MetricCell<std::size_t> regions_run_;
    obs::MetricCell<std::size_t> regions_shared_;
    obs::MetricCell<std::size_t> helper_blocks_;
    std::size_t pending_ = 0;
    bool stop_ = false;
};

}  // namespace tme::engine

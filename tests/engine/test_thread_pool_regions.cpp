// ThreadPool kernel regions (ThreadPool::run, the linalg::BlockRunner
// the operator QPs use) and solve scopes (begin_solve / end_solve,
// linalg::SolveScope): every block runs exactly once, the caller alone
// finishes a region when no worker is free, concurrent scopes, regions
// and run_batch() traffic coexist, idle workers stay with an open scope
// across gaps between its regions, the first scope wakes sleeping
// workers, and workers outside any scope sleep.
// Labelled `engine`, so the ThreadSanitizer lane runs it.
#include "engine/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "linalg/parallel.hpp"

namespace tme::engine {
namespace {

/// Runs one region and checks every block [0, blocks) ran exactly once.
void expect_each_block_once(ThreadPool& pool, std::size_t blocks) {
    std::vector<std::atomic<int>> hits(blocks);
    for (auto& h : hits) h.store(0, std::memory_order_relaxed);
    pool.run(blocks, [&](std::size_t b0, std::size_t b1) {
        ASSERT_LT(b0, b1);
        ASSERT_LE(b1, blocks);
        for (std::size_t b = b0; b < b1; ++b) {
            hits[b].fetch_add(1, std::memory_order_relaxed);
        }
    });
    for (std::size_t b = 0; b < blocks; ++b) {
        EXPECT_EQ(hits[b].load(std::memory_order_relaxed), 1) << "block " << b;
    }
}

void busy_wait(std::chrono::microseconds d) {
    const auto end = std::chrono::steady_clock::now() + d;
    while (std::chrono::steady_clock::now() < end) {
    }
}

/// Call inside a solve scope: a batch of busy tasks long enough for the
/// OS to spread the workers over CPUs (freshly woken threads may all
/// start on one); afterwards every worker spins, ready for regions,
/// until the scope ends.
void warm(ThreadPool& pool) {
    std::vector<std::function<void()>> tasks(pool.thread_count(), [] {
        busy_wait(std::chrono::milliseconds(5));
    });
    pool.run_batch(std::move(tasks));
}

/// Threads that ran blocks of one region of `blocks` slow blocks.
std::set<std::thread::id> region_threads(ThreadPool& pool,
                                         std::size_t blocks) {
    std::mutex m;
    std::set<std::thread::id> ids;
    pool.run(blocks, [&](std::size_t b0, std::size_t b1) {
        {
            std::lock_guard<std::mutex> lock(m);
            ids.insert(std::this_thread::get_id());
        }
        busy_wait(std::chrono::microseconds(100) * (b1 - b0));
    });
    return ids;
}

/// Whether a 16-block region ran as one call body(0, 16) on its caller.
bool runs_on_caller_alone(ThreadPool& pool) {
    const std::thread::id caller = std::this_thread::get_id();
    std::mutex m;
    std::vector<std::pair<std::size_t, std::size_t>> calls;
    bool on_caller = true;
    pool.run(16, [&](std::size_t b0, std::size_t b1) {
        std::lock_guard<std::mutex> lock(m);
        calls.emplace_back(b0, b1);
        on_caller = on_caller && std::this_thread::get_id() == caller;
    });
    return on_caller && calls.size() == 1 && calls[0].first == 0 &&
           calls[0].second == 16;
}

TEST(ThreadPoolRegions, ZeroWorkersRunInlineAsOneRange) {
    ThreadPool pool(0);
    const linalg::SolveScope scope(&pool);  // a no-op without workers
    std::vector<std::pair<std::size_t, std::size_t>> calls;
    const std::thread::id caller = std::this_thread::get_id();
    pool.run(16, [&](std::size_t b0, std::size_t b1) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        calls.emplace_back(b0, b1);
    });
    ASSERT_EQ(calls.size(), 1u);
    EXPECT_EQ(calls[0].first, 0u);
    EXPECT_EQ(calls[0].second, 16u);
    pool.run(0, [&](std::size_t, std::size_t) { FAIL() << "no blocks"; });
}

TEST(ThreadPoolRegions, OneBlockAndMoreBlocksThanWorkers) {
    ThreadPool pool(2);
    const linalg::SolveScope scope(&pool);
    warm(pool);
    expect_each_block_once(pool, 1);
    warm(pool);
    expect_each_block_once(pool, 2);
    warm(pool);
    expect_each_block_once(pool, 37);
    expect_each_block_once(pool, 1000);
}

// Inside a scope, idle workers keep spinning across gaps between
// regions longer than the 2 ms a region caller spins for its helpers
// (an active-set round boundary of the operator QP takes 4-8 ms), so
// every region after a gap is shared.  Retry a few times so a
// descheduled worker cannot fail the test; five gaps in a row keep a
// descheduled spinner from passing it for a timed spin.
TEST(ThreadPoolRegions, HelpersJoinRegionsAfterGapsInsideAScope) {
    ThreadPool pool(3);
    bool shared = false;
    for (int attempt = 0; attempt < 50 && !shared; ++attempt) {
        const linalg::SolveScope scope(&pool);
        warm(pool);
        shared = true;
        for (int gap = 0; gap < 5 && shared; ++gap) {
            busy_wait(std::chrono::milliseconds(5));
            shared = region_threads(pool, 16).size() > 1;
        }
    }
    EXPECT_TRUE(shared) << "workers left the scope at a gap";
    EXPECT_GT(pool.kernel_stats().regions_shared, 0u);
    EXPECT_GT(pool.kernel_stats().helper_blocks, 0u);
}

// Workers asleep (no scope open, no task queued) are woken by the
// first begin_solve(), with no task posted: regions of the scope are
// then shared.
TEST(ThreadPoolRegions, BeginSolveWakesSleepingWorkers) {
    ThreadPool pool(2);
    bool shared = false;
    for (int attempt = 0; attempt < 20 && !shared; ++attempt) {
        warm(pool);  // outside a scope: the workers then sleep
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        const linalg::SolveScope scope(&pool);
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::milliseconds(200);
        while (!shared && std::chrono::steady_clock::now() < deadline) {
            shared = region_threads(pool, 16).size() > 1;
        }
    }
    EXPECT_TRUE(shared) << "begin_solve never woke a sleeping worker";
}

// After the last of several (nested) scopes ends, the workers go to
// sleep on their own: with no region or task in between, the first
// region opened a while later runs on its caller alone, and so does
// every later one.
TEST(ThreadPoolRegions, WorkersSleepAfterTheLastScopeEnds) {
    ThreadPool pool(3);
    bool alone = false;
    for (int attempt = 0; attempt < 20 && !alone; ++attempt) {
        {
            const linalg::SolveScope outer(&pool);
            {
                const linalg::SolveScope inner(&pool);
                warm(pool);
            }
            // The outer scope still holds the workers.
            bool shared = false;
            for (int i = 0; i < 50 && !shared; ++i) {
                shared = region_threads(pool, 16).size() > 1;
            }
            EXPECT_TRUE(shared) << "the inner scope's end released them";
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        alone = runs_on_caller_alone(pool);
    }
    ASSERT_TRUE(alone) << "workers kept spinning after the last scope";
    const std::size_t helper_blocks = pool.kernel_stats().helper_blocks;
    for (int rep = 0; rep < 100; ++rep) {
        busy_wait(std::chrono::microseconds(50));
        EXPECT_TRUE(runs_on_caller_alone(pool)) << "region " << rep;
    }
    EXPECT_EQ(pool.kernel_stats().helper_blocks, helper_blocks);
}

// Workers of a pool with no scope open go to sleep right after their
// tasks instead of spinning, so the next region runs on its caller
// alone.  (The last worker to finish releases the mutex only in its
// condition-variable wait, so run_batch cannot return first.)
TEST(ThreadPoolRegions, WorkersOutsideAnyScopeSleepAtOnce) {
    ThreadPool pool(2);
    std::vector<std::function<void()>> tasks(pool.thread_count(), [] {
        busy_wait(std::chrono::milliseconds(5));
    });
    pool.run_batch(std::move(tasks));
    const std::thread::id caller = std::this_thread::get_id();
    std::size_t calls = 0;
    pool.run(16, [&](std::size_t b0, std::size_t b1) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        EXPECT_EQ(b0, 0u);
        EXPECT_EQ(b1, 16u);
        ++calls;
    });
    EXPECT_EQ(calls, 1u);
}

// A region opened from a run_batch task while every worker is busy
// must complete on its caller alone — no deadlock, no helper.
TEST(ThreadPoolRegions, RegionFromTaskWithEveryWorkerBusyRunsOnCaller) {
    ThreadPool pool(2);
    std::atomic<int> started{0};
    std::atomic<bool> region_done{false};
    std::set<std::thread::id> ids;
    std::thread::id region_caller;
    std::vector<std::function<void()>> tasks;
    tasks.push_back([&] {
        started.fetch_add(1, std::memory_order_acq_rel);
        while (started.load(std::memory_order_acquire) < 2) {
        }
        region_caller = std::this_thread::get_id();
        std::mutex m;
        pool.run(64, [&](std::size_t, std::size_t) {
            std::lock_guard<std::mutex> lock(m);
            ids.insert(std::this_thread::get_id());
        });
        region_done.store(true, std::memory_order_release);
    });
    tasks.push_back([&] {
        started.fetch_add(1, std::memory_order_acq_rel);
        while (!region_done.load(std::memory_order_acquire)) {
        }
    });
    pool.run_batch(std::move(tasks));
    ASSERT_EQ(ids.size(), 1u);
    EXPECT_EQ(*ids.begin(), region_caller);
}

// Two tasks, each in its own scope, open regions concurrently; the
// first scope to end must not release the workers the other still
// uses, and every region computes its own output.
TEST(ThreadPoolRegions, ConcurrentScopesFromTwoTasks) {
    ThreadPool pool(4);
    constexpr std::size_t kBlocks = 16;
    std::atomic<int> errors{0};
    auto task = [&pool, &errors](std::size_t salt, int reps) {
        const linalg::SolveScope scope(&pool);
        std::vector<std::size_t> out(kBlocks * 8);
        for (int rep = 0; rep < reps; ++rep) {
            std::fill(out.begin(), out.end(), 0);
            pool.run(kBlocks, [&](std::size_t b0, std::size_t b1) {
                for (std::size_t i = b0 * 8; i < b1 * 8; ++i) {
                    out[i] = i * salt + static_cast<std::size_t>(rep);
                }
            });
            for (std::size_t i = 0; i < out.size(); ++i) {
                if (out[i] != i * salt + static_cast<std::size_t>(rep)) {
                    errors.fetch_add(1, std::memory_order_relaxed);
                }
            }
        }
    };
    std::vector<std::function<void()>> tasks;
    tasks.push_back([&] { task(3, 150); });
    tasks.push_back([&] { task(5, 300); });
    pool.run_batch(std::move(tasks));
    EXPECT_EQ(errors.load(std::memory_order_relaxed), 0);
    EXPECT_EQ(pool.kernel_stats().regions, 450u);
}

// Engine-shaped traffic: a test thread runs batches of tasks that each
// open tiny scopes around tiny regions, while the main thread opens
// scopes and regions of its own; every third region runs outside any
// scope.
TEST(ThreadPoolRegions, StressTinyScopesAndRegionsMixedWithBatches) {
    ThreadPool pool(3);
    constexpr int kRegions = 10000;
    constexpr int kTasks = 40;
    constexpr int kBatch = 4;
    std::atomic<long> blocks_run{0};
    std::atomic<int> tasks_done{0};
    std::atomic<int> ticket{0};
    auto region = [&pool, &blocks_run, &ticket](std::size_t blocks) {
        const bool scoped =
            ticket.fetch_add(1, std::memory_order_relaxed) % 3 != 0;
        const linalg::SolveScope scope(scoped ? &pool : nullptr);
        pool.run(blocks, [&blocks_run](std::size_t b0, std::size_t b1) {
            blocks_run.fetch_add(static_cast<long>(b1 - b0),
                          std::memory_order_relaxed);
        });
    };
    std::thread batches([&] {
        for (int b = 0; b < kTasks / kBatch; ++b) {
            std::vector<std::function<void()>> tasks;
            for (int t = 0; t < kBatch; ++t) {
                tasks.push_back([&] {
                    for (int i = 0; i < kRegions / (2 * kTasks); ++i) {
                        region(4);
                    }
                    tasks_done.fetch_add(1, std::memory_order_release);
                });
            }
            pool.run_batch(std::move(tasks));
        }
    });
    int opened = 0;
    for (int i = 0; i < kRegions / 2; ++i) {
        region(1 + static_cast<std::size_t>(i % 5));
        opened += 1 + i % 5;
    }
    batches.join();
    EXPECT_EQ(tasks_done.load(std::memory_order_acquire), kTasks);
    EXPECT_EQ(blocks_run.load(std::memory_order_relaxed),
              static_cast<long>(opened) + 4L * (kRegions / 2));
    const ThreadPool::KernelStats stats = pool.kernel_stats();
    EXPECT_EQ(stats.regions, static_cast<std::size_t>(kRegions));
    EXPECT_LE(stats.regions_shared, stats.regions);
    EXPECT_LE(stats.helper_blocks,
              static_cast<std::size_t>(
                  blocks_run.load(std::memory_order_relaxed)));
}

}  // namespace
}  // namespace tme::engine

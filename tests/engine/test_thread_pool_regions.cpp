// ThreadPool kernel regions (ThreadPool::run, the linalg::BlockRunner
// the operator QPs use): every block runs exactly once, the caller
// alone finishes a region when no worker is free, concurrent regions
// and submit() traffic coexist, spinning workers do join in, and a pool
// that never opened a region does not spin.
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

/// A region (which marks the pool as one that runs kernels), then a
/// batch of no-op tasks: afterwards every worker is in its hot-idle
/// spin, i.e. available to the next region.
void warm(ThreadPool& pool) {
    pool.run(2, [](std::size_t, std::size_t) {});
    std::vector<std::function<void()>> tasks(pool.thread_count(), [] {});
    pool.run_batch(std::move(tasks));
}

void busy_wait(std::chrono::microseconds d) {
    const auto end = std::chrono::steady_clock::now() + d;
    while (std::chrono::steady_clock::now() < end) {
    }
}

TEST(ThreadPoolRegions, ZeroWorkersRunInlineAsOneRange) {
    ThreadPool pool(0);
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
    warm(pool);
    expect_each_block_once(pool, 1);
    warm(pool);
    expect_each_block_once(pool, 2);
    warm(pool);
    expect_each_block_once(pool, 37);
    expect_each_block_once(pool, 1000);
}

TEST(ThreadPoolRegions, SpinningWorkersJoinARegion) {
    ThreadPool pool(3);
    // One task opens a tiny region at once, as an operator solve does
    // long before its siblings finish, and a region of slow blocks just
    // after its two sibling tasks returned, i.e. while their workers
    // spin in hot idle.  The
    // siblings run long enough for the OS to spread the three workers
    // over separate CPUs first (freshly woken threads may all start on
    // one).  Retry a few times so a descheduled worker cannot fail the
    // test.
    bool shared = false;
    for (int attempt = 0; attempt < 50 && !shared; ++attempt) {
        std::atomic<int> finished{0};
        std::mutex m;
        std::set<std::thread::id> ids;
        std::vector<std::function<void()>> tasks;
        tasks.push_back([&] {
            pool.run(2, [](std::size_t, std::size_t) {});
            while (finished.load(std::memory_order_acquire) < 2) {
            }
            busy_wait(std::chrono::microseconds(50));
            pool.run(16, [&](std::size_t b0, std::size_t b1) {
                {
                    std::lock_guard<std::mutex> lock(m);
                    ids.insert(std::this_thread::get_id());
                }
                busy_wait(std::chrono::microseconds(200) * (b1 - b0));
            });
        });
        for (int i = 0; i < 2; ++i) {
            tasks.push_back([&] {
                busy_wait(std::chrono::milliseconds(20));
                finished.fetch_add(1, std::memory_order_release);
            });
        }
        pool.run_batch(std::move(tasks));
        shared = ids.size() > 1;
    }
    EXPECT_TRUE(shared) << "no worker ever joined a region";
}

// Workers of a pool that has never opened a region go to sleep right
// after their tasks instead of spinning, so the first region runs on
// its caller alone.  (The last worker to finish releases the mutex only
// in its condition-variable wait, so run_batch cannot return first.)
TEST(ThreadPoolRegions, WorkersOfARegionFreePoolSleepAtOnce) {
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

TEST(ThreadPoolRegions, ConcurrentRegionsFromTwoTasks) {
    ThreadPool pool(4);
    constexpr std::size_t kBlocks = 16;
    std::atomic<int> errors{0};
    auto task = [&pool, &errors](std::size_t salt) {
        std::vector<std::size_t> out(kBlocks * 8);
        for (int rep = 0; rep < 300; ++rep) {
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
    tasks.push_back([&] { task(3); });
    tasks.push_back([&] { task(5); });
    pool.run_batch(std::move(tasks));
    EXPECT_EQ(errors.load(std::memory_order_relaxed), 0);
}

// Pipeline-shaped traffic: free-running submit() tasks that each open
// tiny regions, interleaved with regions opened by the submitting
// thread itself.
TEST(ThreadPoolRegions, StressTinyRegionsMixedWithSubmit) {
    ThreadPool pool(3);
    constexpr int kRegions = 10000;
    constexpr int kTasks = 40;
    std::atomic<long> blocks_run{0};
    std::atomic<int> tasks_done{0};
    auto region = [&pool, &blocks_run](std::size_t blocks) {
        pool.run(blocks, [&blocks_run](std::size_t b0, std::size_t b1) {
            blocks_run.fetch_add(static_cast<long>(b1 - b0),
                          std::memory_order_relaxed);
        });
    };
    int opened = 0;
    for (int t = 0; t < kTasks; ++t) {
        pool.submit([&] {
            for (int i = 0; i < kRegions / (2 * kTasks); ++i) region(4);
            tasks_done.fetch_add(1, std::memory_order_release);
        });
        for (int i = 0; i < kRegions / (2 * kTasks); ++i) {
            region(1 + static_cast<std::size_t>(i % 5));
            opened += 1 + i % 5;
        }
    }
    pool.wait_idle();
    EXPECT_EQ(tasks_done.load(std::memory_order_acquire), kTasks);
    EXPECT_EQ(blocks_run.load(std::memory_order_relaxed),
              static_cast<long>(opened) + 4L * (kRegions / 2));
}

}  // namespace
}  // namespace tme::engine

#include "common/thread_pool.h"

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

namespace colossal {
namespace {

TEST(ResolveNumThreadsTest, ExplicitCountsPassThrough) {
  EXPECT_EQ(ResolveNumThreads(1), 1);
  EXPECT_EQ(ResolveNumThreads(7), 7);
}

TEST(ResolveNumThreadsTest, AbsurdRequestsClampInsteadOfCrashing) {
  // std::thread throws std::system_error once the OS refuses; resolution
  // must clamp long before that.
  EXPECT_LE(ResolveNumThreads(500000), 512);
  EXPECT_GE(ResolveNumThreads(500000), 1);
}

TEST(ResolveNumThreadsTest, ZeroResolvesToAtLeastOne) {
  EXPECT_GE(ResolveNumThreads(0), 1);
}

TEST(ThreadPoolTest, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
  constexpr int64_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  pool.ParallelFor(kN, [&](int64_t i) {
    hits[static_cast<size_t>(i)].fetch_add(1);
  });
  for (int64_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[static_cast<size_t>(i)].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ZeroTasksReturnsImmediately) {
  ThreadPool pool(3);
  bool ran = false;
  pool.ParallelFor(0, [&](int64_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPoolTest, SingleThreadRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen(5);
  pool.ParallelFor(5, [&](int64_t i) {
    seen[static_cast<size_t>(i)] = std::this_thread::get_id();
  });
  for (const std::thread::id& id : seen) EXPECT_EQ(id, caller);
}

TEST(ThreadPoolTest, ResultsIndependentOfTaskOrdering) {
  // Slot-indexed outputs must not depend on which worker ran which index
  // or in what order: the same map over any pool size is identical.
  auto square = [](int64_t i) { return i * i; };
  ThreadPool one(1);
  ThreadPool four(4);
  const std::vector<int64_t> serial = ParallelMap(nullptr, 200, square);
  const std::vector<int64_t> single = ParallelMap(&one, 200, square);
  const std::vector<int64_t> sharded = ParallelMap(&four, 200, square);
  EXPECT_EQ(serial, single);
  EXPECT_EQ(serial, sharded);
}

TEST(ThreadPoolTest, PropagatesExceptionToCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.ParallelFor(100,
                       [](int64_t i) {
                         if (i == 37) throw std::runtime_error("boom");
                       }),
      std::runtime_error);
  // The pool must stay usable after a failed loop.
  std::atomic<int64_t> sum{0};
  pool.ParallelFor(10, [&](int64_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 45);
}

TEST(ThreadPoolTest, ExceptionCancelsRemainingWork) {
  // Every body throws, so each driver's first body sets the cancelled
  // flag and the driver stops fetching: at most one execution per
  // driver, regardless of scheduling.
  ThreadPool pool(2);
  std::atomic<int64_t> executed{0};
  try {
    pool.ParallelFor(1000000, [&](int64_t) {
      executed.fetch_add(1);
      throw std::runtime_error("early");
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error&) {
  }
  EXPECT_LE(executed.load(), 2);
  EXPECT_GE(executed.load(), 1);
}

TEST(ThreadPoolTest, SubmitRunsDetachedTasks) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 16; ++i) {
      pool.Submit([&done] { done.fetch_add(1); });
    }
    // Destructor joins after draining already-queued tasks.
  }
  EXPECT_EQ(done.load(), 16);
}

TEST(ParallelForFreeFunctionTest, NullPoolRunsInlineInOrder) {
  std::vector<int64_t> order;
  ParallelFor(nullptr, 5, [&](int64_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<int64_t>{0, 1, 2, 3, 4}));
}

TEST(ParallelMapTest, MapsOverLargeRangeWithManyThreads) {
  ThreadPool pool(8);
  const std::vector<int64_t> mapped =
      ParallelMap(&pool, 10000, [](int64_t i) { return i + 1; });
  const int64_t total = std::accumulate(mapped.begin(), mapped.end(),
                                        int64_t{0});
  EXPECT_EQ(total, int64_t{10000} * 10001 / 2);
}

}  // namespace
}  // namespace colossal

#include <gtest/gtest.h>
#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <latch>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "support/hash.h"
#include "support/interner.h"
#include "support/rng.h"
#include "support/strings.h"
#include "support/table.h"
#include "support/thread_pool.h"

namespace kizzle {
namespace {

// ----------------------------------------------------------------- Rng --

TEST(Rng, DeterministicFromSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.uniform(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
}

TEST(Rng, UniformSingleValue) {
  Rng rng(7);
  EXPECT_EQ(rng.uniform(5, 5), 5u);
}

TEST(Rng, UniformRejectsInvertedBounds) {
  Rng rng(7);
  EXPECT_THROW(rng.uniform(3, 2), std::invalid_argument);
}

TEST(Rng, UniformCoversRange) {
  Rng rng(3);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform(0, 4));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, IndexRejectsZero) {
  Rng rng(7);
  EXPECT_THROW(rng.index(0), std::invalid_argument);
}

TEST(Rng, RealInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.real();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, ChanceExtremes) {
  Rng rng(11);
  EXPECT_FALSE(rng.chance(0.0));
  EXPECT_TRUE(rng.chance(1.0));
}

TEST(Rng, ChanceIsRoughlyCalibrated) {
  Rng rng(13);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) {
    if (rng.chance(0.3)) ++hits;
  }
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(Rng, PickThrowsOnEmpty) {
  Rng rng(1);
  std::vector<int> empty;
  EXPECT_THROW(rng.pick(empty), std::invalid_argument);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(5);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, IdentifierShape) {
  Rng rng(17);
  for (int i = 0; i < 200; ++i) {
    const std::string id = rng.identifier(3, 8);
    ASSERT_GE(id.size(), 3u);
    ASSERT_LE(id.size(), 8u);
    EXPECT_FALSE(id[0] >= '0' && id[0] <= '9') << id;
  }
}

TEST(Rng, StringOverUsesAlphabetOnly) {
  Rng rng(19);
  const std::string s = rng.string_over("ab", 500);
  EXPECT_EQ(s.find_first_not_of("ab"), std::string::npos);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(23);
  Rng fork = a.fork();
  // The fork's stream should not be identical to the parent's.
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == fork.next()) ++same;
  }
  EXPECT_LT(same, 2);
}

// ---------------------------------------------------------------- hash --

TEST(Hash, Fnv1aKnownValue) {
  // FNV-1a 64 of empty input is the offset basis.
  EXPECT_EQ(fnv1a64(std::string_view("")), 0xCBF29CE484222325ull);
  EXPECT_NE(fnv1a64(std::string_view("a")), fnv1a64(std::string_view("b")));
}

TEST(Hash, RollingMatchesRecompute) {
  const std::vector<std::uint32_t> data = {5, 9, 2, 7, 7, 1, 3, 8, 2, 4};
  RollingHash rh(3);
  std::vector<std::uint64_t> rolled = rh.all(data);
  ASSERT_EQ(rolled.size(), data.size() - 2);
  for (std::size_t i = 0; i + 3 <= data.size(); ++i) {
    RollingHash fresh(3);
    const std::uint64_t direct =
        fresh.init(std::span<const std::uint32_t>(data).subspan(i, 3));
    EXPECT_EQ(rolled[i], direct) << "window " << i;
  }
}

TEST(Hash, RollingWindowOfOne) {
  const std::vector<std::uint32_t> data = {1, 2, 3};
  RollingHash rh(1);
  const auto all = rh.all(data);
  ASSERT_EQ(all.size(), 3u);
  EXPECT_NE(all[0], all[1]);
}

TEST(Hash, RollingRejectsZeroWindow) {
  EXPECT_THROW(RollingHash(0), std::invalid_argument);
}

TEST(Hash, RollingShortInputYieldsNothing) {
  const std::vector<std::uint32_t> data = {1, 2};
  RollingHash rh(5);
  EXPECT_TRUE(rh.all(data).empty());
}

// ------------------------------------------------------------ interner --

TEST(Interner, AssignsDenseIdsInOrder) {
  Interner in;
  EXPECT_EQ(in.intern("alpha"), 0u);
  EXPECT_EQ(in.intern("beta"), 1u);
  EXPECT_EQ(in.intern("alpha"), 0u);
  EXPECT_EQ(in.size(), 2u);
}

TEST(Interner, TextRoundTrip) {
  Interner in;
  const auto id = in.intern("hello");
  EXPECT_EQ(in.text(id), "hello");
}

TEST(Interner, FindMissingReturnsNone) {
  Interner in;
  EXPECT_EQ(in.find("nope"), Interner::kNone);
}

TEST(Interner, TextThrowsOnUnknownId) {
  Interner in;
  EXPECT_THROW(in.text(12), std::out_of_range);
}

// --------------------------------------------------------- thread pool --

TEST(ThreadPool, ParallelForRunsEverything) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for(100, [&](std::size_t i) { hits[i]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(pool.wait(), std::runtime_error);
}

TEST(ThreadPool, WaitIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.submit([&] { ++count; });
  pool.wait();
  pool.submit([&] { ++count; });
  pool.wait();
  EXPECT_EQ(count.load(), 2);
}

// Regression: parallel_for batches carry per-call completion latches, so
// concurrent batches sharing one pool cannot steal each other's completion
// — every batch must observe all of its own tasks done at return, even
// with many batches interleaved from different threads.
TEST(ThreadPool, ConcurrentBatchesOnOnePoolAreIsolated) {
  ThreadPool pool(4);
  constexpr int kBatches = 8;
  constexpr std::size_t kTasks = 64;
  std::atomic<int> incomplete_batches{0};
  std::vector<std::thread> callers;
  for (int b = 0; b < kBatches; ++b) {
    callers.emplace_back([&pool, &incomplete_batches] {
      for (int round = 0; round < 5; ++round) {
        std::vector<std::atomic<int>> hits(kTasks);
        pool.parallel_for(kTasks, [&hits](std::size_t i) { hits[i]++; });
        // parallel_for returned: THIS batch must be fully done.
        for (const auto& h : hits) {
          if (h.load() != 1) incomplete_batches.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(incomplete_batches.load(), 0);
}

// Each concurrent batch sees (only) its own first-thrown exception.
TEST(ThreadPool, ConcurrentBatchExceptionsStayWithTheirBatch) {
  ThreadPool pool(4);
  std::atomic<int> wrong{0};
  std::vector<std::thread> callers;
  for (int b = 0; b < 6; ++b) {
    const bool should_throw = b % 2 == 0;
    callers.emplace_back([&pool, &wrong, should_throw] {
      for (int round = 0; round < 5; ++round) {
        bool threw = false;
        try {
          pool.parallel_for(16, [should_throw](std::size_t i) {
            if (should_throw && i == 7) throw std::runtime_error("boom");
          });
        } catch (const std::runtime_error&) {
          threw = true;
        }
        if (threw != should_throw) wrong.fetch_add(1);
      }
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(wrong.load(), 0);
}

// The CPUs of the calling thread's affinity mask.
std::set<int> own_cpus() {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  EXPECT_EQ(pthread_getaffinity_np(pthread_self(), sizeof(mask), &mask), 0);
  std::set<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &mask)) cpus.insert(cpu);
  }
  return cpus;
}

// Each worker's affinity mask, observed from inside the worker: n tasks
// that all wait for each other must run on n distinct workers.
std::vector<std::set<int>> worker_masks(ThreadPool& pool) {
  const std::size_t n = pool.size();
  std::latch all_running(static_cast<std::ptrdiff_t>(n));
  std::mutex mu;
  std::vector<std::set<int>> masks;
  pool.parallel_for(n, [&](std::size_t) {
    all_running.arrive_and_wait();
    std::set<int> mine = own_cpus();
    std::lock_guard<std::mutex> lock(mu);
    masks.push_back(std::move(mine));
  });
  return masks;
}

TEST(ThreadPool, WorkersArePinnedToDistinctCpusOfTheCreatorsMask) {
  const std::set<int> creator = own_cpus();
  ASSERT_FALSE(creator.empty());
  // One worker more than CPUs (capped), so the wrap-around is exercised.
  ThreadPool pool(std::min<std::size_t>(creator.size(), 8) + 1);
  std::set<int> distinct;
  for (const std::set<int>& mask : worker_masks(pool)) {
    ASSERT_EQ(mask.size(), 1u);
    EXPECT_TRUE(creator.contains(*mask.begin()));
    distinct.insert(*mask.begin());
  }
  EXPECT_EQ(distinct.size(), std::min(pool.size(), creator.size()));
}

TEST(ThreadPool, OneCpuCreatorKeepsItsCpuForEveryWorker) {
  const int cpu = *own_cpus().begin();
  std::vector<std::set<int>> masks;
  // The one-CPU mask is set on a thread of the test's own, so the rest of
  // the suite keeps its affinity.
  std::thread creator([&] {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    ASSERT_EQ(pthread_setaffinity_np(pthread_self(), sizeof(one), &one), 0);
    ThreadPool pool(3);
    masks = worker_masks(pool);
  });
  creator.join();
  ASSERT_EQ(masks.size(), 3u);
  for (const std::set<int>& mask : masks) {
    EXPECT_EQ(mask, std::set<int>{cpu});
  }
}

// ------------------------------------------------------------- strings --

TEST(Strings, SplitKeepsEmptyFields) {
  const auto parts = split("a,,b", ",");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[1], "");
}

TEST(Strings, SplitMultiCharDelim) {
  const auto parts = split("47y642y6100y6", "y6");
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "47");
  EXPECT_EQ(parts[3], "");
}

TEST(Strings, JoinInvertsSplit) {
  EXPECT_EQ(join({"a", "b", "c"}, "-"), "a-b-c");
  EXPECT_EQ(join({}, "-"), "");
}

TEST(Strings, ReplaceAll) {
  EXPECT_EQ(replace_all("ababa", "a", "xx"), "xxbxxbxx");
  EXPECT_EQ(replace_all("none", "zz", "y"), "none");
}

TEST(Strings, StartsEndsWith) {
  EXPECT_TRUE(starts_with("kizzle", "ki"));
  EXPECT_FALSE(starts_with("k", "ki"));
  EXPECT_TRUE(ends_with("kizzle", "le"));
  EXPECT_FALSE(ends_with("e", "le"));
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  a b \n"), "a b");
  EXPECT_EQ(trim("\t\r\n"), "");
}

TEST(Strings, AllDigits) {
  EXPECT_TRUE(all_digits("0123"));
  EXPECT_FALSE(all_digits(""));
  EXPECT_FALSE(all_digits("12a"));
}

TEST(Strings, FormatPercent) {
  EXPECT_EQ(format_percent(0.0312, 2), "3.12%");
  EXPECT_EQ(format_percent(0.0, 1), "0.0%");
}

// --------------------------------------------------------------- table --

TEST(Table, RendersAlignedColumns) {
  Table t({"kit", "count"});
  t.add_row({"Nuclear", "6106"});
  t.add_row({"RIG", "1409"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("Nuclear"), std::string::npos);
  EXPECT_NE(s.find("1409"), std::string::npos);
}

TEST(Table, RejectsMisshapenRow) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, CsvOutput) {
  Table t({"a", "b"});
  t.add_row({"1", "2"});
  EXPECT_EQ(t.to_csv(), "a,b\n1,2\n");
}

}  // namespace
}  // namespace kizzle

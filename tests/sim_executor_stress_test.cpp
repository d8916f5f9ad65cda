// Stress tests for the wait-free round handoff in sim::ShardExecutor: many
// back-to-back rounds of randomized tiny jobs across a wide pool, exercising
// the seqlock publication path, the tagged CAS index distribution, the
// spin-then-park sleep/wake cycle (tiny jobs make workers park between
// rounds), the serial path of a 1-worker pool, and deterministic exception
// selection.
// Run under TSan in CI — the protocol's memory ordering is the test subject.

#include "sim/shard_executor.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace {

using calciom::sim::ShardExecutor;

/// Deterministic per-round size in [1, 17): small enough that workers park
/// between rounds, varied enough to hit every claim/chunk shape.
std::size_t roundSize(std::uint64_t round) {
  std::uint64_t x = round * 0x9E3779B97F4A7C15ull;
  x ^= x >> 33;
  return 1 + static_cast<std::size_t>(x % 16);
}

// 1000 rounds x 8 workers x randomized tiny jobs: every index must run
// exactly once per round, and the done-count completion must never hang on
// a parked worker. Every round of two or more indices goes through the
// pool (1-index rounds run on the caller), so the handoff itself is what
// gets hammered.
TEST(ShardExecutorStressTest, ThousandTinyRoundsEveryIndexExactlyOnce) {
  ShardExecutor exec(8);
  ASSERT_EQ(exec.workers(), 8u);
  std::vector<std::atomic<std::uint32_t>> hits(16);
  for (std::uint64_t round = 0; round < 1000; ++round) {
    const std::size_t n = roundSize(round);
    for (auto& h : hits) {
      h.store(0, std::memory_order_relaxed);
    }
    exec.parallelFor(n, [&hits](std::size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      ASSERT_EQ(hits[i].load(std::memory_order_relaxed), i < n ? 1u : 0u)
          << "round " << round << " index " << i;
    }
  }
}

// Larger rounds so multiple workers genuinely claim chunks concurrently:
// the total and the per-index exactly-once invariant both hold.
TEST(ShardExecutorStressTest, WideRoundsDistributeAllIndices) {
  ShardExecutor exec(8);
  constexpr std::size_t kN = 4096;
  std::vector<std::atomic<std::uint32_t>> hits(kN);
  std::atomic<std::uint64_t> sum{0};
  for (int round = 0; round < 50; ++round) {
    for (auto& h : hits) {
      h.store(0, std::memory_order_relaxed);
    }
    sum.store(0, std::memory_order_relaxed);
    exec.parallelFor(kN, [&](std::size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
      sum.fetch_add(i, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[i].load(std::memory_order_relaxed), 1u);
    }
    EXPECT_EQ(sum.load(std::memory_order_relaxed), kN * (kN - 1) / 2);
  }
}

// The lowest-index exception is rethrown regardless of which thread ran the
// throwing index, and the executor stays usable for later rounds.
TEST(ShardExecutorStressTest, LowestIndexExceptionWinsAndPoolSurvives) {
  ShardExecutor exec(8);
  for (int round = 0; round < 100; ++round) {
    try {
      exec.parallelFor(64, [round](std::size_t i) {
        if (i % 7 == static_cast<std::size_t>(round % 7)) {
          throw std::runtime_error("idx" + std::to_string(i));
        }
      });
      FAIL() << "round " << round << " did not throw";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()),
                "idx" + std::to_string(round % 7))
          << "round " << round;
    }
  }
  // Still alive: a clean round after 100 throwing ones.
  std::atomic<std::uint32_t> ran{0};
  exec.parallelFor(32, [&ran](std::size_t) {
    ran.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(ran.load(), 32u);
}

// A 1-worker pool runs every round on the caller; the exactly-once and
// lowest-exception semantics must be identical to the parallel path: every
// index runs even after one threw, and the lowest throwing index surfaces.
TEST(ShardExecutorStressTest, SerialFastPathKeepsSemantics) {
  ShardExecutor exec(1);
  ASSERT_EQ(exec.workers(), 1u);
  std::vector<std::atomic<std::uint32_t>> hits(64);
  for (auto& h : hits) {
    h.store(0, std::memory_order_relaxed);
  }
  exec.parallelFor(64, [&hits](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_EQ(hits[i].load(std::memory_order_relaxed), 1u);
  }
  std::size_t ran = 0;
  try {
    exec.parallelFor(8, [&ran](std::size_t i) {
      ++ran;
      if (i >= 3) {
        throw std::logic_error("idx" + std::to_string(i));
      }
    });
    FAIL() << "serial round did not throw";
  } catch (const std::logic_error& e) {
    EXPECT_EQ(std::string(e.what()), "idx3");
  }
  EXPECT_EQ(ran, 8u);
}

// Destruction races: pools torn down immediately after tiny rounds (workers
// possibly still spinning toward park) must shut down cleanly. TSan is the
// real assertion here.
TEST(ShardExecutorStressTest, RapidConstructDestroyCycles) {
  for (int cycle = 0; cycle < 50; ++cycle) {
    ShardExecutor exec(4);
    std::atomic<std::uint32_t> ran{0};
    exec.parallelFor(3, [&ran](std::size_t) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 3u);
  }
}

}  // namespace

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>

#include "src/util/bytes.h"
#include "src/util/random.h"
#include "src/util/stats.h"
#include "src/util/thread_pool.h"

namespace vuvuzela::util {
namespace {

TEST(Hex, RoundTrip) {
  Bytes data = {0x00, 0x01, 0xab, 0xff, 0x7f};
  std::string hex = HexEncode(data);
  EXPECT_EQ(hex, "0001abff7f");
  EXPECT_EQ(HexDecode(hex), data);
}

TEST(Hex, EmptyInput) {
  EXPECT_EQ(HexEncode({}), "");
  EXPECT_TRUE(HexDecode("").empty());
}

TEST(Hex, UppercaseAccepted) { EXPECT_EQ(HexDecode("AB"), Bytes{0xab}); }

TEST(Hex, RejectsOddLength) { EXPECT_THROW(HexDecode("abc"), std::invalid_argument); }

TEST(Hex, RejectsNonHex) { EXPECT_THROW(HexDecode("zz"), std::invalid_argument); }

TEST(ConstantTimeEqual, Basics) {
  Bytes a = {1, 2, 3};
  Bytes b = {1, 2, 3};
  Bytes c = {1, 2, 4};
  Bytes d = {1, 2};
  EXPECT_TRUE(ConstantTimeEqual(a, b));
  EXPECT_FALSE(ConstantTimeEqual(a, c));
  EXPECT_FALSE(ConstantTimeEqual(a, d));
  EXPECT_TRUE(ConstantTimeEqual({}, {}));
}

TEST(SecureZero, Zeroes) {
  Bytes buf = {1, 2, 3, 4};
  SecureZero(buf);
  EXPECT_EQ(buf, Bytes(4, 0));
}

TEST(Concat, MultipleSpans) {
  Bytes a = {1, 2};
  Bytes b = {3};
  Bytes c = {4, 5, 6};
  EXPECT_EQ(Concat(a, b, c), (Bytes{1, 2, 3, 4, 5, 6}));
}

TEST(Endian, RoundTrips) {
  uint8_t buf[8];
  StoreLe64(buf, 0x0123456789abcdefULL);
  EXPECT_EQ(LoadLe64(buf), 0x0123456789abcdefULL);
  StoreBe64(buf, 0x0123456789abcdefULL);
  EXPECT_EQ(LoadBe64(buf), 0x0123456789abcdefULL);
  EXPECT_EQ(buf[0], 0x01);  // big-endian: most significant byte first
  StoreLe32(buf, 0xdeadbeef);
  EXPECT_EQ(LoadLe32(buf), 0xdeadbeefu);
  StoreBe32(buf, 0xdeadbeef);
  EXPECT_EQ(LoadBe32(buf), 0xdeadbeefu);
}

TEST(SystemRng, ProducesDistinctValues) {
  SystemRng rng;
  uint64_t a = rng.NextUint64();
  uint64_t b = rng.NextUint64();
  // Probability of collision is 2^-64; a failure here means the RNG is broken.
  EXPECT_NE(a, b);
}

TEST(SystemRng, FillsWholeBuffer) {
  SystemRng rng;
  Bytes buf(1024, 0);
  rng.Fill(buf);
  int zeros = 0;
  for (uint8_t x : buf) {
    zeros += (x == 0);
  }
  // Expected ~4 zero bytes out of 1024; 100 would indicate a short fill.
  EXPECT_LT(zeros, 100);
}

TEST(Xoshiro, DeterministicForSeed) {
  Xoshiro256Rng a(42), b(42), c(43);
  EXPECT_EQ(a.NextUint64(), b.NextUint64());
  Xoshiro256Rng a2(42);
  EXPECT_NE(a2.NextUint64(), c.NextUint64());
}

TEST(Xoshiro, UniformBoundedNoModuloBias) {
  Xoshiro256Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = rng.UniformUint64(10);
    EXPECT_LT(v, 10u);
  }
}

TEST(Xoshiro, UniformBoundRejectsZero) {
  Xoshiro256Rng rng(7);
  EXPECT_THROW(rng.UniformUint64(0), std::invalid_argument);
}

TEST(Xoshiro, UniformDoubleInRange) {
  Xoshiro256Rng rng(9);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double d = rng.UniformDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Xoshiro, FillMatchesNextUint64Stream) {
  Xoshiro256Rng a(5), b(5);
  Bytes buf(16);
  a.Fill(buf);
  uint8_t expect[16];
  StoreLe64(expect, b.NextUint64());
  StoreLe64(expect + 8, b.NextUint64());
  EXPECT_EQ(0, memcmp(buf.data(), expect, 16));
}

TEST(Summary, BasicStats) {
  Summary s;
  for (double x : {1.0, 2.0, 3.0, 4.0, 5.0}) {
    s.Add(x);
  }
  EXPECT_EQ(s.count(), 5u);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  EXPECT_DOUBLE_EQ(s.Percentile(50), 3.0);
  EXPECT_DOUBLE_EQ(s.Percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.Percentile(100), 5.0);
  EXPECT_NEAR(s.stddev(), 1.5811, 1e-3);
}

TEST(Summary, PercentileInterpolates) {
  Summary s;
  s.Add(0.0);
  s.Add(10.0);
  EXPECT_DOUBLE_EQ(s.Percentile(50), 5.0);
  EXPECT_DOUBLE_EQ(s.Percentile(25), 2.5);
}

TEST(Summary, EmptyIsSafe) {
  Summary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.Percentile(50), 0.0);
}

TEST(Summary, PercentileRejectsOutOfRange) {
  Summary s;
  s.Add(1.0);
  EXPECT_THROW(s.Percentile(-1), std::invalid_argument);
  EXPECT_THROW(s.Percentile(101), std::invalid_argument);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(1000, [&](size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, ZeroIterations) {
  ThreadPool pool(2);
  pool.ParallelFor(0, [](size_t) { FAIL() << "must not be called"; });
}

TEST(ThreadPool, SingleIterationRunsInline) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.ParallelFor(1, [&](size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.ParallelFor(100,
                                [](size_t i) {
                                  if (i == 37) {
                                    throw std::runtime_error("boom");
                                  }
                                }),
               std::runtime_error);
}

TEST(ThreadPool, ExceptionCancelsRemainingWork) {
  ThreadPool pool(4);
  constexpr size_t kN = 100000;
  std::atomic<size_t> executed{0};
  EXPECT_THROW(pool.ParallelFor(kN,
                                [&](size_t i) {
                                  if (i == 0) {
                                    throw std::runtime_error("boom");
                                  }
                                  executed.fetch_add(1, std::memory_order_relaxed);
                                }),
               std::runtime_error);
  // Without cancellation every non-throwing index runs (kN - 1); with it, the
  // shards still in flight when the exception landed stop early.
  EXPECT_LT(executed.load(), kN - 1);
}

TEST(ThreadPool, ExceptionFromLastShardStillPropagates) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.ParallelFor(64,
                                [](size_t i) {
                                  if (i == 63) {
                                    throw std::logic_error("tail");
                                  }
                                }),
               std::logic_error);
}

TEST(ThreadPool, NestedParallelForPropagatesInnerException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.ParallelFor(4,
                                [&](size_t) {
                                  pool.ParallelFor(16, [](size_t j) {
                                    if (j == 3) {
                                      throw std::logic_error("inner");
                                    }
                                  });
                                }),
               std::logic_error);
}

TEST(ThreadPool, UsableAfterException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.ParallelFor(8, [](size_t) { throw std::runtime_error("x"); }),
               std::runtime_error);
  std::atomic<int> count{0};
  pool.ParallelFor(100, [&](size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.ParallelFor(4, [&](size_t) {
    GlobalPool().ParallelFor(8, [&](size_t) { count.fetch_add(1); });
  });
  EXPECT_EQ(count.load(), 32);
}

TEST(ThreadPool, ParallelForBlocksVisitsEveryIndexOnce) {
  ThreadPool pool(4);
  constexpr size_t kBlock = 16;
  for (size_t n : {size_t{0}, size_t{1}, kBlock - 1, kBlock, kBlock + 1, 37 * kBlock + 5}) {
    std::vector<std::atomic<int>> hits(n);
    std::atomic<size_t> calls{0};
    pool.ParallelForBlocks(n, kBlock, [&](size_t begin, size_t end) {
      EXPECT_LT(begin, end);
      EXPECT_LE(end - begin, kBlock);
      EXPECT_EQ(begin % kBlock, 0u);  // blocks are aligned, contiguous runs
      for (size_t i = begin; i < end; ++i) {
        hits[i].fetch_add(1);
      }
      calls.fetch_add(1);
    });
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "n=" << n << " i=" << i;
    }
    EXPECT_EQ(calls.load(), (n + kBlock - 1) / kBlock) << "n=" << n;
  }
}

TEST(ThreadPool, ParallelForBlocksTreatsZeroBlockAsOne) {
  ThreadPool pool(2);
  std::vector<std::atomic<int>> hits(10);
  pool.ParallelForBlocks(10, 0, [&](size_t begin, size_t end) {
    EXPECT_EQ(end, begin + 1);
    hits[begin].fetch_add(1);
  });
  for (auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, ParallelForBlocksExceptionCancelsRemainingBlocks) {
  ThreadPool pool(4);
  constexpr size_t kBlocks = 100000;
  std::atomic<size_t> executed{0};
  EXPECT_THROW(pool.ParallelForBlocks(kBlocks, 1,
                                      [&](size_t begin, size_t) {
                                        if (begin == 0) {
                                          throw std::runtime_error("boom");
                                        }
                                        executed.fetch_add(1, std::memory_order_relaxed);
                                      }),
               std::runtime_error);
  // Without cancellation every other block runs (kBlocks - 1); with it, only
  // blocks claimed before the exception landed do.
  EXPECT_LT(executed.load(), kBlocks - 1);
}

TEST(ThreadPool, NestedParallelForBlocksNeitherDeadlocksNorLosesException) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.ParallelForBlocks(8, 2, [&](size_t begin, size_t end) {
    pool.ParallelForBlocks(16, 4, [&](size_t b, size_t e) {
      count.fetch_add(static_cast<int>((end - begin) * (e - b)));
    });
  });
  EXPECT_EQ(count.load(), 8 * 16);

  EXPECT_THROW(pool.ParallelForBlocks(8, 2,
                                      [&](size_t, size_t) {
                                        pool.ParallelForBlocks(16, 4, [](size_t b, size_t) {
                                          if (b == 12) {
                                            throw std::logic_error("inner");
                                          }
                                        });
                                      }),
               std::logic_error);
}

}  // namespace
}  // namespace vuvuzela::util

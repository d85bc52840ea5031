// RollingWindow invariants (src/obs/live/rolling_window.h).
//
// The estimator's contract has three load-bearing pieces: its quantiles
// must track the exact sorted quantiles of whatever is inside the
// window (within the log-bucket error bound it inherits from
// util/stats.h), samples must expire exactly at the subwindow
// granularity as injected time advances, and concurrent writers must
// never lose or double-count a sample. Each is pinned against ground
// truth computed independently with plain sorted vectors.

#include <algorithm>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/live/rolling_window.h"
#include "util/rng.h"

namespace pbfs {
namespace {

using obs::RollingWindow;

constexpr int64_t kSecond = 1000 * 1000 * 1000;

RollingWindow::Options SmallWindow() {
  RollingWindow::Options options;
  options.window_ns = 10 * kSecond;
  options.num_subwindows = 5;
  return options;
}

double ExactQuantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const size_t rank = static_cast<size_t>(q * (values.size() - 1));
  return values[rank];
}

// Log buckets with growth g bound the relative error of any in-bucket
// estimate by a factor of g; interpolation usually does much better,
// but only the bound is contractual.
void ExpectWithinBucketError(double estimate, double exact, double growth) {
  EXPECT_GE(estimate, exact / growth);
  EXPECT_LE(estimate, exact * growth);
}

TEST(RollingWindowTest, QuantilesTrackExactSortedQuantiles) {
  Rng rng(42);
  for (int stream = 0; stream < 3; ++stream) {
    RollingWindow window(SmallWindow());
    const double growth = window.options().hist_growth;
    std::vector<double> values;
    // Subwindow-aligned base (2 s subwindows): offsets 0..9 s then all
    // fall inside the window ending at base + 9 s regardless of stream.
    const int64_t base = (100 + 2 * stream) * kSecond;
    for (int i = 0; i < 4000; ++i) {
      // Mixed-scale stream: a uniform body with a long multiplicative
      // tail, the shape of a latency distribution.
      double v = 0.1 + 10.0 * rng.NextDouble();
      if (rng.NextBounded(10) == 0) v *= 50.0;
      values.push_back(v);
      // Spread the stream across the window but keep it all live.
      window.Add(v, base + (i % 9) * kSecond);
    }
    const int64_t now = base + 9 * kSecond;
    ASSERT_EQ(window.Count(now), values.size());
    for (double q : {0.5, 0.9, 0.95, 0.99}) {
      ExpectWithinBucketError(window.Quantile(q, now),
                              ExactQuantile(values, q), growth);
    }
    const RollingWindow::Stats stats = window.WindowStats(now);
    EXPECT_EQ(stats.count, values.size());
    double exact_sum = 0;
    for (double v : values) exact_sum += v;
    EXPECT_NEAR(stats.sum, exact_sum, exact_sum * 1e-9);
    EXPECT_DOUBLE_EQ(stats.min, *std::min_element(values.begin(),
                                                  values.end()));
    EXPECT_DOUBLE_EQ(stats.max, *std::max_element(values.begin(),
                                                  values.end()));
    ExpectWithinBucketError(stats.p50, ExactQuantile(values, 0.5), growth);
    ExpectWithinBucketError(stats.p99, ExactQuantile(values, 0.99), growth);
  }
}

TEST(RollingWindowTest, SubwindowsExpireAsTimeAdvances) {
  RollingWindow window(SmallWindow());  // 10 s window, 2 s subwindows
  const int64_t base = 100 * kSecond;
  // 10 samples into each of the 5 live subwindows, distinguishable by
  // value.
  for (int sub = 0; sub < 5; ++sub) {
    for (int i = 0; i < 10; ++i) {
      window.Add(1.0 + sub, base + sub * 2 * kSecond);
    }
  }
  int64_t now = base + 9 * kSecond;  // inside the last written subwindow
  EXPECT_EQ(window.Count(now), 50u);
  EXPECT_DOUBLE_EQ(window.WindowStats(now).min, 1.0);

  // Each 2 s step ages one subwindow out, oldest first.
  for (int expired = 1; expired <= 4; ++expired) {
    now += 2 * kSecond;
    EXPECT_EQ(window.Count(now), 50u - 10u * expired);
    EXPECT_DOUBLE_EQ(window.WindowStats(now).min, 1.0 + expired);
  }
  // Past the full window: empty, and stats degrade to zeros.
  now += 2 * kSecond;
  EXPECT_EQ(window.Count(now), 0u);
  const RollingWindow::Stats empty = window.WindowStats(now);
  EXPECT_EQ(empty.count, 0u);
  EXPECT_EQ(empty.p99, 0.0);

  // A new sample after the gap starts a fresh window; the lazily-reset
  // slot must not resurrect the expired epoch's contents.
  window.Add(7.0, now);
  EXPECT_EQ(window.Count(now), 1u);
  EXPECT_DOUBLE_EQ(window.WindowStats(now).max, 7.0);
}

TEST(RollingWindowTest, SlotReuseDropsOnlyTheOverwrittenEpoch) {
  RollingWindow window(SmallWindow());
  const int64_t base = 100 * kSecond;
  window.Add(1.0, base);
  // One full ring later the same slot is reused; the old epoch's
  // sample must vanish while younger subwindows survive.
  window.Add(2.0, base + 4 * kSecond);
  window.Add(3.0, base + 10 * kSecond);  // same slot as the 1.0 sample
  const int64_t now = base + 10 * kSecond;
  EXPECT_EQ(window.Count(now), 2u);
  EXPECT_DOUBLE_EQ(window.WindowStats(now).min, 2.0);
  EXPECT_DOUBLE_EQ(window.WindowStats(now).max, 3.0);
}

TEST(RollingWindowTest, ConcurrentWritersLoseNothing) {
  RollingWindow window(SmallWindow());
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  const int64_t base = 100 * kSecond;
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&window, t] {
      Rng rng(static_cast<uint64_t>(t) + 1);
      for (int i = 0; i < kPerThread; ++i) {
        // All inside the live window; values tag the writer.
        window.Add(t + 1.0, base + (i % 9) * kSecond);
        (void)rng;
      }
    });
  }
  // Concurrent reads must see internally-consistent merges (count and
  // sum move together), never crash or tear.
  uint64_t last_count = 0;
  for (int reads = 0; reads < 50; ++reads) {
    const RollingWindow::Stats stats = window.WindowStats(base + 9 * kSecond);
    EXPECT_GE(stats.count, last_count);
    last_count = stats.count;
    if (stats.count > 0) {
      EXPECT_GE(stats.min, 1.0);
      EXPECT_LE(stats.max, static_cast<double>(kThreads));
    }
  }
  for (std::thread& t : writers) t.join();
  const RollingWindow::Stats final_stats =
      window.WindowStats(base + 9 * kSecond);
  EXPECT_EQ(final_stats.count,
            static_cast<uint64_t>(kThreads) * kPerThread);
  double expected_sum = 0;
  for (int t = 0; t < kThreads; ++t) expected_sum += (t + 1.0) * kPerThread;
  EXPECT_NEAR(final_stats.sum, expected_sum, expected_sum * 1e-9);
}

}  // namespace
}  // namespace pbfs

// Unit tests for comet::util — RNG determinism and distributional sanity,
// statistics, KL confidence bounds, table rendering, string helpers, and
// the ThreadPool's FIFO and drain-on-destruction contract.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <set>
#include <thread>
#include <vector>

#include "util/kl_bounds.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/str.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace cu = comet::util;

// ---------- Rng ----------

TEST(Rng, DeterministicForSameSeed) {
  cu::Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  cu::Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LT(same, 4);
}

TEST(Rng, UniformInUnitInterval) {
  cu::Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  cu::Rng rng(11);
  double acc = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) acc += rng.uniform();
  EXPECT_NEAR(acc / n, 0.5, 0.01);
}

TEST(Rng, IndexCoversRangeUniformly) {
  cu::Rng rng(3);
  std::array<int, 7> counts{};
  const int n = 70000;
  for (int i = 0; i < n; ++i) counts[rng.index(7)]++;
  for (int c : counts) EXPECT_NEAR(c, n / 7.0, n / 7.0 * 0.1);
}

TEST(Rng, IndexThrowsOnZero) {
  cu::Rng rng(1);
  EXPECT_THROW(rng.index(0), std::invalid_argument);
}

TEST(Rng, RangeInclusiveBounds) {
  cu::Rng rng(5);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, BernoulliFrequency) {
  cu::Rng rng(9);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(hits / double(n), 0.3, 0.01);
}

TEST(Rng, NormalMoments) {
  cu::Rng rng(13);
  cu::RunningStats st;
  for (int i = 0; i < 100000; ++i) st.add(rng.normal(2.0, 3.0));
  EXPECT_NEAR(st.mean(), 2.0, 0.05);
  EXPECT_NEAR(st.stddev(), 3.0, 0.05);
}

TEST(Rng, ForkIndependence) {
  cu::Rng parent(21);
  cu::Rng c1 = parent.fork();
  cu::Rng c2 = parent.fork();
  int same = 0;
  for (int i = 0; i < 64; ++i) same += c1.next_u64() == c2.next_u64();
  EXPECT_LT(same, 4);
}

TEST(Rng, ShufflePreservesElements) {
  cu::Rng rng(17);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto w = v;
  rng.shuffle(w);
  std::sort(w.begin(), w.end());
  EXPECT_EQ(v, w);
}

TEST(Rng, Fnv1aStableAndDistinct) {
  EXPECT_EQ(cu::fnv1a64("abc"), cu::fnv1a64("abc"));
  EXPECT_NE(cu::fnv1a64("abc"), cu::fnv1a64("abd"));
  EXPECT_NE(cu::fnv1a64(""), cu::fnv1a64("a"));
}

// ---------- stats ----------

TEST(Stats, MeanAndStddev) {
  const std::vector<double> xs{2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_DOUBLE_EQ(cu::mean(xs), 5.0);
  EXPECT_NEAR(cu::stddev(xs), 2.138, 1e-3);
}

TEST(Stats, MeanEmptyIsZero) {
  EXPECT_DOUBLE_EQ(cu::mean(std::vector<double>{}), 0.0);
}

TEST(Stats, MapeBasic) {
  const std::vector<double> pred{110, 90};
  const std::vector<double> act{100, 100};
  EXPECT_NEAR(cu::mape(pred, act), 10.0, 1e-9);
}

TEST(Stats, MapeSkipsZeroActuals) {
  const std::vector<double> pred{110, 123};
  const std::vector<double> act{100, 0};
  EXPECT_NEAR(cu::mape(pred, act), 10.0, 1e-9);
}

TEST(Stats, MapeSizeMismatchThrows) {
  const std::vector<double> a{1.0};
  const std::vector<double> b{1.0, 2.0};
  EXPECT_THROW(cu::mape(a, b), std::invalid_argument);
}

TEST(Stats, Percentile) {
  std::vector<double> xs{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(cu::percentile(xs, 0), 1.0);
  EXPECT_DOUBLE_EQ(cu::percentile(xs, 50), 3.0);
  EXPECT_DOUBLE_EQ(cu::percentile(xs, 100), 5.0);
  EXPECT_DOUBLE_EQ(cu::percentile(xs, 25), 2.0);
}

TEST(Stats, PearsonPerfectCorrelation) {
  const std::vector<double> xs{1, 2, 3, 4};
  const std::vector<double> ys{2, 4, 6, 8};
  EXPECT_NEAR(cu::pearson(xs, ys), 1.0, 1e-12);
  const std::vector<double> zs{8, 6, 4, 2};
  EXPECT_NEAR(cu::pearson(xs, zs), -1.0, 1e-12);
}

TEST(Stats, SpearmanMonotone) {
  const std::vector<double> xs{1, 2, 3, 4, 5};
  const std::vector<double> ys{1, 8, 27, 64, 125};  // monotone, nonlinear
  EXPECT_NEAR(cu::spearman(xs, ys), 1.0, 1e-12);
}

TEST(Stats, RunningStatsMatchesBatch) {
  cu::Rng rng(31);
  std::vector<double> xs;
  cu::RunningStats st;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-5, 5);
    xs.push_back(x);
    st.add(x);
  }
  EXPECT_NEAR(st.mean(), cu::mean(xs), 1e-9);
  EXPECT_NEAR(st.stddev(), cu::stddev(xs), 1e-9);
  EXPECT_EQ(st.count(), xs.size());
}

// ---------- KL bounds ----------

TEST(KlBounds, KlZeroWhenEqual) {
  EXPECT_NEAR(cu::bernoulli_kl(0.3, 0.3), 0.0, 1e-12);
}

TEST(KlBounds, KlPositiveAndAsymmetric) {
  EXPECT_GT(cu::bernoulli_kl(0.2, 0.8), 0.0);
  EXPECT_GT(cu::bernoulli_kl(0.8, 0.2), 0.0);
}

TEST(KlBounds, KlBoundaryCases) {
  EXPECT_GE(cu::bernoulli_kl(0.0, 0.5), 0.0);
  EXPECT_GE(cu::bernoulli_kl(1.0, 0.5), 0.0);
  EXPECT_TRUE(std::isfinite(cu::bernoulli_kl(0.0, 0.999)));
  EXPECT_TRUE(std::isfinite(cu::bernoulli_kl(1.0, 0.001)));
}

TEST(KlBounds, UpperBoundBracketsMean) {
  const double ub = cu::kl_upper_bound(0.5, 100, 1.0);
  EXPECT_GE(ub, 0.5);
  EXPECT_LE(ub, 1.0);
}

TEST(KlBounds, LowerBoundBracketsMean) {
  const double lb = cu::kl_lower_bound(0.5, 100, 1.0);
  EXPECT_LE(lb, 0.5);
  EXPECT_GE(lb, 0.0);
}

TEST(KlBounds, BoundsTightenWithSamples) {
  const double ub_small = cu::kl_upper_bound(0.7, 10, 1.0);
  const double ub_large = cu::kl_upper_bound(0.7, 1000, 1.0);
  EXPECT_LT(ub_large, ub_small);
  const double lb_small = cu::kl_lower_bound(0.7, 10, 1.0);
  const double lb_large = cu::kl_lower_bound(0.7, 1000, 1.0);
  EXPECT_GT(lb_large, lb_small);
}

TEST(KlBounds, BoundsWidenWithLevel) {
  EXPECT_LE(cu::kl_upper_bound(0.5, 50, 0.5), cu::kl_upper_bound(0.5, 50, 2.0));
  EXPECT_GE(cu::kl_lower_bound(0.5, 50, 0.5), cu::kl_lower_bound(0.5, 50, 2.0));
}

TEST(KlBounds, ZeroSamplesGiveVacuousBounds) {
  EXPECT_DOUBLE_EQ(cu::kl_upper_bound(0.5, 0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(cu::kl_lower_bound(0.5, 0, 1.0), 0.0);
}

TEST(KlBounds, BoundInversionProperty) {
  // n * kl(p_hat, bound) ~= level at the returned bound (when interior).
  const double p = 0.6;
  const std::size_t n = 200;
  const double level = 2.0;
  const double ub = cu::kl_upper_bound(p, n, level);
  EXPECT_NEAR(n * cu::bernoulli_kl(p, ub), level, 1e-6);
  const double lb = cu::kl_lower_bound(p, n, level);
  EXPECT_NEAR(n * cu::bernoulli_kl(p, lb), level, 1e-6);
}

TEST(KlBounds, LucbLevelIncreasesWithT) {
  EXPECT_LT(cu::kl_lucb_level(1, 10, 0.1), cu::kl_lucb_level(100, 10, 0.1));
}

// Parameterized coverage property: the KL interval covers the true mean with
// frequency at least ~(1 - 2*exp(-level)) in a Bernoulli simulation.
class KlCoverage : public ::testing::TestWithParam<double> {};

TEST_P(KlCoverage, IntervalCoversTrueMean) {
  const double p_true = GetParam();
  cu::Rng rng(1234 + static_cast<std::uint64_t>(p_true * 1000));
  const std::size_t n = 200;
  const double level = 3.0;  // exp(-3) ~ 0.05 per side
  int covered = 0;
  const int trials = 400;
  for (int t = 0; t < trials; ++t) {
    std::size_t hits = 0;
    for (std::size_t i = 0; i < n; ++i) hits += rng.bernoulli(p_true);
    const double p_hat = static_cast<double>(hits) / n;
    const double lb = cu::kl_lower_bound(p_hat, n, level);
    const double ub = cu::kl_upper_bound(p_hat, n, level);
    covered += (lb <= p_true && p_true <= ub);
  }
  EXPECT_GE(covered / double(trials), 0.9);
}

INSTANTIATE_TEST_SUITE_P(Sweep, KlCoverage,
                         ::testing::Values(0.05, 0.3, 0.5, 0.7, 0.95));

// ---------- Table ----------

TEST(Table, RendersHeaderAndRows) {
  cu::Table t({"model", "value"});
  t.add_row({"ithemal", "1.30"});
  t.add_row({"uica", "2.00"});
  const auto s = t.to_string();
  EXPECT_NE(s.find("model"), std::string::npos);
  EXPECT_NE(s.find("ithemal"), std::string::npos);
  EXPECT_NE(s.find("2.00"), std::string::npos);
}

TEST(Table, ArityMismatchThrows) {
  cu::Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"x"}), std::invalid_argument);
}

TEST(Table, FmtHelpers) {
  EXPECT_EQ(cu::Table::fmt(1.2345, 2), "1.23");
  EXPECT_EQ(cu::Table::fmt_pm(1.0, 0.5, 1), "1.0 +- 0.5");
}

// ---------- str ----------

TEST(Str, Trim) {
  EXPECT_EQ(cu::trim("  ab \t"), "ab");
  EXPECT_EQ(cu::trim(""), "");
  EXPECT_EQ(cu::trim("   "), "");
}

TEST(Str, Split) {
  const auto parts = cu::split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
}

TEST(Str, SplitWs) {
  const auto parts = cu::split_ws("  mov   rax, rbx ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "mov");
  EXPECT_EQ(parts[1], "rax,");
}

TEST(Str, ToLowerAndStartsWith) {
  EXPECT_EQ(cu::to_lower("MoV"), "mov");
  EXPECT_TRUE(cu::starts_with("0x123", "0x"));
  EXPECT_FALSE(cu::starts_with("1", "0x"));
}

TEST(Str, Join) {
  EXPECT_EQ(cu::join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(cu::join({}, ","), "");
}

TEST(Str, FormatFixed) {
  EXPECT_EQ(cu::format_fixed(0.6333333333, 3), "0.633");
  EXPECT_EQ(cu::format_fixed(1.0, 3), "1.000");
  EXPECT_EQ(cu::format_fixed(0.0, 2), "0.00");
  EXPECT_EQ(cu::format_fixed(-2.5, 1), "-2.5");
  EXPECT_EQ(cu::format_fixed(12.3456, 0), "12");
}

// ---------- ThreadPool ----------

// A one-worker pool is a strict FIFO executor; ShardedBrokerPool's per-shard
// pool{1} relies on it for sequential-identical query accounting. The
// worker is held on a gate until every task is queued, so the order checked
// is the queue's, not the order in which post() happened to be called.
TEST(ThreadPool, OneWorkerRunsPostedTasksInPostOrder) {
  constexpr std::size_t kTasks = 500;
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  std::vector<std::size_t> ran;  // touched only by the single worker
  {
    cu::ThreadPool pool(1);
    EXPECT_EQ(pool.size(), 1u);
    pool.post([opened] { opened.wait(); });
    for (std::size_t i = 0; i < kTasks; ++i) {
      pool.post([&ran, i] { ran.push_back(i); });
    }
    gate.set_value();
  }  // the destructor joins the worker, publishing `ran`
  ASSERT_EQ(ran.size(), kTasks);
  for (std::size_t i = 0; i < kTasks; ++i) EXPECT_EQ(ran[i], i);
}

// Destruction is a graceful drain: tasks still queued when the destructor
// starts all run before the workers join. Both workers are held on a gate
// that opens only after the destructor has been entered (or shortly before;
// the drain contract must hold either way).
TEST(ThreadPool, DestructorDrainsEveryQueuedTaskBeforeJoining) {
  constexpr int kTasks = 200;
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  std::atomic<int> done{0};
  std::thread opener;
  {
    cu::ThreadPool pool(2);
    EXPECT_EQ(pool.size(), 2u);
    for (std::size_t w = 0; w < pool.size(); ++w) {
      pool.post([opened] { opened.wait(); });
    }
    for (int i = 0; i < kTasks; ++i) {
      pool.post([&done] { done.fetch_add(1, std::memory_order_relaxed); });
    }
    EXPECT_EQ(done.load(), 0);  // both workers are parked on the gate
    opener = std::thread([&gate] {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      gate.set_value();
    });
  }
  opener.join();
  EXPECT_EQ(done.load(), kTasks);
}

TEST(ThreadPool, ZeroThreadsMeansOneWorker) {
  cu::ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
}

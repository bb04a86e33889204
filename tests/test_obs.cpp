// Tests for the observability layer (src/obs/) and its serve-layer wiring:
// histogram bucket/percentile/merge math, registry handle stability and
// exporters, the clock seam, counter/histogram thread-safety (meaningful
// under TSan — scripts/check.sh --tsan builds this file), engine phase
// timers, per-shard pool instrumentation, and the non-negotiable contract
// of the whole layer: explanations served with metrics on (real or mocked
// clock) are bit-identical to metrics-off and to the sequential path.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "bhive/paper_blocks.h"
#include "core/comet.h"
#include "cost/crude_model.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/phase_timers.h"
#include "serve/isa_servers.h"
#include "serve/sharded_cost_model.h"
#include "x86/parser.h"

namespace cb = comet::bhive;
namespace cc = comet::core;
namespace ck = comet::cost;
namespace co = comet::obs;
namespace cs = comet::serve;
namespace cx = comet::x86;

namespace {

cc::CometOptions light_options(std::uint64_t seed) {
  cc::CometOptions opt;
  opt.epsilon = 0.25;
  opt.coverage_samples = 150;
  opt.max_pulls_per_level = 40;
  opt.batch_size = 8;
  opt.final_precision_samples = 60;
  opt.seed = seed;
  return opt;
}

void expect_identical(const cc::Explanation& a, const cc::Explanation& b) {
  EXPECT_EQ(a.features, b.features);
  EXPECT_EQ(a.precision, b.precision);
  EXPECT_EQ(a.coverage, b.coverage);
  EXPECT_EQ(a.met_threshold, b.met_threshold);
  EXPECT_EQ(a.model_queries, b.model_queries);
}

}  // namespace

// ---------------------------------------------------------------------------
// HistogramSnapshot: bucket math

TEST(HistogramBuckets, Log2BucketBoundaries) {
  using H = co::HistogramSnapshot;
  EXPECT_EQ(0u, H::bucket_of(0));  // bucket 0 holds exact zeros
  EXPECT_EQ(1u, H::bucket_of(1));  // bucket i holds [2^(i-1), 2^i)
  EXPECT_EQ(2u, H::bucket_of(2));
  EXPECT_EQ(2u, H::bucket_of(3));
  EXPECT_EQ(3u, H::bucket_of(4));
  EXPECT_EQ(3u, H::bucket_of(7));
  EXPECT_EQ(4u, H::bucket_of(8));
  EXPECT_EQ(11u, H::bucket_of(1024));
  // The overflow bucket absorbs everything >= 2^62.
  EXPECT_EQ(63u, H::bucket_of(std::uint64_t{1} << 62));
  EXPECT_EQ(63u, H::bucket_of(~std::uint64_t{0}));
}

TEST(HistogramBuckets, BoundsBracketEveryValue) {
  using H = co::HistogramSnapshot;
  for (const std::uint64_t v : {1ull, 2ull, 3ull, 100ull, 4095ull, 4096ull}) {
    const std::size_t i = H::bucket_of(v);
    EXPECT_LE(H::bucket_lower(i), static_cast<double>(v)) << v;
    EXPECT_LT(static_cast<double>(v), H::bucket_upper(i)) << v;
  }
}

// ---------------------------------------------------------------------------
// HistogramSnapshot: percentiles

TEST(HistogramPercentiles, EmptyIsZero) {
  co::HistogramSnapshot h;
  EXPECT_EQ(0.0, h.p50());
  EXPECT_EQ(0.0, h.p99());
  EXPECT_EQ(0.0, h.mean());
}

TEST(HistogramPercentiles, ConstantSeriesIsExactEverywhere) {
  // The [min, max] clamp makes a constant series report its exact value at
  // every percentile, regardless of the bucket's nominal width.
  co::HistogramSnapshot h;
  for (int i = 0; i < 10; ++i) h.record(5000);
  EXPECT_EQ(5000.0, h.p50());
  EXPECT_EQ(5000.0, h.p95());
  EXPECT_EQ(5000.0, h.p99());
  EXPECT_EQ(5000.0, h.mean());
  EXPECT_EQ(5000u, h.min);
  EXPECT_EQ(5000u, h.max);
}

TEST(HistogramPercentiles, OrderedAndBracketedByMinMax) {
  co::HistogramSnapshot h;
  for (std::uint64_t v = 1; v <= 1000; ++v) h.record(v);
  EXPECT_EQ(1000u, h.count);
  EXPECT_EQ(1000u * 1001u / 2u, h.sum);
  const double p50 = h.p50(), p95 = h.p95(), p99 = h.p99();
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_GE(p50, 1.0);
  EXPECT_LE(p99, 1000.0);
  // Log2 buckets bound the relative error by a factor of two.
  EXPECT_GE(p50, 250.0);
  EXPECT_LE(p50, 1000.0);
  EXPECT_GE(p99, 500.0);
}

TEST(HistogramPercentiles, MergeEqualsRecordingIntoOne) {
  co::HistogramSnapshot all, left, right;
  for (std::uint64_t v = 0; v < 500; ++v) {
    all.record(v * 7);
    (v % 2 == 0 ? left : right).record(v * 7);
  }
  left += right;
  EXPECT_EQ(all, left);  // buckets, count, sum, min, max — all of it
  co::HistogramSnapshot empty;
  left += empty;
  EXPECT_EQ(all, left);  // merging empty changes nothing (incl. min/max)
  empty += all;
  EXPECT_EQ(all, empty);  // merging into empty adopts min/max
}

// ---------------------------------------------------------------------------
// Instruments under concurrency (run under TSan via check.sh --tsan)

TEST(InstrumentConcurrency, CountersGaugesHistogramsAreThreadSafe) {
  co::MetricsRegistry registry;
  co::Counter& counter = registry.counter("events");
  co::Gauge& gauge = registry.gauge("level");
  co::Histogram& hist = registry.histogram("lat_ns");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        counter.increment();
        gauge.set(static_cast<double>(t));
        hist.record(static_cast<std::uint64_t>(i));
        // Concurrent find-or-create against the same names must also be
        // safe (workers resolve labeled histograms on the fly).
        registry.counter("events").increment(0);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(kThreads * kPerThread, counter.value());
  EXPECT_EQ(static_cast<std::uint64_t>(kThreads) * kPerThread,
            hist.snapshot().count);
  const double g = gauge.value();
  EXPECT_GE(g, 0.0);
  EXPECT_LT(g, static_cast<double>(kThreads));
}

// ---------------------------------------------------------------------------
// Registry: handles, labels, exporters

TEST(MetricsRegistry, HandlesAreStableAndFindOrCreate) {
  co::MetricsRegistry registry;
  co::Counter& a = registry.counter("reqs");
  a.increment(3);
  // Same name — same instrument, even after other instruments are created.
  for (int i = 0; i < 100; ++i) {
    // Two-step append: GCC 12's -Wrestrict false-fires on the temporary
    // from `"h" + std::to_string(i)` (PR105651).
    std::string name = "h";
    name += std::to_string(i);
    registry.histogram(name);
  }
  EXPECT_EQ(&a, &registry.counter("reqs"));
  EXPECT_EQ(3u, registry.counter("reqs").value());
}

TEST(MetricsRegistry, LabeledNameConvention) {
  EXPECT_EQ("serve_run_ns{model_key=\"crude-hsw\"}",
            co::MetricsRegistry::labeled("serve_run_ns", "model_key",
                                         "crude-hsw"));
}

TEST(MetricsRegistry, PrometheusExposition) {
  co::MetricsRegistry registry;
  registry.counter("reqs").increment(3);
  registry.gauge("depth").set(2.5);
  registry.histogram("lat_ns").record(5);   // bucket (4, 8]
  registry.histogram("lat_ns").record(5);
  registry
      .histogram(co::MetricsRegistry::labeled("lat_ns", "key", "a"))
      .record(1);
  const std::string text = registry.to_prometheus();
  EXPECT_NE(std::string::npos, text.find("# TYPE reqs counter"));
  EXPECT_NE(std::string::npos, text.find("reqs 3\n"));
  EXPECT_NE(std::string::npos, text.find("# TYPE depth gauge"));
  EXPECT_NE(std::string::npos, text.find("depth 2.5\n"));
  EXPECT_NE(std::string::npos, text.find("# TYPE lat_ns histogram"));
  // Cumulative buckets: both 5s land in le="8"; +Inf carries the total.
  EXPECT_NE(std::string::npos, text.find("lat_ns_bucket{le=\"8.0\"} 2"));
  EXPECT_NE(std::string::npos, text.find("lat_ns_bucket{le=\"+Inf\"} 2"));
  EXPECT_NE(std::string::npos, text.find("lat_ns_sum 10"));
  EXPECT_NE(std::string::npos, text.find("lat_ns_count 2"));
  // The labeled sibling keeps its label on every series.
  EXPECT_NE(std::string::npos,
            text.find("lat_ns_bucket{key=\"a\",le=\"+Inf\"} 1"));
  EXPECT_NE(std::string::npos, text.find("lat_ns_sum{key=\"a\"} 1"));
  // Exactly one # TYPE line for the shared base name.
  std::size_t type_lines = 0, pos = 0;
  while ((pos = text.find("# TYPE lat_ns ", pos)) != std::string::npos) {
    ++type_lines;
    ++pos;
  }
  EXPECT_EQ(1u, type_lines);
}

TEST(MetricsRegistry, JsonSnapshot) {
  co::MetricsRegistry registry;
  registry.counter("reqs").increment(7);
  registry.gauge("depth").set(1.0);
  for (int i = 0; i < 4; ++i) registry.histogram("lat_ns").record(1000);
  const std::string json = registry.to_json();
  EXPECT_NE(std::string::npos, json.find("\"counters\""));
  EXPECT_NE(std::string::npos, json.find("\"reqs\": 7"));
  EXPECT_NE(std::string::npos, json.find("\"gauges\""));
  EXPECT_NE(std::string::npos, json.find("\"histograms\""));
  EXPECT_NE(std::string::npos, json.find("\"count\": 4"));
  EXPECT_NE(std::string::npos, json.find("\"p99\": 1000.0"));
  // Empty registry still renders a complete object.
  co::MetricsRegistry empty;
  const std::string none = empty.to_json();
  EXPECT_NE(std::string::npos, none.find("\"counters\": {}"));
  EXPECT_NE(std::string::npos, none.find("\"histograms\": {}"));
}

// ---------------------------------------------------------------------------
// Clock seam

TEST(ClockSeam, ManualClockAdvancesOnlyByHand) {
  co::ManualClock clock(100);
  EXPECT_EQ(100u, clock.now_ns());
  EXPECT_EQ(100u, clock.now_ns());  // reading does not advance
  clock.advance_ns(50);
  EXPECT_EQ(150u, clock.now_ns());
  clock.set_ns(7);
  EXPECT_EQ(7u, clock.now_ns());
  const co::Clock& as_base = clock;
  EXPECT_EQ(7u, as_base.now_ns());
}

TEST(ClockSeam, SteadyClockIsMonotonic) {
  const co::Clock& clock = co::steady_clock();
  const std::uint64_t a = clock.now_ns();
  const std::uint64_t b = clock.now_ns();
  EXPECT_LE(a, b);
}

// ---------------------------------------------------------------------------
// Engine phase timers

TEST(PhaseTimers, OptInTimingIsBitIdenticalToUntimed) {
  const ck::CrudeModel model(ck::MicroArch::Haswell);
  const cx::BasicBlock block = cb::listing1_motivating();

  const cc::Explanation untimed =
      cc::CometExplainer(model, light_options(11)).explain(block);
  EXPECT_FALSE(untimed.timings.enabled);  // default: zero clock reads
  EXPECT_TRUE(untimed.timings.levels.empty());

  cc::CometOptions timed_options = light_options(11);
  timed_options.phase_clock = &co::steady_clock();
  const cc::Explanation timed =
      cc::CometExplainer(model, timed_options).explain(block);
  expect_identical(untimed, timed);  // observation never perturbs results

  EXPECT_TRUE(timed.timings.enabled);
  ASSERT_GE(timed.timings.levels.size(), 1u);
  EXPECT_EQ(timed.timings.total_ns(),
            timed.timings.coverage_ns + timed.timings.beam_ns() +
                timed.timings.pulls_ns() + timed.timings.precision_ns());
  EXPECT_GT(timed.timings.total_ns(), 0u);
  EXPECT_NE(std::string::npos, timed.timings.to_string().find("levels="));
}

TEST(PhaseTimers, ManualClockYieldsDeterministicSplit) {
  // A frozen clock: every phase measures exactly zero — the timer plumbing
  // itself is deterministic, not just "small".
  const ck::CrudeModel model(ck::MicroArch::Haswell);
  co::ManualClock clock(42);
  cc::CometOptions options = light_options(3);
  options.phase_clock = &clock;
  const cc::Explanation e =
      cc::CometExplainer(model, options).explain(cb::listing2_case_study1());
  EXPECT_TRUE(e.timings.enabled);
  EXPECT_EQ(0u, e.timings.total_ns());
}

// ---------------------------------------------------------------------------
// Serving-layer metrics + the parity contract

TEST(ServeMetrics, MetricsOnOffAndSequentialAreBitIdentical) {
  auto model =
      std::make_shared<const ck::CrudeModel>(ck::MicroArch::Haswell);
  const std::vector<cx::BasicBlock> blocks = {
      cb::listing1_motivating(), cb::listing2_case_study1(),
      cb::listing3_case_study2()};

  std::vector<cc::Explanation> reference;
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    reference.push_back(
        cc::CometExplainer(*model, light_options(30 + i)).explain(blocks[i]));
  }

  co::ManualClock clock(1000);
  const auto run_server = [&](bool metrics, const co::Clock* clk) {
    cs::X86ExplanationServer server({.workers = 3,
                                     .queue_capacity = 8,
                                     .metrics = metrics,
                                     .clock = clk});
    server.register_model("crude", model);
    std::vector<std::uint64_t> tickets;
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      tickets.push_back(server.submit("crude", blocks[i], light_options(30 + i)));
    }
    std::vector<cs::X86ExplanationServer::Served> by_ticket(blocks.size());
    for (const auto& served : server.drain()) {
      for (std::size_t i = 0; i < tickets.size(); ++i) {
        if (tickets[i] == served.id) by_ticket[i] = served;
      }
    }
    return by_ticket;
  };

  const auto with_metrics = run_server(true, &clock);
  const auto without_metrics = run_server(false, nullptr);
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    expect_identical(reference[i], with_metrics[i].explanation);
    expect_identical(reference[i], without_metrics[i].explanation);
    // Metrics off: not a single clock read; the trace stays all-zero.
    EXPECT_EQ(0u, without_metrics[i].trace.admit_ns);
    EXPECT_EQ(0u, without_metrics[i].trace.deliver_ns);
    // Metrics on with a frozen manual clock: every lifecycle stamp is the
    // clock's exact value — deterministic, not merely plausible.
    EXPECT_EQ(1000u, with_metrics[i].trace.admit_ns);
    EXPECT_EQ(1000u, with_metrics[i].trace.deliver_ns);
    EXPECT_EQ(0u, with_metrics[i].trace.queue_wait_ns());
    EXPECT_EQ(0u, with_metrics[i].trace.run_ns());
  }
}

TEST(ServeMetrics, LifecycleCountersAndHistogramsFill) {
  auto model =
      std::make_shared<const ck::CrudeModel>(ck::MicroArch::Haswell);
  co::ManualClock clock(5);
  cs::X86ExplanationServer server(
      {.workers = 2, .queue_capacity = 8, .clock = &clock});
  server.register_model("crude", model);
  const std::vector<cx::BasicBlock> blocks = {cb::listing1_motivating(),
                                              cb::listing2_case_study1()};
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    server.submit("crude", blocks[i], light_options(50 + i));
  }
  const auto results = server.drain();
  ASSERT_EQ(blocks.size(), results.size());

  const auto snap = server.metrics().snapshot();
  const auto counter = [&](const std::string& name) -> std::uint64_t {
    for (const auto& [n, v] : snap.counters) {
      if (n == name) return v;
    }
    ADD_FAILURE() << "missing counter " << name;
    return 0;
  };
  EXPECT_EQ(blocks.size(), counter("serve_submitted"));
  EXPECT_EQ(blocks.size(), counter("serve_completed"));
  EXPECT_EQ(0u, counter("serve_submit_blocked"));
  EXPECT_EQ(0u, counter("serve_try_submit_rejected"));

  std::uint64_t run_count = 0, queue_count = 0, deliver_count = 0;
  for (const auto& [name, h] : snap.histograms) {
    if (name.rfind("serve_run_ns", 0) == 0) run_count += h.count;
    if (name.rfind("serve_queue_wait_ns", 0) == 0) queue_count += h.count;
    if (name == "serve_deliver_wait_ns") deliver_count = h.count;
  }
  EXPECT_EQ(blocks.size(), run_count);
  EXPECT_EQ(blocks.size(), queue_count);
  EXPECT_EQ(blocks.size(), deliver_count);

  // After the drain nothing is queued or outstanding.
  for (const auto& [name, v] : snap.gauges) {
    if (name == "serve_queue_depth" || name == "serve_outstanding") {
      EXPECT_EQ(0.0, v) << name;
    }
  }

  // Both exporters include the per-model-key histograms.
  EXPECT_NE(std::string::npos, server.metrics_text().find(
                                   "serve_run_ns_count{model_key=\"crude\"}"));
  EXPECT_NE(std::string::npos,
            server.metrics_json().find("serve_run_ns{model_key=\\\"crude\\\"}"));
}

// ---------------------------------------------------------------------------
// Sharded pool instrumentation

TEST(ShardedPoolMetrics, BatchSizeHistogramsAndHitRateGauges) {
  const cs::ShardedCostModel sharded(
      [](std::size_t) {
        return std::make_shared<const ck::CrudeModel>(ck::MicroArch::Haswell);
      },
      /*shards=*/2);
  std::vector<cx::BasicBlock> blocks;
  for (const auto& block :
       {cb::listing1_motivating(), cb::listing2_case_study1(),
        cb::listing3_case_study2(), cb::listing4_appendixF_beta1()}) {
    blocks.push_back(block);
  }
  std::vector<double> out(blocks.size());
  sharded.predict_batch(blocks, out);

  const auto snap = sharded.metrics().snapshot();
  std::uint64_t recorded = 0, sub_batches = 0;
  for (const auto& [name, h] : snap.histograms) {
    ASSERT_EQ(0u, name.rfind("shard_batch_size{shard=\"", 0)) << name;
    recorded += h.sum;        // total blocks routed through this shard
    sub_batches += h.count;   // dispatches it received
  }
  EXPECT_EQ(blocks.size(), recorded);  // every block routed exactly once
  EXPECT_GE(sub_batches, 1u);
  EXPECT_LE(sub_batches, 2u);  // at most one sub-batch per shard per call

  // First pass: cold caches. Repeat the identical batch: every query memo-
  // hits, and the per-shard hit-rate gauges say so.
  sharded.predict_batch(blocks, out);
  bool any_hits = false;
  for (const auto& [name, v] : sharded.metrics().snapshot().gauges) {
    ASSERT_EQ(0u, name.rfind("shard_hit_rate{shard=\"", 0)) << name;
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
    any_hits = any_hits || v > 0.0;
  }
  EXPECT_TRUE(any_hits);
  EXPECT_EQ(0.5, sharded.stats().hit_rate());  // 2nd pass fully memoized
}

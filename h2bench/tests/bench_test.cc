// Unit tests of the benchmark's own machinery: the tail-percentile rule,
// open-loop latency from the due time, seeded Poisson schedules, the
// /proc task parsers, and the sweep digest.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "loadgen.h"
#include "net/corpus.h"
#include "net/server.h"
#include "procstat.h"
#include "stats.h"
#include "sweep.h"

namespace h2bench {
namespace {

TEST(TailRule, HighestPercentileWithTenSamplesBeyond) {
  EXPECT_EQ(0, highest_reportable_percentile(0));
  EXPECT_EQ(0, highest_reportable_percentile(19));
  EXPECT_EQ(50, highest_reportable_percentile(20));
  EXPECT_EQ(50, highest_reportable_percentile(99));
  EXPECT_EQ(90, highest_reportable_percentile(100));
  EXPECT_EQ(90, highest_reportable_percentile(999));
  EXPECT_EQ(99, highest_reportable_percentile(1000));
  EXPECT_EQ(99.9, highest_reportable_percentile(10000));
  EXPECT_EQ(99.99, highest_reportable_percentile(100000));
}

TEST(TailRule, NearestRankPercentiles) {
  std::vector<double> values(1000);
  std::iota(values.begin(), values.end(), 1.0);  // 1 .. 1000
  EXPECT_EQ(500, percentile_sorted(values, 50));
  EXPECT_EQ(990, percentile_sorted(values, 99));
  EXPECT_EQ(10u, samples_beyond(values.size(), 99));
  EXPECT_EQ(1000, percentile_sorted(values, 100));
  const Summary s = summarize({5, 1, 3});
  EXPECT_EQ(3u, s.n);
  EXPECT_EQ(3, s.p50);
  EXPECT_EQ(5, s.max);
  EXPECT_EQ(2, median({1, 2, 3, 4}) - 0.5);
}

TEST(CalmWindows, BlocksAndQuantiles) {
  // 3 full blocks of 100 (the trailing 50 samples are dropped); the second
  // block holds a stall.
  std::vector<double> samples;
  for (int i = 0; i < 350; ++i) samples.push_back(i >= 100 && i < 200 ? 50 : 1);
  samples[150] = 900;
  const auto p99 = block_percentiles(samples, 100, 99);
  ASSERT_EQ(3u, p99.size());
  EXPECT_EQ(1, p99[0]);
  EXPECT_EQ(50, p99[1]);
  EXPECT_EQ(1, p99[2]);
  EXPECT_EQ(1, calm_time(p99));

  std::vector<double> rates(20);
  std::iota(rates.begin(), rates.end(), 1.0);  // 1 .. 20
  EXPECT_EQ(1, calm_time(rates));   // 5th percentile
  EXPECT_EQ(19, calm_rate(rates));  // 95th percentile
  EXPECT_EQ(10, quantile(rates, 0.5));
}

TEST(PoissonSchedule, SameSeedSameSchedule) {
  const auto a = poisson_schedule(7, 5000, 2.0);
  const auto b = poisson_schedule(7, 5000, 2.0);
  const auto c = poisson_schedule(8, 5000, 2.0);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  ASSERT_FALSE(a.empty());
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_LT(a.back(), 2'000'000'000u);
  // 10 000 expected arrivals; a Poisson count is within 5 % of it.
  EXPECT_NEAR(10000.0, static_cast<double>(a.size()), 500.0);
  EXPECT_TRUE(poisson_schedule(7, 0, 2.0).empty());
}

TEST(ProcStat, ParsesUserAndSystemTicks) {
  // The command name may contain spaces and parentheses.
  const std::string line =
      "4242 (h2 (worker) 1) S 1 4242 4242 0 -1 4194560 120 0 0 0 "
      "1234 567 0 0 20 0 3 0 100 1000000 200 18446744073709551615\n";
  const auto stat = parse_task_stat(line);
  ASSERT_TRUE(stat.has_value());
  EXPECT_EQ(1234u, stat->utime_ticks);
  EXPECT_EQ(567u, stat->stime_ticks);
  EXPECT_FALSE(parse_task_stat("4242 (x) S 1 2").has_value());
  EXPECT_FALSE(parse_task_stat("no parenthesis here").has_value());
}

TEST(ProcStat, ParsesContextSwitches) {
  const std::string status =
      "Name:\th2bench\nState:\tS (sleeping)\nThreads:\t3\n"
      "voluntary_ctxt_switches:\t812\n"
      "nonvoluntary_ctxt_switches:\t17\n";
  const auto parsed = parse_task_status(status);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(812u, parsed->voluntary_ctxsw);
  EXPECT_EQ(17u, parsed->nonvoluntary_ctxsw);
  EXPECT_FALSE(parse_task_status("Name:\tx\n").has_value());
}

TEST(ProcStat, ParsesSchedstatRuntime) {
  const auto ns = parse_task_schedstat("123456789 2000 17\n");
  ASSERT_TRUE(ns.has_value());
  EXPECT_EQ(123456789u, *ns);
  EXPECT_FALSE(parse_task_schedstat("").has_value());
  EXPECT_FALSE(parse_task_schedstat("x 1 2").has_value());
}

TEST(ProcStat, ReadsThisProcess) {
  const auto tids = list_task_ids();
  ASSERT_FALSE(tids.empty());
  EXPECT_TRUE(std::binary_search(tids.begin(), tids.end(), current_tid()));
  volatile double sink = 0;
  for (int i = 0; i < 20'000'000; ++i) sink = sink + i;
  const ThreadUsage usage = sample_threads({current_tid()});
  EXPECT_GT(usage.cpu_s(), 0.0);
  EXPECT_GT(usage.voluntary_ctxsw + usage.nonvoluntary_ctxsw, 0u);
}

TEST(OpenLoop, LatencyCountsFromTheDueTimeAcrossAGeneratorStall) {
  h2push::net::LiveCorpusConfig corpus_config;
  corpus_config.sites = 1;
  corpus_config.seed = 3;
  const auto corpus = h2push::net::build_live_corpus(corpus_config);
  h2push::net::ServerConfig server_config;
  server_config.store = &corpus.store;
  server_config.origins = &corpus.origins;
  server_config.policies = &corpus.policies;
  h2push::net::Server server(server_config);
  ASSERT_TRUE(server.start()) << server.error();

  const auto& [host, path] = corpus.all_urls.front();
  std::vector<Target> targets = {
      {host, path, corpus.store.find(host, path)->body->size()}};
  // 100 requests due 1 ms apart, but the generator only starts sending
  // 150 ms into the schedule: the first ~150 are due before it can send.
  std::vector<std::uint64_t> schedule;
  for (int i = 0; i < 200; ++i) schedule.push_back(i * 1'000'000ULL);
  LoadPlan plan;
  plan.port = server.port();
  plan.connections = 1;
  plan.targets = &targets;
  plan.schedule = &schedule;
  plan.duration_s = 0.2;
  plan.stall_ns = 150'000'000ULL;
  const LoadStats stats = run_client(plan);
  server.shutdown();
  ASSERT_TRUE(stats.error.empty()) << stats.error;
  ASSERT_EQ(200u, stats.completed);
  ASSERT_EQ(200u, stats.latency_ms.size());
  // The request due at 0 waited out the whole stall; one due at 100 ms
  // waited at least the remaining 50 ms; latency never undercuts the lag.
  const auto max_latency =
      *std::max_element(stats.latency_ms.begin(), stats.latency_ms.end());
  EXPECT_GE(max_latency, 150.0);
  const auto max_lag = *std::max_element(stats.lag_ms.begin(),
                                         stats.lag_ms.end());
  EXPECT_GE(max_lag, 149.0);
  const Summary latency = summarize(stats.latency_ms);
  EXPECT_GE(latency.p50, 1.0);  // most requests carried part of the stall
}

TEST(SweepDigest, StableAcrossRepeatedSweeps) {
  for (const auto arms : {SweepArms::kFig2b, SweepArms::kNoPush}) {
    const std::uint64_t first = sweep_digest(arms, 5, 6);
    EXPECT_EQ(first, sweep_digest(arms, 5, 6));
    EXPECT_NE(first, sweep_digest(arms, 6, 6));
  }
  EXPECT_NE(sweep_digest(SweepArms::kFig2b, 5, 6),
            sweep_digest(SweepArms::kNoPush, 5, 6));
}

}  // namespace
}  // namespace h2bench

// Determinism of the thread-pool harness: measure() and the measure_*
// helpers must reproduce their serial runs bit for bit at every thread
// count, for synthetic trials and for real workloads (including the
// batch engine, whose lazily built tables are shared across workers).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <iterator>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/decay.h"
#include "channel/batch.h"
#include "channel/rng.h"
#include "core/advice_deterministic.h"
#include "engine_columns.h"
#include "harness/measure.h"
#include "harness/parallel.h"
#include "info/distribution.h"

namespace crp::harness {
namespace {

void expect_identical(const Measurement& a, const Measurement& b) {
  EXPECT_EQ(a.trials, b.trials);
  EXPECT_TRUE(a.histogram == b.histogram);
  EXPECT_EQ(a.success_rate, b.success_rate);
  EXPECT_EQ(a.rounds.count, b.rounds.count);
  EXPECT_EQ(a.rounds.mean, b.rounds.mean);
  EXPECT_EQ(a.rounds.stddev, b.rounds.stddev);
  EXPECT_EQ(a.rounds.p50, b.rounds.p50);
  EXPECT_EQ(a.rounds.p90, b.rounds.p90);
  EXPECT_EQ(a.rounds.p99, b.rounds.p99);
  EXPECT_EQ(a.rounds.min, b.rounds.min);
  EXPECT_EQ(a.rounds.max, b.rounds.max);
}

TEST(MeasureParallel, BitIdenticalToSerialAtEveryThreadCount) {
  // Every trial records its result at its own index (distinct
  // elements, so concurrent writes are safe): at each thread count,
  // trial t must see the stream derive_rng(42, t) — checked element by
  // element against a serial loop — and the folded histograms agree.
  constexpr std::size_t kTrials = 3001;
  std::vector<channel::RunResult> seen(kTrials);
  const Trial trial = [&seen](std::size_t t, std::mt19937_64& rng) {
    std::uniform_int_distribution<std::size_t> rounds(1, 500);
    const std::size_t r = rounds(rng);
    seen[t] = channel::RunResult{r % 7 != 0, r, std::nullopt};
    return seen[t];
  };
  const auto reference = run_trials(kTrials, 42, trial);
  const auto serial = measure(trial, kTrials, 42);
  for (std::size_t threads : {1ul, 2ul, 8ul}) {
    std::fill(seen.begin(), seen.end(), channel::RunResult{});
    const auto pooled = measure(trial, kTrials, 42, threads);
    expect_identical(serial, pooled);
    for (std::size_t t = 0; t < kTrials; ++t) {
      ASSERT_EQ(seen[t].rounds, reference[t].rounds)
          << "trial " << t << " at threads=" << threads;
    }
  }
  std::uint64_t solved = 0;
  for (const auto& run : reference) solved += run.solved ? 1 : 0;
  EXPECT_EQ(serial.histogram.solved(), solved);
}

TEST(MeasureParallel, BatchEngineTrialsAreThreadCountInvariant) {
  // The sampler's schedule and per-k tables are built lazily by
  // whichever worker gets there first; results must not depend on the
  // race outcome.
  const baselines::DecaySchedule decay(1 << 10);
  const channel::BatchNoCdSampler sampler(decay);
  const auto sizes = info::SizeDistribution::uniform(1 << 10);
  const Trial trial = [&](std::size_t, std::mt19937_64& rng) {
    const std::size_t k = sizes.sample(rng);
    return sampler.sample(k, rng, {.max_rounds = 1 << 14});
  };
  const auto serial = measure(trial, 4000, 7);
  for (std::size_t threads : {2ul, 8ul}) {
    expect_identical(serial, measure(trial, 4000, 7, threads));
  }
}

TEST(MeasureParallel, MeasureHelpersMatchSerialHelpers) {
  const baselines::DecaySchedule decay(1 << 10);
  for (const auto engine :
       {NoCdEngine::kBinomial, NoCdEngine::kBatch, NoCdEngine::kPerPlayer}) {
    MeasureOptions serial_options{.max_rounds = 1 << 14, .threads = 1};
    serial_options.engine = engine;
    auto pooled_options = serial_options;
    pooled_options.threads = 8;
    const auto serial = measure_uniform_no_cd_fixed_k(decay, 200, 2500, 97,
                                                      serial_options);
    const auto pooled = measure_uniform_no_cd_fixed_k(decay, 200, 2500, 97,
                                                      pooled_options);
    expect_identical(serial, pooled);
  }
}

TEST(MeasureParallel, BlockQueueMatchesEachJobAlone) {
  // Jobs of uneven sizes (none, one trial, one block plus one trial,
  // several blocks) drained by one pool, energy column on: each job's
  // result is measure_blocks of that job alone, at every thread count,
  // and each job with trials builds its engine exactly once.
  const baselines::DecaySchedule decay(1 << 10);
  const auto sizes = info::SizeDistribution::uniform(1 << 10);
  const MeasureOptions options{.max_rounds = 1 << 12,
                               .threads = 1,
                               .engine = NoCdEngine::kBinomial,
                               .measure_transmissions = true};
  const auto engine = make_uniform_engine(&decay, nullptr, options);
  const std::size_t trial_counts[] = {0, 1, 1025, 3000};
  std::atomic<std::size_t> builds[std::size(trial_counts)] = {};
  std::vector<BlockJob> jobs;
  for (std::size_t j = 0; j < std::size(trial_counts); ++j) {
    jobs.push_back({.engine =
                        [&engine, &built = builds[j]] {
                          built.fetch_add(1);
                          return engine;
                        },
                    .sizes = {&sizes, 0},
                    .trials = trial_counts[j],
                    .seed = 100 + j,
                    .max_rounds = options.max_rounds});
  }
  for (const std::size_t threads : {1ul, 3ul, 8ul}) {
    for (auto& built : builds) built = 0;
    const auto queued = measure_block_queue(jobs, threads, true);
    ASSERT_EQ(queued.size(), jobs.size());
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      const auto alone = measure_blocks(*engine, jobs[j].sizes, jobs[j].trials,
                                        jobs[j].seed, options);
      expect_identical(alone, queued[j]);
      EXPECT_TRUE(alone.histogram == queued[j].histogram);
      EXPECT_EQ(alone.transmissions.count(), queued[j].transmissions.count());
      EXPECT_EQ(alone.transmissions.mean(), queued[j].transmissions.mean());
      EXPECT_EQ(alone.transmissions.max(), queued[j].transmissions.max());
      EXPECT_EQ(builds[j].load(), jobs[j].trials == 0 ? 0u : 1u)
          << "job " << j << " at threads=" << threads;
    }
  }
}

TEST(MeasureParallel, DeterministicAdviceMatchesLegacySerialPath) {
  constexpr std::size_t n = 1 << 8;
  constexpr std::size_t b = 3;
  const core::SubtreeScanProtocol scan(n, b);
  const core::MinIdPrefixAdvice advice(n, b);
  const auto sizes = info::SizeDistribution::uniform(32);
  const auto legacy = measure_deterministic_advice(scan, advice, sizes, n,
                                                   false, 800, 5, 8 * n);
  const auto pooled = measure_deterministic_advice(
      scan, advice, sizes, n, false, 800, 5,
      MeasureOptions{.max_rounds = 8 * n, .threads = 8});
  expect_identical(legacy, pooled);
}

TEST(MeasureParallel, HandlesDegenerateTrialCounts) {
  const Trial trial = [](std::size_t, std::mt19937_64&) {
    return channel::RunResult{true, 1, std::nullopt};
  };
  const auto none = measure(trial, 0, 1, 8);
  EXPECT_EQ(none.trials, 0u);
  EXPECT_EQ(none.rounds.count, 0u);
  EXPECT_EQ(none.success_rate, 0.0);
  const auto one = measure(trial, 1, 1, 8);
  EXPECT_EQ(one.trials, 1u);
  EXPECT_EQ(one.rounds.count, 1u);
  EXPECT_EQ(one.histogram.solved_by(1.0), 1u);
}

TEST(MeasureParallel, PropagatesTrialExceptions) {
  // The trial's own exception reaches the caller, serial or pooled.
  const Trial trial = [](std::size_t t, std::mt19937_64&) {
    if (t == 1234) throw std::runtime_error("boom at 1234");
    return channel::RunResult{true, 1, std::nullopt};
  };
  for (const std::size_t threads : {1ul, 4ul}) {
    try {
      measure(trial, 3000, 1, threads);
      ADD_FAILURE() << "no exception at threads=" << threads;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "boom at 1234") << "threads=" << threads;
    }
  }
}

TEST(MeasureParallel, StopsClaimingBlocksAfterAnException) {
  // Once block 0 has thrown, workers must stop claiming blocks rather
  // than run out the range: the error surfaces after at most the
  // blocks already in flight (plus the odd one claimed while the throw
  // unwinds), not after all 10,000.
  constexpr std::size_t kThreads = 4;
  std::atomic<std::size_t> ran{0};
  EXPECT_THROW(parallel_blocks(
                   10'000, kThreads,
                   [&ran](std::size_t begin, std::size_t) {
                     ran.fetch_add(1);
                     if (begin == 0) throw std::runtime_error("block 0");
                     std::this_thread::sleep_for(std::chrono::milliseconds(1));
                   },
                   /*block_size=*/1),
               std::runtime_error);
  EXPECT_LE(ran.load(), 10 * kThreads);
}

}  // namespace
}  // namespace crp::harness

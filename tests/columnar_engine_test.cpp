// The columnar engine layer (channel/engine.h) vs the scalar paths it
// replaced:
//  * for each of the three no-CD engines (and the CD adapter), the
//    engine's result columns must equal the scalar per-trial loop's
//    results trial by trial at a fixed seed — same streams, same draw
//    order — and the measure_* helper's Measurement must be the fold
//    of exactly those columns;
//  * the block partition must be invisible: any thread count, and any
//    trial count relative to the block size, gives identical results;
//  * regression: the measure_* helpers preserve PR 1's published
//    fixed-seed statistics (golden values captured from the PR 1
//    binary before the refactor).
#include <algorithm>
#include <cmath>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/decay.h"
#include "baselines/willard.h"
#include "channel/batch.h"
#include "channel/engine.h"
#include "channel/rng.h"
#include "channel/simulator.h"
#include "core/coded_search.h"
#include "core/advice_deterministic.h"
#include "core/likelihood_schedule.h"
#include "engine_columns.h"
#include "harness/measure.h"
#include "harness/parallel.h"
#include "info/distribution.h"
#include "predict/families.h"

namespace crp::harness {
namespace {

void expect_identical(const Measurement& a, const Measurement& b) {
  EXPECT_EQ(a.trials, b.trials);
  EXPECT_TRUE(a.histogram == b.histogram);
  EXPECT_EQ(a.success_rate, b.success_rate);
  EXPECT_EQ(a.rounds.mean, b.rounds.mean);
  EXPECT_EQ(a.rounds.p50, b.rounds.p50);
  EXPECT_EQ(a.rounds.p90, b.rounds.p90);
  EXPECT_EQ(a.rounds.p99, b.rounds.p99);
  EXPECT_EQ(a.rounds.max, b.rounds.max);
}

info::SizeDistribution table1_sizes(std::size_t n) {
  const auto condensed =
      predict::uniform_over_ranges(info::num_ranges(n), 6);
  return predict::lift(condensed, n,
                       predict::RangePlacement::kHighEndpoint);
}

/// The engine behind a measure_* helper against its scalar reference:
/// the engine's columns match `runs` trial by trial, and the helper's
/// Measurement is the fold of exactly those columns.
void expect_engine_matches(const Measurement& measured,
                           const channel::ProbabilitySchedule* schedule,
                           const channel::CollisionPolicy* policy,
                           channel::SizeSource sizes, std::uint64_t seed,
                           const MeasureOptions& options,
                           const std::vector<channel::RunResult>& runs) {
  const auto engine = make_uniform_engine(schedule, policy, options);
  const auto columns =
      run_columns(*engine, sizes, runs.size(), seed, options.max_rounds);
  expect_columns_match(columns, runs);
  EXPECT_EQ(measured.trials, runs.size());
  EXPECT_TRUE(measured.histogram == columns.histogram());
}

TEST(ColumnarEngine, BatchMatchesScalarSamplerLoop) {
  // Scalar reference: the PR 1 batch measurement loop — one SplitMix64
  // stream per trial, one draw for k, one for the solve round.
  constexpr std::size_t n = 1 << 12;
  constexpr std::size_t kTrials = 5000;
  constexpr std::uint64_t kSeed = 404;
  const auto actual = table1_sizes(n);
  const auto condensed = actual.condense();
  const core::LikelihoodOrderedSchedule schedule(condensed);

  const channel::BatchNoCdSampler sampler(schedule);
  std::vector<channel::RunResult> runs(kTrials);
  for (std::size_t t = 0; t < kTrials; ++t) {
    auto rng = channel::derive_fast_rng(kSeed, t);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    const std::size_t k = actual.sample_at(unit(rng));
    runs[t] = sampler.sample(k, rng, 1 << 14);
  }

  const MeasureOptions options{.max_rounds = 1 << 14,
                               .threads = 1,
                               .engine = NoCdEngine::kBatch};
  expect_engine_matches(
      measure_uniform_no_cd(schedule, actual, kTrials, kSeed, options),
      &schedule, nullptr, {&actual, 0}, kSeed, options, runs);
}

TEST(ColumnarEngine, BinomialMatchesScalarTrialLoop) {
  constexpr std::size_t n = 1 << 10;
  constexpr std::size_t kTrials = 3000;
  constexpr std::uint64_t kSeed = 405;
  const auto actual = table1_sizes(n);
  const baselines::DecaySchedule decay(n);

  const Trial trial = [&](std::size_t, std::mt19937_64& rng) {
    const std::size_t k = actual.sample(rng);
    return channel::run_uniform_no_cd(decay, k, rng, {.max_rounds = 1 << 14});
  };
  const MeasureOptions options{.max_rounds = 1 << 14,
                               .threads = 1,
                               .engine = NoCdEngine::kBinomial};
  const auto columnar =
      measure_uniform_no_cd(decay, actual, kTrials, kSeed, options);
  expect_engine_matches(columnar, &decay, nullptr, {&actual, 0}, kSeed,
                        options, run_trials(kTrials, kSeed, trial));
  expect_identical(measure(trial, kTrials, kSeed), columnar);
}

TEST(ColumnarEngine, PerPlayerMatchesScalarTrialLoop) {
  constexpr std::size_t n = 1 << 8;
  constexpr std::size_t kTrials = 1500;
  constexpr std::uint64_t kSeed = 406;
  const baselines::DecaySchedule decay(n);

  const Trial trial = [&](std::size_t, std::mt19937_64& rng) {
    return channel::run_uniform_no_cd_per_player(decay, 50, rng,
                                                 {.max_rounds = 1 << 14});
  };
  const MeasureOptions options{.max_rounds = 1 << 14,
                               .threads = 1,
                               .engine = NoCdEngine::kPerPlayer};
  const auto columnar =
      measure_uniform_no_cd_fixed_k(decay, 50, kTrials, kSeed, options);
  expect_engine_matches(columnar, &decay, nullptr, {nullptr, 50}, kSeed,
                        options, run_trials(kTrials, kSeed, trial));
  expect_identical(measure(trial, kTrials, kSeed), columnar);
}

TEST(ColumnarEngine, CdAdapterMatchesScalarTrialLoop) {
  constexpr std::size_t n = 1 << 10;
  constexpr std::size_t kTrials = 2000;
  constexpr std::uint64_t kSeed = 407;
  const auto actual = table1_sizes(n);
  const baselines::WillardPolicy willard(n);

  const Trial trial = [&](std::size_t, std::mt19937_64& rng) {
    const std::size_t k = actual.sample(rng);
    return channel::run_uniform_cd(willard, k, rng, {.max_rounds = 1 << 12});
  };
  const MeasureOptions options{.max_rounds = 1 << 12, .threads = 1};
  const auto columnar =
      measure_uniform_cd(willard, actual, kTrials, kSeed, options);
  expect_engine_matches(columnar, nullptr, &willard, {&actual, 0}, kSeed,
                        options, run_trials(kTrials, kSeed, trial));
  expect_identical(measure(trial, kTrials, kSeed), columnar);
}

// ---- CD adapter, column by column ---------------------------------
//
// CollisionPolicyColumnarEngine keeps block-scoped state (a history
// trie memoizing the policy, one reused TransmitterSampler per k) and
// draws from a lazily seeded stream; none of it may change a single
// result. Each case compares the engine's three columns, element by
// element, with a per-trial std::mt19937_64 + run_uniform_cd loop.

/// A constant-probability CD policy.
class ConstantPolicy final : public channel::CollisionPolicy {
 public:
  explicit ConstantPolicy(double p) : p_(p) {}
  double probability(const channel::BitString&) const override {
    return p_;
  }
  std::string name() const override { return "constant"; }

 private:
  double p_;
};

/// A probability in [0.1, 0.4] that changes with the round and the
/// collision count: trials run long (k = 40 rarely succeeds) and see
/// more than 64 distinct probabilities, with np both below and above
/// the binomial's np = 8 switch.
class DriftingPolicy final : public channel::CollisionPolicy {
 public:
  double probability(const channel::BitString& history) const override {
    const auto collisions = static_cast<double>(
        std::count(history.begin(), history.end(), true));
    const double x = 0.6180339887 * static_cast<double>(history.size()) +
                     0.4142135623 * collisions;
    return 0.1 + 0.3 * (x - std::floor(x));
  }
  std::string name() const override { return "drifting"; }
};

/// Runs the CD adapter on one block and compares all three columns with
/// the scalar loop; returns the most distinct probabilities any trial
/// of the scalar loop used.
std::size_t expect_cd_columns_match(const channel::CollisionPolicy& policy,
                                    channel::SizeSource sizes,
                                    std::size_t max_rounds,
                                    std::uint64_t seed,
                                    std::size_t first_trial,
                                    std::size_t count) {
  std::vector<std::uint8_t> solved(count, 7);
  std::vector<std::uint64_t> rounds(count, 7), transmissions(count, 7);
  channel::TrialBlock block{.seed = seed,
                            .first_trial = first_trial,
                            .max_rounds = max_rounds,
                            .sizes = sizes,
                            .solved = solved,
                            .rounds = rounds,
                            .transmissions = transmissions};
  const channel::CollisionPolicyColumnarEngine engine(policy);
  engine.run_many(block);
  std::size_t most_distinct = 0;
  for (std::size_t t = 0; t < count; ++t) {
    auto rng = channel::derive_rng(seed, first_trial + t);
    const std::size_t k = sizes.distribution != nullptr
                              ? sizes.distribution->sample(rng)
                              : sizes.fixed_k;
    channel::ExecutionTrace trace;
    const auto run = channel::run_uniform_cd(
        policy, k, rng, {.max_rounds = max_rounds, .trace = &trace});
    EXPECT_EQ(solved[t], run.solved ? 1 : 0) << "trial " << t;
    EXPECT_EQ(rounds[t], run.rounds) << "trial " << t;
    EXPECT_EQ(transmissions[t], run.transmissions) << "trial " << t;
    std::vector<double> ps;
    for (const auto& round : trace) ps.push_back(round.probability);
    std::sort(ps.begin(), ps.end());
    most_distinct = std::max<std::size_t>(
        most_distinct, std::unique(ps.begin(), ps.end()) - ps.begin());
  }
  return most_distinct;
}

TEST(ColumnarEngine, CdAdapterColumnsMatchScalarLoop) {
  constexpr std::size_t n = 1 << 12;
  const auto actual = table1_sizes(n);
  const core::CodedSearchPolicy coded(actual.condense());
  const baselines::WillardPolicy willard(n);
  for (const std::size_t budget : {1, 2, 7, 64}) {
    for (const std::size_t count : {0, 1, 1023, 1025}) {
      SCOPED_TRACE("budget " + std::to_string(budget) + ", " +
                   std::to_string(count) + " trials");
      expect_cd_columns_match(coded, channel::SizeSource{&actual, 0}, budget,
                              411, 5000, count);
      expect_cd_columns_match(willard, channel::SizeSource{nullptr, 60},
                              budget, 412, 777, count);
    }
  }
}

TEST(ColumnarEngine, CdAdapterPastTheSamplerCap) {
  // More than 64 distinct probabilities in one trial: the reused
  // samplers must count their cache cap per trial, as a fresh one does.
  const DriftingPolicy drifting;
  const auto actual = table1_sizes(1 << 8);
  EXPECT_GT(expect_cd_columns_match(drifting, channel::SizeSource{nullptr, 40},
                                    300, 413, 2048, 1025),
            64u);
  EXPECT_GT(expect_cd_columns_match(drifting, channel::SizeSource{&actual, 0},
                                    300, 414, 9, 1025),
            64u);
}

TEST(ColumnarEngine, CdAdapterPastTheTrieCap) {
  // p = 0 walks one all-silence history past the 4,096-node trie cap:
  // the rest of the first trial and every later one ask the policy
  // directly.
  const ConstantPolicy never(0.0);
  expect_cd_columns_match(never, channel::SizeSource{nullptr, 3}, 5000, 415,
                          1, 3);
}

TEST(ColumnarEngine, CdAdapterDegenerateProbabilities) {
  const ConstantPolicy always(1.0);
  expect_cd_columns_match(always, channel::SizeSource{nullptr, 1}, 16, 416, 3,
                          5);
  expect_cd_columns_match(always, channel::SizeSource{nullptr, 3}, 16, 417, 3,
                          5);

  // p outside [0, 1] throws from the engine as from the scalar path.
  const ConstantPolicy invalid(1.5);
  std::vector<std::uint8_t> solved(4);
  std::vector<std::uint64_t> rounds(4);
  channel::TrialBlock block{.seed = 418,
                            .max_rounds = 16,
                            .sizes = channel::SizeSource{nullptr, 5},
                            .solved = solved,
                            .rounds = rounds};
  const channel::CollisionPolicyColumnarEngine engine(invalid);
  EXPECT_THROW(engine.run_many(block), std::invalid_argument);
  auto rng = channel::derive_rng(418, 0);
  EXPECT_THROW(channel::run_uniform_cd(invalid, 5, rng, {.max_rounds = 16}),
               std::invalid_argument);
}

TEST(ColumnarEngine, BlockPartitionIsInvisible) {
  // Trial counts straddling the block size, at several thread counts:
  // all must agree with the single-thread run (which itself visits
  // blocks in order).
  const baselines::DecaySchedule decay(1 << 10);
  const auto actual = table1_sizes(1 << 10);
  for (const std::size_t trials :
       {kTrialBlockSize - 1, kTrialBlockSize, 3 * kTrialBlockSize + 17}) {
    const MeasureOptions serial{.max_rounds = 1 << 14, .threads = 1};
    const auto reference =
        measure_uniform_no_cd(decay, actual, trials, 99, serial);
    for (const std::size_t threads : {2ul, 8ul}) {
      MeasureOptions pooled = serial;
      pooled.threads = threads;
      expect_identical(
          reference,
          measure_uniform_no_cd(decay, actual, trials, 99, pooled));
    }
  }
}

TEST(ColumnarEngine, CustomEngineThroughMeasureBlocks) {
  // measure_blocks is a public extension point: a custom engine only
  // fills columns, and the fold sees trials in order.
  class EveryThirdSolves final : public channel::Engine {
   public:
    void run_many(channel::TrialBlock& block) const override {
      for (std::size_t t = 0; t < block.size(); ++t) {
        const std::size_t global = block.first_trial + t;
        block.solved[t] = global % 3 == 0 ? 1 : 0;
        block.rounds[t] = global % 3 == 0 ? global + 1 : block.max_rounds;
      }
    }
  };
  const EveryThirdSolves engine;
  const auto m = measure_blocks(engine, channel::SizeSource{nullptr, 2}, 10,
                                0, MeasureOptions{.threads = 1});
  EXPECT_EQ(m.trials, 10u);
  EXPECT_DOUBLE_EQ(m.success_rate, 0.4);
  // Trials 0, 3, 6, 9 solve, in rounds 1, 4, 7, 10.
  const auto counts = m.histogram.counts();
  ASSERT_GE(counts.size(), 11u);
  for (std::size_t r = 0; r < counts.size(); ++r) {
    EXPECT_EQ(counts[r], r % 3 == 1 && r <= 10 ? 1u : 0u) << "round " << r;
  }
}

TEST(ColumnarEngine, RejectsDegenerateBlocks) {
  const baselines::DecaySchedule decay(256);
  const channel::BatchColumnarEngine engine(decay);
  EXPECT_THROW(measure_blocks(engine, channel::SizeSource{nullptr, 0}, 10,
                              0, MeasureOptions{}),
               std::invalid_argument);
}

// ---- PR 1 golden statistics --------------------------------------
//
// Captured from the PR 1 binary (scalar measurement stack) at fixed
// seeds before the columnar refactor. The measure_* helpers must
// keep reproducing them bit for bit: every engine derives the same
// per-trial streams and consumes draws in the same order as the
// scalar loops did. The goldens were captured from a sample-vector
// fold; the histogram fold reproduces its count/mean/quantiles and
// sample sum exactly (tests/accumulator_test.cpp).

/// Sum of the solved trials' rounds, read from the histogram.
double sample_sum(const Measurement& m) {
  double sum = 0.0;
  const auto counts = m.histogram.counts();
  for (std::size_t r = 0; r < counts.size(); ++r) {
    sum += static_cast<double>(r) * static_cast<double>(counts[r]);
  }
  return sum;
}

TEST(ColumnarEngine, GoldenBatchDrawnSizes) {
  constexpr std::size_t n = 1 << 12;
  const auto condensed =
      predict::uniform_over_ranges(info::num_ranges(n), 6);
  const auto actual =
      predict::lift(condensed, n, predict::RangePlacement::kHighEndpoint);
  const core::LikelihoodOrderedSchedule schedule(condensed);
  const auto m = measure_uniform_no_cd(
      schedule, actual, 4000, 2021,
      MeasureOptions{.max_rounds = 1 << 14,
                     .threads = 1,
                     .engine = NoCdEngine::kBatch});
  EXPECT_DOUBLE_EQ(m.success_rate, 1.0);
  EXPECT_DOUBLE_EQ(m.rounds.mean, 6.3362499999999997);
  EXPECT_DOUBLE_EQ(m.rounds.p50, 4.0);
  EXPECT_DOUBLE_EQ(m.rounds.p90, 15.099999999999909);
  EXPECT_DOUBLE_EQ(m.rounds.max, 74.0);
  EXPECT_DOUBLE_EQ(sample_sum(m), 25345.0);
}

TEST(ColumnarEngine, GoldenBatchFixedK) {
  const baselines::DecaySchedule decay(1 << 12);
  const auto m = measure_uniform_no_cd_fixed_k(
      decay, 100, 4000, 2022,
      MeasureOptions{.max_rounds = 1 << 14,
                     .threads = 1,
                     .engine = NoCdEngine::kBatch});
  EXPECT_DOUBLE_EQ(m.rounds.mean, 10.655250000000001);
  EXPECT_DOUBLE_EQ(sample_sum(m), 42621.0);
}

TEST(ColumnarEngine, GoldenBinomialDrawnSizes) {
  constexpr std::size_t n = 1 << 12;
  const auto condensed =
      predict::uniform_over_ranges(info::num_ranges(n), 6);
  const auto actual =
      predict::lift(condensed, n, predict::RangePlacement::kHighEndpoint);
  const core::LikelihoodOrderedSchedule schedule(condensed);
  const auto m = measure_uniform_no_cd(
      schedule, actual, 2000, 2023,
      MeasureOptions{.max_rounds = 1 << 14,
                     .threads = 1,
                     .engine = NoCdEngine::kBinomial});
  EXPECT_DOUBLE_EQ(m.rounds.mean, 6.3685);
  EXPECT_DOUBLE_EQ(sample_sum(m), 12737.0);
}

TEST(ColumnarEngine, GoldenCdPaths) {
  constexpr std::size_t n = 1 << 12;
  const auto actual = table1_sizes(n);
  const baselines::WillardPolicy willard(n);
  const MeasureOptions options{.max_rounds = 1 << 14, .threads = 1};
  const auto drawn =
      measure_uniform_cd(willard, actual, 2000, 2025, options);
  EXPECT_DOUBLE_EQ(drawn.rounds.mean, 4.1935000000000002);
  EXPECT_DOUBLE_EQ(sample_sum(drawn), 8387.0);
  const auto fixed =
      measure_uniform_cd_fixed_k(willard, 60, 2000, 2026, options);
  EXPECT_DOUBLE_EQ(fixed.rounds.mean, 4.2394999999999996);
  EXPECT_DOUBLE_EQ(sample_sum(fixed), 8479.0);
}

TEST(ColumnarEngine, GoldenDeterministicAdvice) {
  constexpr std::size_t n = 1 << 8;
  const core::SubtreeScanProtocol scan(n, 3);
  const core::MinIdPrefixAdvice advice(n, 3);
  const auto sizes = info::SizeDistribution::uniform(32);
  const auto m = measure_deterministic_advice(
      scan, advice, sizes, n, false, 1000, 2027,
      MeasureOptions{.max_rounds = 8 << 8, .threads = 1});
  EXPECT_DOUBLE_EQ(m.rounds.mean, 11.145);
  EXPECT_DOUBLE_EQ(sample_sum(m), 11145.0);

  const double wc = worst_case_deterministic_rounds(scan, advice, n, 4,
                                                    false, 200, 2028,
                                                    8 << 8);
  EXPECT_DOUBLE_EQ(wc, 32.0);
}

}  // namespace
}  // namespace crp::harness

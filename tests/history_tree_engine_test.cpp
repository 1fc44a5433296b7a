// The history-tree CD sampler (channel/history_engine.h) vs the
// per-round simulation adapter it accelerates:
//  * the shared expansion must agree with exact_profile_cd exactly
//    (same enumeration, so bit-equal marginals);
//  * sampled measurements must be thread-count and block-partition
//    invariant, and statistically indistinguishable from the simulated
//    CD path (same distribution, different randomness consumption);
//  * the depth-cap / pruned-branch fallback (hybrid walk) and the
//    node-cap simulation fallback must stay deterministic;
//  * golden fixed-seed statistics pin the engine's streams so draw-
//    order changes are caught deliberately.
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/willard.h"
#include "channel/history_engine.h"
#include "channel/rng.h"
#include "harness/exact.h"
#include "harness/grids.h"
#include "harness/hash.h"
#include "harness/history_tree.h"
#include "harness/measure.h"
#include "harness/parallel.h"
#include "harness/sweep.h"
#include "info/distribution.h"
#include "predict/families.h"

namespace crp::harness {
namespace {

using channel::HistoryTreeEngine;

void expect_identical(const Measurement& a, const Measurement& b) {
  EXPECT_EQ(a.trials, b.trials);
  EXPECT_EQ(a.samples, b.samples);
  // Element-wise distribution equality even on the streaming path
  // (where samples are empty on both sides).
  EXPECT_TRUE(a.histogram == b.histogram);
  EXPECT_EQ(a.success_rate, b.success_rate);
  EXPECT_EQ(a.rounds.mean, b.rounds.mean);
  EXPECT_EQ(a.rounds.max, b.rounds.max);
}

double sample_sum(const Measurement& m) {
  double sum = 0.0;
  for (const double s : m.samples) sum += s;
  return sum;
}

info::SizeDistribution table1_sizes(std::size_t n) {
  const auto condensed =
      predict::uniform_over_ranges(info::num_ranges(n), 6);
  return predict::lift(condensed, n,
                       predict::RangePlacement::kHighEndpoint);
}

/// A constant-probability CD policy (ignores the history).
class ConstantPolicy final : public channel::CollisionPolicy {
 public:
  explicit ConstantPolicy(double p) : p_(p) {}
  double probability(const channel::BitString&) const override { return p_; }
  std::string name() const override { return "constant"; }

 private:
  double p_;
};

TEST(HistoryTreeEngine, MarginalsAgreeWithExactProfileExactly) {
  const baselines::WillardPolicy willard(1 << 16);
  const HistoryTreeEngine engine(willard);
  for (std::size_t k : {2ul, 60ul, 2500ul}) {
    const auto [tree, mode] = engine.tree_for(k, 1 << 12);
    ASSERT_NE(tree, nullptr);
    EXPECT_FALSE(tree->truncated);
    // Same enumeration, same options => bit-equal solve marginals.
    const auto profile =
        exact_profile_cd(willard, k, tree->horizon, tree->prune_below);
    ASSERT_EQ(profile.solve_by.size(), tree->horizon + 1);
    for (std::size_t r = 0; r < tree->horizon; ++r) {
      EXPECT_DOUBLE_EQ(profile.solve_by[r + 1], tree->solve_cdf[r])
          << "k=" << k << " r=" << r;
    }
    EXPECT_EQ(mode, HistoryTreeEngine::Mode::kWalk);
  }
}

TEST(HistoryTreeEngine, CrossValidatesAgainstSimulatedPathFixedK) {
  const baselines::WillardPolicy willard(1 << 16);
  const MeasureOptions simulated{.max_rounds = 1 << 12, .threads = 1};
  MeasureOptions tree = simulated;
  tree.cd_engine = CdEngine::kHistoryTree;
  for (std::size_t k : {2ul, 60ul, 2500ul}) {
    const auto m_sim =
        measure_uniform_cd_fixed_k(willard, k, 20000, /*seed=*/7, simulated);
    const auto m_tree =
        measure_uniform_cd_fixed_k(willard, k, 20000, /*seed=*/7, tree);
    EXPECT_EQ(m_sim.trials, m_tree.trials);
    EXPECT_NEAR(m_sim.success_rate, m_tree.success_rate, 0.01) << "k=" << k;
    EXPECT_NEAR(m_sim.rounds.mean, m_tree.rounds.mean,
                4.0 * m_sim.rounds.ci95 + 0.01)
        << "k=" << k;
  }
}

TEST(HistoryTreeEngine, CrossValidatesAgainstSimulatedPathDrawnSizes) {
  const baselines::WillardPolicy willard(1 << 12);
  const auto actual = table1_sizes(1 << 12);
  const MeasureOptions simulated{.max_rounds = 1 << 12, .threads = 1};
  MeasureOptions tree = simulated;
  tree.cd_engine = CdEngine::kHistoryTree;
  const auto m_sim =
      measure_uniform_cd(willard, actual, 20000, /*seed=*/11, simulated);
  const auto m_tree =
      measure_uniform_cd(willard, actual, 20000, /*seed=*/11, tree);
  EXPECT_NEAR(m_sim.success_rate, m_tree.success_rate, 0.01);
  EXPECT_NEAR(m_sim.rounds.mean, m_tree.rounds.mean,
              4.0 * m_sim.rounds.ci95 + 0.01);
}

TEST(HistoryTreeEngine, ThreadCountAndBlockPartitionInvisible) {
  const baselines::WillardPolicy willard(1 << 12);
  const auto actual = table1_sizes(1 << 12);
  MeasureOptions options{.max_rounds = 1 << 12, .threads = 1};
  options.cd_engine = CdEngine::kHistoryTree;
  for (const std::size_t trials :
       {kTrialBlockSize - 1, 3 * kTrialBlockSize + 17}) {
    const auto reference =
        measure_uniform_cd(willard, actual, trials, 99, options);
    for (const std::size_t threads : {2ul, 8ul}) {
      MeasureOptions pooled = options;
      pooled.threads = threads;
      expect_identical(reference, measure_uniform_cd(willard, actual, trials,
                                                     99, pooled));
    }
  }
}

TEST(HistoryTreeEngine, InverseCdfModeForChainTrees) {
  // k = 1: collisions are impossible, so the history tree is a single
  // silence chain — it fits any depth cap with negligible leftover
  // mass and samples through the single inverse-CDF mode. The solve
  // round is Geometric(p).
  const ConstantPolicy half(0.5);
  const HistoryTreeEngine engine(half);
  const auto [tree, mode] = engine.tree_for(1, 1 << 12);
  EXPECT_EQ(mode, HistoryTreeEngine::Mode::kInverseCdf);
  ASSERT_GE(tree->horizon, 20u);
  for (std::size_t r = 0; r < 20; ++r) {
    EXPECT_NEAR(tree->solve_cdf[r],
                1.0 - std::exp2(-static_cast<double>(r + 1)), 1e-12);
  }
  MeasureOptions options{.max_rounds = 1 << 12, .threads = 1};
  options.cd_engine = CdEngine::kHistoryTree;
  const auto m = measure_uniform_cd_fixed_k(half, 1, 40000, 13, options);
  EXPECT_DOUBLE_EQ(m.success_rate, 1.0);
  EXPECT_NEAR(m.rounds.mean, 2.0, 4.0 * m.rounds.ci95);
}

TEST(HistoryTreeEngine, NeverSolvingPolicyReportsUnsolved) {
  // p = 1 with k >= 2 collides forever: the tree is a collision chain
  // whose whole mass sits on the frontier. At a budget equal to the
  // expansion horizon that frontier is exactly "unsolved", so the
  // inverse-CDF mode applies and reports every trial unsolved at the
  // budget — matching the simulated path.
  const ConstantPolicy always(1.0);
  const HistoryTreeEngine engine(always);
  const auto [tree, mode] = engine.tree_for(2, 48);
  EXPECT_EQ(mode, HistoryTreeEngine::Mode::kInverseCdf);
  EXPECT_DOUBLE_EQ(tree->solved_mass(), 0.0);
  EXPECT_DOUBLE_EQ(tree->frontier_mass, 1.0);
  MeasureOptions options{.max_rounds = 48, .threads = 1};
  options.cd_engine = CdEngine::kHistoryTree;
  const auto m = measure_uniform_cd_fixed_k(always, 2, 500, 17, options);
  EXPECT_DOUBLE_EQ(m.success_rate, 0.0);
}

TEST(HistoryTreeEngine, DepthCapFallbackIsDeterministicAndCorrect) {
  // A cap far below the budget forces nearly every trial through the
  // hybrid path: walk the 4-round expansion, then continue on the
  // per-round simulation. Results must stay thread-count invariant and
  // keep the exact distribution.
  const baselines::WillardPolicy willard(1 << 16);
  HistoryTreeEngine::Options capped;
  capped.depth_cap = 4;
  const HistoryTreeEngine engine(willard, capped);
  const auto [tree, mode] = engine.tree_for(60, 1 << 12);
  EXPECT_EQ(mode, HistoryTreeEngine::Mode::kWalk);
  EXPECT_EQ(tree->horizon, 4u);

  const channel::SizeSource sizes{nullptr, 60};
  const MeasureOptions serial{.max_rounds = 1 << 12, .threads = 1};
  const auto reference = measure_blocks(engine, sizes, 20000, 23, serial);
  for (const std::size_t threads : {2ul, 8ul}) {
    MeasureOptions pooled = serial;
    pooled.threads = threads;
    expect_identical(reference,
                     measure_blocks(engine, sizes, 20000, 23, pooled));
  }
  const auto simulated =
      measure_uniform_cd_fixed_k(willard, 60, 20000, 23, serial);
  EXPECT_NEAR(reference.rounds.mean, simulated.rounds.mean,
              4.0 * simulated.rounds.ci95 + 0.01);
}

TEST(HistoryTreeEngine, NodeCapDelegatesToSimulation) {
  const baselines::WillardPolicy willard(1 << 16);
  HistoryTreeEngine::Options tiny;
  tiny.max_nodes = 100;
  const HistoryTreeEngine engine(willard, tiny);
  const auto [tree, mode] = engine.tree_for(2500, 1 << 12);
  EXPECT_TRUE(tree->truncated);
  EXPECT_EQ(mode, HistoryTreeEngine::Mode::kSimulate);

  const channel::SizeSource sizes{nullptr, 2500};
  const MeasureOptions serial{.max_rounds = 1 << 12, .threads = 1};
  const auto m = measure_blocks(engine, sizes, 20000, 29, serial);
  for (const std::size_t threads : {2ul, 8ul}) {
    MeasureOptions pooled = serial;
    pooled.threads = threads;
    expect_identical(m, measure_blocks(engine, sizes, 20000, 29, pooled));
  }
  const auto simulated =
      measure_uniform_cd_fixed_k(willard, 2500, 20000, 29, serial);
  EXPECT_NEAR(m.rounds.mean, simulated.rounds.mean,
              4.0 * simulated.rounds.ci95 + 0.01);
}

TEST(HistoryTreeEngine, SweepSchedulerUsesTheCdEngine) {
  // The cd_engine knob must reach CD cells through run_sweep: a one-
  // cell sweep equals the direct measurement under the cell's derived
  // seed.
  const baselines::WillardPolicy willard(1 << 12);
  SweepGrid grid;
  grid.add_cell({.algorithm = {.name = "willard", .policy = &willard},
                 .sizes = {.fixed_k = 60},
                 .max_rounds = 1 << 12});
  SweepOptions options;
  options.trials = 4000;
  options.seed = 31;
  options.threads = 1;
  options.cd_engine = CdEngine::kHistoryTree;
  const auto results = run_sweep(grid, options);
  ASSERT_EQ(results.size(), 1u);

  MeasureOptions direct{.max_rounds = 1 << 12, .threads = 1};
  direct.cd_engine = CdEngine::kHistoryTree;
  const auto expected = measure_uniform_cd_fixed_k(
      willard, 60, 4000, channel::derive_stream_seed(31, 0), direct);
  expect_identical(expected, results[0].measurement);
}

TEST(HistoryTreeEngine, SharedTreeCacheMeasuresIdentically) {
  // A HistoryTreeCache hands every caller of the same policy the same
  // engine (one expansion per (policy, k, horizon) for the whole
  // sweep), and cached measurements are bit-identical to per-call
  // engines.
  const baselines::WillardPolicy willard(1 << 12);
  const channel::HistoryTreeCache cache;
  const auto first = cache.engine_for(willard);
  const auto second = cache.engine_for(willard);
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(cache.size(), 1u);

  MeasureOptions direct{.max_rounds = 1 << 12, .threads = 1};
  direct.cd_engine = CdEngine::kHistoryTree;
  MeasureOptions cached = direct;
  cached.tree_cache = &cache;
  expect_identical(measure_uniform_cd_fixed_k(willard, 60, 4000, 41, direct),
                   measure_uniform_cd_fixed_k(willard, 60, 4000, 41, cached));
  EXPECT_EQ(cache.size(), 1u);

  // Through the sweep scheduler: two cells share the policy, and the
  // sweep (which routes every CD cell through one cache) matches the
  // cache-less direct measurements cell by cell.
  SweepGrid grid;
  grid.add_cell({.algorithm = {.name = "willard", .policy = &willard},
                 .sizes = {.fixed_k = 60},
                 .max_rounds = 1 << 12});
  grid.add_cell({.algorithm = {.name = "willard", .policy = &willard},
                 .sizes = {.fixed_k = 2500},
                 .max_rounds = 1 << 12});
  SweepOptions sweep;
  sweep.trials = 2000;
  sweep.seed = 43;
  sweep.threads = 1;
  sweep.cd_engine = CdEngine::kHistoryTree;
  const auto results = run_sweep(grid, sweep);
  ASSERT_EQ(results.size(), 2u);
  expect_identical(
      results[0].measurement,
      measure_uniform_cd_fixed_k(willard, 60, 2000,
                                 channel::derive_stream_seed(43, 0), direct));
  expect_identical(
      results[1].measurement,
      measure_uniform_cd_fixed_k(willard, 2500, 2000,
                                 channel::derive_stream_seed(43, 1), direct));
}

/// Wraps a policy and counts its probability queries; optionally
/// throws from every query instead.
class CountingPolicy final : public channel::CollisionPolicy {
 public:
  explicit CountingPolicy(const channel::CollisionPolicy& inner)
      : inner_(inner) {}
  double probability(const channel::BitString& history) const override {
    calls_.fetch_add(1);
    if (fail_.load()) throw std::runtime_error("policy failure");
    return inner_.probability(history);
  }
  std::string name() const override { return "counting"; }

  std::size_t calls() const { return calls_.load(); }
  void set_failing(bool fail) { fail_.store(fail); }

 private:
  const channel::CollisionPolicy& inner_;
  mutable std::atomic<std::size_t> calls_{0};
  std::atomic<bool> fail_{false};
};

/// Calls engine.tree_for(k, budget) from `threads` threads released
/// together; returns the number of calls that threw.
std::size_t tree_for_concurrently(const HistoryTreeEngine& engine,
                                  std::size_t k, std::size_t budget,
                                  std::size_t threads) {
  std::atomic<bool> go{false};
  std::atomic<std::size_t> threw{0};
  std::vector<std::thread> pool;
  for (std::size_t i = 0; i < threads; ++i) {
    pool.emplace_back([&] {
      while (!go.load()) std::this_thread::yield();
      try {
        (void)engine.tree_for(k, budget);
      } catch (const std::runtime_error&) {
        threw.fetch_add(1);
      }
    });
  }
  go.store(true);
  for (auto& thread : pool) thread.join();
  return threw.load();
}

TEST(HistoryTreeEngine, ConcurrentCallersShareOneExpansion) {
  // Eight callers of one key at once must expand its tree once: the
  // first builds, the rest wait on the build in flight.
  const baselines::WillardPolicy willard(1 << 16);
  const CountingPolicy alone(willard);
  (void)HistoryTreeEngine(alone).tree_for(60, 1 << 12);
  const std::size_t one_expansion = alone.calls();
  ASSERT_GT(one_expansion, 0u);

  const CountingPolicy counted(willard);
  const HistoryTreeEngine engine(counted);
  EXPECT_EQ(tree_for_concurrently(engine, 60, 1 << 12, 8), 0u);
  EXPECT_EQ(counted.calls(), one_expansion);
  const auto first = engine.tree_for(60, 1 << 12).first;
  const auto again = engine.tree_for(60, 1 << 12).first;
  EXPECT_EQ(first.get(), again.get());
  EXPECT_EQ(counted.calls(), one_expansion);

  // The same through run_many: blocks on eight workers, each needing
  // every size's tree at once, query the policy exactly as often as one
  // worker does — every tree expanded once, the samples unchanged.
  const auto sizes = table1_sizes(1 << 12);
  const channel::SizeSource drawn{&sizes, 0};
  MeasureOptions serial{.max_rounds = 1 << 12, .threads = 1};
  MeasureOptions pooled = serial;
  pooled.threads = 8;
  const CountingPolicy serial_count(willard);
  const CountingPolicy pooled_count(willard);
  const auto expected = measure_blocks(HistoryTreeEngine(serial_count), drawn,
                                       8 * kTrialBlockSize, 37, serial);
  const auto measured = measure_blocks(HistoryTreeEngine(pooled_count), drawn,
                                       8 * kTrialBlockSize, 37, pooled);
  expect_identical(expected, measured);
  EXPECT_EQ(pooled_count.calls(), serial_count.calls());
}

TEST(HistoryTreeEngine, FailedExpansionIsRetriedNotCached) {
  // A build that throws reaches every caller waiting on it, and is not
  // cached: once the policy recovers, the next caller expands afresh.
  const baselines::WillardPolicy willard(1 << 16);
  const CountingPolicy alone(willard);
  (void)HistoryTreeEngine(alone).tree_for(60, 1 << 12);
  const std::size_t one_expansion = alone.calls();

  CountingPolicy flaky(willard);
  const HistoryTreeEngine engine(flaky);
  flaky.set_failing(true);
  EXPECT_EQ(tree_for_concurrently(engine, 60, 1 << 12, 8), 8u);
  EXPECT_THROW((void)engine.tree_for(60, 1 << 12), std::runtime_error);

  flaky.set_failing(false);
  const std::size_t before = flaky.calls();
  const auto [tree, mode] = engine.tree_for(60, 1 << 12);
  ASSERT_NE(tree, nullptr);
  EXPECT_EQ(flaky.calls() - before, one_expansion);
  EXPECT_EQ(engine.tree_for(60, 1 << 12).first.get(), tree.get());
}

/// Collides forever for its first 64 rounds (k = 2 always both
/// transmit), then transmits with probability 1/2 only if the first
/// and the 64th feedback bits were both collisions — a history the
/// walk hands to the fallback simulation as its full 64-bit path.
class SixtyFourthRoundPolicy final : public channel::CollisionPolicy {
 public:
  double probability(const channel::BitString& history) const override {
    if (history.size() < 64) return 1.0;
    return history[0] && history[63] ? 0.5 : 0.0;
  }
  std::string name() const override { return "sixty-fourth-round"; }
};

TEST(HistoryTreeEngine, DepthCapAboveSixtyFourThrows) {
  const ConstantPolicy half(0.5);
  HistoryTreeEngine::Options options;
  options.depth_cap = 65;
  EXPECT_THROW(HistoryTreeEngine(half, options), std::invalid_argument);
  options.depth_cap = 64;
  EXPECT_NO_THROW(HistoryTreeEngine(half, options));
}

TEST(HistoryTreeEngine, WalkHandsTheFullSixtyFourRoundPathToTheFallback) {
  // Every trial walks all 64 levels of the expansion, leaves it at the
  // depth cap, and can only solve if the fallback sees both the first
  // and the last walked bit.
  const SixtyFourthRoundPolicy policy;
  HistoryTreeEngine::Options options;
  options.depth_cap = 64;
  const HistoryTreeEngine engine(policy, options);
  EXPECT_EQ(engine.tree_for(2, 200).second, HistoryTreeEngine::Mode::kWalk);
  const std::size_t count = 1025;
  std::vector<std::uint8_t> solved(count);
  std::vector<std::uint64_t> rounds(count);
  channel::TrialBlock block{.seed = 61,
                            .first_trial = 3,
                            .max_rounds = 200,
                            .sizes = {nullptr, 2},
                            .solved = solved,
                            .rounds = rounds};
  engine.run_many(block);
  for (std::size_t t = 0; t < count; ++t) {
    ASSERT_EQ(solved[t], 1) << "trial " << t;
    ASSERT_GT(rounds[t], 64u) << "trial " << t;
  }
}

// ---- walk-mode column goldens ------------------------------------
//
// The solved/rounds columns of run_many on walk-mode keys, hashed per
// (policy, size source, budget) over blocks of 0, 1, 1023 and 1025
// trials at non-zero first trials. Captured from the per-trial scalar
// walk that the level-synchronous walk replaced: the rewrite must
// consume every trial's stream draw for draw as that loop did, fall
// back to simulation at the same depth, and stop at the same budget.

/// FNV-1a over the solved and rounds columns of `engine` on blocks of
/// 0, 1, 1023 and 1025 trials.
std::uint64_t walk_digest(const HistoryTreeEngine& engine,
                          const channel::SizeSource& sizes,
                          std::size_t max_rounds, std::uint64_t seed) {
  Fnv1a digest;
  std::size_t first_trial = 4097;
  for (const std::size_t count : {0ul, 1ul, 1023ul, 1025ul}) {
    std::vector<std::uint8_t> solved(count, 0xff);
    std::vector<std::uint64_t> rounds(count, ~std::uint64_t{0});
    channel::TrialBlock block{.seed = seed,
                              .first_trial = first_trial,
                              .max_rounds = max_rounds,
                              .sizes = sizes,
                              .solved = solved,
                              .rounds = rounds};
    engine.run_many(block);
    digest.u64(count);
    for (std::size_t t = 0; t < count; ++t) {
      digest.byte(solved[t]);
      digest.u64(rounds[t]);
    }
    first_trial += count + 31;
  }
  return digest.state;
}

struct WalkGolden {
  const char* name;
  std::size_t max_rounds;
  std::uint64_t digest;
};

/// Compares each budget's digest with `goldens`, printing the
/// measured table on a mismatch so a deliberate change can be
/// re-captured in one run.
void expect_walk_goldens(const HistoryTreeEngine& engine,
                         const channel::SizeSource& sizes,
                         std::uint64_t seed,
                         std::span<const WalkGolden> goldens) {
  std::string measured;
  bool all_match = true;
  for (const WalkGolden& golden : goldens) {
    const std::uint64_t got =
        walk_digest(engine, sizes, golden.max_rounds, seed);
    char line[128];
    std::snprintf(line, sizeof line, "      {\"%s\", %zu, 0x%016llxULL},\n",
                  golden.name, golden.max_rounds,
                  static_cast<unsigned long long>(got));
    measured += line;
    if (got != golden.digest) {
      all_match = false;
      ADD_FAILURE() << golden.name << " max_rounds=" << golden.max_rounds;
    }
  }
  if (!all_match) ADD_FAILURE() << "measured digests:\n" << measured;
}

TEST(HistoryTreeEngine, WalkColumnsMatchGoldens) {
  // Willard under a 4-round depth cap: past the budget of 4 nearly
  // every trial leaves the expansion and continues on the simulation.
  const baselines::WillardPolicy willard(1 << 12);
  HistoryTreeEngine::Options capped;
  capped.depth_cap = 4;
  const HistoryTreeEngine willard_engine(willard, capped);
  const auto willard_sizes = table1_sizes(1 << 12);
  const WalkGolden willard_fixed[] = {
      {"willard-cap4-k60", 1, 0x45b56a8f28c5b1d9ULL},
      {"willard-cap4-k60", 2, 0x6a3c276b688384eaULL},
      {"willard-cap4-k60", 3, 0x05c5817201854bb1ULL},
      {"willard-cap4-k60", 4, 0x04d841e8a05b73d4ULL},
      {"willard-cap4-k60", 5, 0xbcd916b0e130d373ULL},
      {"willard-cap4-k60", 1 << 12, 0x6f556acf84981d38ULL},
  };
  expect_walk_goldens(willard_engine, {nullptr, 60}, 51, willard_fixed);
  const WalkGolden willard_drawn[] = {
      {"willard-cap4-drawn", 1, 0x651df4d5b566c116ULL},
      {"willard-cap4-drawn", 2, 0x6c558c133da81b6eULL},
      {"willard-cap4-drawn", 3, 0xeee6d3ac0414eea5ULL},
      {"willard-cap4-drawn", 4, 0x3072961aeabdc097ULL},
      {"willard-cap4-drawn", 5, 0x2962de44d1a69cc7ULL},
      {"willard-cap4-drawn", 1 << 12, 0x6f5c74a4b53f9e43ULL},
  };
  expect_walk_goldens(willard_engine, {&willard_sizes, 0}, 52,
                      willard_drawn);

  // Table 1's coded-search policy at n = 2^12 (the last entropy
  // point) under the default 48-round cap: the walk mode table1 runs.
  const auto points = table1_entropy_points(1 << 12);
  const Table1EntropyPoint& point = points.back();
  const HistoryTreeEngine coded_engine(point.policy);
  const WalkGolden coded_fixed[] = {
      {"coded-k300", 1, 0xcb06781e45ceeabfULL},
      {"coded-k300", 2, 0x2da2b8d3b5b4060aULL},
      {"coded-k300", 47, 0xf521ce5ce7509014ULL},
      {"coded-k300", 48, 0xf521ce5ce7509014ULL},
      {"coded-k300", 49, 0xf521ce5ce7509014ULL},
      {"coded-k300", 1 << 14, 0xf521ce5ce7509014ULL},
  };
  expect_walk_goldens(coded_engine, {nullptr, 300}, 53, coded_fixed);
  const WalkGolden coded_drawn[] = {
      {"coded-drawn", 1, 0xd717d8cd135c8c7bULL},
      {"coded-drawn", 2, 0x29f84c4b69d3f632ULL},
      {"coded-drawn", 47, 0xa272c5eaffde802eULL},
      {"coded-drawn", 48, 0xa272c5eaffde802eULL},
      {"coded-drawn", 49, 0xa272c5eaffde802eULL},
      {"coded-drawn", 1 << 14, 0xa272c5eaffde802eULL},
  };
  expect_walk_goldens(coded_engine, {&point.actual, 0}, 54, coded_drawn);

  // A coarse prune threshold cuts the coded trees from depth 1 on, so
  // even 2- and 3-round budgets walk (and leave the expansion), and a
  // drawn block mixes walk and inverse-CDF slots.
  HistoryTreeEngine::Options coarse;
  coarse.prune_below = 0.1;
  const HistoryTreeEngine pruned_engine(point.policy, coarse);
  const WalkGolden pruned_drawn[] = {
      {"coded-pruned-drawn", 1, 0x50bd18c1a3d9c82eULL},
      {"coded-pruned-drawn", 2, 0x70413c316de2031eULL},
      {"coded-pruned-drawn", 3, 0x065f9c3ca5b9a5deULL},
      {"coded-pruned-drawn", 47, 0xe8f7aff15139e190ULL},
      {"coded-pruned-drawn", 48, 0xc6f51f8ca695173bULL},
      {"coded-pruned-drawn", 49, 0x4a0c85b307cdd3b6ULL},
      {"coded-pruned-drawn", 1 << 14, 0x9ceb3f1074ad0d77ULL},
  };
  expect_walk_goldens(pruned_engine, {&point.actual, 0}, 55, pruned_drawn);
}

// ---- golden fixed-seed statistics --------------------------------
//
// Captured from this engine at introduction time. Any change to the
// per-trial stream derivation, the draw order, or the expansion (prune
// threshold, depth cap, mode selection) shows up here deliberately.

TEST(HistoryTreeEngine, GoldenFixedSeedStatistics) {
  const baselines::WillardPolicy willard(1 << 16);
  MeasureOptions options{
      .max_rounds = 1 << 12, .threads = 1, .keep_samples = true};
  options.cd_engine = CdEngine::kHistoryTree;
  const auto fixed =
      measure_uniform_cd_fixed_k(willard, 60, 2000, 2025, options);
  EXPECT_DOUBLE_EQ(fixed.success_rate, 1.0);
  EXPECT_DOUBLE_EQ(fixed.rounds.mean, 4.7539999999999996);
  EXPECT_DOUBLE_EQ(sample_sum(fixed), 9508.0);

  const auto actual = table1_sizes(1 << 12);
  const baselines::WillardPolicy small(1 << 12);
  const auto drawn = measure_uniform_cd(small, actual, 2000, 2026, options);
  EXPECT_DOUBLE_EQ(drawn.success_rate, 1.0);
  EXPECT_DOUBLE_EQ(drawn.rounds.mean, 4.1965000000000003);
  EXPECT_DOUBLE_EQ(sample_sum(drawn), 8393.0);
}

}  // namespace
}  // namespace crp::harness

// Reproduction of Table 1: entropy-parameterized bounds for contention
// resolution with network size predictions (accurate predictions,
// Y = X).
//
//   paper row                      | measured column
//   -------------------------------+----------------------------------
//   no-CD lower  Omega(2^H/llog n) | E[steps] of the RF chain and the
//                                  | decay baseline vs 2^H/log log n
//   no-CD upper  O(2^{2H}) w.c.p.  | rounds at which the Section 2.5
//                                  | algorithm has succeeded w.p. 1/16
//   CD lower     H/2 - O(llllog n) | E[code len] of the tree RF chain
//   CD upper     O(H^2) w.c.p.     | rounds at which the Section 2.6
//                                  | algorithm has succeeded w.c.p.
//
// Absolute constants are simulator-specific; the reproduced claim is
// the growth law in H and the ordering of the cells.
#include <cmath>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench_util.h"

#include "baselines/decay.h"
#include "baselines/willard.h"
#include "channel/engine.h"
#include "channel/history_engine.h"
#include "channel/rng.h"
#include "core/coded_search.h"
#include "core/likelihood_schedule.h"
#include "harness/fit.h"
#include "harness/grids.h"
#include "harness/measure.h"
#include "harness/parallel.h"
#include "harness/shard.h"
#include "harness/sweep.h"
#include "harness/table.h"
#include "info/distribution.h"
#include "predict/families.h"
#include "rangefind/coding.h"
#include "rangefind/sequence.h"
#include "rangefind/tree.h"

namespace {

constexpr std::size_t kNetwork = 1 << 16;  // 16 geometric ranges
constexpr std::size_t kTrials = 6000;
constexpr std::uint64_t kSeed = 20210526;  // arXiv submission date

using crp::bench::fast;
using crp::harness::fmt;
using crp::harness::MeasureOptions;
using crp::harness::NoCdEngine;

/// The seed configuration: serial, exact per-round binomial loop.
MeasureOptions seed_path(std::size_t max_rounds) {
  return MeasureOptions{
      .max_rounds = max_rounds, .threads = 1, .engine = NoCdEngine::kBinomial};
}

// The Table 1 entropy points and upper-bound grid are the shared
// reference definitions in harness/grids.h — the same cells the
// crp_shard CLI runs, so sharded "table1" runs reproduce exactly this
// bench's grid.
using crp::harness::table1_entropy_points;
using crp::harness::table1_upper_bound_grid;

void print_upper_bounds() {
  const auto points = table1_entropy_points(kNetwork);
  std::cout << "== Table 1 upper bounds (Y = X, n = " << kNetwork
            << ", trials = " << kTrials << ") ==\n";
  const auto results = crp::harness::run_sweep(
      table1_upper_bound_grid(points), {.trials = kTrials, .seed = kSeed});
  crp::harness::Table table(
      {"H(c(X))", "2^2H bound", "noCD r@1/16", "noCD p90", "noCD mean",
       "H^2 bound", "CD r@const", "CD p90", "CD mean"});
  std::vector<double> h_values;
  std::vector<double> nocd_p90;
  std::vector<double> cd_mean;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const double h = points[i].h;
    const auto& no_cd = results[2 * i].measurement;
    const auto& cd = results[2 * i + 1].measurement;

    // Smallest round budget at which >= 1/16 of one-shot executions
    // have succeeded (the Theorem 2.12 success criterion). The p90
    // column exposes the exponential tail growth the bound tracks.
    double r16 = 1.0;
    while (no_cd.solved_within(r16) < 1.0 / 16.0) r16 += 1.0;
    double r_cd = 1.0;
    while (cd.solved_within(r_cd) < 0.25) r_cd += 1.0;

    table.add_row({fmt(h, 2), fmt(std::exp2(2.0 * h), 1), fmt(r16, 0),
                   fmt(no_cd.rounds.p90, 1), fmt(no_cd.rounds.mean, 2),
                   fmt((h + 1.0) * (h + 1.0), 1), fmt(r_cd, 0),
                   fmt(cd.rounds.p90, 1), fmt(cd.rounds.mean, 2)});
    h_values.push_back(h);
    nocd_p90.push_back(no_cd.rounds.p90);
    cd_mean.push_back(cd.rounds.mean);
  }
  table.print(std::cout);
  std::cout << "shape check: spearman(H, noCD p90) = "
            << fmt(crp::harness::spearman(h_values, nocd_p90), 3)
            << " (paper: strictly increasing, exponential in H)\n\n";
}

void print_lower_bounds() {
  const double loglog = std::log2(std::log2(double(kNetwork)));
  std::cout << "== Table 1 lower bounds (reduction chain, n = " << kNetwork
            << ") ==\n";
  crp::harness::Table table(
      {"H(c(X))", "2^H/llog bound", "seq E[code] >= H?", "decay mean",
       "H/2 bound", "tree E[code] >= H?", "willard mean"});
  const crp::baselines::DecaySchedule decay(kNetwork);
  const crp::baselines::WillardPolicy willard(kNetwork);
  const auto seq = crp::rangefind::rf_construction(decay, 600, kNetwork);
  const auto tree =
      crp::rangefind::RangeFindingTree::from_policy(willard, kNetwork, 8);
  const crp::rangefind::SequenceTargetDistanceCode seq_code(seq, loglog);
  const double lll =
      std::log2(std::log2(std::log2(double(kNetwork)))) + 1.0;
  const crp::rangefind::TreeTargetDistanceCode tree_code(tree, lll);

  // The baselines against every entropy point's lifted distribution:
  // one grid, fixed algorithms crossed by hand with the per-point
  // workloads.
  const auto points = table1_entropy_points(kNetwork);
  crp::harness::SweepGrid grid;
  for (const auto& point : points) {
    const crp::harness::SweepSizes sizes{
        .name = "H=" + fmt(point.h, 2), .distribution = &point.actual};
    grid.add_cell({.algorithm = {.name = "decay", .schedule = &decay},
                   .sizes = sizes,
                   .max_rounds = 1 << 18});
    grid.add_cell({.algorithm = {.name = "willard", .policy = &willard},
                   .sizes = sizes,
                   .max_rounds = 1 << 14});
  }
  const auto results = crp::harness::run_sweep(
      grid.cells(), {.trials = kTrials / 2, .seed = kSeed + 2});

  for (std::size_t i = 0; i < points.size(); ++i) {
    const double h = points[i].h;
    const auto [seq_bits, seq_mass] =
        seq_code.expected_length(points[i].condensed);
    const auto [tree_bits, tree_mass] =
        tree_code.expected_length(points[i].condensed);
    const auto& m_decay = results[2 * i].measurement;
    const auto& m_willard = results[2 * i + 1].measurement;
    table.add_row(
        {fmt(h, 2), fmt(std::exp2(h) / loglog, 2),
         fmt(seq_bits, 2) + (seq_bits + 1e-9 >= h ? " yes" : " NO"),
         fmt(m_decay.rounds.mean, 2), fmt(h / 2.0, 2),
         fmt(tree_bits, 2) + (tree_bits + 1e-9 >= h ? " yes" : " NO"),
         fmt(m_willard.rounds.mean, 2)});
    (void)seq_mass;
    (void)tree_mass;
  }
  table.print(std::cout);
  std::cout << "(E[code length] >= H is the Source Coding Theorem step "
               "that forces both lower bounds.)\n\n";
}

void print_pliam_conjecture() {
  std::cout << "== Section 2.5 conjecture support (Pliam): guesswork / "
               "2^H is unbounded ==\n";
  crp::harness::Table table({"alphabet m", "H(spiked)", "2^H",
                             "E[guesswork]", "ratio"});
  for (std::size_t m : {64ul, 256ul, 1024ul, 4096ul, 16384ul}) {
    const auto source = crp::predict::spiked_uniform(m, 0.5);
    const double h = source.entropy();
    const double guesses = crp::predict::expected_guesswork(source);
    table.add_row({fmt(m), fmt(h, 2), fmt(std::exp2(h), 1),
                   fmt(guesses, 1), fmt(guesses / std::exp2(h), 2)});
  }
  table.print(std::cout);
  std::cout << "(E[guesswork] is the expected probe index of the Section "
               "2.5 strategy, so no alpha * 2^H round budget suffices "
               "for every source — supporting the paper's conjecture "
               "that the extra factor in the 2^{2H} exponent is real.)"
               "\n\n";
}

// ---- PR 1 acceptance benchmark: Table 1 no-CD sweep, seed vs fast ----
//
// The exact workload of print_upper_bounds' no-CD column (same entropy
// sweep, same trial counts, same seeds), measured end to end through
// the seed configuration (serial, per-round binomial loop) and the
// fast path (analytic batch engine + thread pool). The speedup target
// for this PR is >= 10x; compare the two entries in BENCH_table1.json.

void Table1NoCdSweep(benchmark::State& state,
                     const MeasureOptions& options) {
  const std::size_t ranges = crp::info::num_ranges(kNetwork);
  double checksum = 0.0;
  for (auto _ : state) {
    for (std::size_t m = 1; m <= ranges; m *= 2) {
      const auto condensed = crp::predict::uniform_over_ranges(ranges, m);
      const auto actual = crp::predict::lift(
          condensed, kNetwork, crp::predict::RangePlacement::kHighEndpoint);
      const crp::core::LikelihoodOrderedSchedule schedule(condensed);
      const auto no_cd = crp::harness::measure_uniform_no_cd(
          schedule, actual, kTrials, kSeed, options);
      checksum += no_cd.rounds.mean;
    }
    benchmark::DoNotOptimize(checksum);
  }
}

void BM_Table1NoCdSweepSeedSerial(benchmark::State& state) {
  Table1NoCdSweep(state, seed_path(1 << 18));
}
BENCHMARK(BM_Table1NoCdSweepSeedSerial)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

void BM_Table1NoCdSweepBatchParallel(benchmark::State& state) {
  Table1NoCdSweep(state, fast(1 << 18));
}
BENCHMARK(BM_Table1NoCdSweepBatchParallel)->Unit(benchmark::kMillisecond);

// ---- PR 4 acceptance benchmark: streaming fold at 10^7 trials ----
//
// One Table 1 entropy cell pushed to trial counts where the
// sample-vector fold would dominate memory (10^7 trials ~ 80 MB of
// samples plus a sort; 10^8 ~ 800 MB). The streaming histogram fold
// keeps per-cell memory flat, which the peak_rss_mb counter exposes:
// it is a process-wide high-water mark, so if the fold resident
// memory grew with the trial count the 10x argument would report a
// strictly larger counter. compare_benches.py --rss-gate fails CI
// when the counter exceeds its ceiling.

void BM_Table1NoCdSweepStreaming(benchmark::State& state) {
  const auto trials = static_cast<std::size_t>(state.range(0));
  const std::size_t ranges = crp::info::num_ranges(kNetwork);
  const auto condensed = crp::predict::uniform_over_ranges(ranges, 6);
  const auto actual = crp::predict::lift(
      condensed, kNetwork, crp::predict::RangePlacement::kHighEndpoint);
  const crp::core::LikelihoodOrderedSchedule schedule(condensed);
  double checksum = 0.0;
  for (auto _ : state) {
    const auto cell = crp::harness::measure_uniform_no_cd(
        schedule, actual, trials, kSeed, fast(1 << 18));
    checksum += cell.rounds.mean;
    benchmark::DoNotOptimize(checksum);
  }
  state.counters["trials_per_cell"] = static_cast<double>(trials);
  state.counters["peak_rss_mb"] = crp::bench::peak_rss_mb();
}
BENCHMARK(BM_Table1NoCdSweepStreaming)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1)
    ->Arg(1'000'000)
    ->Arg(10'000'000);

/// The no-CD likelihood cells of the entropy sweep — the shared
/// workload of the scheduler-vs-sharded benchmark pair below, built
/// in one place so the two grids cannot drift apart (their delta is
/// meaningful only while the cells are identical). `points` must
/// outlive the returned cells.
std::vector<crp::harness::SweepCell> likelihood_sweep_cells(
    const std::vector<crp::harness::Table1EntropyPoint>& points) {
  crp::harness::SweepGrid grid;
  for (const auto& point : points) {
    grid.add_cell({.algorithm = {.name = "likelihood",
                                 .schedule = &point.schedule},
                   .sizes = {.name = "H=" + fmt(point.h, 2),
                             .distribution = &point.actual},
                   .max_rounds = 1 << 18});
  }
  return grid.cells();
}

// The same workload one layer up: the whole entropy sweep declared as
// a grid and executed by the sweep scheduler in a single call (the
// PR 2 acceptance pair is this plus BM_Table1NoCdSweepBatchParallel).
void BM_Table1SweepScheduler(benchmark::State& state) {
  const auto points = table1_entropy_points(kNetwork);
  const auto cells = likelihood_sweep_cells(points);
  double checksum = 0.0;
  for (auto _ : state) {
    const auto results = crp::harness::run_sweep(
        cells, {.trials = kTrials, .seed = kSeed});
    for (const auto& result : results) checksum += result.measurement.rounds.mean;
    benchmark::DoNotOptimize(checksum);
  }
}
BENCHMARK(BM_Table1SweepScheduler)->Unit(benchmark::kMillisecond);

// ---- PR 5 acceptance benchmark: sharded vs. monolithic sweep ----
//
// The BM_Table1SweepScheduler workload cut into 3 shards by the
// shard driver (harness/shard.h) and reassembled with merge_shards —
// what a 3-process fleet runs, executed sequentially in one process
// here so the pair isolates the sharding overhead itself (planning,
// manifests, merge validation). The delta vs BM_Table1SweepScheduler
// is the price of the partition; the results are bit-identical
// (tests/shard_test.cpp), so the checksum matches the monolithic
// bench's exactly.
void BM_Table1SweepSharded(benchmark::State& state) {
  const auto points = table1_entropy_points(kNetwork);
  const auto cells = likelihood_sweep_cells(points);
  constexpr std::size_t kShards = 3;
  double checksum = 0.0;
  for (auto _ : state) {
    std::vector<crp::harness::ShardRun> shards;
    for (std::size_t i = 0; i < kShards; ++i) {
      shards.push_back(crp::harness::run_sweep_shard(
          cells, {.shard_count = kShards, .shard_index = i},
          {.trials = kTrials, .seed = kSeed}));
    }
    const auto merged = crp::harness::merge_shards(shards);
    for (const auto& result : merged) checksum += result.measurement.rounds.mean;
    benchmark::DoNotOptimize(checksum);
  }
}
BENCHMARK(BM_Table1SweepSharded)->Unit(benchmark::kMillisecond);

// ---- Thread scaling of the whole Table 1 grid on the tree CD engine ----
//
// The Table 1 upper-bound grid (the no-CD likelihood and CD coded cells
// at every entropy point) on the history-tree CD engine at 1, 2 and 4
// worker threads: the tracked scaling curve of the sweep's (cell,
// block) queue. The coded cells cost several times the no-CD ones per
// trial, so the curve shows how evenly the queue spreads them. Each
// run_sweep call builds its own tree cache, so the expansions are
// inside the timing, as they are in a `crp_shard run`. Wall time
// (UseRealTime): the work happens on the pool, not the timing thread.
void BM_Table1TreeSweep(benchmark::State& state) {
  constexpr std::size_t kScalingTrials = 200'000;
  const auto points = table1_entropy_points(kNetwork);
  const auto cells = table1_upper_bound_grid(points).cells();
  crp::harness::SweepOptions options{
      .trials = kScalingTrials,
      .seed = kSeed,
      .threads = static_cast<std::size_t>(state.range(0))};
  options.cd_engine = crp::harness::CdEngine::kHistoryTree;
  double checksum = 0.0;
  for (auto _ : state) {
    for (const auto& result : crp::harness::run_sweep(cells, options)) {
      checksum += result.measurement.rounds.mean;
    }
    benchmark::DoNotOptimize(checksum);
  }
  state.counters["trials_per_s"] = benchmark::Counter(
      static_cast<double>(kScalingTrials * cells.size()),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_Table1TreeSweep)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->Arg(1)
    ->Arg(2)
    ->Arg(4);

// ---- The coded-search walk, warm ----
//
// One layer below BM_Table1TreeSweep: HistoryTreeEngine::run_many on
// Table 1's H = 4 coded cell (the last entropy point) at n = 2^20,
// block after block of kTrialBlockSize trials with every tree already
// expanded — the per-trial cost of the walk-mode sampling the coded
// cells of a table1 run spend their time in (every tree's pruned mass
// is above resolve_epsilon, so no key samples by inverse CDF). One
// series per kernel tier the host offers (registered in main), since
// the walk runs in the kernel table.
void BM_Table1CodedWalk(benchmark::State& state,
                        crp::channel::kernels::Tier tier) {
  namespace kn = crp::channel::kernels;
  const kn::Tier dispatched = kn::tier();
  kn::force_tier(tier);
  const auto points = table1_entropy_points(1 << 20);
  const auto& point = points.back();
  const crp::channel::HistoryTreeEngine engine(point.policy);
  constexpr std::size_t kBlock = crp::harness::kTrialBlockSize;
  std::vector<std::uint8_t> solved(kBlock);
  std::vector<std::uint64_t> rounds(kBlock);
  crp::channel::TrialBlock block{.seed = kSeed,
                                 .max_rounds = 1 << 14,
                                 .sizes = {.distribution = &point.actual},
                                 .solved = solved,
                                 .rounds = rounds};
  // Warm-up: expand every tree the first blocks draw.
  for (int i = 0; i < 8; ++i) {
    engine.run_many(block);
    block.first_trial += kBlock;
  }
  for (auto _ : state) {
    engine.run_many(block);
    block.first_trial += kBlock;
    benchmark::DoNotOptimize(rounds.data());
    benchmark::ClobberMemory();
  }
  state.counters["ns_per_trial"] = benchmark::Counter(
      1e-9 * kBlock,
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
  kn::force_tier(dispatched);
}

void register_coded_walk_series() {
  namespace kn = crp::channel::kernels;
  for (const kn::Tier tier :
       {kn::Tier::kScalar, kn::Tier::kAvx2, kn::Tier::kAvx512}) {
    if (kn::ops_for(tier) == nullptr) continue;  // absent on this host
    benchmark::RegisterBenchmark(
        (std::string("BM_Table1CodedWalk/") + kn::tier_name(tier)).c_str(),
        BM_Table1CodedWalk, tier)
        ->Unit(benchmark::kMicrosecond);
  }
}

// ---- google-benchmark microbenchmarks: per-round simulation cost ----

void BM_NoCdRound(benchmark::State& state) {
  const auto condensed = crp::predict::uniform_over_ranges(
      crp::info::num_ranges(kNetwork),
      static_cast<std::size_t>(state.range(0)));
  const crp::core::LikelihoodOrderedSchedule schedule(condensed);
  const auto actual = crp::predict::lift(
      condensed, kNetwork, crp::predict::RangePlacement::kHighEndpoint);
  auto rng = crp::channel::make_rng(kSeed);
  std::size_t solved = 0;
  for (auto _ : state) {
    const std::size_t k = actual.sample(rng);
    const auto result =
        crp::channel::run_uniform_no_cd(schedule, k, rng, {1 << 18});
    solved += result.solved ? 1 : 0;
    benchmark::DoNotOptimize(solved);
  }
}
BENCHMARK(BM_NoCdRound)->Arg(1)->Arg(4)->Arg(16);

void BM_CdRound(benchmark::State& state) {
  const auto condensed = crp::predict::uniform_over_ranges(
      crp::info::num_ranges(kNetwork),
      static_cast<std::size_t>(state.range(0)));
  const crp::core::CodedSearchPolicy policy(condensed);
  const auto actual = crp::predict::lift(
      condensed, kNetwork, crp::predict::RangePlacement::kHighEndpoint);
  auto rng = crp::channel::make_rng(kSeed);
  std::size_t solved = 0;
  for (auto _ : state) {
    const std::size_t k = actual.sample(rng);
    const auto result =
        crp::channel::run_uniform_cd(policy, k, rng, {1 << 14});
    solved += result.solved ? 1 : 0;
    benchmark::DoNotOptimize(solved);
  }
}
BENCHMARK(BM_CdRound)->Arg(1)->Arg(4)->Arg(16);

}  // namespace

int main(int argc, char** argv) {
  if (crp::bench::consume_skip_tables(argc, argv)) {
    print_upper_bounds();
    print_lower_bounds();
    print_pliam_conjecture();
  }
  benchmark::Initialize(&argc, argv);
  crp::bench::report_kernel_tier();
  register_coded_walk_series();
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}

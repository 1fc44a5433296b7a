// Reproduction of Table 2: tight bounds for contention resolution with
// b bits of perfect advice.
//
//   cell                     | paper bound             | protocol
//   --------------------------+-------------------------+---------------
//   deterministic, no CD     | Theta(n^{1-beta}/log n)* | subtree scan
//   deterministic, CD        | Theta(log n - b)         | tree descent
//   randomized, no CD        | Theta(log n / 2^b)       | trunc. decay
//   randomized, CD           | Theta(log log n - b)     | trunc. Willard
//
// (*) measured as worst-case rounds ~ n / 2^b for b = beta log n, the
// form the Theorem 3.4 tightness construction achieves.
// Also exercises the Theorem 3.3 foundation: non-interactive contention
// resolution needs >= log n advice bits.
#include <cmath>
#include <cstdint>
#include <iostream>
#include <vector>

#include <benchmark/benchmark.h>

#include <memory>

#include "bench_util.h"

#include "channel/engine.h"
#include "channel/rng.h"
#include "core/advice.h"
#include "core/advice_deterministic.h"
#include "core/advice_randomized.h"
#include "core/faulty_advice.h"
#include "harness/fit.h"
#include "harness/grids.h"
#include "harness/measure.h"
#include "harness/parallel.h"
#include "harness/sweep.h"
#include "harness/table.h"
#include "info/distribution.h"
#include "rangefind/selective.h"

namespace {

constexpr std::uint64_t kSeed = 314159;
using crp::bench::fast;
using crp::harness::fmt;

void print_deterministic() {
  constexpr std::size_t n = 1 << 10;
  std::cout << "== Table 2, deterministic rows (n = " << n
            << ", worst-case rounds over probed participant sets) ==\n";
  crp::harness::Table table({"b", "n/2^b bound", "noCD worst",
                             "log(n)-b bound", "CD worst"});
  // The probe fan-out is thread-count invariant; run it on the pool.
  const crp::harness::MeasureOptions pooled{.max_rounds = 1 << 20,
                                            .threads = 0};
  for (std::size_t b : {0ul, 2ul, 4ul, 6ul, 8ul, 10ul}) {
    const crp::core::SubtreeScanProtocol scan(n, b);
    const crp::core::TreeDescentCdProtocol descent(n, b);
    const crp::core::MinIdPrefixAdvice advice(n, b);
    const double no_cd = crp::harness::worst_case_deterministic_rounds(
        scan, advice, n, /*k=*/4, false, /*probes=*/300, kSeed, pooled);
    const double cd = crp::harness::worst_case_deterministic_rounds(
        descent, advice, n, /*k=*/4, true, /*probes=*/300, kSeed + 1,
        pooled);
    table.add_row({fmt(b), fmt(double(n) / std::exp2(double(b)), 0),
                   fmt(no_cd, 0),
                   fmt(std::log2(double(n)) - double(b), 0), fmt(cd, 0)});
  }
  table.print(std::cout);
  std::cout << '\n';
}

void print_randomized() {
  constexpr std::size_t n = 1 << 16;
  constexpr std::size_t k = 2500;  // range 12 of 16
  constexpr std::size_t trials = 6000;
  std::cout << "== Table 2, randomized rows (n = " << n << ", k = " << k
            << ", expected rounds) ==\n";
  crp::harness::Table table({"b", "log(n)/2^b bound", "noCD mean",
                             "loglog(n)-b bound", "CD mean"});
  std::vector<double> bs;
  std::vector<double> nocd_means;
  std::vector<std::size_t> participants(k);
  for (std::size_t i = 0; i < k; ++i) participants[i] = i;

  // One advice-budget point per b: the truncated baselines configured
  // for the advised range group, swept as fixed-k cells in one grid.
  struct BudgetPoint {
    BudgetPoint(std::size_t n, std::size_t b,
                const std::vector<std::size_t>& participants)
        : advice(n, b),
          group(crp::core::bits_to_index(advice.advise(participants))),
          decay(advice.ranges_in_group(group)),
          willard(advice.ranges_in_group(group)) {}

    crp::core::RangeGroupAdvice advice;
    std::size_t group;
    crp::core::TruncatedDecaySchedule decay;
    crp::core::TruncatedWillardPolicy willard;
  };
  const std::vector<std::size_t> budgets{0, 1, 2, 3, 4};
  std::vector<BudgetPoint> points;
  for (const std::size_t b : budgets) {
    points.emplace_back(n, b, participants);
  }
  crp::harness::SweepGrid grid;
  for (const auto& point : points) {
    const crp::harness::SweepSizes sizes{.fixed_k = k};
    grid.add_cell({.algorithm = {.name = "trunc-decay",
                                 .schedule = &point.decay},
                   .sizes = sizes,
                   .max_rounds = 1 << 14});
    grid.add_cell({.algorithm = {.name = "trunc-willard",
                                 .policy = &point.willard},
                   .sizes = sizes,
                   .max_rounds = 1 << 12});
  }
  const auto results = crp::harness::run_sweep(
      grid.cells(), {.trials = trials, .seed = kSeed + 2});

  for (std::size_t i = 0; i < budgets.size(); ++i) {
    const std::size_t b = budgets[i];
    const auto& m_decay = results[2 * i].measurement;
    const auto& m_willard = results[2 * i + 1].measurement;
    table.add_row(
        {fmt(b), fmt(std::log2(double(n)) / std::exp2(double(b)), 2),
         fmt(m_decay.rounds.mean, 2),
         fmt(std::max(0.0, std::log2(std::log2(double(n))) - double(b)),
             2),
         fmt(m_willard.rounds.mean, 2)});
    bs.push_back(std::log2(double(n)) / std::exp2(double(b)));
    nocd_means.push_back(m_decay.rounds.mean);
  }
  table.print(std::cout);
  const auto fit = crp::harness::fit_through_origin(bs, nocd_means);
  std::cout << "shape check: noCD mean ~ " << fmt(fit.slope, 2)
            << " * log(n)/2^b  (R^2 = " << fmt(fit.r_squared, 3)
            << "; paper: Theta(log n / 2^b))\n\n";
}

void print_non_interactive() {
  std::cout << "== Theorem 3.3 foundation: non-interactive contention "
               "resolution ==\n";
  crp::harness::Table table({"n", "ceil(log n) bits", "min-id scheme ok",
                             "induced family selective"});
  for (std::size_t n : {4ul, 8ul, 12ul, 16ul}) {
    const auto scheme =
        crp::rangefind::NonInteractiveScheme::min_id_scheme(n);
    const bool correct = !scheme.find_violation().has_value();
    const bool selective = crp::rangefind::is_strongly_selective(
        scheme.induced_family(), n);
    table.add_row({fmt(n), fmt(scheme.advice_bits()),
                   correct ? "yes" : "NO", selective ? "yes" : "NO"});
  }
  table.print(std::cout);
  std::cout << "(Theorem 3.2/3.3: any correct scheme induces an (n,n)-"
               "strongly selective family, hence needs >= log n bits.)\n\n";
}

void print_faulty_advice() {
  // Robustness sweep (the Section 1.3 theme): corrupt the advice bits
  // and watch the protocols degrade gracefully instead of failing.
  constexpr std::size_t n = 1 << 10;
  constexpr std::size_t b = 5;
  constexpr std::size_t trials = 1500;
  std::cout << "== Faulty advice: " << b << "-bit advisors with flipped "
               "bits (n = " << n << ", mean rounds) ==\n";
  crp::harness::Table table({"flip prob", "noCD scan", "CD descent",
                             "all solved"});
  const crp::core::SubtreeScanProtocol scan(n, b);
  const crp::core::TreeDescentCdProtocol descent(n, b);
  const auto inner = std::make_shared<crp::core::MinIdPrefixAdvice>(n, b);
  const auto sizes = crp::info::SizeDistribution::uniform(64);
  for (double flip : {0.0, 0.05, 0.2, 0.5, 1.0}) {
    const crp::core::FaultyAdvice faulty(inner, flip, kSeed + 9);
    const auto m_scan = crp::harness::measure_deterministic_advice(
        scan, faulty, sizes, n, false, trials, kSeed + 10, fast(8 * n));
    const auto m_descent = crp::harness::measure_deterministic_advice(
        descent, faulty, sizes, n, true, trials, kSeed + 11, fast(8 * n));
    const bool all_solved =
        m_scan.success_rate == 1.0 && m_descent.success_rate == 1.0;
    table.add_row({fmt(flip, 2), fmt(m_scan.rounds.mean, 2),
                   fmt(m_descent.rounds.mean, 2),
                   all_solved ? "yes" : "NO"});
  }
  table.print(std::cout);
  std::cout << "(wrong advice costs rounds — a wrong subtree scan falls "
               "back to a full sweep, a wrong descent escalates to the "
               "full tree — but never correctness)\n\n";
}

// ---- microbenchmarks ----

// The Table 2 randomized-CD sweep (truncated Willard at advice budgets
// b = 0..4, fixed k) once per engine: the per-round Markov simulation
// adapter vs the cached history-tree sampler
// (channel/history_engine.h), at equal trials. The pair quantifies the
// CD fast path the same way BM_Table1NoCdSweep* quantifies the no-CD
// one; bench/results/BENCH_table2.json tracks both.
void run_cd_sweep(benchmark::State& state,
                  crp::harness::CdEngine cd_engine) {
  constexpr std::size_t n = 1 << 16;
  constexpr std::size_t k = 2500;
  constexpr std::size_t trials = 6000;
  std::vector<std::size_t> participants(k);
  for (std::size_t i = 0; i < k; ++i) participants[i] = i;

  struct WillardPoint {
    WillardPoint(std::size_t n, std::size_t b,
                 const std::vector<std::size_t>& participants)
        : advice(n, b),
          willard(advice.ranges_in_group(
              crp::core::bits_to_index(advice.advise(participants)))) {}
    crp::core::RangeGroupAdvice advice;
    crp::core::TruncatedWillardPolicy willard;
  };
  std::vector<WillardPoint> points;
  for (const std::size_t b : {0, 1, 2, 3, 4}) {
    points.emplace_back(n, b, participants);
  }
  crp::harness::SweepGrid grid;
  for (const auto& point : points) {
    grid.add_cell({.algorithm = {.name = "trunc-willard",
                                 .policy = &point.willard},
                   .sizes = {.fixed_k = k},
                   .max_rounds = 1 << 12});
  }
  const auto cells = grid.cells();
  for (auto _ : state) {
    const auto results = crp::harness::run_sweep(
        cells, {.trials = trials, .seed = kSeed + 2,
                .cd_engine = cd_engine});
    benchmark::DoNotOptimize(results.back().measurement.rounds.mean);
  }
}

void BM_Table2CdSweepSimulated(benchmark::State& state) {
  run_cd_sweep(state, crp::harness::CdEngine::kSimulate);
}
BENCHMARK(BM_Table2CdSweepSimulated)->Unit(benchmark::kMillisecond);

void BM_Table2CdTreeSweep(benchmark::State& state) {
  run_cd_sweep(state, crp::harness::CdEngine::kHistoryTree);
}
BENCHMARK(BM_Table2CdTreeSweep)->Unit(benchmark::kMillisecond);

// One layer below BM_Table2CdSweepSimulated: the per-round CD
// simulator (CollisionPolicyColumnarEngine::run_many) on 1,024-trial
// blocks of a coded-search cell — Table 1's H = 4 point at n = 2^16,
// sizes drawn, budget 2^14, the cell shape `--cd-engine simulate`
// sweeps spend their time in. Each block is a fresh run_many call, so
// the per-trial stream seeding and the block-scoped policy memo and
// samplers are all inside the timed region.
void BM_CdSimulateBlock(benchmark::State& state) {
  const auto points = crp::harness::table1_entropy_points(1 << 16);
  const auto& point = points.back();
  const crp::channel::CollisionPolicyColumnarEngine engine(point.policy);
  constexpr std::size_t kBlock = crp::harness::kTrialBlockSize;
  std::vector<std::uint8_t> solved(kBlock);
  std::vector<std::uint64_t> rounds(kBlock);
  crp::channel::TrialBlock block{.seed = kSeed,
                                 .max_rounds = 1 << 14,
                                 .sizes = {.distribution = &point.actual},
                                 .solved = solved,
                                 .rounds = rounds};
  for (int i = 0; i < 4; ++i) {
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
}
BENCHMARK(BM_CdSimulateBlock)->Unit(benchmark::kMicrosecond);

void BM_SubtreeScanWorstCase(benchmark::State& state) {
  constexpr std::size_t n = 1 << 10;
  const std::size_t b = static_cast<std::size_t>(state.range(0));
  const crp::core::SubtreeScanProtocol protocol(n, b);
  const crp::core::MinIdPrefixAdvice advice(n, b);
  std::vector<std::size_t> tail{n - 3, n - 2, n - 1};
  const auto bits = advice.advise(tail);
  for (auto _ : state) {
    const auto result = crp::channel::run_deterministic(
        protocol, bits, tail, false, {4 * n});
    benchmark::DoNotOptimize(result.rounds);
  }
}
BENCHMARK(BM_SubtreeScanWorstCase)->Arg(0)->Arg(4)->Arg(8);

void BM_TreeDescentWorstCase(benchmark::State& state) {
  constexpr std::size_t n = 1 << 10;
  const std::size_t b = static_cast<std::size_t>(state.range(0));
  const crp::core::TreeDescentCdProtocol protocol(n, b);
  const crp::core::MinIdPrefixAdvice advice(n, b);
  std::vector<std::size_t> head{0, 1, 2};
  const auto bits = advice.advise(head);
  for (auto _ : state) {
    const auto result = crp::channel::run_deterministic(
        protocol, bits, head, true, {4 * n});
    benchmark::DoNotOptimize(result.rounds);
  }
}
BENCHMARK(BM_TreeDescentWorstCase)->Arg(0)->Arg(4)->Arg(8);

void BM_NonInteractiveVerification(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto scheme = crp::rangefind::NonInteractiveScheme::min_id_scheme(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheme.find_violation());
  }
}
BENCHMARK(BM_NonInteractiveVerification)->Arg(8)->Arg(12)->Arg(16);

}  // namespace

int main(int argc, char** argv) {
  if (crp::bench::consume_skip_tables(argc, argv)) {
    print_deterministic();
    print_randomized();
    print_non_interactive();
    print_faulty_advice();
  }
  benchmark::Initialize(&argc, argv);
  crp::bench::report_kernel_tier();
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}

// The sweep scheduler (harness/sweep.h): per-cell derived seeds make a
// whole grid replayable from one master seed, independent of thread
// count, execution order, and grid composition; results line up with
// direct measure_* calls; and the table/CSV renderers emit one row per
// cell.
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/decay.h"
#include "baselines/willard.h"
#include "channel/rng.h"
#include "harness/csv.h"
#include "harness/sweep.h"
#include "info/distribution.h"

namespace crp::harness {
namespace {

void expect_identical(const Measurement& a, const Measurement& b) {
  EXPECT_EQ(a.trials, b.trials);
  // Full per-round distribution, not just the derived summary.
  EXPECT_TRUE(a.histogram == b.histogram);
  EXPECT_EQ(a.success_rate, b.success_rate);
  EXPECT_EQ(a.rounds.mean, b.rounds.mean);
  EXPECT_EQ(a.rounds.p90, b.rounds.p90);
}

/// A small mixed grid: two schedules and one policy crossed with two
/// workloads.
struct Fixture {
  Fixture()
      : decay(1 << 10),
        slow_decay(1 << 6),
        willard(1 << 10),
        uniform(info::SizeDistribution::uniform(1 << 10)),
        spread(info::SizeDistribution::from_pairs(1 << 10, kSpreadPairs)) {}

  SweepGrid grid() const {
    SweepGrid grid;
    grid.add_algorithm({.name = "decay", .schedule = &decay})
        .add_algorithm({.name = "slow-decay", .schedule = &slow_decay})
        .add_algorithm({.name = "willard", .policy = &willard})
        .add_sizes({.name = "uniform", .distribution = &uniform})
        .add_sizes({.name = "k=100", .fixed_k = 100})
        .add_budget(1 << 12);
    return grid;
  }

  baselines::DecaySchedule decay;
  baselines::DecaySchedule slow_decay;
  baselines::WillardPolicy willard;
  info::SizeDistribution uniform;
  /// Eight sizes: few enough history trees for a CD cell on the tree
  /// engine to expand quickly, many enough to mix modes in a block.
  static constexpr std::pair<std::size_t, double> kSpreadPairs[] = {
      {2, 0.1},    {5, 0.2},    {17, 0.1},  {60, 0.2},
      {100, 0.1},  {300, 0.1},  {700, 0.1}, {1024, 0.1}};
  info::SizeDistribution spread;
};

TEST(Sweep, GridCrossProductShape) {
  const Fixture f;
  const auto cells = f.grid().cells();
  ASSERT_EQ(cells.size(), 6u);  // 3 algorithms x 2 workloads x 1 budget
  EXPECT_EQ(cells[0].algorithm.name, "decay");
  EXPECT_EQ(cells[0].sizes.name, "uniform");
  EXPECT_EQ(cells[0].max_rounds, std::size_t{1} << 12);
  EXPECT_EQ(cells.back().algorithm.name, "willard");
  EXPECT_EQ(cells.back().sizes.fixed_k, 100u);
}

TEST(Sweep, ExplicitCellsPrecedeCrossProduct) {
  const Fixture f;
  SweepGrid grid;
  grid.add_cell({.algorithm = {.name = "paired", .schedule = &f.decay},
                 .sizes = {.name = "k=7", .fixed_k = 7}});
  grid.add_algorithm({.name = "decay", .schedule = &f.decay})
      .add_sizes({.name = "uniform", .distribution = &f.uniform});
  const auto cells = grid.cells();
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(cells[0].algorithm.name, "paired");
  EXPECT_EQ(cells[1].algorithm.name, "decay");
}

std::string sweep_csv(std::span<const SweepResult> results) {
  std::ostringstream csv;
  write_sweep_csv(csv, results);
  return csv.str();
}

/// Scheduler edge cases for the (cell, block) queue: coded cells on the
/// history-tree engine, per-cell trial overrides over a 0-trial default,
/// and trial counts of 0, 1 and 1025 (one block plus one trial, so a
/// cell's last block holds a single trial).
std::vector<SweepCell> edge_cells(const Fixture& f) {
  const SweepSizes uniform{.name = "uniform", .distribution = &f.uniform};
  const SweepSizes spread{.name = "spread", .distribution = &f.spread};
  const SweepSizes k100{.name = "k=100", .fixed_k = 100};
  const SweepAlgorithm decay{.name = "decay", .schedule = &f.decay};
  const SweepAlgorithm slow{.name = "slow-decay", .schedule = &f.slow_decay};
  const SweepAlgorithm willard{.name = "willard", .policy = &f.willard};
  return {
      {.algorithm = willard, .sizes = spread, .max_rounds = 1 << 12,
       .trials = 3000},
      {.algorithm = decay, .sizes = k100, .max_rounds = 1 << 12},
      {.algorithm = willard, .sizes = k100, .max_rounds = 1 << 12,
       .trials = 1},
      {.algorithm = slow, .sizes = uniform, .max_rounds = 1 << 12,
       .trials = 1025},
      {.algorithm = willard, .sizes = k100, .max_rounds = 1 << 12,
       .trials = 1025},
      {.algorithm = decay, .sizes = uniform, .max_rounds = 1 << 12,
       .trials = 2500},
  };
}

// CSV bytes of the two sweeps below. How the scheduler spreads blocks
// over workers must never show in the output, so these stay fixed
// whatever it does.
constexpr const char* kGoldenGridCsv =
    R"csv(algorithm,sizes,budget,trials,cell_seed,mean,ci95,p50,p90,p99,success_rate
decay,uniform,4096,600,15517599431202433770,14.0550,0.7458,10.0,28.1,44.1,1.0000
decay,k=100,4096,600,13606743526313246680,10.5533,0.5375,8.0,19.0,31.0,1.0000
slow-decay,uniform,4096,600,9312843868474496213,549.5329,97.7863,98.0,1988.0,3836.5,0.5567
slow-decay,k=100,4096,600,9971732663584954733,16.8483,1.0899,14.0,35.0,69.0,1.0000
willard,uniform,4096,600,11004934251761650609,5.4367,0.3512,4.0,11.0,21.0,1.0000
willard,k=100,4096,600,6048660068791662337,4.3000,0.2672,3.0,9.0,17.0,1.0000
)csv";
constexpr const char* kGoldenEdgeCsv =
    R"csv(algorithm,sizes,budget,trials,cell_seed,mean,ci95,p50,p90,p99,success_rate
willard,spread,4096,3000,15517599431202433770,4.5890,0.1406,3.0,10.0,19.0,1.0000
decay,k=100,4096,0,13606743526313246680,0.0000,0.0000,0.0,0.0,0.0,0.0000
willard,k=100,4096,1,9312843868474496213,2.0000,0.0000,2.0,2.0,2.0,1.0000
slow-decay,uniform,4096,1025,9971732663584954733,545.3939,74.8450,84.0,1960.0,3717.0,0.5473
willard,k=100,4096,1025,11004934251761650609,4.2712,0.2080,3.0,9.0,16.8,1.0000
decay,uniform,4096,2500,6048660068791662337,14.2240,0.3791,10.0,22.0,53.0,1.0000
)csv";

TEST(Sweep, DeterministicAcrossThreadCounts) {
  // Same grid, same master seed, every thread count — one worker, fewer
  // workers than cells, as many, and more workers than the grid has
  // blocks — must produce identical measurements and CSV bytes.
  const Fixture f;
  struct Case {
    std::vector<SweepCell> cells;
    SweepOptions options;
    const char* golden;
  };
  SweepOptions tree{.trials = 0, .seed = 31};
  tree.cd_engine = CdEngine::kHistoryTree;
  const std::vector<Case> cases{
      {f.grid().cells(), {.trials = 600, .seed = 31}, kGoldenGridCsv},
      {edge_cells(f), tree, kGoldenEdgeCsv},
  };
  for (const Case& c : cases) {
    SweepOptions serial = c.options;
    serial.threads = 1;
    const auto reference = run_sweep(c.cells, serial);
    ASSERT_EQ(reference.size(), c.cells.size());
    EXPECT_EQ(sweep_csv(reference), c.golden);
    for (const std::size_t threads : {2ul, 3ul, 4ul, 16ul}) {
      SweepOptions pooled_options = c.options;
      pooled_options.threads = threads;
      const auto pooled = run_sweep(c.cells, pooled_options);
      ASSERT_EQ(pooled.size(), reference.size());
      EXPECT_EQ(sweep_csv(pooled), sweep_csv(reference))
          << "threads=" << threads;
      for (std::size_t i = 0; i < reference.size(); ++i) {
        expect_identical(reference[i].measurement, pooled[i].measurement);
        EXPECT_EQ(reference[i].cell_seed, pooled[i].cell_seed);
      }
    }
  }
}

/// A CD policy whose every probability query throws.
class ThrowingPolicy final : public channel::CollisionPolicy {
 public:
  double probability(const channel::BitString&) const override {
    throw std::runtime_error("policy failure");
  }
  std::string name() const override { return "throwing"; }
};

TEST(Sweep, MiddleCellExceptionReachesCaller) {
  // A cell that throws mid-sweep surfaces on the caller's thread, on
  // both CD engines (the tree engine throws from its expansion) and at
  // every thread count.
  const Fixture f;
  const ThrowingPolicy throwing;
  SweepGrid grid;
  grid.add_cell({.algorithm = {.name = "decay", .schedule = &f.decay},
                 .sizes = {.fixed_k = 100},
                 .max_rounds = 1 << 12})
      .add_cell({.algorithm = {.name = "throwing", .policy = &throwing},
                 .sizes = {.fixed_k = 100},
                 .max_rounds = 1 << 12})
      .add_cell({.algorithm = {.name = "willard", .policy = &f.willard},
                 .sizes = {.distribution = &f.uniform},
                 .max_rounds = 1 << 12});
  for (const CdEngine engine : {CdEngine::kSimulate, CdEngine::kHistoryTree}) {
    for (const std::size_t threads : {1ul, 4ul}) {
      SweepOptions options{.trials = 5000, .seed = 3, .threads = threads};
      options.cd_engine = engine;
      EXPECT_THROW(run_sweep(grid, options), std::runtime_error)
          << "threads=" << threads;
    }
  }
}

TEST(Sweep, CellsMatchDirectMeasurement) {
  // A sweep is exactly the corresponding measure_* calls at the
  // derived per-cell seeds.
  const Fixture f;
  const auto cells = f.grid().cells();
  const SweepOptions options{.trials = 500, .seed = 77, .threads = 1};
  const auto results = run_sweep(cells, options);
  const MeasureOptions direct{.max_rounds = 1 << 12, .threads = 1};
  expect_identical(
      results[0].measurement,
      measure_uniform_no_cd(f.decay, f.uniform, 500,
                            channel::derive_stream_seed(77, 0), direct));
  expect_identical(results[1].measurement,
                   measure_uniform_no_cd_fixed_k(
                       f.decay, 100, 500,
                       channel::derive_stream_seed(77, 1), direct));
  expect_identical(
      results[5].measurement,
      measure_uniform_cd_fixed_k(f.willard, 100, 500,
                                 channel::derive_stream_seed(77, 5),
                                 direct));
}

TEST(Sweep, PinnedSeedStreamsSurviveGridFiltering) {
  // A cell with an explicit seed_stream measures identically no matter
  // which other cells share the grid (the crp_sim registry contract).
  const Fixture f;
  const SweepCell pinned{.algorithm = {.name = "decay",
                                       .schedule = &f.decay},
                         .sizes = {.name = "uniform",
                                   .distribution = &f.uniform},
                         .max_rounds = 1 << 12,
                         .seed_stream = 42};
  const SweepCell other{.algorithm = {.name = "willard",
                                      .policy = &f.willard},
                        .sizes = {.name = "k=100", .fixed_k = 100},
                        .max_rounds = 1 << 12};
  const SweepOptions options{.trials = 400, .seed = 5, .threads = 1};
  const std::vector<SweepCell> alone{pinned};
  const std::vector<SweepCell> paired{other, pinned};
  const auto r_alone = run_sweep(alone, options);
  const auto r_paired = run_sweep(paired, options);
  expect_identical(r_alone[0].measurement, r_paired[1].measurement);
  EXPECT_EQ(r_alone[0].cell_seed, r_paired[1].cell_seed);
}

TEST(Sweep, PerCellTrialOverrides) {
  const Fixture f;
  SweepGrid grid;
  grid.add_cell({.algorithm = {.name = "decay", .schedule = &f.decay},
                 .sizes = {.fixed_k = 50},
                 .max_rounds = 1 << 12,
                 .trials = 123});
  const auto results =
      run_sweep(grid.cells(), {.trials = 999, .seed = 1, .threads = 1});
  EXPECT_EQ(results[0].measurement.trials, 123u);
}

TEST(Sweep, RejectsAlgorithmlessCells) {
  const Fixture f;
  const std::vector<SweepCell> cells{
      SweepCell{.algorithm = {.name = "nothing"},
                .sizes = {.distribution = &f.uniform}}};
  EXPECT_THROW(run_sweep(cells, {.trials = 10, .threads = 1}),
               std::invalid_argument);
}

TEST(Sweep, TableAndCsvEmitOneRowPerCell) {
  const Fixture f;
  const auto results =
      run_sweep(f.grid().cells(), {.trials = 200, .seed = 9, .threads = 1});
  const Table table = sweep_table(results);
  EXPECT_EQ(table.rows(), results.size());
  EXPECT_EQ(table.columns(), 10u);

  std::ostringstream csv;
  write_sweep_csv(csv, results);
  std::size_t lines = 0;
  std::string line;
  std::istringstream in(csv.str());
  while (std::getline(in, line)) ++lines;
  EXPECT_EQ(lines, results.size() + 1);  // header + one per cell
  EXPECT_NE(csv.str().find("algorithm,sizes,budget,trials,cell_seed,mean"),
            std::string::npos);
}

TEST(Sweep, CsvCellSeedRoundTrips) {
  // The cell_seed column must carry the exact derived seed: parsing it
  // back and re-running the cell's measure_* call under it reproduces
  // the row — the contract a multi-process shard driver relies on.
  const Fixture f;
  const SweepOptions options{.trials = 300, .seed = 123, .threads = 1};
  const auto results = run_sweep(f.grid().cells(), options);
  std::ostringstream csv;
  write_sweep_csv(csv, results);

  std::istringstream in(csv.str());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));  // header
  std::size_t seed_column = 0;
  {
    std::istringstream header(line);
    std::string cell;
    while (std::getline(header, cell, ',') && cell != "cell_seed") {
      ++seed_column;
    }
    EXPECT_EQ(cell, "cell_seed");
  }
  for (const auto& result : results) {
    ASSERT_TRUE(std::getline(in, line));
    std::istringstream row(line);
    std::string cell;
    for (std::size_t c = 0; c <= seed_column; ++c) {
      ASSERT_TRUE(std::getline(row, cell, ','));
    }
    const std::uint64_t parsed = std::stoull(cell);
    EXPECT_EQ(parsed, result.cell_seed);
  }

  // Replay one cell from the parsed seed alone.
  const auto replay = measure_uniform_no_cd(
      f.decay, f.uniform, 300, results[0].cell_seed,
      MeasureOptions{.max_rounds = 1 << 12, .threads = 1});
  expect_identical(replay, results[0].measurement);
}

TEST(Sweep, CsvQuotesCommaAndQuoteBearingNames) {
  // A name containing a comma or a double quote must survive the CSV
  // round trip instead of silently splitting its row (RFC-4180
  // quoting in CsvWriter, quote-aware split_csv_row on the way back).
  const Fixture f;
  SweepGrid grid;
  grid.add_cell({.algorithm = {.name = "decay, tuned \"v2\"",
                               .schedule = &f.decay},
                 .sizes = {.name = "uniform, n=1024",
                           .distribution = &f.uniform},
                 .max_rounds = 1 << 12});
  const auto results =
      run_sweep(grid.cells(), {.trials = 100, .seed = 4, .threads = 1});
  std::ostringstream csv;
  write_sweep_csv(csv, results);

  std::istringstream in(csv.str());
  std::string header_line;
  std::string row_line;
  ASSERT_TRUE(std::getline(in, header_line));
  ASSERT_TRUE(std::getline(in, row_line));
  const auto header = split_csv_row(header_line);
  const auto row = split_csv_row(row_line);
  ASSERT_EQ(row.size(), header.size());  // the row did not split
  EXPECT_EQ(row[0], "decay, tuned \"v2\"");
  EXPECT_EQ(row[1], "uniform, n=1024");
  // The raw line carries both names RFC-4180 quoted.
  EXPECT_EQ(
      row_line.rfind("\"decay, tuned \"\"v2\"\"\",\"uniform, n=1024\",", 0),
      0u);
}

TEST(Sweep, PinnedSeedStreamRejectsReservedSentinel) {
  // kSeedStreamFromIndex is reserved: an explicit pin of 0xFFFF...F is
  // indistinguishable from the default and would silently decay to
  // index-derived seeds, so the pinning helper throws instead.
  EXPECT_THROW(pinned_seed_stream(kSeedStreamFromIndex),
               std::invalid_argument);
  EXPECT_EQ(pinned_seed_stream(0), 0u);
  EXPECT_EQ(pinned_seed_stream(~std::uint64_t{0} - 1),
            ~std::uint64_t{0} - 1);
}

}  // namespace
}  // namespace crp::harness

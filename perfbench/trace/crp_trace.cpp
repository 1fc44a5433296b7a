// crp_trace: the in-process half of the crp_shard benchmark
// (perfbench/README.md). It links the same library crp_shard does and
// calls each layer's public functions in the order crp_shard calls
// them, with a span around every call, so wall time can be split by
// layer without hooks inside the program.
//
// Usage:
//   crp_trace oracle --out FILE GRID_FLAGS
//       Exact mean solving round per cell over its size mixture, from
//       exact_profile_no_cd to the cell's budget (no-CD cells) or
//       exact_profile_cd (CD cells), with the mass the profile left
//       unresolved and the slack that mass allows (see oracle_mode).
//   crp_trace trace --out FILE --work DIR --crp-shard EXE
//                   [--supervise] [--workers W] GRID_FLAGS
//       The traced run: replays the workload (run_sweep, or
//       run_supervisor with --supervise) under spans, then takes the
//       per-layer differentials and writes a crp-trace-v1 JSON report
//       (metrics with units and sample counts, per-span self time, and
//       every span) to FILE. Scratch files go under DIR.
//
// GRID_FLAGS are crp_shard's: --grid table1 --n N | --grid-spec FILE,
// --trials T, --seed S, --threads T, --cd-engine simulate|tree.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "channel/engine.h"
#include "channel/history_engine.h"
#include "channel/kernels/kernels.h"
#include "channel/rng.h"
#include "harness/accumulate.h"
#include "harness/checkpoint.h"
#include "harness/exact.h"
#include "harness/gridspec.h"
#include "harness/grids.h"
#include "harness/history_tree.h"
#include "harness/parallel.h"
#include "harness/shard.h"
#include "harness/supervisor.h"
#include "harness/sweep.h"

namespace {

namespace ch = crp::harness;
namespace cn = crp::channel;
namespace kn = crp::channel::kernels;
using Steady = std::chrono::steady_clock;

[[noreturn]] void fail(const std::string& message) {
  std::cerr << "crp_trace: " << message << "\n";
  std::exit(2);
}

struct Options {
  std::string mode;
  std::string grid_spec;
  std::size_t n = 1 << 16;
  std::size_t trials = 6000;
  std::uint64_t seed = 20210526;
  std::size_t threads = 1;
  std::string cd_engine = "simulate";
  std::string out;
  std::string work;
  std::string crp_shard;
  bool supervise = false;
  std::size_t workers = 2;
};

Options parse_args(int argc, char** argv) {
  if (argc < 2) fail("usage: crp_trace oracle|trace [flags]");
  Options o;
  o.mode = argv[1];
  if (o.mode != "oracle" && o.mode != "trace") fail("unknown mode " + o.mode);
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) fail("missing value for " + arg);
      return argv[++i];
    };
    const auto number = [&]() -> std::uint64_t {
      const std::string value = next();
      if (value.empty() ||
          value.find_first_not_of("0123456789") != std::string::npos) {
        fail("expected a non-negative integer for " + arg);
      }
      return std::stoull(value);
    };
    if (arg == "--grid") {
      if (next() != "table1") fail("only --grid table1 is built in");
    } else if (arg == "--grid-spec") {
      o.grid_spec = next();
    } else if (arg == "--n") {
      o.n = number();
    } else if (arg == "--trials") {
      o.trials = number();
    } else if (arg == "--seed") {
      o.seed = number();
    } else if (arg == "--threads") {
      o.threads = number();
    } else if (arg == "--cd-engine") {
      o.cd_engine = next();
    } else if (arg == "--out") {
      o.out = next();
    } else if (arg == "--work") {
      o.work = next();
    } else if (arg == "--crp-shard") {
      o.crp_shard = next();
    } else if (arg == "--supervise") {
      o.supervise = true;
    } else if (arg == "--workers") {
      o.workers = number();
    } else {
      fail("unknown argument " + arg);
    }
  }
  if (o.out.empty()) fail("--out is required");
  if (o.mode == "trace" && (o.work.empty() || o.crp_shard.empty())) {
    fail("trace needs --work DIR and --crp-shard EXE");
  }
  if (o.cd_engine != "simulate" && o.cd_engine != "tree") {
    fail("unknown --cd-engine " + o.cd_engine);
  }
  if (o.threads == 0 || o.workers == 0) fail("--threads/--workers must be >= 1");
  return o;
}

/// A grid plus the storage its cells borrow (crp_shard's OwnedGrid).
struct OwnedGrid {
  std::vector<ch::Table1EntropyPoint> points;
  ch::GridSpec spec;
  std::vector<ch::SweepCell> cells;
};

/// crp_shard's build_grid, verbatim in effect.
OwnedGrid build_grid(const Options& o) {
  OwnedGrid owned;
  if (!o.grid_spec.empty()) {
    owned.spec = ch::read_grid_spec_file(o.grid_spec);
    owned.cells = owned.spec.cells;
    return owned;
  }
  owned.points = ch::table1_entropy_points(o.n);
  owned.cells = ch::table1_upper_bound_grid(owned.points).cells();
  return owned;
}

ch::SweepOptions sweep_options(const Options& o, std::size_t threads) {
  ch::SweepOptions sweep{.trials = o.trials, .seed = o.seed,
                         .threads = threads};
  if (o.cd_engine == "tree") sweep.cd_engine = ch::CdEngine::kHistoryTree;
  return sweep;
}

std::size_t cell_trials(const ch::SweepCell& cell, const Options& o) {
  return cell.trials != 0 ? cell.trials : o.trials;
}

/// (k, P(k)) over a cell's size source.
std::vector<std::pair<std::size_t, double>> size_support(
    const ch::SweepCell& cell) {
  std::vector<std::pair<std::size_t, double>> support;
  if (cell.sizes.distribution == nullptr) {
    support.emplace_back(cell.sizes.fixed_k, 1.0);
    return support;
  }
  const auto& probs = cell.sizes.distribution->probabilities();
  for (std::size_t k = 0; k < probs.size(); ++k) {
    if (probs[k] > 0.0) support.emplace_back(k, probs[k]);
  }
  return support;
}

std::string json_number(double value) {
  std::ostringstream out;
  out << std::setprecision(17) << value;
  return out.str();
}

// ---------------------------------------------------------------------------
// oracle

/// Depth and pruning of the exact CD profiles. The mass they leave
/// unresolved sets the oracle's slack; pruning at 1e-11 instead would
/// shrink it about fivefold and cost about ten times the time.
constexpr std::size_t kOracleCdHorizon = 64;
constexpr double kOraclePruneBelow = 1e-9;

int oracle_mode(const Options& o) {
  const OwnedGrid grid = build_grid(o);
  std::ostringstream out;
  out << "{\"format\": \"crp-oracle-v1\", \"cells\": [";
  for (std::size_t i = 0; i < grid.cells.size(); ++i) {
    const ch::SweepCell& cell = grid.cells[i];
    const auto budget = static_cast<std::size_t>(cell.max_rounds);
    // Sweep rows report the mean solving round over the trials solved
    // within the budget B. Per k, a profile to horizon h <= B gives the
    // solved mass P(R <= h) and its round sum E_h; `unresolved` is the
    // mass the profile could not place (pruned branches and the
    // frontier past h). Over the size mixture the row's expectation is
    // (N + X) / (D + q) with N = Σ P(k)·E_h, D = Σ P(k)·P(R <= h),
    // q <= unresolved and q <= X <= q·B; since 1 <= N/D <= B, it lies
    // within unresolved·(B - 1)/D of N/D. That is the slack.
    double sum = 0.0, solved = 0.0, unresolved = 0.0;
    for (const auto& [k, p] : size_support(cell)) {
      if (cell.algorithm.schedule != nullptr) {
        // The whole budget: mass past B is unsolved in the sweep too.
        const ch::ExactProfile profile =
            ch::exact_profile_no_cd(*cell.algorithm.schedule, k, budget);
        sum += p * (profile.truncated_expectation -
                    profile.tail_mass * static_cast<double>(budget + 1));
        solved += p * (1.0 - profile.tail_mass);
      } else {
        const std::size_t horizon = std::min(budget, kOracleCdHorizon);
        const ch::ExactProfile profile = ch::exact_profile_cd(
            *cell.algorithm.policy, k, horizon, kOraclePruneBelow,
            std::max<std::size_t>(1, o.threads));
        sum += p * (profile.truncated_expectation -
                    profile.tail_mass * static_cast<double>(horizon + 1));
        solved += p * (1.0 - profile.tail_mass);
        unresolved += p * profile.tail_mass;
      }
    }
    const double slack =
        unresolved * static_cast<double>(budget - 1) / solved;
    out << (i == 0 ? "\n" : ",\n") << "  {\"cell_index\": " << i
        << ", \"kind\": \""
        << (cell.algorithm.schedule != nullptr ? "no_cd" : "cd")
        << "\", \"exact_mean\": " << json_number(sum / solved)
        << ", \"unresolved_mass\": " << json_number(unresolved)
        << ", \"slack\": " << json_number(slack) << "}";
  }
  out << "\n]}\n";
  ch::atomic_write_file(o.out, out.str());
  return 0;
}

// ---------------------------------------------------------------------------
// spans

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;  ///< index into the span list, -1 = root
  std::int64_t cell = -1;    ///< global cell index, -1 = not per cell
};

/// In-memory span recorder: spans nest by a stack of open spans and
/// are written out once, when the traced run ends.
class Tracer {
 public:
  std::size_t open(const std::string& name, std::int64_t cell = -1) {
    const std::int64_t parent =
        stack_.empty() ? -1 : static_cast<std::int64_t>(stack_.back());
    spans_.push_back({name, now_ns(), 0, parent, cell});
    stack_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }
  /// Closes the innermost open span; returns its duration in seconds.
  double close() {
    Span& span = spans_[stack_.back()];
    stack_.pop_back();
    span.end_ns = now_ns();
    return 1e-9 * static_cast<double>(span.end_ns - span.start_ns);
  }
  template <typename Fn>
  double time(const std::string& name, Fn&& fn, std::int64_t cell = -1) {
    open(name, cell);
    fn();
    return close();
  }
  const std::vector<Span>& spans() const { return spans_; }

  /// Self time per span name: duration minus the union of the child
  /// spans (children of one parent never overlap — they run in order).
  std::map<std::string, std::pair<double, std::size_t>> self_times() const {
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    for (const Span& span : spans_) {
      if (span.parent >= 0) child_ns[span.parent] += span.end_ns - span.start_ns;
    }
    std::map<std::string, std::pair<double, std::size_t>> self;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      auto& [seconds, count] = self[spans_[i].name];
      seconds += 1e-9 * static_cast<double>(spans_[i].end_ns -
                                            spans_[i].start_ns - child_ns[i]);
      ++count;
    }
    return self;
  }

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Steady::now() - epoch_)
        .count();
  }
  Steady::time_point epoch_ = Steady::now();
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

/// Nearest-rank quantile.
double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double seconds_since(Steady::time_point start) {
  return std::chrono::duration<double>(Steady::now() - start).count();
}

struct Metric {
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
  std::string note;
};

/// Supervisor clock that forwards to steady time and counts what the
/// fleet loop sleeps (its poll cadence, plus any retry backoff).
class CountingClock final : public ch::Clock {
 public:
  std::int64_t now_ms() override { return inner_->now_ms(); }
  void sleep_ms(std::int64_t ms) override {
    const auto start = Steady::now();
    inner_->sleep_ms(ms);
    slept_s_ += seconds_since(start);
    ++sleeps_;
  }
  double slept_s() const { return slept_s_; }
  std::size_t sleeps() const { return sleeps_; }

 private:
  std::unique_ptr<ch::Clock> inner_ = ch::steady_clock_source();
  double slept_s_ = 0.0;
  std::size_t sleeps_ = 0;
};

/// A CheckpointSink that keeps nothing: the checkpointed runner with
/// it pays everything but the journal's append and sync.
class NullSink final : public ch::CheckpointSink {
 public:
  void append(std::string_view) override {}
  void sync() override {}
};

/// Result columns for `trials` trials.
struct Columns {
  explicit Columns(std::size_t trials) : solved(trials), rounds(trials) {}
  std::vector<std::uint8_t> solved;
  std::vector<std::uint64_t> rounds;
};

/// Drives `engine` over [0, trials) in kTrialBlockSize blocks on the
/// calling thread — measure_blocks' partition, without the pool.
void run_blocks(const cn::Engine& engine, const ch::SweepCell& cell,
                std::uint64_t seed, Columns& columns) {
  const std::size_t trials = columns.solved.size();
  for (std::size_t begin = 0; begin < trials; begin += ch::kTrialBlockSize) {
    const std::size_t count = std::min(ch::kTrialBlockSize, trials - begin);
    cn::TrialBlock block;
    block.seed = seed;
    block.first_trial = begin;
    block.max_rounds = cell.max_rounds;
    block.sizes = {cell.sizes.distribution, cell.sizes.fixed_k};
    block.solved = std::span(columns.solved).subspan(begin, count);
    block.rounds = std::span(columns.rounds).subspan(begin, count);
    engine.run_many(block);
  }
}

class TraceRun {
 public:
  explicit TraceRun(const Options& o) : o_(o), work_(o.work) {
    std::filesystem::create_directories(work_);
  }

  int run() {
    replay();
    setup_layers();
    sweep_layers();
    checkpoint_layers();
    channel_layers();
    kernel_layers();
    parallel_layers();
    if (!o_.supervise) supervisor_layer();
    write_report();
    return 0;
  }

 private:
  void put(const std::string& name, double value, const std::string& unit,
           std::size_t samples, const std::string& note = {}) {
    metrics_[name] = {value, unit, samples, note};
  }

  /// The traced end-to-end pass, in crp_shard's order: grid build,
  /// plan, execute, durable CSV. Its wall time against the untraced
  /// crp_shard median is the tracing overhead.
  void replay() {
    const auto start = Steady::now();
    tracer_.open("replay");
    OwnedGrid grid;
    tracer_.time("harness.gridspec.build", [&] { grid = build_grid(o_); });
    tracer_.time("harness.shard.plan", [&] {
      (void)ch::grid_fingerprint(grid.cells);
      plan_ = ch::plan_shards(grid.cells, ch::ShardOptions{});
    });
    if (o_.supervise) {
      supervise(grid.cells, "replay.csv", "replay-fleet", o_.workers, o_.threads);
    } else {
      std::vector<ch::SweepResult> results;
      tracer_.time("harness.sweep.run_sweep", [&] {
        results = ch::run_sweep(std::span<const ch::SweepCell>(grid.cells),
                                sweep_options(o_, o_.threads));
      });
      tracer_.time("harness.csv.write", [&] {
        std::ostringstream csv;
        ch::write_sweep_csv(csv, results);
        ch::atomic_write_file((work_ / "replay.csv").string(), csv.str());
      });
    }
    tracer_.close();
    put("trace.replay_s", seconds_since(start), "s", 1,
        "traced in-process replay; trace.overhead_s subtracts the untraced "
        "crp_shard wall_s");
    grid_ = std::move(grid);
  }

  /// Supervised fleet over `cells` with a counting clock; leaves the
  /// worker artifacts in work/<dir> for the merge timing.
  void supervise(std::span<const ch::SweepCell> cells, const std::string& out,
                 const std::string& dir, std::size_t workers,
                 std::size_t threads) {
    std::filesystem::remove_all(work_ / dir);
    std::filesystem::create_directories(work_ / dir);
    CountingClock clock;
    ch::SuperviseOptions supervise;
    supervise.exe = o_.crp_shard;
    if (!o_.grid_spec.empty()) {
      supervise.worker_flags = {"--grid-spec", o_.grid_spec};
    } else {
      supervise.worker_flags = {"--grid", "table1", "--n", std::to_string(o_.n)};
    }
    supervise.worker_flags.insert(
        supervise.worker_flags.end(),
        {"--trials", std::to_string(o_.trials), "--seed",
         std::to_string(o_.seed), "--cd-engine", o_.cd_engine, "--threads",
         std::to_string(threads)});
    supervise.out = (work_ / out).string();
    supervise.out_dir = (work_ / dir).string();
    supervise.workers = workers;
    supervise.retry.jitter_seed = cn::derive_stream_seed(o_.seed, 0x6a177e72u);
    supervise.clock = &clock;
    ch::SuperviseResult result;
    tracer_.time("harness.supervisor.run", [&] {
      result = ch::run_supervisor(cells, sweep_options(o_, threads), supervise);
    });
    if (result.status != ch::SuperviseStatus::kCompleted ||
        !result.quarantined.empty()) {
      throw std::runtime_error("traced supervise did not converge cleanly");
    }
    put("harness.supervisor.poll_sleep_s", clock.slept_s(), "s", clock.sleeps(),
        "time the fleet loop slept in Clock::sleep_ms");
    put("harness.supervisor.workers_spawned",
        static_cast<double>(result.workers_spawned), "count", 1);
  }

  void supervisor_layer() {
    // Run-mode workloads get the fleet layer measured on their own grid
    // at a load of nproc: 2 workers x 2 threads (or fewer on small hosts).
    const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
    const std::size_t workers = std::min<std::size_t>(2, hw);
    const std::size_t threads = std::clamp<std::size_t>(hw / workers, 1, 2);
    supervise(grid_.cells, "fleet.csv", "fleet", workers, threads);
  }

  void setup_layers() {
    std::vector<double> build, plan;
    for (int rep = 0; rep < 5; ++rep) {
      OwnedGrid grid;
      build.push_back(tracer_.time("harness.gridspec.build",
                                   [&] { grid = build_grid(o_); }));
      plan.push_back(tracer_.time("harness.shard.plan", [&] {
        (void)ch::grid_fingerprint(grid.cells);
        (void)ch::plan_shards(grid.cells, ch::ShardOptions{});
      }));
    }
    put("harness.gridspec.build_s", median(build), "s", build.size(),
        o_.grid_spec.empty() ? "table1_entropy_points + grid" : "spec parse");
    put("harness.shard.plan_s", median(plan), "s", plan.size(),
        "grid_fingerprint + plan_shards");
  }

  /// Per-cell serial cost (each planned cell alone at one thread) and
  /// the whole-grid run_sweep wall at the workload's thread count.
  void sweep_layers() {
    const std::span<const ch::SweepCell> cells(plan_.cells);
    tracer_.open("harness.sweep.cells_serial");
    std::vector<double> cell_s;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      cell_s.push_back(tracer_.time(
          "harness.sweep.cell",
          [&] { (void)ch::run_sweep(cells.subspan(i, 1), sweep_options(o_, 1)); },
          static_cast<std::int64_t>(i)));
    }
    tracer_.close();
    sweep_wall_s_ = tracer_.time("harness.sweep.run_sweep", [&] {
      sweep_results_ = ch::run_sweep(cells, sweep_options(o_, o_.threads));
    });
    double sum = 0.0;
    for (const double s : cell_s) sum += s;
    const double longest = *std::max_element(cell_s.begin(), cell_s.end());
    const double bound =
        std::max(longest, sum / static_cast<double>(o_.threads));
    std::vector<double> cell_ms;
    for (const double s : cell_s) cell_ms.push_back(1e3 * s);
    put("harness.sweep.cell_ms_p50", median(cell_ms), "ms", cell_ms.size(),
        "serial cost of one cell (run_sweep of that cell at 1 thread)");
    put("harness.sweep.cell_ms_max", 1e3 * longest, "ms", cell_ms.size());
    put("harness.sweep.imbalance_s", sweep_wall_s_ - bound, "s", 1,
        "run_sweep wall - max(longest cell, sum(cells)/threads)");
  }

  void checkpoint_layers() {
    // The workload's cells at one trial each: what the journal costs a
    // cell does not depend on its trial count, and with next to no
    // compute the append + sync is not lost in the noise.
    std::vector<ch::SweepCell> cells = grid_.cells;
    for (ch::SweepCell& cell : cells) cell.trials = 1;
    const std::string journal = (work_ / "ckpt.journal").string();
    // The same checkpointed run with the real file sink and with a sink
    // that keeps nothing, alternated; the paired difference per cell is
    // what the journal's append + sync adds.
    std::vector<double> file_s, null_s;
    ch::CheckpointRunResult run;
    for (int rep = 0; rep < 11; ++rep) {
      for (const bool real : {true, false}) {
        std::filesystem::remove(journal);
        ch::CheckpointRunOptions checkpoint;
        checkpoint.journal_path = journal;
        if (!real) {
          checkpoint.sink_factory = [](const std::string&) {
            return std::make_unique<NullSink>();
          };
        }
        // Cell spans open on start and close once the record is appended.
        checkpoint.on_cell_start = [this](std::size_t cell) {
          tracer_.open("harness.checkpoint.cell", static_cast<std::int64_t>(cell));
        };
        checkpoint.on_cell_executed = [this](std::size_t) { tracer_.close(); };
        (real ? file_s : null_s)
            .push_back(tracer_.time(
                real ? "harness.checkpoint.run_file" : "harness.checkpoint.run_null",
                [&] {
                  run = ch::run_sweep_shard_checkpointed(
                      std::span<const ch::SweepCell>(cells), ch::ShardOptions{},
                      sweep_options(o_, o_.threads), checkpoint);
                }));
      }
    }
    std::vector<double> overhead_ms;
    for (std::size_t rep = 0; rep < file_s.size(); ++rep) {
      overhead_ms.push_back(1e3 * (file_s[rep] - null_s[rep]) /
                            static_cast<double>(cells.size()));
    }
    put("harness.checkpoint.cell_overhead_ms", median(overhead_ms), "ms",
        overhead_ms.size(),
        "run_sweep_shard_checkpointed with the file sink minus with a no-op "
        "sink, per cell at one trial; median of paired runs");

    // Append + sync of the real records, cycled to at least 64 samples.
    std::vector<ch::CheckpointRecord> records;
    for (const ch::SweepResult& result : sweep_results_) {
      records.push_back({result.cell_index, result.cell_seed,
                         ch::sweep_csv_row(result)});
    }
    const std::string append_path = (work_ / "append.journal").string();
    ch::atomic_write_file(append_path,
                          ch::format_checkpoint_header(run.manifest,
                                                       ch::sweep_csv_header()));
    std::vector<double> append_ms;
    {
      auto sink = ch::open_file_checkpoint_sink(append_path);
      const std::size_t samples = std::max<std::size_t>(64, records.size());
      tracer_.open("harness.checkpoint.append_sync_all");
      for (std::size_t i = 0; i < samples; ++i) {
        const std::string bytes =
            ch::format_checkpoint_record(records[i % records.size()]);
        append_ms.push_back(1e3 * tracer_.time("harness.checkpoint.append_sync",
                                               [&] {
                                                 sink->append(bytes);
                                                 sink->sync();
                                               }));
      }
      tracer_.close();
    }
    put("harness.checkpoint.append_sync_ms_p50", median(append_ms), "ms",
        append_ms.size());
    put("harness.checkpoint.append_sync_ms_p90", quantile(append_ms, 0.9), "ms",
        append_ms.size());

    std::vector<double> write_ms;
    const std::string target = (work_ / "atomic.csv").string();
    for (int rep = 0; rep < 11; ++rep) {
      write_ms.push_back(1e3 * tracer_.time("harness.checkpoint.atomic_write", [&] {
        ch::atomic_write_file(target, run.csv);
      }));
    }
    put("harness.checkpoint.atomic_write_ms", median(write_ms), "ms",
        write_ms.size(), "atomic_write_file of the run's CSV");
  }

  /// Median of three passes of an already-warm engine over the same
  /// TrialBlocks.
  double warm_pass(const std::string& name, const cn::Engine& engine,
                   const ch::SweepCell& cell, std::uint64_t seed,
                   Columns& columns, std::int64_t id) {
    std::vector<double> passes;
    for (int rep = 0; rep < 3; ++rep) {
      passes.push_back(tracer_.time(
          name, [&] { run_blocks(engine, cell, seed, columns); }, id));
    }
    return median(passes);
  }

  /// Engine-level differentials over the workload's own cells: a cold
  /// engine (fresh tables/trees) and then warm passes over identical
  /// TrialBlocks; the difference is the table build.
  void channel_layers() {
    double batch_cold = 0.0, batch_warm = 0.0, fold_s = 0.0;
    std::size_t batch_trials = 0, batch_cells = 0;
    double tree_cold = 0.0, tree_warm = 0.0, sim_s = 0.0;
    std::size_t tree_trials = 0, tree_cells = 0, sim_trials = 0;
    std::set<std::pair<const cn::CollisionPolicy*, std::size_t>> cd_keys;
    std::map<const cn::CollisionPolicy*, std::size_t> policy_budget;
    for (std::size_t i = 0; i < plan_.cells.size(); ++i) {
      const ch::SweepCell& cell = plan_.cells[i];
      const std::uint64_t seed = cn::derive_stream_seed(o_.seed, cell.seed_stream);
      const auto id = static_cast<std::int64_t>(i);
      if (cell.algorithm.schedule != nullptr) {
        Columns columns(std::min<std::size_t>(cell_trials(cell, o_), 1 << 16));
        const cn::BatchColumnarEngine engine(*cell.algorithm.schedule);
        batch_cold += tracer_.time("channel.batch.cold",
                                   [&] { run_blocks(engine, cell, seed, columns); }, id);
        batch_warm += warm_pass("channel.batch.warm", engine, cell, seed,
                                columns, id);
        fold_s += tracer_.time("harness.accumulate.fold", [&] {
          // One histogram per worker, merged in worker order, as
          // measure_blocks folds.
          std::vector<ch::RoundHistogram> workers(4);
          const std::size_t trials = columns.solved.size();
          for (std::size_t b = 0; b * ch::kTrialBlockSize < trials; ++b) {
            const std::size_t begin = b * ch::kTrialBlockSize;
            const std::size_t count = std::min(ch::kTrialBlockSize, trials - begin);
            workers[b % workers.size()].add_columns(
                std::span(columns.solved).subspan(begin, count),
                std::span(columns.rounds).subspan(begin, count));
          }
          ch::RoundHistogram total;
          for (const auto& worker : workers) total.merge(worker);
          if (total.trials() != trials) throw std::runtime_error("fold lost trials");
        }, id);
        batch_trials += columns.solved.size();
        ++batch_cells;
      } else {
        const cn::CollisionPolicy& policy = *cell.algorithm.policy;
        Columns columns(std::min<std::size_t>(cell_trials(cell, o_), 1 << 12));
        const cn::HistoryTreeEngine engine(policy);
        tree_cold += tracer_.time("channel.history_engine.cold",
                                  [&] { run_blocks(engine, cell, seed, columns); }, id);
        tree_warm += warm_pass("channel.history_engine.warm", engine, cell,
                               seed, columns, id);
        tree_trials += columns.solved.size();
        ++tree_cells;
        Columns sim_columns(std::min<std::size_t>(cell_trials(cell, o_), 1 << 11));
        const cn::CollisionPolicyColumnarEngine simulator(policy);
        sim_s += tracer_.time("channel.simulator.run",
                              [&] { run_blocks(simulator, cell, seed, sim_columns); }, id);
        sim_trials += sim_columns.solved.size();
        policy_budget[&policy] = cell.max_rounds;
        for (const auto& [k, p] : size_support(cell)) cd_keys.insert({&policy, k});
      }
    }
    put("channel.batch.table_build_s", batch_cold - batch_warm, "s", batch_cells,
        "cold minus warm BatchColumnarEngine::run_many, summed over no-CD cells");
    put("channel.batch.warm_ns_per_trial", 1e9 * batch_warm / batch_trials, "ns",
        batch_trials);
    put("harness.accumulate.fold_ns_per_trial", 1e9 * fold_s / batch_trials, "ns",
        batch_trials, "RoundHistogram::add_columns + merge");
    put("channel.history_engine.cold_minus_warm_s", tree_cold - tree_warm, "s",
        tree_cells, "cold minus warm HistoryTreeEngine::run_many");
    put("channel.history_engine.warm_ns_per_trial", 1e9 * tree_warm / tree_trials,
        "ns", tree_trials);
    put("channel.simulator.ns_per_trial", 1e9 * sim_s / sim_trials, "ns",
        sim_trials, "CollisionPolicyColumnarEngine::run_many");

    // History-tree expansion per distinct (policy, k): an evenly spaced
    // sample of at most 48 keys, expanded with the engine's defaults.
    std::vector<std::pair<const cn::CollisionPolicy*, std::size_t>> keys(
        cd_keys.begin(), cd_keys.end());
    const std::size_t sample = std::min<std::size_t>(48, keys.size());
    const cn::HistoryTreeEngine::Options defaults;
    std::vector<double> expand_ms;
    tracer_.open("harness.history_tree.expand_all");
    for (std::size_t j = 0; j < sample; ++j) {
      const auto& [policy, k] = keys[j * keys.size() / sample];
      ch::HistoryTreeOptions expand;
      expand.horizon = std::min(defaults.depth_cap, policy_budget[policy]);
      expand.prune_below = defaults.prune_below;
      expand.threads = defaults.expand_threads;
      expand.max_nodes = defaults.max_nodes;
      expand_ms.push_back(1e3 * tracer_.time("harness.history_tree.expand", [&] {
        (void)ch::expand_history_tree(*policy, k, expand);
      }));
    }
    tracer_.close();
    put("harness.history_tree.expand_ms", median(expand_ms), "ms",
        expand_ms.size(),
        "median over an even sample of the workload's " +
            std::to_string(keys.size()) + " distinct (policy, k)");
  }

  /// Every kernel pass on every tier the host offers, on inputs drawn
  /// from the workload's first no-CD and first CD cell.
  void kernel_layers() {
    constexpr std::size_t kCount = 1 << 15;
    constexpr int kReps = 31;
    const ch::SweepCell* no_cd = nullptr;
    const ch::SweepCell* cd = nullptr;
    for (const ch::SweepCell& cell : plan_.cells) {
      if (cell.algorithm.schedule != nullptr && no_cd == nullptr) no_cd = &cell;
      if (cell.algorithm.policy != nullptr && cd == nullptr) cd = &cell;
    }
    if (no_cd == nullptr || cd == nullptr) {
      throw std::runtime_error("workload needs a no-CD and a CD cell");
    }
    // Modal k of each cell's size source.
    const auto modal_k = [](const ch::SweepCell& cell) {
      const auto support = size_support(cell);
      return std::max_element(support.begin(), support.end(),
                              [](const auto& a, const auto& b) {
                                return a.second < b.second;
                              })
          ->first;
    };
    const std::uint64_t seed = o_.seed;
    std::vector<double> uniforms(kCount), targets(kCount), scratch(kCount);
    std::vector<std::uint64_t> out(kCount);
    kn::ops_for(kn::Tier::kScalar)->pass1_uniform(seed, 0, kCount, uniforms.data());
    targets = uniforms;
    kn::ops_for(kn::Tier::kScalar)->map_targets(targets.data(), kCount);
    const cn::BatchNoCdSampler sampler(*no_cd->algorithm.schedule);
    const double lowest = *std::min_element(targets.begin(), targets.end());
    const auto table = sampler.snapshot(modal_k(*no_cd), lowest, no_cd->max_rounds);
    const kn::ProbeTable probe = sampler.probe_view(*table, no_cd->max_rounds);
    const cn::HistoryTreeEngine tree_engine(*cd->algorithm.policy);
    const auto tree = tree_engine.tree_for(modal_k(*cd), cd->max_rounds).first;
    if (tree->truncated || tree->padded_solve_cdf.empty()) {
      throw std::runtime_error("no probe_cdf table for the first CD cell");
    }
    const kn::CdfTable cdf{tree->padded_solve_cdf.data(),
                           tree->padded_solve_cdf.size(), tree->solve_cdf.size()};

    for (const kn::Tier tier : {kn::Tier::kScalar, kn::Tier::kAvx2, kn::Tier::kAvx512}) {
      const std::string prefix = std::string("channel.kernels.") + kn::tier_name(tier) + ".";
      const kn::Ops* ops = kn::ops_for(tier);
      if (ops == nullptr) {
        absent_.push_back(kn::tier_name(tier));
        continue;
      }
      const auto per_element = [&](const std::string& pass, auto&& prepare, auto&& body) {
        std::vector<double> ns;
        for (int rep = 0; rep < kReps; ++rep) {
          prepare();
          ns.push_back(1e9 * tracer_.time(prefix + pass, body) / kCount);
        }
        put(prefix + pass + "_ns", median(ns), "ns", kReps,
            std::to_string(kCount) + " elements per call");
      };
      const auto nothing = [] {};
      per_element("pass1_uniform", nothing,
                  [&] { ops->pass1_uniform(seed, 0, kCount, scratch.data()); });
      per_element("map_targets", [&] { scratch = uniforms; },
                  [&] { ops->map_targets(scratch.data(), kCount); });
      per_element("probe_rounds", nothing,
                  [&] { ops->probe_rounds(probe, targets.data(), kCount, out.data()); });
      per_element("probe_cdf", nothing,
                  [&] { ops->probe_cdf(cdf, uniforms.data(), kCount, out.data()); });
    }
    // Computed, not measured: column bytes the no-CD pipeline touches
    // per trial (pass 1 writes u; map_targets reads and writes it;
    // probe_rounds reads the target and writes the round), plus one
    // 8-byte table read per level of the probe descent.
    const double levels = std::log2(static_cast<double>(probe.padded_size));
    put("channel.kernels.bytes_per_trial", 8.0 + 16.0 + 16.0 + 8.0 * levels,
        "B", 1, "computed from column widths and probe depth, not measured");
  }

  void parallel_layers() {
    const std::size_t threads = std::min<std::size_t>(
        4, std::max(1u, std::thread::hardware_concurrency()));
    std::vector<double> us;
    tracer_.open("harness.parallel.spawn_join_all");
    for (int rep = 0; rep < 101; ++rep) {
      us.push_back(1e6 * tracer_.time("harness.parallel.spawn_join", [&] {
        ch::parallel_blocks_indexed(threads * ch::kTrialBlockSize, threads,
                                    [](std::size_t, std::size_t, std::size_t) {});
      }));
    }
    tracer_.close();
    put("harness.parallel.spawn_join_us", median(us), "us", us.size(),
        "parallel_blocks_indexed, empty body, " + std::to_string(threads) +
            " threads");
  }

  void write_report() {
    std::ostringstream out;
    out << "{\n\"format\": \"crp-trace-v1\",\n\"kernel_tier\": \""
        << cn::kernel_tier_name() << "\",\n\"absent_tiers\": [";
    for (std::size_t i = 0; i < absent_.size(); ++i) {
      out << (i ? ", " : "") << "\"" << absent_[i] << "\"";
    }
    out << "],\n\"metrics\": {";
    bool first = true;
    for (const auto& [name, metric] : metrics_) {
      out << (first ? "\n" : ",\n") << "  \"" << name
          << "\": {\"value\": " << json_number(metric.value) << ", \"unit\": \""
          << metric.unit << "\", \"samples\": " << metric.samples
          << ", \"note\": \"" << ch::json_escape(metric.note) << "\"}";
      first = false;
    }
    out << "\n},\n\"self_time_s\": {";
    first = true;
    for (const auto& [name, entry] : tracer_.self_times()) {
      out << (first ? "\n" : ",\n") << "  \"" << name << "\": {\"self_s\": "
          << json_number(entry.first) << ", \"spans\": " << entry.second << "}";
      first = false;
    }
    out << "\n},\n\"spans\": [";
    const auto& spans = tracer_.spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      out << (i ? ",\n" : "\n") << "  {\"id\": " << i << ", \"name\": \""
          << spans[i].name << "\", \"start_ns\": " << spans[i].start_ns
          << ", \"end_ns\": " << spans[i].end_ns
          << ", \"parent\": " << spans[i].parent
          << ", \"cell\": " << spans[i].cell << "}";
    }
    out << "\n]\n}\n";
    ch::atomic_write_file(o_.out, out.str());
  }

  const Options& o_;
  std::filesystem::path work_;
  Tracer tracer_;
  OwnedGrid grid_;
  ch::ShardPlan plan_;
  std::vector<ch::SweepResult> sweep_results_;
  double sweep_wall_s_ = 0.0;
  std::map<std::string, Metric> metrics_;
  std::vector<std::string> absent_;
};

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse_args(argc, argv);
  try {
    if (options.mode == "oracle") return oracle_mode(options);
    return TraceRun(options).run();
  } catch (const std::exception& error) {
    std::cerr << "crp_trace: " << error.what() << "\n";
    return 1;
  }
}

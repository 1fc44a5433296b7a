// Monte-Carlo measurement of contention-resolution round complexity.
//
// The execution stack is columnar: a channel::Engine fills
// structure-of-arrays result columns for whole blocks of trials
// (channel/engine.h), workers run blocks (harness/parallel.h), and
// measure_blocks() folds the columns into a Measurement. The fold is
// *streaming*: each worker folds its blocks into an exact counting
// histogram (harness/accumulate.h) and the per-worker histograms merge
// exactly, so a cell's memory is O(max observed round) regardless of
// the trial count, and the Measurement is bit-identical at every
// thread count. The measure_* helpers below wire the common cases (a
// uniform algorithm against a network-size distribution, an advice
// protocol against sampled participant sets) onto that stack, and
// measure() runs a per-trial callback (Trial) on it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <random>
#include <span>
#include <vector>

#include "channel/engine.h"
#include "channel/protocol.h"
#include "channel/rng.h"
#include "channel/simulator.h"
#include "core/advice.h"
#include "harness/accumulate.h"
#include "harness/stats.h"
#include "info/distribution.h"

namespace crp::channel {
class HistoryTreeCache;  // channel/history_engine.h
}  // namespace crp::channel

namespace crp::harness {

/// Aggregated outcome of a batch of trials.
struct Measurement {
  SummaryStats rounds;        ///< over *solved* trials
  double success_rate = 0.0;  ///< fraction solved within the budget
  std::size_t trials = 0;

  /// Fraction of trials solved within `budget` rounds (one-shot success
  /// probability at that budget), read from the histogram.
  double solved_within(double budget) const;

  /// Exact per-round counts of the solved trials: the whole round
  /// distribution, from which `rounds` and `success_rate` are read.
  RoundHistogram histogram;

  /// Transmission-count moments over all trials; populated only when
  /// MeasureOptions::measure_transmissions requested the energy column.
  MomentAccumulator transmissions;
};

using Trial = std::function<channel::RunResult(std::size_t trial_index,
                                               std::mt19937_64& rng)>;

/// Runs `trials` independent trials of a per-trial callback: trial t
/// is trial(t, rng) with rng = channel::derive_rng(seed, t), so every
/// trial replays on its own regardless of execution order. The trials
/// run through measure_blocks() on `threads` workers (as
/// MeasureOptions::threads: 1 = serial, 0 = all hardware threads), and
/// the result is bit-identical at every thread count. Above one thread
/// the callable must be safe to invoke concurrently: the library's
/// schedules, policies, advice functions, and BatchNoCdSampler all
/// are. The first exception a trial throws is rethrown on the caller's
/// thread. The measure_* helpers below drive columnar engines instead,
/// which on the analytic paths seed no mt19937_64 at all.
Measurement measure(const Trial& trial, std::size_t trials,
                    std::uint64_t seed, std::size_t threads = 1);

/// Which engine simulates a uniform no-CD trial.
enum class NoCdEngine {
  kBinomial,   ///< exact per-round loop, one binomial draw per round
  kPerPlayer,  ///< exact per-round loop, one coin per player per round
  kBatch,      ///< analytic inverse-CDF sampling (channel/batch.h)
};

/// Which engine runs a uniform CD trial. Both produce the same
/// distribution of (solved, rounds); the history-tree sampler consumes
/// randomness differently, so individual trials at a fixed seed differ
/// (tests/history_tree_engine_test.cpp cross-validates the two).
enum class CdEngine {
  kSimulate,     ///< exact per-round Markov simulation (the adapter)
  kHistoryTree,  ///< cached history-tree sampler (channel/history_engine.h)
};

/// Execution knobs for the measure_* helpers. The defaults select the
/// fast path: the analytic engine where one applies and every hardware
/// thread; the measured statistics are engine- and thread-count-
/// independent (up to Monte-Carlo noise for the engine choice, exactly
/// for the thread count).
struct MeasureOptions {
  std::size_t max_rounds = 1 << 20;
  /// Worker threads: 1 = serial, 0 = all hardware threads.
  std::size_t threads = 0;
  /// Engine used by the uniform no-CD helpers (others ignore it).
  NoCdEngine engine = NoCdEngine::kBatch;
  /// Engine used by the uniform CD helpers (others ignore it). The
  /// simulated default keeps every published fixed-seed golden stable;
  /// sweeps and benches opt into the history-tree sampler explicitly.
  CdEngine cd_engine = CdEngine::kSimulate;
  /// When true, engines fill the transmissions column and the fold
  /// accumulates Measurement::transmissions (exact integer moments
  /// over all trials). Off by default: the analytic no-CD engine
  /// reports the column as 0 (see channel/batch.h) — meaningful with
  /// the exact engines.
  bool measure_transmissions = false;
  /// Shared history-tree engine cache for the CD helpers (used only
  /// when cd_engine is kHistoryTree). Null = construct a private
  /// engine per call, the non-sweep default; run_sweep passes one
  /// cache for the whole grid so cells sharing a policy expand each
  /// tree once. Results are identical either way.
  const channel::HistoryTreeCache* tree_cache = nullptr;
};

/// Runs `trials` trials through a columnar engine: workers claim
/// fixed-size blocks (harness/parallel.h), fill scratch result columns
/// and fold them into exact histograms, so the Measurement is
/// bit-identical at every thread count. This is the execution core
/// under measure() and every measure_* helper; call it directly to
/// drive a custom channel::Engine. It is the one-job case of
/// measure_block_queue.
Measurement measure_blocks(const channel::Engine& engine,
                           const channel::SizeSource& sizes,
                           std::size_t trials, std::uint64_t seed,
                           const MeasureOptions& options);

/// One measurement in a block queue: how to build its engine, and the
/// trials to run on it.
struct BlockJob {
  /// Builds the job's engine. Called once, by the worker that claims
  /// the job's first block (workers arriving meanwhile wait for it);
  /// the queue drops its reference after the job's last block.
  std::function<std::shared_ptr<const channel::Engine>()> engine;
  channel::SizeSource sizes;
  std::size_t trials = 0;
  std::uint64_t seed = 0;
  std::size_t max_rounds = 1 << 20;
};

/// Streams several measurements through one pool as (job, block)
/// tasks: every job's trials are cut by the fixed kTrialBlockSize
/// partition, and each worker drains the blocks of a job of its own,
/// opening jobs in order; once every job is open, a worker whose job
/// ran out joins the open job with the most blocks left. So workers
/// keep to separate jobs while there are jobs to go round (each job's
/// tables and trees are built and used by one worker), and none idles
/// while another finishes a long job. Each worker folds into one
/// running histogram and flushes it into the job's when it changes job
/// (exact integer merges), so memory is O(jobs + workers) histograms
/// and only the jobs in flight hold an engine. Results come back in
/// job order, each bit-identical to the streaming measure_blocks of
/// that job alone at any thread count. `threads` as
/// MeasureOptions::threads; `measure_transmissions` as
/// MeasureOptions::measure_transmissions, for every job. The first
/// exception a block or engine factory throws is rethrown after the
/// pool drains, and no further blocks start once it is thrown.
std::vector<Measurement> measure_block_queue(
    std::span<const BlockJob> jobs, std::size_t threads,
    bool measure_transmissions = false);

/// The engine the uniform measure_* helpers run an algorithm on —
/// exactly one of `schedule` (no-CD, options.engine) or `policy` (CD,
/// options.cd_engine, options.tree_cache) is consulted, the schedule
/// first; throws std::invalid_argument when both are null. The sweep
/// scheduler builds its cells' engines through this too.
std::shared_ptr<const channel::Engine> make_uniform_engine(
    const channel::ProbabilitySchedule* schedule,
    const channel::CollisionPolicy* policy, const MeasureOptions& options);

/// Uniform no-CD algorithm vs. sizes drawn from `actual`.
Measurement measure_uniform_no_cd(const channel::ProbabilitySchedule& schedule,
                                  const info::SizeDistribution& actual,
                                  std::size_t trials, std::uint64_t seed,
                                  std::size_t max_rounds = 1 << 20);
Measurement measure_uniform_no_cd(const channel::ProbabilitySchedule& schedule,
                                  const info::SizeDistribution& actual,
                                  std::size_t trials, std::uint64_t seed,
                                  const MeasureOptions& options);

/// Uniform CD algorithm vs. sizes drawn from `actual`.
Measurement measure_uniform_cd(const channel::CollisionPolicy& policy,
                               const info::SizeDistribution& actual,
                               std::size_t trials, std::uint64_t seed,
                               std::size_t max_rounds = 1 << 20);
Measurement measure_uniform_cd(const channel::CollisionPolicy& policy,
                               const info::SizeDistribution& actual,
                               std::size_t trials, std::uint64_t seed,
                               const MeasureOptions& options);

/// Uniform no-CD algorithm with the participant count fixed to k.
Measurement measure_uniform_no_cd_fixed_k(
    const channel::ProbabilitySchedule& schedule, std::size_t k,
    std::size_t trials, std::uint64_t seed, std::size_t max_rounds = 1 << 20);
Measurement measure_uniform_no_cd_fixed_k(
    const channel::ProbabilitySchedule& schedule, std::size_t k,
    std::size_t trials, std::uint64_t seed, const MeasureOptions& options);

/// Uniform CD algorithm with the participant count fixed to k.
Measurement measure_uniform_cd_fixed_k(const channel::CollisionPolicy& policy,
                                       std::size_t k, std::size_t trials,
                                       std::uint64_t seed,
                                       std::size_t max_rounds = 1 << 20);
Measurement measure_uniform_cd_fixed_k(const channel::CollisionPolicy& policy,
                                       std::size_t k, std::size_t trials,
                                       std::uint64_t seed,
                                       const MeasureOptions& options);

/// Draws a uniformly random k-subset of {0, ..., n-1}. Compiled for
/// both TrialStream engines (channel/rng.h).
template <channel::TrialStream Rng>
std::vector<std::size_t> random_participant_set(std::size_t n, std::size_t k,
                                                Rng& rng);

/// Deterministic advice protocol: per trial, draw k from `actual`, draw
/// a random participant set of that size, compute advice, run.
Measurement measure_deterministic_advice(
    const channel::DeterministicProtocol& protocol,
    const core::AdviceFunction& advice, const info::SizeDistribution& actual,
    std::size_t n, bool collision_detection, std::size_t trials,
    std::uint64_t seed, std::size_t max_rounds = 1 << 20);
Measurement measure_deterministic_advice(
    const channel::DeterministicProtocol& protocol,
    const core::AdviceFunction& advice, const info::SizeDistribution& actual,
    std::size_t n, bool collision_detection, std::size_t trials,
    std::uint64_t seed, const MeasureOptions& options);

/// Worst-case (maximum over participant sets) round count of a
/// deterministic advice protocol at fixed k, approximated by `probes`
/// random sets plus the adversarial set concentrated at the tail of the
/// advised subtree. The probes are independent, so the MeasureOptions
/// overload fans them across the block scheduler (options.threads);
/// the result is thread-count invariant. See harness/adversary.h for
/// the exhaustive (exact) counterpart.
double worst_case_deterministic_rounds(
    const channel::DeterministicProtocol& protocol,
    const core::AdviceFunction& advice, std::size_t n, std::size_t k,
    bool collision_detection, std::size_t probes, std::uint64_t seed,
    std::size_t max_rounds = 1 << 20);
double worst_case_deterministic_rounds(
    const channel::DeterministicProtocol& protocol,
    const core::AdviceFunction& advice, std::size_t n, std::size_t k,
    bool collision_detection, std::size_t probes, std::uint64_t seed,
    const MeasureOptions& options);

}  // namespace crp::harness

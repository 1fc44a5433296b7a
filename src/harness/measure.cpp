#include "harness/measure.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <stdexcept>

#include "channel/engine.h"
#include "channel/history_engine.h"
#include "channel/rng.h"
#include "harness/parallel.h"

namespace crp::harness {

namespace {

/// Legacy entry points (plain max_rounds) keep the seed behavior:
/// serial execution, exact binomial engine, raw sample vector.
MeasureOptions legacy_options(std::size_t max_rounds) {
  return MeasureOptions{.max_rounds = max_rounds,
                        .threads = 1,
                        .engine = NoCdEngine::kBinomial,
                        .keep_samples = true};
}

/// The uniform helpers' shared body: the drawn-k and fixed-k, no-CD
/// and CD entry points differ only in the engine and size source.
Measurement measure_uniform(const channel::ProbabilitySchedule* schedule,
                            const channel::CollisionPolicy* policy,
                            const channel::SizeSource& sizes,
                            std::size_t trials, std::uint64_t seed,
                            const MeasureOptions& options) {
  const auto engine = make_uniform_engine(schedule, policy, options);
  return measure_blocks(*engine, sizes, trials, seed, options);
}

/// Columnar adapter for the Section 3 advice protocols: per trial, one
/// derived stream (run_adapter_block's lazily seeded mt19937_64) draws
/// the participant count, the participant set, and runs the protocol
/// on the advice — the same draws, in the same order, as the scalar
/// Trial path it replaces.
class DeterministicAdviceEngine final : public channel::Engine {
 public:
  DeterministicAdviceEngine(const channel::DeterministicProtocol& protocol,
                            const core::AdviceFunction& advice, std::size_t n,
                            bool collision_detection)
      : protocol_(protocol),
        advice_(advice),
        n_(n),
        collision_detection_(collision_detection) {}

  void run_many(channel::TrialBlock& block) const override {
    channel::run_adapter_block(
        block, [this](std::size_t k, channel::LazyMt19937_64& rng,
                      const channel::SimOptions& options) {
          const auto participants = random_participant_set(n_, k, rng);
          const auto bits = advice_.advise(participants);
          return channel::run_deterministic(protocol_, bits, participants,
                                            collision_detection_, options);
        });
  }

 private:
  const channel::DeterministicProtocol& protocol_;
  const core::AdviceFunction& advice_;
  std::size_t n_;
  bool collision_detection_;
};

}  // namespace

Measurement measurement_from_runs(std::span<const channel::RunResult> runs) {
  Measurement result;
  result.trials = runs.size();
  result.samples.reserve(runs.size());
  std::size_t solved = 0;
  for (const auto& run : runs) {
    if (run.solved) {
      ++solved;
      result.samples.push_back(static_cast<double>(run.rounds));
      result.histogram.add_solved(run.rounds);
    } else {
      result.histogram.add_unsolved();
    }
  }
  result.success_rate =
      runs.empty() ? 0.0
                   : static_cast<double>(solved) /
                         static_cast<double>(runs.size());
  result.rounds = summarize(result.samples);
  return result;
}

Measurement measurement_from_columns(std::span<const std::uint8_t> solved,
                                     std::span<const std::uint64_t> rounds) {
  if (solved.size() != rounds.size()) {
    throw std::invalid_argument("result columns disagree on length");
  }
  Measurement result;
  result.trials = solved.size();
  result.samples.reserve(solved.size());
  std::size_t solved_count = 0;
  for (std::size_t t = 0; t < solved.size(); ++t) {
    if (solved[t]) {
      ++solved_count;
      result.samples.push_back(static_cast<double>(rounds[t]));
    }
  }
  result.histogram.add_columns(solved, rounds);
  result.success_rate =
      solved.empty() ? 0.0
                     : static_cast<double>(solved_count) /
                           static_cast<double>(solved.size());
  result.rounds = summarize(result.samples);
  return result;
}

Measurement measurement_from_histogram(RoundHistogram histogram) {
  Measurement result;
  result.trials = histogram.trials();
  result.success_rate = histogram.success_rate();
  result.rounds = histogram.summary();
  result.histogram = std::move(histogram);
  return result;
}

std::shared_ptr<const channel::Engine> make_uniform_engine(
    const channel::ProbabilitySchedule* schedule,
    const channel::CollisionPolicy* policy, const MeasureOptions& options) {
  if (schedule != nullptr) {
    switch (options.engine) {
      case NoCdEngine::kBatch:
        return std::make_shared<const channel::BatchColumnarEngine>(*schedule);
      case NoCdEngine::kPerPlayer:
        return std::make_shared<const channel::PerPlayerColumnarEngine>(
            *schedule);
      case NoCdEngine::kBinomial:
      default:
        return std::make_shared<const channel::BinomialColumnarEngine>(
            *schedule);
    }
  }
  if (policy == nullptr) {
    throw std::invalid_argument(
        "a uniform engine needs a schedule or a policy");
  }
  if (options.cd_engine == CdEngine::kHistoryTree) {
    // A shared cache hands out one engine per policy, so expansions
    // amortize across calls; the engine's results are a pure function
    // of (policy, options), so both routes measure identically.
    if (options.tree_cache != nullptr) {
      return options.tree_cache->engine_for(*policy);
    }
    return std::make_shared<const channel::HistoryTreeEngine>(*policy);
  }
  return std::make_shared<const channel::CollisionPolicyColumnarEngine>(
      *policy);
}

std::vector<Measurement> measure_block_queue(std::span<const BlockJob> jobs,
                                             std::size_t threads,
                                             bool measure_transmissions) {
  // Job j's block b covers trials [b, b + 1) * kTrialBlockSize — the
  // partition the job measured alone would use.
  struct JobState {
    std::size_t blocks = 0;
    std::atomic<std::size_t> next_block{0};
    std::atomic<std::size_t> blocks_left{0};
    std::mutex mutex;  // guards engine, histogram, energy
    std::shared_ptr<const channel::Engine> engine;
    RoundHistogram histogram;
    MomentAccumulator energy;
  };
  std::vector<JobState> job_states(jobs.size());
  std::size_t blocks = 0;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const std::size_t trials = jobs[j].trials;
    job_states[j].blocks = trials / kTrialBlockSize +
                           (trials % kTrialBlockSize != 0 ? 1 : 0);
    job_states[j].blocks_left = job_states[j].blocks;
    blocks += job_states[j].blocks;
  }

  // A worker folds its consecutive blocks of one job into a private
  // histogram and flushes it into the job's when it moves to another
  // job (and once at the end): exact integer merges, so neither the
  // flush order nor the block-to-worker assignment shows in the result.
  constexpr std::size_t kNoJob = ~std::size_t{0};
  struct WorkerState {
    std::size_t job = kNoJob;
    /// Borrowed from the job's state; used only on that job's blocks,
    /// which all finish before the job releases its engine.
    const channel::Engine* engine = nullptr;
    std::vector<std::uint8_t> solved;
    std::vector<std::uint64_t> rounds;
    std::vector<std::uint64_t> transmissions;
    RoundHistogram histogram;
    MomentAccumulator energy;
  };
  std::vector<WorkerState> workers(
      parallel_worker_count(blocks, threads, /*block_size=*/1));
  const auto flush = [&](WorkerState& worker) {
    if (worker.job == kNoJob) return;
    JobState& state = job_states[worker.job];
    {
      const std::lock_guard<std::mutex> lock(state.mutex);
      state.histogram.merge(worker.histogram);
      state.energy.merge(worker.energy);
    }
    worker.histogram = RoundHistogram();
    worker.energy = MomentAccumulator();
  };

  // Which (job, block) a worker runs next: the next block of its own
  // job while that lasts, else the first job nobody has opened, else a
  // share of the open job with the most blocks left. Workers thus keep
  // to a job of their own (its tables and trees stay in one cache, and
  // no two workers build them at once) until the jobs run out, then
  // converge on the longest remainder. There are exactly as many
  // claims as blocks, so every claim finds one.
  std::atomic<std::size_t> next_job{0};
  const auto claim = [&](std::size_t job) {
    while (true) {
      if (job != kNoJob) {
        const std::size_t b = job_states[job].next_block.fetch_add(1);
        if (b < job_states[job].blocks) return std::make_pair(job, b);
      }
      job = next_job.fetch_add(1);
      if (job < jobs.size()) continue;
      std::size_t most = 0;
      job = kNoJob;
      for (std::size_t j = 0; j < jobs.size(); ++j) {
        const std::size_t claimed = job_states[j].next_block.load();
        const std::size_t total = job_states[j].blocks;
        const std::size_t left = claimed < total ? total - claimed : 0;
        if (left > most) {
          most = left;
          job = j;
        }
      }
    }
  };

  // One pool task per block; the task's index is only a ticket, the
  // claim picks the block.
  parallel_blocks_indexed(
      blocks, threads,
      [&](std::size_t id, std::size_t, std::size_t) {
        WorkerState& worker = workers[id];
        const auto [j, b] = claim(worker.job);
        JobState& state = job_states[j];
        if (j != worker.job) {
          flush(worker);
          worker.job = j;
          // The first worker into a job builds its engine; the others
          // wait for it here.
          const std::lock_guard<std::mutex> lock(state.mutex);
          if (state.engine == nullptr) state.engine = jobs[j].engine();
          worker.engine = state.engine.get();
        }
        const BlockJob& job = jobs[j];
        const std::size_t begin = b * kTrialBlockSize;
        const std::size_t count = std::min(kTrialBlockSize, job.trials - begin);
        worker.solved.resize(count);
        worker.rounds.resize(count);
        channel::TrialBlock block;
        block.seed = job.seed;
        block.first_trial = begin;
        block.max_rounds = job.max_rounds;
        block.sizes = job.sizes;
        block.solved = std::span(worker.solved);
        block.rounds = std::span(worker.rounds);
        if (measure_transmissions) {
          worker.transmissions.resize(count);
          block.transmissions = std::span(worker.transmissions);
        }
        worker.engine->run_many(block);
        worker.histogram.add_columns(block.solved, block.rounds);
        if (measure_transmissions) {
          worker.energy.add_column(block.transmissions);
        }
        // The job's last block releases its engine (and any tables it
        // holds), so only the jobs in flight keep one alive.
        if (state.blocks_left.fetch_sub(1) == 1) {
          const std::lock_guard<std::mutex> lock(state.mutex);
          state.engine.reset();
        }
      },
      /*block_size=*/1);
  for (WorkerState& worker : workers) flush(worker);

  std::vector<Measurement> results;
  results.reserve(jobs.size());
  for (JobState& state : job_states) {
    Measurement result = measurement_from_histogram(std::move(state.histogram));
    if (measure_transmissions) result.transmissions = state.energy;
    results.push_back(std::move(result));
  }
  return results;
}

Measurement measure_blocks(const channel::Engine& engine,
                           const channel::SizeSource& sizes,
                           std::size_t trials, std::uint64_t seed,
                           const MeasureOptions& options) {
  if (options.keep_samples) {
    // Sample-retaining path: whole-measurement columns, folded in
    // trial order (the pre-streaming behavior, bit for bit).
    std::vector<std::uint8_t> solved(trials);
    std::vector<std::uint64_t> rounds(trials);
    std::vector<std::uint64_t> transmissions(
        options.measure_transmissions ? trials : 0);
    parallel_blocks(trials, options.threads,
                    [&](std::size_t begin, std::size_t end) {
                      channel::TrialBlock block;
                      block.seed = seed;
                      block.first_trial = begin;
                      block.max_rounds = options.max_rounds;
                      block.sizes = sizes;
                      block.solved =
                          std::span(solved).subspan(begin, end - begin);
                      block.rounds =
                          std::span(rounds).subspan(begin, end - begin);
                      if (options.measure_transmissions) {
                        block.transmissions = std::span(transmissions)
                                                  .subspan(begin, end - begin);
                      }
                      engine.run_many(block);
                    });
    Measurement result = measurement_from_columns(solved, rounds);
    if (options.measure_transmissions) {
      result.transmissions.add_column(transmissions);
    }
    return result;
  }

  // Streaming path: the one-job case of the block queue. Workers fold
  // their blocks into private integer accumulators through fixed-size
  // scratch columns; memory is O(workers * (block size + max observed
  // round)) however many trials run. The merged result is bit-identical
  // to the trial-order fold for count/min/max/mean/quantiles
  // (harness/accumulate.h).
  const BlockJob job{
      // Non-owning: the caller's engine outlives the call.
      .engine =
          [&engine] {
            return std::shared_ptr<const channel::Engine>(
                std::shared_ptr<const channel::Engine>(), &engine);
          },
      .sizes = sizes,
      .trials = trials,
      .seed = seed,
      .max_rounds = options.max_rounds};
  return std::move(measure_block_queue(std::span(&job, 1), options.threads,
                                       options.measure_transmissions)
                       .front());
}

double Measurement::solved_within(double budget) const {
  if (trials == 0) return 0.0;
  // The library fold paths always fill the histogram; hand-assembled
  // Measurements (tests, external callers) may carry samples only.
  if (histogram.trials() == trials) {
    return static_cast<double>(histogram.solved_by(budget)) /
           static_cast<double>(trials);
  }
  const auto solved = static_cast<double>(
      std::count_if(samples.begin(), samples.end(),
                    [budget](double r) { return r <= budget; }));
  return solved / static_cast<double>(trials);
}

Measurement measure(const Trial& trial, std::size_t trials,
                    std::uint64_t seed) {
  Measurement result;
  result.trials = trials;
  result.samples.reserve(trials);
  std::size_t solved = 0;
  for (std::size_t t = 0; t < trials; ++t) {
    auto rng = channel::derive_rng(seed, t);
    const channel::RunResult run = trial(t, rng);
    if (run.solved) {
      ++solved;
      result.samples.push_back(static_cast<double>(run.rounds));
      result.histogram.add_solved(run.rounds);
    } else {
      result.histogram.add_unsolved();
    }
  }
  result.success_rate =
      trials == 0 ? 0.0
                  : static_cast<double>(solved) / static_cast<double>(trials);
  result.rounds = summarize(result.samples);
  return result;
}

Measurement measure_uniform_no_cd(const channel::ProbabilitySchedule& schedule,
                                  const info::SizeDistribution& actual,
                                  std::size_t trials, std::uint64_t seed,
                                  std::size_t max_rounds) {
  return measure_uniform_no_cd(schedule, actual, trials, seed,
                               legacy_options(max_rounds));
}

Measurement measure_uniform_no_cd(const channel::ProbabilitySchedule& schedule,
                                  const info::SizeDistribution& actual,
                                  std::size_t trials, std::uint64_t seed,
                                  const MeasureOptions& options) {
  return measure_uniform(&schedule, nullptr, channel::SizeSource{&actual, 0},
                         trials, seed, options);
}

Measurement measure_uniform_cd(const channel::CollisionPolicy& policy,
                               const info::SizeDistribution& actual,
                               std::size_t trials, std::uint64_t seed,
                               std::size_t max_rounds) {
  return measure_uniform_cd(policy, actual, trials, seed,
                            legacy_options(max_rounds));
}

Measurement measure_uniform_cd(const channel::CollisionPolicy& policy,
                               const info::SizeDistribution& actual,
                               std::size_t trials, std::uint64_t seed,
                               const MeasureOptions& options) {
  return measure_uniform(nullptr, &policy, channel::SizeSource{&actual, 0},
                         trials, seed, options);
}

Measurement measure_uniform_no_cd_fixed_k(
    const channel::ProbabilitySchedule& schedule, std::size_t k,
    std::size_t trials, std::uint64_t seed, std::size_t max_rounds) {
  return measure_uniform_no_cd_fixed_k(schedule, k, trials, seed,
                                       legacy_options(max_rounds));
}

Measurement measure_uniform_no_cd_fixed_k(
    const channel::ProbabilitySchedule& schedule, std::size_t k,
    std::size_t trials, std::uint64_t seed, const MeasureOptions& options) {
  return measure_uniform(&schedule, nullptr, channel::SizeSource{nullptr, k},
                         trials, seed, options);
}

Measurement measure_uniform_cd_fixed_k(const channel::CollisionPolicy& policy,
                                       std::size_t k, std::size_t trials,
                                       std::uint64_t seed,
                                       std::size_t max_rounds) {
  return measure_uniform_cd_fixed_k(policy, k, trials, seed,
                                    legacy_options(max_rounds));
}

Measurement measure_uniform_cd_fixed_k(const channel::CollisionPolicy& policy,
                                       std::size_t k, std::size_t trials,
                                       std::uint64_t seed,
                                       const MeasureOptions& options) {
  return measure_uniform(nullptr, &policy, channel::SizeSource{nullptr, k},
                         trials, seed, options);
}

template <channel::TrialStream Rng>
std::vector<std::size_t> random_participant_set(std::size_t n, std::size_t k,
                                                Rng& rng) {
  if (k > n) throw std::invalid_argument("cannot pick k > n participants");
  // Partial Fisher-Yates over the id space.
  std::vector<std::size_t> ids(n);
  for (std::size_t i = 0; i < n; ++i) ids[i] = i;
  for (std::size_t i = 0; i < k; ++i) {
    std::uniform_int_distribution<std::size_t> pick(i, n - 1);
    std::swap(ids[i], ids[pick(rng)]);
  }
  ids.resize(k);
  return ids;
}

template std::vector<std::size_t> random_participant_set(std::size_t,
                                                         std::size_t,
                                                         std::mt19937_64&);
template std::vector<std::size_t> random_participant_set(
    std::size_t, std::size_t, channel::LazyMt19937_64&);

Measurement measure_deterministic_advice(
    const channel::DeterministicProtocol& protocol,
    const core::AdviceFunction& advice, const info::SizeDistribution& actual,
    std::size_t n, bool collision_detection, std::size_t trials,
    std::uint64_t seed, std::size_t max_rounds) {
  return measure_deterministic_advice(protocol, advice, actual, n,
                                      collision_detection, trials, seed,
                                      legacy_options(max_rounds));
}

Measurement measure_deterministic_advice(
    const channel::DeterministicProtocol& protocol,
    const core::AdviceFunction& advice, const info::SizeDistribution& actual,
    std::size_t n, bool collision_detection, std::size_t trials,
    std::uint64_t seed, const MeasureOptions& options) {
  const DeterministicAdviceEngine engine(protocol, advice, n,
                                         collision_detection);
  return measure_blocks(engine, channel::SizeSource{&actual, 0}, trials,
                        seed, options);
}

double worst_case_deterministic_rounds(
    const channel::DeterministicProtocol& protocol,
    const core::AdviceFunction& advice, std::size_t n, std::size_t k,
    bool collision_detection, std::size_t probes, std::uint64_t seed,
    std::size_t max_rounds) {
  return worst_case_deterministic_rounds(
      protocol, advice, n, k, collision_detection, probes, seed,
      MeasureOptions{.max_rounds = max_rounds, .threads = 1});
}

double worst_case_deterministic_rounds(
    const channel::DeterministicProtocol& protocol,
    const core::AdviceFunction& advice, std::size_t n, std::size_t k,
    bool collision_detection, std::size_t probes, std::uint64_t seed,
    const MeasureOptions& options) {
  if (k > n) throw std::invalid_argument("cannot pick k > n participants");
  const auto cost_of = [&](const std::vector<std::size_t>& participants) {
    const auto bits = advice.advise(participants);
    const auto result = channel::run_deterministic(
        protocol, bits, participants, collision_detection,
        {.max_rounds = options.max_rounds});
    return result.solved ? static_cast<double>(result.rounds)
                         : static_cast<double>(options.max_rounds);
  };

  // Random probes: independent (one derived stream each), so they fan
  // out over the block scheduler; the max-fold is order-free, making
  // the result thread-count invariant.
  std::vector<double> probe_cost(probes);
  parallel_trials(probes, options.threads, [&](std::size_t p) {
    auto rng = channel::derive_rng(seed, p);
    probe_cost[p] = cost_of(random_participant_set(n, k, rng));
  });
  double worst = 0.0;
  for (const double cost : probe_cost) worst = std::max(worst, cost);

  // Crafted adversarial probes. "Tail": consecutive ids ending at the
  // highest id, which puts the minimum active id as deep as possible
  // into whatever subtree the advice names (worst for linear scans).
  // "Head": the first k ids, whose shared prefixes force a collision at
  // every level of a collision-detector descent (worst for tree
  // protocols).
  std::vector<std::size_t> crafted(k);
  for (std::size_t i = 0; i < k; ++i) crafted[i] = n - k + i;
  worst = std::max(worst, cost_of(crafted));
  for (std::size_t i = 0; i < k; ++i) crafted[i] = i;
  worst = std::max(worst, cost_of(crafted));
  return worst;
}

}  // namespace crp::harness

// Test helper: an engine's result columns for a whole trial range, and
// the per-trial reference they are compared with element by element.
//
// The harness folds columns into histograms, which keep the round
// distribution but not the trial order; tests that pin down "same
// streams, same draws, same trial" compare these columns instead.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <random>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "channel/engine.h"
#include "channel/rng.h"
#include "channel/simulator.h"
#include "harness/accumulate.h"
#include "harness/parallel.h"

namespace crp::harness {

/// solved/rounds/transmissions of trials [0, size()), in trial order.
struct Columns {
  std::vector<std::uint8_t> solved;
  std::vector<std::uint64_t> rounds;
  std::vector<std::uint64_t> transmissions;

  std::size_t size() const { return solved.size(); }

  /// Rounds of the solved trials, in trial order.
  std::vector<double> solved_rounds() const {
    std::vector<double> out;
    for (std::size_t t = 0; t < size(); ++t) {
      if (solved[t]) out.push_back(static_cast<double>(rounds[t]));
    }
    return out;
  }

  RoundHistogram histogram() const {
    RoundHistogram h;
    h.add_columns(solved, rounds);
    return h;
  }
};

/// Runs `engine` over trials [0, trials) cut into kTrialBlockSize
/// blocks (measure_blocks' partition), serially, energy column on.
inline Columns run_columns(const channel::Engine& engine,
                           channel::SizeSource sizes, std::size_t trials,
                           std::uint64_t seed, std::size_t max_rounds) {
  Columns out;
  out.solved.resize(trials);
  out.rounds.resize(trials);
  out.transmissions.resize(trials);
  for (std::size_t begin = 0; begin < trials; begin += kTrialBlockSize) {
    const std::size_t count = std::min(kTrialBlockSize, trials - begin);
    channel::TrialBlock block{
        .seed = seed,
        .first_trial = begin,
        .max_rounds = max_rounds,
        .sizes = sizes,
        .solved = std::span(out.solved).subspan(begin, count),
        .rounds = std::span(out.rounds).subspan(begin, count),
        .transmissions = std::span(out.transmissions).subspan(begin, count)};
    engine.run_many(block);
  }
  return out;
}

/// The per-trial reference: trial(t, derive_rng(seed, t)) for every t,
/// serially, in trial order.
inline std::vector<channel::RunResult> run_trials(
    std::size_t trials, std::uint64_t seed,
    const std::function<channel::RunResult(std::size_t, std::mt19937_64&)>&
        trial) {
  std::vector<channel::RunResult> runs(trials);
  for (std::size_t t = 0; t < trials; ++t) {
    auto rng = channel::derive_rng(seed, t);
    runs[t] = trial(t, rng);
  }
  return runs;
}

/// Element-by-element: the engine's solved/rounds columns against the
/// per-trial results.
inline void expect_columns_match(const Columns& columns,
                                 const std::vector<channel::RunResult>& runs) {
  ASSERT_EQ(columns.size(), runs.size());
  for (std::size_t t = 0; t < runs.size(); ++t) {
    EXPECT_EQ(columns.solved[t], runs[t].solved ? 1 : 0) << "trial " << t;
    EXPECT_EQ(columns.rounds[t], runs[t].rounds) << "trial " << t;
  }
}

}  // namespace crp::harness

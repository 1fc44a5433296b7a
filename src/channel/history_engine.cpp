#include "channel/history_engine.h"

#include <algorithm>
#include <future>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "channel/kernels/kernels.h"
#include "channel/rng.h"
#include "harness/exact.h"
#include "info/distribution.h"

namespace crp::channel {

namespace {

/// Continues one execution by exact per-round simulation from
/// `history`: the same Markov chain the per-round CD simulator runs,
/// sampled through the outcome trichotomy (a uniform CD policy only
/// ever observes the feedback, so the trichotomy is the whole round).
/// Returns the 1-based solve round, or 0 when the budget runs out.
std::size_t simulate_from(const CollisionPolicy& policy, std::size_t k,
                          BitString& history, std::size_t budget,
                          SplitMix64& rng) {
  for (std::size_t round = history.size(); round < budget; ++round) {
    const auto outcome =
        harness::round_outcome_probabilities(k, policy.probability(history));
    const double u = canonical_unit(rng());
    if (u < outcome.success) return round + 1;
    history.push_back(u >= outcome.success + outcome.silence);
  }
  return 0;
}

/// One walk-mode trial in flight: its stream, the tree it walks and
/// the node it stands on, and the collision history walked so far
/// (bit d = the feedback of round d + 1 was a collision; depths stay
/// below the 64-round depth cap).
struct WalkLane {
  SplitMix64 rng{0};
  const harness::HistoryTreeNode* nodes = nullptr;
  std::int64_t node = 0;
  std::uint64_t path = 0;
  std::uint32_t trial = 0;
  std::uint32_t slot = 0;
};

/// Runs the walk-mode trials of `block` level by level: each pass
/// advances every lane one round of its tree, writing the lane's
/// result columns through selects (solved at this depth, or unsolved
/// at the budget — a later pass overwrites them while the lane lives),
/// then compacts the lanes still inside the expansion to the front.
/// Independent trials thus overlap in the pipeline instead of each
/// paying a mispredicted outcome branch per round. A lane that leaves
/// the expansion — a pruned branch or the depth cap — continues on the
/// exact per-round simulation from its stream state and walked path,
/// exactly as a per-trial walk would. No separate budget test is
/// needed: a tree's horizon is min(depth_cap, max_rounds), so a lane
/// that walks to the budget leaves the expansion there, and its
/// simulation has no rounds left.
void walk_lanes(const CollisionPolicy& policy,
                std::span<const std::size_t> slot_k,
                std::vector<WalkLane>& lanes, TrialBlock& block) {
  const std::uint64_t budget = block.max_rounds;
  std::vector<WalkLane> exits(lanes.size());
  // Raw column pointers: the byte-typed solved column may alias
  // anything, so writes through the spans would make every pass reload
  // them.
  WalkLane* const live_lanes = lanes.data();
  WalkLane* const exit_lanes = exits.data();
  std::uint8_t* const solved_out = block.solved.data();
  std::uint64_t* const rounds_out = block.rounds.data();
  BitString history;
  history.reserve(64);
  std::size_t live = lanes.size();
  for (std::uint64_t depth = 0; live > 0; ++depth) {
    std::size_t kept = 0;
    std::size_t left = 0;
    for (std::size_t i = 0; i < live; ++i) {
      WalkLane lane = live_lanes[i];
      const harness::HistoryTreeNode& n =
          lane.nodes[static_cast<std::size_t>(lane.node)];
      const double draw = canonical_unit(lane.rng());
      const bool solved = draw < n.cum_success;
      const bool collided = draw >= n.cum_no_collision;
      // A mask select: GCC compiles the ternary to a branch here.
      const std::int64_t pick = -static_cast<std::int64_t>(collided);
      lane.node = (n.silence & ~pick) | (n.collision & pick);
      lane.path |= std::uint64_t{collided} << depth;
      solved_out[lane.trial] = solved;
      rounds_out[lane.trial] = solved ? depth + 1 : budget;
      const bool inside = lane.node != harness::HistoryTreeNode::kNoChild;
      live_lanes[kept] = lane;
      kept += !solved & inside;
      exit_lanes[left] = lane;
      left += !solved & !inside;
    }
    live = kept;
    for (std::size_t i = 0; i < left; ++i) {
      WalkLane& lane = exit_lanes[i];
      history.clear();
      for (std::uint64_t d = 0; d <= depth; ++d) {
        history.push_back((lane.path >> d) & 1);
      }
      const std::size_t round = simulate_from(policy, slot_k[lane.slot],
                                              history, budget, lane.rng);
      solved_out[lane.trial] = round != 0 ? 1 : 0;
      rounds_out[lane.trial] = round != 0 ? round : budget;
    }
  }
}

}  // namespace

HistoryTreeEngine::HistoryTreeEngine(const CollisionPolicy& policy,
                                     Options options)
    : policy_(policy), options_(options) {
  if (options_.depth_cap > kMaxDepthCap) {
    throw std::invalid_argument(
        "HistoryTreeEngine: depth_cap " + std::to_string(options_.depth_cap) +
        " exceeds " + std::to_string(kMaxDepthCap));
  }
}

std::pair<std::shared_ptr<const harness::HistoryTree>,
          HistoryTreeEngine::Mode>
HistoryTreeEngine::tree_for(std::size_t k, std::size_t max_rounds) const {
  auto tree = fetch_tree(key_for(k, max_rounds), nullptr);
  const Mode mode = mode_for(*tree, max_rounds);
  return {std::move(tree), mode};
}

HistoryTreeEngine::TreeKey HistoryTreeEngine::key_for(
    std::size_t k, std::size_t max_rounds) const {
  return {k, std::min(options_.depth_cap, max_rounds)};
}

HistoryTreeEngine::Mode HistoryTreeEngine::mode_for(
    const harness::HistoryTree& tree, std::size_t max_rounds) const {
  if (tree.truncated) return Mode::kSimulate;
  // Frontier mass is exactly "unsolved at the budget" when the budget
  // equals the expansion horizon; it only becomes unresolved when the
  // execution would continue past the cap.
  const double unresolved =
      tree.pruned_mass +
      (max_rounds > tree.horizon ? tree.frontier_mass : 0.0);
  return unresolved <= options_.resolve_epsilon ? Mode::kInverseCdf
                                                : Mode::kWalk;
}

HistoryTreeEngine::TreePtr HistoryTreeEngine::fetch_tree(
    TreeKey key, std::shared_future<TreePtr>* in_flight) const {
  {
    std::shared_lock lock(mutex_);
    const auto it = trees_.find(key);
    if (it != trees_.end()) return it->second;
  }
  std::promise<TreePtr> promise;
  std::shared_future<TreePtr> pending;
  {
    std::unique_lock lock(mutex_);
    const auto it = trees_.find(key);
    if (it != trees_.end()) return it->second;
    const auto building = building_.find(key);
    if (building != building_.end()) {
      pending = building->second;
    } else {
      building_.emplace(key, promise.get_future().share());
    }
  }
  // Another caller is expanding this key: wait for its tree (or its
  // exception) instead of expanding the same tree again — or hand the
  // wait to the caller.
  if (pending.valid()) {
    if (in_flight == nullptr) return pending.get();
    *in_flight = std::move(pending);
    return nullptr;
  }

  // Expand outside the lock so a large expansion never serializes
  // cached reads or other keys' builds. A failed build is not cached:
  // its waiters get the exception and the next caller retries.
  TreePtr built;
  try {
    harness::HistoryTreeOptions expand;
    expand.horizon = key.second;
    expand.prune_below = options_.prune_below;
    expand.threads = options_.expand_threads;
    expand.max_nodes = options_.max_nodes;
    built = std::make_shared<const harness::HistoryTree>(
        harness::expand_history_tree(policy_, key.first, expand));
  } catch (...) {
    {
      std::unique_lock lock(mutex_);
      building_.erase(key);
    }
    promise.set_exception(std::current_exception());
    throw;
  }
  {
    std::unique_lock lock(mutex_);
    trees_.emplace(key, built);
    building_.erase(key);
  }
  promise.set_value(built);
  return built;
}

void HistoryTreeEngine::run_many(TrialBlock& block) const {
  validate_trial_block(block);
  const std::size_t count = block.size();
  const info::SizeDistribution* dist = block.sizes.distribution;
  const kernels::Ops& kops = kernels::ops();

  // One (tree, mode) fetch per distinct participant count per block —
  // the same snapshot discipline as the no-CD batch engine.
  using Entry = std::pair<TreePtr, Mode>;
  std::vector<Entry> slots;
  std::vector<std::size_t> slot_k;
  if (dist != nullptr) {
    const auto sizes = dist->support_sizes();
    slots.assign(sizes.size(), {nullptr, Mode::kSimulate});
    slot_k.assign(sizes.begin(), sizes.end());
  } else {
    slots.assign(1, {nullptr, Mode::kSimulate});
    slot_k.assign(1, block.sizes.fixed_k);
  }

  // Pass 1: the lane kernel derives every trial's first draw at once —
  // the participant-count draw when sizes are drawn — and the slots it
  // selects decide which (tree, mode) entries the block needs. The
  // solve-draw column is only materialized when some slot actually
  // answers by inverse CDF; walk/simulate trials have a variable draw
  // count and re-derive their stream scalar below, so for them the
  // columns would be pure overhead.
  std::vector<std::uint32_t> slot_of;
  std::vector<double> uk;
  std::vector<std::uint8_t> needed(slots.size(), 0);
  if (dist != nullptr) {
    uk.resize(count);
    kops.pass1_uniform(block.seed, block.first_trial, count, uk.data());
    slot_of.resize(count);
    lower_bound_column(dist->support_cumulative(), uk, slot_of);
    for (const std::uint32_t slot : slot_of) needed[slot] = 1;
  } else if (count > 0) {
    needed[0] = 1;
  }
  // Fetch the needed trees, expanding the missing ones. A tree another
  // worker is already expanding is waited for only once every other
  // missing tree has been expanded here, so workers that enter a cell
  // together split its expansions instead of queueing behind one.
  std::vector<std::pair<std::size_t, std::shared_future<TreePtr>>> waits;
  for (std::size_t s = 0; s < slots.size(); ++s) {
    if (needed[s] == 0) continue;
    std::shared_future<TreePtr> in_flight;
    slots[s].first =
        fetch_tree(key_for(slot_k[s], block.max_rounds), &in_flight);
    if (slots[s].first == nullptr) waits.emplace_back(s, std::move(in_flight));
  }
  for (const auto& [s, in_flight] : waits) slots[s].first = in_flight.get();
  for (std::size_t s = 0; s < slots.size(); ++s) {
    if (needed[s] != 0) {
      slots[s].second = mode_for(*slots[s].first, block.max_rounds);
    }
  }
  bool any_cdf = false;
  for (const Entry& entry : slots) {
    any_cdf |= entry.first != nullptr && entry.second == Mode::kInverseCdf;
  }

  // The solve-draw column (the second draw of each stream; the first
  // for fixed-k blocks) — bit for bit the canonical_unit value the
  // trial's own SplitMix64 stream draws. uk is recomputed by the pair kernel, to the
  // identical values.
  std::vector<double> u;
  if (any_cdf) {
    u.resize(count);
    if (dist != nullptr) {
      kops.pass1_uniform_pair(block.seed, block.first_trial, count, uk.data(),
                              u.data());
    } else {
      kops.pass1_uniform(block.seed, block.first_trial, count, u.data());
    }
  }

  // Split the block by mode: inverse-CDF trials grouped per slot for
  // the lane probe, walk trials into lanes for the level-synchronous
  // walk, simulate trials run here. Walk and simulate trials have a
  // variable draw count, so they re-derive their stream and discard
  // the size draw the uk column already holds.
  std::vector<std::vector<std::uint32_t>> cdf_groups(slots.size());
  std::vector<WalkLane> lanes;
  lanes.reserve(count);
  BitString path;  // scratch history for the simulate mode
  for (std::size_t t = 0; t < count; ++t) {
    const std::size_t slot = dist != nullptr ? slot_of[t] : 0;
    const Entry& entry = slots[slot];
    if (entry.second == Mode::kInverseCdf) {
      cdf_groups[slot].push_back(static_cast<std::uint32_t>(t));
      continue;
    }
    SplitMix64 rng = derive_fast_rng(block.seed, block.first_trial + t);
    if (dist != nullptr) (void)rng();
    const auto& nodes = entry.first->nodes;
    if (entry.second == Mode::kWalk && !nodes.empty() &&
        block.max_rounds > 0) {
      lanes.push_back({rng, nodes.data(), 0, 0, static_cast<std::uint32_t>(t),
                       static_cast<std::uint32_t>(slot)});
      continue;
    }
    // Simulate mode, or a walk with nothing to walk: the per-round
    // simulation from the empty history.
    path.clear();
    const std::size_t round =
        simulate_from(policy_, slot_k[slot], path, block.max_rounds, rng);
    block.solved[t] = round != 0 ? 1 : 0;
    block.rounds[t] = round != 0 ? round : block.max_rounds;
  }
  walk_lanes(policy_, slot_k, lanes, block);

  // Pass 2: answer each slot's inverse-CDF trials with the lane
  // upper-bound probe over the tree's padded CDF — bit-identical to
  // the scalar std::upper_bound it replaces (ties included; pinned by
  // tests/kernel_test.cpp). The solved-mass gate stays outside the
  // kernel: u >= solved_mass means the budget ran out unsolved.
  std::vector<double> group_u;
  std::vector<std::uint64_t> group_idx;
  for (std::size_t s = 0; s < slots.size(); ++s) {
    const auto& group = cdf_groups[s];
    if (group.empty()) continue;
    const harness::HistoryTree& tree = *slots[s].first;
    const double solved_mass = tree.solved_mass();
    if (tree.padded_solve_cdf.empty()) {
      // Hand-assembled tree without the padded table: scalar fallback.
      for (const std::uint32_t t : group) {
        std::size_t round = 0;
        if (u[t] < solved_mass) {
          round = static_cast<std::size_t>(
                      std::upper_bound(tree.solve_cdf.begin(),
                                       tree.solve_cdf.end(), u[t]) -
                      tree.solve_cdf.begin()) +
                  1;
        }
        block.solved[t] = round != 0 ? 1 : 0;
        block.rounds[t] = round != 0 ? round : block.max_rounds;
      }
      continue;
    }
    const kernels::CdfTable table{tree.padded_solve_cdf.data(),
                                  tree.padded_solve_cdf.size(),
                                  tree.solve_cdf.size()};
    group_u.resize(group.size());
    group_idx.resize(group.size());
    for (std::size_t j = 0; j < group.size(); ++j) group_u[j] = u[group[j]];
    kops.probe_cdf(table, group_u.data(), group.size(), group_idx.data());
    for (std::size_t j = 0; j < group.size(); ++j) {
      const std::uint32_t t = group[j];
      const std::size_t round =
          group_u[j] < solved_mass
              ? static_cast<std::size_t>(group_idx[j]) + 1
              : 0;
      block.solved[t] = round != 0 ? 1 : 0;
      block.rounds[t] = round != 0 ? round : block.max_rounds;
    }
  }

  // Like the no-CD analytic engine, the sampler does not reconstruct
  // the per-round transmission counts.
  if (!block.transmissions.empty()) {
    std::fill(block.transmissions.begin(), block.transmissions.end(), 0);
  }
}

std::shared_ptr<const HistoryTreeEngine> HistoryTreeCache::engine_for(
    const CollisionPolicy& policy) const {
  {
    std::shared_lock lock(mutex_);
    const auto it = engines_.find(&policy);
    if (it != engines_.end()) return it->second;
  }
  std::unique_lock lock(mutex_);
  auto& slot = engines_[&policy];
  if (slot == nullptr) {
    slot = std::make_shared<const HistoryTreeEngine>(policy, options_);
  }
  return slot;
}

std::size_t HistoryTreeCache::size() const {
  std::shared_lock lock(mutex_);
  return engines_.size();
}

}  // namespace crp::channel

// Cached history-tree sampler for collision-detection policies: the
// analytic fast path CD runs were missing.
//
// CD executions are history-dependent Markov chains, so — unlike the
// no-CD batch engine — a single inverse-CDF over per-round success
// probabilities does not exist in closed form. But the chain over
// collision histories can be *expanded once* per (policy, k, budget)
// (harness/history_tree.h, the same enumeration exact_profile_cd runs)
// and trials then *sampled from the expansion* instead of simulated:
//
//  * when the expansion resolves essentially all probability mass
//    within the depth cap, one uniform draw per trial inverse-CDF
//    searches the solve-round CDF — O(log horizon) per trial, the same
//    shape as the no-CD batch engine;
//  * otherwise each trial walks the tree, spending one SplitMix64
//    uniform per branch point against the per-node cumulative outcome
//    tables (no virtual policy call, no binomial sampling, no
//    mt19937_64 seeding), and a trial that leaves the expansion — a
//    pruned branch, or the depth cap — falls back to the exact
//    per-round simulation the CollisionPolicyColumnarEngine adapter
//    runs, continued from the walked history. The walk is a kernel
//    (kernels::Ops::walk_tree, channel/kernels) and level-synchronous:
//    a block's walk trials are struct-of-arrays lanes (stream state,
//    node address, walked path as bits — hence the 64-round depth cap
//    — and trial|slot), and each pass advances every lane one tree
//    level through selects rather than outcome branches, then compacts
//    the lanes still inside the expansion (on AVX-512: 8 lanes per
//    vector, four gathers per node, mask compares, vpcompressq). The
//    kernel never sees the policy: it hands back the lanes that leave
//    the expansion, and the engine simulates each after the walk —
//    an exit depends only on its own stream and path, so the order is
//    free;
//  * a policy whose tree exceeds the node cap before pruning can cut
//    it (expansion truncated) is delegated entirely to the per-round
//    simulation path, so the engine never costs more than a bounded
//    expansion attempt over the adapter it replaces.
//
// Both sampling modes produce the exact distribution of (solved,
// rounds) — the walk applies the exact outcome trichotomy at every
// step, the inverse-CDF mode up to the resolve_epsilon mass bound —
// and tests/history_tree_engine_test.cpp cross-validates them against
// the simulated path and pins the marginals to exact_profile_cd.
//
// Ownership: the engine borrows the policy (it must outlive the
// engine) and owns its tree cache.
//
// Thread-safety: run_many is safe to call concurrently on disjoint
// blocks; the per-(k, budget) tree cache is guarded by a shared mutex.
// Expansion runs outside the lock (so it never serializes cached reads
// or other keys' builds) and is single-flight per key: the first
// caller expands, concurrent callers for the same key wait on its
// result. Several workers can enter one CD cell at once (the sweep's
// block queue sends idle workers to the cell with the most blocks
// left; a one-cell sweep starts them all there); run_many expands the
// missing trees its block needs before it waits on any another worker
// is expanding, so those workers split the cell's expansions instead
// of repeating or queueing behind them.
// A build that throws is not cached — its waiters get the exception
// and the next caller expands again.
//
// Determinism: trial t draws only from the SplitMix64 stream derived
// from (block.seed, block.first_trial + t); the sampling mode is a
// pure function of (policy, k, budget, options), never of scheduling.
// Results are therefore independent of block partition and thread
// count — but, like the no-CD batch engine, the engine consumes
// randomness differently from the simulated path, so individual trials
// at a fixed seed differ from CollisionPolicyColumnarEngine while the
// distributions agree.
#pragma once

#include <cstddef>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <shared_mutex>
#include <utility>

#include "channel/engine.h"
#include "channel/protocol.h"
#include "harness/history_tree.h"

namespace crp::channel {

/// Analytic/sampling engine for uniform CD policies. Bind one per
/// policy and reuse it across blocks (and threads) so the per-(k,
/// budget) expansions amortize.
class HistoryTreeEngine final : public Engine {
 public:
  struct Options {
    /// Expansion depth cap: trees are expanded to
    /// min(depth_cap, block.max_rounds) rounds. At most kMaxDepthCap:
    /// the walk keeps a trial's path through the tree in one 64-bit
    /// word.
    std::size_t depth_cap = 48;
    /// Reach-probability prune threshold for the expansion. A freely
    /// branching tree stores on the order of (surviving mass) /
    /// prune_below nodes, so this trades tree size (and expansion
    /// time) against the fraction of trials that leave the expansion
    /// through a pruned branch and pay for per-round simulation (the
    /// default keeps that fraction around 10^-3 for the paper's CD
    /// policies while the expansion stays ~10^4 nodes).
    double prune_below = 1e-6;
    /// The inverse-CDF mode is used when the mass the tree cannot
    /// resolve exactly (pruned branches, plus the frontier when the
    /// budget exceeds the cap) is at most this; the sampled
    /// distribution then deviates from exact by at most this total
    /// variation. Larger unresolved mass selects the exact walk mode.
    double resolve_epsilon = 1e-6;
    /// Node cap per expansion; a truncated expansion delegates the
    /// (k, budget) key to per-round simulation.
    std::size_t max_nodes = 1 << 20;
    /// Worker threads for the subtree expansion fan-out (1 = inline;
    /// the tree is identical either way).
    std::size_t expand_threads = 1;
  };

  static constexpr std::size_t kMaxDepthCap = 64;

  /// The policy must outlive the engine. Throws std::invalid_argument
  /// when options.depth_cap exceeds kMaxDepthCap. (Two overloads rather
  /// than a defaulted argument: a nested aggregate's member
  /// initializers are not usable as a default argument inside the
  /// enclosing class.)
  HistoryTreeEngine(const CollisionPolicy& policy, Options options);
  explicit HistoryTreeEngine(const CollisionPolicy& policy)
      : HistoryTreeEngine(policy, Options()) {}

  void run_many(TrialBlock& block) const override;

  /// How a (k, budget) key is sampled (exposed for tests).
  enum class Mode {
    kInverseCdf,  ///< one uniform, binary search over the solve CDF
    kWalk,        ///< tree walk + per-round simulation past the tree
    kSimulate,    ///< expansion truncated: pure per-round simulation
  };

  /// The cached expansion (building it if needed) and the sampling
  /// mode for `k` under `max_rounds` (exposed for tests; run_many uses
  /// the same lookup).
  std::pair<std::shared_ptr<const harness::HistoryTree>, Mode> tree_for(
      std::size_t k, std::size_t max_rounds) const;

 private:
  const CollisionPolicy& policy_;
  Options options_;

  using TreeKey = std::pair<std::size_t, std::size_t>;
  using TreePtr = std::shared_ptr<const harness::HistoryTree>;

  TreeKey key_for(std::size_t k, std::size_t max_rounds) const;
  Mode mode_for(const harness::HistoryTree& tree,
                std::size_t max_rounds) const;

  /// The tree for `key`: cached, or expanded here, single-flight. When
  /// another caller is already expanding it, waits for that result —
  /// or, given `in_flight`, stores the pending result there and
  /// returns null so the caller can expand other keys first.
  TreePtr fetch_tree(TreeKey key,
                     std::shared_future<TreePtr>* in_flight) const;

  mutable std::shared_mutex mutex_;
  /// Keyed by (k, expansion horizon); trees for budgets above the
  /// depth cap share one expansion.
  mutable std::map<TreeKey, TreePtr> trees_;
  /// Expansions in flight, erased when they finish or throw.
  mutable std::map<TreeKey, std::shared_future<TreePtr>> building_;
};

/// Sweep-scoped engine cache: one shared HistoryTreeEngine per
/// *policy identity* (the CollisionPolicy address), each engine in
/// turn caching its expansions per (k, horizon) — so a grid whose
/// cells share a CD policy expands every (policy, k, horizon) tree
/// exactly once for the whole sweep instead of once per cell.
/// run_sweep() holds one cache per sweep and threads it to the CD
/// helpers via MeasureOptions::tree_cache; per-call engine
/// construction stays the non-sweep default (a null tree_cache).
///
/// Ownership: the cache borrows its policies (a keyed policy must
/// outlive the cache, which sweep cells guarantee — SweepAlgorithm
/// already borrows) and owns its engines; engine_for hands out
/// shared_ptrs that outlive the cache.
///
/// Thread-safety: engine_for is safe from any number of concurrent
/// sweep cells (shared mutex; double-checked insert), and the engines
/// it returns are themselves concurrency-safe per their contract.
///
/// Determinism: an engine's measurements are a pure function of
/// (policy, options, seeds) — never of cache hits — so cached and
/// per-call engines produce bit-identical results
/// (tests/history_tree_engine_test.cpp pins this).
class HistoryTreeCache {
 public:
  explicit HistoryTreeCache(HistoryTreeEngine::Options options)
      : options_(options) {}
  HistoryTreeCache() : HistoryTreeCache(HistoryTreeEngine::Options()) {}

  /// The shared engine for `policy`, constructing it on first use.
  std::shared_ptr<const HistoryTreeEngine> engine_for(
      const CollisionPolicy& policy) const;

  /// Number of distinct policies cached so far.
  std::size_t size() const;

 private:
  HistoryTreeEngine::Options options_;
  mutable std::shared_mutex mutex_;
  mutable std::map<const CollisionPolicy*,
                   std::shared_ptr<const HistoryTreeEngine>>
      engines_;
};

}  // namespace crp::channel

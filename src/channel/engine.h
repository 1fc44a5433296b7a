// Columnar execution layer: engines that simulate (or analytically
// sample) a whole block of trials at once into structure-of-arrays
// result columns.
//
// The scalar simulators (channel/simulator.h, channel/batch.h) price a
// trial well below a microsecond, so per-trial dispatch — a
// std::function call, an RNG construction, a lock acquisition, a
// 40-byte RunResult — dominates Monte-Carlo sweeps. An Engine removes
// all of it: the harness hands run_many() a TrialBlock (seed, global
// trial range, size source, output columns) and the engine fills the
// columns in one pass. The batch engine draws its N uniforms first and
// then inverse-CDF searches them over the shared prefix-sum tables of
// BatchNoCdSampler, fetching one table snapshot per distinct
// participant count instead of taking the sampler's shared lock per
// trial; the exact simulators get adapter engines so every engine is
// driven through the same block interface.
//
/// Ownership: engines borrow their schedule/policy (which must outlive
/// them; BatchColumnarEngine owns its sampler) and never own a block's
/// columns — TrialBlock spans are caller-owned views into sweep-wide
/// arrays.
///
/// Thread-safety: every Engine must be safe to call concurrently on
/// disjoint blocks; the engines here are (the analytic engine's table
/// cache is internally synchronized; the adapters keep no state between
/// calls, and the CD adapter's memo and samplers are locals of one
/// run_many call).
///
/// Determinism: an engine derives trial t's randomness only from
/// (block.seed, block.first_trial + t) — the same streams the scalar
/// measurement paths use — so results are independent of block
/// partition, execution order, and thread count, and each engine is
/// bit-compatible with its scalar counterpart at a fixed seed
/// (tests/columnar_engine_test.cpp pins this down). This is the
/// contract docs/ARCHITECTURE.md requires of every future engine.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>

#include "channel/batch.h"
#include "channel/protocol.h"
#include "channel/rng.h"
#include "channel/simulator.h"
#include "info/distribution.h"

namespace crp::channel {

/// Where a block's participant counts come from: per-trial draws from a
/// size distribution (when non-null) or a fixed k.
struct SizeSource {
  const info::SizeDistribution* distribution = nullptr;
  std::size_t fixed_k = 0;
};

/// One block of trials: the inputs an engine needs plus the output
/// columns it fills. Columns are caller-owned views (the harness hands
/// out disjoint subspans of sweep-wide columns, so workers write
/// results in place with no per-trial copies); every engine overwrites
/// all `size()` elements. `transmissions` may be empty when the caller
/// does not need the energy proxy — engines then skip it (the analytic
/// engine reports 0 either way, matching BatchOptions' default).
struct TrialBlock {
  std::uint64_t seed = 0;         ///< master experiment seed
  std::size_t first_trial = 0;    ///< global index of the first trial
  std::size_t max_rounds = 1 << 20;
  SizeSource sizes;
  std::span<std::uint8_t> solved;        ///< 1 iff solved within budget
  std::span<std::uint64_t> rounds;       ///< solve round; budget if not
  std::span<std::uint64_t> transmissions;  ///< optional energy column

  std::size_t size() const { return solved.size(); }
};

/// A columnar trial executor. Implementations must be safe to call
/// concurrently on disjoint blocks (the thread-pool harness does).
class Engine {
 public:
  virtual ~Engine() = default;

  /// Fills every result column of `block`.
  virtual void run_many(TrialBlock& block) const = 0;
};

/// Validates a block's column lengths and size source; throws
/// std::invalid_argument on inconsistency. Every run_many()
/// implementation in the library calls this first.
void validate_trial_block(const TrialBlock& block);

/// slot[t] = std::lower_bound(sorted, u[t]) - sorted.begin() for every
/// t: the participant-count slot search of the columnar engines,
/// mapping each size draw to its index in a distribution's cumulative
/// support masses. Equal to std::lower_bound for every finite u (ties
/// included), but branch-free: a fixed-trip-count descent over a
/// +inf-padded power-of-two copy of `sorted`, whose step adds the half
/// width through a comparison mask instead of a data-dependent branch.
/// `sorted` must be non-empty and non-decreasing; u and slot must be
/// the same length.
void lower_bound_column(std::span<const double> sorted,
                        std::span<const double> u,
                        std::span<std::uint32_t> slot);

/// Shared run_many() body for adapter engines built on the exact
/// simulators: validates the block, then per trial derives one stream
/// — derive_rng's, lazily seeded (LazyMt19937_64 in channel/rng.h: the
/// same draws, a fraction of the seeding cost) — feeding the k draw
/// (when sizes are drawn) and `run(k, rng, options)`, and writes the
/// result columns. Custom
/// adapters outside this header (e.g. the advice-protocol engine in
/// harness/measure.cpp) call this instead of re-implementing the
/// loop; the std::function indirection is per block call, and the
/// exact simulators dwarf the one virtual dispatch per trial.
void run_adapter_block(
    TrialBlock& block,
    const std::function<RunResult(std::size_t k, LazyMt19937_64& rng,
                                  const SimOptions& options)>& run);

/// Analytic no-CD engine (the default fast path): one SplitMix64
/// stream per trial — one draw for the participant count when drawn,
/// one for the solve round — then one vectorizable pass mapping the
/// uniform column to log-survival targets, and one pass of branchless
/// inverse-CDF probes over the sampler's padded prefix-sum tables
/// (BatchNoCdSampler::probe_first_below). Table snapshots are cached
/// per support slot for the span of a block, so the per-trial path
/// performs no locking, hashing, or shared_ptr traffic.
class BatchColumnarEngine final : public Engine {
 public:
  explicit BatchColumnarEngine(const ProbabilitySchedule& schedule)
      : sampler_(schedule) {}

  void run_many(TrialBlock& block) const override;

  /// The underlying sampler (exposed for scalar interop and tests).
  const BatchNoCdSampler& sampler() const { return sampler_; }

 private:
  BatchNoCdSampler sampler_;
};

/// Adapter: drives the exact binomial simulator trial by trial with
/// one derived stream per trial (run_adapter_block's) — bit-compatible
/// with the scalar Trial path it replaces.
class BinomialColumnarEngine final : public Engine {
 public:
  /// The schedule must outlive the engine.
  explicit BinomialColumnarEngine(const ProbabilitySchedule& schedule)
      : schedule_(schedule) {}

  void run_many(TrialBlock& block) const override;

 private:
  const ProbabilitySchedule& schedule_;
};

/// Adapter for the exact per-player simulator (one coin per player per
/// round); same stream contract as BinomialColumnarEngine.
class PerPlayerColumnarEngine final : public Engine {
 public:
  /// The schedule must outlive the engine.
  explicit PerPlayerColumnarEngine(const ProbabilitySchedule& schedule)
      : schedule_(schedule) {}

  void run_many(TrialBlock& block) const override;

 private:
  const ProbabilitySchedule& schedule_;
};

/// Adapter for uniform collision-detection policies: the exact
/// per-round Markov simulation, driven through the block interface.
/// The analytic counterpart is channel/history_engine.h's
/// HistoryTreeEngine, which samples from a cached expansion of the
/// same chain (and falls back to this adapter's per-round semantics
/// wherever the expansion cannot answer exactly).
///
/// Same stream contract as BinomialColumnarEngine. For the span of one
/// run_many call it also keeps a trie memoizing policy.probability()
/// per collision history (at most 4,096 nodes; past that, trials ask
/// the policy directly) and one TransmitterSampler per k reused across
/// the block's trials. Both leave every draw as it is: the memo
/// assumes probability() is a pure function of the history, as
/// HistoryTreeEngine does, and the samplers reset per trial.
class CollisionPolicyColumnarEngine final : public Engine {
 public:
  /// The policy must outlive the engine.
  explicit CollisionPolicyColumnarEngine(const CollisionPolicy& policy)
      : policy_(policy) {}

  void run_many(TrialBlock& block) const override;

 private:
  const CollisionPolicy& policy_;
};

}  // namespace crp::channel

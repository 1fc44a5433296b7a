#include "channel/engine.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "channel/rng.h"
#include "channel/simulator.h"

namespace crp::channel {

void validate_trial_block(const TrialBlock& block) {
  if (block.rounds.size() != block.size() ||
      (!block.transmissions.empty() &&
       block.transmissions.size() != block.size())) {
    throw std::invalid_argument("trial block columns disagree on length");
  }
  if (block.sizes.distribution == nullptr && block.sizes.fixed_k == 0) {
    throw std::invalid_argument("need at least one participant");
  }
}

namespace {

/// Shared body of the exact-simulator adapters: per trial, one derived
/// stream feeding the k draw (when drawn) and the scalar run — exactly
/// the draw order of the scalar Trial path, so results are
/// bit-identical to it. The stream is derive_rng's, lazily seeded
/// (LazyMt19937_64), and the k draw is the one canonical uniform
/// SizeDistribution::sample takes.
template <typename Run>
void run_scalar_adapter(TrialBlock& block, const Run& run) {
  validate_trial_block(block);
  const info::SizeDistribution* dist = block.sizes.distribution;
  const SimOptions options{.max_rounds = block.max_rounds};
  for (std::size_t t = 0; t < block.size(); ++t) {
    auto rng = derive_lazy_rng(block.seed, block.first_trial + t);
    const std::size_t k =
        dist ? dist->sample_at(canonical_unit(rng())) : block.sizes.fixed_k;
    const RunResult result = run(k, rng, options);
    block.solved[t] = result.solved ? 1 : 0;
    block.rounds[t] = result.rounds;
    if (!block.transmissions.empty()) {
      block.transmissions[t] = result.transmissions;
    }
  }
}

/// Block-scoped memo of a CD policy: a trie over the collision
/// histories the block's trials visit, each node holding
/// policy.probability(history). Policies such as CodedSearchPolicy
/// replay the whole history on every call, while one block's trials
/// revisit a few thousand short histories. It relies on what
/// HistoryTreeEngine already assumes — probability() is a pure function
/// of the history — and on run_uniform_cd's call pattern: each call's
/// history is empty (a trial starts) or extends the previous call's by
/// one bit. Past kMaxNodes nodes a trial that leaves the trie asks the
/// policy directly for the rest of its rounds.
class MemoizedPolicy final : public CollisionPolicy {
 public:
  explicit MemoizedPolicy(const CollisionPolicy& policy) : policy_(policy) {}

  double probability(const BitString& history) const override {
    if (history.empty()) {
      if (nodes_.empty()) nodes_.push_back(Node{policy_.probability(history)});
      node_ = 0;
      return nodes_[0].p;
    }
    if (node_ == kOffTrie) return policy_.probability(history);
    const bool collision = history.back();
    std::uint32_t next = nodes_[node_].child[collision];
    if (next == 0) {  // the root is nobody's child, so 0 means none
      if (nodes_.size() == kMaxNodes) {
        node_ = kOffTrie;
        return policy_.probability(history);
      }
      next = static_cast<std::uint32_t>(nodes_.size());
      nodes_.push_back(Node{policy_.probability(history)});
      nodes_[node_].child[collision] = next;
    }
    node_ = next;
    return nodes_[next].p;
  }

  std::string name() const override { return policy_.name(); }

 private:
  static constexpr std::size_t kMaxNodes = 4096;
  static constexpr std::uint32_t kOffTrie = ~std::uint32_t{0};

  struct Node {
    double p;
    std::uint32_t child[2] = {0, 0};  ///< after silence, after collision
  };

  const CollisionPolicy& policy_;
  mutable std::vector<Node> nodes_;
  mutable std::uint32_t node_ = 0;  ///< the last call's history
};

}  // namespace

void lower_bound_column(std::span<const double> sorted,
                        std::span<const double> u,
                        std::span<std::uint32_t> slot) {
  const std::size_t padded_size = std::bit_ceil(sorted.size());
  std::vector<double> padded(padded_size,
                             std::numeric_limits<double>::infinity());
  std::copy(sorted.begin(), sorted.end(), padded.begin());
  for (std::size_t t = 0; t < u.size(); ++t) {
    const double x = u[t];
    std::size_t base = 0;
    for (std::size_t len = padded_size; len > 1; len -= len / 2) {
      const std::size_t half = len / 2;
      base += half & (std::size_t{0} -
                      static_cast<std::size_t>(padded[base + half - 1] < x));
    }
    slot[t] = static_cast<std::uint32_t>(base + (padded[base] < x));
  }
}

void run_adapter_block(
    TrialBlock& block,
    const std::function<RunResult(std::size_t k, LazyMt19937_64& rng,
                                  const SimOptions& options)>& run) {
  run_scalar_adapter(block, run);
}

void BatchColumnarEngine::run_many(TrialBlock& block) const {
  validate_trial_block(block);
  const std::size_t count = block.size();
  if (count == 0) return;
  const info::SizeDistribution* dist = block.sizes.distribution;
  const kernels::Ops& kops = kernels::ops();

  // Pass 1: the dispatched lane kernel burns through the per-trial
  // SplitMix64 streams — one draw for the participant count (drawn
  // sizes only) and one for the solve round — producing the exact draw
  // sequence of the old per-trial derive_fast_rng +
  // uniform_real_distribution loop, distribution construction and all
  // hoisted into the kernel (tests/kernel_test.cpp pins the sequence).
  std::vector<double> u(count);
  std::vector<std::uint32_t> slot;  // support index per trial
  if (dist != nullptr) {
    const auto cum = dist->support_cumulative();
    std::vector<double> uk(count);
    kops.pass1_uniform_pair(block.seed, block.first_trial, count, uk.data(),
                            u.data());
    slot.resize(count);
    lower_bound_column(cum, uk, slot);
  } else {
    kops.pass1_uniform(block.seed, block.first_trial, count, u.data());
  }

  // Pass 2a: the whole uniform column becomes log-survival targets in
  // one vectorized log1p map; u[t] holds the target from here on.
  kops.map_targets(u.data(), count);

  // Pass 2b: answer every target with the lane inverse-CDF probe over
  // a snapshot's padded period table — 8 (AVX2) / 16 (AVX-512) masked-
  // gather descents in flight instead of one conditional-move descent
  // per trial. One snapshot per support slot serves the whole block:
  // snapshotting at the block's *minimum* target (the deepest draw)
  // guarantees the table serves every trial in the group, and yields
  // the same rounds as per-trial extension would — the first crossing
  // index of a non-increasing prefix does not depend on how far past
  // the crossing the table extends, and a table that cannot cross
  // within max_rounds answers 0 either way.
  std::vector<std::uint64_t> rounds(count);
  if (dist != nullptr) {
    // Group trials by support slot (counting sort) so each slot's
    // targets probe as one contiguous lane-parallel run.
    const auto sizes = dist->support_sizes();
    const std::size_t nslots = sizes.size();
    std::vector<std::size_t> start(nslots + 1, 0);
    for (std::size_t t = 0; t < count; ++t) ++start[slot[t] + 1];
    for (std::size_t s = 0; s < nslots; ++s) start[s + 1] += start[s];
    std::vector<std::uint32_t> order(count);
    {
      std::vector<std::size_t> fill(start.begin(), start.end() - 1);
      for (std::size_t t = 0; t < count; ++t) {
        order[fill[slot[t]]++] = static_cast<std::uint32_t>(t);
      }
    }
    std::vector<double> grouped(count);
    for (std::size_t j = 0; j < count; ++j) grouped[j] = u[order[j]];
    std::vector<std::uint64_t> grouped_rounds(count);
    for (std::size_t s = 0; s < nslots; ++s) {
      const std::size_t begin = start[s], end = start[s + 1];
      if (begin == end) continue;
      const double min_target =
          *std::min_element(grouped.begin() + begin, grouped.begin() + end);
      const auto table =
          sampler_.snapshot(sizes[s], min_target, block.max_rounds);
      kops.probe_rounds(sampler_.probe_view(*table, block.max_rounds),
                        grouped.data() + begin, end - begin,
                        grouped_rounds.data() + begin);
    }
    for (std::size_t j = 0; j < count; ++j) {
      rounds[order[j]] = grouped_rounds[j];
    }
  } else {
    const double min_target = *std::min_element(u.begin(), u.end());
    const auto table =
        sampler_.snapshot(block.sizes.fixed_k, min_target, block.max_rounds);
    kops.probe_rounds(sampler_.probe_view(*table, block.max_rounds), u.data(),
                      count, rounds.data());
  }

  for (std::size_t t = 0; t < count; ++t) {
    const std::uint64_t round = rounds[t];
    block.solved[t] = round != 0 ? 1 : 0;
    block.rounds[t] = round != 0 ? round : block.max_rounds;
  }

  // The analytic path does not reconstruct the energy proxy (matching
  // BatchOptions::sample_transmissions' default).
  if (!block.transmissions.empty()) {
    std::fill(block.transmissions.begin(), block.transmissions.end(), 0);
  }
}

void BinomialColumnarEngine::run_many(TrialBlock& block) const {
  run_scalar_adapter(block, [this](std::size_t k, LazyMt19937_64& rng,
                                   const SimOptions& options) {
    return run_uniform_no_cd(schedule_, k, rng, options);
  });
}

void PerPlayerColumnarEngine::run_many(TrialBlock& block) const {
  run_scalar_adapter(block, [this](std::size_t k, LazyMt19937_64& rng,
                                   const SimOptions& options) {
    return run_uniform_no_cd_per_player(schedule_, k, rng, options);
  });
}

void CollisionPolicyColumnarEngine::run_many(TrialBlock& block) const {
  // Block-scoped, so the engine stays stateless: the policy memo, and
  // one sampler per k reused across the block's trials.
  const MemoizedPolicy policy(policy_);
  std::unordered_map<std::size_t, TransmitterSampler> samplers;
  run_scalar_adapter(block, [&](std::size_t k, LazyMt19937_64& rng,
                                const SimOptions& options) {
    TransmitterSampler& sample = samplers.try_emplace(k, k).first->second;
    sample.begin_trial();
    return run_uniform_cd(policy, sample, rng, options);
  });
}

}  // namespace crp::channel

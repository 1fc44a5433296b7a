// LazyMt19937_64 (channel/rng.h) vs std::mt19937_64: the lazily seeded
// stream the exact-simulator adapters use must be the standard engine's
// stream, word for word, for every seed and draw count — including the
// edges of its lazy first pass (the key expansion runs 156 words ahead
// of the twist; the first pass ends at word 312) and the full twists
// that follow (624, 936, ...) — and through the standard distributions
// the simulators draw from.
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <random>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "channel/rng.h"
#include "info/distribution.h"
#include "predict/families.h"

namespace crp::channel {
namespace {

static_assert(std::uniform_random_bit_generator<LazyMt19937_64>);
static_assert(std::is_same_v<LazyMt19937_64::result_type,
                             std::mt19937_64::result_type>);
static_assert(LazyMt19937_64::min() == std::mt19937_64::min());
static_assert(LazyMt19937_64::max() == std::mt19937_64::max());
static_assert(TrialStream<std::mt19937_64> && TrialStream<LazyMt19937_64>);
static_assert(!TrialStream<SplitMix64>);

/// 1,000 seeds: the extremes, a few hand-picked values, and derived
/// seeds of the kind the adapters use.
std::vector<std::uint64_t> test_seeds() {
  std::vector<std::uint64_t> seeds = {0,
                                      ~std::uint64_t{0},
                                      1,
                                      5489,  // mt19937_64's default seed
                                      std::uint64_t{1} << 63,
                                      0x7fffffffULL,
                                      0x80000000ULL,
                                      0xffffffff00000000ULL};
  for (std::uint64_t i = 0; seeds.size() < 1000; ++i) {
    seeds.push_back(derive_stream_seed(2026, i));
  }
  return seeds;
}

TEST(LazyMt19937_64, WordForWordOverAThousandSeeds) {
  // Every draw count 0..1,000 is a prefix of one 1,001-draw run, which
  // crosses 155/156/157, 311/312/313 and 623/624/625.
  constexpr std::size_t kDraws = 1001;
  for (const std::uint64_t seed : test_seeds()) {
    std::mt19937_64 reference(seed);
    LazyMt19937_64 lazy(seed);
    for (std::size_t i = 0; i < kDraws; ++i) {
      const std::uint64_t expected = reference();
      const std::uint64_t actual = lazy();
      if (expected != actual) {
        FAIL() << "seed " << seed << " draw " << i << ": " << actual
               << " != " << expected;
      }
    }
  }
}

TEST(LazyMt19937_64, LongRunAcrossManyTwists) {
  for (const std::uint64_t seed : {std::uint64_t{0}, ~std::uint64_t{0},
                                   derive_stream_seed(7, 7)}) {
    std::mt19937_64 reference(seed);
    LazyMt19937_64 lazy(seed);
    for (std::size_t i = 0; i < 20 * 312 + 5; ++i) {
      ASSERT_EQ(lazy(), reference()) << "seed " << seed << " draw " << i;
    }
  }
}

TEST(LazyMt19937_64, DeriveLazyRngIsDeriveRng) {
  for (std::uint64_t stream = 0; stream < 64; ++stream) {
    auto reference = derive_rng(99, stream);
    auto lazy = derive_lazy_rng(99, stream);
    for (int i = 0; i < 40; ++i) ASSERT_EQ(lazy(), reference());
  }
}

/// Draws `draws` values of the simulators' distributions, interleaved,
/// so variable-consumption draws (the np >= 8 binomial's rejection
/// loop, uniform_int's rejection) land on every first-pass position.
template <typename Rng>
std::vector<double> mixed_draws(Rng& rng, std::size_t draws) {
  std::binomial_distribution<std::size_t> small(20, 0.1);     // np = 2
  std::binomial_distribution<std::size_t> large(1000, 0.3);   // np = 300
  std::binomial_distribution<std::size_t> edge(80, 0.1);      // np = 8
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::uniform_int_distribution<std::size_t> pick(0, 999'999);
  std::uniform_int_distribution<std::size_t> narrow(3, 5);
  std::vector<double> out;
  out.reserve(draws);
  for (std::size_t i = 0; i < draws; ++i) {
    switch (i % 6) {
      case 0: out.push_back(static_cast<double>(small(rng))); break;
      case 1: out.push_back(static_cast<double>(large(rng))); break;
      case 2: out.push_back(static_cast<double>(edge(rng))); break;
      case 3: out.push_back(unit(rng)); break;
      case 4: out.push_back(static_cast<double>(pick(rng))); break;
      default: out.push_back(static_cast<double>(narrow(rng))); break;
    }
  }
  return out;
}

TEST(LazyMt19937_64, StandardDistributionsDrawTheSame) {
  const auto seeds = test_seeds();
  for (std::size_t s = 0; s < 200; ++s) {
    std::mt19937_64 reference(seeds[s]);
    LazyMt19937_64 lazy(seeds[s]);
    EXPECT_EQ(mixed_draws(lazy, 400), mixed_draws(reference, 400))
        << "seed " << seeds[s];
    // The two engines consumed the same number of words.
    EXPECT_EQ(lazy(), reference());
  }
}

TEST(LazyMt19937_64, SizeDrawIsSizeDistributionSample) {
  // The adapters' size draw, sample_at(canonical_unit(rng())), must
  // equal SizeDistribution::sample's draw and consume one word.
  constexpr std::size_t n = 1 << 12;
  const auto actual = predict::lift(
      predict::uniform_over_ranges(info::num_ranges(n), 6), n,
      predict::RangePlacement::kHighEndpoint);
  const auto zipf = predict::zipf_sizes(n, 1.1);
  for (const info::SizeDistribution* dist : {&actual, &zipf}) {
    for (std::uint64_t stream = 0; stream < 2000; ++stream) {
      auto reference = derive_rng(31, stream);
      auto lazy = derive_lazy_rng(31, stream);
      ASSERT_EQ(dist->sample_at(canonical_unit(lazy())),
                dist->sample(reference));
      ASSERT_EQ(lazy(), reference());
    }
  }
}

}  // namespace
}  // namespace crp::channel

// Deterministic random number generation for reproducible experiments.
// Every simulation entry point takes an explicit engine; these helpers
// derive independent streams from a master seed so that parameter
// sweeps and Monte-Carlo repetitions are replayable bit-for-bit.
#pragma once

#include <algorithm>
#include <cstdint>
#include <random>

namespace crp::channel {

/// A seeded 64-bit Mersenne Twister.
inline std::mt19937_64 make_rng(std::uint64_t seed) {
  return std::mt19937_64{seed};
}

/// Splitmix64-finalizer mix of (seed, stream): the one seed-derivation
/// rule shared by derive_rng, derive_fast_rng, and the sweep
/// scheduler's per-cell seeds (harness/sweep.h). Mixing avoids
/// correlated low-entropy seeds such as consecutive integers.
inline std::uint64_t derive_stream_seed(std::uint64_t seed,
                                        std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Derives an independent engine for stream `stream` of experiment
/// `seed`.
inline std::mt19937_64 derive_rng(std::uint64_t seed, std::uint64_t stream) {
  return std::mt19937_64{derive_stream_seed(seed, stream)};
}

/// A splitmix64 engine: one add and a three-stage mix per draw, and —
/// unlike mt19937_64, whose construction runs a 312-word key expansion
/// plus a full twist on the first draw (~microseconds) — free to seed.
/// That fixed cost is irrelevant when a trial simulates hundreds of
/// rounds but dominates once the batch engine (channel/batch.h) prices
/// a whole trial at two or three draws, so the batch measurement paths
/// derive one of these per trial instead. Satisfies
/// std::uniform_random_bit_generator.
class SplitMix64 {
 public:
  using result_type = std::uint64_t;

  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~std::uint64_t{0}; }

  result_type operator()() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// The canonical [0, 1) uniform the batch paths build from one 64-bit
/// draw: bit-identical to std::uniform_real_distribution<double>(0, 1)
/// over a full-range 64-bit engine under libstdc++ (whose
/// generate_canonical computes double(bits) * 2^-64 and clamps the
/// rounded-up 1.0 back into range). Spelled out here so the lane
/// kernels (channel/kernels/) and the scalar engines provably share
/// one conversion — the per-trial draw sequence is part of the
/// bit-determinism contract and must not drift with the standard
/// library's implementation.
///
/// The conversion is spelled as two exact 32-bit halves joined by one
/// rounding add: double(hi) * 2^32 and double(lo) are exact, so the sum
/// rounds once and equals the correctly rounded static_cast<double>
/// (bits) — the same split the AVX2 tier's u64_to_pd uses. It exists
/// because the direct uint64 -> double cast compiles (without AVX-512)
/// to a sign-test branch that mispredicts on half of all draws; both
/// halves here convert as signed values, and the clamp is a min.
inline double canonical_unit(std::uint64_t bits) {
  const double hi = static_cast<double>(static_cast<std::int64_t>(bits >> 32));
  const double lo =
      static_cast<double>(static_cast<std::int64_t>(bits & 0xffffffffULL));
  const double u = (hi * 0x1p32 + lo) * 0x1p-64;
  return std::min(u, 0x1.fffffffffffffp-1);
}

/// Counterpart of derive_rng for the lightweight engine: independent,
/// replayable stream per (seed, stream) pair. The stream index is
/// mixed through the splitmix64 finalizer before seeding — seeding
/// with `seed + gamma * stream` directly would make stream t a
/// one-draw-shifted copy of stream t + 1 (gamma is exactly the
/// engine's per-draw increment), serially correlating consecutive
/// trials.
inline SplitMix64 derive_fast_rng(std::uint64_t seed, std::uint64_t stream) {
  return SplitMix64(derive_stream_seed(seed, stream));
}

}  // namespace crp::channel

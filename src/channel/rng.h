// Deterministic random number generation for reproducible experiments.
// Every simulation entry point takes an explicit engine; these helpers
// derive independent streams from a master seed so that parameter
// sweeps and Monte-Carlo repetitions are replayable bit-for-bit.
#pragma once

#include <algorithm>
#include <concepts>
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

/// A splitmix64 engine: one add and a three-stage mix per draw, and
/// free to seed. A std::mt19937_64 runs a 312-word serial key
/// expansion at construction and a full 312-word twist on its first
/// draw (~2.8 µs for seeding plus 25 draws on a 4-CPU AVX-512 Xeon);
/// LazyMt19937_64 below brings the same stream down to ~0.6 µs, but a
/// batch-engine trial (channel/batch.h) costs two or three draws, so
/// the batch measurement paths derive one of these per trial instead.
/// Satisfies std::uniform_random_bit_generator.
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

  /// The state the next draw advances from: SplitMix64(state()) draws
  /// the same stream from here on.
  std::uint64_t state() const { return state_; }

 private:
  std::uint64_t state_;
};

/// std::mt19937_64{seed}, draw for draw, with the seeding work done
/// only as far as the draws taken so far need it. The standard engine
/// expands the whole 312-word key at construction and twists all 312
/// words on the first draw, but an exact-simulator trial takes ~10–30
/// draws. The twist of word i reads key words i, i + 1 and
/// (i + 156) mod 312 — words below i already twisted, the others still
/// original — so draw i of the first pass only needs the key expanded
/// through word min(i + 156, 311) and word i twisted in place: the
/// full twist's loop runs in exactly that order, so every draw equals
/// the standard engine's by construction. From draw 312 on the engine
/// twists whole blocks like the standard one. Satisfies
/// std::uniform_random_bit_generator (tests/rng_test.cpp pins the
/// stream word for word and through the standard distributions).
class LazyMt19937_64 {
 public:
  using result_type = std::uint64_t;

  explicit LazyMt19937_64(std::uint64_t seed) { x_[0] = seed; }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~std::uint64_t{0}; }

  result_type operator()() {
    std::uint32_t i = next_;
    if (first_pass_) {
      expand_through(std::min(i + kShift, kWords - 1));
      x_[i] = twisted(x_[i], x_[i + 1 == kWords ? 0 : i + 1],
                      x_[i < kWords - kShift ? i + kShift
                                             : i - (kWords - kShift)]);
      first_pass_ = i + 1 < kWords;
    } else if (i == kWords) {
      twist_all();
      i = 0;
    }
    next_ = i + 1;
    return temper(x_[i]);
  }

 private:
  static constexpr std::uint32_t kWords = 312;  // n
  static constexpr std::uint32_t kShift = 156;  // m

  /// std::mt19937_64's seeding recurrence, for words
  /// [expanded_, last].
  void expand_through(std::uint32_t last) {
    std::uint32_t e = expanded_;
    if (e > last) return;
    std::uint64_t word = x_[e - 1];
    for (; e <= last; ++e) {
      word = 6364136223846793005ULL * (word ^ (word >> 62)) + e;
      x_[e] = word;
    }
    expanded_ = e;
  }

  /// One word of the twist: `word` and `next` are state words i and
  /// i + 1 (mod 312), `far` is word i + 156 (mod 312).
  static std::uint64_t twisted(std::uint64_t word, std::uint64_t next,
                               std::uint64_t far) {
    const std::uint64_t y =
        (word & ~0x7fffffffULL) | (next & 0x7fffffffULL);
    return far ^ (y >> 1) ^ ((y & 1) ? 0xb5026f5aa96619e9ULL : 0);
  }

  /// The standard engine's whole-state twist, in its loop order.
  void twist_all() {
    std::uint32_t i = 0;
    for (; i < kWords - kShift; ++i) {
      x_[i] = twisted(x_[i], x_[i + 1], x_[i + kShift]);
    }
    for (; i < kWords - 1; ++i) {
      x_[i] = twisted(x_[i], x_[i + 1], x_[i - (kWords - kShift)]);
    }
    x_[kWords - 1] = twisted(x_[kWords - 1], x_[0], x_[kShift - 1]);
  }

  static std::uint64_t temper(std::uint64_t z) {
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    return z ^ (z >> 43);
  }

  std::uint64_t x_[kWords] = {};
  std::uint32_t expanded_ = 1;  ///< key words [0, expanded_) are computed
  std::uint32_t next_ = 0;      ///< index of the next draw's word
  bool first_pass_ = true;      ///< draws [0, 312) still twist lazily
};

/// The per-trial stream of the exact-simulator adapters
/// (channel/engine.h): derive_rng's stream, lazily seeded.
inline LazyMt19937_64 derive_lazy_rng(std::uint64_t seed,
                                      std::uint64_t stream) {
  return LazyMt19937_64{derive_stream_seed(seed, stream)};
}

/// The engines the exact simulators (channel/simulator.h) are compiled
/// for: std::mt19937_64 for direct callers, and its lazily seeded
/// twin for the columnar adapters.
template <typename G>
concept TrialStream =
    std::same_as<G, std::mt19937_64> || std::same_as<G, LazyMt19937_64>;

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

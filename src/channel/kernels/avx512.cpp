// AVX-512 kernel backend: 8-wide zmm lanes, two vectors in flight per
// element-wise loop (16 trials), compiled for avx512f+avx512dq in this
// TU only. Bit-identical to kernels/scalar.cpp by the kernels.h
// contract; the structure mirrors kernels/avx2.cpp lane for lane, but
// none of that backend's emulations are needed — DQ provides the
// 64-bit multiply (vpmullq) and the uint64<->double conversions
// (vcvtuqq2pd / vcvttpd2qq, both exactly the scalar casts), and F's
// mask registers replace the blend/movemask dance — so there is no
// 2^30 budget delegation here either.

#include "channel/kernels/kernels.h"

#ifdef CRP_X86_KERNELS

#include <immintrin.h>

#include <limits>

#if !defined(__clang__)
// GCC's avx512 headers route several intrinsics through
// _mm512_undefined_epi32, which -Wmaybe-uninitialized flags through
// inlining (GCC PR105593). Nothing here reads uninitialized state.
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

namespace crp::channel::kernels::detail {
const Ops& scalar_ops();
}  // namespace crp::channel::kernels::detail

#if defined(__clang__)
#pragma clang attribute push(__attribute__((target("avx512f,avx512dq"))), \
                             apply_to = function)
#else
#pragma GCC push_options
#pragma GCC target("avx512f,avx512dq")
#endif

namespace crp::channel::kernels {

namespace {

constexpr std::uint64_t kGamma = 0x9e3779b97f4a7c15ULL;

inline __m512i set1_u64(std::uint64_t v) {
  return _mm512_set1_epi64(static_cast<long long>(v));
}

/// SplitMix64 finalizer, lane-wise.
inline __m512i mix64(__m512i z) {
  z = _mm512_mullo_epi64(_mm512_xor_si512(z, _mm512_srli_epi64(z, 30)),
                         set1_u64(0xbf58476d1ce4e5b9ULL));
  z = _mm512_mullo_epi64(_mm512_xor_si512(z, _mm512_srli_epi64(z, 27)),
                         set1_u64(0x94d049bb133111ebULL));
  return _mm512_xor_si512(z, _mm512_srli_epi64(z, 31));
}

/// canonical_unit (channel/rng.h), lane-wise; vcvtuqq2pd rounds to
/// nearest exactly like the scalar cast.
inline __m512d canonical8(__m512i bits) {
  const __m512d u =
      _mm512_mul_pd(_mm512_cvtepu64_pd(bits), _mm512_set1_pd(0x1p-64));
  return _mm512_min_pd(u, _mm512_set1_pd(0x1.fffffffffffffp-1));
}

inline __m512i stream_state0(std::uint64_t seed, std::uint64_t first,
                             std::size_t t) {
  const __m512i stream1 =
      _mm512_add_epi64(set1_u64(first + static_cast<std::uint64_t>(t)),
                       _mm512_set_epi64(8, 7, 6, 5, 4, 3, 2, 1));
  return mix64(_mm512_add_epi64(
      set1_u64(seed), _mm512_mullo_epi64(stream1, set1_u64(kGamma))));
}

// ---- pass 1 ----

void pass1_uniform_avx512(std::uint64_t seed, std::size_t first_trial,
                          std::size_t count, double* u) {
  std::size_t t = 0;
  const __m512i g = set1_u64(kGamma);
  for (; t + 16 <= count; t += 16) {
    const __m512i a0 = stream_state0(seed, first_trial, t);
    const __m512i b0 = stream_state0(seed, first_trial, t + 8);
    _mm512_storeu_pd(u + t, canonical8(mix64(_mm512_add_epi64(a0, g))));
    _mm512_storeu_pd(u + t + 8, canonical8(mix64(_mm512_add_epi64(b0, g))));
  }
  if (t < count) {
    detail::scalar_ops().pass1_uniform(seed, first_trial + t, count - t,
                                       u + t);
  }
}

void pass1_uniform_pair_avx512(std::uint64_t seed, std::size_t first_trial,
                               std::size_t count, double* uk, double* u) {
  std::size_t t = 0;
  const __m512i g = set1_u64(kGamma);
  const __m512i g2 = set1_u64(2 * kGamma);
  for (; t + 16 <= count; t += 16) {
    const __m512i a0 = stream_state0(seed, first_trial, t);
    const __m512i b0 = stream_state0(seed, first_trial, t + 8);
    _mm512_storeu_pd(uk + t, canonical8(mix64(_mm512_add_epi64(a0, g))));
    _mm512_storeu_pd(uk + t + 8, canonical8(mix64(_mm512_add_epi64(b0, g))));
    _mm512_storeu_pd(u + t, canonical8(mix64(_mm512_add_epi64(a0, g2))));
    _mm512_storeu_pd(u + t + 8, canonical8(mix64(_mm512_add_epi64(b0, g2))));
  }
  if (t < count) {
    detail::scalar_ops().pass1_uniform_pair(seed, first_trial + t, count - t,
                                            uk + t, u + t);
  }
}

// ---- pass 2a: log1p ----

/// kernels::log1p_neg, 8 lanes — the same branch-to-mask translation
/// as the AVX2 backend (see there for the lane-by-lane argument), with
/// mask registers instead of blend vectors.
inline __m512d log1p_neg8(__m512d x) {
  const __m512d one = _mm512_set1_pd(1.0);
  const __m512d zero = _mm512_setzero_pd();
  const __m512i xb = _mm512_castpd_si512(x);
  const __m512i ax = _mm512_and_si512(xb, set1_u64(0x7fffffffffffffffULL));

  const __mmask8 m_ret =
      _mm512_cmplt_epi64_mask(ax, set1_u64(0x3c90000000000000ULL));
  const __mmask8 m_small = _mm512_mask_cmplt_epi64_mask(
      ~m_ret, ax, set1_u64(0x3e20000000000000ULL));
  const __mmask8 m_k0raw =
      _mm512_cmplt_epi64_mask(ax, set1_u64(0x3fd2bec400000000ULL));
  const __mmask8 m_k0 =
      m_k0raw & static_cast<__mmask8>(~(m_ret | m_small));
  const __mmask8 m_reduce = static_cast<__mmask8>(~m_k0raw);

  const __m512d u1 = _mm512_add_pd(one, x);
  const __m512i ub = _mm512_castpd_si512(u1);
  __m512i k64 = _mm512_sub_epi64(_mm512_srli_epi64(ub, 52), set1_u64(1023));
  const __m512d cE =
      _mm512_div_pd(_mm512_sub_pd(x, _mm512_sub_pd(u1, one)), u1);
  const __m512i mant = _mm512_and_si512(ub, set1_u64(0x000fffffffffffffULL));
  const __mmask8 m_lo =
      _mm512_cmplt_epi64_mask(mant, set1_u64(0x0006a09e00000000ULL));
  const __m512i unorm_lo =
      _mm512_or_si512(mant, set1_u64(0x3ff0000000000000ULL));
  const __m512i unorm_hi =
      _mm512_or_si512(mant, set1_u64(0x3fe0000000000000ULL));
  k64 = _mm512_mask_blend_epi64(m_lo, _mm512_add_epi64(k64, set1_u64(1)),
                                k64);
  const __m512d u2 =
      _mm512_castsi512_pd(_mm512_mask_blend_epi64(m_lo, unorm_hi, unorm_lo));
  const __m512i hu_lo = _mm512_srli_epi64(mant, 32);
  const __m512i hu_hi = _mm512_srli_epi64(
      _mm512_sub_epi64(set1_u64(0x00100000ULL), hu_lo), 2);
  const __m512i hu = _mm512_mask_blend_epi64(m_lo, hu_hi, hu_lo);
  const __m512d fE = _mm512_sub_pd(u2, one);

  const __m512d f = _mm512_mask_blend_pd(m_k0, fE, x);
  const __m512d c = _mm512_mask_blend_pd(m_k0, cE, zero);
  k64 = _mm512_mask_blend_epi64(m_k0, k64, _mm512_setzero_si512());
  const __mmask8 m_hu0 =
      _mm512_cmpeq_epi64_mask(hu, _mm512_setzero_si512()) & m_reduce;

  const __m512d dk = _mm512_cvtepi64_pd(k64);
  const __m512d hfsq =
      _mm512_mul_pd(_mm512_mul_pd(_mm512_set1_pd(0.5), f), f);
  const __m512d s = _mm512_div_pd(f, _mm512_add_pd(_mm512_set1_pd(2.0), f));
  const __m512d z = _mm512_mul_pd(s, s);
  __m512d R = _mm512_set1_pd(1.479819860511658591e-01);  // Lp7
  R = _mm512_add_pd(_mm512_set1_pd(1.531383769920937332e-01),
                    _mm512_mul_pd(z, R));
  R = _mm512_add_pd(_mm512_set1_pd(1.818357216161805012e-01),
                    _mm512_mul_pd(z, R));
  R = _mm512_add_pd(_mm512_set1_pd(2.222219843214978396e-01),
                    _mm512_mul_pd(z, R));
  R = _mm512_add_pd(_mm512_set1_pd(2.857142874366239149e-01),
                    _mm512_mul_pd(z, R));
  R = _mm512_add_pd(_mm512_set1_pd(3.999999999940941908e-01),
                    _mm512_mul_pd(z, R));
  R = _mm512_add_pd(_mm512_set1_pd(6.666666666666735130e-01),
                    _mm512_mul_pd(z, R));
  R = _mm512_mul_pd(z, R);

  const __m512d khi =
      _mm512_mul_pd(dk, _mm512_set1_pd(6.93147180369123816490e-01));
  const __m512d clo = _mm512_add_pd(
      c, _mm512_mul_pd(dk, _mm512_set1_pd(1.90821492927058770002e-10)));
  const __m512d t1 = _mm512_mul_pd(s, _mm512_add_pd(hfsq, R));

  const __m512d res_reduce = _mm512_sub_pd(
      khi, _mm512_sub_pd(_mm512_sub_pd(hfsq, _mm512_add_pd(t1, clo)), f));
  const __m512d res_k0 = _mm512_sub_pd(f, _mm512_sub_pd(hfsq, t1));
  const __m512d Rs = _mm512_mul_pd(
      hfsq, _mm512_sub_pd(one, _mm512_mul_pd(
                                   _mm512_set1_pd(0.66666666666666666), f)));
  const __m512d res_hu0 =
      _mm512_sub_pd(khi, _mm512_sub_pd(_mm512_sub_pd(Rs, clo), f));
  const __m512d res_hu0_f0 = _mm512_add_pd(khi, clo);
  const __mmask8 m_f0 = _mm512_cmp_pd_mask(f, zero, _CMP_EQ_OQ);

  __m512d res = res_reduce;
  res = _mm512_mask_blend_pd(m_k0, res, res_k0);
  res = _mm512_mask_blend_pd(m_hu0 & static_cast<__mmask8>(~m_f0), res,
                             res_hu0);
  res = _mm512_mask_blend_pd(m_hu0 & m_f0, res, res_hu0_f0);
  const __m512d small = _mm512_sub_pd(
      x, _mm512_mul_pd(_mm512_mul_pd(x, x), _mm512_set1_pd(0.5)));
  res = _mm512_mask_blend_pd(m_small, res, small);
  res = _mm512_mask_blend_pd(m_ret, res, x);
  return res;
}

void map_targets_avx512(double* u, std::size_t count) {
  const __m512i sign = set1_u64(0x8000000000000000ULL);
  std::size_t t = 0;
  for (; t + 16 <= count; t += 16) {
    const __m512d a = _mm512_castsi512_pd(
        _mm512_xor_si512(_mm512_castpd_si512(_mm512_loadu_pd(u + t)), sign));
    const __m512d b = _mm512_castsi512_pd(_mm512_xor_si512(
        _mm512_castpd_si512(_mm512_loadu_pd(u + t + 8)), sign));
    _mm512_storeu_pd(u + t, log1p_neg8(a));
    _mm512_storeu_pd(u + t + 8, log1p_neg8(b));
  }
  if (t < count) detail::scalar_ops().map_targets(u + t, count - t);
}

// ---- pass 2b: probes ----

/// 8-lane probe_first_below_padded descent (see the AVX2 backend for
/// the invariant notes; vpminuq replaces the compare/blend clamp).
inline __m512i probe8(const double* padded, std::size_t padded_size,
                      std::size_t rounds, __m512d target) {
  __m512i pos = _mm512_setzero_si512();
  for (std::size_t step = padded_size >> 1; step > 0; step >>= 1) {
    const __m512i stepv = set1_u64(step);
    const __m512i idx = _mm512_add_epi64(pos, stepv);
    const __m512d v = _mm512_i64gather_pd(idx, padded, 8);
    const __mmask8 ge = _mm512_cmp_pd_mask(v, target, _CMP_GE_OQ);
    pos = _mm512_mask_add_epi64(pos, ge, pos, stepv);
  }
  const __m512i first = _mm512_add_epi64(pos, set1_u64(1));
  return _mm512_min_epu64(first, set1_u64(rounds));
}

inline __m512i aperiodic8(const ProbeTable& table, __m512d target) {
  const __mmask8 serve =
      _mm512_cmp_pd_mask(_mm512_set1_pd(table.back), target, _CMP_LT_OQ);
  const __m512i first =
      probe8(table.padded, table.padded_size, table.rounds, target);
  __m512i round = _mm512_maskz_mov_epi64(serve, first);
  const __mmask8 over =
      _mm512_cmpgt_epu64_mask(round, set1_u64(table.max_rounds));
  return _mm512_maskz_mov_epi64(~over, round);
}

inline __m512i periodic8(const ProbeTable& table, __m512d target,
                         unsigned* retry) {
  const std::size_t span = table.rounds - 1;
  const __m512d per_period = _mm512_set1_pd(table.back);
  const __m512d skipped = _mm512_roundscale_pd(
      _mm512_div_pd(target, per_period),
      _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC);
  const __m512d skip_rounds =
      _mm512_mul_pd(skipped, _mm512_set1_pd(static_cast<double>(span)));
  const __mmask8 pre = _mm512_cmp_pd_mask(
      skip_rounds, _mm512_set1_pd(static_cast<double>(table.max_rounds)),
      _CMP_GE_OQ);
  const __m512d residual =
      _mm512_sub_pd(target, _mm512_mul_pd(skipped, per_period));
  const __m512i first =
      probe8(table.padded, table.padded_size, table.rounds, residual);
  // vcvttpd2qq matches the scalar size_t truncation on every lane that
  // survives the pre-check; excluded lanes (including inf quotients)
  // produce the indefinite value and are zeroed by the pre mask.
  const __m512i ski = _mm512_cvttpd_epi64(skipped);
  const __m512i base = _mm512_mullo_epi64(ski, set1_u64(span));
  __m512i round = _mm512_add_epi64(base, first);
  round = _mm512_maskz_mov_epi64(~pre, round);
  const __mmask8 over =
      _mm512_cmpgt_epu64_mask(round, set1_u64(table.max_rounds));
  round = _mm512_maskz_mov_epi64(~over, round);
  const __mmask8 at_edge =
      _mm512_cmpeq_epi64_mask(first, set1_u64(table.rounds));
  *retry = static_cast<unsigned>(at_edge & static_cast<__mmask8>(~pre));
  return round;
}

inline __m512i certain8(const ProbeTable& table, __m512d target) {
  const __m512i first =
      probe8(table.padded, table.padded_size, table.rounds, target);
  const __mmask8 over =
      _mm512_cmpgt_epu64_mask(first, set1_u64(table.max_rounds));
  return _mm512_maskz_mov_epi64(~over, first);
}

void probe_rounds_avx512(const ProbeTable& table, const double* targets,
                         std::size_t count, std::uint64_t* rounds) {
  void* out = static_cast<void*>(rounds);
  auto* out64 = static_cast<long long*>(out);
  std::size_t t = 0;
  if (!table.periodic) {
    for (; t + 16 <= count; t += 16) {
      _mm512_storeu_si512(out64 + t,
                          aperiodic8(table, _mm512_loadu_pd(targets + t)));
      _mm512_storeu_si512(
          out64 + t + 8, aperiodic8(table, _mm512_loadu_pd(targets + t + 8)));
    }
  } else if (!(table.back < 0.0)) {
    for (; t < count; ++t) rounds[t] = 0;
    return;
  } else if (table.back == -std::numeric_limits<double>::infinity()) {
    for (; t + 16 <= count; t += 16) {
      _mm512_storeu_si512(out64 + t,
                          certain8(table, _mm512_loadu_pd(targets + t)));
      _mm512_storeu_si512(out64 + t + 8,
                          certain8(table, _mm512_loadu_pd(targets + t + 8)));
    }
  } else {
    for (; t + 16 <= count; t += 16) {
      unsigned retry_a = 0, retry_b = 0;
      _mm512_storeu_si512(
          out64 + t, periodic8(table, _mm512_loadu_pd(targets + t), &retry_a));
      _mm512_storeu_si512(
          out64 + t + 8,
          periodic8(table, _mm512_loadu_pd(targets + t + 8), &retry_b));
      for (unsigned bits = retry_a | (retry_b << 8); bits != 0;
           bits &= bits - 1) {
        const unsigned lane = static_cast<unsigned>(__builtin_ctz(bits));
        rounds[t + lane] = search_one(table, targets[t + lane]);
      }
    }
  }
  for (; t < count; ++t) rounds[t] = search_one(table, targets[t]);
}

inline __m512i cdf8(const CdfTable& table, __m512d u) {
  __m512i pos = _mm512_setzero_si512();
  for (std::size_t step = table.padded_size >> 1; step > 0; step >>= 1) {
    const __m512i stepv = set1_u64(step);
    const __m512i idx = _mm512_add_epi64(pos, stepv);
    const __m512d v = _mm512_i64gather_pd(idx, table.padded, 8);
    const __mmask8 le = _mm512_cmp_pd_mask(v, u, _CMP_LE_OQ);
    pos = _mm512_mask_add_epi64(pos, le, pos, stepv);
  }
  return pos;
}

void probe_cdf_avx512(const CdfTable& table, const double* u,
                      std::size_t count, std::uint64_t* index) {
  void* out = static_cast<void*>(index);
  auto* out64 = static_cast<long long*>(out);
  std::size_t t = 0;
  for (; t + 16 <= count; t += 16) {
    _mm512_storeu_si512(out64 + t, cdf8(table, _mm512_loadu_pd(u + t)));
    _mm512_storeu_si512(out64 + t + 8,
                        cdf8(table, _mm512_loadu_pd(u + t + 8)));
  }
  for (; t < count; ++t) index[t] = probe_cdf_one(table, u[t]);
}

// ---- the history-tree walk ----

/// Stores the `live` lanes of `v` to dst[0, popcount(live)): a register
/// vpcompressq and a masked store (the memory form of vpcompressq is
/// microcoded on Intel cores).
inline void compress_store(std::uint64_t* dst, __mmask8 live, __m512i v) {
  const auto low = static_cast<__mmask8>((1u << __builtin_popcount(live)) - 1);
  _mm512_mask_storeu_epi64(dst, low, _mm512_maskz_compress_epi64(live, v));
}

/// The scalar walk, 8 lanes per vector: the node's four words gathered
/// straight from the lanes' node addresses (a null gather base and the
/// absolute address as the index), the outcome trichotomy as mask
/// compares, the child as a blend, the live lanes and the exits
/// compacted by compress_store. A solving lane's result is packed as
/// trial | round << 32 and parked at the top of exits.tag, which has a
/// row free for every lane that has not exited yet; the columns are
/// written from there once the walk ends, so no per-vector loop over
/// the solving lanes (a branch the outcome draws make unpredictable)
/// sits in the level pass.
std::size_t walk_tree_avx512(const harness::HistoryTreeNode* const* trees,
                             const WalkLanes& lanes, std::size_t count,
                             const WalkExits& exits, std::uint8_t* solved,
                             std::uint64_t* rounds) {
  // Local copies: the column stores could alias the views themselves.
  const WalkLanes live_lanes = lanes;
  const WalkExits exit_lanes = exits;
  const __m512i gamma = set1_u64(kGamma);
  const __m512i no_child = set1_u64(~std::uint64_t{0});  // kNoChild
  const __m512i low32 = set1_u64(0xffffffffULL);
  const __m512i zero = _mm512_setzero_si512();
  std::size_t left = 0;
  const std::size_t total = count;
  std::size_t won_rows = total;  // exit_lanes.tag[won_rows, total): results
  for (std::uint64_t depth = 0; count > 0; ++depth) {
    const __m512i bit = set1_u64(std::uint64_t{1} << depth);
    const __m512i walked = set1_u64(depth + 1);
    const __m512i result_round = set1_u64((depth + 1) << 32);
    std::size_t kept = 0;
    for (std::size_t i = 0; i < count; i += 8) {
      const auto m = static_cast<__mmask8>(
          count - i >= 8 ? 0xffu : (1u << (count - i)) - 1);
      const __m512i s = _mm512_add_epi64(
          _mm512_maskz_loadu_epi64(m, live_lanes.state + i), gamma);
      const __m512i at = _mm512_maskz_loadu_epi64(m, live_lanes.node + i);
      const __m512i tag = _mm512_maskz_loadu_epi64(m, live_lanes.tag + i);
      const __m512i walked_path =
          _mm512_maskz_loadu_epi64(m, live_lanes.path + i);
      const __m512d cum_success =
          _mm512_mask_i64gather_pd(_mm512_setzero_pd(), m, at, nullptr, 1);
      const __m512d cum_no_collision = _mm512_mask_i64gather_pd(
          _mm512_setzero_pd(), m, _mm512_add_epi64(at, set1_u64(8)), nullptr,
          1);
      const __m512i silence = _mm512_mask_i64gather_epi64(
          zero, m, _mm512_add_epi64(at, set1_u64(16)), nullptr, 1);
      const __m512i collision = _mm512_mask_i64gather_epi64(
          zero, m, _mm512_add_epi64(at, set1_u64(24)), nullptr, 1);
      const __m512d draw = canonical8(mix64(s));
      const __mmask8 won =
          _mm512_mask_cmp_pd_mask(m, draw, cum_success, _CMP_LT_OQ);
      const __mmask8 collided =
          _mm512_mask_cmp_pd_mask(m, draw, cum_no_collision, _CMP_GE_OQ);
      const __m512i child =
          _mm512_mask_blend_epi64(collided, silence, collision);
      const __m512i path =
          _mm512_mask_or_epi64(walked_path, collided, walked_path, bit);
      const auto open = static_cast<__mmask8>(m & ~won);
      const __mmask8 live =
          _mm512_mask_cmpneq_epi64_mask(open, child, no_child);
      const auto out = static_cast<__mmask8>(open & ~live);
      const __m512i base = _mm512_mask_i64gather_epi64(
          zero, live, _mm512_srli_epi64(tag, 32), trees, 8);
      const __m512i next =
          _mm512_add_epi64(base, _mm512_slli_epi64(child, 5));

      won_rows -= static_cast<std::size_t>(__builtin_popcount(won));
      compress_store(exit_lanes.tag + won_rows, won,
                     _mm512_or_si512(_mm512_and_si512(tag, low32),
                                     result_round));
      compress_store(live_lanes.state + kept, live, s);
      compress_store(live_lanes.node + kept, live, next);
      compress_store(live_lanes.path + kept, live, path);
      compress_store(live_lanes.tag + kept, live, tag);
      kept += static_cast<std::size_t>(__builtin_popcount(live));
      if (out != 0) {  // rare: a pruned branch or the horizon
        compress_store(exit_lanes.state + left, out, s);
        compress_store(exit_lanes.path + left, out, path);
        compress_store(exit_lanes.tag + left, out, tag);
        compress_store(exit_lanes.depth + left, out, walked);
        left += static_cast<std::size_t>(__builtin_popcount(out));
      }
    }
    count = kept;
  }
  for (std::size_t j = won_rows; j < total; ++j) {
    const std::uint64_t result = exit_lanes.tag[j];
    const auto trial = static_cast<std::uint32_t>(result);
    solved[trial] = 1;
    rounds[trial] = result >> 32;
  }
  return left;
}

}  // namespace

namespace detail {

const Ops& avx512_ops() {
  static const Ops ops = {
      &pass1_uniform_avx512, &pass1_uniform_pair_avx512, &map_targets_avx512,
      &probe_rounds_avx512,  &probe_cdf_avx512,          &walk_tree_avx512,
  };
  return ops;
}

}  // namespace detail

}  // namespace crp::channel::kernels

#if defined(__clang__)
#pragma clang attribute pop
#else
#pragma GCC pop_options
#endif

#endif  // CRP_X86_KERNELS

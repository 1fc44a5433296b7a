// Thread-pool execution for the Monte-Carlo harness: workers steal
// fixed-size *blocks* of trial indices, not individual trials.
//
// The block partition of [0, trials) depends only on the trial count
// and block size — never on the thread count or scheduling — and every
// consumer derives per-trial (or per-block) state purely from the
// block's index range. Results assembled in trial order are therefore
// bit-identical to a serial run at any thread count
// (tests/parallel_measure_test.cpp pins this down).
//
// Layering: channel/engine.h defines *what* runs on a block (columnar
// engines), this header defines *where* blocks run, and
// harness/measure.h glues the two into Measurements. This header knows
// nothing of either: it schedules index ranges.
//
/// Ownership: the pool is per call — threads are spawned inside
/// parallel_blocks and joined before it returns; no worker, queue, or
/// task outlives the call, and callbacks only borrow caller state.
///
/// Thread-safety: fn is invoked concurrently on distinct blocks and
/// must be safe under that; the first exception thrown is rethrown on
/// the caller's thread after the pool drains, and once a block has
/// thrown no worker claims another (blocks already running finish).
///
/// Determinism: the block partition depends only on (total,
/// block_size) — never on the thread count or on which worker claims
/// which block — so consumers that derive state per block index and
/// fold in trial order are bit-identical to a serial run at any
/// thread count (tests/parallel_measure_test.cpp pins this down).
#pragma once

#include <cstddef>
#include <functional>

namespace crp::harness {

/// Block size used by the columnar measurement paths. A fixed power of
/// two (not derived from the thread count) so the partition — and any
/// per-block derived state — is identical at every thread count.
inline constexpr std::size_t kTrialBlockSize = 1024;

/// Runs fn(begin, end) for every block [begin, end) of the fixed
/// partition of [0, total) into `block_size`-sized blocks (the last
/// block may be short) across `threads` workers (0 = all hardware
/// threads; <= 1 runs inline on the calling thread, in block order).
/// Workers claim whole blocks, so fn must be safe to call concurrently
/// on distinct blocks. The first exception thrown is rethrown on the
/// caller's thread after the pool drains; after it, workers stop
/// claiming blocks, so the rest of the range never runs.
void parallel_blocks(std::size_t total, std::size_t threads,
                     const std::function<void(std::size_t, std::size_t)>& fn,
                     std::size_t block_size = kTrialBlockSize);

/// The number of workers parallel_blocks would actually spawn for
/// (total, threads, block_size) — threads resolved (0 = hardware),
/// then capped by the block count, never below 1. Callers that give
/// each worker private state (scratch columns, streaming accumulators)
/// size their arrays with this.
std::size_t parallel_worker_count(std::size_t total, std::size_t threads,
                                  std::size_t block_size = kTrialBlockSize);

/// parallel_blocks with a stable worker identity: fn(worker, begin,
/// end), worker in [0, parallel_worker_count(...)). A worker runs its
/// blocks sequentially, so per-worker state needs no synchronization.
/// Which blocks land on which worker is scheduling-dependent — only
/// folds that are exact and commutative across blocks (integer
/// accumulators, element-indexed writes) may depend on worker state;
/// see harness/accumulate.h for the streaming-fold contract.
void parallel_blocks_indexed(
    std::size_t total, std::size_t threads,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& fn,
    std::size_t block_size = kTrialBlockSize);

/// Runs fn(t) for every trial index t in [0, trials) across `threads`
/// workers (0 = all hardware threads; <= 1 runs inline on the calling
/// thread). A convenience wrapper over parallel_blocks with a small
/// block size, for callers priced per trial rather than per column.
void parallel_trials(std::size_t trials, std::size_t threads,
                     const std::function<void(std::size_t)>& fn);

}  // namespace crp::harness

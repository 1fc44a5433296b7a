#include "harness/parallel.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

namespace crp::harness {

namespace {

/// Overflow-safe ceiling division: totals near SIZE_MAX must not wrap
/// the block count to zero.
std::size_t block_count(std::size_t total, std::size_t block_size) {
  if (block_size == 0) {
    throw std::invalid_argument("block size must be positive");
  }
  return total / block_size + (total % block_size != 0 ? 1 : 0);
}

}  // namespace

std::size_t parallel_worker_count(std::size_t total, std::size_t threads,
                                  std::size_t block_size) {
  const std::size_t blocks = block_count(total, block_size);
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  return std::min(threads, std::max<std::size_t>(blocks, 1));
}

void parallel_blocks_indexed(
    std::size_t total, std::size_t threads,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& fn,
    std::size_t block_size) {
  const std::size_t blocks = block_count(total, block_size);
  const std::size_t workers =
      parallel_worker_count(total, threads, block_size);
  if (workers <= 1) {
    for (std::size_t b = 0; b < blocks; ++b) {
      const std::size_t begin = b * block_size;
      fn(0, begin, std::min(total, begin + block_size));
    }
    return;
  }

  // Workers claim one block per pass over the atomic counter; the
  // block is the load-balancing granule, so the counter stays off the
  // per-trial hot path. Once any block has thrown, no worker claims
  // another: the remaining blocks could only be discarded, and on a
  // long range (a whole sweep's blocks) running them would delay the
  // error by the rest of the run.
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr error;
  std::mutex error_mutex;

  const auto worker = [&](std::size_t id) {
    while (!failed.load()) {
      const std::size_t b = next.fetch_add(1);
      if (b >= blocks) return;
      const std::size_t begin = b * block_size;
      try {
        fn(id, begin, std::min(total, begin + block_size));
      } catch (...) {
        failed.store(true);
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!error) error = std::current_exception();
        return;
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) pool.emplace_back(worker, i);
  for (auto& thread : pool) thread.join();
  if (error) std::rethrow_exception(error);
}

void parallel_blocks(std::size_t total, std::size_t threads,
                     const std::function<void(std::size_t, std::size_t)>& fn,
                     std::size_t block_size) {
  parallel_blocks_indexed(
      total, threads,
      [&fn](std::size_t, std::size_t begin, std::size_t end) {
        fn(begin, end);
      },
      block_size);
}

void parallel_trials(std::size_t trials, std::size_t threads,
                     const std::function<void(std::size_t)>& fn) {
  // Small blocks keep per-trial workloads of wildly different lengths
  // load-balanced while amortizing the block claim.
  constexpr std::size_t kChunk = 32;
  parallel_blocks(
      trials, threads,
      [&fn](std::size_t begin, std::size_t end) {
        for (std::size_t t = begin; t < end; ++t) fn(t);
      },
      kChunk);
}

}  // namespace crp::harness

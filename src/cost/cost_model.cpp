#include "cost/cost_model.h"

#include <algorithm>
#include <thread>

#include "util/contract.h"
#include "util/sync.h"
#include "util/thread_pool.h"

namespace comet::cost {

namespace {

// One process-wide pool shared by every model with batch_threads >= 2.
// Lazily constructed on first parallel batch (sequential users never spawn
// a thread); sized to the hardware so several models can interleave chunks
// without oversubscribing. Function-local static => thread-safe init and
// graceful drain at exit.
util::ThreadPool& shared_batch_pool() {
  static util::ThreadPool pool(
      std::max(2u, std::thread::hardware_concurrency()));
  return pool;
}

// Join state shared between the calling thread and the posted chunks.
// Annotated so the chunk-completion protocol — including the
// notify-while-locked rule that keeps the cv alive (see post lambda) — is
// checked under COMET_THREAD_SAFETY rather than trusted.
struct ChunkJoin {
  util::Mutex mutex;
  util::CondVar cv;
  std::size_t done COMET_GUARDED_BY(mutex) = 0;
  std::exception_ptr error COMET_GUARDED_BY(mutex);
};

}  // namespace

void CostModel::predict_batch(std::span<const x86::BasicBlock> blocks,
                              std::span<double> out) const {
  COMET_CHECK_MSG(blocks.size() == out.size(),
                  "predict_batch: " << blocks.size() << " blocks but "
                                    << out.size() << " output slots");
  for_batch_chunks(blocks.size(), [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      out[i] = predict(blocks[i]);
    }
  });
}

void CostModel::for_batch_chunks(
    std::size_t total,
    const std::function<void(std::size_t, std::size_t)>& fn) const {
  const std::size_t tasks = std::min(batch_threads_, total);
  if (tasks <= 1) {
    fn(0, total);
    return;
  }
  util::ThreadPool& pool = shared_batch_pool();
  const std::size_t chunk = (total + tasks - 1) / tasks;
  ChunkJoin join;
  std::size_t posted = 0;  // touched by the calling thread only
  for (std::size_t begin = 0; begin < total; begin += chunk) {
    const std::size_t end = std::min(total, begin + chunk);
    ++posted;
    pool.post([&join, &fn, begin, end] {
      // A throwing chunk must not change the error contract vs the
      // sequential path (where the exception reaches the caller) — an
      // escape into the pool's worker loop would std::terminate. Capture
      // the first exception and rethrow it on the calling thread.
      std::exception_ptr chunk_error;
      try {
        fn(begin, end);
      } catch (...) {
        chunk_error = std::current_exception();
      }
      // Notify while holding the lock: the join is a stack local of the
      // caller, and the waiter may destroy it the moment it observes
      // done == posted — an unlocked notify could touch a dead cv.
      util::MutexLock lock(join.mutex);
      if (chunk_error != nullptr && join.error == nullptr) {
        join.error = chunk_error;
      }
      ++join.done;
      join.cv.notify_one();
    });
  }
  std::exception_ptr error;
  {
    util::MutexLock lock(join.mutex);
    while (join.done != posted) join.cv.wait(lock);
    error = join.error;
  }
  if (error != nullptr) std::rethrow_exception(error);
}

}  // namespace comet::cost

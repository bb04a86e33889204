// A fixed-size FIFO thread pool: the one executor the library's layers
// share (the cost::CostModel batch fan-out, the serving layer's shard
// threads, test harnesses).
//
// Deliberately minimal: tasks are opaque std::function<void()>s executed in
// submission order by whichever worker frees up first. With one worker the
// pool is a strict FIFO executor: posted tasks run one at a time, in post
// order, which is what gives a one-worker shard its deterministic,
// bit-identical-to-sequential query accounting. More workers trade that
// ordering for concurrency (callers opt in explicitly).
//
// Shutdown is graceful: the destructor lets workers drain every queued task
// before joining, so no submitted work is ever dropped.
//
// Locking contract (compile-time checked under COMET_THREAD_SAFETY): the
// task queue and the stop flag are guarded by mutex_; workers_ is written
// only during construction and joined in the destructor, after every
// worker has observed stopping_, so it needs no lock.
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "util/sync.h"

namespace comet::util {

class ThreadPool {
 public:
  /// Spawns `threads` workers (at least one).
  explicit ThreadPool(std::size_t threads);

  /// Drains all queued tasks, then joins the workers.
  ~ThreadPool() COMET_EXCLUDES(mutex_);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task; workers pick tasks up in FIFO order.
  void post(std::function<void()> task) COMET_EXCLUDES(mutex_);

  std::size_t size() const { return workers_.size(); }

 private:
  void worker_loop() COMET_EXCLUDES(mutex_);

  Mutex mutex_;
  CondVar cv_;  // signalled on new work and on shutdown
  std::deque<std::function<void()>> tasks_ COMET_GUARDED_BY(mutex_);
  bool stopping_ COMET_GUARDED_BY(mutex_) = false;
  std::vector<std::thread> workers_;
};

}  // namespace comet::util

// Bounded task executor for shard-parallel scatter/gather fan-out.
//
// The simulators are deterministic; the protocols around them are not
// allowed to be anything else. The executor therefore has two modes:
//
//   parallelism <= 1  -- no threads at all. run_all() executes the tasks
//                        inline, in submission order, on the caller's
//                        thread. Every service call, meter record and RNG
//                        draw happens in exactly the sequence the old
//                        sequential loops produced, so single-threaded
//                        configurations reproduce prior behaviour
//                        bit-for-bit (billing included).
//
//   parallelism  > 1  -- a fixed pool of std::threads started once and
//                        reused for every batch. Tasks are claimed by
//                        index, so callers that write results into
//                        index-addressed slots gather deterministic
//                        *values* regardless of interleaving; only the
//                        order of service-level side effects (meter
//                        line interleaving, RNG draw order) may differ.
//
// run_all() blocks until every task of the batch has finished. The first
// exception thrown by any task is captured and rethrown to the caller
// after the batch completes (remaining tasks still run; protocol code
// relies on crash injection surfacing as an exception, not a deadlock).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace provcloud::util {

class Executor {
 public:
  /// `parallelism` is the number of worker threads: the pool holds that
  /// many when > 1, none otherwise. It bounds how many tasks run at once
  /// on the real clock only; the executor knows nothing of virtual time
  /// (DomainTopology::run_tasks charges every task of a batch as
  /// concurrent, whatever the thread count).
  explicit Executor(std::size_t parallelism = 1);
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  std::size_t parallelism() const { return parallelism_; }

  /// Run every task to completion. Inline and in order when the executor
  /// is single-threaded; otherwise distributed over the pool. Batches from
  /// concurrent callers are serialized, never interleaved.
  void run_all(std::vector<std::function<void()>> tasks);

 private:
  void worker_loop();
  void run_inline(std::vector<std::function<void()>>& tasks);

  const std::size_t parallelism_;
  std::vector<std::thread> workers_;

  std::mutex batch_mu_;  // one batch at a time

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::vector<std::function<void()>>* tasks_ = nullptr;
  std::size_t next_ = 0;
  std::size_t remaining_ = 0;
  std::exception_ptr first_error_;
  bool stop_ = false;
};

}  // namespace provcloud::util

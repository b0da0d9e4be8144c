// Fixed-size thread pool over one FIFO queue (C++20 std::jthread, no
// external dependencies). Workers take tasks in submission order, so the
// serve session's pooled requests start in arrival order, the order its
// writer answers them in. Tasks are whole requests (milliseconds), so one
// mutex-guarded queue costs nothing measurable.
#ifndef RAPAR_COMMON_THREAD_POOL_H_
#define RAPAR_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace rapar {

class ThreadPool {
 public:
  // Starts `threads` (at least 1) workers and keeps them until
  // destruction.
  explicit ThreadPool(unsigned threads);
  // Runs every task still queued, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned size() const { return static_cast<unsigned>(workers_.size()); }

  // Enqueues a task. Never blocks; callers that need backpressure bound
  // their in-flight count themselves (serve keeps a window of slots).
  void Submit(std::function<void()> task);

 private:
  void WorkerLoop();

  std::mutex m_;
  std::condition_variable work_cv_;  // workers sleep here
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
  std::vector<std::jthread> workers_;
};

}  // namespace rapar

#endif  // RAPAR_COMMON_THREAD_POOL_H_

#include "common/thread_pool.h"

#include <cassert>
#include <utility>

namespace rapar {

ThreadPool::ThreadPool(unsigned threads) {
  assert(threads > 0);
  workers_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(m_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  // jthread joins on destruction; workers drain the queue first.
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(m_);
    queue_.push_back(std::move(task));
  }
  work_cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(m_);
  for (;;) {
    if (!queue_.empty()) {
      std::function<void()> task = std::move(queue_.front());
      queue_.pop_front();
      lock.unlock();
      task();
      task = nullptr;  // release captures before taking the lock again
      lock.lock();
      continue;
    }
    if (stopping_) return;
    work_cv_.wait(lock);
  }
}

}  // namespace rapar

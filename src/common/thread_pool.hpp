// A small work-stealing thread pool for the sharded tree-DP executor.
//
// Each worker owns a deque: it pops the newest task from its own back (good
// locality for the dependency-triggered shard tasks, which tend to submit
// their parent right after finishing a subtree) and steals the oldest task
// from the front of another worker's deque when its own is empty. External
// submitters distribute round-robin. Tasks must not block on other pool
// tasks — the shard executor only submits a task once every dependency has
// completed, so the pool never deadlocks and callers can simply Wait on a
// WaitGroup counting their own tasks.
//
// Header-only so core/ (tree_dp.hpp) can use it without a new library.
#ifndef TREEDL_COMMON_THREAD_POOL_HPP_
#define TREEDL_COMMON_THREAD_POOL_HPP_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace treedl {

class ThreadPool {
 public:
  using Task = std::function<void()>;

  /// std::thread::hardware_concurrency with a floor of 1 (the standard allows
  /// it to report 0 when the count is unknowable).
  static size_t DefaultNumThreads() {
    unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<size_t>(hw);
  }

  explicit ThreadPool(size_t num_threads) {
    if (num_threads == 0) num_threads = 1;
    queues_.reserve(num_threads);
    for (size_t i = 0; i < num_threads; ++i) {
      queues_.push_back(std::make_unique<WorkQueue>());
    }
    workers_.reserve(num_threads);
    for (size_t i = 0; i < num_threads; ++i) {
      workers_.emplace_back([this, i] { WorkerLoop(i); });
    }
  }

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    for (std::thread& worker : workers_) worker.join();
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t NumThreads() const { return workers_.size(); }

  /// Enqueues a task. Worker threads push onto their own deque; external
  /// threads distribute round-robin.
  void Submit(Task task) {
    size_t target = WorkerIndex();
    if (target == kNotAWorker) {
      target = next_queue_.fetch_add(1, std::memory_order_relaxed) %
               queues_.size();
    }
    // Count the task before making it visible: a consumer that pops it must
    // find pending_ > 0, or the counter would wrap below zero. A waiter that
    // sees the count before the push spins one TakeTask round and re-waits.
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++pending_;
    }
    {
      std::lock_guard<std::mutex> lock(queues_[target]->mu);
      queues_[target]->tasks.push_back(std::move(task));
    }
    cv_.notify_one();
  }

  /// Runs one queued task on the calling thread, if any is immediately
  /// available. Returns false when every deque is empty — lets a thread that
  /// is waiting for its tasks help drain the pool instead of idling.
  bool RunOneTask() {
    Task task;
    if (!TakeTask(WorkerIndex(), &task)) return false;
    task();
    return true;
  }

 private:
  struct WorkQueue {
    std::mutex mu;
    std::deque<Task> tasks;
  };

  static constexpr size_t kNotAWorker = static_cast<size_t>(-1);

  // Which worker of *this* pool the calling thread is, or kNotAWorker.
  size_t WorkerIndex() const {
    return tls_pool == this ? tls_index : kNotAWorker;
  }

  // Pops from the back of `self`'s deque, else steals from the front of the
  // others. Decrements the pending count on success.
  bool TakeTask(size_t self, Task* out) {
    size_t n = queues_.size();
    if (self != kNotAWorker) {
      WorkQueue& own = *queues_[self];
      std::lock_guard<std::mutex> lock(own.mu);
      if (!own.tasks.empty()) {
        *out = std::move(own.tasks.back());
        own.tasks.pop_back();
        TookOne();
        return true;
      }
    }
    size_t start = self == kNotAWorker ? 0 : self + 1;
    for (size_t k = 0; k < n; ++k) {
      WorkQueue& victim = *queues_[(start + k) % n];
      std::lock_guard<std::mutex> lock(victim.mu);
      if (!victim.tasks.empty()) {
        *out = std::move(victim.tasks.front());
        victim.tasks.pop_front();
        TookOne();
        return true;
      }
    }
    return false;
  }

  void TookOne() {
    std::lock_guard<std::mutex> lock(mu_);
    --pending_;
  }

  void WorkerLoop(size_t self) {
    tls_pool = this;
    tls_index = self;
    while (true) {
      Task task;
      if (TakeTask(self, &task)) {
        task();
        continue;
      }
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || pending_ > 0; });
      if (stop_ && pending_ == 0) return;
    }
  }

  // Worker identity of the calling thread (which pool, which deque).
  static inline thread_local const ThreadPool* tls_pool = nullptr;
  static inline thread_local size_t tls_index = kNotAWorker;

  std::vector<std::unique_ptr<WorkQueue>> queues_;
  std::vector<std::thread> workers_;
  std::atomic<size_t> next_queue_{0};

  std::mutex mu_;  // guards pending_ / stop_ and backs cv_
  std::condition_variable cv_;
  size_t pending_ = 0;
  bool stop_ = false;
};

/// Counts outstanding tasks of one logical operation; Wait blocks until every
/// Add has been matched by a Done. The shard executor Adds once per shard and
/// Waits on the submitting thread.
class WaitGroup {
 public:
  void Add(size_t n = 1) {
    std::lock_guard<std::mutex> lock(mu_);
    count_ += n;
  }

  // The decrement happens under the lock: Wait can only observe zero after
  // the last Done has released mu_, so the waiter may destroy the WaitGroup
  // (it usually lives on the waiter's stack) as soon as Wait returns. With
  // the decrement outside the lock, a waiter could see zero, return and free
  // the group while that Done was still about to lock mu_.
  void Done() {
    std::lock_guard<std::mutex> lock(mu_);
    if (--count_ == 0) cv_.notify_all();
  }

  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return count_ == 0; });
  }

 private:
  size_t count_ = 0;  // guarded by mu_
  std::mutex mu_;
  std::condition_variable cv_;
};

}  // namespace treedl

#endif  // TREEDL_COMMON_THREAD_POOL_HPP_

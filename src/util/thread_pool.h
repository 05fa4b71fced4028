// Small work-stealing thread pool for fanning independent simulation
// replicas across cores.
//
// Each worker owns a deque: it pops its own tasks LIFO (cache-warm) and
// steals FIFO from a victim when its deque drains, so an uneven sweep grid
// (some (parameter, seed) points simulate 10x longer than others) still
// keeps every core busy until the tail.  Submission round-robins across the
// worker deques, which is enough load spreading for the coarse-grained
// replica tasks this pool exists for (milliseconds to seconds each) — the
// stealing path handles the imbalance.
//
// The pool makes no fairness or priority promises and tasks must not block
// on each other (no nested Wait); that keeps the implementation small and
// the failure modes simple.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace svc::util {

// Count-down latch for fan-out/join of a known number of tasks on a
// ThreadPool without using ThreadPool::Wait() (which waits for *every*
// task submitted so far and must not run concurrently with other waiters).
// The submitting thread may keep doing work of its own between Submit()
// and Wait(); it blocks only until the counted tasks retire.  Stack
// allocation is the intended use — a Latch owns no heap state.
class Latch {
 public:
  explicit Latch(int count) : remaining_(count) {}

  Latch(const Latch&) = delete;
  Latch& operator=(const Latch&) = delete;

  // Called exactly once per counted task, from any thread.
  void CountDown();

  // Blocks until `count` CountDown() calls have happened.
  void Wait();

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int remaining_;
};

class ThreadPool {
 public:
  // `num_threads` <= 0 uses the hardware concurrency.
  explicit ThreadPool(int num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  // Enqueues a task.  Safe to call from any thread, including pool workers
  // (a worker submitting pushes onto its own deque).
  void Submit(std::function<void()> task);

  // Blocks until every task submitted so far has finished.  Must not be
  // called from inside a pool task.
  void Wait();

  // Tasks currently sitting in the worker deques (excludes running tasks):
  // the saturation signal batch submitters throttle on (see
  // sim::SweepRunner) and the source of the `threadpool/queue_depth`
  // gauge.  Approximate by nature — workers drain concurrently.
  int64_t queue_depth() const {
    return queued_.load(std::memory_order_relaxed);
  }

  // std::thread::hardware_concurrency with a sane floor of 1.
  static int HardwareThreads();

 private:
  struct Worker {
    std::mutex mu;
    std::deque<std::function<void()>> tasks;
  };

  void WorkerLoop(int self);
  // Pops one task — own deque back first, then steals from the other
  // workers' fronts.  Returns false when every deque is empty.
  bool TryTake(int self, std::function<void()>& out);

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;

  // Wakes idle workers on submit/stop.
  std::mutex idle_mu_;
  std::condition_variable idle_cv_;
  // Signals Wait() when the last in-flight task retires.
  std::mutex done_mu_;
  std::condition_variable done_cv_;

  std::atomic<int64_t> queued_{0};   // tasks sitting in deques
  std::atomic<int64_t> pending_{0};  // queued + running
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> next_worker_{0};  // round-robin submit cursor
};

}  // namespace svc::util

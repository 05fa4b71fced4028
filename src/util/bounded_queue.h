// Bounded MPMC queue for pipeline stages.
//
// A mutex/condvar queue, deliberately simple: the admission pipeline moves
// coarse work items (each worth an allocator DP run), so lock-free
// machinery would buy nothing here.  What matters is the backpressure
// contract — Push blocks while full, TryPush never blocks — and a clean
// close protocol so consumers drain the remaining items and exit without
// sentinel values.
//
// Storage is a fixed ring of empty-until-pushed slots: a push emplaces
// the item, a pop moves it out and resets the slot.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

namespace svc::util {

// Destructive-interference granularity used for the alignas() padding on
// cross-thread counters and queue cursors.  64 bytes covers x86 and most
// AArch64 parts; std::hardware_destructive_interference_size is avoided on
// purpose (its value is ABI-fragile across GCC versions).
inline constexpr std::size_t kCacheLineSize = 64;

template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity), slots_(capacity_) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  // Blocks while the queue is full.  Returns false (item dropped) only if
  // the queue was closed.
  bool Push(T item) {
    std::unique_lock<std::mutex> lock(mu_);
    not_full_.wait(lock, [this] { return closed_ || Size() < capacity_; });
    if (closed_) return false;
    slot(tail_).emplace(std::move(item));
    ++tail_;
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  // Non-blocking push: false when full or closed.
  bool TryPush(T item) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_ || Size() >= capacity_) return false;
      slot(tail_).emplace(std::move(item));
      ++tail_;
    }
    not_empty_.notify_one();
    return true;
  }

  // Blocks until an item is available or the queue is closed and drained.
  // Returns false only on closed-and-drained — the consumer exit signal.
  bool Pop(T& out) {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [this] { return closed_ || Size() > 0; });
    if (Size() == 0) return false;
    std::optional<T>& item = slot(head_);
    out = std::move(*item);
    item.reset();
    ++head_;
    lock.unlock();
    not_full_.notify_one();
    return true;
  }

  // Non-blocking pop: false when currently empty (closed or not).
  bool TryPop(T& out) {
    std::unique_lock<std::mutex> lock(mu_);
    if (Size() == 0) return false;
    std::optional<T>& item = slot(head_);
    out = std::move(*item);
    item.reset();
    ++head_;
    lock.unlock();
    not_full_.notify_one();
    return true;
  }

  // Wakes every blocked producer and consumer.  Further pushes fail; pops
  // drain what remains and then report closed.
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  // Instantaneous depth (racy by nature; for gauges and backpressure
  // hints, not for control flow).
  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return Size();
  }

  size_t capacity() const { return capacity_; }

 private:
  // Monotonic cursors; the live window is [head_, tail_).
  size_t Size() const { return tail_ - head_; }

  std::optional<T>& slot(size_t i) { return slots_[i % capacity_]; }

  const size_t capacity_;
  std::vector<std::optional<T>> slots_;
  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  bool closed_ = false;
  // False-sharing constraint: head_ is advanced by consumers while tail_ is
  // advanced by producers; on separate cache lines a pop's invalidation
  // does not stall a concurrent push's line (and vice versa) even though
  // both sides hold mu_ — the *mutex* serializes, the padding keeps the
  // cursor lines from ping-ponging between the cores in between.
  alignas(kCacheLineSize) size_t head_ = 0;
  alignas(kCacheLineSize) size_t tail_ = 0;
};

}  // namespace svc::util

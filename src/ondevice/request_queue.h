// Bounded multi-producer blocking queue for the async serving pipeline.
//
// This is the admission stage of AsyncServer: producers enqueue requests
// (blocking `push` or non-blocking `try_push`) and idle workers pop them
// straight off the queue as micro-batches (`pop_run_until`). Capacity is a
// hard bound — when the queue is full, `push` blocks and `try_push` fails,
// which is how backpressure propagates from saturated workers all the way
// back to request producers.
//
// Implemented with a mutex + two condition variables over a fixed ring
// buffer; simple, fair enough, and clean under ThreadSanitizer (the CI tsan
// job runs the serving suites against it). The hot inference path never
// touches this queue — only the request hand-off does.
//
// close() semantics: after close(), pushes fail immediately, but pops keep
// draining whatever was already enqueued and only then return false. That
// lets AsyncServer's destructor finish every accepted request.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

#include "core/check.h"

namespace memcom {

template <typename T>
class RequestQueue {
 public:
  explicit RequestQueue(std::size_t capacity)
      : capacity_(capacity), ring_(capacity) {
    check(capacity > 0, "RequestQueue: capacity must be positive");
  }

  // Blocks while the queue is full. Returns false (item not enqueued) only
  // if the queue was closed.
  bool push(T item) {
    std::unique_lock<std::mutex> lock(mutex_);
    not_full_.wait(lock, [&] { return size_ < capacity_ || closed_; });
    if (closed_) {
      return false;
    }
    enqueue_locked(std::move(item));
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  // Non-blocking push: false when the queue is full (backpressure) or
  // closed. A full-queue rejection is counted in rejected().
  bool try_push(T item) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (closed_) {
        return false;
      }
      if (size_ == capacity_) {
        ++rejected_;
        return false;
      }
      enqueue_locked(std::move(item));
    }
    not_empty_.notify_one();
    return true;
  }

  // Blocks until an item is available. Returns false once the queue is
  // closed AND fully drained.
  bool pop(T& out) {
    std::unique_lock<std::mutex> lock(mutex_);
    not_empty_.wait(lock, [&] { return size_ > 0 || closed_; });
    if (size_ == 0) {
      return false;  // closed and drained
    }
    dequeue_locked(out);
    lock.unlock();
    not_full_.notify_one();
    return true;
  }

  // Like pop(), but gives up at `deadline`. Returns false on timeout or on
  // closed-and-drained; `timed_out` (optional) distinguishes the two.
  template <typename TimePoint>
  bool pop_wait_until(T& out, TimePoint deadline, bool* timed_out = nullptr) {
    std::unique_lock<std::mutex> lock(mutex_);
    const bool ready = not_empty_.wait_until(
        lock, deadline, [&] { return size_ > 0 || closed_; });
    if (timed_out != nullptr) {
      *timed_out = !ready;
    }
    if (size_ == 0) {
      return false;
    }
    dequeue_locked(out);
    lock.unlock();
    not_full_.notify_one();
    return true;
  }

  // Pops the FIFO run of items at the head that `same(first, item)` admits
  // (`first` is the run's head), at most `max` of them, appending each to
  // `out` and calling `on_pop(item)` on it while the queue lock is still
  // held: a side effect of popping happens in queue order even when several
  // consumers share the queue. Waits until `deadline` for a first item, or
  // until `wake()` holds (checked under the lock; see notify_consumers()); a
  // deadline in the past makes this a non-blocking probe. Returns how many
  // items were popped — 0 on timeout, on a wake with nothing queued, or
  // once closed and drained. Appends never allocate while `out` has
  // capacity for `max` more items.
  template <typename TimePoint, typename Same, typename OnPop, typename Wake>
  std::size_t pop_run_until(std::vector<T>& out, std::size_t max,
                            TimePoint deadline, Same same, OnPop on_pop,
                            Wake wake) {
    std::unique_lock<std::mutex> lock(mutex_);
    not_empty_.wait_until(lock, deadline,
                          [&] { return size_ > 0 || closed_ || wake(); });
    const std::size_t first = out.size();
    while (size_ > 0 && out.size() - first < max &&
           (out.size() == first || same(out[first], ring_[head_]))) {
      out.push_back(std::move(ring_[head_]));
      head_ = (head_ + 1) % capacity_;
      --size_;
      on_pop(out.back());
    }
    const std::size_t popped = out.size() - first;
    lock.unlock();
    if (popped == 1) {
      not_full_.notify_one();
    } else if (popped > 1) {
      not_full_.notify_all();
    }
    return popped;
  }

  // Wakes a consumer blocked in pop_run_until to re-check its `wake`
  // predicate. Call it after making the predicate true: taking the lock
  // first means a consumer that checked the predicate before the change is
  // already waiting, so the notify cannot fall between its check and its
  // wait.
  void notify_consumers() {
    { std::lock_guard<std::mutex> lock(mutex_); }
    not_empty_.notify_one();
  }

  void close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
  }

  std::size_t capacity() const { return capacity_; }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return size_;
  }

  // Deepest occupancy ever observed; never exceeds capacity() because the
  // ring is the storage — there is nowhere for an excess item to live.
  std::size_t high_water() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return high_water_;
  }

  std::uint64_t total_pushed() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return total_pushed_;
  }

  // try_push calls that failed because the queue was at capacity.
  std::uint64_t rejected() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return rejected_;
  }

 private:
  void enqueue_locked(T item) {
    ring_[tail_] = std::move(item);
    tail_ = (tail_ + 1) % capacity_;
    ++size_;
    ++total_pushed_;
    if (size_ > high_water_) {
      high_water_ = size_;
    }
  }

  void dequeue_locked(T& out) {
    out = std::move(ring_[head_]);
    head_ = (head_ + 1) % capacity_;
    --size_;
  }

  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::vector<T> ring_;
  std::size_t head_ = 0;
  std::size_t tail_ = 0;
  std::size_t size_ = 0;
  std::size_t high_water_ = 0;
  std::uint64_t total_pushed_ = 0;
  std::uint64_t rejected_ = 0;
  bool closed_ = false;
};

}  // namespace memcom

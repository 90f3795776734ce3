// Bounded thread-safe MPMC queue. This is the only cross-thread hand-off
// primitive in jamm (DESIGN.md §8): real-transport components are
// single-threaded state machines that exchange messages through it.
// Locking is plain mutex + condition_variable with RAII guards (CP.20);
// no lock-free code (CP.100).
#pragma once

#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>

#include "common/clock.hpp"

namespace jamm {

template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity = 1024) : capacity_(capacity) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Blocks while full. Returns false if the queue was closed.
  bool Push(T item) {
    std::unique_lock lock(mu_);
    not_full_.wait(lock, [&] { return closed_ || items_.size() < capacity_; });
    if (closed_) return false;
    items_.push_back(std::move(item));
    not_empty_.notify_one();
    return true;
  }

  /// Non-blocking push. Returns false if full or closed.
  bool TryPush(T item) {
    std::lock_guard lock(mu_);
    if (closed_ || items_.size() >= capacity_) return false;
    items_.push_back(std::move(item));
    not_empty_.notify_one();
    return true;
  }

  /// Blocks while empty. Empty optional means closed-and-drained.
  std::optional<T> Pop() {
    std::unique_lock lock(mu_);
    not_empty_.wait(lock, [&] { return closed_ || !items_.empty(); });
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    not_full_.notify_one();
    return item;
  }

  /// Non-blocking pop.
  std::optional<T> TryPop() {
    std::lock_guard lock(mu_);
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    not_full_.notify_one();
    return item;
  }

  /// Pop with a deadline; empty optional on timeout or closed-and-drained.
  /// A zero timeout is a poll (TryPop): wait_for with a zero duration
  /// still enters the futex and sleeps out the thread's timer slack, tens
  /// of µs per empty call. A negative timeout blocks like Pop().
  std::optional<T> PopFor(Duration timeout_us) {
    if (timeout_us == 0) return TryPop();
    if (timeout_us < 0) return Pop();
    std::unique_lock lock(mu_);
    not_empty_.wait_for(lock, std::chrono::microseconds(timeout_us),
                        [&] { return closed_ || !items_.empty(); });
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    not_full_.notify_one();
    return item;
  }

  /// After Close, pushes fail; pops drain remaining items then return empty.
  void Close() {
    std::lock_guard lock(mu_);
    closed_ = true;
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  bool closed() const {
    std::lock_guard lock(mu_);
    return closed_;
  }

  std::size_t size() const {
    std::lock_guard lock(mu_);
    return items_.size();
  }

  std::size_t capacity() const { return capacity_; }

 private:
  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace jamm

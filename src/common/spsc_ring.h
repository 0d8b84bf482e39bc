#ifndef STREAMLINE_COMMON_SPSC_RING_H_
#define STREAMLINE_COMMON_SPSC_RING_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <memory>
#include <optional>
#include <thread>
#include <utility>

#include "common/mutex.h"

namespace streamline {

/// Cache-line size used for padding hot atomics. 64 bytes covers x86 and
/// most ARM cores; over-aligning on exotic hardware only wastes bytes.
inline constexpr size_t kCacheLineSize = 64;

/// Bounded lock-free single-producer/single-consumer ring buffer -- the
/// engine's per-edge data-plane channel. One thread may call the producer
/// side (TryPush), one thread the consumer side (TryPop); head and tail
/// live on separate cache lines and each side keeps a cached copy of the
/// other's index, so the steady-state fast path touches no shared cache
/// line beyond the slot itself (acquire/release ordering only, no RMW).
///
/// Capacity is rounded up to a power of two. Elements must be
/// default-constructible and move-assignable.
template <typename T>
class SpscRing {
 public:
  explicit SpscRing(size_t capacity)
      : capacity_(RoundUpPow2(capacity < 1 ? 1 : capacity)),
        mask_(capacity_ - 1),
        slots_(new T[capacity_]) {}

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  /// Producer side. Returns false when the ring is full.
  bool TryPush(T&& item) {
    const uint64_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - cached_head_ >= capacity_) {
      cached_head_ = head_.load(std::memory_order_acquire);
      if (tail - cached_head_ >= capacity_) return false;
    }
    slots_[tail & mask_] = std::move(item);
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side. Returns false when the ring is empty.
  bool TryPop(T* out) {
    const uint64_t head = head_.load(std::memory_order_relaxed);
    if (head == cached_tail_) {
      cached_tail_ = tail_.load(std::memory_order_acquire);
      if (head == cached_tail_) return false;
    }
    *out = std::move(slots_[head & mask_]);
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Producer-side full check (exact for the producer, approximate
  /// elsewhere).
  bool Full() const {
    return tail_.load(std::memory_order_acquire) -
               head_.load(std::memory_order_acquire) >=
           capacity_;
  }

  /// Consumer-side empty check (exact for the consumer, approximate
  /// elsewhere).
  bool Empty() const {
    return head_.load(std::memory_order_acquire) ==
           tail_.load(std::memory_order_acquire);
  }

  /// Approximate element count (exact only from a quiescent state).
  size_t size() const {
    const uint64_t tail = tail_.load(std::memory_order_acquire);
    const uint64_t head = head_.load(std::memory_order_acquire);
    return static_cast<size_t>(tail - head);
  }

  size_t capacity() const { return capacity_; }

 private:
  static size_t RoundUpPow2(size_t v) {
    size_t p = 1;
    while (p < v) p <<= 1;
    return p;
  }

  const size_t capacity_;
  const size_t mask_;
  std::unique_ptr<T[]> slots_;

  // Consumer-owned line: read index plus a cached copy of the producer's
  // tail (refreshed only when the ring looks empty).
  alignas(kCacheLineSize) std::atomic<uint64_t> head_{0};
  uint64_t cached_tail_ = 0;

  // Producer-owned line, symmetric.
  alignas(kCacheLineSize) std::atomic<uint64_t> tail_{0};
  uint64_t cached_head_ = 0;

  // Keep the producer line from sharing its cache line with whatever is
  // allocated after this object.
  char pad_[kCacheLineSize - sizeof(std::atomic<uint64_t>) - sizeof(uint64_t)];
};

/// Readiness signal a channel fires after every successful push (and on
/// close), and -- once armed, see SpscChannel::ArmProducerWake -- after a
/// pop frees a slot for a parked producer. Two implementations exist:
/// Doorbell wakes a dedicated consumer thread parked on a condvar
/// (thread-per-task mode), and the executor's task notifier marks a task
/// runnable on the work-stealing pool (scheduler mode). Wake() must be
/// cheap, non-blocking, and safe from any thread.
class Waker {
 public:
  virtual ~Waker() = default;
  virtual void Wake() = 0;
};

/// Wakeup channel for a consumer that multiplexes several SPSC rings: the
/// consumer parks here when every ring is empty, producers ring it after a
/// push. The fast path for a producer is a single relaxed-ish atomic load
/// (`parked` is almost always false); the mutex is touched only around
/// actual parking.
///
/// Park uses a short timed wait as a backstop so a theoretically lost
/// wakeup (the flag check racing with a push on another core) costs at
/// most one timeout period instead of a hang.
class Doorbell : public Waker {
 public:
  void Wake() override { Ring(); }

  /// Producer side: wake the consumer if it is (or is about to be) parked.
  void Ring() {
    if (parked_.load(std::memory_order_seq_cst)) {
      // Empty critical section: serializes with the consumer between its
      // predicate check and its wait, so the notify cannot fall in between.
      { MutexLock lock(&mu_); }
      cv_.NotifyOne();
    }
  }

  /// Consumer side: block until `ready()` (re-evaluated on every wakeup).
  /// `ready` must be safe to call from the consumer thread only.
  template <typename Pred>
  void Park(Pred ready) {
    MutexLock lock(&mu_);
    parked_.store(true, std::memory_order_seq_cst);
    while (!ready()) {
      cv_.WaitFor(&mu_, std::chrono::milliseconds(1));
    }
    parked_.store(false, std::memory_order_seq_cst);
  }

 private:
  // mu_ only orders the park/ring handshake; the state itself (parked_) is
  // an atomic, so nothing is GUARDED_BY it.
  Mutex mu_;
  CondVar cv_;
  std::atomic<bool> parked_{false};
};

/// Blocking single-producer/single-consumer channel: an SpscRing plus the
/// engine's channel protocol -- backpressure (Push blocks when the ring is
/// full, after a short spin; a producer that must not block arms a
/// one-shot wakeup instead, see ArmProducerWake), close-and-drain
/// semantics matching BoundedQueue (after Close, Push is rejected and Pop
/// drains the remaining elements before reporting end-of-channel), and an
/// optional shared Doorbell so one consumer can park across many channels.
template <typename T>
class SpscChannel {
 public:
  /// `doorbell` (optional, not owned) is rung after every successful push;
  /// a consumer multiplexing several channels parks on it. It also becomes
  /// the initial waker; see set_waker.
  explicit SpscChannel(size_t capacity, Doorbell* doorbell = nullptr)
      : ring_(capacity), doorbell_(doorbell), waker_(doorbell) {}

  SpscChannel(const SpscChannel&) = delete;
  SpscChannel& operator=(const SpscChannel&) = delete;

  /// Producer: blocks until there is room (backpressure) or the channel is
  /// closed. Returns false when the element was rejected because of close.
  bool Push(T item) {
    for (int spin = 0; spin < kPushSpinBudget; ++spin) {
      if (closed_.load(std::memory_order_acquire)) return false;
      if (ring_.TryPush(std::move(item))) {
        if (waker_ != nullptr) waker_->Wake();
        return true;
      }
      std::this_thread::yield();
    }
    for (;;) {
      if (closed_.load(std::memory_order_acquire)) return false;
      if (ring_.TryPush(std::move(item))) {
        if (waker_ != nullptr) waker_->Wake();
        return true;
      }
      WaitNotFull();
    }
  }

  /// Producer: non-blocking push; false when full or closed.
  bool TryPush(T&& item) {
    if (closed_.load(std::memory_order_acquire)) return false;
    if (!ring_.TryPush(std::move(item))) return false;
    if (waker_ != nullptr) waker_->Wake();
    return true;
  }

  /// Consumer: non-blocking pop; false when currently empty (not
  /// necessarily closed). Wakes a producer blocked on backpressure, or
  /// parked on it (ArmProducerWake).
  bool TryPop(T* out) {
    if (!ring_.TryPop(out)) return false;
    // Pairs with the fence in ArmProducerWake: either this load sees the
    // armed waker, or the producer's retry sees the slot just freed.
    std::atomic_thread_fence(std::memory_order_seq_cst);
    WakeParkedProducer();
    NotifyNotFull();
    return true;
  }

  /// Producer (scheduler mode): parks until the next pop or close. After
  /// this call the next TryPop or Close calls `waker->Wake()` exactly
  /// once. The producer must retry its push after arming: a slot freed
  /// before the arm fired no wakeup, and the fence makes the retry see it.
  void ArmProducerWake(Waker* waker) {
    producer_waker_.store(waker, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
  }

  /// Consumer: blocks until an element is available or the channel is
  /// closed and drained. Returns nullopt only at end-of-channel.
  std::optional<T> Pop() {
    T item;
    for (int spin = 0;; ++spin) {
      if (TryPop(&item)) return item;
      if (closed_.load(std::memory_order_acquire)) {
        // Closed: one more pop attempt covers an element pushed between
        // the failed TryPop and the close check.
        if (TryPop(&item)) return item;
        return std::nullopt;
      }
      if (spin < kPushSpinBudget) {
        std::this_thread::yield();
      } else if (doorbell_ != nullptr) {
        doorbell_->Park([&] {
          return !ring_.Empty() || closed_.load(std::memory_order_acquire);
        });
      } else {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    }
  }

  /// Marks the channel closed: the producer is rejected, the consumer
  /// drains whatever is buffered and then sees end-of-channel. Callable
  /// from any thread.
  void Close() {
    closed_.store(true, std::memory_order_release);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    {
      MutexLock lock(&mu_);
    }
    not_full_.NotifyAll();
    WakeParkedProducer();
    if (waker_ != nullptr) waker_->Wake();
  }

  bool closed() const { return closed_.load(std::memory_order_acquire); }

  /// Approximate; see SpscRing::size.
  size_t size() const { return ring_.size(); }
  size_t capacity() const { return ring_.capacity(); }
  bool Empty() const { return ring_.Empty(); }

  Doorbell* doorbell() const { return doorbell_; }

  /// Replaces the push/close readiness signal (by default the doorbell
  /// passed at construction). The scheduler wires a task notifier here so
  /// a push marks the consuming task runnable instead of waking a parked
  /// thread. Must be called before the producer starts pushing; the
  /// blocking Pop's park still uses the doorbell, so consumers either
  /// block on the doorbell or get scheduled via the waker, never both.
  void set_waker(Waker* waker) { waker_ = waker; }

  /// Producer-side timed wait for space (1 ms backstop, returns early when
  /// the consumer pops or the channel closes). Public so a scheduler-mode
  /// producer can interleave waiting with running other ready tasks
  /// instead of blocking inside Push.
  void WaitNotFull() {
    MutexLock lock(&mu_);
    producer_waiting_.store(true, std::memory_order_seq_cst);
    if (!closed_.load(std::memory_order_acquire) && ring_.Full()) {
      // Timed backstop: a pop racing with the waiting-flag handshake can
      // at worst delay us one period, never strand us.
      not_full_.WaitFor(&mu_, std::chrono::milliseconds(1));
    }
    producer_waiting_.store(false, std::memory_order_seq_cst);
  }

 private:
  // Spins before parking. Deliberately small: on a loaded host the other
  // side of the channel needs the core more than we need the spin.
  static constexpr int kPushSpinBudget = 64;

  void WakeParkedProducer() {
    if (producer_waker_.load(std::memory_order_relaxed) == nullptr) return;
    Waker* waker = producer_waker_.exchange(nullptr, std::memory_order_acq_rel);
    if (waker != nullptr) waker->Wake();
  }

  void NotifyNotFull() {
    if (producer_waiting_.load(std::memory_order_seq_cst)) {
      { MutexLock lock(&mu_); }
      not_full_.NotifyOne();
    }
  }

  SpscRing<T> ring_;
  Doorbell* doorbell_;
  Waker* waker_;
  std::atomic<bool> closed_{false};

  // Slow path only: producer backpressure parking. Like Doorbell, mu_ just
  // orders the handshake around atomics; no fields are GUARDED_BY it.
  Mutex mu_;
  CondVar not_full_;
  std::atomic<bool> producer_waiting_{false};
  // Scheduler-mode backpressure: the parked producer's waker, fired once
  // by the next pop or close (see ArmProducerWake).
  std::atomic<Waker*> producer_waker_{nullptr};
};

}  // namespace streamline

#endif  // STREAMLINE_COMMON_SPSC_RING_H_

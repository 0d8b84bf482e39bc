#include "common/spsc_ring.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.h"

namespace streamline {
namespace {

TEST(SpscRingTest, PushPopFifo) {
  SpscRing<int> ring(4);
  int out = 0;
  EXPECT_TRUE(ring.TryPush(1));
  EXPECT_TRUE(ring.TryPush(2));
  EXPECT_TRUE(ring.TryPop(&out));
  EXPECT_EQ(out, 1);
  EXPECT_TRUE(ring.TryPop(&out));
  EXPECT_EQ(out, 2);
  EXPECT_FALSE(ring.TryPop(&out));
}

TEST(SpscRingTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(SpscRing<int>(1).capacity(), 1u);
  EXPECT_EQ(SpscRing<int>(3).capacity(), 4u);
  EXPECT_EQ(SpscRing<int>(4).capacity(), 4u);
  EXPECT_EQ(SpscRing<int>(1000).capacity(), 1024u);
  EXPECT_EQ(SpscRing<int>(0).capacity(), 1u);
}

TEST(SpscRingTest, PushFailsWhenFull) {
  SpscRing<int> ring(2);
  EXPECT_TRUE(ring.TryPush(1));
  EXPECT_TRUE(ring.TryPush(2));
  EXPECT_FALSE(ring.TryPush(3));
  EXPECT_TRUE(ring.Full());
  int out = 0;
  EXPECT_TRUE(ring.TryPop(&out));
  EXPECT_TRUE(ring.TryPush(3));  // slot freed
}

TEST(SpscRingTest, FailedPushDoesNotConsumeTheItem) {
  SpscRing<std::unique_ptr<int>> ring(1);
  EXPECT_TRUE(ring.TryPush(std::make_unique<int>(1)));
  auto item = std::make_unique<int>(2);
  EXPECT_FALSE(ring.TryPush(std::move(item)));
  // A rejected push must leave the item intact for a retry.
  ASSERT_NE(item, nullptr);
  EXPECT_EQ(*item, 2);
}

TEST(SpscRingTest, WrapsAroundManyTimes) {
  SpscRing<uint64_t> ring(8);
  uint64_t out = 0;
  for (uint64_t i = 0; i < 1000; ++i) {
    ASSERT_TRUE(ring.TryPush(uint64_t{i}));
    ASSERT_TRUE(ring.TryPop(&out));
    ASSERT_EQ(out, i);
  }
  EXPECT_TRUE(ring.Empty());
}

TEST(SpscRingTest, MoveOnlyElements) {
  SpscRing<std::unique_ptr<std::string>> ring(4);
  EXPECT_TRUE(ring.TryPush(std::make_unique<std::string>("a")));
  EXPECT_TRUE(ring.TryPush(std::make_unique<std::string>("b")));
  std::unique_ptr<std::string> out;
  EXPECT_TRUE(ring.TryPop(&out));
  EXPECT_EQ(*out, "a");
  EXPECT_TRUE(ring.TryPop(&out));
  EXPECT_EQ(*out, "b");
}

TEST(SpscRingTest, SizeTracksOccupancy) {
  SpscRing<int> ring(8);
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_TRUE(ring.Empty());
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(ring.TryPush(int{i}));
  EXPECT_EQ(ring.size(), 5u);
  int out = 0;
  ring.TryPop(&out);
  EXPECT_EQ(ring.size(), 4u);
}

// Two-thread stress: every element arrives exactly once, in order. This is
// the test the thread-sanitizer CI job leans on.
TEST(SpscRingTest, ThreadedFifoStress) {
  constexpr uint64_t kItems = 200'000;
  SpscRing<uint64_t> ring(64);
  std::thread producer([&] {
    for (uint64_t i = 0; i < kItems; ++i) {
      while (!ring.TryPush(uint64_t{i})) std::this_thread::yield();
    }
  });
  uint64_t expected = 0;
  uint64_t item = 0;
  while (expected < kItems) {
    if (ring.TryPop(&item)) {
      ASSERT_EQ(item, expected);
      ++expected;
    } else {
      std::this_thread::yield();
    }
  }
  producer.join();
  EXPECT_TRUE(ring.Empty());
}

// --- SpscChannel: the channel protocol over the ring ----------------------

// Counts wakes as permits; Acquire sleeps until one is available, so a
// wake that lands before the sleeper gets there is never lost.
class SemaphoreWaker : public Waker {
 public:
  void Wake() override {
    {
      MutexLock lock(&mu_);
      ++permits_;
    }
    cv_.NotifyOne();
  }
  void Acquire() {
    MutexLock lock(&mu_);
    while (permits_ == 0) cv_.Wait(&mu_);
    --permits_;
  }

 private:
  Mutex mu_;
  CondVar cv_;
  int permits_ STREAMLINE_GUARDED_BY(mu_) = 0;
};

TEST(SpscChannelTest, PushPopFifo) {
  SpscChannel<int> ch(4);
  EXPECT_TRUE(ch.TryPush(1));
  EXPECT_TRUE(ch.TryPush(2));
  int v = 0;
  ASSERT_TRUE(ch.TryPop(&v));
  EXPECT_EQ(v, 1);
  ASSERT_TRUE(ch.TryPop(&v));
  EXPECT_EQ(v, 2);
  EXPECT_FALSE(ch.TryPop(&v));
}

TEST(SpscChannelTest, CloseDrainsThenEnds) {
  SpscChannel<int> ch(4);
  ASSERT_TRUE(ch.TryPush(1));
  ASSERT_TRUE(ch.TryPush(2));
  ch.Close();
  EXPECT_FALSE(ch.TryPush(3));  // rejected after close
  int v = 0;
  ASSERT_TRUE(ch.TryPop(&v));
  EXPECT_EQ(v, 1);
  ASSERT_TRUE(ch.TryPop(&v));
  EXPECT_EQ(v, 2);
  EXPECT_FALSE(ch.TryPop(&v));  // drained -> end of channel
  EXPECT_TRUE(ch.closed());
}

// Backpressure: a producer that must not block arms a one-shot wakeup;
// the next pop (or close) fires it exactly once.
class CountingWaker : public Waker {
 public:
  void Wake() override { wakes.fetch_add(1); }
  std::atomic<int> wakes{0};
};

TEST(SpscChannelTest, ArmedProducerWokenOnceByPop) {
  SpscChannel<int> ch(2);
  ASSERT_TRUE(ch.TryPush(1));
  ASSERT_TRUE(ch.TryPush(2));
  ASSERT_FALSE(ch.TryPush(3));
  CountingWaker producer;
  ch.ArmProducerWake(&producer);
  EXPECT_EQ(producer.wakes.load(), 0);
  int v = 0;
  ASSERT_TRUE(ch.TryPop(&v));
  EXPECT_EQ(producer.wakes.load(), 1);
  ASSERT_TRUE(ch.TryPop(&v));
  EXPECT_FALSE(ch.TryPop(&v));
  ch.Close();
  EXPECT_EQ(producer.wakes.load(), 1);  // one-shot: disarmed by the wake
}

TEST(SpscChannelTest, ArmedProducerWokenOnceByClose) {
  SpscChannel<int> ch(1);
  ASSERT_TRUE(ch.TryPush(1));
  CountingWaker producer;
  ch.ArmProducerWake(&producer);
  ch.Close();
  EXPECT_EQ(producer.wakes.load(), 1);
  EXPECT_FALSE(ch.TryPush(2));  // rejected: the woken producer drops it
  int v = 0;
  ASSERT_TRUE(ch.TryPop(&v));  // draining after close fires nothing more
  EXPECT_EQ(producer.wakes.load(), 1);
}

// The arm/retry handshake under contention: a producer that arms, retries
// once and otherwise sleeps until woken never misses a slot (a lost wakeup
// leaves it asleep for good).
TEST(SpscChannelTest, ParkUntilPopNeverLosesAWakeup) {
  constexpr int kItems = 200'000;
  SpscChannel<int> ch(2);
  SemaphoreWaker waker;
  std::thread producer([&] {
    for (int i = 0; i < kItems; ++i) {
      int item = i;
      while (!ch.TryPush(std::move(item))) {
        ch.ArmProducerWake(&waker);
        if (ch.TryPush(std::move(item))) break;
        waker.Acquire();  // a lost wakeup hangs here
      }
    }
    ch.Close();
  });
  int expected = 0;
  int v = 0;
  while (true) {
    if (ch.TryPop(&v)) {
      ASSERT_EQ(v, expected);
      ++expected;
    } else if (ch.closed()) {
      if (!ch.TryPop(&v)) break;
      ASSERT_EQ(v, expected);
      ++expected;
    }
  }
  producer.join();
  EXPECT_EQ(expected, kItems);
}

TEST(SpscChannelTest, ThreadedTransferDeliversEverythingOnce) {
  constexpr int kItems = 100'000;
  SpscChannel<int> ch(32);
  std::thread producer([&] {
    for (int i = 0; i < kItems; ++i) {
      int item = i;
      while (!ch.TryPush(std::move(item))) std::this_thread::yield();
    }
    ch.Close();
  });
  int expected = 0;
  int v = 0;
  for (;;) {
    if (ch.TryPop(&v)) {
      ASSERT_EQ(v, expected);
      ++expected;
    } else if (ch.closed()) {
      // Closed: one more pop covers an element pushed between the failed
      // pop and the close check.
      if (!ch.TryPop(&v)) break;
      ASSERT_EQ(v, expected);
      ++expected;
    } else {
      std::this_thread::yield();
    }
  }
  producer.join();
  EXPECT_EQ(expected, kItems);
}

// One consumer multiplexing several producer channels through a shared
// waker -- the executor's input topology.
TEST(SpscChannelTest, MultiplexedChannelsOneConsumer) {
  constexpr int kProducers = 4;
  constexpr int kItemsEach = 20'000;
  SemaphoreWaker consumer;
  std::vector<std::unique_ptr<SpscChannel<int>>> channels;
  for (int p = 0; p < kProducers; ++p) {
    channels.push_back(std::make_unique<SpscChannel<int>>(16));
    channels.back()->set_waker(&consumer);
  }
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kItemsEach; ++i) {
        int item = p;
        while (!channels[p]->TryPush(std::move(item))) {
          std::this_thread::yield();
        }
      }
      channels[p]->Close();
    });
  }
  std::vector<int> counts(kProducers, 0);
  int open = kProducers;
  std::vector<bool> live(kProducers, true);
  while (open > 0) {
    bool progress = false;
    for (int p = 0; p < kProducers; ++p) {
      if (!live[p]) continue;
      int v = 0;
      if (channels[p]->TryPop(&v)) {
        ASSERT_EQ(v, p);
        ++counts[p];
        progress = true;
      } else if (channels[p]->closed() && channels[p]->Empty()) {
        int drain = 0;
        while (channels[p]->TryPop(&drain)) ++counts[p];
        live[p] = false;
        --open;
        progress = true;
      }
    }
    // Every push and close wakes the consumer, so sleeping until the next
    // wake after an empty sweep never strands an element.
    if (!progress) consumer.Acquire();
  }
  for (std::thread& t : producers) t.join();
  for (int p = 0; p < kProducers; ++p) EXPECT_EQ(counts[p], kItemsEach);
}

}  // namespace
}  // namespace streamline

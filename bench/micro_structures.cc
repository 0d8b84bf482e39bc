// Micro-benchmarks (google-benchmark) of the core data structures the
// experiment binaries rely on: slice stores, window functions, value
// hashing, serde, and the bounded channel. Useful for spotting regressions
// below the experiment level.

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <thread>

#include <unordered_map>

#include "agg/slice_store.h"
#include "common/flat_hash_map.h"
#include "common/random.h"
#include "common/serde.h"
#include "common/spsc_ring.h"
#include "dataflow/operator.h"
#include "dataflow/operators.h"
#include "window/aggregate_fn.h"
#include "window/window_fn.h"

// Global allocation counter (see BM_RecordLifecycleAllocations): counts
// every operator new so a benchmark can prove a code path is
// allocation-free.
namespace {
std::atomic<uint64_t> g_allocs{0};
}  // namespace

void* operator new(size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }

namespace streamline {
namespace {

void BM_FlatFatAppendEvict(benchmark::State& state) {
  const auto window = static_cast<size_t>(state.range(0));
  FlatFatStore<SumAgg<double>> store;
  size_t appended = 0;
  for (auto _ : state) {
    store.Append(static_cast<Timestamp>(appended), 1.0);
    ++appended;
    if (appended > window) store.EvictBefore(appended - window);
  }
  state.SetItemsProcessed(static_cast<int64_t>(appended));
}
BENCHMARK(BM_FlatFatAppendEvict)->Arg(64)->Arg(1024)->Arg(16384);

void BM_FlatFatRangeQuery(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  FlatFatStore<MaxAgg<double>> store;
  Rng rng(1);
  for (size_t i = 0; i < n; ++i) {
    store.Append(static_cast<Timestamp>(i), rng.NextDouble());
  }
  size_t i = 0;
  for (auto _ : state) {
    const size_t a = i % (n / 2);
    benchmark::DoNotOptimize(store.RangeCombine(a, a + n / 2));
    ++i;
  }
  state.SetItemsProcessed(static_cast<int64_t>(i));
}
BENCHMARK(BM_FlatFatRangeQuery)->Arg(1024)->Arg(65536);

void BM_LinearStoreRangeQuery(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  LinearStore<MaxAgg<double>> store;
  Rng rng(1);
  for (size_t i = 0; i < n; ++i) {
    store.Append(static_cast<Timestamp>(i), rng.NextDouble());
  }
  size_t i = 0;
  for (auto _ : state) {
    const size_t a = i % (n / 2);
    benchmark::DoNotOptimize(store.RangeCombine(a, a + n / 2));
    ++i;
  }
  state.SetItemsProcessed(static_cast<int64_t>(i));
}
BENCHMARK(BM_LinearStoreRangeQuery)->Arg(1024)->Arg(65536);

void BM_PrefixStoreRangeQuery(benchmark::State& state) {
  PrefixStore<SumAgg<double>> store;
  for (size_t i = 0; i < 65536; ++i) {
    store.Append(static_cast<Timestamp>(i), 1.0);
  }
  size_t i = 0;
  for (auto _ : state) {
    const size_t a = i % 32768;
    benchmark::DoNotOptimize(store.RangeCombine(a, a + 32768));
    ++i;
  }
  state.SetItemsProcessed(static_cast<int64_t>(i));
}
BENCHMARK(BM_PrefixStoreRangeQuery);

void BM_SlidingWindowFnOnElement(benchmark::State& state) {
  SlidingWindowFn fn(60'000, 1'000);
  WindowEvents events;
  Timestamp t = 0;
  for (auto _ : state) {
    events.clear();
    fn.OnElement(t++, Value(), &events);
    benchmark::DoNotOptimize(events.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(t));
}
BENCHMARK(BM_SlidingWindowFnOnElement);

void BM_ValueHash(benchmark::State& state) {
  const Value values[] = {Value(int64_t{123456}), Value(3.14159),
                          Value("campaign-4711")};
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(values[i % 3].Hash());
    ++i;
  }
  state.SetItemsProcessed(static_cast<int64_t>(i));
}
BENCHMARK(BM_ValueHash);

void BM_RecordSerde(benchmark::State& state) {
  const Record r = MakeRecord(42, Value(int64_t{7}), Value("user-123"),
                              Value(1.5), Value(true));
  size_t n = 0;
  for (auto _ : state) {
    BinaryWriter w;
    w.WriteRecord(r);
    BinaryReader reader(w.buffer());
    auto got = reader.ReadRecord();
    benchmark::DoNotOptimize(got.ok());
    ++n;
  }
  state.SetItemsProcessed(static_cast<int64_t>(n));
}
BENCHMARK(BM_RecordSerde);

// Single-thread ping-pong on the lock-free ring: the floor for one
// push+pop pair with no contention.
void BM_SpscRingPingPong(benchmark::State& state) {
  SpscRing<int> ring(1024);
  int out = 0;
  size_t n = 0;
  for (auto _ : state) {
    ring.TryPush(int{1});
    ring.TryPop(&out);
    benchmark::DoNotOptimize(out);
    ++n;
  }
  state.SetItemsProcessed(static_cast<int64_t>(n));
}
BENCHMARK(BM_SpscRingPingPong);

// Cross-thread throughput of the lock-free SPSC channel: the timed loop
// pushes against a live consumer thread, so items/sec reflects the full
// producer-side handoff cost (synchronization + backpressure).
void BM_SpscChannelThroughput(benchmark::State& state) {
  SpscChannel<int> ch(1024);
  std::atomic<uint64_t> consumed{0};
  std::thread consumer([&] {
    int v = 0;
    for (;;) {
      if (ch.TryPop(&v)) {
        consumed.fetch_add(1, std::memory_order_relaxed);
      } else if (ch.closed()) {
        // One more pop covers an item pushed just before the close.
        if (!ch.TryPop(&v)) break;
        consumed.fetch_add(1, std::memory_order_relaxed);
      } else {
        std::this_thread::yield();
      }
    }
  });
  size_t n = 0;
  for (auto _ : state) {
    // A full ring is backpressure: yield to the consumer and retry.
    while (!ch.TryPush(1)) std::this_thread::yield();
    ++n;
  }
  ch.Close();
  consumer.join();
  state.SetItemsProcessed(static_cast<int64_t>(n));
}
BENCHMARK(BM_SpscChannelThroughput)->UseRealTime();

// The data plane's per-record claim: moving a small record through an
// output buffer, an SPSC ring and back through batch recycling touches the
// allocator zero times in steady state. The bench fails loudly (via the
// reported counter staying nonzero) if an allocation sneaks back in.
void BM_RecordLifecycleAllocations(benchmark::State& state) {
  constexpr size_t kBatch = 256;
  SpscRing<std::vector<Record>> ring(8);
  SpscRing<std::vector<Record>> recycle(8);
  std::vector<Record> buffer;
  buffer.reserve(kBatch);
  // Warm the recycle loop with one round-tripped buffer.
  uint64_t allocs_after_warmup = 0;
  size_t records = 0;
  uint64_t iter = 0;
  for (auto _ : state) {
    if (iter == 1) allocs_after_warmup = g_allocs.load();
    // Producer: fill a batch of 2-field records (inline storage only).
    for (size_t i = 0; i < kBatch; ++i) {
      buffer.push_back(MakeRecord(static_cast<Timestamp>(i),
                                  Value(static_cast<int64_t>(i)),
                                  Value(0.5 * static_cast<double>(i))));
    }
    records += kBatch;
    ring.TryPush(std::move(buffer));
    // Acquire the next buffer from the recycle ring (allocates only on the
    // very first iteration).
    buffer = std::vector<Record>();
    if (!recycle.TryPop(&buffer)) buffer.reserve(kBatch);
    // Consumer: drain the batch, recycle the vector.
    std::vector<Record> batch;
    ring.TryPop(&batch);
    for (Record& r : batch) benchmark::DoNotOptimize(r.timestamp);
    batch.clear();
    recycle.TryPush(std::move(batch));
    ++iter;
  }
  const uint64_t steady_allocs =
      iter > 1 ? g_allocs.load() - allocs_after_warmup : 0;
  state.SetItemsProcessed(static_cast<int64_t>(records));
  state.counters["allocs_per_record_steady"] =
      records > 0 ? static_cast<double>(steady_allocs) /
                        static_cast<double>(records)
                  : 0.0;
}
BENCHMARK(BM_RecordLifecycleAllocations);

// ---------------------------------------------------------------------------
// Keyed-state backend: FlatHashMap (pre-hashed, open addressing) vs.
// std::unordered_map<Value, V> (the engine's previous backend). Key mixes
// mirror the shuffle: uniform int64 keys for hit/miss, Zipf keys for the
// skewed ad-CTR shape, and a churn loop for join-style insert/erase.

std::vector<Value> UniformKeys(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Value> keys;
  keys.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    keys.push_back(Value(static_cast<int64_t>(rng.NextU64() >> 1)));
  }
  return keys;
}

void BM_FlatMapLookupHit(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  const auto keys = UniformKeys(n, 7);
  FlatHashMap<Value, int64_t> m;
  std::vector<uint64_t> hashes;
  hashes.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const uint64_t h = KeyHashOf(keys[i]);
    hashes.push_back(h);
    m.TryEmplace(h, keys[i], static_cast<int64_t>(i));
  }
  size_t i = 0;
  for (auto _ : state) {
    const size_t k = i % n;
    benchmark::DoNotOptimize(m.Find(hashes[k], keys[k]));
    ++i;
  }
  state.SetItemsProcessed(static_cast<int64_t>(i));
}
BENCHMARK(BM_FlatMapLookupHit)->Arg(1024)->Arg(100000);

void BM_UnorderedMapLookupHit(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  const auto keys = UniformKeys(n, 7);
  std::unordered_map<Value, int64_t> m;
  for (size_t i = 0; i < n; ++i) m.emplace(keys[i], static_cast<int64_t>(i));
  size_t i = 0;
  for (auto _ : state) {
    const size_t k = i % n;
    benchmark::DoNotOptimize(m.find(keys[k]));
    ++i;
  }
  state.SetItemsProcessed(static_cast<int64_t>(i));
}
BENCHMARK(BM_UnorderedMapLookupHit)->Arg(1024)->Arg(100000);

void BM_FlatMapLookupMiss(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  const auto keys = UniformKeys(n, 7);
  const auto probes = UniformKeys(n, 8);  // disjoint with high probability
  FlatHashMap<Value, int64_t> m;
  for (size_t i = 0; i < n; ++i) {
    m.TryEmplace(KeyHashOf(keys[i]), keys[i], 0);
  }
  std::vector<uint64_t> probe_hashes;
  probe_hashes.reserve(n);
  for (const Value& v : probes) probe_hashes.push_back(KeyHashOf(v));
  size_t i = 0;
  for (auto _ : state) {
    const size_t k = i % n;
    benchmark::DoNotOptimize(m.Find(probe_hashes[k], probes[k]));
    ++i;
  }
  state.SetItemsProcessed(static_cast<int64_t>(i));
}
BENCHMARK(BM_FlatMapLookupMiss)->Arg(100000);

void BM_UnorderedMapLookupMiss(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  const auto keys = UniformKeys(n, 7);
  const auto probes = UniformKeys(n, 8);
  std::unordered_map<Value, int64_t> m;
  for (size_t i = 0; i < n; ++i) m.emplace(keys[i], 0);
  size_t i = 0;
  for (auto _ : state) {
    const size_t k = i % n;
    benchmark::DoNotOptimize(m.find(probes[k]));
    ++i;
  }
  state.SetItemsProcessed(static_cast<int64_t>(i));
}
BENCHMARK(BM_UnorderedMapLookupMiss)->Arg(100000);

// Insert/erase churn over a rolling key window, the interval-join state
// shape: every key is inserted once and evicted once.
void BM_FlatMapInsertEraseChurn(benchmark::State& state) {
  FlatHashMap<Value, int64_t> m;
  int64_t next = 0;
  constexpr int64_t kLive = 4096;
  for (auto _ : state) {
    const Value k(next);
    m.TryEmplace(KeyHashOf(k), k, next);
    if (next >= kLive) {
      const Value old(next - kLive);
      m.Erase(KeyHashOf(old), old);
    }
    ++next;
  }
  state.SetItemsProcessed(next);
}
BENCHMARK(BM_FlatMapInsertEraseChurn);

void BM_UnorderedMapInsertEraseChurn(benchmark::State& state) {
  std::unordered_map<Value, int64_t> m;
  int64_t next = 0;
  constexpr int64_t kLive = 4096;
  for (auto _ : state) {
    m.emplace(Value(next), next);
    if (next >= kLive) m.erase(Value(next - kLive));
    ++next;
  }
  state.SetItemsProcessed(next);
}
BENCHMARK(BM_UnorderedMapInsertEraseChurn);

// Skewed upsert mix (Zipf s=1.1 over 100k keys): the ad-CTR aggregation
// shape -- most records hit a few hot keys already in cache, the long tail
// keeps inserting.
void BM_FlatMapZipfUpsert(benchmark::State& state) {
  ZipfGenerator zipf(100000, 1.1, 42);
  FlatHashMap<Value, int64_t> m;
  size_t i = 0;
  for (auto _ : state) {
    const Value k(static_cast<int64_t>(zipf.Next()));
    auto [entry, inserted] = m.TryEmplace(KeyHashOf(k), k, 0);
    (void)inserted;
    ++entry->second;
    ++i;
  }
  state.SetItemsProcessed(static_cast<int64_t>(i));
}
BENCHMARK(BM_FlatMapZipfUpsert);

void BM_UnorderedMapZipfUpsert(benchmark::State& state) {
  ZipfGenerator zipf(100000, 1.1, 42);
  std::unordered_map<Value, int64_t> m;
  size_t i = 0;
  for (auto _ : state) {
    const Value k(static_cast<int64_t>(zipf.Next()));
    ++m[k];
    ++i;
  }
  state.SetItemsProcessed(static_cast<int64_t>(i));
}
BENCHMARK(BM_UnorderedMapZipfUpsert);

// The hash-once payoff in isolation: same flat map, same keys -- one
// variant re-hashes the Value per lookup (what a keyed operator did before
// carried hashes), the other uses the precomputed hash (what it does now).
void BM_FlatMapLookupRehashed(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  const auto keys = UniformKeys(n, 7);
  FlatHashMap<Value, int64_t> m;
  for (size_t i = 0; i < n; ++i) {
    m.TryEmplace(KeyHashOf(keys[i]), keys[i], 0);
  }
  size_t i = 0;
  for (auto _ : state) {
    const Value& k = keys[i % n];
    benchmark::DoNotOptimize(m.Find(KeyHashOf(k), k));  // hash per lookup
    ++i;
  }
  state.SetItemsProcessed(static_cast<int64_t>(i));
}
BENCHMARK(BM_FlatMapLookupRehashed)->Arg(100000);

void BM_FlatMapLookupPreHashed(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  const auto keys = UniformKeys(n, 7);
  FlatHashMap<Value, int64_t> m;
  std::vector<uint64_t> hashes;
  hashes.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const uint64_t h = KeyHashOf(keys[i]);
    hashes.push_back(h);
    m.TryEmplace(h, keys[i], 0);
  }
  size_t i = 0;
  for (auto _ : state) {
    const size_t k = i % n;
    benchmark::DoNotOptimize(m.Find(hashes[k], keys[k]));  // carried hash
    ++i;
  }
  state.SetItemsProcessed(static_cast<int64_t>(i));
}
BENCHMARK(BM_FlatMapLookupPreHashed)->Arg(100000);

// ---------------------------------------------------------------------------
// Batch-at-a-time dispatch: the same map->filter operator chain driven one
// virtual ProcessRecord call per record per hop vs one virtual ProcessBatch
// call per hop. The work per record is identical; the delta is pure
// dispatch + collector-indirection overhead, which is what the executor's
// batch path amortizes.

class CountingCollector : public Collector {
 public:
  void Emit(Record&& r) override {
    benchmark::DoNotOptimize(r.timestamp);
    ++count;
  }
  void EmitBatch(std::vector<Record>&& batch) override {
    for (Record& r : batch) benchmark::DoNotOptimize(r.timestamp);
    count += batch.size();
    batch.clear();
  }
  size_t count = 0;
};

// Forwards into the next operator, mirroring the executor's ChainCollector.
class LinkCollector : public Collector {
 public:
  LinkCollector(Operator* next, Collector* downstream)
      : next_(next), downstream_(downstream) {}
  void Emit(Record&& r) override {
    next_->ProcessRecord(0, std::move(r), downstream_);
  }
  void EmitBatch(std::vector<Record>&& batch) override {
    next_->ProcessBatch(0, std::move(batch), downstream_);
  }

 private:
  Operator* next_;
  Collector* downstream_;
};

std::vector<Record> DispatchInput(size_t n) {
  std::vector<Record> records;
  records.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    records.push_back(MakeRecord(static_cast<Timestamp>(i),
                                 Value(static_cast<int64_t>(i % 97)),
                                 Value(static_cast<double>(i % 97))));
  }
  return records;
}

MapOperator MakeBenchMap() {
  return MapOperator("map", [](Record&& r) {
    r.fields[1] = Value(r.field(1).AsDouble() * 1.5 + 1.0);
    return std::move(r);
  });
}

FilterOperator MakeBenchFilter() {
  return FilterOperator(
      "filter", [](const Record& r) { return r.field(1).AsDouble() > 10.0; });
}

void BM_ChainPerRecordDispatch(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  MapOperator map = MakeBenchMap();
  FilterOperator filter = MakeBenchFilter();
  CountingCollector sink;
  LinkCollector link(&filter, &sink);
  const std::vector<Record> base = DispatchInput(n);
  std::vector<Record> batch;
  size_t records = 0;
  // lint:allow(virtual-per-record-loop): this bench measures exactly that.
  for (auto _ : state) {
    batch = base;
    for (Record& r : batch) map.ProcessRecord(0, std::move(r), &link);
    batch.clear();
    records += n;
  }
  state.SetItemsProcessed(static_cast<int64_t>(records));
}
BENCHMARK(BM_ChainPerRecordDispatch)->Arg(256)->Arg(1024);

void BM_ChainProcessBatchDispatch(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  MapOperator map = MakeBenchMap();
  FilterOperator filter = MakeBenchFilter();
  CountingCollector sink;
  LinkCollector link(&filter, &sink);
  const std::vector<Record> base = DispatchInput(n);
  std::vector<Record> batch;
  size_t records = 0;
  for (auto _ : state) {
    batch = base;
    // EmitBatch passes the vector by rvalue reference down the whole
    // chain, so `batch` itself comes back empty with capacity intact.
    map.ProcessBatch(0, std::move(batch), &link);
    records += n;
  }
  state.SetItemsProcessed(static_cast<int64_t>(records));
}
BENCHMARK(BM_ChainProcessBatchDispatch)->Arg(256)->Arg(1024);

// ---------------------------------------------------------------------------
// Aggregation kernels: the generic per-element fold the aggregators ran
// before (store to the partial through a pointer every element, the
// open_partial_ shape) vs the contiguous FoldSpan kernel AggFoldSpan
// dispatches to (local accumulator, vectorizable loop). Results are
// bit-identical by contract; only the speed differs.

template <typename Agg>
std::vector<typename Agg::Input> KernelInput(size_t n) {
  Rng rng(3);
  std::vector<typename Agg::Input> values;
  values.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    values.push_back(static_cast<typename Agg::Input>(rng.NextDouble()));
  }
  return values;
}

template <typename Agg>
void BM_AggCombinePerElement(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  const Agg agg;
  const auto values = KernelInput<Agg>(n);
  size_t folded = 0;
  for (auto _ : state) {
    typename Agg::Partial acc = agg.Identity();
    auto* p = &acc;
    benchmark::DoNotOptimize(p);  // acc escapes: per-element memory fold
    for (size_t i = 0; i < n; ++i) *p = agg.Combine(*p, agg.Lift(values[i]));
    benchmark::DoNotOptimize(acc);
    folded += n;
  }
  state.SetItemsProcessed(static_cast<int64_t>(folded));
}
BENCHMARK_TEMPLATE(BM_AggCombinePerElement, SumAgg<double>)->Arg(4096);
BENCHMARK_TEMPLATE(BM_AggCombinePerElement, CountAgg<double>)->Arg(4096);
BENCHMARK_TEMPLATE(BM_AggCombinePerElement, MinAgg<double>)->Arg(4096);
BENCHMARK_TEMPLATE(BM_AggCombinePerElement, MaxAgg<double>)->Arg(4096);

template <typename Agg>
void BM_AggFoldSpanKernel(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  const Agg agg;
  const auto values = KernelInput<Agg>(n);
  size_t folded = 0;
  for (auto _ : state) {
    typename Agg::Partial acc = agg.Identity();
    AggFoldSpan(agg, &acc, values.data(), n);
    benchmark::DoNotOptimize(acc);
    folded += n;
  }
  state.SetItemsProcessed(static_cast<int64_t>(folded));
}
BENCHMARK_TEMPLATE(BM_AggFoldSpanKernel, SumAgg<double>)->Arg(4096);
BENCHMARK_TEMPLATE(BM_AggFoldSpanKernel, CountAgg<double>)->Arg(4096);
BENCHMARK_TEMPLATE(BM_AggFoldSpanKernel, MinAgg<double>)->Arg(4096);
BENCHMARK_TEMPLATE(BM_AggFoldSpanKernel, MaxAgg<double>)->Arg(4096);

}  // namespace
}  // namespace streamline

BENCHMARK_MAIN();

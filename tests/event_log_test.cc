#include "dataflow/event_log.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "api/datastream.h"

namespace streamline {
namespace {

Record Ev(Timestamp ts, int64_t key, double v) {
  return MakeRecord(ts, Value(key), Value(v));
}

TEST(EventLogTest, AppendRead) {
  EventLog log(2);
  EXPECT_EQ(log.Append(0, Ev(1, 0, 1.0)), 0u);
  EXPECT_EQ(log.Append(0, Ev(2, 0, 2.0)), 1u);
  EXPECT_EQ(log.Append(1, Ev(1, 1, 3.0)), 0u);
  EXPECT_EQ(log.EndOffset(0), 2u);
  EXPECT_EQ(log.EndOffset(1), 1u);
  ASSERT_TRUE(log.Read(0, 1).ok());
  EXPECT_DOUBLE_EQ(log.Read(0, 1)->field(1).AsDouble(), 2.0);
  EXPECT_FALSE(log.Read(0, 2).ok());
}

TEST(EventLogTest, AppendByKeyIsDeterministic) {
  EventLog log(4);
  for (int i = 0; i < 100; ++i) {
    log.AppendByKey(0, Ev(i, i % 10, 0));
  }
  // Same key always lands in the same partition.
  std::map<int64_t, int> partition_of;
  for (int p = 0; p < 4; ++p) {
    for (uint64_t off = 0; off < log.EndOffset(p); ++off) {
      const int64_t key = log.Read(p, off)->field(0).AsInt64();
      auto [it, inserted] = partition_of.emplace(key, p);
      if (!inserted) EXPECT_EQ(it->second, p) << "key " << key;
    }
  }
  EXPECT_EQ(partition_of.size(), 10u);
}

TEST(EventLogTest, BoundedConsumptionThroughJob) {
  auto log = std::make_shared<EventLog>(3);
  for (int i = 0; i < 3000; ++i) {
    log->AppendByKey(0, Ev(i, i % 7, 1.0));
  }
  log->Close();
  Environment env;
  auto sink = env.FromSource("log", LogSource::Factory(log), 3).Collect();
  ASSERT_TRUE(env.Execute().ok());
  EXPECT_EQ(sink->size(), 3000u);
}

TEST(EventLogTest, LiveProducerThenClose) {
  auto log = std::make_shared<EventLog>(2);
  Environment env;
  auto sink = env.FromSource("log", LogSource::Factory(log), 1).Collect();
  auto job = env.CreateJob();
  ASSERT_TRUE(job.ok());
  ASSERT_TRUE((*job)->Start().ok());
  // Produce while the job is running.
  std::thread producer([&log] {
    for (int i = 0; i < 1000; ++i) {
      log->Append(i % 2, Ev(i, i % 3, 1.0));
      if (i % 100 == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    log->Close();
  });
  producer.join();
  ASSERT_TRUE((*job)->AwaitCompletion().ok());
  EXPECT_EQ(sink->size(), 1000u);
}

TEST(EventLogTest, WindowedJobOverPartitionedLog) {
  // Cross-partition skew + per-partition watermarks: the windowed counts
  // must still be exact.
  auto log = std::make_shared<EventLog>(4);
  for (int i = 0; i < 2000; ++i) {
    log->AppendByKey(0, Ev(i, i % 5, 1.0));
  }
  log->Close();
  Environment env(2);
  auto sink = env.FromSource("log", LogSource::Factory(log, 16), 2)
                  .KeyBy(0)
                  .Window(std::make_shared<TumblingWindowFn>(400))
                  .Aggregate(DynAggKind::kCount, 1)
                  .Collect();
  ASSERT_TRUE(env.Execute().ok());
  int64_t total = 0;
  for (const Record& r : sink->records()) total += r.field(4).AsInt64();
  EXPECT_EQ(total, 2000);
}

TEST(EventLogTest, ExactlyOnceRestoreFromOffsets) {
  auto log = std::make_shared<EventLog>(2);
  auto reduce = [](const Record& acc, const Record& in) {
    Record out = acc;
    out.fields[1] = Value(acc.field(1).AsDouble() + in.field(1).AsDouble());
    return out;
  };
  auto build = [&](Environment* env) {
    return env->FromSource("log", LogSource::Factory(log), 2)
        .KeyBy(0)
        .Reduce(reduce)
        .Collect();
  };

  // Run 1: consume the first 800 records, checkpoint while the source
  // idles on the open log (barriers are serviced via HandleIdle), then let
  // the rest of the log arrive and run to completion.
  auto store = std::make_shared<SnapshotStore>();
  uint64_t cp = 0;
  {
    for (int i = 0; i < 800; ++i) log->Append(i % 2, Ev(i, i % 3, 1.0));
    Environment env;
    auto sink = build(&env);
    JobOptions opts;
    opts.snapshot_store = store;
    auto job = env.CreateJob(opts);
    ASSERT_TRUE(job.ok());
    ASSERT_TRUE((*job)->Start().ok());
    while (sink->size() < 800) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    cp = (*job)->TriggerCheckpoint();  // source is idle-waiting here
    ASSERT_TRUE((*job)->AwaitCheckpoint(cp, 10.0));
    for (int i = 800; i < 1600; ++i) log->Append(i % 2, Ev(i, i % 3, 1.0));
    log->Close();
    ASSERT_TRUE((*job)->AwaitCompletion().ok());
  }

  // Reference: full run over the (now complete) log.
  std::map<int64_t, double> reference;
  {
    Environment env;
    auto sink = build(&env);
    ASSERT_TRUE(env.Execute().ok());
    for (const Record& r : sink->records()) {
      reference[r.field(0).AsInt64()] = r.field(1).AsDouble();
    }
  }

  // Run 2: restore; the source resumes at offset 800 per partition and the
  // reduce state continues from the snapshot -- final state matches the
  // uninterrupted reference exactly.
  {
    Environment env;
    auto sink = build(&env);
    JobOptions opts;
    opts.snapshot_store = store;
    opts.restore_from_checkpoint = cp;
    auto job = env.CreateJob(opts);
    ASSERT_TRUE(job.ok()) << job.status().ToString();
    ASSERT_TRUE((*job)->Run().ok());
    EXPECT_EQ(sink->size(), 800u);  // only the post-checkpoint records
    std::map<int64_t, double> final_state;
    for (const Record& r : sink->records()) {
      final_state[r.field(0).AsInt64()] = r.field(1).AsDouble();
    }
    EXPECT_EQ(final_state, reference);
  }
}

// ---------------------------------------------------------------------------
// Span reads: LogSource emits a whole merged span per poll on the batch path
// and one record per poll at batch size 1. Both must produce the same
// records in the same order and the same watermarks at the same positions,
// and a snapshot taken inside a span's emit must resume right before it.

// Drives one LogSource by hand and logs every emission in order: records
// as their ToString(), watermarks as "wm <ts>".
class RecordingContext : public SourceContext {
 public:
  explicit RecordingContext(size_t preferred) : preferred_(preferred) {}

  bool Emit(Record&& record) override { return Accept(&record, 1); }
  bool EmitBatch(std::vector<Record>&& batch) override {
    const bool ok = Accept(batch.data(), batch.size());
    batch.clear();
    return ok;
  }
  size_t PreferredBatchSize() const override { return preferred_; }
  void EmitWatermark(Timestamp wm) override {
    log.push_back("wm " + std::to_string(wm));
  }
  void HandleIdle() override {}
  bool IsCancelled() const override { return false; }

  /// Runs the source to exhaustion (or until the crash point).
  void Drain(LogSource* source) {
    for (;;) {
      auto polled = source->Poll(this);
      ASSERT_TRUE(polled.ok());
      if (*polled == SourcePoll::kExhausted) return;
      ASSERT_EQ(*polled, SourcePoll::kHasMore);  // closed log: never idle
    }
  }

  std::vector<std::string> log;
  size_t records = 0;
  // Barrier model: the emit that carries record number `snapshot_at`
  // first snapshots `source` (the engine injects barriers at the start of
  // an emit). The emit that carries record number `crash_at` delivers the
  // records before it and then fails, as a fault does mid-span.
  LogSource* source = nullptr;
  size_t snapshot_at = SIZE_MAX;
  size_t crash_at = SIZE_MAX;
  std::string snapshot;
  size_t records_at_snapshot = 0;

 private:
  bool Accept(Record* span, size_t n) {
    if (records <= snapshot_at && snapshot_at < records + n) {
      BinaryWriter w;
      EXPECT_TRUE(source->SnapshotState(&w).ok());
      snapshot = w.Release();
      records_at_snapshot = records;
    }
    for (size_t i = 0; i < n; ++i, ++records) {
      if (records == crash_at) return false;
      log.push_back(span[i].ToString());
    }
    return true;
  }

  size_t preferred_;
};

// Per-partition timestamp layouts over a 4-partition log.
std::shared_ptr<EventLog> SpanTestLog(const std::string& layout) {
  auto log = std::make_shared<EventLog>(4);
  for (int p = 0; p < 4; ++p) {
    if (layout == "interleaved") {
      for (int i = 0; i < 300; ++i) log->Append(p, Ev(4 * i + p, p, i));
    } else if (layout == "tied") {
      // Every timestamp appears in every partition, several times.
      for (int i = 0; i < 300; ++i) log->Append(p, Ev(i / 3, p, i));
    } else {  // skewed: different lengths, offsets and densities
      const int n = 40 + 250 * p;
      for (int i = 0; i < n; ++i) {
        log->Append(p, Ev(1000 * (3 - p) + i * (p + 1) / 2, p, i));
      }
    }
  }
  log->Close();
  return log;
}

TEST(EventLogTest, SpanReadsMatchPerRecordReads) {
  for (const std::string layout : {"interleaved", "tied", "skewed"}) {
    const auto log = SpanTestLog(layout);
    for (int parallelism : {1, 2}) {
      for (int subtask = 0; subtask < parallelism; ++subtask) {
        for (uint64_t wm_every : {0u, 7u, 100u}) {
          const std::string label = layout + " p=" +
                                    std::to_string(parallelism) + "/" +
                                    std::to_string(subtask) + " wm_every=" +
                                    std::to_string(wm_every);
          // Oracle order: the k-way merge of timestamp-sorted partitions,
          // ties to the lower partition, is a sort by (ts, partition,
          // offset).
          std::vector<std::tuple<Timestamp, int, uint64_t>> keys;
          for (int p = subtask; p < 4; p += parallelism) {
            for (uint64_t off = 0; off < log->EndOffset(p); ++off) {
              keys.emplace_back(log->Read(p, off)->timestamp, p, off);
            }
          }
          std::sort(keys.begin(), keys.end());
          std::vector<std::string> oracle;
          for (const auto& [ts, p, off] : keys) {
            oracle.push_back(log->Read(p, off)->ToString());
          }

          std::vector<std::string> per_record;
          for (size_t batch : {1u, 256u}) {
            LogSource source(log, subtask, parallelism, wm_every);
            RecordingContext ctx(batch);
            ctx.Drain(&source);
            std::vector<std::string> records;
            for (const std::string& e : ctx.log) {
              if (e.rfind("wm ", 0) != 0) records.push_back(e);
            }
            EXPECT_EQ(records, oracle) << label << " batch=" << batch;
            if (batch == 1) {
              per_record = ctx.log;
            } else {
              // Same records and the same watermarks at the same positions.
              EXPECT_EQ(ctx.log, per_record) << label;
            }
          }

          // Crash + restore in the middle of a span: the snapshot taken
          // inside the emit resumes exactly at the span's first record.
          for (size_t batch : {1u, 256u}) {
            const size_t snapshot_at = oracle.size() / 3 + 1;
            const size_t crash_at = 2 * oracle.size() / 3 + 1;
            LogSource crashed(log, subtask, parallelism, wm_every);
            RecordingContext ctx(batch);
            ctx.source = &crashed;
            ctx.snapshot_at = snapshot_at;
            ctx.crash_at = crash_at;
            ctx.Drain(&crashed);
            ASSERT_FALSE(ctx.snapshot.empty()) << label;
            EXPECT_EQ(ctx.records, crash_at) << label;

            LogSource restored(log, subtask, parallelism, wm_every);
            BinaryReader r(ctx.snapshot);
            ASSERT_TRUE(restored.RestoreState(&r).ok()) << label;
            RecordingContext rest(batch);
            rest.Drain(&restored);
            std::vector<std::string> records(
                oracle.begin(), oracle.begin() + ctx.records_at_snapshot);
            for (const std::string& e : rest.log) {
              if (e.rfind("wm ", 0) != 0) records.push_back(e);
            }
            EXPECT_EQ(records, oracle) << label << " batch=" << batch;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace streamline

#ifndef STREAMLINE_DATAFLOW_EVENT_LOG_H_
#define STREAMLINE_DATAFLOW_EVENT_LOG_H_

#include <memory>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "dataflow/source.h"

namespace streamline {

/// In-memory partitioned, append-only, replayable record log -- the
/// stand-in for the durable message broker (Kafka et al.) a production
/// STREAMLINE deployment would ingest from. Producers append to
/// partitions; any number of readers consume by (partition, offset), so
/// sources are replayable and their offsets are the natural checkpoint
/// state. Thread-safe; appends while a job reads model live ingestion.
class EventLog {
 public:
  explicit EventLog(int num_partitions);

  int num_partitions() const { return static_cast<int>(partitions_.size()); }

  /// Appends to an explicit partition; returns the record's offset.
  uint64_t Append(int partition, Record record);
  /// Appends partitioned by key hash (field `key_field`).
  uint64_t AppendByKey(size_t key_field, Record record);

  /// Number of records currently in `partition`.
  uint64_t EndOffset(int partition) const;

  /// Reads the record at (partition, offset); NotFound past the end.
  Result<Record> Read(int partition, uint64_t offset) const;

  /// Read position in one partition, advanced by ReadMerged.
  struct Cursor {
    int partition = 0;
    uint64_t offset = 0;                // next record to read
    uint64_t end = 0;                   // end offset seen by the last read
    Timestamp last_ts = kMinTimestamp;  // timestamp of the last record read
  };

  /// Span read under one lock: k-way merges the partitions of `cursors`
  /// from their offsets -- smallest head timestamp first, ties to the
  /// lower cursor index -- appending copies of up to `max_records` records
  /// to `out` and advancing the cursors past them. Every cursor's `end` is
  /// refreshed; returns whether the log was closed, as of this read.
  bool ReadMerged(std::vector<Cursor>* cursors, size_t max_records,
                  std::vector<Record>* out) const;

  /// Marks the log finished: sources drain to the end offsets and stop
  /// (bounded semantics). Without this, sources idle-wait for appends.
  void Close();
  bool closed() const;

 private:
  struct Partition {
    std::vector<Record> records;
  };

  mutable Mutex mu_;
  std::vector<Partition> partitions_ STREAMLINE_GUARDED_BY(mu_);
  bool closed_ STREAMLINE_GUARDED_BY(mu_) = false;
};

/// Source reading one or more partitions of an EventLog. Each source
/// subtask owns the partitions `p` with `p % parallelism == subtask`; its
/// per-partition offsets are checkpointed, giving parallel exactly-once
/// ingestion. Each Poll emits one span: up to a batch of records merged
/// across the owned partitions by one ReadMerged call, cut at the
/// watermark cadence. An open log with nothing new makes Poll return
/// kIdle (the runtime re-polls it); a closed log makes the job bounded.
class LogSource : public SourceFunction {
 public:
  LogSource(std::shared_ptr<EventLog> log, int subtask, int parallelism,
            uint64_t watermark_every = 64);

  Result<SourcePoll> Poll(SourceContext* ctx) override;
  Status SnapshotState(BinaryWriter* w) const override;
  Status RestoreState(BinaryReader* r) override;
  std::string Name() const override;

  static SourceFactory Factory(std::shared_ptr<EventLog> log,
                               uint64_t watermark_every = 64);

 private:
  std::shared_ptr<EventLog> log_;
  int subtask_;
  int parallelism_;
  uint64_t watermark_every_;
  // One cursor per owned partition. Only the offsets are checkpointed:
  // last_ts and the watermark cadence restart after a restore, which only
  // delays the next watermark.
  std::vector<EventLog::Cursor> cursors_;
  uint64_t emitted_ = 0;
  // Poll scratch: the cursors advanced by the in-flight span (committed to
  // cursors_ once the emit returns) and the span's records.
  std::vector<EventLog::Cursor> span_cursors_;
  std::vector<Record> span_;
};

}  // namespace streamline

#endif  // STREAMLINE_DATAFLOW_EVENT_LOG_H_

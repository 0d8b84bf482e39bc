#include "dataflow/event_log.h"

#include <algorithm>

#include "common/logging.h"

namespace streamline {

EventLog::EventLog(int num_partitions) {
  STREAMLINE_CHECK_GT(num_partitions, 0);
  partitions_.resize(num_partitions);
}

uint64_t EventLog::Append(int partition, Record record) {
  MutexLock lock(&mu_);
  STREAMLINE_CHECK(!closed_) << "append to closed log";
  STREAMLINE_CHECK_GE(partition, 0);
  STREAMLINE_CHECK_LT(partition, static_cast<int>(partitions_.size()));
  auto& records = partitions_[partition].records;
  STREAMLINE_DCHECK(records.empty() ||
                    records.back().timestamp <= record.timestamp)
      << "per-partition appends must be timestamp-ordered";
  records.push_back(std::move(record));
  return records.size() - 1;
}

uint64_t EventLog::AppendByKey(size_t key_field, Record record) {
  const int partition = static_cast<int>(record.field(key_field).Hash() %
                                         partitions_.size());
  return Append(partition, std::move(record));
}

uint64_t EventLog::EndOffset(int partition) const {
  MutexLock lock(&mu_);
  return partitions_[partition].records.size();
}

Result<Record> EventLog::Read(int partition, uint64_t offset) const {
  MutexLock lock(&mu_);
  const auto& records = partitions_[partition].records;
  if (offset >= records.size()) {
    return Status::NotFound("offset " + std::to_string(offset) +
                            " past end of partition " +
                            std::to_string(partition));
  }
  return records[offset];
}

bool EventLog::ReadMerged(std::vector<Cursor>* cursors, size_t max_records,
                          std::vector<Record>* out) const {
  MutexLock lock(&mu_);
  for (Cursor& c : *cursors) c.end = partitions_[c.partition].records.size();
  for (size_t n = 0; n < max_records; ++n) {
    // Linear pick, exactly the per-record order: a source subtask owns only
    // a handful of partitions.
    Cursor* best = nullptr;
    Timestamp best_ts = kMaxTimestamp;
    for (Cursor& c : *cursors) {
      if (c.offset >= c.end) continue;
      const Timestamp ts =
          partitions_[c.partition].records[c.offset].timestamp;
      if (best == nullptr || ts < best_ts) {
        best = &c;
        best_ts = ts;
      }
    }
    if (best == nullptr) break;
    out->push_back(partitions_[best->partition].records[best->offset++]);
    best->last_ts = best_ts;
  }
  return closed_;
}

void EventLog::Close() {
  MutexLock lock(&mu_);
  closed_ = true;
}

bool EventLog::closed() const {
  MutexLock lock(&mu_);
  return closed_;
}

// ---------------------------------------------------------------------------
// LogSource

LogSource::LogSource(std::shared_ptr<EventLog> log, int subtask,
                     int parallelism, uint64_t watermark_every)
    : log_(std::move(log)), subtask_(subtask), parallelism_(parallelism),
      watermark_every_(watermark_every) {
  for (int p = subtask_; p < log_->num_partitions(); p += parallelism_) {
    EventLog::Cursor cursor;
    cursor.partition = p;
    cursors_.push_back(cursor);
  }
}

Result<SourcePoll> LogSource::Poll(SourceContext* ctx) {
  if (cursors_.empty()) return SourcePoll::kExhausted;
  // One span per poll: a batch, cut where the next watermark is due, so
  // watermarks fall at the same record counts as record-at-a-time reads.
  size_t max_records = std::max<size_t>(ctx->PreferredBatchSize(), 1);
  if (watermark_every_ > 0) {
    max_records = static_cast<size_t>(std::min<uint64_t>(
        max_records, watermark_every_ - emitted_ % watermark_every_));
  }
  span_cursors_ = cursors_;
  span_.clear();
  const bool closed = log_->ReadMerged(&span_cursors_, max_records, &span_);
  const auto exhausted = [closed](const EventLog::Cursor& c) {
    return closed && c.offset >= c.end;
  };
  if (span_.empty()) {
    if (std::all_of(span_cursors_.begin(), span_cursors_.end(), exhausted)) {
      return SourcePoll::kExhausted;
    }
    // Open log with no data available yet: the runtime re-polls after a
    // short delay (and keeps servicing checkpoint barriers while idle).
    return SourcePoll::kIdle;
  }
  const size_t n = span_.size();
  // The cursors advance only once the emit returned: a barrier injected
  // inside it snapshots the position before the span.
  const bool emitted = n == 1 ? ctx->Emit(std::move(span_[0]))
                              : ctx->EmitBatch(std::move(span_));
  if (!emitted) return SourcePoll::kExhausted;
  cursors_.swap(span_cursors_);
  emitted_ += n;
  if (watermark_every_ > 0 && emitted_ % watermark_every_ == 0) {
    // Conservative per-partition watermark: future records of a partition
    // have ts >= its last_ts (appends are ordered), so the subtask
    // watermark is the minimum over its non-exhausted partitions.
    Timestamp wm = kMaxTimestamp;
    for (const EventLog::Cursor& c : cursors_) {
      if (!exhausted(c)) wm = std::min(wm, c.last_ts);
    }
    if (wm != kMaxTimestamp && wm != kMinTimestamp) {
      ctx->EmitWatermark(wm);
    }
  }
  return SourcePoll::kHasMore;
}

Status LogSource::SnapshotState(BinaryWriter* w) const {
  w->WriteU64(cursors_.size());
  for (const EventLog::Cursor& c : cursors_) w->WriteU64(c.offset);
  return Status::Ok();
}

Status LogSource::RestoreState(BinaryReader* r) {
  auto n = r->ReadU64();
  if (!n.ok()) return n.status();
  if (*n != cursors_.size()) {
    return Status::FailedPrecondition("partition assignment mismatch");
  }
  for (EventLog::Cursor& c : cursors_) {
    auto off = r->ReadU64();
    if (!off.ok()) return off.status();
    c.offset = *off;
  }
  return Status::Ok();
}

std::string LogSource::Name() const {
  return "log-source[" + std::to_string(subtask_) + "/" +
         std::to_string(parallelism_) + "]";
}

SourceFactory LogSource::Factory(std::shared_ptr<EventLog> log,
                                 uint64_t watermark_every) {
  return [log, watermark_every](
             int subtask, int parallelism) -> std::unique_ptr<SourceFunction> {
    return std::make_unique<LogSource>(log, subtask, parallelism,
                                       watermark_every);
  };
}

}  // namespace streamline

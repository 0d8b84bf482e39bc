#ifndef STREAMLINE_DATAFLOW_QUERY_REGISTRY_H_
#define STREAMLINE_DATAFLOW_QUERY_REGISTRY_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/mutex.h"
#include "common/record.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/time.h"
#include "dataflow/sink.h"

namespace streamline {

/// Dynamic (registry-attached) queries are tagged in the operator's output
/// with ids starting here, so they can never collide with the indices of the
/// spec-defined window list (output field 3 carries the id either way).
inline constexpr uint64_t kFirstDynamicQueryId = uint64_t{1} << 20;

/// Periodic window shape of a standing query: [origin + k*slide,
/// origin + k*slide + range). Tumbling is the slide == range special case.
struct QueryDescriptor {
  Duration range = 0;
  Duration slide = 0;
  Timestamp origin = 0;
};

/// Where an attached query's state lives inside the window operator.
enum class QueryPlacement : uint8_t {
  /// A slot of the window operator's shared slice grid: the query rides
  /// the slices every shared query cuts (Cutty sharing) and, when its
  /// begin grid factors through an already-registered query's cut grid,
  /// adds zero new cuts.
  kShared = 0,
  /// Dedicated per-key open-window partials (eager). Chosen when the cost
  /// model predicts the query would fragment the shared store (pathological
  /// slide) more than it saves.
  kStandalone = 1,
};

/// One entry of the registry's command log. Window operators consume the
/// log in sequence order at watermark boundaries; the log is the single
/// source of truth for which dynamic queries exist, so every subtask (and
/// every restore/replay of a checkpoint) derives the same query table.
struct QueryCommand {
  enum class Kind : uint8_t { kAttach = 0, kDetach = 1 };
  uint64_t seq = 0;
  Kind kind = Kind::kAttach;
  uint64_t query_id = 0;
  QueryDescriptor desc;              // attach only
  QueryPlacement placement = QueryPlacement::kShared;
};

/// Multi-tenant standing-query registry: the control plane that turns a
/// running windowed job into a serving surface where sliding/tumbling
/// aggregate queries attach and detach without a restart.
///
/// Data path: `WindowAggSpec::registry` points the WindowAgg operator at a
/// registry; each subtask drains the command log at watermark boundaries
/// (so command application sits at a deterministic point of the event-time
/// order) and acks the sequence number it reached. The operator must use
/// the shared backend with periodic (tumbling or sliding) spec windows --
/// its one slice grid and query table serve every registry query -- and
/// its Open rejects a registry otherwise.
///
/// Attach semantics, per key of the operator: a key that already exists
/// serves the query's windows that begin after the key's last record, plus
/// a backfill: the query's begin grid is walked down from that record
/// while each grid point is an intact cut of the key (its open slice's
/// start, or a stored slice start that no pending window has released),
/// and every window beginning at a walked point is served too. Each served
/// window is byte-identical to the same window of a from-start query. A key
/// created after the attach is served from its first record. Standalone
/// queries serve every window beginning at or after the attach watermark.
/// Detach removes the query from the table and rewrites no key; the
/// slices and windows only it kept alive are freed at the key's next fire,
/// or, for a key with no window pending, at the next watermark.
///
/// Placement is cost-based, decided once per attach (see ChoosePlacement):
/// sharing the slicer costs one partial update per record *total* plus
/// O(log slices) per cut and per fire, while a standalone query costs
/// ceil(range/slide) updates per record but adds no cuts. Queries whose
/// window factors through an existing query's cut grid (slide a multiple,
/// origins congruent) share with zero new cuts and are counted as rewrites.
///
/// Thread safety: all public methods are safe to call concurrently from
/// user threads and worker (task) threads.
class QueryRegistry {
 public:
  struct Options {
    /// Cost-model estimate of per-key record arrival rate, in records per
    /// timestamp unit. Biases the share-vs-standalone break-even point.
    double est_records_per_time = 1.0;
    /// Cost-model estimate of the shared store's resident slice count.
    double est_store_slices = 64.0;
  };

  /// Receives the tagged result records of one query (demuxed by id).
  using ResultHandler = std::function<void(const Record&)>;

  QueryRegistry() : options_(Options{}) {}
  explicit QueryRegistry(Options options) : options_(options) {}

  /// Attaches a sliding-window aggregate query to every operator consuming
  /// this registry (which windows each key serves: see the class comment).
  /// Returns the query id tagged into its result records (field 3). The
  /// attach is asynchronous: it is live once every worker drained the
  /// command (WaitQueryApplied). `handler`, if given, receives this query's
  /// results from a QueryDemuxSink.
  uint64_t AttachSliding(Duration range, Duration slide, Timestamp origin = 0,
                         ResultHandler handler = nullptr);
  uint64_t AttachTumbling(Duration size, Timestamp origin = 0,
                          ResultHandler handler = nullptr) {
    return AttachSliding(size, size, origin, std::move(handler));
  }

  /// Detaches a previously attached query. Slices only it pinned are
  /// freed at their key's next fire, or at the next watermark for a key
  /// with no window pending.
  [[nodiscard]] Status Detach(uint64_t query_id);

  /// Blocks until every registered worker has applied the attach (or
  /// detach) command of `query_id`, i.e. the query is live (or fully
  /// drained) on all subtasks. Returns false on timeout.
  bool WaitQueryApplied(uint64_t query_id, std::chrono::milliseconds timeout);

  QueryPlacement PlacementOf(uint64_t query_id) const;

  struct Stats {
    uint64_t active_queries = 0;
    uint64_t attaches = 0;
    uint64_t detaches = 0;
    uint64_t rewrites_shared = 0;
    uint64_t slices_gc = 0;
  };
  Stats stats() const;

  /// Results routed for `query_id` so far (via Route / QueryDemuxSink).
  uint64_t ResultCount(uint64_t query_id) const;

  // -- worker-side interface (window operator subtasks) --------------------

  /// Idempotently registers a consuming subtask (id: "<operator>:<index>");
  /// WaitQueryApplied waits on all registered subtasks. Called from
  /// WindowAggOperator::Open.
  void RegisterWorker(const std::string& worker);

  /// Binds the job's metrics registry for the registry.* counters/gauges.
  /// Rebinding to a *different* registry (a restarted job owns a fresh one)
  /// replays the accumulated counts into it; rebinding the same one is a
  /// no-op. Pair with UnbindMetrics on job teardown -- a query registry
  /// outlives the jobs it serves, and must not write into a dead registry.
  void BindMetrics(MetricsRegistry* metrics);

  /// Drops the cached counter/gauge pointers if `metrics` is the currently
  /// bound registry (no-op otherwise). Called from the window operator's
  /// destructor; never dereferences `metrics`, so it is safe during job
  /// teardown in any destruction order.
  void UnbindMetrics(MetricsRegistry* metrics);

  /// Highest command sequence number issued; cheap poll for "anything new
  /// since the seq I applied?" on the per-watermark fast path.
  uint64_t latest_seq() const {
    return latest_seq_.load(std::memory_order_acquire);
  }

  /// Commands with seq > `after_seq`, in sequence order.
  std::vector<QueryCommand> CommandsAfter(uint64_t after_seq) const;

  /// Worker `worker` has applied the log prefix up to `seq` and now holds
  /// `shared_slices` stored slice partials across its keys; `slices_freed`
  /// were left to free by detaches since its previous ack. Overwrites (not
  /// maxes) the worker's ack so a checkpoint-restore rollback is honestly
  /// reflected until the worker re-applies the tail.
  void AckApplied(const std::string& worker, uint64_t seq,
                  uint64_t shared_slices, uint64_t slices_freed);

  // -- result routing ------------------------------------------------------

  /// Demultiplexes one tagged result record (field 3 = query id) to the
  /// attached handler of that query, counting it either way. Records of
  /// spec-defined queries (id < kFirstDynamicQueryId) go to the default
  /// handler when one is set.
  void Route(const Record& record);

  void SetDefaultHandler(ResultHandler handler);

 private:
  struct Entry {
    QueryDescriptor desc;
    QueryPlacement placement = QueryPlacement::kShared;
    uint64_t attach_seq = 0;
    uint64_t detach_seq = 0;  // 0 while active
    ResultHandler handler;
    uint64_t results = 0;
  };

  QueryPlacement ChoosePlacementLocked(const QueryDescriptor& d) const
      STREAMLINE_REQUIRES(mu_);
  bool FactorsThroughActiveLocked(const QueryDescriptor& d) const
      STREAMLINE_REQUIRES(mu_);
  void UpdateGaugesLocked() STREAMLINE_REQUIRES(mu_);

  const Options options_;
  std::atomic<uint64_t> latest_seq_{0};

  mutable Mutex mu_;
  std::vector<QueryCommand> log_ STREAMLINE_GUARDED_BY(mu_);
  std::map<uint64_t, Entry> entries_ STREAMLINE_GUARDED_BY(mu_);
  uint64_t next_id_ STREAMLINE_GUARDED_BY(mu_) = kFirstDynamicQueryId;
  std::map<std::string, uint64_t> worker_acks_ STREAMLINE_GUARDED_BY(mu_);
  std::map<std::string, uint64_t> worker_slices_ STREAMLINE_GUARDED_BY(mu_);
  CondVar ack_cv_;
  ResultHandler default_handler_ STREAMLINE_GUARDED_BY(mu_);

  Stats stats_ STREAMLINE_GUARDED_BY(mu_);
  MetricsRegistry* metrics_ STREAMLINE_GUARDED_BY(mu_) = nullptr;
  Counter* attaches_counter_ STREAMLINE_GUARDED_BY(mu_) = nullptr;
  Counter* detaches_counter_ STREAMLINE_GUARDED_BY(mu_) = nullptr;
  Counter* rewrites_counter_ STREAMLINE_GUARDED_BY(mu_) = nullptr;
  Counter* slices_gc_counter_ STREAMLINE_GUARDED_BY(mu_) = nullptr;
  Gauge* queries_gauge_ STREAMLINE_GUARDED_BY(mu_) = nullptr;
  Gauge* slices_shared_gauge_ STREAMLINE_GUARDED_BY(mu_) = nullptr;
};

/// Sink that demultiplexes WindowAgg result records to per-query handlers
/// attached through the registry. Thread-safe (the registry serializes).
class QueryDemuxSink : public SinkFunction {
 public:
  explicit QueryDemuxSink(std::shared_ptr<QueryRegistry> registry)
      : registry_(std::move(registry)) {}

  Status Invoke(const Record& record) override {
    registry_->Route(record);
    return Status::Ok();
  }
  std::string Name() const override { return "query-demux"; }

 private:
  std::shared_ptr<QueryRegistry> registry_;
};

}  // namespace streamline

#endif  // STREAMLINE_DATAFLOW_QUERY_REGISTRY_H_

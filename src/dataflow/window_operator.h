#ifndef STREAMLINE_DATAFLOW_WINDOW_OPERATOR_H_
#define STREAMLINE_DATAFLOW_WINDOW_OPERATOR_H_

#include <algorithm>
#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "agg/slicing_aggregator.h"
#include "common/flat_hash_map.h"
#include "dataflow/changelog.h"
#include "dataflow/operator.h"
#include "dataflow/query_registry.h"
#include "window/dyn_aggregate.h"
#include "window/window_fn.h"

namespace streamline {

/// Adapts the runtime DynAggregate to the algebraic-aggregate concept used
/// by the slicing machinery, so the engine's windowed operators run on the
/// exact same Cutty code path the micro-benchmarks measure.
struct DynAggAdapter {
  struct Input {
    Value value;
    Timestamp ts = 0;
  };
  using Partial = DynPartial;
  using Output = Value;
  static constexpr bool kInvertible = false;  // conservative: kind-dependent
  static constexpr bool kCommutative = true;

  explicit DynAggAdapter(DynAggKind kind = DynAggKind::kSum) : dyn(kind) {}

  Partial Identity() const { return dyn.Identity(); }
  Partial Lift(const Input& in) const { return dyn.Lift(in.value, in.ts); }
  Partial Combine(const Partial& a, const Partial& b) const {
    return dyn.Combine(a, b);
  }
  Output Lower(const Partial& p) const { return dyn.Lower(p); }

  /// Contiguous fold kernel for the hot numeric kinds: the per-element
  /// Combine's branches (validity check, kind switch) are hoisted out of
  /// the loop and the accumulator lives in registers. Bit-identical to the
  /// sequential `acc = Combine(acc, Lift(v))` chain -- the batch vs
  /// per-record equivalence tests compare sink output bytes. Keep-one kinds
  /// (variance/first/last/argmax) fall back to that chain unchanged.
  void FoldSpan(Partial* acc, const Input* values, size_t n) const {
    if (n == 0) return;
    size_t i = 0;
    if (!acc->valid) {
      // Combine(invalid, y) returns y exactly; take the first element
      // directly (folding into 0.0 could flip the sign of -0.0).
      *acc = dyn.Lift(values[0].value, values[0].ts);
      i = 1;
      if (i == n) return;
    }
    const size_t start = i;
    switch (dyn.kind()) {
      case DynAggKind::kSum:
      case DynAggKind::kAvg: {
        double s = acc->a;
        Timestamp ts = acc->ts;
        for (; i < n; ++i) {
          s = s + values[i].value.ToDouble();
          ts = std::max(ts, values[i].ts);
        }
        acc->a = s;
        acc->ts = ts;
        break;
      }
      case DynAggKind::kCount: {
        Timestamp ts = acc->ts;
        for (; i < n; ++i) ts = std::max(ts, values[i].ts);
        acc->a = acc->a + 0.0;  // matches x.a + y.a with y.a == 0
        acc->ts = ts;
        break;
      }
      case DynAggKind::kMin: {
        double m = acc->a;
        Timestamp ts = acc->ts;
        for (; i < n; ++i) {
          m = std::min(m, values[i].value.ToDouble());
          ts = std::max(ts, values[i].ts);
        }
        acc->a = m;
        acc->ts = ts;
        break;
      }
      case DynAggKind::kMax: {
        double m = acc->a;
        Timestamp ts = acc->ts;
        for (; i < n; ++i) {
          m = std::max(m, values[i].value.ToDouble());
          ts = std::max(ts, values[i].ts);
        }
        acc->a = m;
        acc->ts = ts;
        break;
      }
      default:
        for (; i < n; ++i) {
          *acc = dyn.Combine(*acc, dyn.Lift(values[i].value, values[i].ts));
        }
        return;  // Combine maintained n itself
    }
    acc->n += static_cast<int64_t>(n - start);
  }

  DynAggregate dyn;
};

/// How the windowed operator maintains per-window state.
enum class WindowBackend : uint8_t {
  kShared,  // Cutty slicing: one partial per slice, shared by all queries
  kEager,   // one partial per open window (pre-sharing state of practice)
};

/// Configuration of a keyed event-time window aggregation.
struct WindowAggSpec {
  /// Key extractor; nullptr aggregates the whole stream under one key.
  KeySelector key;
  /// Index of the aggregated field in the input record.
  size_t value_field = 0;
  DynAggKind agg_kind = DynAggKind::kSum;
  /// Window definitions. Multiple entries = multi-query sharing over the
  /// same slices. When every entry is periodic (tumbling or sliding) the
  /// shared backend cuts one slice grid for the whole operator; otherwise
  /// each key gets fresh clones in its own slicing aggregator.
  std::vector<std::shared_ptr<const WindowFunction>> windows;
  WindowBackend backend = WindowBackend::kShared;
  /// Passed as payload to content-sensitive window functions; nullptr
  /// passes a null Value.
  std::function<Value(const Record&)> payload;
  /// Tolerated lateness beyond the upstream watermark: records up to this
  /// much older than the watermark are still included, at the price of
  /// window results firing `allowed_lateness` later (the operator holds
  /// its internal event-time clock back by this amount).
  Duration allowed_lateness = 0;
  /// Standing-query registry this operator serves. Requires the shared
  /// backend and periodic spec windows (Open rejects anything else).
  /// Subtasks drain the registry's attach/detach command log at watermark
  /// boundaries, so queries come and go while the job runs; dynamic-query
  /// results carry the registry query id in output field 3.
  std::shared_ptr<QueryRegistry> registry;
};

/// Keyed event-time windowed aggregation operator.
///
/// Out-of-order robustness: records are buffered until the watermark passes
/// them, then applied in timestamp order -- so upstream parallelism (which
/// interleaves channels arbitrarily) never breaks window contents.
///
/// Output records: [key, window_start, window_end, query_index, result]
/// with timestamp = window_end - 1 (the last instant inside the window),
/// so downstream windowed consumers see results in the period they
/// describe.
///
/// State layout (see DESIGN.md, "Window operator state"):
///  * Grid path -- shared backend, every spec window periodic. One
///    operator-level query table (spec windows plus registry queries) and
///    one cut grid; each key holds only its (slice start, partial) list,
///    the registry queries it serves from a late start, and its standalone
///    open windows. A timer heap keyed by each key's next window end lets
///    a watermark visit only keys with a window to fire; a fire combines
///    the slices of the key's oldest due window once, right to left, and
///    serves every due window from that pass. Registry commands edit the
///    table and never rewrite key state; a key holding what only detached
///    queries needed frees it at its next fire, or, with no window
///    pending, at the next watermark.
///  * Per-key path -- shared backend with a session, count, punctuation or
///    user-defined window: a SlicingAggregator per key, advanced on every
///    watermark.
///  * Eager path -- one partial per open window per key.
class WindowAggOperator : public Operator {
 public:
  WindowAggOperator(std::string name, WindowAggSpec spec);
  ~WindowAggOperator() override;

  Status Open(const OperatorContext& ctx) override;
  void ProcessRecord(int input, Record&& record, Collector* out) override;
  void ProcessBatch(int input, std::vector<Record>&& batch,
                    Collector* out) override;
  void ProcessWatermark(Timestamp wm, Collector* out) override;
  void OnEndOfInput(Collector* out) override;
  Status SnapshotState(BinaryWriter* w) const override;
  Status RestoreState(BinaryReader* r) override;
  bool SupportsIncrementalState() const override { return true; }
  void EnableIncrementalState() override { changelog_.Enable(); }
  Status SnapshotDelta(ChangelogSink* sink) override;
  Status ApplyDelta(BinaryReader* r) override;
  void ResetDelta() override { changelog_.Clear(); }
  std::string Name() const override { return name_; }

  /// Aggregation work counters (shared backend only).
  AggStats SharedStats() const;
  size_t num_keys() const { return keys_.size(); }

  /// Grid-path footprint, for boundedness checks: query-table slots (spec
  /// windows included, freed slots reused) and the summed size of every
  /// key's slice list, late-serve list and standalone window list.
  size_t query_slots() const { return queries_.size(); }
  size_t KeyStateEntries() const;

 private:
  using SharedAgg = SlicingAggregator<DynAggAdapter, FlatFatStore<DynAggAdapter>>;

  enum class Mode : uint8_t { kGrid, kPerKey, kEager };

  struct EagerQueryState {
    std::unique_ptr<WindowFunction> wf;  // used only for periodic params
    Duration range = 0;
    Duration slide = 0;
    Timestamp origin = 0;
    /// Open windows sorted by Window::operator< (end, then start); small and
    /// short-lived, so a sorted vector beats a node-based map.
    std::vector<std::pair<Window, DynPartial>> open;
  };

  /// One slot of the grid path's query table: a spec window (slots
  /// [0, spec_.windows.size()), never freed) or a registry query. The table
  /// is a pure function of the command-log prefix [1, applied_seq_] and
  /// the watermark at each application, so it is identical across
  /// subtasks and across checkpoint restore/replay.
  struct GridQuery {
    bool active = false;
    uint64_t id = 0;  // output field 3: spec index or registry query id
    Duration range = 0;
    Duration slide = 0;
    Timestamp origin = 0;
    QueryPlacement placement = QueryPlacement::kShared;
    /// Attach command seq; 0 for spec windows (served from every key's
    /// first record).
    uint64_t seq = 0;
    /// Operator watermark when the attach was applied; standalone queries
    /// serve windows beginning at or after it.
    Timestamp attach_wm = kMinTimestamp;
    /// Keys that existed at the attach and backfill it: key -> begin of the
    /// first served window. An entry moves into the key's own `late` list
    /// the next time the key is touched.
    FlatHashMap<Value, Timestamp> backfill;
  };

  struct SlicePartial {
    Timestamp start;
    DynPartial partial;
  };
  /// A shared registry query that attached while the key already existed:
  /// the key serves its windows beginning at or after `from`. Dropped once
  /// every window it could still fire begins after `from`.
  struct LateServe {
    uint32_t slot;
    uint64_t seq;
    Timestamp from;
  };
  struct StandaloneWindow {
    uint32_t slot;
    uint64_t seq;
    Window window;
    DynPartial partial;
  };

  struct KeyState {
    // -- grid path ---------------------------------------------------------
    /// Non-empty slices in start order; back() is the open slice, which
    /// is never evicted.
    std::vector<SlicePartial> slices;
    Timestamp last_ts = kMinTimestamp;  // the key's latest record
    /// Every served window ending at or before this has fired.
    Timestamp fired_to = kMinTimestamp;
    /// Command seq the key has caught up with: registry queries attached
    /// later were attached while the key existed.
    uint64_t epoch = 0;
    std::vector<LateServe> late;
    /// Sorted by (end, start, slot, seq).
    std::vector<StandaloneWindow> standalone;
    // Derived, never serialized: the key hash and the key's next window
    // end (its timer-heap position).
    uint64_t hash = 0;
    Timestamp timer = kMaxTimestamp;
    // -- per-key path ------------------------------------------------------
    std::unique_ptr<SharedAgg> shared;
    // -- eager path --------------------------------------------------------
    std::vector<EagerQueryState> eager;
  };

  using KeyEntry = std::pair<Value, KeyState>;

  KeyEntry* GetOrCreateKey(const Value& key, uint64_t hash, bool* created);
  void EmitResult(const Value& key, uint64_t query, const Window& w,
                  const Value& result);
  void ResolveKey(const Record& record, Value* key, uint64_t* hash);
  void UpdateStateGauges();

  // -- per-key and eager paths --------------------------------------------
  void ApplyElement(const Value& key, KeyState* ks, const Record& record);
  /// Advances one key's window clock; returns whether it mutated the key.
  bool AdvanceKeyWatermark(const Value& key, KeyState* ks, Timestamp wm);
  bool EagerFire(const Value& key, KeyState* ks, Timestamp wm);
  void ApplyPerKeyRecords();

  // -- grid path ------------------------------------------------------------
  /// Latest live cut at or before `x`: the largest begin b <= x of an
  /// active shared query whose window [b, b + range) contains x, or
  /// kMinTimestamp when none does. Cached for a run of timestamps.
  Timestamp LiveCut(Timestamp x);
  void ApplyGridRecord(const Record& record);
  /// First begin of the windows of `slot` that key `ks` serves;
  /// kMinTimestamp when it serves all of them. `*fresh` is set when the
  /// value is a backfill the key has not taken over yet (its windows may
  /// already have ended and not fired).
  Timestamp ServedFrom(const KeyEntry& e, size_t slot, bool* fresh) const;
  /// Earliest begin of a window of `slot` the key still has to fire.
  Timestamp LowestPendingBegin(const KeyEntry& e, size_t slot,
                               bool fresh_backfill) const;
  /// End of the key's next window to fire (kMaxTimestamp: none).
  Timestamp NextFire(const KeyEntry& e) const;
  /// Earliest slice start a window of the key may still need at time `t`;
  /// older stored slices are garbage.
  Timestamp Needed(const KeyEntry& e, Timestamp t) const;
  /// Number of the key's stored slices older than Needed(t).
  size_t Evictable(const KeyEntry& e, Timestamp t) const;
  /// Whether the key holds state only detached queries needed: stored
  /// slices evictable at `t` (their count goes to `*slices`), standalone
  /// windows or late starts of inactive slots.
  bool HasLeftovers(const KeyEntry& e, Timestamp t, uint64_t* slices) const;
  /// Takes over the key's backfill entries and late starts of queries
  /// attached since its epoch; appends the slots of taken-over backfills.
  void CatchUp(KeyEntry* e, std::vector<uint32_t>* fresh_slots);
  /// Fires every window of the key ending at or before `t`, then evicts
  /// what no pending window needs.
  void FireKey(KeyEntry* e, Timestamp t);
  void PruneLate(KeyState* ks) const;
  void Arm(uint32_t kid, KeyEntry* e);
  /// Times the key for the next watermark.
  void ArmSweep(uint32_t kid, KeyEntry* e);
  /// Arms a sweep at the current watermark for every key with leftovers
  /// and no pending window; returns the stored slices all keys with
  /// leftovers will release.
  uint64_t ArmLeftoverSweeps();
  void FireDueKeys(Timestamp wm);
  void AttachGridQuery(const QueryCommand& cmd);
  void DetachGridQuery(uint64_t query_id);
  /// Recomputes derived state (timers, slice count, caches) after restore.
  void RebuildDerived();
  void RefreshQueryIndex();

  // -- standing-query registry --------------------------------------------
  /// Polls the registry command log and applies new attach/detach commands
  /// to the query table; called at the end of each watermark (a
  /// deterministic point of the event-time order). Acks the applied prefix.
  void DrainRegistryCommands();

  // -- snapshots --------------------------------------------------------------
  void WriteMeta(BinaryWriter* w) const;
  Status ReadMeta(BinaryReader* r);
  void SnapshotKeyState(const KeyState& ks, BinaryWriter* w) const;
  Status RestoreKeyState(KeyState* ks, BinaryReader* r);

  std::string name_;
  WindowAggSpec spec_;
  DynAggAdapter adapter_;
  Mode mode_ = Mode::kGrid;

  using PendingEntry = std::pair<Record, uint64_t>;
  /// Min-heap order on (timestamp, arrival seq) -- `a` sorts after `b`.
  static bool PendingAfter(const PendingEntry& a, const PendingEntry& b) {
    if (a.first.timestamp != b.first.timestamp) {
      return a.first.timestamp > b.first.timestamp;
    }
    return a.second > b.second;
  }

  // Reorder buffer: records not yet covered by the watermark, kept as a
  // binary min-heap on (ts, seq). A watermark pops exactly the records it
  // covers, in apply order; nothing ever costs O(buffer) per watermark.
  // That bound matters: one slow input channel holds the min-watermark
  // back while fast channels keep buffering, so the buffer can reach
  // millions of records -- per-watermark sorting (or merging, or erasing a
  // prefix) of the whole buffer turns that stall into quadratic dispatch
  // cost and starves the scheduler.
  std::vector<PendingEntry> pending_;
  // Covered records popped off the heap, in (ts, seq) order; capacity
  // persists across watermarks.
  std::vector<PendingEntry> apply_scratch_;
  // Scratch for contiguous same-key runs handed to the per-key
  // aggregator's batch entry point; capacity persists across watermarks.
  std::vector<Timestamp> run_ts_;
  std::vector<DynAggAdapter::Input> run_in_;
  uint64_t seq_ = 0;
  Timestamp current_wm_ = kMinTimestamp;

  // Grid path: the query table and what is derived from it.
  std::vector<GridQuery> queries_;
  uint64_t applied_seq_ = 0;
  std::vector<uint32_t> shared_slots_;      // active shared slots, ascending
  std::vector<uint32_t> standalone_slots_;  // active standalone slots
  uint64_t attach_epoch_ = 0;  // highest seq among active shared queries
  bool derived_valid_ = true;
  // LiveCut cache: the cut for timestamps in [cut_lo_, cut_hi_).
  bool cut_valid_ = false;
  Timestamp cut_lo_ = 0;
  Timestamp cut_hi_ = 0;
  Timestamp cut_ = kMinTimestamp;
  // Min-heap of (next window end, key index); an entry is live while it
  // matches the key's `timer`.
  std::vector<std::pair<Timestamp, uint32_t>> timers_;
  uint64_t stored_slices_ = 0;  // slices held besides each key's open one
  AggStats grid_stats_;
  // Per-call scratch.
  struct DueWindow {
    Timestamp end;
    uint32_t slot;
    Timestamp start;
    bool standalone;
    size_t index;  // position in the key's standalone or slice list
  };
  std::vector<DueWindow> due_;
  std::vector<DynPartial> suffix_;
  std::vector<uint32_t> fresh_slots_;
  std::vector<uint32_t> due_keys_;

  std::string worker_name_;  // "<operator>:<subtask>", the registry's id
  // The job MetricsRegistry handed to the registry in Open; unbound in the
  // destructor so a registry outliving this job never writes into it.
  MetricsRegistry* bound_metrics_ = nullptr;

  FlatHashMap<Value, KeyState> keys_;
  KeyedChangelog changelog_;
  // Hash of the synthetic key used when spec_.key is null (global windows);
  // computed on first use (KeyHashOf never returns 0).
  uint64_t global_key_hash_ = 0;
  Collector* current_out_ = nullptr;

  // Keyed-state observability (null when the job exposes no registry).
  Gauge* load_gauge_ = nullptr;
  Gauge* probe_gauge_ = nullptr;
  Gauge* keys_gauge_ = nullptr;
};

}  // namespace streamline

#endif  // STREAMLINE_DATAFLOW_WINDOW_OPERATOR_H_

#ifndef STREAMLINE_AGG_SLICING_AGGREGATOR_H_
#define STREAMLINE_AGG_SLICING_AGGREGATOR_H_

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "agg/aggregator.h"
#include "agg/slice_store.h"
#include "common/logging.h"
#include "window/aggregate_fn.h"

namespace streamline {

/// Cutty's aggregate-sharing aggregator (Carbone et al., CIKM 2016).
///
/// Core idea: cut the stream into *slices* at every window begin declared by
/// any registered query. Then (a) each record updates exactly ONE running
/// partial — the open slice — regardless of how many windows overlap it, and
/// (b) a window result is the in-order combination of the stored slice
/// partials it spans plus the open slice. The slice store is shared by all
/// queries, which is the paper's "multi query aggregation sharing"; because
/// window begins/ends come from arbitrary deterministic WindowFunctions,
/// non-periodic windows (sessions, punctuations, count windows) share too.
///
/// Multi-tenancy: queries live in *slots* and may attach (AttachQuery) and
/// detach (DetachQuery) while the stream is running. Attach fast-forwards
/// the window function past the attach point and backfills from live slices
/// where the new query's begin grid coincides with existing cut points, so
/// the first results can cover pre-attach data; detach frees its slot (the
/// next attach reuses it) and immediately garbage-collects slices no
/// remaining query references.
///
/// Scheduling: periodic window functions publish their next boundary
/// (NextWakeup / NextWatermarkWakeup); the slicer keeps them in lazy
/// min-heaps and polls only the *due* queries at each boundary crossing, so
/// both the per-record and the per-watermark cost are independent of the
/// number of registered periodic queries (O(due * log n), not O(n)).
///
/// Store choice:
///   * FlatFatStore — O(log n) fires, any aggregate (default).
///   * LinearStore  — O(slices-per-window) fires, "lazy" variant.
///   * PrefixStore  — O(1) fires, invertible aggregates only.
template <typename Agg, typename Store = FlatFatStore<Agg>>
class SlicingAggregator : public WindowAggregator<Agg> {
 public:
  using Input = typename Agg::Input;
  using Partial = typename Agg::Partial;
  using Output = typename Agg::Output;
  using ResultCallback = typename WindowAggregator<Agg>::ResultCallback;

  struct Options {
    /// Close a slice before every element (one leaf per tuple). Used to
    /// emulate per-tuple aggregate trees (B-Int) for comparison.
    bool slice_per_element = false;
    /// Run eviction every this many elements.
    uint64_t eviction_period = 128;
    /// Ablation: poll every window function on every element instead of
    /// skipping periodic functions between their published boundaries.
    bool disable_wakeup_fastpath = false;
  };

  explicit SlicingAggregator(Agg agg = Agg(), Options options = Options())
      : agg_(std::move(agg)),
        options_(options),
        store_(agg_),
        open_partial_(agg_.Identity()) {}

  size_t AddQuery(std::unique_ptr<WindowFunction> wf,
                  ResultCallback cb) override {
    STREAMLINE_CHECK_EQ(stats_.elements, 0u)
        << "use AttachQuery to register queries mid-stream";
    return AddSlot(std::move(wf), std::move(cb));
  }

  /// Registers a query on a (possibly) running aggregator. The window
  /// function is fast-forwarded to the attach point (windows beginning
  /// strictly after the last element are served from live data); for
  /// periodic windows whose begin grid lines up with existing cut points,
  /// the attach backfills: the first fired windows extend back over intact
  /// pre-attach slices and are byte-identical to a from-start query.
  /// Returns the slot id (reported to result callbacks; the lowest
  /// detached slot is reused).
  size_t AttachQuery(std::unique_ptr<WindowFunction> wf, ResultCallback cb) {
    last_attach_backfilled_ = false;
    last_attach_backfill_slices_ = 0;
    if (stats_.elements > 0) {
      wf->AttachAt(last_ts_);
      if (auto* sliding = dynamic_cast<SlidingWindowFn*>(wf.get())) {
        TryBackfill(sliding);
      }
    }
    return AddSlot(std::move(wf), std::move(cb));
  }

  /// Unregisters the query in `slot` and immediately evicts every slice no
  /// remaining query needs. The slot is released for the next attach; a
  /// snapshot records it as detached until then. Returns the number of
  /// slices freed by the eviction.
  size_t DetachQuery(size_t slot) {
    STREAMLINE_CHECK(slot < queries_.size() &&
                     queries_[slot].wf != nullptr)
        << "detach of unknown or already-detached query slot " << slot;
    queries_[slot].wf.reset();
    queries_[slot].cb = nullptr;
    --active_queries_;
    if (sched_valid_) {
      if (q_elem_wakeup_[slot] == kMinTimestamp) {
        SortedErase(&always_poll_queries_, slot);
      }
      if (q_wm_wakeup_[slot] == kMinTimestamp) {
        SortedErase(&always_wm_queries_, slot);
      }
      // Heap entries for this slot die lazily against these sentinels.
      q_elem_wakeup_[slot] = kMaxTimestamp;
      q_wm_wakeup_[slot] = kMaxTimestamp;
    }
    const size_t before = store_.size();
    Evict();
    return before - store_.size();
  }

  /// Registers a window function whose *begins* add slice boundaries but
  /// whose window completions are ignored. Used to emulate the extra cut
  /// points of Pairs (window ends) and Panes (gcd grid).
  void AddBoundaryGenerator(std::unique_ptr<WindowFunction> wf) {
    STREAMLINE_CHECK_EQ(stats_.elements, 0u);
    boundary_gens_.push_back(std::move(wf));
    sched_valid_ = false;
  }

  void ClearBoundaryGenerators() {
    STREAMLINE_CHECK_EQ(stats_.elements, 0u);
    boundary_gens_.clear();
    sched_valid_ = false;
  }

  using WindowAggregator<Agg>::OnElement;

  void OnElement(Timestamp ts, const Input& value,
                 const Value& payload) override {
    STREAMLINE_DCHECK(stats_.elements == 0 || ts >= last_ts_);
    last_ts_ = ts;
    if (!sched_valid_) RebuildSchedule();

    // 1) Collect window events, merge them in (at, end-before-begin) order
    //    and apply them. All of this happens BEFORE the element is
    //    aggregated: completed windows must not include it, and any begin
    //    <= ts must cut its slice first.
    //
    //    Fast path: only the *due* periodic functions (wakeup <= ts, popped
    //    off a min-heap) plus the data-driven ("always poll") functions are
    //    consulted, so the slicer's per-record cost does not grow with the
    //    number of registered periodic queries.
    const bool heap_due = ts >= wakeup_threshold_;
    if (heap_due || !always_poll_queries_.empty() ||
        !always_poll_gens_.empty()) {
      CollectElementEvents(ts, payload, heap_due);
      ProcessEvents();
      if (heap_due) wakeup_threshold_ = ElemHeapMin();
    }

    if (options_.slice_per_element && has_open_data_) {
      CloseSliceAt(ts);
    }

    // 2) The single per-record aggregation: fold the element into the open
    //    slice. This is the paper's one-partial-update-per-record property.
    if (!has_open_slice_) {
      // No query declared a begin <= ts (possible with slide > range
      // sampling windows); open an implicit slice so the element is kept
      // until eviction decides otherwise.
      has_open_slice_ = true;
      open_start_ = ts;
    }
    open_partial_ = agg_.Combine(open_partial_, agg_.Lift(value));
    has_open_data_ = true;
    ++stats_.partial_updates;
    ++stats_.elements;

    // 3) Data-driven completions (count windows) fire after aggregation so
    //    the current element is included. Only data-driven functions have
    //    AfterElement events.
    if (!always_poll_queries_.empty()) {
      CollectAfterElementEvents(ts, payload);
      ProcessEvents();
    }

    if (stats_.elements % options_.eviction_period == 0) Evict();
    UpdatePeak();
  }

  /// Batch entry point. Elements strictly below the published wakeup
  /// threshold cannot produce window events (no begins, no ends, no slice
  /// cuts), so a whole run of them folds into the open slice with one
  /// contiguous AggFoldSpan kernel call -- same left-to-right association as
  /// per-element Combine, so results are bit-identical. Elements at or past
  /// the threshold (and all elements when a data-driven query is registered
  /// or the slicer emulates per-tuple slices) fall back to OnElement.
  void OnElements(const Timestamp* ts, const Input* values,
                  size_t n) override {
    if (!sched_valid_) RebuildSchedule();
    size_t i = 0;
    while (i < n) {
      const bool fast =
          !options_.slice_per_element &&
          always_poll_queries_.empty() && always_poll_gens_.empty() &&
          ts[i] < wakeup_threshold_;
      if (!fast) {
        OnElement(ts[i], values[i], Value());
        ++i;
        continue;
      }
      size_t j = i + 1;
      while (j < n && ts[j] < wakeup_threshold_) ++j;
      STREAMLINE_DCHECK(stats_.elements == 0 || ts[i] >= last_ts_);
      if (!has_open_slice_) {
        has_open_slice_ = true;
        open_start_ = ts[i];
      }
      AggFoldSpan(agg_, &open_partial_, values + i, j - i);
      has_open_data_ = true;
      last_ts_ = ts[j - 1];
      const uint64_t before = stats_.elements;
      stats_.elements += j - i;
      stats_.partial_updates += j - i;
      // Same eviction cadence as per-element: evict iff the run crossed an
      // eviction-period boundary (Evict is idempotent while no window
      // events intervene, so once per run equals once per crossing).
      if (before / options_.eviction_period !=
          stats_.elements / options_.eviction_period) {
        Evict();
      }
      UpdatePeak();
      i = j;
    }
  }

  void OnWatermark(Timestamp wm) override {
    if (!sched_valid_) RebuildSchedule();
    // Watermarks only complete windows; poll the queries whose next window
    // end is covered (wm min-heap) plus the data-driven ones. Boundary
    // generators contribute begins only, so they are never watermark-polled.
    poll_queries_.assign(always_wm_queries_.begin(), always_wm_queries_.end());
    while (!wm_heap_.empty() && wm_heap_.front().first <= wm) {
      const auto [at, q] = wm_heap_.front();
      PopHeap(&wm_heap_);
      if (q_wm_wakeup_[q] != at) continue;  // stale (re-armed or detached)
      q_wm_wakeup_[q] = kMaxTimestamp;
      poll_queries_.push_back(q);
    }
    std::sort(poll_queries_.begin(), poll_queries_.end());
    events_.clear();
    for (size_t q : poll_queries_) {
      scratch_.clear();
      queries_[q].wf->OnWatermark(wm, &scratch_);
      for (const WindowEvent& e : scratch_) {
        events_.push_back(TaggedEvent{e, q, /*boundary_only=*/false});
      }
      ArmQuery(q, /*force_needed=*/false);
    }
    SortEvents();
    ProcessEvents();
    Evict();
    UpdatePeak();
    wakeup_threshold_ = ElemHeapMin();
  }

  const AggStats& stats() const override {
    // Fold store-side combines into the reported counters.
    cached_stats_ = stats_;
    cached_stats_.combine_ops = fire_combine_ops_ + store_.combine_ops();
    return cached_stats_;
  }

  std::string name() const override {
    return options_.slice_per_element ? "slicing(per-tuple)" : "cutty";
  }

  /// Number of slices currently held in the shared store.
  size_t stored_slices() const { return store_.size(); }
  /// Total slots ever allocated (attached + detached).
  size_t num_slots() const { return queries_.size(); }
  /// Currently attached queries.
  size_t active_queries() const { return active_queries_; }
  /// Whether the most recent AttachQuery backfilled pre-attach windows.
  bool last_attach_backfilled() const { return last_attach_backfilled_; }
  /// Stored slices the most recent backfilled attach reuses.
  uint64_t last_attach_backfill_slices() const {
    return last_attach_backfill_slices_;
  }

  /// Serializes the full aggregation state (open slice, per-query window
  /// progress, shared store, counters) for engine checkpoints. Detached
  /// slots are recorded as inactive so the slot layout round-trips.
  /// `ser(partial, writer)` encodes one Partial.
  template <typename SerFn>
  void Snapshot(BinaryWriter* w, const SerFn& ser) const {
    w->WriteBool(has_open_slice_);
    w->WriteBool(has_open_data_);
    w->WriteI64(open_start_);
    ser(open_partial_, w);
    w->WriteI64(last_ts_);
    w->WriteU64(queries_.size());
    for (const QueryState& q : queries_) {
      w->WriteBool(q.wf != nullptr);
      if (q.wf) q.wf->SnapshotState(w);
    }
    w->WriteU64(boundary_gens_.size());
    for (const auto& g : boundary_gens_) g->SnapshotState(w);
    store_.Snapshot(w, ser);
    w->WriteU64(stats_.elements);
    w->WriteU64(stats_.partial_updates);
    w->WriteU64(stats_.fires);
    w->WriteU64(stats_.slices_created);
    w->WriteU64(stats_.peak_stored);
    w->WriteU64(fire_combine_ops_);
  }

  /// Restores a snapshot taken by an identically configured aggregator
  /// (same slot layout incl. detached holes, same boundary generators, same
  /// store type).
  template <typename DeFn>
  Status Restore(BinaryReader* r, const DeFn& de) {
    auto open_slice = r->ReadBool();
    if (!open_slice.ok()) return open_slice.status();
    auto open_data = r->ReadBool();
    if (!open_data.ok()) return open_data.status();
    auto open_start = r->ReadI64();
    if (!open_start.ok()) return open_start.status();
    auto open_partial = de(r);
    if (!open_partial.ok()) return open_partial.status();
    auto last_ts = r->ReadI64();
    if (!last_ts.ok()) return last_ts.status();
    auto nq = r->ReadU64();
    if (!nq.ok()) return nq.status();
    if (*nq != queries_.size()) {
      return Status::FailedPrecondition(
          "snapshot has " + std::to_string(*nq) + " queries, aggregator has " +
          std::to_string(queries_.size()));
    }
    for (QueryState& q : queries_) {
      auto active = r->ReadBool();
      if (!active.ok()) return active.status();
      if (*active != (q.wf != nullptr)) {
        return Status::FailedPrecondition(
            "snapshot query slot active/detached state mismatch");
      }
      if (q.wf) STREAMLINE_RETURN_IF_ERROR(q.wf->RestoreState(r));
    }
    auto ng = r->ReadU64();
    if (!ng.ok()) return ng.status();
    if (*ng != boundary_gens_.size()) {
      return Status::FailedPrecondition("boundary generator count mismatch");
    }
    for (auto& g : boundary_gens_) {
      STREAMLINE_RETURN_IF_ERROR(g->RestoreState(r));
    }
    STREAMLINE_RETURN_IF_ERROR(store_.Restore(r, de));
    has_open_slice_ = *open_slice;
    has_open_data_ = *open_data;
    open_start_ = *open_start;
    open_partial_ = std::move(*open_partial);
    last_ts_ = *last_ts;
    auto read_u64 = [&](uint64_t* out) -> Status {
      auto v = r->ReadU64();
      if (!v.ok()) return v.status();
      *out = *v;
      return Status::Ok();
    };
    STREAMLINE_RETURN_IF_ERROR(read_u64(&stats_.elements));
    STREAMLINE_RETURN_IF_ERROR(read_u64(&stats_.partial_updates));
    STREAMLINE_RETURN_IF_ERROR(read_u64(&stats_.fires));
    STREAMLINE_RETURN_IF_ERROR(read_u64(&stats_.slices_created));
    STREAMLINE_RETURN_IF_ERROR(read_u64(&stats_.peak_stored));
    STREAMLINE_RETURN_IF_ERROR(read_u64(&fire_combine_ops_));
    sched_valid_ = false;  // heaps rebuilt on the next element/watermark
    return Status::Ok();
  }

 protected:
  const Agg& agg() const { return agg_; }

 private:
  struct QueryState {
    std::unique_ptr<WindowFunction> wf;  // null = detached slot
    ResultCallback cb;
  };

  struct TaggedEvent {
    WindowEvent event;
    size_t query;
    bool boundary_only;
  };

  // Boundary-generator ids share the element heap with query ids; the top
  // bit tells them apart (slot counts never get near 2^63).
  static constexpr size_t kGenIdFlag = size_t{1} << 63;

  using HeapEntry = std::pair<Timestamp, size_t>;

  static void PushHeap(std::vector<HeapEntry>* h, Timestamp at, size_t id) {
    h->emplace_back(at, id);
    std::push_heap(h->begin(), h->end(), std::greater<>());
  }
  static void PopHeap(std::vector<HeapEntry>* h) {
    std::pop_heap(h->begin(), h->end(), std::greater<>());
    h->pop_back();
  }
  static void SortedInsert(std::vector<size_t>* v, size_t id) {
    v->insert(std::lower_bound(v->begin(), v->end(), id), id);
  }
  static void SortedErase(std::vector<size_t>* v, size_t id) {
    auto it = std::lower_bound(v->begin(), v->end(), id);
    if (it != v->end() && *it == id) v->erase(it);
  }

  size_t AddSlot(std::unique_ptr<WindowFunction> wf, ResultCallback cb) {
    size_t slot = 0;
    while (slot < queries_.size() && queries_[slot].wf != nullptr) ++slot;
    const bool reused = slot < queries_.size();
    if (reused) {
      queries_[slot] = QueryState{std::move(wf), std::move(cb)};
    } else {
      queries_.push_back(QueryState{std::move(wf), std::move(cb)});
    }
    ++active_queries_;
    if (sched_valid_) ScheduleSlot(slot, reused);
    return slot;
  }

  // Backfill pass of AttachQuery: walk the new query's begin grid downward
  // from the attach point while each grid point is an intact cut (a
  // retained stored-slice start, or the open slice's start). Every window
  // beginning at such a point combines exactly the elements >= that cut, so
  // lowering the query's first window end to the earliest intact begin
  // serves correct pre-attach results from shared state. The walk stops at
  // the first missing cut: a stored slice might span that grid point, and a
  // spanned begin would leak older elements into the window.
  void TryBackfill(SlidingWindowFn* wf) {
    const Timestamp lo = last_ts_ - wf->range();  // begins must be > lo
    Timestamp b = wf->NextGridPointAfter(last_ts_) - wf->slide();
    Timestamp earliest = kMaxTimestamp;
    while (b > lo && HasIntactCutAt(b)) {
      earliest = b;
      b -= wf->slide();
    }
    if (earliest == kMaxTimestamp) return;
    wf->BackfillTo(earliest);
    last_attach_backfilled_ = true;
    last_attach_backfill_slices_ =
        store_.EndIndex() - store_.LowerBound(earliest);
  }

  bool HasIntactCutAt(Timestamp t) const {
    if (has_open_slice_ && open_start_ == t) return true;
    return store_.HasCutAt(t);
  }

  // ---- scheduling ---------------------------------------------------------

  void RebuildSchedule() {
    const size_t nq = queries_.size();
    const size_t ng = boundary_gens_.size();
    q_elem_wakeup_.assign(nq, kMaxTimestamp);
    q_wm_wakeup_.assign(nq, kMaxTimestamp);
    g_elem_wakeup_.assign(ng, kMaxTimestamp);
    always_poll_queries_.clear();
    always_wm_queries_.clear();
    always_poll_gens_.clear();
    elem_heap_.clear();
    wm_heap_.clear();
    needed_heap_.clear();
    wakeup_threshold_ = kMaxTimestamp;
    sched_valid_ = true;
    if (options_.disable_wakeup_fastpath) {
      // Ablation: everything is polled on every element and watermark.
      for (size_t q = 0; q < nq; ++q) {
        if (queries_[q].wf == nullptr) continue;
        q_elem_wakeup_[q] = kMinTimestamp;
        always_poll_queries_.push_back(q);
        q_wm_wakeup_[q] = kMinTimestamp;
        always_wm_queries_.push_back(q);
      }
      for (size_t g = 0; g < ng; ++g) {
        g_elem_wakeup_[g] = kMinTimestamp;
        always_poll_gens_.push_back(g);
      }
      return;
    }
    for (size_t q = 0; q < nq; ++q) {
      if (queries_[q].wf) ArmQuery(q, /*force_needed=*/true);
    }
    for (size_t g = 0; g < ng; ++g) ArmGen(g);
    wakeup_threshold_ = ElemHeapMin();
  }

  // A reused slot's wakeups were reset to kMaxTimestamp at detach; heap
  // entries left from its previous query die against the new wakeups (or
  // cause one harmless early poll).
  void ScheduleSlot(size_t slot, bool reused) {
    if (!reused) {
      q_elem_wakeup_.push_back(kMaxTimestamp);
      q_wm_wakeup_.push_back(kMaxTimestamp);
    }
    if (options_.disable_wakeup_fastpath) {
      q_elem_wakeup_[slot] = kMinTimestamp;
      SortedInsert(&always_poll_queries_, slot);
      q_wm_wakeup_[slot] = kMinTimestamp;
      SortedInsert(&always_wm_queries_, slot);
      return;
    }
    ArmQuery(slot, /*force_needed=*/true);
  }

  /// Re-publishes both wakeup channels of query `q` after a poll (or at
  /// registration). Membership moves between the always-poll lists (wakeup
  /// == kMinTimestamp) and the min-heaps; a query migrating out of
  /// always-poll (or force-registered) enters the eviction lower-bound heap.
  void ArmQuery(size_t q, bool force_needed) {
    if (options_.disable_wakeup_fastpath) return;
    WindowFunction* wf = queries_[q].wf.get();
    const bool was_always = q_elem_wakeup_[q] == kMinTimestamp;
    const Timestamp we = wf->NextWakeup();
    if (we != q_elem_wakeup_[q]) {
      if (was_always) SortedErase(&always_poll_queries_, q);
      q_elem_wakeup_[q] = we;
      if (we == kMinTimestamp) {
        SortedInsert(&always_poll_queries_, q);
      } else if (we != kMaxTimestamp) {
        PushHeap(&elem_heap_, we, q);
        wakeup_threshold_ = std::min(wakeup_threshold_, we);
      }
    }
    const Timestamp ww = wf->NextWatermarkWakeup();
    if (ww != q_wm_wakeup_[q]) {
      if (q_wm_wakeup_[q] == kMinTimestamp) {
        SortedErase(&always_wm_queries_, q);
      }
      q_wm_wakeup_[q] = ww;
      if (ww == kMinTimestamp) {
        SortedInsert(&always_wm_queries_, q);
      } else if (ww != kMaxTimestamp) {
        PushHeap(&wm_heap_, ww, q);
      }
    }
    if (q_elem_wakeup_[q] != kMinTimestamp && (was_always || force_needed)) {
      const Timestamp need = wf->OldestNeededBegin();
      if (need != kMaxTimestamp) PushHeap(&needed_heap_, need, q);
    }
  }

  void ArmGen(size_t g) {
    if (options_.disable_wakeup_fastpath) return;
    const Timestamp w = boundary_gens_[g]->NextWakeup();
    if (w == g_elem_wakeup_[g]) return;
    if (g_elem_wakeup_[g] == kMinTimestamp) {
      SortedErase(&always_poll_gens_, g);
    }
    g_elem_wakeup_[g] = w;
    if (w == kMinTimestamp) {
      SortedInsert(&always_poll_gens_, g);
    } else if (w != kMaxTimestamp) {
      PushHeap(&elem_heap_, w, g | kGenIdFlag);
      wakeup_threshold_ = std::min(wakeup_threshold_, w);
    }
  }

  /// Min over live element-heap entries; drops stale tops (an entry is
  /// stale when its value no longer matches the id's armed wakeup).
  Timestamp ElemHeapMin() {
    while (!elem_heap_.empty()) {
      const auto [at, id] = elem_heap_.front();
      const Timestamp cur = (id & kGenIdFlag)
                                ? g_elem_wakeup_[id & ~kGenIdFlag]
                                : q_elem_wakeup_[id];
      if (cur == at) return at;
      PopHeap(&elem_heap_);
    }
    return kMaxTimestamp;
  }

  // ---- polling ------------------------------------------------------------

  /// Polls the data-driven functions plus (when `heap_due`) every periodic
  /// function whose wakeup is covered by `ts`, in ascending slot order (the
  /// order the full scan used, so event tie-breaking is unchanged).
  void CollectElementEvents(Timestamp ts, const Value& payload,
                            bool heap_due) {
    poll_queries_.assign(always_poll_queries_.begin(),
                         always_poll_queries_.end());
    poll_gens_.assign(always_poll_gens_.begin(), always_poll_gens_.end());
    if (heap_due) {
      while (!elem_heap_.empty() && elem_heap_.front().first <= ts) {
        const auto [at, id] = elem_heap_.front();
        PopHeap(&elem_heap_);
        if (id & kGenIdFlag) {
          const size_t g = id & ~kGenIdFlag;
          if (g_elem_wakeup_[g] != at) continue;  // stale
          g_elem_wakeup_[g] = kMaxTimestamp;
          poll_gens_.push_back(g);
        } else {
          if (q_elem_wakeup_[id] != at) continue;  // stale
          q_elem_wakeup_[id] = kMaxTimestamp;
          poll_queries_.push_back(id);
        }
      }
      std::sort(poll_queries_.begin(), poll_queries_.end());
      std::sort(poll_gens_.begin(), poll_gens_.end());
    }
    events_.clear();
    for (size_t q : poll_queries_) {
      scratch_.clear();
      queries_[q].wf->OnElement(ts, payload, &scratch_);
      for (const WindowEvent& e : scratch_) {
        events_.push_back(TaggedEvent{e, q, false});
      }
      ArmQuery(q, /*force_needed=*/false);
    }
    for (size_t g : poll_gens_) {
      scratch_.clear();
      boundary_gens_[g]->OnElement(ts, payload, &scratch_);
      for (const WindowEvent& e : scratch_) {
        if (e.kind == WindowEvent::Kind::kBegin) {
          events_.push_back(TaggedEvent{e, 0, true});
        }
      }
      ArmGen(g);
    }
    SortEvents();
  }

  void CollectAfterElementEvents(Timestamp ts, const Value& payload) {
    events_.clear();
    // Only data-driven functions produce AfterElement events, and polling
    // never changes their always-poll membership (they stay data-driven).
    for (size_t q : always_poll_queries_) {
      scratch_.clear();
      queries_[q].wf->AfterElement(ts, payload, &scratch_);
      for (const WindowEvent& e : scratch_) {
        events_.push_back(TaggedEvent{e, q, false});
      }
    }
    SortEvents();
  }

  void SortEvents() {
    if (events_.size() < 2) return;
    std::stable_sort(events_.begin(), events_.end(),
                     [](const TaggedEvent& a, const TaggedEvent& b) {
                       if (a.event.at != b.event.at) {
                         return a.event.at < b.event.at;
                       }
                       // Ends before begins at the same instant.
                       return a.event.kind == WindowEvent::Kind::kEnd &&
                              b.event.kind == WindowEvent::Kind::kBegin;
                     });
  }

  void ProcessEvents() {
    for (const TaggedEvent& te : events_) {
      if (te.event.kind == WindowEvent::Kind::kBegin) {
        CloseSliceAt(te.event.at);
      } else if (!te.boundary_only) {
        Fire(te.query, te.event.window);
      }
    }
    events_.clear();
  }

  // Cuts a slice boundary at time `at`: pushes the open slice (if it holds
  // data) into the shared store and opens a fresh slice starting at `at`.
  void CloseSliceAt(Timestamp at) {
    if (has_open_slice_ && at == open_start_ && !has_open_data_) {
      return;  // duplicate boundary from another query
    }
    if (has_open_slice_ && has_open_data_) {
      store_.Append(open_start_, std::move(open_partial_));
      open_partial_ = agg_.Identity();
      ++stats_.slices_created;
    }
    has_open_slice_ = true;
    has_open_data_ = false;
    open_start_ = at;
  }

  void Fire(size_t query, const Window& w) {
    const size_t i = store_.LowerBound(w.start);
    const size_t j = store_.LowerBound(w.end);
    Partial result = store_.RangeCombine(i, j);
    if (has_open_slice_ && has_open_data_ && open_start_ < w.end &&
        open_start_ >= w.start) {
      result = agg_.Combine(result, open_partial_);
      ++fire_combine_ops_;
    }
    ++stats_.fires;
    if (queries_[query].cb) {
      queries_[query].cb(query, w, agg_.Lower(result));
    }
  }

  /// Slice GC. Data-driven queries are re-scanned eagerly (their needed
  /// begin may move backward); periodic queries sit in a lazy min-heap of
  /// lower bounds (OldestNeededBegin is non-decreasing for them, see the
  /// NextWakeup contract), so the scan cost is O(stale), not O(queries).
  void Evict() {
    Timestamp needed = kMaxTimestamp;
    if (!sched_valid_) {
      for (const QueryState& q : queries_) {
        if (q.wf) needed = std::min(needed, q.wf->OldestNeededBegin());
      }
    } else {
      for (size_t q : always_poll_queries_) {
        needed = std::min(needed, queries_[q].wf->OldestNeededBegin());
      }
      while (!needed_heap_.empty()) {
        const auto [at, q] = needed_heap_.front();
        if (queries_[q].wf == nullptr ||
            q_elem_wakeup_[q] == kMinTimestamp) {
          PopHeap(&needed_heap_);  // detached, or migrated to always-poll
          continue;
        }
        const Timestamp cur = queries_[q].wf->OldestNeededBegin();
        if (cur > at) {
          PopHeap(&needed_heap_);
          if (cur != kMaxTimestamp) PushHeap(&needed_heap_, cur, q);
          continue;
        }
        needed = std::min(needed, cur);
        break;  // every other periodic entry is >= at >= cur
      }
    }
    if (needed == kMaxTimestamp) {
      // No pending window: everything stored is garbage.
      store_.EvictBefore(store_.EndIndex());
      return;
    }
    store_.EvictBefore(store_.LowerBound(needed));
  }

  void UpdatePeak() {
    stats_.peak_stored =
        std::max<uint64_t>(stats_.peak_stored, store_.size());
  }

  Agg agg_;
  Options options_;
  Store store_;
  std::vector<QueryState> queries_;
  size_t active_queries_ = 0;
  std::vector<std::unique_ptr<WindowFunction>> boundary_gens_;

  bool has_open_slice_ = false;
  bool has_open_data_ = false;
  Timestamp open_start_ = 0;
  Partial open_partial_;
  Timestamp last_ts_ = kMinTimestamp;

  // Slicer scheduling (see OnElement/OnWatermark). Heaps hold (wakeup, id)
  // entries; an entry is live iff its value matches the id's armed wakeup
  // (q_elem_wakeup_/q_wm_wakeup_/g_elem_wakeup_), stale entries are skipped
  // on pop. kMinTimestamp = member of the matching always-poll list;
  // kMaxTimestamp = unscheduled (detached slot or no future event).
  bool sched_valid_ = false;
  Timestamp wakeup_threshold_ = kMinTimestamp;
  std::vector<HeapEntry> elem_heap_;
  std::vector<HeapEntry> wm_heap_;
  std::vector<HeapEntry> needed_heap_;
  std::vector<Timestamp> q_elem_wakeup_;
  std::vector<Timestamp> q_wm_wakeup_;
  std::vector<Timestamp> g_elem_wakeup_;
  std::vector<size_t> always_poll_queries_;  // sorted slot ids
  std::vector<size_t> always_wm_queries_;
  std::vector<size_t> always_poll_gens_;
  std::vector<size_t> poll_queries_;  // per-call scratch
  std::vector<size_t> poll_gens_;

  bool last_attach_backfilled_ = false;
  uint64_t last_attach_backfill_slices_ = 0;

  WindowEvents scratch_;
  std::vector<TaggedEvent> events_;
  AggStats stats_;
  mutable AggStats cached_stats_;
  uint64_t fire_combine_ops_ = 0;
};

}  // namespace streamline

#endif  // STREAMLINE_AGG_SLICING_AGGREGATOR_H_

#include "dataflow/window_operator.h"

#include <algorithm>
#include <tuple>

#include "common/logging.h"

namespace streamline {
namespace {

void SerializeDynPartial(const DynPartial& p, BinaryWriter* w) {
  DynAggregate::SerializePartial(p, w);
}

Result<DynPartial> DeserializeDynPartial(BinaryReader* r) {
  return DynAggregate::DeserializePartial(r);
}

template <typename T>
Status ReadTo(Result<T> read, T* out) {
  if (!read.ok()) return read.status();
  *out = std::move(*read);
  return Status::Ok();
}

Timestamp FloorToGrid(Timestamp ts, Timestamp origin, Duration step) {
  const Timestamp d = ts - origin;
  const Timestamp q = d >= 0 ? d / step : (d - step + 1) / step;
  return origin + q * step;
}

Timestamp CeilToGrid(Timestamp ts, Timestamp origin, Duration step) {
  const Timestamp f = FloorToGrid(ts, origin, step);
  return f == ts ? ts : f + step;
}

}  // namespace

WindowAggOperator::WindowAggOperator(std::string name, WindowAggSpec spec)
    : name_(std::move(name)),
      spec_(std::move(spec)),
      adapter_(spec_.agg_kind) {
  STREAMLINE_CHECK(!spec_.windows.empty())
      << "WindowAggSpec needs at least one window definition";
  if (spec_.backend == WindowBackend::kEager) {
    mode_ = Mode::kEager;
    return;
  }
  // The grid path needs every window's begins and ends to be a function of
  // time alone; one data-driven window sends the whole spec per key.
  const bool periodic = std::all_of(
      spec_.windows.begin(), spec_.windows.end(), [](const auto& proto) {
        return dynamic_cast<const SlidingWindowFn*>(proto.get()) != nullptr;
      });
  if (!periodic) {
    mode_ = Mode::kPerKey;
    return;
  }
  mode_ = Mode::kGrid;
  for (size_t i = 0; i < spec_.windows.size(); ++i) {
    const auto* w =
        dynamic_cast<const SlidingWindowFn*>(spec_.windows[i].get());
    GridQuery q;
    q.active = true;
    q.id = i;
    q.range = w->range();
    q.slide = w->slide();
    q.origin = w->origin();
    queries_.push_back(std::move(q));
  }
  RefreshQueryIndex();
}

WindowAggOperator::~WindowAggOperator() {
  if (spec_.registry != nullptr && bound_metrics_ != nullptr) {
    spec_.registry->UnbindMetrics(bound_metrics_);
  }
}

Status WindowAggOperator::Open(const OperatorContext& ctx) {
  worker_name_ = name_ + ":" + std::to_string(ctx.subtask_index);
  if (ctx.metrics != nullptr) {
    const std::string prefix = "op." + name_ + "." +
                               std::to_string(ctx.subtask_index) + ".state.";
    load_gauge_ = ctx.metrics->GetGauge(prefix + "load_factor");
    probe_gauge_ = ctx.metrics->GetGauge(prefix + "max_probe");
    keys_gauge_ = ctx.metrics->GetGauge(prefix + "keys");
  }
  if (spec_.registry != nullptr) {
    if (mode_ != Mode::kGrid) {
      return Status::InvalidArgument(
          "standing-query registry requires the shared window backend and "
          "periodic (tumbling or sliding) spec windows");
    }
    spec_.registry->RegisterWorker(worker_name_);
    bound_metrics_ = ctx.metrics;
    spec_.registry->BindMetrics(ctx.metrics);
  }
  if (mode_ == Mode::kEager) {
    // Eager per-window state supports periodic windows only (matching the
    // systems it models); verify the prototypes up front.
    for (const auto& proto : spec_.windows) {
      if (dynamic_cast<const SlidingWindowFn*>(proto.get()) == nullptr) {
        return Status::InvalidArgument(
            "eager window backend supports periodic windows only, got " +
            proto->Name());
      }
    }
  }
  return Status::Ok();
}

WindowAggOperator::KeyEntry* WindowAggOperator::GetOrCreateKey(
    const Value& key, uint64_t hash, bool* created) {
  auto [entry, inserted] = keys_.TryEmplace(hash, key);
  if (created != nullptr) *created = inserted;
  if (!inserted) return entry;
  KeyState* ks = &entry->second;
  ks->hash = hash;
  switch (mode_) {
    case Mode::kGrid:
      // Registry queries attached before the key existed serve it from
      // its first record.
      ks->epoch = applied_seq_;
      break;
    case Mode::kPerKey:
      ks->shared = std::make_unique<SharedAgg>(adapter_);
      for (const auto& proto : spec_.windows) {
        // The callback captures the key by value; `current_out_` points at
        // the collector of the call currently on the stack.
        Value key_copy = key;
        ks->shared->AddQuery(
            proto->Clone(),
            [this, key_copy](size_t query, const Window& w, const Value& v) {
              EmitResult(key_copy, query, w, v);
            });
      }
      break;
    case Mode::kEager:
      for (const auto& proto : spec_.windows) {
        EagerQueryState qs;
        qs.wf = proto->Clone();
        const auto* sliding =
            dynamic_cast<const SlidingWindowFn*>(qs.wf.get());
        STREAMLINE_CHECK(sliding != nullptr);
        qs.range = sliding->range();
        qs.slide = sliding->slide();
        qs.origin = sliding->origin();
        ks->eager.push_back(std::move(qs));
      }
      break;
  }
  return entry;
}

void WindowAggOperator::EmitResult(const Value& key, uint64_t query,
                                   const Window& w, const Value& result) {
  STREAMLINE_CHECK(current_out_ != nullptr);
  Record out;
  out.timestamp = w.end - 1;
  out.fields = {key, Value(w.start), Value(w.end),
                Value(static_cast<int64_t>(query)), result};
  current_out_->Emit(std::move(out));
}

void WindowAggOperator::ResolveKey(const Record& record, Value* key,
                                   uint64_t* hash) {
  if (spec_.key) {
    *key = spec_.key(record);
    // Hash-once: the upstream hash shuffle already stamped the key hash on
    // the record; only records injected outside a hash edge (tests,
    // restore) pay a hash here.
    *hash = record.has_key_hash() ? record.key_hash : KeyHashOf(*key);
  } else {
    *key = Value(int64_t{0});
    if (global_key_hash_ == 0) global_key_hash_ = KeyHashOf(*key);
    *hash = global_key_hash_;
  }
}

void WindowAggOperator::ProcessRecord(int, Record&& record, Collector* out) {
  (void)out;
  if (record.timestamp < current_wm_) {
    // Late record (violates upstream watermarks): dropped, the standard
    // allowed-lateness-zero policy.
    return;
  }
  pending_.emplace_back(std::move(record), seq_++);
  std::push_heap(pending_.begin(), pending_.end(), PendingAfter);
}

void WindowAggOperator::ProcessBatch(int, std::vector<Record>&& batch,
                                     Collector*) {
  // Windowing buffers until the watermark anyway, so the batch entry point
  // is just a bulk append into the reorder heap. Grow geometrically: an
  // exact reserve(size + batch) here would reallocate -- and move the whole
  // buffer -- on every batch once the buffer outgrows its capacity, which
  // turns a stalled watermark (records buffering, none applying) into
  // O(n^2) dispatch cost.
  const size_t needed = pending_.size() + batch.size();
  if (needed > pending_.capacity()) {
    pending_.reserve(std::max(needed, pending_.capacity() * 2));
  }
  for (Record& record : batch) {
    if (record.timestamp < current_wm_) continue;  // late: dropped
    pending_.emplace_back(std::move(record), seq_++);
    std::push_heap(pending_.begin(), pending_.end(), PendingAfter);
  }
  batch.clear();
}

void WindowAggOperator::ProcessWatermark(Timestamp wm, Collector* out) {
  current_out_ = out;
  // Hold the operator's event-time clock back by the allowed lateness:
  // records arriving up to that much behind the upstream watermark are
  // still sorted into place before windows fire.
  if (wm != kMaxTimestamp && spec_.allowed_lateness > 0) {
    wm = wm - spec_.allowed_lateness;
    if (wm <= current_wm_) return;
  }
  // Derived state is rebuilt at the restored watermark, so keys the last
  // drain armed for a sweep are armed alike.
  if (!derived_valid_) RebuildDerived();
  current_wm_ = std::max(current_wm_, wm);
  // Pop exactly the records this watermark covers, in (ts, arrival) order;
  // they can no longer be preceded by anything. Records still ahead of the
  // watermark never move -- the common stall (one slow input channel
  // holding the min-watermark back while fast channels keep buffering) is
  // O(1) per watermark no matter how large the buffer grows.
  apply_scratch_.clear();
  while (!pending_.empty() &&
         (wm == kMaxTimestamp || pending_.front().first.timestamp < wm)) {
    std::pop_heap(pending_.begin(), pending_.end(), PendingAfter);
    apply_scratch_.push_back(std::move(pending_.back()));
    pending_.pop_back();
  }
  if (mode_ == Mode::kGrid) {
    for (const PendingEntry& p : apply_scratch_) ApplyGridRecord(p.first);
    apply_scratch_.clear();
    // Only keys with a window ending at or before wm are visited.
    FireDueKeys(wm);
  } else {
    ApplyPerKeyRecords();
    // Advance every key's window clock: sessions and periodic windows fire
    // on time progress even for keys with no new records.
    for (auto& [key, ks] : keys_) {
      if (AdvanceKeyWatermark(key, &ks, wm)) changelog_.Upsert(key, ks.hash);
    }
  }
  // Attach/detach commands apply here -- the end of a watermark is a
  // deterministic point of the event-time order, so every subtask (and any
  // checkpoint replay) splices queries in at the same place.
  DrainRegistryCommands();
  UpdateStateGauges();
  current_out_ = nullptr;
}

// ---------------------------------------------------------------------------
// Per-key and eager paths.

void WindowAggOperator::ApplyPerKeyRecords() {
  // Only contiguous same-key runs go through the aggregator's batch entry
  // point, so element order within and across keys is exactly the
  // per-element order (byte-identical output). Payload-carrying specs stay
  // per-element: the batch API carries no payloads.
  const bool can_batch = mode_ == Mode::kPerKey && !spec_.payload;
  const size_t n_records = apply_scratch_.size();
  size_t applied = 0;
  while (applied < n_records) {
    const Record& record = apply_scratch_[applied].first;
    Value key;
    uint64_t hash;
    ResolveKey(record, &key, &hash);
    KeyState* ks = &GetOrCreateKey(key, hash, nullptr)->second;
    changelog_.Upsert(key, hash);
    if (!can_batch) {
      ApplyElement(key, ks, record);
      ++applied;
      continue;
    }
    // Extend the contiguous run of records with this key (for the global
    // key that is every in-bound record).
    size_t j = applied + 1;
    while (j < n_records) {
      if (spec_.key) {
        Value next_key;
        uint64_t next_hash;
        ResolveKey(apply_scratch_[j].first, &next_key, &next_hash);
        if (next_hash != hash || !(next_key == key)) break;
      }
      ++j;
    }
    const size_t n = j - applied;
    if (n == 1) {
      ApplyElement(key, ks, record);
    } else {
      run_ts_.clear();
      run_in_.clear();
      run_ts_.reserve(n);
      run_in_.reserve(n);
      for (size_t i = applied; i < j; ++i) {
        const Record& r = apply_scratch_[i].first;
        run_ts_.push_back(r.timestamp);
        run_in_.push_back(DynAggAdapter::Input{r.field(spec_.value_field),
                                               r.timestamp});
      }
      ks->shared->OnElements(run_ts_.data(), run_in_.data(), n);
    }
    applied = j;
  }
  apply_scratch_.clear();
}

void WindowAggOperator::ApplyElement(const Value& key, KeyState* ks,
                                     const Record& record) {
  (void)key;
  if (mode_ == Mode::kPerKey) {
    DynAggAdapter::Input in{record.field(spec_.value_field),
                            record.timestamp};
    const Value payload = spec_.payload ? spec_.payload(record) : Value();
    ks->shared->OnElement(record.timestamp, in, payload);
    return;
  }
  // Eager: fold the record into every open window of every query.
  const DynPartial lifted =
      adapter_.dyn.Lift(record.field(spec_.value_field), record.timestamp);
  for (EagerQueryState& qs : ks->eager) {
    const Timestamp ts = record.timestamp;
    for (Timestamp b = FloorToGrid(ts, qs.origin, qs.slide);
         b > ts - qs.range; b -= qs.slide) {
      const Window w{b, b + qs.range};
      auto it = std::lower_bound(
          qs.open.begin(), qs.open.end(), w,
          [](const auto& e, const Window& win) { return e.first < win; });
      if (it == qs.open.end() || it->first != w) {
        it = qs.open.insert(it, {w, adapter_.Identity()});
      }
      it->second = adapter_.Combine(it->second, lifted);
    }
  }
}

bool WindowAggOperator::EagerFire(const Value& key, KeyState* ks,
                                  Timestamp wm) {
  bool mutated = false;
  for (size_t q = 0; q < ks->eager.size(); ++q) {
    EagerQueryState& qs = ks->eager[q];
    // Sorted by (end, start): the fired windows are a prefix.
    size_t fired = 0;
    while (fired < qs.open.size() && qs.open[fired].first.end <= wm) {
      EmitResult(key, q, qs.open[fired].first,
                 adapter_.Lower(qs.open[fired].second));
      ++fired;
    }
    qs.open.erase(qs.open.begin(), qs.open.begin() + fired);
    mutated = mutated || fired > 0;
  }
  return mutated;
}

bool WindowAggOperator::AdvanceKeyWatermark(const Value& key, KeyState* ks,
                                            Timestamp wm) {
  if (mode_ == Mode::kEager) return EagerFire(key, ks, wm);
  // Any firing bumps `fires`; slice churn moves slices_created or the
  // store size; every other OnWatermark-reachable mutation is gated on one
  // of those.
  const uint64_t fires = ks->shared->stats().fires;
  const uint64_t created = ks->shared->stats().slices_created;
  const size_t stored = ks->shared->stored_slices();
  ks->shared->OnWatermark(wm);
  return ks->shared->stats().fires != fires ||
         ks->shared->stats().slices_created != created ||
         ks->shared->stored_slices() != stored;
}

// ---------------------------------------------------------------------------
// Grid path.
//
// Semantics are those of a per-key SlicingAggregator holding the spec
// windows from the key's first record and each registry query from the
// attach on (AttachQuery: windows beginning after the key's last record,
// backfilled over intact cuts). What the per-key aggregator keeps per key
// per query is derived here from the key's last record, its slice list,
// the operator watermark and the query table:
//  * A key's slice for record x starts at LiveCut(x) if that lies after
//    the key's previous record, else x joins the key's open slice -- the
//    per-key aggregator declares a begin only when a record falls in its
//    window, so this reproduces its cuts exactly.
//  * The key's pending windows all contain its last record; they fire
//    when time passes their end, before a later record is folded.
//  * A stored slice is garbage once it starts before every pending
//    window's begin (Needed); the open slice is kept.

void WindowAggOperator::RefreshQueryIndex() {
  shared_slots_.clear();
  standalone_slots_.clear();
  attach_epoch_ = 0;
  for (uint32_t s = 0; s < queries_.size(); ++s) {
    const GridQuery& q = queries_[s];
    if (!q.active) continue;
    if (q.placement == QueryPlacement::kShared) {
      shared_slots_.push_back(s);
      attach_epoch_ = std::max(attach_epoch_, q.seq);
    } else {
      standalone_slots_.push_back(s);
    }
  }
  cut_valid_ = false;
}

Timestamp WindowAggOperator::LiveCut(Timestamp x) {
  if (cut_valid_ && x >= cut_lo_ && x < cut_hi_) return cut_;
  Timestamp cut = kMinTimestamp;
  Timestamp hi = kMaxTimestamp;
  for (uint32_t s : shared_slots_) {
    const GridQuery& q = queries_[s];
    const Timestamp g = FloorToGrid(x, q.origin, q.slide);
    Timestamp change = g + q.slide;
    if (x - g < q.range) {
      cut = std::max(cut, g);
      change = std::min(change, g + q.range);
    }
    hi = std::min(hi, change);
  }
  cut_valid_ = true;
  cut_lo_ = x;
  cut_hi_ = hi;
  cut_ = cut;
  return cut;
}

void WindowAggOperator::ApplyGridRecord(const Record& record) {
  Value key;
  uint64_t hash;
  ResolveKey(record, &key, &hash);
  bool created = false;
  KeyEntry* e = GetOrCreateKey(key, hash, &created);
  const uint32_t kid = static_cast<uint32_t>(e - keys_.begin());
  KeyState& ks = e->second;
  changelog_.Upsert(key, hash);
  const Timestamp x = record.timestamp;
  bool rearm = created;
  if (!created) {
    // Windows ending at or before x exclude it: fire them first. A key
    // with nothing pending sweeps what detached queries left.
    if (x >= ks.timer) {
      const Timestamp next = NextFire(*e);
      if (next <= x ||
          (next == kMaxTimestamp && HasLeftovers(*e, x, nullptr))) {
        FireKey(e, x);
        rearm = true;
      }
    }
    if (ks.epoch < attach_epoch_) CatchUp(e, nullptr);
  }
  ks.fired_to = std::max(ks.fired_to, x);
  const DynPartial lifted =
      adapter_.dyn.Lift(record.field(spec_.value_field), x);
  const Timestamp cut = LiveCut(x);
  if (ks.slices.empty() || (cut != kMinTimestamp && cut > ks.last_ts)) {
    // No live cut at all: an implicit slice starting at the record keeps
    // it until eviction decides otherwise.
    const Timestamp start = cut != kMinTimestamp ? cut : x;
    if (!ks.slices.empty()) ++stored_slices_;
    ks.slices.push_back(SlicePartial{start, lifted});
    ++grid_stats_.slices_created;
    rearm = true;
  } else {
    ks.slices.back().partial =
        adapter_.Combine(ks.slices.back().partial, lifted);
  }
  ++grid_stats_.elements;
  ++grid_stats_.partial_updates;
  for (uint32_t s : standalone_slots_) {
    const GridQuery& q = queries_[s];
    // Windows that began before the attach point would be missing the
    // records applied before the query existed; serve only complete ones.
    for (Timestamp b = FloorToGrid(x, q.origin, q.slide);
         b > x - q.range && b >= q.attach_wm; b -= q.slide) {
      const StandaloneWindow probe{s, q.seq, Window{b, b + q.range}, {}};
      const auto order = [](const StandaloneWindow& a,
                            const StandaloneWindow& c) {
        return std::tie(a.window.end, a.window.start, a.slot, a.seq) <
               std::tie(c.window.end, c.window.start, c.slot, c.seq);
      };
      auto it = std::lower_bound(ks.standalone.begin(), ks.standalone.end(),
                                 probe, order);
      if (it == ks.standalone.end() || order(probe, *it)) {
        it = ks.standalone.insert(it, probe);
        rearm = true;
      }
      it->partial = adapter_.Combine(it->partial, lifted);
    }
  }
  ks.last_ts = x;
  if (!ks.late.empty()) PruneLate(&ks);
  if (rearm) Arm(kid, e);
  grid_stats_.peak_stored =
      std::max<uint64_t>(grid_stats_.peak_stored, stored_slices_);
}

Timestamp WindowAggOperator::ServedFrom(const KeyEntry& e, size_t slot,
                                        bool* fresh) const {
  *fresh = false;
  const GridQuery& q = queries_[slot];
  const KeyState& ks = e.second;
  if (q.seq == 0) return kMinTimestamp;
  if (q.seq <= ks.epoch) {
    for (const LateServe& l : ks.late) {
      if (l.slot == slot && l.seq == q.seq) return l.from;
    }
    return kMinTimestamp;  // from the key's first record, or expired
  }
  // Attached since the key's last touch: the key's state is still the one
  // the attach saw.
  if (const Timestamp* from = q.backfill.Find(ks.hash, e.first)) {
    *fresh = true;
    return *from;
  }
  return FloorToGrid(ks.last_ts, q.origin, q.slide) + q.slide;
}

Timestamp WindowAggOperator::LowestPendingBegin(const KeyEntry& e,
                                                size_t slot,
                                                bool fresh_backfill) const {
  bool fresh = false;
  const Timestamp from = ServedFrom(e, slot, &fresh);
  // A backfill not yet taken over: its windows may have ended already.
  if (fresh || fresh_backfill) return from;
  const KeyState& ks = e.second;
  if (ks.fired_to == kMaxTimestamp) return kMaxTimestamp;
  const GridQuery& q = queries_[slot];
  // First begin whose window ends after fired_to.
  return std::max(from, FloorToGrid(ks.fired_to - q.range, q.origin,
                                    q.slide) + q.slide);
}

Timestamp WindowAggOperator::NextFire(const KeyEntry& e) const {
  const KeyState& ks = e.second;
  Timestamp next = kMaxTimestamp;
  for (uint32_t s : shared_slots_) {
    const Timestamp lo = LowestPendingBegin(e, s, false);
    if (lo == kMaxTimestamp) continue;
    const GridQuery& q = queries_[s];
    const Timestamp b = CeilToGrid(lo, q.origin, q.slide);
    if (b <= ks.last_ts) next = std::min(next, b + q.range);
  }
  for (const StandaloneWindow& w : ks.standalone) {
    const GridQuery& q = queries_[w.slot];
    if (q.active && q.seq == w.seq) {
      next = std::min(next, w.window.end);  // sorted by end
      break;
    }
  }
  return next;
}

Timestamp WindowAggOperator::Needed(const KeyEntry& e, Timestamp t) const {
  if (t == kMaxTimestamp) return kMaxTimestamp;
  Timestamp needed = kMaxTimestamp;
  for (uint32_t s : shared_slots_) {
    const GridQuery& q = queries_[s];
    bool fresh = false;
    const Timestamp from = ServedFrom(e, s, &fresh);
    // The oldest window of q the key may fire after t. A backfill attached
    // in this drain may reach further back, but only over slices the last
    // watermark kept for other queries, so it never retains more.
    needed = std::min(
        needed,
        std::max(from, FloorToGrid(t - q.range, q.origin, q.slide) + q.slide));
  }
  return needed;
}

size_t WindowAggOperator::Evictable(const KeyEntry& e, Timestamp t) const {
  const std::vector<SlicePartial>& slices = e.second.slices;
  if (slices.size() < 2) return 0;
  const Timestamp needed = Needed(e, t);
  size_t n = 0;
  while (n + 1 < slices.size() && slices[n].start < needed) ++n;
  return n;
}

bool WindowAggOperator::HasLeftovers(const KeyEntry& e, Timestamp t,
                                     uint64_t* slices) const {
  const size_t evictable = Evictable(e, t);
  if (slices != nullptr) *slices = evictable;
  if (evictable > 0) return true;
  const auto dead = [&](uint32_t slot, uint64_t seq) {
    return slot >= queries_.size() || !queries_[slot].active ||
           queries_[slot].seq != seq;
  };
  const KeyState& ks = e.second;
  return std::any_of(ks.standalone.begin(), ks.standalone.end(),
                     [&](const StandaloneWindow& w) {
                       return dead(w.slot, w.seq);
                     }) ||
         std::any_of(ks.late.begin(), ks.late.end(), [&](const LateServe& l) {
           return dead(l.slot, l.seq);
         });
}

void WindowAggOperator::CatchUp(KeyEntry* e,
                                std::vector<uint32_t>* fresh_slots) {
  KeyState& ks = e->second;
  for (uint32_t s : shared_slots_) {
    GridQuery& q = queries_[s];
    if (q.seq <= ks.epoch) continue;
    Timestamp from;
    if (const Timestamp* b = q.backfill.Find(ks.hash, e->first)) {
      from = *b;
      q.backfill.Erase(ks.hash, e->first);
      if (fresh_slots != nullptr) fresh_slots->push_back(s);
    } else {
      from = FloorToGrid(ks.last_ts, q.origin, q.slide) + q.slide;
    }
    ks.late.push_back(LateServe{s, q.seq, from});
  }
  ks.epoch = applied_seq_;
}

void WindowAggOperator::PruneLate(KeyState* ks) const {
  auto dead = [&](const LateServe& l) {
    if (l.slot >= queries_.size()) return true;
    const GridQuery& q = queries_[l.slot];
    if (!q.active || q.seq != l.seq || ks->fired_to == kMaxTimestamp) {
      return true;
    }
    // Every window the key may still fire begins at or after `from`.
    return l.from <=
           FloorToGrid(ks->fired_to - q.range, q.origin, q.slide) + q.slide;
  };
  ks->late.erase(std::remove_if(ks->late.begin(), ks->late.end(), dead),
                 ks->late.end());
}

void WindowAggOperator::FireKey(KeyEntry* e, Timestamp t) {
  KeyState& ks = e->second;
  fresh_slots_.clear();
  if (ks.epoch < attach_epoch_) CatchUp(e, &fresh_slots_);
  due_.clear();
  // Every due window contains the key's last record, so the slices inside
  // it are a suffix of the key's list, from its first slice at or after
  // the window's start.
  size_t lo = ks.slices.size();
  for (uint32_t s : shared_slots_) {
    const bool fresh = std::find(fresh_slots_.begin(), fresh_slots_.end(),
                                 s) != fresh_slots_.end();
    const Timestamp lo_begin = LowestPendingBegin(*e, s, fresh);
    if (lo_begin == kMaxTimestamp) continue;
    const GridQuery& q = queries_[s];
    for (Timestamp b = CeilToGrid(lo_begin, q.origin, q.slide);
         b <= ks.last_ts && b + q.range <= t; b += q.slide) {
      STREAMLINE_DCHECK(ks.last_ts < b + q.range);
      const size_t first = static_cast<size_t>(
          std::lower_bound(
              ks.slices.begin(), ks.slices.end(), b,
              [](const SlicePartial& p, Timestamp v) { return p.start < v; }) -
          ks.slices.begin());
      lo = std::min(lo, first);
      due_.push_back(DueWindow{b + q.range, s, b, false, first});
    }
  }
  // Standalone windows of detached queries go; ended ones fire.
  ks.standalone.erase(
      std::remove_if(ks.standalone.begin(), ks.standalone.end(),
                     [&](const StandaloneWindow& w) {
                       const GridQuery& q = queries_[w.slot];
                       return !q.active || q.seq != w.seq;
                     }),
      ks.standalone.end());
  size_t standalone_fired = 0;
  while (standalone_fired < ks.standalone.size() &&
         ks.standalone[standalone_fired].window.end <= t) {
    const StandaloneWindow& w = ks.standalone[standalone_fired];
    due_.push_back(DueWindow{w.window.end, w.slot, w.window.start, true,
                             standalone_fired});
    ++standalone_fired;
  }
  std::sort(due_.begin(), due_.end(), [](const DueWindow& a,
                                         const DueWindow& b) {
    return std::tie(a.end, a.slot, a.start) < std::tie(b.end, b.slot, b.start);
  });
  // One right-to-left pass over the slices of the oldest due window serves
  // every due window, however many queries fire: suffix_[i - lo] combines
  // slices [i, n). Each window's result depends only on its own slices.
  const size_t n = ks.slices.size();
  suffix_.resize(n - lo);
  for (size_t i = n; i-- > lo;) {
    suffix_[i - lo] =
        i + 1 == n ? ks.slices[i].partial
                   : adapter_.Combine(ks.slices[i].partial, suffix_[i + 1 - lo]);
  }
  grid_stats_.combine_ops += n - lo;
  for (const DueWindow& d : due_) {
    if (d.standalone) {
      const StandaloneWindow& w = ks.standalone[d.index];
      EmitResult(e->first, queries_[w.slot].id, w.window,
                 adapter_.Lower(w.partial));
      continue;
    }
    ++grid_stats_.fires;
    EmitResult(e->first, queries_[d.slot].id, Window{d.start, d.end},
               adapter_.Lower(d.index < n ? suffix_[d.index - lo]
                                          : adapter_.Identity()));
  }
  ks.standalone.erase(ks.standalone.begin(),
                      ks.standalone.begin() +
                          static_cast<ptrdiff_t>(standalone_fired));
  ks.fired_to = std::max(ks.fired_to, t);
  const size_t evict = Evictable(*e, t);
  if (evict > 0) {
    ks.slices.erase(ks.slices.begin(),
                    ks.slices.begin() + static_cast<ptrdiff_t>(evict));
    stored_slices_ -= evict;
  }
  PruneLate(&ks);
}

void WindowAggOperator::Arm(uint32_t kid, KeyEntry* e) {
  KeyState& ks = e->second;
  const Timestamp next = NextFire(*e);
  if (next == ks.timer) return;
  ks.timer = next;
  if (next == kMaxTimestamp) return;
  timers_.emplace_back(next, kid);
  std::push_heap(timers_.begin(), timers_.end(), std::greater<>());
}

void WindowAggOperator::ArmSweep(uint32_t kid, KeyEntry* e) {
  KeyState& ks = e->second;
  if (ks.timer <= current_wm_) return;
  ks.timer = current_wm_;
  timers_.emplace_back(current_wm_, kid);
  std::push_heap(timers_.begin(), timers_.end(), std::greater<>());
}

void WindowAggOperator::FireDueKeys(Timestamp wm) {
  due_keys_.clear();
  while (!timers_.empty() && timers_.front().first <= wm) {
    const auto [at, kid] = timers_.front();
    std::pop_heap(timers_.begin(), timers_.end(), std::greater<>());
    timers_.pop_back();
    KeyState& ks = keys_.begin()[kid].second;
    if (ks.timer != at) continue;  // superseded
    ks.timer = kMaxTimestamp;
    due_keys_.push_back(kid);
  }
  // Key index order is the map's insertion order, which restore
  // reproduces: emission order does not depend on heap history.
  std::sort(due_keys_.begin(), due_keys_.end());
  for (uint32_t kid : due_keys_) {
    KeyEntry* e = keys_.begin() + kid;
    // A detach may have removed the window the timer was set for; a key
    // left with nothing pending still sweeps what detached queries held.
    const Timestamp next = NextFire(*e);
    if (next <= wm ||
        (next == kMaxTimestamp && HasLeftovers(*e, wm, nullptr))) {
      FireKey(e, wm);
      changelog_.Upsert(e->first, e->second.hash);
    }
    Arm(kid, e);
  }
}

void WindowAggOperator::AttachGridQuery(const QueryCommand& cmd) {
  GridQuery q;
  q.active = true;
  q.id = cmd.query_id;
  q.range = cmd.desc.range;
  q.slide = cmd.desc.slide;
  q.origin = cmd.desc.origin;
  q.placement = cmd.placement;
  q.seq = cmd.seq;
  q.attach_wm = current_wm_;
  if (q.placement == QueryPlacement::kShared) {
    // Backfill (the per-key aggregator's TryBackfill): walk the query's
    // begin grid down from the key's last record while each grid point is
    // an intact cut -- the open slice's start, or a stored slice start no
    // pending window has released. Keys that backfill are recorded in the
    // table and timed; every other key's state stays as it is.
    for (uint32_t kid = 0; kid < keys_.size(); ++kid) {
      KeyEntry* e = keys_.begin() + kid;
      KeyState& ks = e->second;
      if (ks.slices.empty()) continue;
      const Timestamp last = ks.last_ts;
      const Timestamp g0 = FloorToGrid(last, q.origin, q.slide);
      if (g0 <= last - q.range) continue;
      bool needed_known = false;
      Timestamp needed = kMaxTimestamp;
      auto intact = [&](Timestamp b) {
        if (ks.slices.back().start == b) return true;
        auto it = std::lower_bound(
            ks.slices.begin(), ks.slices.end() - 1, b,
            [](const SlicePartial& p, Timestamp v) { return p.start < v; });
        if (it == ks.slices.end() - 1 || it->start != b) return false;
        if (!needed_known) {
          needed = Needed(*e, current_wm_);
          needed_known = true;
        }
        return b >= needed;
      };
      if (!intact(g0)) continue;
      Timestamp earliest = g0;
      for (Timestamp b = g0 - q.slide; b > last - q.range && intact(b);
           b -= q.slide) {
        earliest = b;
      }
      q.backfill.TryEmplace(ks.hash, e->first, earliest);
      if (earliest + q.range < ks.timer) {
        ks.timer = earliest + q.range;
        timers_.emplace_back(ks.timer, kid);
        std::push_heap(timers_.begin(), timers_.end(), std::greater<>());
      }
    }
  }
  // Reuse the lowest free slot: per-key references carry the attach seq,
  // so a recycled slot never matches a predecessor's leftovers.
  size_t slot = 0;
  while (slot < queries_.size() && queries_[slot].active) ++slot;
  if (slot == queries_.size()) queries_.emplace_back();
  queries_[slot] = std::move(q);
  RefreshQueryIndex();
}

void WindowAggOperator::DetachGridQuery(uint64_t query_id) {
  for (GridQuery& q : queries_) {
    if (q.active && q.seq != 0 && q.id == query_id) {
      q = GridQuery{};
      RefreshQueryIndex();
      return;
    }
  }
}

uint64_t WindowAggOperator::ArmLeftoverSweeps() {
  uint64_t freed = 0;
  for (uint32_t kid = 0; kid < keys_.size(); ++kid) {
    KeyEntry* e = keys_.begin() + kid;
    uint64_t slices = 0;
    if (HasLeftovers(*e, current_wm_, &slices)) {
      freed += slices;
      // A key with a window pending frees them when it fires; one with
      // none would keep them until its next record.
      if (NextFire(*e) == kMaxTimestamp) ArmSweep(kid, e);
    }
  }
  return freed;
}

void WindowAggOperator::RebuildDerived() {
  RefreshQueryIndex();
  timers_.clear();
  stored_slices_ = 0;
  for (uint32_t kid = 0; kid < keys_.size(); ++kid) {
    KeyEntry* e = keys_.begin() + kid;
    e->second.timer = kMaxTimestamp;
    if (mode_ != Mode::kGrid) continue;
    const size_t n = e->second.slices.size();
    if (n > 0) stored_slices_ += n - 1;
    Arm(kid, e);
  }
  // Keys holding what detached queries left sweep at the next watermark,
  // as they would have without the restore.
  if (mode_ == Mode::kGrid) ArmLeftoverSweeps();
  derived_valid_ = true;
}

size_t WindowAggOperator::KeyStateEntries() const {
  size_t n = 0;
  for (const auto& [key, ks] : keys_) {
    n += ks.slices.size() + ks.late.size() + ks.standalone.size();
  }
  return n;
}

// ---------------------------------------------------------------------------
// Standing-query registry.

void WindowAggOperator::DrainRegistryCommands() {
  QueryRegistry* reg = spec_.registry.get();
  if (reg == nullptr) return;
  uint64_t slices_freed = 0;
  if (reg->latest_seq() != applied_seq_) {
    bool detached = false;
    for (const QueryCommand& cmd : reg->CommandsAfter(applied_seq_)) {
      if (cmd.kind == QueryCommand::Kind::kAttach) {
        AttachGridQuery(cmd);
      } else {
        DetachGridQuery(cmd.query_id);
        detached = true;
      }
      applied_seq_ = cmd.seq;
    }
    // The command rewrites no key; keys holding slices or windows only
    // detached queries needed free them at their next fire, or, with
    // nothing pending, at the next watermark.
    if (detached) slices_freed = ArmLeftoverSweeps();
  }
  reg->AckApplied(worker_name_, applied_seq_, stored_slices_, slices_freed);
}

void WindowAggOperator::UpdateStateGauges() {
  if (load_gauge_ == nullptr) return;
  load_gauge_->Set(keys_.load_factor());
  probe_gauge_->Set(static_cast<double>(keys_.max_probe_length()));
  keys_gauge_->Set(static_cast<double>(keys_.size()));
}

void WindowAggOperator::OnEndOfInput(Collector* out) {
  // The runtime always delivers a final kMaxTimestamp watermark before end
  // of input, which flushed everything; nothing left to do.
  (void)out;
}

// ---------------------------------------------------------------------------
// Snapshots.

void WindowAggOperator::WriteMeta(BinaryWriter* w) const {
  w->WriteI64(current_wm_);
  w->WriteU64(seq_);
  w->WriteU64(applied_seq_);
  w->WriteU64(queries_.size());
  for (const GridQuery& q : queries_) {
    w->WriteBool(q.active);
    if (!q.active) continue;
    w->WriteU64(q.id);
    w->WriteI64(q.range);
    w->WriteI64(q.slide);
    w->WriteI64(q.origin);
    w->WriteU8(static_cast<uint8_t>(q.placement));
    w->WriteU64(q.seq);
    w->WriteI64(q.attach_wm);
    w->WriteU64(q.backfill.size());
    for (const auto& [key, from] : q.backfill) {
      w->WriteValue(key);
      w->WriteI64(from);
    }
  }
  // Written in heap-array order (deterministic for a given input history);
  // restore rebuilds the heap property, which holds for any array order.
  w->WriteU64(pending_.size());
  for (const auto& [record, seq] : pending_) {
    w->WriteRecord(record);
    w->WriteU64(seq);
  }
}

Status WindowAggOperator::ReadMeta(BinaryReader* r) {
  Timestamp wm = 0;
  uint64_t seq = 0;
  uint64_t applied_seq = 0;
  uint64_t nq = 0;
  STREAMLINE_RETURN_IF_ERROR(ReadTo(r->ReadI64(), &wm));
  STREAMLINE_RETURN_IF_ERROR(ReadTo(r->ReadU64(), &seq));
  STREAMLINE_RETURN_IF_ERROR(ReadTo(r->ReadU64(), &applied_seq));
  STREAMLINE_RETURN_IF_ERROR(ReadTo(r->ReadU64(), &nq));
  std::vector<GridQuery> table(nq);
  for (GridQuery& q : table) {
    STREAMLINE_RETURN_IF_ERROR(ReadTo(r->ReadBool(), &q.active));
    if (!q.active) continue;
    uint8_t placement = 0;
    uint64_t nb = 0;
    STREAMLINE_RETURN_IF_ERROR(ReadTo(r->ReadU64(), &q.id));
    STREAMLINE_RETURN_IF_ERROR(ReadTo(r->ReadI64(), &q.range));
    STREAMLINE_RETURN_IF_ERROR(ReadTo(r->ReadI64(), &q.slide));
    STREAMLINE_RETURN_IF_ERROR(ReadTo(r->ReadI64(), &q.origin));
    STREAMLINE_RETURN_IF_ERROR(ReadTo(r->ReadU8(), &placement));
    STREAMLINE_RETURN_IF_ERROR(ReadTo(r->ReadU64(), &q.seq));
    STREAMLINE_RETURN_IF_ERROR(ReadTo(r->ReadI64(), &q.attach_wm));
    STREAMLINE_RETURN_IF_ERROR(ReadTo(r->ReadU64(), &nb));
    if (q.range <= 0 || q.slide <= 0) {
      return Status::Internal("bad window shape in '" + name_ + "' snapshot");
    }
    q.placement = static_cast<QueryPlacement>(placement);
    for (uint64_t i = 0; i < nb; ++i) {
      Value key;
      Timestamp from = 0;
      STREAMLINE_RETURN_IF_ERROR(ReadTo(r->ReadValue(), &key));
      STREAMLINE_RETURN_IF_ERROR(ReadTo(r->ReadI64(), &from));
      q.backfill.TryEmplace(KeyHashOf(key), key, from);
    }
  }
  uint64_t np = 0;
  STREAMLINE_RETURN_IF_ERROR(ReadTo(r->ReadU64(), &np));
  pending_.clear();
  for (uint64_t i = 0; i < np; ++i) {
    Record rec;
    uint64_t s = 0;
    STREAMLINE_RETURN_IF_ERROR(ReadTo(r->ReadRecord(), &rec));
    STREAMLINE_RETURN_IF_ERROR(ReadTo(r->ReadU64(), &s));
    pending_.emplace_back(std::move(rec), s);
  }
  std::make_heap(pending_.begin(), pending_.end(), PendingAfter);
  if (mode_ == Mode::kGrid ? table.size() < spec_.windows.size()
                           : !table.empty()) {
    return Status::FailedPrecondition("query table does not match the spec");
  }
  queries_ = std::move(table);
  current_wm_ = wm;
  seq_ = seq;
  applied_seq_ = applied_seq;
  derived_valid_ = false;
  return Status::Ok();
}

void WindowAggOperator::SnapshotKeyState(const KeyState& ks,
                                         BinaryWriter* w) const {
  switch (mode_) {
    case Mode::kGrid:
      w->WriteI64(ks.last_ts);
      w->WriteI64(ks.fired_to);
      w->WriteU64(ks.epoch);
      w->WriteU64(ks.slices.size());
      for (const SlicePartial& s : ks.slices) {
        w->WriteI64(s.start);
        SerializeDynPartial(s.partial, w);
      }
      w->WriteU64(ks.late.size());
      for (const LateServe& l : ks.late) {
        w->WriteU64(l.slot);
        w->WriteU64(l.seq);
        w->WriteI64(l.from);
      }
      w->WriteU64(ks.standalone.size());
      for (const StandaloneWindow& s : ks.standalone) {
        w->WriteU64(s.slot);
        w->WriteU64(s.seq);
        w->WriteI64(s.window.start);
        w->WriteI64(s.window.end);
        SerializeDynPartial(s.partial, w);
      }
      return;
    case Mode::kPerKey:
      ks.shared->Snapshot(w, SerializeDynPartial);
      return;
    case Mode::kEager:
      w->WriteU64(ks.eager.size());
      for (const EagerQueryState& qs : ks.eager) {
        qs.wf->SnapshotState(w);
        w->WriteU64(qs.open.size());
        for (const auto& [window, partial] : qs.open) {
          w->WriteI64(window.start);
          w->WriteI64(window.end);
          SerializeDynPartial(partial, w);
        }
      }
      return;
  }
}

Status WindowAggOperator::RestoreKeyState(KeyState* ks, BinaryReader* r) {
  // A delta may re-restore a live key: every path replaces, never appends.
  if (mode_ == Mode::kPerKey) {
    return ks->shared->Restore(r, DeserializeDynPartial);
  }
  if (mode_ == Mode::kGrid) {
    uint64_t n = 0;
    STREAMLINE_RETURN_IF_ERROR(ReadTo(r->ReadI64(), &ks->last_ts));
    STREAMLINE_RETURN_IF_ERROR(ReadTo(r->ReadI64(), &ks->fired_to));
    STREAMLINE_RETURN_IF_ERROR(ReadTo(r->ReadU64(), &ks->epoch));
    STREAMLINE_RETURN_IF_ERROR(ReadTo(r->ReadU64(), &n));
    ks->slices.resize(n);
    for (SlicePartial& s : ks->slices) {
      STREAMLINE_RETURN_IF_ERROR(ReadTo(r->ReadI64(), &s.start));
      STREAMLINE_RETURN_IF_ERROR(ReadTo(DeserializeDynPartial(r), &s.partial));
    }
    STREAMLINE_RETURN_IF_ERROR(ReadTo(r->ReadU64(), &n));
    ks->late.resize(n);
    for (LateServe& l : ks->late) {
      uint64_t slot = 0;
      STREAMLINE_RETURN_IF_ERROR(ReadTo(r->ReadU64(), &slot));
      l.slot = static_cast<uint32_t>(slot);
      STREAMLINE_RETURN_IF_ERROR(ReadTo(r->ReadU64(), &l.seq));
      STREAMLINE_RETURN_IF_ERROR(ReadTo(r->ReadI64(), &l.from));
    }
    STREAMLINE_RETURN_IF_ERROR(ReadTo(r->ReadU64(), &n));
    ks->standalone.resize(n);
    for (StandaloneWindow& s : ks->standalone) {
      uint64_t slot = 0;
      STREAMLINE_RETURN_IF_ERROR(ReadTo(r->ReadU64(), &slot));
      s.slot = static_cast<uint32_t>(slot);
      STREAMLINE_RETURN_IF_ERROR(ReadTo(r->ReadU64(), &s.seq));
      STREAMLINE_RETURN_IF_ERROR(ReadTo(r->ReadI64(), &s.window.start));
      STREAMLINE_RETURN_IF_ERROR(ReadTo(r->ReadI64(), &s.window.end));
      STREAMLINE_RETURN_IF_ERROR(ReadTo(DeserializeDynPartial(r), &s.partial));
      if (s.slot >= queries_.size()) {
        return Status::FailedPrecondition("standalone window of unknown slot");
      }
    }
    derived_valid_ = false;
    return Status::Ok();
  }
  uint64_t nq = 0;
  STREAMLINE_RETURN_IF_ERROR(ReadTo(r->ReadU64(), &nq));
  if (nq != ks->eager.size()) {
    return Status::FailedPrecondition("eager query count mismatch");
  }
  for (EagerQueryState& qs : ks->eager) {
    qs.open.clear();
    STREAMLINE_RETURN_IF_ERROR(qs.wf->RestoreState(r));
    uint64_t nw = 0;
    STREAMLINE_RETURN_IF_ERROR(ReadTo(r->ReadU64(), &nw));
    for (uint64_t k = 0; k < nw; ++k) {
      Window window;
      DynPartial p;
      STREAMLINE_RETURN_IF_ERROR(ReadTo(r->ReadI64(), &window.start));
      STREAMLINE_RETURN_IF_ERROR(ReadTo(r->ReadI64(), &window.end));
      STREAMLINE_RETURN_IF_ERROR(ReadTo(DeserializeDynPartial(r), &p));
      // Snapshots write `open` in sorted order; appending preserves it.
      qs.open.emplace_back(window, p);
    }
  }
  return Status::Ok();
}

Status WindowAggOperator::SnapshotState(BinaryWriter* w) const {
  WriteMeta(w);
  w->WriteU64(keys_.size());
  for (const auto& [key, ks] : keys_) {
    w->WriteValue(key);
    SnapshotKeyState(ks, w);
  }
  return Status::Ok();
}

Status WindowAggOperator::RestoreState(BinaryReader* r) {
  // The query table comes first: restored key state refers to its slots.
  STREAMLINE_RETURN_IF_ERROR(ReadMeta(r));
  uint64_t nk = 0;
  STREAMLINE_RETURN_IF_ERROR(ReadTo(r->ReadU64(), &nk));
  keys_.clear();
  keys_.Reserve(nk);
  for (uint64_t i = 0; i < nk; ++i) {
    Value key;
    STREAMLINE_RETURN_IF_ERROR(ReadTo(r->ReadValue(), &key));
    KeyState* ks = &GetOrCreateKey(key, KeyHashOf(key), nullptr)->second;
    STREAMLINE_RETURN_IF_ERROR(RestoreKeyState(ks, r));
  }
  derived_valid_ = false;
  return Status::Ok();
}

Status WindowAggOperator::SnapshotDelta(ChangelogSink* sink) {
  // Meta record first: the operator-wide clock (watermark, arrival
  // sequence), the query table and the reorder buffer. The buffer holds
  // only records the watermark has not yet covered, so this stays small in
  // steady state; replay replaces it wholesale.
  {
    BinaryWriter w;
    w.WriteU8(kDeltaMetaTag);
    WriteMeta(&w);
    STREAMLINE_RETURN_IF_ERROR(sink->Append(w.Release()));
  }
  for (const KeyedChangelog::Event& ev : changelog_.events()) {
    BinaryWriter w;
    if (ev.op == KeyedChangelog::Op::kErase) {
      w.WriteU8(kDeltaEraseTag);
      w.WriteValue(ev.key);
    } else {
      w.WriteU8(kDeltaUpsertTag);
      w.WriteValue(ev.key);
      const KeyState* ks = keys_.Find(ev.hash, ev.key);
      w.WriteU8(ks != nullptr ? 1 : 0);
      if (ks != nullptr) SnapshotKeyState(*ks, &w);
    }
    STREAMLINE_RETURN_IF_ERROR(sink->Append(w.Release()));
  }
  changelog_.Clear();
  return Status::Ok();
}

Status WindowAggOperator::ApplyDelta(BinaryReader* r) {
  uint8_t tag = 0;
  STREAMLINE_RETURN_IF_ERROR(ReadTo(r->ReadU8(), &tag));
  if (tag == kDeltaMetaTag) return ReadMeta(r);
  Value key;
  STREAMLINE_RETURN_IF_ERROR(ReadTo(r->ReadValue(), &key));
  const uint64_t hash = KeyHashOf(key);
  derived_valid_ = false;
  if (tag == kDeltaEraseTag) {
    keys_.Erase(hash, key);
    return Status::Ok();
  }
  if (tag != kDeltaUpsertTag) {
    return Status::Internal("bad changelog tag " + std::to_string(tag) +
                            " in '" + name_ + "'");
  }
  uint8_t present = 0;
  STREAMLINE_RETURN_IF_ERROR(ReadTo(r->ReadU8(), &present));
  KeyState* ks = &GetOrCreateKey(key, hash, nullptr)->second;
  if (present != 0) STREAMLINE_RETURN_IF_ERROR(RestoreKeyState(ks, r));
  return Status::Ok();
}

AggStats WindowAggOperator::SharedStats() const {
  if (mode_ == Mode::kGrid) return grid_stats_;
  AggStats total;
  for (const auto& [key, ks] : keys_) {
    if (!ks.shared) continue;
    const AggStats& s = ks.shared->stats();
    total.elements += s.elements;
    total.partial_updates += s.partial_updates;
    total.combine_ops += s.combine_ops;
    total.fires += s.fires;
    total.slices_created += s.slices_created;
    total.peak_stored += s.peak_stored;
  }
  return total;
}

}  // namespace streamline

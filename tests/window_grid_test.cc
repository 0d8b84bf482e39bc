// The window operator's grid path (one slice grid and query table per
// operator) checked against per-key SlicingAggregators driven directly by
// the test -- the per-key layout the grid path replaces -- under random
// periodic query sets, Zipf keys, random watermark cadence and registry
// attach/detach at random watermarks. Inputs are integer-valued, so every
// window result is exact under any combine order and the comparison is
// byte for byte. Also: crash + restore mid-run (full and incremental)
// equals the uninterrupted run, and attach/detach churn keeps the query
// table and per-key state bounded without touching key state.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "agg/slicing_aggregator.h"
#include "api/datastream.h"
#include "common/random.h"
#include "dataflow/query_registry.h"
#include "dataflow/window_operator.h"

namespace streamline {
namespace {

// (key, start, end, query id, result): one emitted window.
using Row = std::tuple<int64_t, Timestamp, Timestamp, int64_t, double>;

Row ToRow(const Record& r) {
  EXPECT_EQ(r.timestamp, r.field(2).AsInt64() - 1);
  return Row{r.field(0).AsInt64(), r.field(1).AsInt64(), r.field(2).AsInt64(),
             r.field(3).AsInt64(), r.field(4).ToDouble()};
}

class VecCollector : public Collector {
 public:
  void Emit(Record&& r) override { records.push_back(std::move(r)); }
  std::vector<Record> records;
};

class CaptureSink : public ChangelogSink {
 public:
  Status Append(std::string_view record) override {
    records.emplace_back(record);
    return Status::Ok();
  }
  std::vector<std::string> records;
};

std::string SnapshotBytes(const WindowAggOperator& op) {
  BinaryWriter w;
  EXPECT_TRUE(op.SnapshotState(&w).ok());
  return w.Release();
}

struct Shape {
  Duration range;
  Duration slide;
  Timestamp origin;
};

/// Random periodic shape: sliding, tumbling, or (rarely) a sampling window
/// with gaps. Slides are multiples of 5 with origins on or off that grid,
/// so some shapes factor through others' cuts and some add new ones.
Shape RandomShape(Rng* rng) {
  const Duration slide = 5 * static_cast<Duration>(1 + rng->NextBelow(12));
  Duration range = slide * static_cast<Duration>(1 + rng->NextBelow(4));
  if (rng->NextBool(0.1)) range = std::max<Duration>(1, slide / 2);
  const Timestamp origin =
      rng->NextBool(0.7) ? 0 : static_cast<Timestamp>(rng->NextBelow(slide));
  return Shape{range, slide, origin};
}

/// One step of the generated run: records to feed, then a watermark, then
/// commands issued to the registry (applied at the next watermark).
struct Step {
  std::vector<Record> records;
  Timestamp wm = 0;
  std::vector<Shape> attach;
  std::vector<size_t> detach;  // indices into the live dynamic-query list
};

std::vector<Step> GenerateRun(uint64_t seed, int steps, uint64_t keys) {
  Rng rng(seed);
  ZipfGenerator zipf(keys, 1.1, seed * 31 + 7);
  std::vector<Step> run;
  Timestamp t = 0;
  Timestamp wm = kMinTimestamp;
  size_t live = 0;
  for (int s = 0; s < steps; ++s) {
    Step step;
    const uint64_t n = rng.NextBelow(25);
    for (uint64_t i = 0; i < n; ++i) {
      // Mostly dense, sometimes a long quiet stretch (idle keys, windows
      // that end with no later record of their key).
      t += rng.NextBool(0.03) ? static_cast<Timestamp>(50 + rng.NextBelow(300))
                              : static_cast<Timestamp>(rng.NextBelow(4));
      step.records.push_back(
          MakeRecord(t, Value(static_cast<int64_t>(zipf.Next())),
                     Value(static_cast<double>(rng.NextBelow(10)))));
    }
    // A watermark at or behind the last record leaves some buffered.
    const Timestamp lag = static_cast<Timestamp>(rng.NextBelow(6));
    wm = std::max(wm == kMinTimestamp ? t - lag : wm + 1, t - lag);
    step.wm = wm;
    // Later records must not fall behind the watermark (they would be
    // dropped as late, by the operator and the oracle alike).
    t = std::max(t, wm);
    // Several attaches in one step apply in one drain (as resident
    // queries attached before a job starts do).
    if (s == 0 || rng.NextBool(0.25)) {
      const uint64_t n_attach =
          s == 0 ? 3 : 1 + (rng.NextBool(0.3) ? rng.NextBelow(3) : 0);
      for (uint64_t a = 0; a < n_attach; ++a) {
        step.attach.push_back(RandomShape(&rng));
        ++live;
      }
    }
    // Detach often enough that about six registry queries stay live.
    if (live > 0 && rng.NextBool(live > 6 ? 0.6 : 0.15)) {
      step.detach.push_back(rng.NextBelow(live));
      --live;
    }
    run.push_back(std::move(step));
  }
  Step last;
  last.wm = kMaxTimestamp;
  run.push_back(std::move(last));
  return run;
}

WindowAggSpec MakeSpec(const std::vector<Shape>& spec_shapes, DynAggKind kind,
                       std::shared_ptr<QueryRegistry> registry) {
  WindowAggSpec spec;
  spec.key = KeyField(0);
  spec.value_field = 1;
  spec.agg_kind = kind;
  for (const Shape& s : spec_shapes) {
    spec.windows.push_back(
        std::make_shared<SlidingWindowFn>(s.range, s.slide, s.origin));
  }
  spec.registry = std::move(registry);
  return spec;
}

/// The per-key layout: one SlicingAggregator per key holding the spec
/// windows from the key's first record, shared registry queries attached
/// to every existing key (AttachQuery: late start plus backfill) and added
/// from the start to keys created later, standalone registry queries as
/// per-key open windows beginning at or after the attach watermark.
class PerKeyOracle {
 public:
  PerKeyOracle(std::vector<Shape> spec, DynAggKind kind)
      : spec_(std::move(spec)), adapter_(kind) {}

  void OnRecord(const Record& r) {
    const int64_t key = r.field(0).AsInt64();
    KeyState& ks = Key(key);
    const DynAggAdapter::Input in{r.field(1), r.timestamp};
    ks.agg->OnElement(r.timestamp, in, Value());
    const DynPartial lifted = adapter_.dyn.Lift(r.field(1), r.timestamp);
    for (const auto& [id, dq] : dyn_) {
      if (dq.shared) continue;
      const Timestamp ts = r.timestamp;
      Timestamp b = Floor(ts, dq.shape);
      for (; b > ts - dq.shape.range; b -= dq.shape.slide) {
        if (b < dq.attach_wm) continue;
        DynPartial& p = ks.standalone[id][Window{b, b + dq.shape.range}];
        p = adapter_.Combine(p, lifted);
      }
    }
  }

  void OnWatermark(Timestamp wm) {
    current_wm_ = std::max(current_wm_, wm);
    for (auto& [key, ks] : keys_) {
      ks.agg->OnWatermark(wm);
      for (auto& [id, open] : ks.standalone) {
        while (!open.empty() && open.begin()->first.end <= wm) {
          out_->push_back(Row{key, open.begin()->first.start,
                              open.begin()->first.end,
                              static_cast<int64_t>(id),
                              adapter_.Lower(open.begin()->second).ToDouble()});
          open.erase(open.begin());
        }
      }
    }
  }

  void Attach(uint64_t id, const Shape& s, bool shared) {
    DynQuery dq{s, shared, current_wm_, {}};
    if (shared) {
      for (auto& [key, ks] : keys_) {
        dq.slot[key] = ks.agg->AttachQuery(
            std::make_unique<SlidingWindowFn>(s.range, s.slide, s.origin),
            Callback(key, id));
      }
    }
    dyn_.emplace(id, std::move(dq));
  }

  void Detach(uint64_t id) {
    auto it = dyn_.find(id);
    ASSERT_NE(it, dyn_.end());
    if (it->second.shared) {
      for (const auto& [key, slot] : it->second.slot) {
        keys_.at(key).agg->DetachQuery(slot);
      }
    } else {
      for (auto& [key, ks] : keys_) ks.standalone.erase(id);
    }
    dyn_.erase(it);
  }

  void set_out(std::vector<Row>* out) { out_ = out; }

 private:
  using Agg = SlicingAggregator<DynAggAdapter, FlatFatStore<DynAggAdapter>>;
  struct KeyState {
    std::unique_ptr<Agg> agg;
    std::map<uint64_t, std::map<Window, DynPartial>> standalone;
  };
  struct DynQuery {
    Shape shape;
    bool shared;
    Timestamp attach_wm;
    std::map<int64_t, size_t> slot;  // key -> slot in its aggregator
  };

  static Timestamp Floor(Timestamp ts, const Shape& s) {
    const Timestamp d = ts - s.origin;
    const Timestamp q = d >= 0 ? d / s.slide : (d - s.slide + 1) / s.slide;
    return s.origin + q * s.slide;
  }

  Agg::ResultCallback Callback(int64_t key, uint64_t id) {
    return [this, key, id](size_t, const Window& w, const Value& v) {
      out_->push_back(Row{key, w.start, w.end, static_cast<int64_t>(id),
                          v.ToDouble()});
    };
  }

  KeyState& Key(int64_t key) {
    auto it = keys_.find(key);
    if (it != keys_.end()) return it->second;
    KeyState& ks = keys_[key];
    ks.agg = std::make_unique<Agg>(adapter_);
    for (size_t i = 0; i < spec_.size(); ++i) {
      ks.agg->AddQuery(std::make_unique<SlidingWindowFn>(
                           spec_[i].range, spec_[i].slide, spec_[i].origin),
                       Callback(key, i));
    }
    for (auto& [id, dq] : dyn_) {
      if (!dq.shared) continue;
      dq.slot[key] = ks.agg->AddQuery(
          std::make_unique<SlidingWindowFn>(dq.shape.range, dq.shape.slide,
                                            dq.shape.origin),
          Callback(key, id));
    }
    return ks;
  }

  std::vector<Shape> spec_;
  DynAggAdapter adapter_;
  std::map<int64_t, KeyState> keys_;
  std::map<uint64_t, DynQuery> dyn_;
  Timestamp current_wm_ = kMinTimestamp;
  std::vector<Row>* out_ = nullptr;
};

/// Per-watermark output of one run, sorted (emission order within one
/// watermark is not part of the contract).
using Trace = std::vector<std::vector<Row>>;

struct Scenario {
  uint64_t seed;
  std::vector<Shape> spec;
  DynAggKind kind;
  std::vector<Step> run;
  QueryRegistry::Options registry_options;
};

Scenario MakeScenario(uint64_t seed, int steps = 400, uint64_t keys = 40) {
  Rng rng(seed * 977 + 1);
  Scenario sc;
  sc.seed = seed;
  const int n_spec = 1 + static_cast<int>(rng.NextBelow(2));
  for (int i = 0; i < n_spec; ++i) sc.spec.push_back(RandomShape(&rng));
  const DynAggKind kinds[] = {DynAggKind::kSum, DynAggKind::kSum,
                              DynAggKind::kCount, DynAggKind::kMax,
                              DynAggKind::kFirst};
  sc.kind = kinds[rng.NextBelow(5)];
  sc.run = GenerateRun(seed, steps, keys);
  // Low rate estimate: short-slide queries go standalone, long ones share.
  sc.registry_options.est_records_per_time = 0.05;
  return sc;
}

/// Drives `op` through the run; after step `crash_at` (if any) the
/// operator is replaced by one restored from a full snapshot taken then, or
/// (incremental) from the base snapshot plus every delta since. `states`
/// receives the operator's snapshot after every step.
Trace RunOperator(const Scenario& sc, int crash_at, bool incremental,
                  std::vector<std::pair<uint64_t, std::pair<Shape, bool>>>*
                      attaches = nullptr,
                  std::vector<std::string>* states = nullptr) {
  auto registry = std::make_shared<QueryRegistry>(sc.registry_options);
  auto make = [&] {
    auto op = std::make_unique<WindowAggOperator>(
        "w", MakeSpec(sc.spec, sc.kind, registry));
    EXPECT_TRUE(op->Open(OperatorContext{}).ok());
    op->EnableIncrementalState();
    return op;
  };
  auto op = make();
  std::string base;
  std::vector<std::vector<std::string>> deltas;
  const int base_at = crash_at / 2;
  std::vector<uint64_t> live;
  Trace trace;
  for (int s = 0; s < static_cast<int>(sc.run.size()); ++s) {
    const Step& step = sc.run[s];
    VecCollector out;
    for (const Record& r : step.records) op->ProcessRecord(0, Record(r), &out);
    op->ProcessWatermark(step.wm, &out);
    std::vector<Row> rows;
    for (const Record& r : out.records) rows.push_back(ToRow(r));
    std::sort(rows.begin(), rows.end());
    trace.push_back(std::move(rows));
    for (const Shape& a : step.attach) {
      const uint64_t id = registry->AttachSliding(a.range, a.slide, a.origin);
      live.push_back(id);
      if (attaches != nullptr) {
        attaches->push_back(
            {id, {a, registry->PlacementOf(id) == QueryPlacement::kShared}});
      }
    }
    for (size_t d : step.detach) {
      EXPECT_TRUE(registry->Detach(live[d]).ok());
      live.erase(live.begin() + static_cast<ptrdiff_t>(d));
    }
    if (incremental && s == base_at) {
      base = SnapshotBytes(*op);
      op->ResetDelta();
    } else if (incremental && s > base_at && s <= crash_at) {
      CaptureSink seg;
      EXPECT_TRUE(op->SnapshotDelta(&seg).ok());
      deltas.push_back(std::move(seg.records));
    }
    if (s == crash_at) {
      const std::string full = SnapshotBytes(*op);
      auto restored = make();
      if (incremental) {
        BinaryReader r(base);
        EXPECT_TRUE(restored->RestoreState(&r).ok());
        for (const auto& seg : deltas) {
          for (const std::string& rec : seg) {
            BinaryReader dr(rec);
            EXPECT_TRUE(restored->ApplyDelta(&dr).ok());
          }
        }
      } else {
        BinaryReader r(full);
        EXPECT_TRUE(restored->RestoreState(&r).ok());
      }
      EXPECT_EQ(SnapshotBytes(*restored), full) << "restore not byte-identical";
      op = std::move(restored);
    }
    if (states != nullptr) states->push_back(SnapshotBytes(*op));
  }
  return trace;
}

Trace RunOracle(const Scenario& sc,
                const std::vector<std::pair<uint64_t, std::pair<Shape, bool>>>&
                    attaches) {
  PerKeyOracle oracle(sc.spec, sc.kind);
  Trace trace;
  std::vector<Record> buffered;  // fed, not yet covered by a watermark
  std::vector<uint64_t> live;
  size_t next_attach = 0;
  // Commands issued after step s apply at the end of step s + 1.
  std::vector<std::pair<uint64_t, std::pair<Shape, bool>>> pending_attach;
  std::vector<uint64_t> pending_detach;
  for (const Step& step : sc.run) {
    std::vector<Row> rows;
    oracle.set_out(&rows);
    buffered.insert(buffered.end(), step.records.begin(), step.records.end());
    // Timestamps are generated in order: the covered records are a prefix.
    size_t covered = 0;
    while (covered < buffered.size() &&
           (step.wm == kMaxTimestamp ||
            buffered[covered].timestamp < step.wm)) {
      oracle.OnRecord(buffered[covered++]);
    }
    buffered.erase(buffered.begin(),
                   buffered.begin() + static_cast<ptrdiff_t>(covered));
    oracle.OnWatermark(step.wm);
    for (const auto& a : pending_attach) {
      oracle.Attach(a.first, a.second.first, a.second.second);
    }
    for (uint64_t d : pending_detach) oracle.Detach(d);
    pending_attach.clear();
    pending_detach.clear();
    for (size_t i = 0; i < step.attach.size(); ++i) {
      pending_attach.push_back(attaches[next_attach]);
      live.push_back(attaches[next_attach].first);
      ++next_attach;
    }
    for (size_t d : step.detach) {
      pending_detach.push_back(live[d]);
      live.erase(live.begin() + static_cast<ptrdiff_t>(d));
    }
    std::sort(rows.begin(), rows.end());
    trace.push_back(std::move(rows));
  }
  return trace;
}

/// Plain C++ check of every emitted window: its value is the exact
/// aggregate of the key's records inside it.
void ExpectExactValues(const Scenario& sc, const Trace& trace) {
  std::map<int64_t, std::vector<std::pair<Timestamp, double>>> by_key;
  for (const Step& step : sc.run) {
    for (const Record& r : step.records) {
      by_key[r.field(0).AsInt64()].emplace_back(r.timestamp,
                                                r.field(1).ToDouble());
    }
  }
  size_t checked = 0;
  for (const auto& rows : trace) {
    for (const auto& [key, start, end, id, value] : rows) {
      double sum = 0, count = 0, max = -1, first = -1;
      const auto& recs = by_key[key];
      auto it = std::lower_bound(
          recs.begin(), recs.end(), start,
          [](const std::pair<Timestamp, double>& p, Timestamp v) {
            return p.first < v;
          });
      for (; it != recs.end() && it->first < end; ++it) {
        const double v = it->second;
        if (count == 0) first = v;
        sum += v;
        count += 1;
        max = std::max(max, v);
      }
      ASSERT_GT(count, 0) << "window without records";
      const double expect = sc.kind == DynAggKind::kSum     ? sum
                            : sc.kind == DynAggKind::kCount ? count
                            : sc.kind == DynAggKind::kMax   ? max
                                                            : first;
      ASSERT_EQ(value, expect) << "key " << key << " [" << start << ","
                               << end << ") query " << id;
      ++checked;
    }
  }
  EXPECT_GT(checked, 0u);
}

void ExpectSameTrace(const Trace& got, const Trace& want,
                     const std::string& what) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i] == want[i]) continue;
    std::set<Row> g(got[i].begin(), got[i].end());
    std::set<Row> w(want[i].begin(), want[i].end());
    std::string diff;
    int shown = 0;
    for (const Row& r : w) {
      if (g.count(r) == 0 && shown++ < 5) {
        diff += " missing(" + std::to_string(std::get<0>(r)) + ",[" +
                std::to_string(std::get<1>(r)) + "," +
                std::to_string(std::get<2>(r)) + "),q" +
                std::to_string(std::get<3>(r)) + "=" +
                std::to_string(std::get<4>(r)) + ")";
      }
    }
    for (const Row& r : g) {
      if (w.count(r) == 0 && shown++ < 10) {
        diff += " extra(" + std::to_string(std::get<0>(r)) + ",[" +
                std::to_string(std::get<1>(r)) + "," +
                std::to_string(std::get<2>(r)) + "),q" +
                std::to_string(std::get<3>(r)) + "=" +
                std::to_string(std::get<4>(r)) + ")";
      }
    }
    FAIL() << what << ": watermark step " << i << " differs:" << diff
           << " (" << got[i].size() << " vs " << want[i].size() << " rows)";
  }
}

TEST(WindowGridTest, MatchesPerKeySlicingOracle) {
  size_t dyn_rows = 0;
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Scenario sc = MakeScenario(seed);
    std::vector<std::pair<uint64_t, std::pair<Shape, bool>>> attaches;
    const Trace got = RunOperator(sc, /*crash_at=*/-1, false, &attaches);
    const Trace want = RunOracle(sc, attaches);
    ExpectSameTrace(got, want, "grid vs per-key oracle");
    ExpectExactValues(sc, got);
    for (const auto& rows : got) {
      for (const Row& r : rows) {
        const int64_t id = std::get<3>(r);
        dyn_rows += id >= static_cast<int64_t>(kFirstDynamicQueryId);
      }
    }
    if (HasFailure()) return;
  }
  EXPECT_GT(dyn_rows, 0u);
}


// A late-attached long query keeps a key's old slices only from its own
// first served window on. Here q = sliding(200, 20) attaches at watermark
// 50 and backfills key 7 down to begin 20, so the key's slice at 10 is
// released once the spec windows containing it have fired. A second query
// attached at watermark 100 must backfill only down to 20 as well, even
// though q's oldest window overall (begin -120) would still cover 10.
TEST(WindowGridTest, LateQueryRetainsOnlyWhatItServes) {
  Scenario sc;
  sc.seed = 0;
  sc.spec = {{10, 10, 0}, {50, 10, 0}};
  sc.kind = DynAggKind::kSum;
  Step first;
  for (Timestamp t = 0; t < 46; ++t) {
    first.records.push_back(
        MakeRecord(t, Value(int64_t{7}), Value(static_cast<double>(t % 3))));
  }
  first.wm = 50;
  first.attach.push_back({200, 20, 0});
  sc.run.push_back(first);
  for (Timestamp wm = 60; wm <= 140; wm += 10) {
    Step step;
    // Another key keeps records flowing; key 7 stays quiet.
    step.records.push_back(MakeRecord(wm - 5, Value(int64_t{1}), Value(1.0)));
    step.wm = wm;
    if (wm == 100) step.attach.push_back({200, 10, 0});
    sc.run.push_back(step);
  }
  Step last;
  last.wm = kMaxTimestamp;
  sc.run.push_back(last);
  std::vector<std::pair<uint64_t, std::pair<Shape, bool>>> attaches;
  const Trace got = RunOperator(sc, /*crash_at=*/-1, false, &attaches);
  ASSERT_EQ(attaches.size(), 2u);
  ASSERT_TRUE(attaches[0].second.second && attaches[1].second.second);
  ExpectSameTrace(got, RunOracle(sc, attaches), "grid vs per-key oracle");
  ExpectExactValues(sc, got);
  // The second query's oldest window for key 7 begins at 20.
  Timestamp oldest = kMaxTimestamp;
  for (const auto& rows : got) {
    for (const Row& r : rows) {
      if (std::get<0>(r) == 7 &&
          std::get<3>(r) == static_cast<int64_t>(attaches[1].first)) {
        oldest = std::min(oldest, std::get<1>(r));
      }
    }
  }
  EXPECT_EQ(oldest, 20);
}

TEST(WindowGridTest, CrashRestoreEqualsUninterruptedRun) {
  for (uint64_t seed = 101; seed <= 112; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Scenario sc = MakeScenario(seed, /*steps=*/300);
    std::vector<std::string> ref_states;
    const Trace ref =
        RunOperator(sc, /*crash_at=*/-1, false, nullptr, &ref_states);
    Rng rng(seed);
    const int crash_at = 20 + static_cast<int>(rng.NextBelow(260));
    for (bool incremental : {false, true}) {
      const std::string what = std::string(incremental ? "incremental" : "full") +
                               " restore at step " + std::to_string(crash_at);
      std::vector<std::string> states;
      ExpectSameTrace(RunOperator(sc, crash_at, incremental, nullptr, &states),
                      ref, what);
      // The restored operator's state stays byte-identical too: derived
      // timers rebuilt at restore change nothing a snapshot holds.
      ASSERT_EQ(states.size(), ref_states.size());
      for (size_t s = 0; s < states.size(); ++s) {
        ASSERT_EQ(states[s], ref_states[s]) << what << ", state after step "
                                            << s;
      }
    }
    if (HasFailure()) return;
  }
}

// A detach releases what only the detached queries held at the next
// watermark or at the key's next record, whichever comes first -- also on a
// key that gets no further record. Keys 7 and 8 hold old slices a long
// shared query keeps and open windows of a standalone query.
TEST(WindowGridTest, DetachFreesStateOfDormantKeys) {
  QueryRegistry::Options ropt;
  ropt.est_records_per_time = 0.05;
  auto registry = std::make_shared<QueryRegistry>(ropt);
  WindowAggOperator op("w", MakeSpec({{10, 10, 0}}, DynAggKind::kSum,
                                     registry));
  ASSERT_TRUE(op.Open(OperatorContext{}).ok());
  const uint64_t shared = registry->AttachSliding(1000, 100, 0);
  const uint64_t standalone = registry->AttachSliding(50, 5, 0);
  ASSERT_EQ(registry->PlacementOf(shared), QueryPlacement::kShared);
  ASSERT_EQ(registry->PlacementOf(standalone), QueryPlacement::kStandalone);
  VecCollector out;
  op.ProcessWatermark(0, &out);  // applies both attaches
  for (Timestamp t : {1, 15, 25, 35}) {
    op.ProcessRecord(0, MakeRecord(t, Value(int64_t{7}), Value(1.0)), &out);
    op.ProcessRecord(0, MakeRecord(t + 1, Value(int64_t{8}), Value(1.0)),
                     &out);
  }
  op.ProcessWatermark(40, &out);
  // Each key keeps four slices, three of them only for the shared query.
  const size_t before = op.KeyStateEntries();
  ASSERT_GT(before, 8u);
  ASSERT_TRUE(registry->Detach(shared).ok());
  ASSERT_TRUE(registry->Detach(standalone).ok());
  op.ProcessWatermark(50, &out);  // applies the detaches
  EXPECT_EQ(registry->stats().slices_gc, 6u);
  // A restore here rebuilds the armed sweeps: both copies continue alike.
  WindowAggOperator restored("w", MakeSpec({{10, 10, 0}}, DynAggKind::kSum,
                                           registry));
  ASSERT_TRUE(restored.Open(OperatorContext{}).ok());
  const std::string snapshot = SnapshotBytes(op);
  BinaryReader r(snapshot);
  ASSERT_TRUE(restored.RestoreState(&r).ok());
  // Key 7 stays dormant; key 8 sweeps at its record, then opens slice 50.
  for (WindowAggOperator* o : {&op, &restored}) {
    o->ProcessRecord(0, MakeRecord(52, Value(int64_t{8}), Value(1.0)), &out);
    o->ProcessWatermark(55, &out);
    EXPECT_EQ(o->KeyStateEntries(), 3u) << "was " << before;
  }
  EXPECT_EQ(SnapshotBytes(restored), SnapshotBytes(op));
}

TEST(WindowGridTest, ChurnKeepsTableAndKeyStateBounded) {
  QueryRegistry::Options ropt;
  ropt.est_records_per_time = 0.05;  // mixes shared and standalone
  auto registry = std::make_shared<QueryRegistry>(ropt);
  WindowAggOperator op("w", MakeSpec({{20, 10, 0}}, DynAggKind::kSum,
                                     registry));
  ASSERT_TRUE(op.Open(OperatorContext{}).ok());
  op.EnableIncrementalState();
  Rng rng(7);
  ZipfGenerator zipf(200, 1.0, 9);
  std::vector<uint64_t> live;
  Timestamp t = 0;
  size_t max_slots = 0;
  size_t early_entries = 0;
  size_t max_entries = 0;
  uint64_t rows = 0;
  constexpr int kCycles = 1200;
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    VecCollector out;
    for (int i = 0; i < 40; ++i) {
      t += static_cast<Timestamp>(rng.NextBelow(3));
      op.ProcessRecord(0,
                       MakeRecord(t, Value(static_cast<int64_t>(zipf.Next())),
                                  Value(static_cast<double>(rng.NextBelow(5)))),
                       &out);
    }
    op.ProcessWatermark(t, &out);
    // One attach and (once four are live) one detach per cycle.
    Shape s = RandomShape(&rng);
    live.push_back(registry->AttachSliding(s.range, s.slide, s.origin));
    if (live.size() > 4) {
      ASSERT_TRUE(registry->Detach(live.front()).ok());
      live.erase(live.begin());
    }
    // Apply the commands on a watermark that fires nothing: the delta must
    // hold the meta record only -- a command rewrites no key.
    op.ResetDelta();
    op.ProcessWatermark(t, &out);
    CaptureSink seg;
    ASSERT_TRUE(op.SnapshotDelta(&seg).ok());
    ASSERT_EQ(seg.records.size(), 1u) << "a registry command dirtied keys";
    rows += out.records.size();
    max_slots = std::max(max_slots, op.query_slots());
    const size_t entries = op.KeyStateEntries();
    if (cycle < 100) early_entries = std::max(early_entries, entries);
    max_entries = std::max(max_entries, entries);
  }
  // Spec window plus at most five live registry queries (four kept, one
  // attached before the oldest is detached): freed slots are reused.
  EXPECT_LE(max_slots, 6u);
  // Per-key state does not grow with the number of attaches.
  EXPECT_LE(max_entries, 2 * early_entries);
  EXPECT_GT(rows, 0u);
  EXPECT_EQ(registry->stats().attaches, static_cast<uint64_t>(kCycles));
}

}  // namespace
}  // namespace streamline

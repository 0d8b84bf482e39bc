// shared_windows: data at rest, closed loop. A Zipf-keyed clickstream
// (about 10k users) goes into one keyed window aggregate that serves a
// QueryRegistry: a resident set of sliding and tumbling queries (both
// shared and standalone placements, some factoring through others' cut
// grids) plus attach/detach churn for the whole run. The slicing
// aggregator, the window operator and the registry do most of the
// per-record work; the attach wait is what a standing-query user sees.

#include <algorithm>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "agg/slicing_aggregator.h"
#include "api/datastream.h"
#include "common/metrics.h"
#include "common/mutex.h"
#include "common/random.h"
#include "dataflow/event_log.h"
#include "dataflow/query_registry.h"
#include "workload/clickstream.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace streamline;

constexpr int kPartitions = 4;
constexpr int kParallelism = 2;
constexpr uint64_t kWatermarkEvery = 4096;
constexpr uint64_t kUsers = 10'000;
constexpr size_t kValueField = 2;  // item id: an exact integer sum
/// Churned queries live at most this many at a time (oldest detached).
constexpr size_t kLiveChurn = 4;
/// Churn attaches per rep, spread evenly over the input's event time: the
/// attach rate follows the stream's progress, so a slower engine sees the
/// same churn per record instead of more.
constexpr uint64_t kChurnPerRep = 150;

struct Shape {
  Duration range;
  Duration slide;
  Timestamp origin;
};

/// Spec-defined query (result id 0) of the window operator.
constexpr Shape kSpecShape{500, 500, 0};
/// Attached before the job starts. The first sliding query lays the 250 ms
/// cut grid the next four factor through; tumbling 250 ms goes standalone
/// under the cost model at this key rate; 1.5 s / 300 ms adds its own cuts.
const std::vector<Shape> kResident = {
    {1'000, 250, 0},   {2'000, 250, 0}, {1'000, 500, 0},
    {1'000, 1'000, 0}, {250, 250, 0},   {1'500, 300, 0},
};
/// Attached and detached while the job runs: shared rewrites, shared
/// shapes with new cuts, and standalone ones.
const std::vector<Shape> kChurn = {
    {2'000, 2'000, 0}, {400, 400, 0},       {3'000, 500, 0},
    {800, 400, 0},     {1'200, 600, 100},   {300, 300, 0},
    {1'000, 250, 0},   {2'500, 500, 250},
};

struct Input {
  std::shared_ptr<EventLog> log;
  uint64_t events = 0;
  double records_per_ms_per_key = 0;
  /// Oracle: per user, timestamps and the running item sum (prefix sums).
  std::vector<std::vector<Timestamp>> ts;
  std::vector<std::vector<int64_t>> prefix;
  std::vector<ClickEvent> raw;
};

double BuildInput(uint64_t events, uint64_t seed, Input* in) {
  const int64_t t0 = NowNs();
  ClickstreamGenerator::Options copt;
  copt.num_users = kUsers;
  copt.user_skew = 0.8;
  copt.sessions_per_second = 20'000;
  // Sessions compressed to the window scale: bursts within 100 ms, users
  // silent 200 ms between sessions.
  copt.max_event_gap_ms = 100;
  copt.session_gap_ms = 200;
  ClickstreamGenerator gen(copt, seed * 0x9E3779B97F4A7C15ULL + 3);
  in->raw = gen.Take(events);
  auto log = std::make_shared<EventLog>(kPartitions);
  for (uint64_t i = 0; i < events; ++i) {
    log->Append(static_cast<int>(i % kPartitions), in->raw[i].ToRecord());
  }
  log->Close();
  const double secs = static_cast<double>(NowNs() - t0) * 1e-9;
  in->log = std::move(log);
  in->events = events;
  in->ts.assign(kUsers, {});
  in->prefix.assign(kUsers, {0});
  for (const ClickEvent& e : in->raw) {
    in->ts[e.user].push_back(e.ts);
    in->prefix[e.user].push_back(in->prefix[e.user].back() +
                                 static_cast<int64_t>(e.item));
  }
  const double span_ms = static_cast<double>(
      std::max<Timestamp>(1, in->raw.back().ts - in->raw.front().ts));
  in->records_per_ms_per_key =
      static_cast<double>(events) / span_ms / static_cast<double>(kUsers);
  return secs;
}

/// Compact result row; the query id routes it to its shape after the run.
struct Row {
  int64_t key;
  Timestamp start;
  Timestamp end;
  uint64_t query;
  double value;
  int64_t arrival_ns;
};

/// Collects rows into per-thread shards so the sink subtasks do not
/// serialize on one lock.
class RowSink : public SinkFunction {
 public:
  Status Invoke(const Record& r) override {
    const int64_t now = NowNs();
    Shard& shard = shards_[ThreadSlot() % kShards];
    MutexLock lock(&shard.mu);
    shard.rows.push_back(Row{r.field(0).AsInt64(), r.field(1).AsInt64(),
                             r.field(2).AsInt64(),
                             static_cast<uint64_t>(r.field(3).AsInt64()),
                             r.field(4).ToDouble(), now});
    return Status::Ok();
  }
  std::string Name() const override { return "query-rows"; }
  std::vector<Row> Take() {
    std::vector<Row> out;
    for (Shard& shard : shards_) {
      MutexLock lock(&shard.mu);
      out.insert(out.end(), shard.rows.begin(), shard.rows.end());
      shard.rows = {};
    }
    return out;
  }

 private:
  static constexpr size_t kShards = 16;
  struct Shard {
    Mutex mu;
    std::vector<Row> rows STREAMLINE_GUARDED_BY(mu);
  };
  static size_t ThreadSlot() {
    static std::atomic<size_t> next{0};
    thread_local const size_t slot = next.fetch_add(1);
    return slot;
  }
  Shard shards_[kShards];
};

struct QueryInfo {
  Shape shape;
  bool resident = false;
};

/// Largest event time any source subtask has emitted so far.
Timestamp EmittedUpTo(const std::vector<SourceProbe>& probes) {
  Timestamp t = kMinTimestamp;
  for (const auto& p : probes) {
    t = std::max(t, p.published_max_ts.load(std::memory_order_relaxed));
  }
  return t;
}

/// Checks every row against the oracle: the window lies on its query's
/// grid, holds at least one record of its key, appears once, and carries
/// the exact item sum. Resident queries must also be complete: every
/// (key, window) with data that begins after `applied_by` appears. A
/// registry query splices in at a watermark once the job runs, so windows
/// already open then are only served when the slices they span survive;
/// `applied_by` bounds that point from above (the largest event time the
/// sources had emitted when the resident attaches were confirmed applied).
void Check(const Input& in, const std::map<uint64_t, QueryInfo>& queries,
           Timestamp applied_by, std::vector<Row>* rows, bool corrupt,
           Report* report) {
  std::sort(rows->begin(), rows->end(), [](const Row& a, const Row& b) {
    return std::tie(a.query, a.key, a.start) <
           std::tie(b.query, b.key, b.start);
  });
  uint64_t wrong = 0, dup = 0, unknown = 0, checked = 0;
  std::map<uint64_t, uint64_t> emitted_per_query;
  for (size_t i = 0; i < rows->size(); ++i) {
    const Row& r = (*rows)[i];
    ++checked;
    auto q = queries.find(r.query);
    if (q == queries.end() || r.key < 0 ||
        r.key >= static_cast<int64_t>(kUsers)) {
      ++unknown;
      continue;
    }
    if (i > 0 && (*rows)[i - 1].query == r.query &&
        (*rows)[i - 1].key == r.key && (*rows)[i - 1].start == r.start) {
      ++dup;
      continue;
    }
    const Shape& s = q->second.shape;
    const auto& ts = in.ts[r.key];
    const size_t lo = std::lower_bound(ts.begin(), ts.end(), r.start) -
                      ts.begin();
    const size_t hi = std::lower_bound(ts.begin(), ts.end(), r.end) -
                      ts.begin();
    double expect = static_cast<double>(in.prefix[r.key][hi] -
                                        in.prefix[r.key][lo]);
    if (corrupt && i == 0) expect += 1;
    const bool on_grid = r.end - r.start == s.range &&
                         ((r.start - s.origin) % s.slide + s.slide) %
                                 s.slide ==
                             0;
    const bool holds_data = on_grid && hi > lo;
    if (holds_data && (r.query == 0 || r.start > applied_by)) {
      ++emitted_per_query[r.query];
    }
    if (!holds_data || r.value != expect) {
      if (++wrong <= 3) {
        report->Fail("shared_windows: query " + std::to_string(r.query) +
                     " key " + std::to_string(r.key) + " [" +
                     std::to_string(r.start) + "," + std::to_string(r.end) +
                     ") = " + std::to_string(r.value) + ", expected " +
                     std::to_string(expect) + " over " +
                     std::to_string(hi - lo) + " records");
      }
    }
  }
  // Completeness of resident queries: count the distinct (key, window)
  // pairs holding data and compare with what was emitted (each emitted one
  // was verified above to hold data, so equal counts mean equal sets).
  uint64_t missing = 0, expected_total = 0;
  for (const auto& [id, info] : queries) {
    if (!info.resident) continue;
    const Shape& s = info.shape;
    uint64_t expected = 0;
    for (uint64_t key = 0; key < kUsers; ++key) {
      int64_t last_k = INT64_MIN;
      for (Timestamp t : in.ts[key]) {
        // Windows [origin + k*slide, +range) containing t; for registry
        // queries only those beginning after `applied_by`.
        const Timestamp rel = t - s.origin;
        const int64_t k_hi = rel >= 0 ? rel / s.slide
                                      : -((-rel + s.slide - 1) / s.slide);
        const Timestamp lo_rel = rel - s.range + 1;
        const int64_t k_lo =
            lo_rel >= 0 ? (lo_rel + s.slide - 1) / s.slide
                        : -((-lo_rel) / s.slide);
        int64_t from = std::max(k_lo, last_k + 1);
        if (id != 0) {
          const Timestamp a = applied_by - s.origin;
          const int64_t k_min =
              (a >= 0 ? a / s.slide : -((-a + s.slide - 1) / s.slide)) + 1;
          from = std::max(from, k_min);
        }
        if (k_hi >= from) expected += static_cast<uint64_t>(k_hi - from + 1);
        last_k = std::max(last_k, k_hi);
      }
    }
    expected_total += expected;
    const uint64_t got = emitted_per_query[id];
    if (got != expected) {
      missing += got < expected ? expected - got : got - expected;
      report->Fail("shared_windows: resident query " + std::to_string(id) +
                   " emitted " + std::to_string(got) + " windows, expected " +
                   std::to_string(expected));
    }
  }
  if (dup + unknown > 0) {
    report->Fail("shared_windows: " + std::to_string(dup) + " duplicate and " +
                 std::to_string(unknown) + " unroutable results");
  }
  report->Tally("shared_windows.results",
                std::max<uint64_t>(checked, expected_total) + missing,
                wrong + dup + unknown + missing);
}

struct RepResult {
  bool ok = false;
  double create_ms = 0;
  double run_s = 0;
  Usage usage;
  std::vector<double> attach_ms;
  std::vector<double> result_latency_ms;
  QueryRegistry::Stats stats;
  uint64_t standalone = 0;
  double slices_shared = 0;
  uint64_t attaches_cut = 0;
};

RepResult RunRep(const Input& in, const Options& opt, const Phase& phase,
                 uint64_t rep_index, Report* report) {
  RepResult rep;
  Tracer* tracer = phase.tracer;
  QueryRegistry::Options ropt;
  ropt.est_records_per_time = in.records_per_ms_per_key;
  auto registry = std::make_shared<QueryRegistry>(ropt);
  std::map<uint64_t, QueryInfo> queries;
  queries[0] = QueryInfo{kSpecShape, true};
  uint64_t last_resident = 0;
  for (const Shape& s : kResident) {
    last_resident = registry->AttachSliding(s.range, s.slide, s.origin);
    queries[last_resident] = QueryInfo{s, true};
  }

  auto probes = std::make_shared<std::vector<SourceProbe>>(kParallelism);
  auto sink = std::make_shared<RowSink>();
  Environment env(kParallelism);
  const auto log = in.log;
  const bool traced = phase.traced();
  env.FromSource(
         "clicks",
         [log, probes, traced](int subtask, int parallelism) {
           return Probe(std::make_unique<LogSource>(log, subtask, parallelism,
                                                    kWatermarkEvery),
                        &(*probes)[subtask], traced);
         },
         kParallelism)
      .KeyBy(0)
      .Window(std::make_shared<TumblingWindowFn>(kSpecShape.range))
      .WithRegistry(registry)
      .Aggregate(DynAggKind::kSum, kValueField, WindowBackend::kShared,
                 "sw-window")
      .Sink(sink, "sw-sink");

  JobOptions options;
  options.worker_threads = WorkerThreads();
  const int64_t c0 = NowNs();
  auto job = env.CreateJob(options);
  rep.create_ms = static_cast<double>(NowNs() - c0) * 1e-6;
  if (!job.ok()) {
    report->Fail("shared_windows: Job::Create: " + job.status().ToString());
    report->Tally("shared_windows.jobs", 1, 1);
    return rep;
  }

  // Churn: attach a query, wait until every subtask applied it, keep at
  // most kLiveChurn alive. Ids are recorded here, after AttachSliding
  // returns; results are routed to them only after the job finished.
  std::atomic<bool> done{false};
  std::vector<std::pair<uint64_t, Shape>> churned;
  // Attaches not yet confirmed: (id, attach ns, records emitted by then).
  struct Pending {
    uint64_t id;
    int64_t attach_ns;
    uint64_t emitted;
  };
  std::deque<Pending> pending;
  uint64_t attach_failed = 0, detaches = 0, detach_failed = 0;
  const uint32_t attach_span = traced ? tracer->Name("registry.attach") : 0;
  Timestamp applied_by = kMaxTimestamp;
  // Peak of the shared slice count the registry reports while queries run.
  Gauge* slices_gauge = (*job)->metrics()->GetGauge("registry.slices_shared");
  double slices_gauge_max = 0;
  // The churn thread is load generation: its CPU is taken out of the
  // process total.
  Usage churn_usage;
  std::thread churn([&] {
    const Usage c0 = ThreadUsage();
    // The resident queries splice in at the job's first watermarks.
    while (!done.load(std::memory_order_acquire)) {
      if (registry->WaitQueryApplied(last_resident,
                                     std::chrono::milliseconds(2))) {
        applied_by = EmittedUpTo(*probes);
        break;
      }
    }
    // One attach each time the sources pass the next churn point in event
    // time, whether or not earlier ones were applied yet; each is timed
    // until WaitQueryApplied confirms it, then joins the live set, whose
    // oldest member is detached.
    std::deque<uint64_t> live;
    uint64_t n = rep_index * 7919;
    const Timestamp first_ts = in.raw.front().ts;
    const Timestamp step = std::max<Timestamp>(
        1, (in.raw.back().ts - first_ts) / static_cast<Timestamp>(kChurnPerRep));
    // Gaps are jittered around `step` so attach points fall at every phase
    // of the watermark cadence, whatever the seed's event-time density.
    Rng jitter(opt.seed * 7919 + rep_index);
    auto gap = [&] {
      return static_cast<Timestamp>(static_cast<double>(step) *
                                    (0.5 + jitter.NextDouble()));
    };
    Timestamp next_at = first_ts + gap();
    while (!done.load(std::memory_order_acquire)) {
      if (EmittedUpTo(*probes) >= next_at) {
        next_at += gap();
        const Shape s = kChurn[n++ % kChurn.size()];
        uint64_t emitted = 0;
        for (const auto& p : *probes) {
          emitted += p.published_records.load(std::memory_order_relaxed);
        }
        const int64_t a0 = NowNs();
        const uint64_t id =
            registry->AttachSliding(s.range, s.slide, s.origin);
        churned.emplace_back(id, s);
        pending.push_back(Pending{id, a0, emitted});
      }
      slices_gauge_max = std::max(slices_gauge_max, slices_gauge->value());
      if (pending.empty()) {
        std::this_thread::sleep_for(std::chrono::microseconds(500));
        continue;
      }
      // Blocks until the oldest pending attach is acked (or 1 ms passes).
      auto wait = std::chrono::milliseconds(1);
      while (!pending.empty() &&
             registry->WaitQueryApplied(pending.front().id, wait)) {
        const int64_t a1 = NowNs();
        const Pending p = pending.front();
        pending.pop_front();
        rep.attach_ms.push_back(static_cast<double>(a1 - p.attach_ns) * 1e-6);
        if (tracer != nullptr) tracer->Add(attach_span, p.attach_ns, a1);
        live.push_back(p.id);
        if (live.size() > kLiveChurn) {
          ++detaches;
          if (!registry->Detach(live.front()).ok()) ++detach_failed;
          live.pop_front();
        }
        wait = std::chrono::milliseconds(0);
      }
      if (!pending.empty() &&
          NowNs() - pending.front().attach_ns > 5'000'000'000) {
        ++attach_failed;
        pending.pop_front();
      }
    }
    churn_usage = ThreadUsage() - c0;
  });

  const Usage u0 = ProcessUsage();
  const int64_t r0 = NowNs();
  const Status st = (*job)->Run();
  const int64_t r1 = NowNs();
  rep.usage = ProcessUsage() - u0;
  done.store(true, std::memory_order_release);
  churn.join();
  rep.usage = rep.usage - churn_usage;
  rep.run_s = static_cast<double>(r1 - r0) * 1e-9;
  if (traced) tracer->Add(tracer->Name("job.run"), r0, r1);
  report->Tally("shared_windows.jobs", 1, st.ok() ? 0 : 1);
  if (!st.ok()) {
    report->Fail("shared_windows: Job::Run: " + st.ToString());
    return rep;
  }
  // Attaches still pending when the job ended. One the job applied after
  // the churn thread last looked is not a failure (its wait is not timed),
  // nor is one the end of input overtook: its command has no later
  // watermark to ride on. Every source subtask sends a watermark once per
  // kWatermarkEvery of its records, so an attach made earlier than that
  // many records per subtask before the end must have been applied.
  constexpr uint64_t kApplyHorizon = 2 * kWatermarkEvery * kParallelism;
  const uint64_t attempted =
      rep.attach_ms.size() + pending.size() + attach_failed;
  for (const Pending& p : pending) {
    if (registry->WaitQueryApplied(p.id, std::chrono::milliseconds(0))) {
      continue;
    }
    if (p.emitted + kApplyHorizon <= in.events) {
      ++attach_failed;
    } else {
      ++rep.attaches_cut;
    }
  }
  report->Tally("shared_windows.attaches", attempted, attach_failed);
  report->Tally("shared_windows.detaches", detaches, detach_failed);
  if (attach_failed > 0) {
    report->Fail("shared_windows: " + std::to_string(attach_failed) +
                 " attaches not applied within 5 s or before the end of "
                 "input");
  }
  // The resident queries were never confirmed applied: their completeness
  // check below would expect nothing of them.
  const bool resident_unapplied = applied_by == kMaxTimestamp;
  report->Tally("shared_windows.resident_applied", 1, resident_unapplied);
  if (resident_unapplied) {
    report->Fail("shared_windows: resident queries never confirmed applied");
  }
  // A rep without a single timed attach has no attach latency to report.
  report->Tally("shared_windows.attach_samples", 1, rep.attach_ms.empty());
  if (rep.attach_ms.empty()) {
    report->Fail("shared_windows: no attach was confirmed during the run");
    return rep;
  }
  rep.ok = true;
  rep.stats = registry->stats();
  for (const auto& [id, s] : churned) {
    queries[id] = QueryInfo{s, false};
    if (registry->PlacementOf(id) == QueryPlacement::kStandalone) {
      ++rep.standalone;
    }
  }
  for (const auto& [id, info] : queries) {
    if (id != 0 && info.resident &&
        registry->PlacementOf(id) == QueryPlacement::kStandalone) {
      ++rep.standalone;
    }
  }
  rep.slices_shared = slices_gauge_max;
  std::vector<Row> rows = sink->Take();
  for (const Row& r : rows) {
    int64_t emitted = 0;
    for (const auto& p : *probes) {
      emitted = std::max(emitted, p.EmittedAt(r.end - 1));
    }
    rep.result_latency_ms.push_back(
        static_cast<double>(r.arrival_ns - emitted) * 1e-6);
  }
  Check(in, queries, applied_by, &rows, opt.corrupt_oracle && rep_index == 0, report);
  return rep;
}

/// The slicing aggregator alone, fed the same stream and the resident
/// query shapes: one shared slice store over all keys, a watermark every
/// kWatermarkEvery records.
double DirectAggNsPerRec(const Input& in) {
  SlicingAggregator<SumAgg<double>> agg;
  double checksum = 0;
  auto cb = [&checksum](size_t, const Window&, const double& v) {
    checksum += v;
  };
  agg.AddQuery(std::make_unique<TumblingWindowFn>(kSpecShape.range), cb);
  for (const Shape& s : kResident) {
    agg.AddQuery(std::make_unique<SlidingWindowFn>(s.range, s.slide, s.origin),
                 cb);
  }
  const int64_t t0 = NowNs();
  uint64_t i = 0;
  for (const ClickEvent& e : in.raw) {
    agg.OnElement(e.ts, static_cast<double>(e.item));
    if (++i % kWatermarkEvery == 0) agg.OnWatermark(e.ts);
  }
  agg.OnWatermark(kMaxTimestamp);
  const int64_t t1 = NowNs();
  if (checksum < 0) std::printf("impossible checksum\n");
  return static_cast<double>(t1 - t0) / static_cast<double>(in.events);
}

}  // namespace

void RunSharedWindows(const Options& opt, const Phase& phase,
                      Report* report) {
  const uint64_t events = opt.quick ? 200'000 : 500'000;
  Input in;
  std::vector<double> setup_s;
  for (int i = 0; i < std::max(1, phase.setup_reps); ++i) {
    in = Input();
    setup_s.push_back(BuildInput(events, opt.seed, &in));
  }
  std::vector<double> tput, cpu, create_ms, attach_ms, attach_p50, attach_p99,
      result_p50, result_p99;
  std::vector<RepResult> reps;
  // Peak RSS through the input build and the warm-up rep: later reps only
  // add allocator fragmentation, which grows with how many reps fit in the
  // run.
  double warm_rss_mb = 0;
  RepeatFor(phase.seconds, opt.quick ? 1 : 3, !opt.quick, [&](bool measured) {
    RepResult rep = RunRep(in, opt, phase, reps.size(), report);
    if (!rep.ok) return false;
    if (!measured) {
      warm_rss_mb = ProcessUsage().maxrss_mb;
      return true;
    }
    tput.push_back(static_cast<double>(events) / rep.run_s);
    cpu.push_back(rep.usage.cpu_s() * 1e6 / static_cast<double>(events));
    create_ms.push_back(rep.create_ms);
    attach_ms.insert(attach_ms.end(), rep.attach_ms.begin(),
                     rep.attach_ms.end());
    attach_p50.push_back(Quantile(rep.attach_ms, 0.5));
    attach_p99.push_back(Quantile(rep.attach_ms, 0.99));
    result_p50.push_back(Quantile(rep.result_latency_ms, 0.5));
    result_p99.push_back(Quantile(rep.result_latency_ms, 0.99));
    reps.push_back(std::move(rep));
    return true;
  });
  report->Info("shared_windows.events", std::to_string(events));
  report->Info("shared_windows.event_span_ms",
               std::to_string(in.raw.back().ts - in.raw.front().ts));
  report->Info("shared_windows.reps", std::to_string(reps.size()));
  report->Info("shared_windows.attaches", std::to_string(attach_ms.size()));
  uint64_t cut = 0;
  for (const auto& r : reps) cut += r.attaches_cut;
  report->Info("shared_windows.attaches_cut_by_end", std::to_string(cut));
  report->Info("shared_windows.result_latency_p50_ms",
               std::to_string(Median(result_p50)));
  report->Info("shared_windows.result_latency_p99_ms",
               std::to_string(Median(result_p99)));
  report->Metric("throughput_rps", Median(tput), "rec/s");
  // The wait a standing-query user sees: AttachSliding until
  // WaitQueryApplied; each rep's quantile, median over the reps.
  report->Metric("latency_p50_ms", Median(attach_p50), "ms");
  report->Metric("latency_p99_ms", Median(attach_p99), "ms");
  report->Metric("cpu_us_per_rec", Median(cpu), "us");
  report->Metric("setup_s", Median(setup_s) + Median(create_ms) * 1e-3, "s");
  report->Metric("peak_rss_mb",
                 warm_rss_mb > 0 ? warm_rss_mb : ProcessUsage().maxrss_mb,
                 "MiB");
  if (!phase.traced() || reps.empty()) return;

  const RepResult& mid = reps[reps.size() / 2];
  const double attaches = static_cast<double>(mid.stats.attaches);
  report->Metric("registry.slices_shared", mid.slices_shared, "count");
  report->Metric("registry.rewrites_shared",
                 static_cast<double>(mid.stats.rewrites_shared), "count");
  report->Metric("registry.slices_gc",
                 static_cast<double>(mid.stats.slices_gc), "count");
  report->Metric("registry.standalone_frac",
                 attaches > 0 ? static_cast<double>(mid.standalone) / attaches
                              : 0,
                 "ratio");
  AddQuantiles(report, "registry.attach", attach_ms, "ms");
  std::vector<double> direct;
  for (int i = 0; i < 3; ++i) direct.push_back(DirectAggNsPerRec(in));
  report->Metric("agg.direct_ns_per_rec", Median(direct), "ns");
}

}  // namespace perfbench

// ysb: data at rest, closed loop. E10's YSB plan -- filter views, join
// ad -> campaign against a static table, KeyBy(campaign), tumbling
// event-time count, sink -- run as fast as possible over a pre-built,
// seeded, 4-partition EventLog. Operator work is trivial and state fits in
// cache, so source polling, morsel scheduling, routing and channels do most
// of the work.

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "api/datastream.h"
#include "common/mutex.h"
#include "common/random.h"
#include "dataflow/event_log.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace streamline;

constexpr int kAds = 1000;
constexpr int kCampaigns = 100;
constexpr int kPartitions = 4;
constexpr int kParallelism = 2;
constexpr Duration kWindow = 1000;  // event ms; 10 events per ms
constexpr uint64_t kWatermarkEvery = 256;

struct Input {
  std::shared_ptr<EventLog> log;
  uint64_t events = 0;
  int64_t windows = 0;
  /// Oracle: views per campaign * windows + window index, computed from
  /// the generated values, never from the engine.
  std::vector<int64_t> expected;
  uint64_t expected_results = 0;
};

/// Generates the seeded events, appends them to the log and returns the
/// seconds spent; the oracle is filled from the same generated values.
double BuildInput(uint64_t events, uint64_t seed, Input* in) {
  const int64_t t0 = NowNs();
  std::vector<int32_t> ads(events);
  std::vector<int8_t> types(events);
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 71);
  for (uint64_t i = 0; i < events; ++i) {
    ads[i] = static_cast<int32_t>(rng.NextBelow(kAds));
    types[i] = static_cast<int8_t>(rng.NextBelow(3));  // ~1/3 are views
  }
  auto log = std::make_shared<EventLog>(kPartitions);
  for (uint64_t i = 0; i < events; ++i) {
    log->Append(static_cast<int>(i % kPartitions),
                MakeRecord(static_cast<Timestamp>(i / 10),
                           Value(static_cast<int64_t>(ads[i])),
                           Value(static_cast<int64_t>(types[i]))));
  }
  log->Close();
  const double secs = static_cast<double>(NowNs() - t0) * 1e-9;

  in->log = std::move(log);
  in->events = events;
  in->windows = static_cast<int64_t>((events - 1) / 10 / kWindow + 1);
  in->expected.assign(static_cast<size_t>(kCampaigns * in->windows), 0);
  for (uint64_t i = 0; i < events; ++i) {
    if (types[i] != 0) continue;
    const int64_t campaign = ads[i] % kCampaigns;
    const int64_t w = static_cast<int64_t>(i / 10) / kWindow;
    ++in->expected[static_cast<size_t>(campaign * in->windows + w)];
  }
  in->expected_results = 0;
  for (int64_t c : in->expected) in->expected_results += c > 0 ? 1 : 0;
  return secs;
}

/// Window results with their arrival time at the sink.
class ResultSink : public SinkFunction {
 public:
  struct Result {
    Record record;
    int64_t arrival_ns;
  };
  explicit ResultSink(Tracer* tracer, uint32_t span)
      : tracer_(tracer), span_(span) {}
  Status Invoke(const Record& record) override {
    const int64_t now = NowNs();
    MutexLock lock(&mu_);
    results_.push_back({record, now});
    if (tracer_ != nullptr && results_.size() % 256 == 0) {
      tracer_->Add(span_, now, NowNs(), parent_span);
    }
    return Status::Ok();
  }
  std::string Name() const override { return "ysb-results"; }
  std::vector<Result> Take() {
    MutexLock lock(&mu_);
    return std::move(results_);
  }
  int64_t parent_span = -1;

 private:
  Tracer* tracer_;
  uint32_t span_;
  Mutex mu_;
  std::vector<Result> results_ STREAMLINE_GUARDED_BY(mu_);
};

struct RepResult {
  bool ok = false;
  double create_ms = 0;
  double run_s = 0;
  Usage usage;
  std::vector<double> latency_ms;
  std::map<std::string, double> metrics;
  uint64_t polls = 0;
  uint64_t poll_ns = 0;
  uint64_t source_records = 0;
  uint64_t udf_ns = 0;
};

/// Compares every emitted result with the oracle.
void Check(const Input& in, const std::vector<ResultSink::Result>& results,
           Report* report) {
  std::vector<uint8_t> seen(in.expected.size(), 0);
  uint64_t wrong = 0, extra = 0;
  for (const auto& res : results) {
    const Record& r = res.record;
    const int64_t c = r.field(0).AsInt64();
    const int64_t start = r.field(1).AsInt64();
    const int64_t end = r.field(2).AsInt64();
    const int64_t w = start / kWindow;
    if (c < 0 || c >= kCampaigns || start % kWindow != 0 || w < 0 ||
        w >= in.windows || end != start + kWindow) {
      ++extra;
      report->Fail("ysb: unexpected result " + r.ToString());
      continue;
    }
    const size_t idx = static_cast<size_t>(c * in.windows + w);
    if (seen[idx]++ != 0 ||
        r.field(4).ToDouble() != static_cast<double>(in.expected[idx])) {
      ++wrong;
      if (wrong <= 3) {
        report->Fail("ysb: result " + r.ToString() + " expected count " +
                     std::to_string(in.expected[idx]));
      }
    }
  }
  uint64_t missing = 0;
  for (size_t i = 0; i < seen.size(); ++i) {
    if (in.expected[i] > 0 && seen[i] == 0) ++missing;
  }
  if (missing > 0) {
    report->Fail("ysb: " + std::to_string(missing) + " results missing");
  }
  report->Tally("ysb.window_results", in.expected_results + extra,
                wrong + missing + extra);
}

RepResult RunRep(const Input& in, size_t workers, const Phase& phase,
                 Report* report) {
  RepResult rep;
  Tracer* tracer = phase.tracer;
  const bool traced = phase.traced();
  auto table = std::make_shared<std::unordered_map<int64_t, int64_t>>();
  for (int ad = 0; ad < kAds; ++ad) (*table)[ad] = ad % kCampaigns;

  auto probes = std::make_shared<std::vector<SourceProbe>>(kParallelism);
  auto udf_ns = std::make_shared<std::atomic<uint64_t>>(0);
  std::atomic<uint64_t>* udf = traced ? udf_ns.get() : nullptr;
  int64_t rep_span = -1, run_span = -1;
  if (traced) {
    rep_span = tracer->Add(tracer->Name("ysb.rep"), NowNs(), NowNs());
    for (auto& p : *probes) {
      p.tracer = tracer;
      p.poll_span = tracer->Name("source.poll");
    }
  }
  auto sink = std::make_shared<ResultSink>(
      tracer, traced ? tracer->Name("sink.invoke") : 0);

  Environment env(kParallelism);
  const auto log = in.log;
  env.FromSource(
         "ad-log",
         [log, probes, traced](int subtask, int parallelism) {
           return Probe(std::make_unique<LogSource>(log, subtask, parallelism,
                                                    kWatermarkEvery),
                        &(*probes)[subtask], traced);
         },
         kParallelism)
      .Filter(
          [udf](const Record& r) {
            return SampledTime(udf,
                               [&] { return r.field(1).AsInt64() == 0; });
          },
          "views-only")
      .Map(
          [table, udf](Record&& r) {
            return SampledTime(udf, [&] {
              r.fields[1] = Value(table->find(r.field(0).AsInt64())->second);
              return std::move(r);
            });
          },
          "join-campaign")
      .KeyBy(1)
      .Window(std::make_shared<TumblingWindowFn>(kWindow))
      .Aggregate(DynAggKind::kCount, 0, WindowBackend::kShared, "ysb-window")
      .Sink(sink, "ysb-sink");

  JobOptions options;
  options.worker_threads = workers;
  const int64_t c0 = NowNs();
  auto job = env.CreateJob(options);
  const int64_t c1 = NowNs();
  rep.create_ms = static_cast<double>(c1 - c0) * 1e-6;
  if (!job.ok()) {
    report->Fail("ysb: Job::Create: " + job.status().ToString());
    report->Tally("ysb.jobs", 1, 1);
    return rep;
  }
  if (traced) {
    tracer->Add(tracer->Name("job.create"), c0, c1, rep_span);
    run_span = tracer->Add(tracer->Name("job.run"), NowNs(), NowNs(),
                           rep_span);
    for (auto& p : *probes) p.parent_span = run_span;
    sink->parent_span = run_span;
  }
  const Usage u0 = ProcessUsage();
  const int64_t r0 = NowNs();
  const Status st = (*job)->Run();
  const int64_t r1 = NowNs();
  rep.usage = ProcessUsage() - u0;
  rep.run_s = static_cast<double>(r1 - r0) * 1e-9;
  if (traced) {
    tracer->Close(run_span, r1);
    tracer->Close(rep_span, r1);
  }
  report->Tally("ysb.jobs", 1, st.ok() ? 0 : 1);
  if (!st.ok()) {
    report->Fail("ysb: Job::Run: " + st.ToString());
    return rep;
  }
  rep.ok = true;
  rep.metrics = ParseMetrics((*job)->metrics()->Report());
  for (const auto& p : *probes) {
    rep.polls += p.polls;
    rep.poll_ns += p.poll_ns;
    rep.source_records += p.records;
  }
  rep.udf_ns = udf_ns->load();

  const auto results = sink->Take();
  Check(in, results, report);
  // Result latency: from the emission of the window's last input record
  // (the later of the two source subtasks) to the result's arrival.
  rep.latency_ms.reserve(results.size());
  for (const auto& res : results) {
    const Timestamp last_ts = res.record.field(2).AsInt64() - 1;
    int64_t emitted = 0;
    for (const auto& p : *probes) {
      emitted = std::max(emitted, p.EmittedAt(last_ts));
    }
    rep.latency_ms.push_back(static_cast<double>(res.arrival_ns - emitted) *
                             1e-6);
  }
  return rep;
}

}  // namespace

void RunYsb(const Options& opt, const Phase& phase, Report* report) {
  const uint64_t events = opt.quick ? 200'000 : 2'000'000;
  Input in;
  std::vector<double> setup_s;
  for (int i = 0; i < std::max(1, phase.setup_reps); ++i) {
    in = Input();
    setup_s.push_back(BuildInput(events, opt.seed, &in));
  }
  if (opt.corrupt_oracle) {
    for (auto& c : in.expected) {
      if (c > 0) {
        ++c;
        break;
      }
    }
  }
  const size_t workers = WorkerThreads();
  std::vector<double> tput, p50, p99, cpu, create_ms, run_s;
  std::vector<RepResult> reps;
  // Peak RSS through the input build and the warm-up rep: later reps only
  // add allocator fragmentation, which grows with how many reps fit in the
  // run.
  double warm_rss_mb = 0;
  RepeatFor(phase.seconds, opt.quick ? 1 : 3, !opt.quick, [&](bool measured) {
    RepResult rep = RunRep(in, workers, phase, report);
    if (!rep.ok) return false;
    if (!measured) {
      warm_rss_mb = ProcessUsage().maxrss_mb;
      return true;
    }
    tput.push_back(static_cast<double>(events) / rep.run_s);
    p50.push_back(Quantile(rep.latency_ms, 0.5));
    p99.push_back(Quantile(rep.latency_ms, 0.99));
    cpu.push_back(rep.usage.cpu_s() * 1e6 / static_cast<double>(events));
    create_ms.push_back(rep.create_ms);
    run_s.push_back(rep.run_s);
    reps.push_back(std::move(rep));
    return true;
  });
  report->Info("ysb.events", std::to_string(events));
  report->Info("ysb.reps", std::to_string(reps.size()));
  report->Metric("throughput_rps", Median(tput), "rec/s");
  report->Metric("latency_p50_ms", Median(p50), "ms");
  report->Metric("latency_p99_ms", Median(p99), "ms");
  report->Metric("cpu_us_per_rec", Median(cpu), "us");
  report->Metric("setup_s", Median(setup_s) + Median(create_ms) * 1e-3, "s");
  report->Metric("peak_rss_mb",
                 warm_rss_mb > 0 ? warm_rss_mb : ProcessUsage().maxrss_mb,
                 "MiB");
  if (!phase.traced() || reps.empty()) return;

  // Per-layer metrics from the traced reps (medians where per rep).
  const RepResult& mid = reps[reps.size() / 2];
  const auto g = [&](const std::string& k) {
    auto it = mid.metrics.find(k);
    return it == mid.metrics.end() ? 0.0 : it->second;
  };
  const double morsels = g("scheduler.morsels_local") +
                         g("scheduler.morsels_stolen") +
                         g("scheduler.morsels_injected") +
                         g("scheduler.morsels_inline");
  const double krec = static_cast<double>(events) / 1e3;
  const double nworkers = g("scheduler.workers");
  double busy_us = 0;
  for (int w = 0; w < static_cast<int>(nworkers); ++w) {
    busy_us += g("scheduler.worker" + std::to_string(w) + ".busy_micros");
  }
  const double wall_us = g("scheduler.wall_micros");
  report->Metric("sched.records_per_morsel",
                 morsels > 0 ? static_cast<double>(events) / morsels : 0,
                 "count");
  report->Metric("sched.steal_frac",
                 morsels > 0 ? g("scheduler.morsels_stolen") / morsels : 0,
                 "ratio");
  report->Metric("sched.parks_per_krec", g("scheduler.parks") / krec, "count");
  report->Metric("sched.wakeups_per_krec", g("scheduler.wakeups") / krec,
                 "count");
  report->Metric("sched.busy_frac",
                 wall_us > 0 && nworkers > 0 ? busy_us / (wall_us * nworkers)
                                             : 0,
                 "ratio");
  report->Metric("proc.sys_frac",
                 mid.usage.cpu_s() > 0 ? mid.usage.sys_s / mid.usage.cpu_s()
                                       : 0,
                 "ratio");
  report->Metric("proc.ctx_switches_per_krec", mid.usage.ctx_switches / krec,
                 "count");
  report->Metric("job.create_ms", Median(create_ms), "ms");
  report->Metric("job.run_s", Median(run_s), "s");
  report->Metric("exec.udf_frac",
                 busy_us > 0 ? static_cast<double>(mid.udf_ns) * 1e-3 / busy_us
                             : 0,
                 "ratio");
  report->Metric("source.records_per_poll",
                 mid.polls > 0 ? static_cast<double>(mid.source_records) /
                                     static_cast<double>(mid.polls)
                               : 0,
                 "count");
  report->Metric("source.poll_ns_per_rec",
                 mid.source_records > 0
                     ? static_cast<double>(mid.poll_ns) /
                           static_cast<double>(mid.source_records)
                     : 0,
                 "ns");

  // The scheduler's scaling: the same job at `workers` and at one worker,
  // both untraced so neither side carries the tracing cost, in alternating
  // reps so host noise hits both alike.
  const Phase untraced{phase.seconds, 1, nullptr};
  std::vector<double> tput_wn, tput_w1;
  const std::pair<size_t, std::vector<double>*> sides[] = {
      {workers, &tput_wn}, {1, &tput_w1}};
  for (int i = 0; i < (opt.quick ? 1 : 2); ++i) {
    for (const auto& [w, out] : sides) {
      RepResult rep = RunRep(in, w, untraced, report);
      if (rep.ok) out->push_back(static_cast<double>(events) / rep.run_s);
    }
  }
  report->Metric("sched.scaling_vs_w1",
                 tput_w1.empty() || tput_wn.empty()
                     ? 0
                     : Median(tput_wn) / Median(tput_w1),
                 "ratio");
}

}  // namespace perfbench

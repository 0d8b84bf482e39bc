// Shared plumbing of the repository benchmark: clocks, quantiles, process
// and thread CPU accounting, the metric report, the span tracer and the
// probed source wrapper that times the engine's source layer from outside.
#ifndef STREAMLINE_PERFBENCH_COMMON_H_
#define STREAMLINE_PERFBENCH_COMMON_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/record.h"
#include "dataflow/source.h"

namespace perfbench {

using streamline::Record;
using streamline::Timestamp;

/// Monotonic nanoseconds; every latency in the benchmark is a difference of
/// two of these, taken in one process.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> v, double q);
inline double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

/// Command-line options shared by all workloads.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Small inputs and short phases: the self-test mode.
  bool quick = false;
  /// Corrupts one oracle entry so the checks must report a failure.
  bool corrupt_oracle = false;
  /// Scratch directory inside the checkout (checkpoints, span dumps).
  std::string work_dir = ".bench_build/work";
};

/// Engine worker threads: the hardware concurrency.
size_t WorkerThreads();

/// CPU time and scheduling counters from getrusage.
struct Usage {
  double user_s = 0;
  double sys_s = 0;
  double ctx_switches = 0;
  double maxrss_mb = 0;

  double cpu_s() const { return user_s + sys_s; }
  Usage operator-(const Usage& o) const {
    return Usage{user_s - o.user_s, sys_s - o.sys_s,
                 ctx_switches - o.ctx_switches, maxrss_mb};
  }
  Usage& operator+=(const Usage& o) {
    user_s += o.user_s;
    sys_s += o.sys_s;
    ctx_switches += o.ctx_switches;
    maxrss_mb = std::max(maxrss_mb, o.maxrss_mb);
    return *this;
  }
};
Usage ProcessUsage();
/// The calling thread only (RUSAGE_THREAD): what a load-generator thread
/// subtracts from the process total.
Usage ThreadUsage();

/// What one workload run produced: named metrics with units, the check
/// tally behind `failed_frac`, and free-form run information.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  void Info(const std::string& key, const std::string& value);
  /// Tallies `attempted` checked operations of which `failed` went wrong.
  void Tally(const std::string& what, uint64_t attempted, uint64_t failed);
  /// Records a failure reason (first few are printed).
  void Fail(const std::string& why);

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  double value(const std::string& name) const {
    auto it = metrics_.find(name);
    return it == metrics_.end() ? 0.0 : it->second.first;
  }

  template <typename Fn>
  void ForEachMetric(Fn&& fn) const {
    for (const auto& [name, m] : metrics_) fn(name, m.first, m.second);
  }

  /// Human-readable summary on stdout.
  void Print() const;
  /// The machine-readable result object (one line).
  std::string ToJson() const;

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
  std::vector<std::pair<std::string, std::string>> info_;
  std::vector<std::pair<std::string, std::pair<uint64_t, uint64_t>>> tallies_;
  std::vector<std::string> failures_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// In-memory span recorder with a fixed capacity: spans beyond it are
/// counted and dropped, never reallocated, so tracing cannot grow memory
/// without bound. Thread-safe appends (one atomic slot claim each).
class Tracer {
 public:
  struct Span {
    uint32_t name = 0;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int64_t parent = -1;  // index of the causing span, -1 for a root
    int64_t request = -1;  // request id (record seq) when per-record
  };

  explicit Tracer(size_t capacity) : spans_(capacity) {}

  /// Interns a span name. Call before concurrent Add()s.
  uint32_t Name(const std::string& name);
  /// Appends a span; returns its index, or -1 when the buffer is full.
  int64_t Add(uint32_t name, int64_t start_ns, int64_t end_ns,
              int64_t parent = -1, int64_t request = -1);
  /// Sets the end of a span added open (end == start), so children can
  /// name it as their parent while it runs.
  void Close(int64_t span, int64_t end_ns) {
    if (span >= 0) spans_[static_cast<size_t>(span)].end_ns = end_ns;
  }

  size_t size() const {
    return std::min(next_.load(std::memory_order_relaxed), spans_.size());
  }
  uint64_t dropped() const {
    const size_t n = next_.load(std::memory_order_relaxed);
    return n > spans_.size() ? n - spans_.size() : 0;
  }

  struct SelfTime {
    uint64_t spans = 0;
    double total_ms = 0;
    double self_ms = 0;  // total minus the part covered by child spans
  };
  /// Self time per span name: each span's duration minus the union of its
  /// children's intervals clipped to it.
  std::map<std::string, SelfTime> SelfTimes() const;

  /// Writes every span as CSV (name,start_ns,end_ns,parent,request).
  bool WriteCsv(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::atomic<size_t> next_{0};
  std::vector<std::string> names_;
};

/// Per-subtask counters of a probed source, written by that subtask only.
struct SourceProbe {
  /// (max event time emitted so far, wall ns) at emission points: sampled
  /// every kMarkEvery records and at each batch, so the wall time at which
  /// the last record of a window left the source can be looked up.
  static constexpr uint64_t kMarkEvery = 64;
  std::vector<std::pair<Timestamp, int64_t>> marks;
  Timestamp max_ts = streamline::kMinTimestamp;
  /// max_ts as of the last mark and the record count, readable from other
  /// threads.
  std::atomic<Timestamp> published_max_ts{streamline::kMinTimestamp};
  std::atomic<uint64_t> published_records{0};
  uint64_t records = 0;
  uint64_t polls = 0;  // traced runs only
  uint64_t poll_ns = 0;  // traced runs only, estimated from a sample
  static constexpr uint64_t kTimeEvery = 16;
  /// Per-record emission wall time by sequence number (field `seq_field`),
  /// when set: the start of the `engine` span on dashboard_net.
  std::vector<std::atomic<int64_t>>* emit_ns_by_seq = nullptr;
  size_t seq_field = 0;
  /// Traced runs: every kSpanEvery-th timed Poll becomes a `source.poll`
  /// span under `parent_span`.
  static constexpr uint64_t kSpanEvery = 1024;
  Tracer* tracer = nullptr;
  uint32_t poll_span = 0;
  int64_t parent_span = -1;

  void OnRecords(const Record* records, size_t n);
  /// Wall ns at which the first record with ts >= `ts` was emitted, or the
  /// last mark when none was (end of input).
  int64_t EmittedAt(Timestamp ts) const;

 private:
  uint64_t marked_at_ = 0;  // `records` at the last mark
};

/// SourceFunction decorator: delegates Poll to the real source through a
/// forwarding SourceContext that notes emission times and counts records,
/// and (when `timed`) measures the Poll call itself.
std::unique_ptr<streamline::SourceFunction> Probe(
    std::unique_ptr<streamline::SourceFunction> inner, SourceProbe* probe,
    bool timed);

/// Parses MetricsRegistry::Report() text into name -> value (counters and
/// gauges; histogram lines are skipped).
std::map<std::string, double> ParseMetrics(const std::string& report);

/// Reports the p50 and p99 of `samples` as `<prefix>_p50_<unit>` and
/// `<prefix>_p99_<unit>`.
void AddQuantiles(Report* report, const std::string& prefix,
                  const std::vector<double>& samples, const std::string& unit);

/// The closed-loop rep schedule: one warm-up call of `rep(false)` (checked
/// but not measured; skipped when `warmup` is false), then `rep(true)`
/// until `seconds` have passed and at least `min_reps` measured reps ran.
/// `rep` returns false to stop early (a failed job).
template <typename Fn>
void RepeatFor(double seconds, int min_reps, bool warmup, Fn&& rep) {
  if (warmup && !rep(false)) return;
  const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
  for (int done = 0; done < min_reps || NowNs() < deadline; ++done) {
    if (!rep(true)) return;
  }
}

/// Calls `fn` and adds its duration to `*ns` on every kSampleEvery-th call
/// of the calling thread (scaled up), so per-record user functions can be
/// timed without a clock read per record.
template <typename Fn>
auto SampledTime(std::atomic<uint64_t>* ns, Fn&& fn) {
  constexpr uint64_t kSampleEvery = 64;
  thread_local uint64_t calls = 0;
  if (ns == nullptr || ++calls % kSampleEvery != 0) return fn();
  const int64_t t0 = NowNs();
  auto out = fn();
  ns->fetch_add(static_cast<uint64_t>(NowNs() - t0) * kSampleEvery,
                std::memory_order_relaxed);
  return out;
}

}  // namespace perfbench

#endif  // STREAMLINE_PERFBENCH_COMMON_H_

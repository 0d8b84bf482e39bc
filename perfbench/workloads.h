// The benchmark's workloads. Each runs the engine through its public API
// on inputs made from the seed, checks every output against an
// independent oracle (tallied in the Report), and reports metrics.
#ifndef STREAMLINE_PERFBENCH_WORKLOADS_H_
#define STREAMLINE_PERFBENCH_WORKLOADS_H_

#include <string>

#include "common.h"

namespace perfbench {

/// How one workload phase runs.
struct Phase {
  /// Wall seconds of the timed phase.
  double seconds = 10;
  /// Full set-ups made to report the median set-up time (>= 1).
  int setup_reps = 3;
  /// Traced: spans and per-layer counters are recorded and the per-layer
  /// metrics reported; untraced runs report only end-to-end metrics.
  Tracer* tracer = nullptr;
  bool traced() const { return tracer != nullptr; }
};

/// End-to-end metrics every workload reports, with one meaning each
/// (README.md defines them per workload): throughput_rps, latency_p50_ms,
/// latency_p99_ms, cpu_us_per_rec, peak_rss_mb, setup_s.
void RunYsb(const Options& opt, const Phase& phase, Report* report);
void RunSharedWindows(const Options& opt, const Phase& phase, Report* report);
void RunDashboardNet(const Options& opt, const Phase& phase, Report* report);

/// The layer ladder: one keyed stream at one worker, built up a layer at a
/// time; reports ladder.*_ns_per_rec.
void RunLadder(const Options& opt, Report* report);

}  // namespace perfbench

#endif  // STREAMLINE_PERFBENCH_WORKLOADS_H_

// Benchmark driver binary: runs one workload untraced (end-to-end metrics)
// or the traced suite (per-layer metrics), prints a human summary and, as
// its last stdout line, the result object run.py turns into the contract
// line. Usage:
//
//   streamline_bench --workload ysb|shared_windows|dashboard_net
//                    --seed N --seconds S --trace 0|1
//                    [--quick] [--corrupt-oracle] [--work-dir DIR]

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "workloads.h"

namespace perfbench {
namespace {

using RunFn = void (*)(const Options&, const Phase&, Report*);

RunFn Lookup(const std::string& workload) {
  if (workload == "ysb") return RunYsb;
  if (workload == "shared_windows") return RunSharedWindows;
  if (workload == "dashboard_net") return RunDashboardNet;
  return nullptr;
}

bool ClosedLoop(const std::string& workload) {
  return workload != "dashboard_net";
}

/// Copies the check tallies of a sub-run into the final report.
void MergeChecks(const std::string& what, const Report& from, Report* into) {
  into->Tally(what, from.attempted(), from.failed());
}

/// The traced suite. Every per-layer metric comes from the workload whose
/// layer it measures (README.md lists the map), so each traced run prints
/// all of them; `trace.overhead_frac` compares the requested workload's
/// traced and untraced end-to-end numbers.
void RunTraced(const Options& opt, Report* report) {
  const double share = opt.quick ? 2.0 : opt.seconds / 4;
  Tracer tracer(1u << 20);

  Report untraced;
  Lookup(opt.workload)(opt, Phase{share, 1, nullptr}, &untraced);
  untraced.Print();
  MergeChecks(opt.workload + ".untraced", untraced, report);

  Report own_traced;
  for (const char* w : {"ysb", "shared_windows", "dashboard_net"}) {
    Report traced;
    Lookup(w)(opt, Phase{share, 1, &tracer}, &traced);
    std::printf("== traced %s ==\n", w);
    traced.Print();
    MergeChecks(std::string(w) + ".traced", traced, report);
    if (w == opt.workload) own_traced = traced;
    // Keep only the layer metrics (dotted names); the undotted end-to-end
    // names belong to the untraced run.
    traced.ForEachMetric([&](const std::string& name, double v,
                             const std::string& unit) {
      if (name.find('.') != std::string::npos) report->Metric(name, v, unit);
    });
  }
  RunLadder(opt, report);

  // Tracing overhead on the requested workload: the throughput lost on a
  // closed loop, the CPU per record added on the open loop.
  double overhead = 0;
  if (ClosedLoop(opt.workload)) {
    const double t = own_traced.value("throughput_rps");
    overhead = t > 0 ? untraced.value("throughput_rps") / t - 1 : 0;
  } else {
    const double u = untraced.value("cpu_us_per_rec");
    overhead = u > 0 ? own_traced.value("cpu_us_per_rec") / u - 1 : 0;
  }
  report->Metric("trace.overhead_frac", overhead, "ratio");
  // The requested workload's p99 latency, untraced. A per-layer figure, not
  // an end-to-end one: its run-to-run spread on a shared 4-thread host
  // (open-loop tails especially) is wider than any bound a gate could use.
  report->Metric("tail.latency_p99_ms", untraced.value("latency_p99_ms"),
                 "ms");

  const auto self = tracer.SelfTimes();
  std::printf("-- span self times (%zu spans, %llu dropped) --\n",
              tracer.size(), static_cast<unsigned long long>(tracer.dropped()));
  for (const auto& [name, st] : self) {
    std::printf("  %-22s spans %9llu  total %12.3f ms  self %12.3f ms\n",
                name.c_str(), static_cast<unsigned long long>(st.spans),
                st.total_ms, st.self_ms);
  }
  const std::string path = opt.work_dir + "/spans-" + opt.workload + "-" +
                           std::to_string(opt.seed) + ".csv";
  if (tracer.WriteCsv(path)) std::printf("spans written to %s\n", path.c_str());
  report->Info("trace.spans_file", path);
}

int Main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", a.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--workload") {
      opt.workload = next();
    } else if (a == "--seed") {
      opt.seed = std::strtoull(next().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(next().c_str(), nullptr);
    } else if (a == "--trace") {
      opt.trace = next() != "0";
    } else if (a == "--quick") {
      opt.quick = true;
    } else if (a == "--corrupt-oracle") {
      opt.corrupt_oracle = true;
    } else if (a == "--work-dir") {
      opt.work_dir = next();
    } else {
      std::fprintf(stderr, "unknown argument %s\n", a.c_str());
      return 2;
    }
  }
  RunFn run = Lookup(opt.workload);
  if (run == nullptr || opt.seconds <= 0) {
    std::fprintf(stderr,
                 "usage: streamline_bench --workload "
                 "ysb|shared_windows|dashboard_net --seed N --seconds S "
                 "--trace 0|1\n");
    return 2;
  }
  std::filesystem::create_directories(opt.work_dir);

  Report report;
  if (opt.trace) {
    RunTraced(opt, &report);
  } else {
    run(opt, Phase{opt.seconds, opt.quick ? 1 : 3, nullptr}, &report);
  }
  const Usage usage = ProcessUsage();
  report.Info("rusage.user_s", std::to_string(usage.user_s));
  report.Info("rusage.sys_s", std::to_string(usage.sys_s));
  report.Info("rusage.ctx_switches", std::to_string(usage.ctx_switches));
  report.Info("rusage.maxrss_mb", std::to_string(usage.maxrss_mb));
  report.Print();
  std::printf("%s\n", report.ToJson().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }

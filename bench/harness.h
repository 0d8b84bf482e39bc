#ifndef STREAMLINE_BENCH_HARNESS_H_
#define STREAMLINE_BENCH_HARNESS_H_

#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.h"

namespace streamline::bench {

/// Fixed-width table printer for paper-style result tables.
class Table {
 public:
  explicit Table(std::vector<std::string> columns)
      : columns_(std::move(columns)) {
    for (const auto& c : columns_) {
      widths_.push_back(std::max<size_t>(c.size(), 12));
    }
  }

  void AddRow(const std::vector<std::string>& cells) {
    rows_.push_back(cells);
    for (size_t i = 0; i < cells.size() && i < widths_.size(); ++i) {
      widths_[i] = std::max(widths_[i], cells[i].size());
    }
  }

  void Print() const {
    PrintRow(columns_);
    std::string sep;
    for (size_t i = 0; i < columns_.size(); ++i) {
      sep += std::string(widths_[i], '-');
      if (i + 1 < columns_.size()) sep += "  ";
    }
    std::printf("%s\n", sep.c_str());
    for (const auto& row : rows_) PrintRow(row);
    std::printf("\n");
  }

 private:
  void PrintRow(const std::vector<std::string>& cells) const {
    std::string line;
    for (size_t i = 0; i < cells.size(); ++i) {
      std::string cell = cells[i];
      cell.resize(widths_[i], ' ');
      line += cell;
      if (i + 1 < cells.size()) line += "  ";
    }
    std::printf("%s\n", line.c_str());
  }

  std::vector<std::string> columns_;
  std::vector<size_t> widths_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string Fmt(const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return buf;
}

/// Human-readable record rate.
inline std::string Rate(double records, double seconds) {
  const double rps = records / seconds;
  if (rps >= 1e6) return Fmt("%.2fM rec/s", rps / 1e6);
  if (rps >= 1e3) return Fmt("%.1fk rec/s", rps / 1e3);
  return Fmt("%.0f rec/s", rps);
}

inline std::string Count(double v) {
  if (v >= 1e6) return Fmt("%.2fM", v / 1e6);
  if (v >= 1e3) return Fmt("%.1fk", v / 1e3);
  return Fmt("%.0f", v);
}

inline std::string Bytes(uint64_t b) {
  if (b >= 1ull << 20) {
    return Fmt("%.2f MiB", static_cast<double>(b) / (1ull << 20));
  }
  if (b >= 1ull << 10) {
    return Fmt("%.1f KiB", static_cast<double>(b) / (1ull << 10));
  }
  return Fmt("%llu B", static_cast<unsigned long long>(b));
}

inline void Header(const std::string& title, const std::string& claim) {
  std::printf("================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("Paper claim: %s\n", claim.c_str());
  std::printf("================================================================\n\n");
}

/// Machine-readable benchmark report: a flat JSON object written next to
/// the binary (e.g. BENCH_E5.json) so CI and regression tooling can track
/// throughput and latency without scraping the human tables.
class JsonReport {
 public:
  explicit JsonReport(std::string path) : path_(std::move(path)) {}

  void Add(const std::string& key, double value) {
    entries_.push_back({key, Fmt("%.6g", value)});
  }
  void Add(const std::string& key, uint64_t value) {
    entries_.push_back(
        {key, Fmt("%llu", static_cast<unsigned long long>(value))});
  }
  void AddString(const std::string& key, const std::string& value) {
    entries_.push_back({key, "\"" + value + "\""});
  }

  /// Writes the report; returns false (and says so on stdout) on IO error.
  bool Write() const {
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) {
      std::printf("(could not write %s)\n", path_.c_str());
      return false;
    }
    std::fprintf(f, "{\n");
    for (size_t i = 0; i < entries_.size(); ++i) {
      std::fprintf(f, "  \"%s\": %s%s\n", entries_[i].first.c_str(),
                   entries_[i].second.c_str(),
                   i + 1 < entries_.size() ? "," : "");
    }
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("wrote %s\n", path_.c_str());
    return true;
  }

 private:
  std::string path_;
  std::vector<std::pair<std::string, std::string>> entries_;
};

/// Copies the `scheduler.*` gauges a finished job exports (worker count,
/// where morsels ran, steal/park/wake totals) into `report` under
/// `prefix` -- e.g. prefix "keyed_w4_sched_" yields
/// "keyed_w4_sched_morsels_stolen". Call after Job::Run() and before the
/// job is destroyed.
inline void AddSchedulerGauges(JsonReport& report, const std::string& prefix,
                               MetricsRegistry* metrics) {
  static constexpr const char* kGauges[] = {
      "workers",  "morsels_local", "morsels_stolen", "morsels_injected",
      "steals",   "parks",         "wakeups",        "notifies"};
  for (const char* g : kGauges) {
    report.Add(prefix + g,
               metrics->GetGauge(std::string("scheduler.") + g)->value());
  }
}

}  // namespace streamline::bench

#endif  // STREAMLINE_BENCH_HARNESS_H_

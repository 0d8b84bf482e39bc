#include "common.h"

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <sstream>
#include <thread>

namespace perfbench {

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

namespace {

Usage FromRusage(const rusage& ru) {
  Usage u;
  u.user_s = static_cast<double>(ru.ru_utime.tv_sec) +
             static_cast<double>(ru.ru_utime.tv_usec) * 1e-6;
  u.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
  u.ctx_switches = static_cast<double>(ru.ru_nvcsw + ru.ru_nivcsw);
  u.maxrss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  return u;
}

// JSON number with all its digits (no locale, no exponent surprises).
std::string Num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out + "\"";
}

}  // namespace

size_t WorkerThreads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

Usage ProcessUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return FromRusage(ru);
}

Usage ThreadUsage() {
  rusage ru{};
  getrusage(RUSAGE_THREAD, &ru);
  return FromRusage(ru);
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_[name] = {value, unit};
}

void Report::Info(const std::string& key, const std::string& value) {
  for (auto& [k, v] : info_) {
    if (k == key) {
      v = value;
      return;
    }
  }
  info_.emplace_back(key, value);
}

void Report::Tally(const std::string& what, uint64_t attempted,
                   uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
  for (auto& [name, t] : tallies_) {
    if (name == what) {
      t.first += attempted;
      t.second += failed;
      return;
    }
  }
  tallies_.push_back({what, {attempted, failed}});
}

void Report::Fail(const std::string& why) {
  if (failures_.size() < 20) failures_.push_back(why);
}

void Report::Print() const {
  std::printf("-- checks --\n");
  for (const auto& [what, t] : tallies_) {
    std::printf("  %-28s attempted %10llu  failed %llu\n", what.c_str(),
                static_cast<unsigned long long>(t.first),
                static_cast<unsigned long long>(t.second));
  }
  for (const auto& f : failures_) std::printf("  FAIL: %s\n", f.c_str());
  std::printf("-- info --\n");
  for (const auto& [k, v] : info_) {
    std::printf("  %-28s %s\n", k.c_str(), v.c_str());
  }
  std::printf("-- metrics --\n");
  for (const auto& [name, m] : metrics_) {
    std::printf("  %-32s %16.6g %s\n", name.c_str(), m.first,
                m.second.c_str());
  }
}

std::string Report::ToJson() const {
  std::ostringstream os;
  os << "{\"correct\": " << (failed_ == 0 && attempted_ > 0 ? "true" : "false")
     << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    if (!first) os << ", ";
    first = false;
    os << Quote(name) << ": {\"value\": " << Num(m.first)
       << ", \"unit\": " << Quote(m.second) << "}";
  }
  os << "}, \"info\": {";
  first = true;
  for (const auto& [k, v] : info_) {
    if (!first) os << ", ";
    first = false;
    os << Quote(k) << ": " << Quote(v);
  }
  os << "}}";
  return os.str();
}

uint32_t Tracer::Name(const std::string& name) {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<uint32_t>(i);
  }
  names_.push_back(name);
  return static_cast<uint32_t>(names_.size() - 1);
}

int64_t Tracer::Add(uint32_t name, int64_t start_ns, int64_t end_ns,
                    int64_t parent, int64_t request) {
  const size_t i = next_.fetch_add(1, std::memory_order_relaxed);
  if (i >= spans_.size()) return -1;
  spans_[i] = Span{name, start_ns, end_ns, parent, request};
  return static_cast<int64_t>(i);
}

std::map<std::string, Tracer::SelfTime> Tracer::SelfTimes() const {
  const size_t n = size();
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(n);
  for (size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    if (s.parent >= 0 && static_cast<size_t>(s.parent) < n) {
      children[s.parent].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::map<std::string, SelfTime> out;
  for (size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (auto [lo, hi] : kids) {
      lo = std::max(lo, s.start_ns);
      hi = std::min(hi, s.end_ns);
      if (hi <= lo) continue;
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
      } else {
        if (open) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
        open = true;
      }
    }
    if (open) covered += cur_hi - cur_lo;
    SelfTime& st = out[names_[s.name]];
    const double dur = static_cast<double>(s.end_ns - s.start_ns);
    ++st.spans;
    st.total_ms += dur * 1e-6;
    st.self_ms += (dur - static_cast<double>(covered)) * 1e-6;
  }
  return out;
}

bool Tracer::WriteCsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "name,start_ns,end_ns,parent,request\n");
  for (size_t i = 0; i < size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%s,%lld,%lld,%lld,%lld\n", names_[s.name].c_str(),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.request));
  }
  return std::fclose(f) == 0;
}

void SourceProbe::OnRecords(const Record* rs, size_t n) {
  if (n == 0) return;
  for (size_t i = 0; i < n; ++i) max_ts = std::max(max_ts, rs[i].timestamp);
  records += n;
  published_records.store(records, std::memory_order_relaxed);
  if (emit_ns_by_seq != nullptr) {
    const int64_t now = NowNs();
    for (size_t i = 0; i < n; ++i) {
      const int64_t seq = rs[i].field(seq_field).AsInt64();
      if (seq >= 0 && static_cast<size_t>(seq) < emit_ns_by_seq->size()) {
        (*emit_ns_by_seq)[seq].store(now, std::memory_order_relaxed);
      }
    }
  }
  const bool advanced = marks.empty() || max_ts > marks.back().first;
  if (advanced && (n > 1 || records - marked_at_ >= kMarkEvery)) {
    marks.emplace_back(max_ts, NowNs());
    marked_at_ = records;
    published_max_ts.store(max_ts, std::memory_order_relaxed);
  }
}

int64_t SourceProbe::EmittedAt(Timestamp ts) const {
  if (marks.empty()) return 0;
  auto it = std::lower_bound(
      marks.begin(), marks.end(), ts,
      [](const std::pair<Timestamp, int64_t>& m, Timestamp t) {
        return m.first < t;
      });
  if (it == marks.end()) return marks.back().second;
  return it->second;
}

namespace {

class ProbeContext : public streamline::SourceContext {
 public:
  ProbeContext(streamline::SourceContext* inner, SourceProbe* probe)
      : inner_(inner), probe_(probe) {}

  bool Emit(Record&& record) override {
    probe_->OnRecords(&record, 1);
    return inner_->Emit(std::move(record));
  }
  bool EmitSpan(Record* records, size_t n) override {
    probe_->OnRecords(records, n);
    return inner_->EmitSpan(records, n);
  }
  bool EmitBatch(std::vector<Record>&& batch) override {
    probe_->OnRecords(batch.data(), batch.size());
    return inner_->EmitBatch(std::move(batch));
  }
  size_t PreferredBatchSize() const override {
    return inner_->PreferredBatchSize();
  }
  void EmitWatermark(Timestamp wm) override { inner_->EmitWatermark(wm); }
  void HandleIdle() override { inner_->HandleIdle(); }
  bool IsCancelled() const override { return inner_->IsCancelled(); }

 private:
  streamline::SourceContext* inner_;
  SourceProbe* probe_;
};

class ProbedSource : public streamline::SourceFunction {
 public:
  ProbedSource(std::unique_ptr<streamline::SourceFunction> inner,
               SourceProbe* probe, bool timed)
      : inner_(std::move(inner)), probe_(probe), timed_(timed) {}

  streamline::Result<streamline::SourcePoll> Poll(
      streamline::SourceContext* ctx) override {
    ProbeContext probe_ctx(ctx, probe_);
    // Traced runs time every kTimeEvery-th poll and scale up, so the two
    // clock reads do not dominate one-record polls.
    if (!timed_ || ++probe_->polls % SourceProbe::kTimeEvery != 0) {
      return inner_->Poll(&probe_ctx);
    }
    const int64_t t0 = NowNs();
    auto polled = inner_->Poll(&probe_ctx);
    const int64_t t1 = NowNs();
    probe_->poll_ns += static_cast<uint64_t>(t1 - t0) * SourceProbe::kTimeEvery;
    if (probe_->tracer != nullptr &&
        probe_->polls % SourceProbe::kSpanEvery == 0) {
      probe_->tracer->Add(probe_->poll_span, t0, t1, probe_->parent_span);
    }
    return polled;
  }
  streamline::Status SnapshotState(
      streamline::BinaryWriter* w) const override {
    return inner_->SnapshotState(w);
  }
  streamline::Status RestoreState(streamline::BinaryReader* r) override {
    return inner_->RestoreState(r);
  }
  std::string Name() const override { return inner_->Name(); }

 private:
  std::unique_ptr<streamline::SourceFunction> inner_;
  SourceProbe* probe_;
  bool timed_;
};

}  // namespace

std::unique_ptr<streamline::SourceFunction> Probe(
    std::unique_ptr<streamline::SourceFunction> inner, SourceProbe* probe,
    bool timed) {
  return std::make_unique<ProbedSource>(std::move(inner), probe, timed);
}

std::map<std::string, double> ParseMetrics(const std::string& report) {
  std::map<std::string, double> out;
  std::istringstream is(report);
  std::string line;
  while (std::getline(is, line)) {
    const size_t sp = line.find(' ');
    if (sp == std::string::npos) continue;
    const std::string rest = line.substr(sp + 1);
    char* end = nullptr;
    const double v = std::strtod(rest.c_str(), &end);
    if (end == rest.c_str() || *end != '\0') continue;  // histogram summary
    out[line.substr(0, sp)] = v;
  }
  return out;
}

void AddQuantiles(Report* report, const std::string& prefix,
                  const std::vector<double>& samples,
                  const std::string& unit) {
  report->Metric(prefix + "_p50_" + unit, Quantile(samples, 0.5), unit);
  report->Metric(prefix + "_p99_" + unit, Quantile(samples, 0.99), unit);
}

}  // namespace perfbench

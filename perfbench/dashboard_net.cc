// dashboard_net: data in motion, open loop at one fixed rate. One producer
// connection streams a seeded sensor series (about 100k sensor keys) to
// SocketIngest on a schedule, each record stamped with its due time. The
// job runs SocketSource -> KeyBy(sensor) -> running reduce; its sink
// publishes every update to a keyed SubscriptionServer topic and feeds one
// sensor into a VizServer bound to a pixel topic. Incremental checkpoints
// go to an IncrementalSnapshotStore at a fixed interval. One reader thread
// serves three subscribers: the updates topic from the start, the updates
// topic attached mid-run (snapshot then deltas), and the pixel topic.

#include <poll.h>
#include <sys/socket.h>

#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/datastream.h"
#include "common/random.h"
#include "dataflow/snapshot.h"
#include "net/event_loop.h"
#include "net/frame.h"
#include "net/socket.h"
#include "net/socket_source.h"
#include "net/subscription_server.h"
#include "viz/server.h"
#include "workload/timeseries.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace streamline;
namespace fs = std::filesystem;

constexpr int64_t kSensors = 100'000;
/// Offered load. Well below the rate at which the ingest backlog starts to
/// grow on a 4-thread host, so the program sets the tail, not a queue.
constexpr double kRatePerSec = 20'000;
/// Before the open loop every sensor reports once, as a burst at this rate,
/// so the timed phase runs on fully grown keyed state (100k keys in the
/// reduce, the topic's retained map and the changelog) instead of timing
/// hash-table growth; the open loop starts kSettleNs after the burst.
constexpr double kPreloadPerSec = 100'000;
constexpr int64_t kSettleNs = 500'000'000;
constexpr int kParallelism = 4;
constexpr int64_t kCheckpointEveryMs = 500;
/// The sensor whose series the VizServer renders (the hottest key).
constexpr int64_t kVizSensor = 0;
/// Event time is the due offset in microseconds; a pixel column is 10 ms.
constexpr Duration kPixelColumn = 10'000;
constexpr char kUpdates[] = "updates";
constexpr char kPixels[] = "pixels";

// Record layout: [sensor, value, due_ns, seq, count, max].
enum Field : size_t { kSensor, kValue, kDue, kSeq, kCount, kMax };

struct SensorState {
  int64_t count = 0;
  double max = 0;
  double value = 0;
  int64_t seq = -1;
  bool operator==(const SensorState&) const = default;
};

struct PixelColumn4 {
  double min = 0, max = 0, first = 0, last = 0;
  bool operator==(const PixelColumn4&) const = default;
};

struct Input {
  uint64_t n = 0;
  uint64_t preload = 0;       // records [0, preload) are the burst
  int64_t open_start_ns = 0;  // due time of the first open-loop record
  std::vector<int64_t> due_ns;  // offset from the run start
  std::string wire;             // one pre-encoded frame per record
  std::vector<size_t> offsets;  // n + 1 frame boundaries in `wire`
  /// Oracle: latest-per-key reduce and the offline M4 of the viz sensor.
  std::vector<SensorState> final_state;
  std::map<int64_t, PixelColumn4> columns;
};

/// Generates the schedule (the preload burst, then `open` records at
/// kRatePerSec) and pre-encodes the wire bytes; returns seconds.
double BuildInput(uint64_t open, uint64_t seed, Input* in) {
  const int64_t t0 = NowNs();
  ZipfGenerator sensors(kSensors, 1.0, seed * 0x9E3779B97F4A7C15ULL + 5);
  SeasonalSensorSeries series(RateShape{kRatePerSec, 0.0},
                              SeasonalSensorSeries::Options{}, seed + 11);
  const uint64_t n = kSensors + open;
  in->n = n;
  in->preload = kSensors;
  in->open_start_ns =
      static_cast<int64_t>(static_cast<double>(kSensors) * 1e9 /
                           kPreloadPerSec) +
      kSettleNs;
  in->due_ns.resize(n);
  in->offsets.assign(1, 0);
  in->wire.clear();
  in->wire.reserve(n * 100);
  std::vector<Record> records(n);
  for (uint64_t i = 0; i < n; ++i) {
    const bool burst = i < in->preload;
    const int64_t due =
        burst ? static_cast<int64_t>(static_cast<double>(i) * 1e9 /
                                     kPreloadPerSec)
              : in->open_start_ns +
                    static_cast<int64_t>(
                        static_cast<double>(i - in->preload) * 1e9 /
                        kRatePerSec);
    const int64_t sensor =
        burst ? static_cast<int64_t>(i)
              : static_cast<int64_t>(sensors.Next());
    const double v = series.Next().v;
    in->due_ns[i] = due;
    records[i] = MakeRecord(due / 1000, Value(sensor), Value(v), Value(due),
                            Value(static_cast<int64_t>(i)), Value(int64_t{1}),
                            Value(v));
    in->wire += net::EncodeDataBatch(&records[i], 1);
    in->offsets.push_back(in->wire.size());
  }
  const double secs = static_cast<double>(NowNs() - t0) * 1e-9;

  in->final_state.assign(kSensors, SensorState{});
  in->columns.clear();
  for (const Record& r : records) {
    SensorState& s = in->final_state[r.field(kSensor).AsInt64()];
    const double v = r.field(kValue).AsDouble();
    s.max = s.count == 0 ? v : std::max(s.max, v);
    ++s.count;
    s.value = v;
    s.seq = r.field(kSeq).AsInt64();
    if (r.field(kSensor).AsInt64() == kVizSensor) {
      const int64_t col = r.timestamp / kPixelColumn;
      auto [it, fresh] = in->columns.try_emplace(col);
      PixelColumn4& c = it->second;
      if (fresh) {
        c = PixelColumn4{v, v, v, v};
      } else {
        c.min = std::min(c.min, v);
        c.max = std::max(c.max, v);
        c.last = v;
      }
    }
  }
  return secs;
}

/// Per-record timestamps of the traced run, indexed by seq.
struct RecordTimes {
  explicit RecordTimes(uint64_t n)
      : emitted(n), sink_in(n), sink_out(n), publish_ns(n), received(n) {}
  std::vector<std::atomic<int64_t>> emitted;   // left the source
  std::vector<std::atomic<int64_t>> sink_in;   // sink Invoke entered
  std::vector<std::atomic<int64_t>> sink_out;  // sink Invoke returning
  std::vector<std::atomic<int64_t>> publish_ns;
  std::vector<int64_t> received;  // reader thread only
};

class UpdateSink : public SinkFunction {
 public:
  UpdateSink(net::SubscriptionServer* server, VizServer* viz,
             RecordTimes* times)
      : server_(server), viz_(viz), times_(times) {}

  Status Invoke(const Record& r) override {
    const int64_t seq = r.field(kSeq).AsInt64();
    const int64_t t_in = times_ != nullptr ? NowNs() : 0;
    server_->Publish(kUpdates, r);
    const int64_t t_pub = times_ != nullptr ? NowNs() : 0;
    if (r.field(kSensor).AsInt64() == kVizSensor) {
      // The sensor's records arrive in order on one subtask, so its own
      // timestamps are punctuation: every earlier pixel column is complete.
      const int64_t v0 = NowNs();
      viz_->OnElement(r.timestamp, r.field(kValue).AsDouble());
      viz_->OnWatermark(r.timestamp);
      viz_ns_.fetch_add(static_cast<uint64_t>(NowNs() - v0),
                        std::memory_order_relaxed);
      viz_inputs_.fetch_add(1, std::memory_order_relaxed);
    }
    if (times_ != nullptr && seq >= 0 &&
        static_cast<size_t>(seq) < times_->sink_in.size()) {
      times_->sink_in[seq].store(t_in, std::memory_order_relaxed);
      times_->publish_ns[seq].store(t_pub - t_in, std::memory_order_relaxed);
      times_->sink_out[seq].store(NowNs(), std::memory_order_relaxed);
    }
    return Status::Ok();
  }
  std::string Name() const override { return "publish-updates"; }

  uint64_t viz_ns() const { return viz_ns_.load(); }
  uint64_t viz_inputs() const { return viz_inputs_.load(); }

 private:
  net::SubscriptionServer* server_;
  VizServer* viz_;
  RecordTimes* times_;
  std::atomic<uint64_t> viz_ns_{0};
  std::atomic<uint64_t> viz_inputs_{0};
};

/// The serving stack: ingest, egress, viz, snapshot store and the job.
struct Stack {
  std::unique_ptr<net::EventLoop> ingest_loop;
  std::unique_ptr<net::EventLoop> egress_loop;
  std::shared_ptr<net::SocketIngest> ingest;
  std::unique_ptr<net::SubscriptionServer> server;
  std::unique_ptr<VizServer> viz;
  std::shared_ptr<IncrementalSnapshotStore> store;
  std::shared_ptr<UpdateSink> sink;
  std::shared_ptr<std::vector<SourceProbe>> probes;
  std::unique_ptr<Job> job;
  net::Fd producer;
  net::Fd sub_updates;
  net::Fd sub_pixels;
  std::string ckpt_dir;

  ~Stack() {
    producer.reset();
    job.reset();
    if (egress_loop) egress_loop->Stop();
    if (ingest_loop) ingest_loop->Stop();
    server.reset();
    ingest.reset();
    std::error_code ec;
    if (!ckpt_dir.empty()) fs::remove_all(ckpt_dir, ec);
  }
};

Result<net::Fd> Subscribe(uint16_t port, const std::string& topic) {
  auto fd = net::TcpConnect(port);
  if (!fd.ok()) return fd.status();
  const std::string sub = net::EncodeSubscribe(topic);
  STREAMLINE_RETURN_IF_ERROR(net::SendAll(fd->get(), sub.data(), sub.size()));
  STREAMLINE_RETURN_IF_ERROR(net::SetNonBlocking(fd->get()));
  return fd;
}

/// Builds the serving stack up to connected clients; the job is created,
/// not started.
Status BuildStack(const Options& opt, RecordTimes* times, bool traced,
                  Stack* st) {
  st->ingest_loop = std::make_unique<net::EventLoop>();
  st->egress_loop = std::make_unique<net::EventLoop>();
  auto ingest = net::SocketIngest::Create(st->ingest_loop.get(),
                                          net::IngestOptions{});
  if (!ingest.ok()) return ingest.status();
  st->ingest = std::move(*ingest);
  // The send buffer must hold a late subscriber's snapshot of all 100k
  // sensors (about 10 MB) on top of live deltas.
  net::SubscriptionServer::Options sopt;
  sopt.send_buffer_limit_bytes = 64u << 20;
  auto server =
      net::SubscriptionServer::Create(st->egress_loop.get(), sopt);
  if (!server.ok()) return server.status();
  st->server = std::move(*server);
  STREAMLINE_RETURN_IF_ERROR(
      st->server->RegisterTopic(kUpdates, static_cast<int>(kSensor)));
  st->viz = std::make_unique<VizServer>(kPixelColumn, 4);
  STREAMLINE_RETURN_IF_ERROR(st->viz->BindNetwork(st->server.get(), kPixels));
  STREAMLINE_RETURN_IF_ERROR(st->ingest_loop->Start());
  STREAMLINE_RETURN_IF_ERROR(st->egress_loop->Start());

  st->ckpt_dir = opt.work_dir + "/ckpt-" + std::to_string(::getpid()) + "-" +
                 std::to_string(NowNs());
  st->store = std::make_shared<IncrementalSnapshotStore>(st->ckpt_dir);
  st->sink = std::make_shared<UpdateSink>(st->server.get(), st->viz.get(),
                                          times);
  st->probes = std::make_shared<std::vector<SourceProbe>>(1);
  if (times != nullptr) {
    (*st->probes)[0].emit_ns_by_seq = &times->emitted;
    (*st->probes)[0].seq_field = kSeq;
  }
  Environment env(kParallelism);
  auto source = st->ingest;
  auto probes = st->probes;
  env.FromSource("sensor-socket",
                 [source, probes, traced](int, int) {
                   return Probe(std::make_unique<net::SocketSource>(source),
                                &(*probes)[0], traced);
                 })
      .KeyBy(kSensor)
      .Reduce(
          [](const Record& acc, const Record& in) {
            return Record(
                in.timestamp,
                {in.field(kSensor), in.field(kValue), in.field(kDue),
                 in.field(kSeq),
                 Value(acc.field(kCount).AsInt64() + 1),
                 Value(std::max(acc.field(kMax).AsDouble(),
                                in.field(kValue).AsDouble()))});
          },
          "sensor-state")
      .Sink(st->sink, "publish");
  JobOptions options;
  options.worker_threads = WorkerThreads();
  options.snapshot_store = st->store;
  options.incremental_checkpoints = true;
  auto job = env.CreateJob(options);
  if (!job.ok()) return job.status();
  st->job = std::move(*job);

  auto a = Subscribe(st->server->port(), kUpdates);
  if (!a.ok()) return a.status();
  st->sub_updates = std::move(*a);
  auto c = Subscribe(st->server->port(), kPixels);
  if (!c.ok()) return c.status();
  st->sub_pixels = std::move(*c);
  auto p = net::TcpConnect(st->ingest->port());
  if (!p.ok()) return p.status();
  st->producer = std::move(*p);
  return net::SetNoDelay(st->producer.get());
}

/// One subscriber connection as the reader thread sees it.
struct Subscriber {
  net::Fd fd;
  net::FrameDecoder decoder;
  bool updates = true;  // else pixels
  bool snapshot_done = false;
  bool closed = false;
  uint64_t bytes = 0;
  uint64_t records = 0;
  std::vector<SensorState> state;
  std::map<int64_t, PixelColumn4> columns;
};

/// Reads every frame available on `sub`; `on_update` sees updates-topic
/// records as they are decoded. Returns false on a protocol error.
template <typename Fn>
bool Drain(Subscriber* sub, std::vector<Record>* scratch, Fn&& on_update) {
  char buf[1 << 16];
  for (;;) {
    const ssize_t got = ::recv(sub->fd.get(), buf, sizeof(buf), MSG_DONTWAIT);
    if (got == 0) {
      sub->closed = true;
      return true;
    }
    if (got < 0) return errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR;
    sub->bytes += static_cast<uint64_t>(got);
    sub->decoder.Append(buf, static_cast<size_t>(got));
    std::string_view payload;
    for (;;) {
      auto next = sub->decoder.Next(&payload);
      if (!next.ok()) return false;
      if (!*next) break;
      const auto type = static_cast<uint8_t>(payload[0]);
      if (type == net::kMsgSnapshotEnd) sub->snapshot_done = true;
      if (type != net::kMsgData) continue;
      scratch->clear();
      if (!net::DecodeDataBatch(payload, scratch).ok()) return false;
      for (const Record& r : *scratch) {
        ++sub->records;
        if (sub->updates) {
          on_update(r);
          SensorState& s = sub->state[r.field(kSensor).AsInt64()];
          s = SensorState{r.field(kCount).AsInt64(), r.field(kMax).AsDouble(),
                          r.field(kValue).AsDouble(), r.field(kSeq).AsInt64()};
        } else {
          sub->columns[r.field(0).AsInt64()] =
              PixelColumn4{r.field(1).AsDouble(), r.field(2).AsDouble(),
                           r.field(3).AsDouble(), r.field(4).AsDouble()};
        }
      }
    }
  }
}

uint64_t CompareStates(const Input& in, const std::vector<SensorState>& got,
                       const std::string& who, Report* report) {
  uint64_t bad = 0;
  for (int64_t k = 0; k < kSensors; ++k) {
    if (got[k] == in.final_state[k]) continue;
    if (++bad <= 3) {
      report->Fail("dashboard_net: " + who + " sensor " + std::to_string(k) +
                   " count " + std::to_string(got[k].count) + " seq " +
                   std::to_string(got[k].seq) + ", expected count " +
                   std::to_string(in.final_state[k].count) + " seq " +
                   std::to_string(in.final_state[k].seq));
    }
  }
  return bad;
}

std::pair<uint64_t, uint64_t> CheckpointBytes(const std::string& dir) {
  uint64_t base = 0, delta = 0;
  std::error_code ec;
  for (auto it = fs::recursive_directory_iterator(dir, ec);
       !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
    if (!it->is_regular_file(ec)) continue;
    const std::string name = it->path().filename().string();
    const uint64_t size = it->file_size(ec);
    if (name.rfind("base", 0) == 0) base += size;
    if (name.rfind("seg", 0) == 0) delta += size;
  }
  return {base, delta};
}

}  // namespace

void RunDashboardNet(const Options& opt, const Phase& phase, Report* report) {
  const double seconds = phase.seconds;
  const uint64_t open = static_cast<uint64_t>(seconds * kRatePerSec);
  const uint64_t n = kSensors + open;
  const bool traced = phase.traced();
  Tracer* tracer = phase.tracer;

  Input in;
  std::vector<double> setup_s;
  std::unique_ptr<RecordTimes> times;
  std::unique_ptr<Stack> st;
  for (int i = 0; i < std::max(1, phase.setup_reps); ++i) {
    st.reset();
    times.reset();
    if (traced) times = std::make_unique<RecordTimes>(n);
    const double gen_s = BuildInput(open, opt.seed, &in);
    const int64_t s0 = NowNs();
    st = std::make_unique<Stack>();
    const Status built = BuildStack(opt, times.get(), traced, st.get());
    if (!built.ok()) {
      report->Fail("dashboard_net: set-up: " + built.ToString());
      report->Tally("dashboard_net.setup", 1, 1);
      return;
    }
    setup_s.push_back(gen_s + static_cast<double>(NowNs() - s0) * 1e-9);
  }
  if (opt.corrupt_oracle) {
    for (auto& s : in.final_state) {
      if (s.count > 0) {
        ++s.count;
        break;
      }
    }
  }

  // Three subscriber connections, read by one thread. The from-start ones
  // are live (their empty snapshot arrived) before the first record is due.
  std::vector<Record> scratch;
  bool protocol_ok = true;
  Subscriber sub_a, sub_b, sub_c;
  sub_a.fd = std::move(st->sub_updates);
  sub_a.state.assign(kSensors, SensorState{});
  sub_c.fd = std::move(st->sub_pixels);
  sub_c.updates = false;
  sub_b.state.assign(kSensors, SensorState{});
  for (int i = 0; i < 2000 && !(sub_a.snapshot_done && sub_c.snapshot_done);
       ++i) {
    protocol_ok &= Drain(&sub_a, &scratch, [](const Record&) {});
    protocol_ok &= Drain(&sub_c, &scratch, [](const Record&) {});
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (!sub_a.snapshot_done || !sub_c.snapshot_done) protocol_ok = false;

  // Timed phase. Due times are offsets from t0; the open loop starts at
  // t0 + in.open_start_ns and lasts `seconds`.
  const int64_t t0 = NowNs() + 20'000'000;
  const Usage u0 = ProcessUsage();
  std::atomic<bool> producer_done{false};
  std::atomic<uint64_t> sent{0};
  std::vector<double> late_ms;
  Usage producer_usage;
  std::thread producer([&] {
    uint64_t i = 0;
    const int fd = st->producer.get();
    while (i < in.n) {
      const int64_t now = NowNs() - t0;
      if (now < in.due_ns[i]) {
        // Sleep, never spin: a spinning generator would compete with the
        // engine for the host's cores. Wake-up slack shows up as lateness.
        std::this_thread::sleep_for(
            std::chrono::nanoseconds(in.due_ns[i] - now));
        continue;
      }
      uint64_t j = i;
      while (j < in.n && in.due_ns[j] <= now) ++j;
      late_ms.push_back(static_cast<double>(now - in.due_ns[i]) * 1e-6);
      if (!net::SendAll(fd, in.wire.data() + in.offsets[i],
                        in.offsets[j] - in.offsets[i])
               .ok()) {
        break;
      }
      i = j;
      sent.store(i, std::memory_order_relaxed);
    }
    st->producer.reset();  // clean disconnect: the ingest finishes
    producer_usage = ThreadUsage();
    producer_done.store(true, std::memory_order_release);
  });

  const int64_t open_start = t0 + in.open_start_ns;
  // (due time - open_start, latency) of every open-loop record.
  std::vector<std::pair<int64_t, double>> latency_ms;
  latency_ms.reserve(open);
  std::atomic<bool> stop_reader{false};
  Usage reader_usage;
  double snapshot_ms = 0;
  int64_t last_receipt = open_start;
  uint64_t open_received = 0;
  std::thread reader([&] {
    const int64_t attach_at =
        open_start + static_cast<int64_t>(seconds * 0.5e9);
    int64_t b_connect = 0;
    int64_t quiet_since = 0;
    for (;;) {
      if (!sub_b.fd.valid() && NowNs() >= attach_at) {
        b_connect = NowNs();
        auto fd = Subscribe(st->server->port(), kUpdates);
        if (!fd.ok()) {
          protocol_ok = false;
        } else {
          sub_b.fd = std::move(*fd);
        }
      }
      pollfd fds[3];
      Subscriber* subs[3] = {&sub_a, &sub_c, &sub_b};
      nfds_t nfds = 0;
      for (Subscriber* s : subs) {
        if (s->fd.valid() && !s->closed) {
          fds[nfds++] = pollfd{s->fd.get(), POLLIN, 0};
        }
      }
      const int ready = ::poll(fds, nfds, 1);
      const int64_t now = NowNs();
      if (ready > 0) {
        quiet_since = 0;
        protocol_ok &= Drain(&sub_a, &scratch, [&](const Record& r) {
          const int64_t seq = r.field(kSeq).AsInt64();
          const int64_t due = t0 + r.field(kDue).AsInt64();
          last_receipt = now;
          if (times != nullptr) times->received[seq] = now;
          if (seq >= static_cast<int64_t>(in.preload)) {
            ++open_received;
            latency_ms.emplace_back(due - open_start,
                                    static_cast<double>(now - due) * 1e-6);
          }
        });
        protocol_ok &= Drain(&sub_c, &scratch, [](const Record&) {});
        if (sub_b.fd.valid()) {
          const bool was_done = sub_b.snapshot_done;
          protocol_ok &= Drain(&sub_b, &scratch, [](const Record&) {});
          if (!was_done && sub_b.snapshot_done) {
            snapshot_ms = static_cast<double>(NowNs() - b_connect) * 1e-6;
          }
        }
      } else if (stop_reader.load(std::memory_order_acquire)) {
        if (quiet_since == 0) quiet_since = now;
        if (now - quiet_since > 100'000'000) break;
      }
    }
    reader_usage = ThreadUsage();
  });

  // Control: start the job, checkpoint at a fixed interval while the
  // producer runs, sample the ingest backlog.
  const Status started = st->job->Start();
  std::vector<double> ckpt_ms;
  uint64_t ckpt_attempted = 0, ckpt_failed = 0;
  double backlog_max = 0;
  const uint32_t ckpt_span = traced ? tracer->Name("checkpoint") : 0;
  int64_t next_ckpt = open_start + kCheckpointEveryMs * 1'000'000;
  const int64_t last_ckpt = open_start + static_cast<int64_t>(seconds * 1e9) -
                            kCheckpointEveryMs * 1'000'000;
  while (started.ok() && !producer_done.load(std::memory_order_acquire)) {
    const int64_t now = NowNs();
    const double backlog =
        static_cast<double>(sent.load(std::memory_order_relaxed)) -
        static_cast<double>(
            (*st->probes)[0].published_records.load(std::memory_order_relaxed));
    backlog_max = std::max(backlog_max, backlog);
    if (now >= next_ckpt && now < last_ckpt) {
      next_ckpt += kCheckpointEveryMs * 1'000'000;
      ++ckpt_attempted;
      const int64_t c0 = NowNs();
      const uint64_t id = st->job->TriggerCheckpoint();
      const bool ok = id != 0 && st->job->AwaitCheckpoint(id, 10.0);
      const int64_t c1 = NowNs();
      if (!ok) ++ckpt_failed;
      ckpt_ms.push_back(static_cast<double>(c1 - c0) * 1e-6);
      if (traced) tracer->Add(ckpt_span, c0, c1);
      continue;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  producer.join();
  const Status run = started.ok() ? st->job->AwaitCompletion() : started;
  const Usage usage = ProcessUsage() - u0;
  st->viz->Flush();
  for (int i = 0; i < 500 && st->server->TotalQueuedBytes() > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  stop_reader.store(true, std::memory_order_release);
  reader.join();

  // Checks against the oracle.
  report->Tally("dashboard_net.job", 1, run.ok() ? 0 : 1);
  if (!run.ok()) report->Fail("dashboard_net: job: " + run.ToString());
  const auto ingest = st->ingest->stats();
  const uint64_t lost = in.n > ingest.records ? in.n - ingest.records : 0;
  report->Tally("dashboard_net.records_ingested", in.n, lost);
  if (lost > 0) {
    report->Fail("dashboard_net: " + std::to_string(lost) +
                 " records never reached the engine");
  }
  report->Tally("dashboard_net.from_start_state", kSensors,
                CompareStates(in, sub_a.state, "from-start subscriber",
                              report));
  // Every update must reach the from-start subscriber: one coalesced away
  // under send-queue pressure is a lost latency sample, the slowest kind.
  const uint64_t missed =
      sub_a.records > in.n ? sub_a.records - in.n : in.n - sub_a.records;
  report->Tally("dashboard_net.from_start_updates", in.n, missed);
  if (missed > 0) {
    report->Fail("dashboard_net: from-start subscriber received " +
                 std::to_string(sub_a.records) + " updates, expected " +
                 std::to_string(in.n));
  }
  report->Tally("dashboard_net.late_attach_state", kSensors,
                sub_b.snapshot_done
                    ? CompareStates(in, sub_b.state, "mid-run subscriber",
                                    report)
                    : kSensors);
  uint64_t bad_cols = in.columns.size() == sub_c.columns.size() ? 0 : 1;
  for (const auto& [col, c] : in.columns) {
    auto it = sub_c.columns.find(col);
    if (it == sub_c.columns.end() || !(it->second == c)) ++bad_cols;
  }
  if (bad_cols > 0) {
    report->Fail("dashboard_net: " + std::to_string(bad_cols) +
                 " pixel columns differ from the offline M4 (" +
                 std::to_string(sub_c.columns.size()) + " received, " +
                 std::to_string(in.columns.size()) + " expected)");
  }
  report->Tally("dashboard_net.pixel_columns", in.columns.size(), bad_cols);
  report->Tally("dashboard_net.checkpoints", ckpt_attempted, ckpt_failed);
  const auto egress = st->server->stats();
  const uint64_t disconnects = egress.slow_disconnects +
                               egress.dropped_connections +
                               (sub_a.closed || sub_b.closed || sub_c.closed) +
                               (protocol_ok ? 0 : 1);
  report->Tally("dashboard_net.connections", 3, disconnects);
  if (disconnects > 0) {
    report->Fail("dashboard_net: unexpected disconnect or protocol error");
  }

  const double late_p99 = Quantile(late_ms, 0.99);
  report->Info("dashboard_net.records", std::to_string(in.n));
  report->Info("dashboard_net.rate_per_s", std::to_string(kRatePerSec));
  // Latency quantiles per second of the open loop (by due time), so a
  // disturbed second -- the mid-run snapshot attach, a host hiccup -- moves
  // the run's figure by at most one rank. The first second after the
  // preload is skipped, and so is a last second the schedule fills only in
  // part; which seconds count depends on the schedule alone, never on how
  // many samples arrived (a missing one is a failure, tallied above).
  const size_t full_seconds = static_cast<size_t>(seconds);
  std::vector<std::vector<double>> by_second(full_seconds);
  std::vector<double> all_ms;
  for (const auto& [due, ms] : latency_ms) {
    all_ms.push_back(ms);
    const auto second = static_cast<size_t>(due / 1'000'000'000);
    if (second >= 1 && second < by_second.size()) {
      by_second[second].push_back(ms);
    }
  }
  std::vector<double> p50_by_second, p99_by_second;
  for (size_t i = 1; i < by_second.size(); ++i) {
    p50_by_second.push_back(Quantile(by_second[i], 0.5));
    p99_by_second.push_back(Quantile(by_second[i], 0.99));
  }
  report->Tally("dashboard_net.latency_seconds", 1, p50_by_second.empty());
  if (p50_by_second.empty()) {
    report->Fail("dashboard_net: the open loop ran no full second to time");
  }
  report->Info("dashboard_net.latency_samples", std::to_string(all_ms.size()));
  report->Info("dashboard_net.latency_pooled_p50_ms",
               std::to_string(Quantile(all_ms, 0.5)));
  report->Info("dashboard_net.latency_pooled_p99_ms",
               std::to_string(Quantile(all_ms, 0.99)));
  report->Info("dashboard_net.loadgen_late_p99_ms", std::to_string(late_p99));
  if (late_p99 > 1.0) {
    report->Info("dashboard_net.WARNING",
                 "load generator fell behind its schedule (late p99 " +
                     std::to_string(late_p99) + " ms)");
  }
  const double span_s =
      std::max(1e-9, static_cast<double>(last_receipt - open_start) * 1e-9);
  report->Metric("throughput_rps", static_cast<double>(open_received) / span_s,
                 "rec/s");
  // Host interference only ever adds latency, so the quieter seconds give
  // the median that tracks the program: the lower quartile over seconds
  // (IQR/median 0.028 over ten seeds, against 0.044 for the median).
  report->Metric("latency_p50_ms", Quantile(p50_by_second, 0.25), "ms");
  report->Metric("latency_p99_ms", Median(p99_by_second), "ms");
  Usage load = producer_usage;
  load += reader_usage;
  report->Metric("cpu_us_per_rec",
                 (usage.cpu_s() - load.cpu_s()) * 1e6 /
                     static_cast<double>(in.n),
                 "us");
  report->Metric("setup_s", Median(setup_s), "s");
  report->Metric("peak_rss_mb", ProcessUsage().maxrss_mb, "MiB");
  if (!traced) return;

  // Per-layer metrics.
  report->Metric("loadgen.late_p99_ms", late_p99, "ms");
  report->Metric("ckpt.p50_ms", Quantile(ckpt_ms, 0.5), "ms");
  report->Metric("ckpt.p99_ms", Quantile(ckpt_ms, 0.99), "ms");
  report->Metric("ckpt.completed_frac",
                 ckpt_attempted > 0
                     ? static_cast<double>(ckpt_attempted - ckpt_failed) /
                           static_cast<double>(ckpt_attempted)
                     : 0,
                 "ratio");
  const auto [base_bytes, delta_bytes] = CheckpointBytes(st->ckpt_dir);
  report->Metric("ckpt.base_bytes", static_cast<double>(base_bytes), "bytes");
  report->Metric("ckpt.delta_bytes",
                 ckpt_attempted > 0 ? static_cast<double>(delta_bytes) /
                                          static_cast<double>(ckpt_attempted)
                                    : 0,
                 "bytes");
  report->Metric("ingest.pauses", static_cast<double>(ingest.pauses), "count");
  report->Metric("ingest.backlog_max_rec", backlog_max, "count");
  report->Metric("ingest.bytes_per_rec",
                 ingest.records > 0 ? static_cast<double>(ingest.bytes) /
                                          static_cast<double>(ingest.records)
                                    : 0,
                 "bytes");
  report->Metric("egress.bytes_per_update",
                 egress.frames_sent > 0
                     ? static_cast<double>(egress.bytes_sent) /
                           static_cast<double>(egress.frames_sent)
                     : 0,
                 "bytes");
  report->Metric("egress.max_queued_bytes",
                 static_cast<double>(egress.max_queued_bytes), "bytes");
  report->Metric("egress.coalesced_updates",
                 static_cast<double>(egress.coalesced_updates), "count");
  report->Metric("egress.snapshot_ms", snapshot_ms, "ms");
  const uint64_t viz_inputs = st->sink->viz_inputs();
  report->Metric("viz.on_element_ns",
                 viz_inputs > 0 ? static_cast<double>(st->sink->viz_ns()) /
                                      static_cast<double>(viz_inputs)
                                : 0,
                 "ns");
  report->Metric("viz.wire_bytes_per_input",
                 viz_inputs > 0 ? static_cast<double>(sub_c.bytes) /
                                      static_cast<double>(viz_inputs)
                                : 0,
                 "bytes");
  // Keyed state of the reduce operator, over its subtasks.
  const auto m = ParseMetrics(st->job->metrics()->Report());
  double keys = 0, probe = 0, load_factor = 0;
  for (const auto& [name, v] : m) {
    if (name.rfind("op.sensor-state.", 0) != 0) continue;
    if (name.ends_with(".state.keys")) keys += v;
    if (name.ends_with(".state.max_probe")) probe = std::max(probe, v);
    if (name.ends_with(".state.load_factor")) {
      load_factor = std::max(load_factor, v);
    }
  }
  report->Metric("state.keys", keys, "count");
  report->Metric("state.max_probe", probe, "count");
  report->Metric("state.load_factor", load_factor, "ratio");

  // Per-record spans: net_in (due -> left the source), engine (-> sink
  // entered), net_out (sink returned -> received); the residual is the
  // part of the latency none of the three covers (the sink's own work).
  const uint32_t rec_span = tracer->Name("record");
  const uint32_t in_span = tracer->Name("net_in");
  const uint32_t engine_span = tracer->Name("engine");
  const uint32_t out_span = tracer->Name("net_out");
  std::vector<double> net_in, engine, net_out, residual, publish;
  for (uint64_t seq = 0; seq < in.n; ++seq) {
    const int64_t due = t0 + in.due_ns[seq];
    const int64_t e = times->emitted[seq].load();
    const int64_t si = times->sink_in[seq].load();
    const int64_t so = times->sink_out[seq].load();
    const int64_t rx = times->received[seq];
    if (e == 0 || si == 0 || so == 0 || rx == 0) continue;
    const int64_t root = tracer->Add(rec_span, due, rx, -1, seq);
    tracer->Add(in_span, due, e, root, seq);
    tracer->Add(engine_span, e, si, root, seq);
    tracer->Add(out_span, so, rx, root, seq);
    net_in.push_back(static_cast<double>(e - due) * 1e-6);
    engine.push_back(static_cast<double>(si - e) * 1e-6);
    net_out.push_back(static_cast<double>(rx - so) * 1e-6);
    residual.push_back(static_cast<double>(so - si) * 1e-6);
    publish.push_back(static_cast<double>(times->publish_ns[seq].load()));
  }
  AddQuantiles(report, "trace.net_in", net_in, "ms");
  AddQuantiles(report, "trace.engine", engine, "ms");
  AddQuantiles(report, "trace.net_out", net_out, "ms");
  report->Metric("trace.residual_p50_ms", Quantile(residual, 0.5), "ms");
  report->Metric("egress.publish_ns_p50", Quantile(publish, 0.5), "ns");
  report->Metric("egress.publish_ns_p99", Quantile(publish, 0.99), "ns");
}

}  // namespace perfbench

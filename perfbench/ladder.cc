// The layer ladder: one keyed stream at one worker, built up one layer at
// a time. Each rung runs the same seeded records through one more layer
// than the rung it is compared with, so the difference of their per-record
// times is that layer's cost per record:
//
//   1 gen       the raw generator loop, no engine
//   2 source    FromGenerator -> sink (chained into one task)
//   3 channel   FromGenerator -> Rebalance(1) -> sink (one SPSC hop)
//   4 route     FromGenerator -> hash edge -> identity map -> sink
//   5 keyed     FromGenerator -> KeyBy -> keyed reduce -> sink
//   6 slicing   FromGenerator -> KeyBy -> tumbling window sum -> sink
//   7 sink      rung 6 with a sink that checks every result
//   8 socket    rung 7 fed by SocketSource from a loopback producer
//
// keyed and slicing both replace rung 4's identity map, so each is
// measured against rung 4; the others against the rung before.

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/datastream.h"
#include "net/event_loop.h"
#include "net/frame.h"
#include "net/socket.h"
#include "net/socket_source.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace streamline;

constexpr int64_t kKeys = 1'000;
constexpr Duration kWindow = 1000;
constexpr uint64_t kWatermarkEvery = 256;
constexpr size_t kWireBatch = 256;

/// Record `seq` of the ladder stream: [key, value] at ts = seq.
Record Gen(uint64_t seq, uint64_t seed) {
  uint64_t x = (seq + 1) * 0x9E3779B97F4A7C15ULL ^ seed;
  x ^= x >> 31;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 29;
  return MakeRecord(static_cast<Timestamp>(seq),
                    Value(static_cast<int64_t>(x % kKeys)),
                    Value(static_cast<int64_t>(seq & 1023)));
}

enum class Rung { kSource, kChannel, kRoute, kKeyed, kSlicing, kSink, kSocket };

/// Sums every window result; the total must equal the input's value sum.
class CheckingSink : public SinkFunction {
 public:
  Status Invoke(const Record& r) override {
    sum_.fetch_add(static_cast<int64_t>(r.field(4).ToDouble()),
                   std::memory_order_relaxed);
    return Status::Ok();
  }
  std::string Name() const override { return "checking"; }
  int64_t sum() const { return sum_.load(); }

 private:
  std::atomic<int64_t> sum_{0};
};

/// Runs one rung to completion; returns seconds of Job run time (or -1).
double RunRung(Rung rung, uint64_t n, uint64_t seed, const std::string& wire,
               int64_t expected_sum, Report* report) {
  Environment env(1);
  auto gen = [n, seed](uint64_t seq) -> std::optional<Record> {
    if (seq >= n) return std::nullopt;
    return Gen(seq, seed);
  };
  auto null_sink = std::make_shared<NullSink>();
  auto checking = std::make_shared<CheckingSink>();

  std::unique_ptr<net::EventLoop> loop;
  std::shared_ptr<net::SocketIngest> ingest;
  DataStream src = [&] {
    if (rung != Rung::kSocket) {
      return env.FromGenerator("ladder-gen", gen, kWatermarkEvery);
    }
    loop = std::make_unique<net::EventLoop>();
    auto created = net::SocketIngest::Create(loop.get(), net::IngestOptions{});
    STREAMLINE_CHECK_OK(created.status());
    ingest = std::move(*created);
    auto source = ingest;
    return env.FromSource("ladder-socket", [source](int, int) {
      return std::make_unique<net::SocketSource>(source, kWatermarkEvery);
    });
  }();
  switch (rung) {
    case Rung::kSource:
      src.Sink(null_sink);
      break;
    case Rung::kChannel:
      src.Rebalance(1).Sink(null_sink);
      break;
    case Rung::kRoute: {
      LogicalGraph* g = env.graph();
      const int op = g->AddOperator("route", 1, [] {
        return std::make_unique<MapOperator>(
            "route", [](Record&& r) { return std::move(r); });
      });
      STREAMLINE_CHECK_OK(g->Connect(src.node_id(), op, PartitionScheme::kHash,
                                     KeyField(0), 0, 0));
      NodeTraits traits;
      traits.is_sink = true;
      const int sink = g->AddOperator(
          "sink", 1,
          [null_sink] {
            return std::make_unique<SinkOperator>("sink", null_sink);
          },
          traits);
      STREAMLINE_CHECK_OK(g->Connect(op, sink, PartitionScheme::kForward));
      break;
    }
    case Rung::kKeyed:
      src.KeyBy(0)
          .Reduce([](const Record& acc, const Record& in) {
            return Record(in.timestamp,
                          {in.field(0), Value(acc.field(1).AsInt64() +
                                              in.field(1).AsInt64())});
          })
          .Sink(null_sink);
      break;
    case Rung::kSlicing:
      src.KeyBy(0)
          .Window(std::make_shared<TumblingWindowFn>(kWindow))
          .Aggregate(DynAggKind::kSum, 1)
          .Sink(null_sink);
      break;
    case Rung::kSink:
    case Rung::kSocket:
      src.KeyBy(0)
          .Window(std::make_shared<TumblingWindowFn>(kWindow))
          .Aggregate(DynAggKind::kSum, 1)
          .Sink(checking);
      break;
  }
  JobOptions options;
  options.worker_threads = 1;
  auto job = env.CreateJob(options);
  if (!job.ok()) {
    report->Fail("ladder: Job::Create: " + job.status().ToString());
    report->Tally("ladder.jobs", 1, 1);
    return -1;
  }
  net::Fd producer_fd;
  std::thread producer;
  if (rung == Rung::kSocket) {
    STREAMLINE_CHECK_OK(loop->Start());
    auto conn = net::TcpConnect(ingest->port());
    STREAMLINE_CHECK_OK(conn.status());
    producer_fd = std::move(*conn);
  }
  const int64_t t0 = NowNs();
  if (rung == Rung::kSocket) {
    producer = std::thread([&] {
      // Closed loop: the kernel's TCP window is the only pacing.
      net::SendAll(producer_fd.get(), wire.data(), wire.size())
          .IgnoreError("a failed send shows up as missing window sums");
      producer_fd.reset();
    });
  }
  const Status st = (*job)->Run();
  const int64_t t1 = NowNs();
  if (producer.joinable()) producer.join();
  if (loop) loop->Stop();
  report->Tally("ladder.jobs", 1, st.ok() ? 0 : 1);
  if (!st.ok()) {
    report->Fail("ladder: Job::Run: " + st.ToString());
    return -1;
  }
  if (rung == Rung::kSink || rung == Rung::kSocket) {
    const bool ok = checking->sum() == expected_sum;
    report->Tally("ladder.window_sums", 1, ok ? 0 : 1);
    if (!ok) report->Fail("ladder: window results do not sum to the input");
  }
  return static_cast<double>(t1 - t0) * 1e-9;
}

}  // namespace

void RunLadder(const Options& opt, Report* report) {
  const uint64_t n = opt.quick ? 100'000 : 500'000;
  const int reps = opt.quick ? 1 : 3;
  const double rn = static_cast<double>(n);

  int64_t expected_sum = 0;
  std::string wire;  // the stream as data frames of kWireBatch records
  {
    std::vector<Record> batch;
    for (uint64_t i = 0; i < n; ++i) {
      batch.push_back(Gen(i, opt.seed));
      expected_sum += batch.back().field(1).AsInt64();
      if (batch.size() == kWireBatch || i + 1 == n) {
        wire += net::EncodeDataBatch(batch.data(), batch.size());
        batch.clear();
      }
    }
  }

  // Rung 1: the generator alone.
  std::vector<double> gen_ns;
  for (int r = 0; r < reps; ++r) {
    int64_t sink = 0;
    const int64_t t0 = NowNs();
    for (uint64_t i = 0; i < n; ++i) sink += Gen(i, opt.seed).field(1).AsInt64();
    gen_ns.push_back(static_cast<double>(NowNs() - t0) / rn);
    if (sink != expected_sum) report->Fail("ladder: generator mismatch");
  }

  std::map<Rung, double> ns;
  for (Rung rung : {Rung::kSource, Rung::kChannel, Rung::kRoute, Rung::kKeyed,
                    Rung::kSlicing, Rung::kSink, Rung::kSocket}) {
    std::vector<double> v;
    for (int r = 0; r < reps; ++r) {
      const double s = RunRung(rung, n, opt.seed, wire, expected_sum, report);
      if (s > 0) v.push_back(s * 1e9 / rn);
    }
    ns[rung] = Median(v);
  }
  const double gen = Median(gen_ns);
  report->Metric("ladder.gen_ns_per_rec", gen, "ns");
  report->Metric("ladder.source_ns_per_rec", ns[Rung::kSource] - gen, "ns");
  report->Metric("ladder.channel_ns_per_rec",
                 ns[Rung::kChannel] - ns[Rung::kSource], "ns");
  report->Metric("ladder.route_ns_per_rec",
                 ns[Rung::kRoute] - ns[Rung::kChannel], "ns");
  report->Metric("ladder.keyed_state_ns_per_rec",
                 ns[Rung::kKeyed] - ns[Rung::kRoute], "ns");
  report->Metric("ladder.slicing_ns_per_rec",
                 ns[Rung::kSlicing] - ns[Rung::kRoute], "ns");
  report->Metric("ladder.sink_ns_per_rec",
                 ns[Rung::kSink] - ns[Rung::kSlicing], "ns");
  report->Metric("ladder.socket_ingest_ns_per_rec",
                 ns[Rung::kSocket] - ns[Rung::kSink], "ns");
  report->Metric("ladder.total_ns_per_rec", ns[Rung::kSocket], "ns");
}

}  // namespace perfbench

// End-to-end failure recovery: supervised jobs with injected mid-run
// crashes (source, operator and sink variants; Status and exception kinds)
// recover from the latest complete checkpoint and produce exactly the
// fault-free committed output.

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <map>
#include <thread>
#include <tuple>

#include "api/datastream.h"
#include "common/fault_injection.h"
#include "dataflow/supervisor.h"

namespace streamline {
namespace {

namespace fs = std::filesystem;

constexpr uint64_t kTotal = 2000;
constexpr int64_t kKeys = 7;
constexpr int64_t kWindow = 50;

/// Deterministic checkpointable source: keyed records with ts = seq,
/// lightly paced so periodic checkpoints land mid-stream.
class ChaosSource : public SourceFunction {
 public:
  explicit ChaosSource(uint64_t total) : total_(total) {}

  Result<SourcePoll> Poll(SourceContext* ctx) override {
    if (pos_ >= total_) return SourcePoll::kExhausted;
    Record r = MakeRecord(static_cast<Timestamp>(pos_),
                          Value(static_cast<int64_t>(pos_ % kKeys)),
                          Value(static_cast<int64_t>(pos_)));
    const Timestamp ts = r.timestamp;
    if (!ctx->Emit(std::move(r))) return SourcePoll::kExhausted;
    ++pos_;
    ctx->EmitWatermark(ts);
    if (pos_ % 100 == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return pos_ < total_ ? SourcePoll::kHasMore : SourcePoll::kExhausted;
  }

  Status SnapshotState(BinaryWriter* w) const override {
    w->WriteU64(pos_);
    return Status::Ok();
  }
  Status RestoreState(BinaryReader* r) override {
    auto pos = r->ReadU64();
    if (!pos.ok()) return pos.status();
    pos_ = *pos;
    return Status::Ok();
  }
  std::string Name() const override { return "chaos"; }

 private:
  uint64_t total_;
  uint64_t pos_ = 0;
};

/// gen -> keyed tumbling-window sum ("agg") -> transactional sink ("sink").
std::shared_ptr<TransactionalCollectSink> BuildWindowJob(Environment* env) {
  auto sink = std::make_shared<TransactionalCollectSink>();
  env->FromSource("gen",
                  [](int, int) -> std::unique_ptr<SourceFunction> {
                    return std::make_unique<ChaosSource>(kTotal);
                  },
                  1)
      .KeyBy(0)
      .Window(std::make_shared<TumblingWindowFn>(kWindow))
      .Aggregate(DynAggKind::kSum, 1, WindowBackend::kShared, "agg")
      .Sink(sink, "sink");
  return sink;
}

// (key, window_start, window_end, query_index) -> (sum, occurrences).
using WindowKey = std::tuple<int64_t, int64_t, int64_t, int64_t>;
std::map<WindowKey, std::pair<double, int>> Summarize(
    const std::vector<Record>& records) {
  std::map<WindowKey, std::pair<double, int>> out;
  for (const Record& r : records) {
    WindowKey k{r.field(0).AsInt64(), r.field(1).AsInt64(),
                r.field(2).AsInt64(), r.field(3).AsInt64()};
    auto [it, inserted] = out.try_emplace(k, r.field(4).AsDouble(), 1);
    if (!inserted) ++it->second.second;
  }
  return out;
}

std::map<WindowKey, std::pair<double, int>> FaultFreeReference() {
  Environment env;
  auto sink = BuildWindowJob(&env);
  EXPECT_TRUE(env.Execute().ok());
  sink->OnBarrier(9999);  // commit the tail after the last barrier
  auto ref = Summarize(sink->committed());
  EXPECT_EQ(ref.size(),
            static_cast<size_t>(kKeys * (kTotal / kWindow)));
  return ref;
}

/// Runs the windowed job supervised with `rule` injected; asserts it
/// recovers and commits exactly the fault-free output.
void RunChaosVariant(FaultInjector::Rule rule, bool durable_store = false) {
  static const auto kReference = FaultFreeReference();

  auto injector = std::make_shared<FaultInjector>();
  injector->AddRule(std::move(rule));

  Environment env;
  auto sink = BuildWindowJob(&env);
  JobOptions opts;
  opts.checkpoint_interval_ms = 2;
  opts.fault_injector = injector;
  std::string store_dir;
  if (durable_store) {
    store_dir = (fs::temp_directory_path() / "slss_chaos_e2e").string();
    fs::remove_all(store_dir);
    opts.snapshot_store = std::make_shared<FileSnapshotStore>(store_dir);
  }
  RestartPolicy policy;
  policy.max_restarts = 5;
  policy.initial_backoff_ms = 1;
  SupervisionStats stats;
  const Status st = env.ExecuteSupervised(opts, policy, &stats);
  ASSERT_TRUE(st.ok()) << st.ToString();
  ASSERT_GE(stats.restarts, 1) << "fault never fired";
  EXPECT_EQ(injector->fires(), 1u);

  sink->OnBarrier(9999);  // commit the tail after the last barrier
  const auto got = Summarize(sink->committed());
  ASSERT_EQ(got.size(), kReference.size());
  for (const auto& [k, v] : kReference) {
    auto it = got.find(k);
    ASSERT_NE(it, got.end())
        << "missing window (key=" << std::get<0>(k)
        << ", start=" << std::get<1>(k) << ")";
    EXPECT_EQ(it->second.first, v.first)
        << "wrong sum for key " << std::get<0>(k)
        << ", start=" << std::get<1>(k);
    // Exactly-once: every window result committed exactly once.
    EXPECT_EQ(it->second.second, 1)
        << "duplicate committed window (key=" << std::get<0>(k)
        << ", start=" << std::get<1>(k) << ")";
  }
  if (!store_dir.empty()) fs::remove_all(store_dir);
}

TEST(ChaosRecoveryTest, OperatorStatusFaultRecovers) {
  RunChaosVariant(FaultInjector::FailAtHit("op:agg", 900));
}

TEST(ChaosRecoveryTest, OperatorThrowFaultRecovers) {
  RunChaosVariant(FaultInjector::FailAtHit(
      "op:agg", 900, FaultInjector::FaultKind::kThrow));
}

TEST(ChaosRecoveryTest, SourceFaultRecovers) {
  RunChaosVariant(FaultInjector::FailAtHit("source:gen", 700));
}

TEST(ChaosRecoveryTest, SinkFaultRecovers) {
  RunChaosVariant(FaultInjector::FailAtHit("op:sink", 120));
}

TEST(ChaosRecoveryTest, RecoversWithDurableFileStore) {
  RunChaosVariant(FaultInjector::FailAtHit("op:agg", 900),
                  /*durable_store=*/true);
}

TEST(ChaosRecoveryTest, CheckpointTimeFaultRecovers) {
  // Fails the window operator's snapshot call for the 2nd checkpoint; the
  // checkpoint stays incomplete and recovery uses an older one.
  RunChaosVariant(FaultInjector::FailOnCheckpoint("op:agg", 2));
}

TEST(ChaosRecoveryTest, UnsupervisedFailingJobReturnsError) {
  auto injector = std::make_shared<FaultInjector>();
  injector->AddRule(FaultInjector::FailAtHit("op:agg", 500));
  Environment env;
  auto sink = BuildWindowJob(&env);
  JobOptions opts;
  opts.fault_injector = injector;
  const Status st = env.Execute(opts);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInternal);
  EXPECT_NE(st.message().find("injected fault"), std::string::npos)
      << st.ToString();
  EXPECT_NE(st.message().find("task '"), std::string::npos) << st.ToString();
}

TEST(ChaosRecoveryTest, UnsupervisedThrowingJobReturnsError) {
  auto injector = std::make_shared<FaultInjector>();
  injector->AddRule(FaultInjector::FailAtHit(
      "source:gen", 100, FaultInjector::FaultKind::kThrow));
  Environment env;
  BuildWindowJob(&env);
  JobOptions opts;
  opts.fault_injector = injector;
  const Status st = env.Execute(opts);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("injected fault"), std::string::npos)
      << st.ToString();
}

TEST(SupervisorTest, GivesUpAfterMaxRestarts) {
  auto injector = std::make_shared<FaultInjector>();
  auto rule = FaultInjector::FailAtHit("op:agg", 1);
  rule.max_fires = 0;  // every incarnation dies on its first record
  injector->AddRule(rule);

  Environment env;
  BuildWindowJob(&env);
  JobOptions opts;
  opts.fault_injector = injector;
  RestartPolicy policy;
  policy.max_restarts = 2;
  policy.initial_backoff_ms = 1;
  SupervisionStats stats;
  const Status st = env.ExecuteSupervised(opts, policy, &stats);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(stats.restarts, 2);
  EXPECT_EQ(stats.failures.size(), 3u);  // initial run + 2 restarts
  EXPECT_NE(st.message().find("after 2 restarts"), std::string::npos)
      << st.ToString();
}

TEST(SupervisorTest, CircuitBreakerStopsRestartStorm) {
  auto injector = std::make_shared<FaultInjector>();
  auto rule = FaultInjector::FailAtHit("op:agg", 1);
  rule.max_fires = 0;
  injector->AddRule(rule);

  Environment env;
  BuildWindowJob(&env);
  JobOptions opts;
  opts.fault_injector = injector;
  RestartPolicy policy;
  policy.max_restarts = 100;
  policy.initial_backoff_ms = 0;
  policy.circuit_breaker_failures = 3;
  policy.circuit_breaker_window_ms = 60000;
  SupervisionStats stats;
  const Status st = env.ExecuteSupervised(opts, policy, &stats);
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(stats.circuit_broken);
  EXPECT_LT(stats.restarts, 10);
  EXPECT_NE(st.message().find("circuit breaker"), std::string::npos)
      << st.ToString();
}

TEST(SupervisorTest, FallsBackWhenRestoreCandidateIsBroken) {
  // A "complete" checkpoint with no state behind it (models an
  // unreadable/corrupt restore point): the supervisor blacklists it and
  // restarts fresh instead of dying.
  auto injector = std::make_shared<FaultInjector>();
  injector->AddRule(FaultInjector::FailAtHit("op:agg", 500));

  auto store = std::make_shared<SnapshotStore>();
  ASSERT_TRUE(store->Put(99, "bogus", "not task state").ok());
  store->MarkComplete(99);

  Environment env;
  auto sink = BuildWindowJob(&env);
  JobOptions opts;
  opts.snapshot_store = store;
  opts.fault_injector = injector;
  // No periodic checkpoints: the broken checkpoint is the only candidate.
  RestartPolicy policy;
  policy.max_restarts = 3;
  policy.initial_backoff_ms = 1;
  SupervisionStats stats;
  const Status st = env.ExecuteSupervised(opts, policy, &stats);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(stats.restarts, 1);
  ASSERT_EQ(stats.restored_from.size(), 1u);
  EXPECT_EQ(stats.restored_from[0], 0u);  // fresh start after fallback
}

TEST(SupervisorTest, CancelStopsSupervision) {
  // Unbounded-ish job (big total, no faults): cancel from another thread.
  Environment env;
  auto sink = std::make_shared<TransactionalCollectSink>();
  env.FromSource("gen",
                 [](int, int) -> std::unique_ptr<SourceFunction> {
                   return std::make_unique<ChaosSource>(kTotal * 1000);
                 },
                 1)
      .Sink(sink, "sink");
  JobSupervisor supervisor(env.graph(), JobOptions());
  std::thread canceller([&] {
    // Cancel a running job: a cancel that lands before the first attempt
    // starts ends supervision with Cancelled instead, which is a
    // different case.
    while (sink->pending_size() == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    supervisor.Cancel();
  });
  const Status st = supervisor.Run();
  canceller.join();
  // Cancellation drains cleanly: the job completes without a failure.
  EXPECT_TRUE(st.ok()) << st.ToString();
}

}  // namespace
}  // namespace streamline

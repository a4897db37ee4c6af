// Tests for the observability layer (metrics registry + rpc tracing) and
// regression tests for the accounting bugs it surfaced: cancelled-byte
// accounting in the scheduler, corrupt duplicate-cache entries at the qrpc
// server, double-charged overlapping stable-log flushes, and stale loss
// backoff carried across a reconnection. Node registries must also keep
// counting across a crash-restart that rebuilds the components.

#include <gtest/gtest-spi.h>
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/core/toolkit.h"
#include "src/obs/metrics.h"
#include "src/obs/rpc_trace.h"
#include "src/qrpc/qrpc.h"
#include "src/qrpc/stable_log.h"
#include "src/sim/network.h"
#include "src/transport/transport.h"
#include "tests/test_metrics.h"

namespace rover {
namespace {

TimePoint At(double seconds) { return TimePoint::Epoch() + Duration::Seconds(seconds); }

// --- registry unit tests ---

TEST(MetricsRegistryTest, CounterCreateOrGet) {
  obs::Registry reg;
  obs::Counter* c = reg.counter("a.hits");
  c->Increment();
  c->Increment(4);
  EXPECT_EQ(reg.counter("a.hits"), c);  // same handle back
  EXPECT_EQ(reg.CounterValue("a.hits"), 5u);
  EXPECT_EQ(reg.CounterValue("missing"), 0u);
  EXPECT_EQ(reg.FindCounter("missing"), nullptr);
}

TEST(MetricsRegistryTest, GaugeSetAndAdd) {
  obs::Registry reg;
  obs::Gauge* g = reg.gauge("q.depth");
  g->Set(10);
  g->Add(-3);
  EXPECT_EQ(reg.FindGauge("q.depth")->value(), 7);
}

TEST(MetricsRegistryTest, HistogramBuckets) {
  obs::Registry reg;
  obs::Histogram* h = reg.histogram("lat", {0.001, 0.01, 0.1});
  h->Observe(0.0005);  // bucket 0
  h->Observe(0.05);    // bucket 2
  h->Observe(5.0);     // overflow
  EXPECT_EQ(h->count(), 3u);
  EXPECT_DOUBLE_EQ(h->max(), 5.0);
  ASSERT_EQ(h->bucket_counts().size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(h->bucket_counts()[0], 1u);
  EXPECT_EQ(h->bucket_counts()[2], 1u);
  EXPECT_EQ(h->bucket_counts()[3], 1u);
}

TEST(MetricsRegistryTest, RenderTextAndJson) {
  obs::Registry reg;
  reg.counter("b.count")->Increment(2);
  reg.gauge("a.depth")->Set(1);
  reg.histogram("c.lat", {0.5})->Observe(0.25);
  const std::string text = reg.Render(obs::RenderFormat::kText);
  // Deterministic, sorted, one line per instrument.
  EXPECT_NE(text.find("a.depth 1"), std::string::npos);
  EXPECT_NE(text.find("b.count 2"), std::string::npos);
  EXPECT_NE(text.find("c.lat count=1"), std::string::npos);
  const std::string json = reg.Render(obs::RenderFormat::kJson);
  EXPECT_NE(json.find("\"b.count\":2"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
}

// The checked reads tests use: an unknown name must fail the test, not read
// as a passing 0.
TEST(MetricsRegistryTest, CheckedReadsFailOnUnknownNames) {
  obs::Registry reg;
  reg.counter("a.hits")->Increment(3);
  reg.gauge("a.depth")->Set(-2);
  EXPECT_EQ(Count(&reg, "a.hits"), 3u);
  EXPECT_EQ(GaugeValue(&reg, "a.depth"), -2);
  EXPECT_NONFATAL_FAILURE(Count(&reg, "a.hit"), "no counter named \"a.hit\"");
  // A name that exists as another kind of instrument is unknown too.
  EXPECT_NONFATAL_FAILURE(Count(&reg, "a.depth"), "no counter named \"a.depth\"");
  EXPECT_NONFATAL_FAILURE(GaugeValue(&reg, "a.hits"), "no gauge named \"a.hits\"");
  EXPECT_EQ(reg.FindCounter("a.hit"), nullptr) << "a checked read created the counter";
}

TEST(RpcTracerTest, RecordsOrderedEventsAndEvicts) {
  obs::RpcTracer tracer(/*max_spans=*/2);
  tracer.Record(1, obs::RpcEvent::kEnqueued, At(0.0));
  tracer.Record(1, obs::RpcEvent::kTransmitted, At(1.0));
  tracer.Record(1, obs::RpcEvent::kTransmitted, At(2.0));
  tracer.Record(1, obs::RpcEvent::kResponded, At(3.0));
  ASSERT_NE(tracer.Find(1), nullptr);
  EXPECT_EQ(tracer.Find(1)->CountOf(obs::RpcEvent::kTransmitted), 2u);
  EXPECT_EQ(tracer.Find(1)->FirstTime(obs::RpcEvent::kTransmitted), At(1.0));
  tracer.Record(2, obs::RpcEvent::kEnqueued, At(4.0));
  tracer.Record(3, obs::RpcEvent::kEnqueued, At(5.0));  // evicts span 1
  EXPECT_EQ(tracer.span_count(), 2u);
  EXPECT_EQ(tracer.Find(1), nullptr);
  EXPECT_NE(tracer.Find(3), nullptr);
}

// --- satellite 1: cancelled messages must not count as sent payload ---

TEST(SchedulerAccountingTest, CancelledBytesNotCountedAsSent) {
  EventLoop loop;
  Network net(&loop);
  // Link permanently down: the message can never be transmitted.
  net.Connect("mobile", "server", LinkProfile::WaveLan2(),
              std::make_unique<ConstantConnectivity>(false));
  obs::Registry metrics;
  TransportManager tm(&loop, net.FindHost("mobile"), &metrics);

  Message msg;
  msg.header.message_id = 7;
  msg.header.type = MessageType::kRequest;
  msg.header.dst = "server";
  msg.payload = Bytes(300, 0xab);  // incompressible-ish small payload
  const size_t queued_payload = [&] {
    tm.Send(msg);
    return tm.scheduler()->QueueDepthFor("server");
  }();
  EXPECT_EQ(queued_payload, 1u);

  ASSERT_TRUE(tm.scheduler()->CancelMessage("server", 7));
  loop.Run();

  EXPECT_EQ(Count(&metrics, "scheduler.messages_enqueued"), 1u);
  EXPECT_EQ(Count(&metrics, "scheduler.payload_bytes_sent"), 0u)
      << "cancelled payload was charged as sent";
  EXPECT_GT(Count(&metrics, "scheduler.payload_bytes_cancelled"), 0u);
  EXPECT_EQ(Count(&metrics, "scheduler.messages_delivered"), 0u);
}

TEST(SchedulerAccountingTest, DeliveredBytesCountedOnceOnSuccess) {
  EventLoop loop;
  Network net(&loop);
  net.Connect("mobile", "server", LinkProfile::Ethernet10());
  obs::Registry metrics;
  TransportManager tm(&loop, net.FindHost("mobile"), &metrics);

  Message msg;
  msg.header.type = MessageType::kRequest;
  msg.header.message_id = 1;
  msg.header.dst = "server";
  msg.payload = Bytes(200, 0x5c);
  tm.Send(msg);
  loop.Run();

  EXPECT_EQ(Count(&metrics, "scheduler.messages_delivered"), 1u);
  // Compression may shrink the payload; sent bytes equal the wire payload,
  // never zero and never double-counted.
  EXPECT_GT(Count(&metrics, "scheduler.payload_bytes_sent"), 0u);
  EXPECT_LE(Count(&metrics, "scheduler.payload_bytes_sent"),
            Count(&metrics, "scheduler.payload_bytes_original"));
  EXPECT_EQ(Count(&metrics, "scheduler.payload_bytes_cancelled"), 0u);
}

// --- satellite 3: overlapping serial flushes must not double-charge ---

TEST(StableLogOverlapTest, OverlappingFlushChargesOnlyRemainder) {
  EventLoop loop;
  obs::Registry metrics;
  StableLog log(&loop, &metrics);  // serial mode
  log.Append(Bytes(100, 1));
  log.Flush(nullptr);  // write 1 in flight (100 + 16 framing bytes)
  log.Append(Bytes(50, 2));
  log.Flush(nullptr);  // must cover only record 2 (50 + 16 bytes)
  loop.Run();
  EXPECT_EQ(Count(&metrics, "stable_log.flushes"), 2u);
  EXPECT_EQ(Count(&metrics, "stable_log.bytes_flushed"), (100u + 16u) + (50u + 16u))
      << "overlapping flush re-wrote bytes already in flight";
  EXPECT_TRUE(log.FullyDurable());
}

TEST(StableLogOverlapTest, RedundantFlushWritesNothingButWaitsForDurability) {
  EventLoop loop;
  obs::Registry metrics;
  StableLog log(&loop, &metrics);
  log.Append(Bytes(100, 1));
  TimePoint first_done;
  TimePoint second_done;
  log.Flush([&](const Status&) { first_done = loop.now(); });
  // No new appends: this flush has nothing to write, but its completion
  // still represents "everything so far is durable".
  log.Flush([&](const Status&) { second_done = loop.now(); });
  loop.Run();
  EXPECT_EQ(Count(&metrics, "stable_log.flushes"), 1u)
      << "redundant flush issued a device write";
  EXPECT_GE(second_done, first_done);
  EXPECT_TRUE(log.FullyDurable());
}

// --- satellite 2: corrupt duplicate-cache entries answered honestly ---

class DuplicateCacheTest : public ::testing::Test {
 protected:
  DuplicateCacheTest() : net_(&loop_) {
    net_.Connect("mobile", "server", LinkProfile::Ethernet10());
    client_tm_ =
        std::make_unique<TransportManager>(&loop_, net_.FindHost("mobile"), &client_metrics_);
    server_tm_ =
        std::make_unique<TransportManager>(&loop_, net_.FindHost("server"), &server_metrics_);
    log_ = std::make_unique<StableLog>(&loop_, &client_metrics_);
    client_ = std::make_unique<QrpcClient>(&loop_, client_tm_.get(), log_.get(),
                                           &client_metrics_);
    server_ = std::make_unique<QrpcServer>(&loop_, server_tm_.get(), &server_metrics_);
    server_->RegisterHandler(
        "count", [this](const RpcRequestBody&, const Message&, QrpcServer::Responder respond) {
          ++executions_;
          RpcResponseBody body;
          body.result = int64_t{executions_};
          respond(body);
        });
  }

  void ResendRequest(uint64_t rpc_id) {
    Message dup;
    dup.header.message_id = rpc_id;
    dup.header.type = MessageType::kRequest;
    dup.header.dst = "server";
    RpcRequestBody body;
    body.method = "count";
    dup.payload = body.Encode();
    client_tm_->Send(std::move(dup));
  }

  EventLoop loop_;
  Network net_;
  obs::Registry client_metrics_;
  obs::Registry server_metrics_;
  std::unique_ptr<TransportManager> client_tm_;
  std::unique_ptr<TransportManager> server_tm_;
  std::unique_ptr<StableLog> log_;
  std::unique_ptr<QrpcClient> client_;
  std::unique_ptr<QrpcServer> server_;
  int64_t executions_ = 0;
};

TEST_F(DuplicateCacheTest, CorruptEntryAnswersDataLossNotSilentOk) {
  QrpcCall call = client_->Call("server", "count", {});
  ASSERT_TRUE(call.result.Wait(&loop_));
  ASSERT_EQ(executions_, 1);

  ASSERT_TRUE(server_->CorruptCachedResponseForTest("mobile", call.rpc_id));

  // A crash-recovery resend of the same rpc hits the corrupt cache entry.
  ResendRequest(call.rpc_id);
  // The client no longer tracks the call, so observe the raw response.
  Promise<RpcResponseBody> reply;
  client_tm_->SetHandler(MessageType::kResponse, [&](const Message& msg) {
    auto decoded = RpcResponseBody::Decode(msg.payload);
    ASSERT_TRUE(decoded.ok());
    reply.Set(*decoded);
  });
  ASSERT_TRUE(reply.Wait(&loop_));

  EXPECT_EQ(reply.value().code, StatusCode::kDataLoss)
      << "corrupt cache entry produced a fabricated OK response";
  EXPECT_EQ(executions_, 1) << "at-most-once violated";
  EXPECT_EQ(Count(&server_metrics_, "qrpc_server.duplicate_cache_decode_failures"), 1u);
  EXPECT_EQ(Count(&server_metrics_, "qrpc_server.duplicates"), 1u);
}

TEST_F(DuplicateCacheTest, IntactEntryStillReplaysCachedResponse) {
  QrpcCall call = client_->Call("server", "count", {});
  ASSERT_TRUE(call.result.Wait(&loop_));

  ResendRequest(call.rpc_id);
  Promise<RpcResponseBody> reply;
  client_tm_->SetHandler(MessageType::kResponse, [&](const Message& msg) {
    auto decoded = RpcResponseBody::Decode(msg.payload);
    ASSERT_TRUE(decoded.ok());
    reply.Set(*decoded);
  });
  ASSERT_TRUE(reply.Wait(&loop_));
  EXPECT_EQ(reply.value().code, StatusCode::kOk);
  EXPECT_EQ(executions_, 1);
  EXPECT_EQ(Count(&server_metrics_, "qrpc_server.duplicate_cache_decode_failures"), 0u);
}

// --- satellite 4: loss backoff resets when connectivity returns ---

TEST(SchedulerBackoffTest, ReconnectionResetsLossBackoff) {
  EventLoop loop;
  Network net(&loop);
  LinkProfile lossy = LinkProfile::WaveLan2();
  lossy.loss_prob = 1.0;  // every frame lost deterministically
  // Up for 5s (accumulating loss backoff), down until t=60, then up again.
  std::vector<IntervalConnectivity::Interval> up = {
      {At(0), At(5)},
      {At(60), At(10000)},
  };
  Link* link = net.Connect("mobile", "server", lossy,
                           std::make_unique<IntervalConnectivity>(up));
  obs::Registry metrics;
  TransportManager tm(&loop, net.FindHost("mobile"), &metrics);

  Message msg;
  msg.header.type = MessageType::kRequest;
  msg.header.message_id = 1;
  msg.header.dst = "server";
  msg.payload = Bytes(64, 1);
  tm.Send(msg);

  loop.RunFor(Duration::Seconds(60));
  const uint64_t attempts_before_reconnect = link->stats().frames_sent;
  loop.RunFor(Duration::Seconds(2));
  const uint64_t attempts_after = link->stats().frames_sent - attempts_before_reconnect;

  // With the backoff reset, retries restart at the base interval (200ms,
  // doubling), giving >= 3 attempts in the first two seconds after
  // reconnection. Carrying the pre-outage backoff (6+ losses => 12.8s)
  // would allow at most one.
  EXPECT_GE(attempts_after, 3u)
      << "stale pre-outage loss backoff survived the reconnection";
}

// --- tentpole acceptance: full span timeline across a link outage ---

TEST(RpcTraceTimelineTest, SpanCoversLifecycleAcrossOutage) {
  Testbed bed;
  // Link comes up only at t=30: the call is issued, logged, and flushed
  // while disconnected, transmitted after reconnection.
  RoverClientNode* client = bed.AddClient(
      "mobile", LinkProfile::WaveLan2(),
      std::make_unique<PeriodicConnectivity>(Duration::Seconds(1e6), Duration::Zero(),
                                             At(30)));
  bed.server()->qrpc()->RegisterHandler(
      "echo", [](const RpcRequestBody& req, const Message&, QrpcServer::Responder respond) {
        RpcResponseBody body;
        body.result = req.args.empty() ? RpcValue(std::string("")) : req.args[0];
        respond(body);
      });

  QrpcCall call = client->qrpc()->Call("server", "echo", {std::string("hi")});
  ASSERT_TRUE(call.result.Wait(bed.loop()));
  ASSERT_TRUE(call.result.value().status.ok());

  const obs::RpcSpan* span = client->tracer()->Find(call.rpc_id);
  ASSERT_NE(span, nullptr);
  const std::vector<obs::RpcEvent> expected = {
      obs::RpcEvent::kEnqueued, obs::RpcEvent::kLogged, obs::RpcEvent::kFlushedDurable,
      obs::RpcEvent::kTransmitted, obs::RpcEvent::kResponded};
  EXPECT_EQ(client->tracer()->EventSequence(call.rpc_id), expected);

  // Commit happened while disconnected; transmission waited for the link.
  EXPECT_LT(span->FirstTime(obs::RpcEvent::kFlushedDurable).seconds(), 1.0);
  EXPECT_GE(span->FirstTime(obs::RpcEvent::kTransmitted).seconds(), 30.0);
  EXPECT_GT(span->FirstTime(obs::RpcEvent::kResponded).seconds(), 30.0);

  // The rendered trace mentions the full pipeline.
  const std::string rendered = client->tracer()->Render();
  EXPECT_NE(rendered.find("flushed_durable@"), std::string::npos);
  EXPECT_NE(rendered.find("transmitted@"), std::string::npos);
}

// --- tentpole acceptance: one registry covers every subsystem ---

TEST(UnifiedRegistryTest, NodeRegistryCoversAllSubsystems) {
  Testbed bed;
  RoverClientNode* client = bed.AddClient("mobile", LinkProfile::Ethernet10());
  bed.server()->qrpc()->RegisterHandler(
      "echo", [](const RpcRequestBody& req, const Message&, QrpcServer::Responder respond) {
        RpcResponseBody body;
        body.result = req.args.empty() ? RpcValue(std::string("")) : req.args[0];
        respond(body);
      });
  QrpcCall call = client->qrpc()->Call("server", "echo", {std::string("x")});
  ASSERT_TRUE(call.result.Wait(bed.loop()));

  obs::Registry* reg = client->metrics();
  EXPECT_EQ(Count(reg, "scheduler.messages_delivered"), 1u);
  EXPECT_EQ(Count(reg, "qrpc_client.calls"), 1u);
  EXPECT_EQ(Count(reg, "qrpc_client.completed"), 1u);
  EXPECT_GE(Count(reg, "stable_log.flushes"), 1u);
  EXPECT_NE(reg->FindCounter("access_manager.cache_hits"), nullptr);
  EXPECT_NE(reg->FindHistogram("qrpc_client.rpc_seconds"), nullptr);
  EXPECT_EQ(reg->FindHistogram("qrpc_client.rpc_seconds")->count(), 1u);

  const std::string text = reg->Render(obs::RenderFormat::kText);
  for (const char* prefix :
       {"scheduler.", "stable_log.", "qrpc_client.", "access_manager."}) {
    EXPECT_NE(text.find(prefix), std::string::npos) << "missing subsystem " << prefix;
  }
  EXPECT_NE(bed.server()->metrics()->Render().find("qrpc_server.requests"),
            std::string::npos);
}

void RegisterEcho(RoverServerNode* server) {
  server->qrpc()->RegisterHandler(
      "echo", [](const RpcRequestBody& req, const Message&, QrpcServer::Responder respond) {
        RpcResponseBody body;
        body.result = req.args.empty() ? RpcValue(std::string("")) : req.args[0];
        respond(body);
      });
}

// A component built over a registry that outlived its predecessor sets its
// gauges from live state, not from the values the old incarnation left.
TEST(UnifiedRegistryTest, ConstructionSetsGaugesFromLiveState) {
  EventLoop loop;
  Network net(&loop);
  net.Connect("mobile", "server", LinkProfile::WaveLan2());
  obs::Registry metrics;
  StableLog log(&loop, &metrics);
  log.Append(Bytes(100, 1));
  metrics.gauge("qrpc_client.log_bytes")->Set(12345);
  metrics.gauge("scheduler.queue_depth")->Set(7);
  metrics.gauge("access_manager.degraded")->Set(1);

  TransportManager tm(&loop, net.FindHost("mobile"), &metrics);
  QrpcClient client(&loop, &tm, &log, &metrics);
  AccessManager access(&loop, &tm, &client, &metrics);
  EXPECT_EQ(GaugeValue(&metrics, "qrpc_client.log_bytes"),
            static_cast<int64_t>(log.TotalBytes()));
  EXPECT_EQ(GaugeValue(&metrics, "scheduler.queue_depth"), 0);
  EXPECT_EQ(GaugeValue(&metrics, "access_manager.degraded"), 0);
}

// A node's registry outlives the components that count into it: a
// crash-restart rebuilds them, and the new incarnation counts on from the
// old totals. Gauges describe the rebuilt state at once.
TEST(UnifiedRegistryTest, NodeCountersSurviveCrashRestart) {
  Testbed bed;
  // Up, then a 10 s outage during which the client crashes, then up again.
  std::vector<IntervalConnectivity::Interval> up = {{At(0), At(10)}, {At(20), At(1e6)}};
  RoverClientNode* client = bed.AddClient("mobile", LinkProfile::Ethernet10(),
                                          std::make_unique<IntervalConnectivity>(up));
  RegisterEcho(bed.server());
  const obs::Registry* reg = client->metrics();
  const obs::Registry* server_reg = bed.server()->metrics();
  auto echo = [&] {
    QrpcCall call = client->qrpc()->Call("server", "echo", {std::string("x")});
    EXPECT_TRUE(call.result.Wait(bed.loop()));
    EXPECT_TRUE(call.result.value().status.ok());
  };

  echo();
  echo();
  bed.loop()->RunUntil(At(11));
  // In the outage: one call durable in the log, one still being flushed
  // when the client crashes. The crash keeps the first and loses the
  // second, so the rebuilt client's log is smaller than the old one's.
  QrpcCall durable = client->qrpc()->Call("server", "echo", {std::string("kept")});
  ASSERT_TRUE(durable.committed.Wait(bed.loop()));
  client->qrpc()->Call("server", "echo", {std::string("lost")});
  bed.loop()->RunFor(Duration::Millis(1));
  ASSERT_FALSE(client->log()->FullyDurable());
  const int64_t log_bytes_at_crash = GaugeValue(reg, "qrpc_client.log_bytes");
  const uint64_t frames = Count(reg, "scheduler.frames_sent");
  EXPECT_EQ(Count(reg, "qrpc_client.calls"), 4u);
  EXPECT_EQ(Count(reg, "stable_log.appends"), 4u);
  EXPECT_GE(frames, 2u);

  EXPECT_EQ(client->SimulateCrashAndRestart(), 1u);
  EXPECT_GT(client->log()->TotalBytes(), 0u);
  EXPECT_LT(static_cast<int64_t>(client->log()->TotalBytes()), log_bytes_at_crash);
  EXPECT_EQ(GaugeValue(reg, "qrpc_client.log_bytes"),
            static_cast<int64_t>(client->log()->TotalBytes()));
  bed.Run();  // the link returns; the recovered call is answered
  echo();
  EXPECT_EQ(Count(reg, "qrpc_client.calls"), 5u);
  EXPECT_EQ(Count(reg, "qrpc_client.recovered"), 1u);
  EXPECT_EQ(Count(reg, "stable_log.appends"), 5u);
  EXPECT_GT(Count(reg, "scheduler.frames_sent"), frames);

  // Server side: requests keep counting across its own crash-restart.
  const uint64_t requests = Count(server_reg, "qrpc_server.requests");
  EXPECT_EQ(requests, 4u);
  bed.server()->SimulateCrashAndRestart();
  RegisterEcho(bed.server());  // handlers are process state
  echo();
  EXPECT_EQ(Count(server_reg, "qrpc_server.requests"), requests + 1);
}

}  // namespace
}  // namespace rover

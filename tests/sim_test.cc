#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/connectivity.h"
#include "src/sim/event_loop.h"
#include "src/sim/link.h"
#include "src/sim/network.h"
#include "src/sim/trace.h"

namespace rover {
namespace {

TEST(EventLoopTest, RunsEventsInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.ScheduleAt(TimePoint::FromMicros(300), [&] { order.push_back(3); });
  loop.ScheduleAt(TimePoint::FromMicros(100), [&] { order.push_back(1); });
  loop.ScheduleAt(TimePoint::FromMicros(200), [&] { order.push_back(2); });
  loop.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now().micros(), 300);
}

TEST(EventLoopTest, FifoAmongEqualTimestamps) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    loop.ScheduleAt(TimePoint::FromMicros(50), [&order, i] { order.push_back(i); });
  }
  loop.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventLoopTest, ScheduleAfterUsesNow) {
  EventLoop loop;
  TimePoint fired;
  loop.ScheduleAt(TimePoint::FromMicros(100), [&] {
    loop.ScheduleAfter(Duration::Micros(50), [&] { fired = loop.now(); });
  });
  loop.Run();
  EXPECT_EQ(fired.micros(), 150);
}

TEST(EventLoopTest, CancelPreventsExecution) {
  EventLoop loop;
  bool ran = false;
  EventId id = loop.ScheduleAfter(Duration::Micros(10), [&] { ran = true; });
  EXPECT_TRUE(loop.Cancel(id));
  EXPECT_FALSE(loop.Cancel(id));  // double-cancel
  loop.Run();
  EXPECT_FALSE(ran);
}

TEST(EventLoopTest, RunUntilStopsAtBoundaryAndAdvancesClock) {
  EventLoop loop;
  int count = 0;
  loop.ScheduleAt(TimePoint::FromMicros(100), [&] { ++count; });
  loop.ScheduleAt(TimePoint::FromMicros(300), [&] { ++count; });
  loop.RunUntil(TimePoint::FromMicros(200));
  EXPECT_EQ(count, 1);
  EXPECT_EQ(loop.now().micros(), 200);
  loop.Run();
  EXPECT_EQ(count, 2);
}

TEST(EventLoopTest, EventsCanScheduleEvents) {
  EventLoop loop;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 10) {
      loop.ScheduleAfter(Duration::Micros(1), chain);
    }
  };
  loop.ScheduleAfter(Duration::Micros(1), chain);
  loop.Run();
  EXPECT_EQ(depth, 10);
  EXPECT_EQ(loop.now().micros(), 10);
}

TEST(ConnectivityTest, ConstantSchedule) {
  ConstantConnectivity up(true);
  ConstantConnectivity down(false);
  EXPECT_TRUE(up.IsUp(TimePoint::Epoch()));
  EXPECT_FALSE(down.IsUp(TimePoint::FromMicros(1'000'000)));
  EXPECT_EQ(up.NextTransition(TimePoint::Epoch()).micros(), INT64_MAX);
}

TEST(ConnectivityTest, PeriodicSchedule) {
  // Up 10s, down 5s.
  PeriodicConnectivity sched(Duration::Seconds(10), Duration::Seconds(5));
  EXPECT_TRUE(sched.IsUp(TimePoint::FromMicros(0)));
  EXPECT_TRUE(sched.IsUp(TimePoint::Epoch() + Duration::Seconds(9.9)));
  EXPECT_FALSE(sched.IsUp(TimePoint::Epoch() + Duration::Seconds(12)));
  EXPECT_TRUE(sched.IsUp(TimePoint::Epoch() + Duration::Seconds(15)));
  // Next transition from t=3s is the drop at t=10s.
  EXPECT_EQ(sched.NextTransition(TimePoint::Epoch() + Duration::Seconds(3)).micros(),
            Duration::Seconds(10).micros());
  // From t=12s (down), next transition is up at 15s.
  EXPECT_EQ(sched.NextTransition(TimePoint::Epoch() + Duration::Seconds(12)).micros(),
            Duration::Seconds(15).micros());
}

TEST(ConnectivityTest, PeriodicPhaseDelaysStart) {
  PeriodicConnectivity sched(Duration::Seconds(10), Duration::Seconds(5),
                             TimePoint::Epoch() + Duration::Seconds(100));
  EXPECT_FALSE(sched.IsUp(TimePoint::Epoch() + Duration::Seconds(50)));
  EXPECT_EQ(sched.NextTransition(TimePoint::Epoch()).micros(),
            Duration::Seconds(100).micros());
  EXPECT_TRUE(sched.IsUp(TimePoint::Epoch() + Duration::Seconds(105)));
}

TEST(ConnectivityTest, IntervalSchedule) {
  IntervalConnectivity sched({{TimePoint::FromMicros(100), TimePoint::FromMicros(200)},
                              {TimePoint::FromMicros(400), TimePoint::FromMicros(500)}});
  EXPECT_FALSE(sched.IsUp(TimePoint::FromMicros(50)));
  EXPECT_TRUE(sched.IsUp(TimePoint::FromMicros(150)));
  EXPECT_FALSE(sched.IsUp(TimePoint::FromMicros(300)));
  EXPECT_TRUE(sched.IsUp(TimePoint::FromMicros(450)));
  EXPECT_FALSE(sched.IsUp(TimePoint::FromMicros(600)));
  EXPECT_EQ(sched.NextTransition(TimePoint::FromMicros(50)).micros(), 100);
  EXPECT_EQ(sched.NextTransition(TimePoint::FromMicros(150)).micros(), 200);
  EXPECT_EQ(sched.NextTransition(TimePoint::FromMicros(250)).micros(), 400);
  EXPECT_EQ(sched.NextTransition(TimePoint::FromMicros(550)).micros(), INT64_MAX);
}

TEST(ConnectivityTest, NextUpTime) {
  IntervalConnectivity sched({{TimePoint::FromMicros(100), TimePoint::FromMicros(200)}});
  EXPECT_EQ(sched.NextUpTime(TimePoint::FromMicros(0)).micros(), 100);
  EXPECT_EQ(sched.NextUpTime(TimePoint::FromMicros(150)).micros(), 150);
  EXPECT_EQ(sched.NextUpTime(TimePoint::FromMicros(250)).micros(), INT64_MAX);
}

TEST(ConnectivityTest, RandomScheduleIsDeterministic) {
  Rng rng1(42);
  Rng rng2(42);
  auto a = MakeRandomConnectivity(&rng1, Duration::Seconds(10), Duration::Seconds(5),
                                  Duration::Seconds(1000));
  auto b = MakeRandomConnectivity(&rng2, Duration::Seconds(10), Duration::Seconds(5),
                                  Duration::Seconds(1000));
  for (int64_t us = 0; us < Duration::Seconds(1000).micros(); us += 777'777) {
    EXPECT_EQ(a->IsUp(TimePoint::FromMicros(us)), b->IsUp(TimePoint::FromMicros(us)));
  }
}

TEST(LinkProfileTest, PaperNetworksOrderedByBandwidth) {
  auto nets = LinkProfile::PaperNetworks();
  ASSERT_EQ(nets.size(), 4u);
  for (size_t i = 1; i < nets.size(); ++i) {
    EXPECT_GT(nets[i - 1].bandwidth_bps, nets[i].bandwidth_bps);
  }
  EXPECT_EQ(nets[0].name, "ethernet-10Mb");
  EXPECT_EQ(nets[3].name, "cslip-2.4Kb");
}

TEST(LinkTest, TransferTimeScalesWithBandwidth) {
  EventLoop loop;
  Link fast(&loop, "a", "b", LinkProfile::Ethernet10(), nullptr);
  Link slow(&loop, "a", "b", LinkProfile::Cslip144(), nullptr);
  const Duration ft = fast.TransferTime(1000);
  const Duration st = slow.TransferTime(1000);
  EXPECT_GT(st, ft * 100.0);
  // 1000 bytes + overhead at 14.4kbit/s ~ 0.57s.
  EXPECT_NEAR(st.seconds(), (1000 + 4 * 5) * 8.0 / 14400.0, 1e-6);
}

TEST(LinkTest, PacketizationCountsOverhead) {
  EventLoop loop;
  Link link(&loop, "a", "b", LinkProfile::Cslip144(), nullptr);
  EXPECT_EQ(link.PacketCount(0), 1u);
  EXPECT_EQ(link.PacketCount(296), 1u);
  EXPECT_EQ(link.PacketCount(297), 2u);
  EXPECT_EQ(link.WireBytes(296), 296u + 5u);
  EXPECT_EQ(link.WireBytes(600), 600u + 3 * 5u);
}

TEST(LinkTest, DeliversFrameWithLatencyAndSerialization) {
  EventLoop loop;
  Network net(&loop);
  Link* link = net.Connect("client", "server", LinkProfile::Cslip144());
  Bytes received;
  net.FindHost("server")->SetReceiver(
      [&](const Bytes& frame, const std::string& from) { received = frame; });
  Bytes frame(100, 0xab);
  TimePoint delivered_at;
  link->SendFrame("client", frame, [&](const Status& s) {
    EXPECT_TRUE(s.ok());
    delivered_at = loop.now();
  });
  loop.Run();
  EXPECT_EQ(received, frame);
  const double expected =
      (100 + 5) * 8.0 / 14400.0 + 0.050;  // serialization + latency
  EXPECT_NEAR(delivered_at.seconds(), expected, 1e-6);
}

TEST(LinkTest, SerializesBackToBackFrames) {
  EventLoop loop;
  Network net(&loop);
  Link* link = net.Connect("a", "b", LinkProfile::Cslip144());
  std::vector<double> arrivals;
  net.FindHost("b")->SetReceiver(
      [&](const Bytes& frame, const std::string&) { arrivals.push_back(loop.now().seconds()); });
  link->SendFrame("a", Bytes(296, 1), nullptr);
  link->SendFrame("a", Bytes(296, 2), nullptr);
  loop.Run();
  ASSERT_EQ(arrivals.size(), 2u);
  const double ser = (296 + 5) * 8.0 / 14400.0;
  EXPECT_NEAR(arrivals[0], ser + 0.050, 1e-6);
  EXPECT_NEAR(arrivals[1], 2 * ser + 0.050, 1e-6);  // queued behind the first
}

TEST(LinkTest, DownLinkRejectsImmediately) {
  EventLoop loop;
  Network net(&loop);
  Link* link = net.Connect("a", "b", LinkProfile::Ethernet10(),
                           std::make_unique<ConstantConnectivity>(false));
  Status failure;
  link->SendFrame("a", Bytes(10, 0), [&](const Status& s) { failure = s; });
  loop.Run();
  EXPECT_EQ(failure.code(), StatusCode::kUnavailable);
  EXPECT_EQ(link->stats().frames_rejected, 1u);
}

TEST(LinkTest, MidTransferDisconnectLosesFrame) {
  EventLoop loop;
  Network net(&loop);
  // Link up for only 100ms; a 2.4kbit/s transfer of 296 bytes takes ~1s.
  Link* link = net.Connect(
      "a", "b", LinkProfile::Cslip24(),
      std::make_unique<IntervalConnectivity>(std::vector<IntervalConnectivity::Interval>{
          {TimePoint::Epoch(), TimePoint::Epoch() + Duration::Millis(100)}}));
  Status failure;
  bool received = false;
  net.FindHost("b")->SetReceiver([&](const Bytes&, const std::string&) { received = true; });
  link->SendFrame("a", Bytes(296, 0), [&](const Status& s) { failure = s; });
  loop.Run();
  EXPECT_FALSE(received);
  EXPECT_EQ(failure.code(), StatusCode::kUnavailable);
  EXPECT_EQ(link->stats().frames_lost, 1u);
}

TEST(LinkTest, RandomLossReportsDataLoss) {
  EventLoop loop;
  LinkProfile lossy = LinkProfile::WaveLan2();
  lossy.loss_prob = 1.0;  // always lose
  Network net(&loop);
  Link* link = net.Connect("a", "b", lossy);
  Status failure;
  link->SendFrame("a", Bytes(10, 0), [&](const Status& s) { failure = s; });
  loop.Run();
  EXPECT_EQ(failure.code(), StatusCode::kDataLoss);
}

TEST(LinkTest, ConnectCostPaidAfterIdle) {
  EventLoop loop;
  LinkProfile dialup = LinkProfile::Cslip144();
  dialup.connect_cost = Duration::Seconds(10);
  dialup.idle_threshold = Duration::Seconds(30);
  Network net(&loop);
  Link* link = net.Connect("a", "b", dialup);
  std::vector<double> arrivals;
  net.FindHost("b")->SetReceiver(
      [&](const Bytes&, const std::string&) { arrivals.push_back(loop.now().seconds()); });
  link->SendFrame("a", Bytes(10, 0), nullptr);  // pays connect cost
  loop.Run();
  link->SendFrame("a", Bytes(10, 0), nullptr);  // still "connected"
  loop.Run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_GT(arrivals[0], 10.0);
  EXPECT_LT(arrivals[1] - arrivals[0], 1.0);
}

TEST(NetworkTest, MultipleLinksBetweenHosts) {
  EventLoop loop;
  Network net(&loop);
  net.Connect("mobile", "server", LinkProfile::Ethernet10(),
              std::make_unique<ConstantConnectivity>(false));
  net.Connect("mobile", "server", LinkProfile::Cslip144());
  Host* mobile = net.FindHost("mobile");
  ASSERT_NE(mobile, nullptr);
  EXPECT_EQ(mobile->links().size(), 2u);
  EXPECT_EQ(mobile->LinksTo("server").size(), 2u);
  EXPECT_TRUE(mobile->CanReach("server"));  // via the CSLIP link
}

TEST(NetworkTest, AddHostIdempotent) {
  EventLoop loop;
  Network net(&loop);
  Host* a = net.AddHost("x");
  Host* b = net.AddHost("x");
  EXPECT_EQ(a, b);
  EXPECT_EQ(net.FindHost("missing"), nullptr);
}

TEST(TraceTest, RecordsAndCounts) {
  EventLoop loop;
  Trace trace(&loop);
  loop.ScheduleAt(TimePoint::FromMicros(10), [&] { trace.Record("rpc", "send"); });
  loop.ScheduleAt(TimePoint::FromMicros(20), [&] { trace.Record("rpc", "recv"); });
  loop.Run();
  trace.Bump("bytes", 100);
  trace.Bump("bytes", 50);
  EXPECT_EQ(trace.CountFor("rpc"), 2u);
  EXPECT_EQ(trace.entries()[0].when.micros(), 10);
  EXPECT_DOUBLE_EQ(trace.Counter("bytes"), 150.0);
  EXPECT_DOUBLE_EQ(trace.Counter("missing"), 0.0);
  trace.Clear();
  EXPECT_EQ(trace.entries().size(), 0u);
}

}  // namespace
}  // namespace rover

namespace rover {
namespace {

TEST(LinkTest, CorruptionDamagesFrameAndInformsSender) {
  EventLoop loop;
  LinkProfile profile = LinkProfile::WaveLan2();
  profile.corrupt_prob = 1.0;
  Network net(&loop);
  Link* link = net.Connect("a", "b", profile);
  Bytes received;
  net.FindHost("b")->SetReceiver(
      [&](const Bytes& frame, const std::string&) { received = frame; });
  Status outcome;
  Bytes frame(64, 0x11);
  link->SendFrame("a", frame, [&](const Status& s) { outcome = s; });
  loop.Run();
  EXPECT_EQ(outcome.code(), StatusCode::kDataLoss);
  ASSERT_EQ(received.size(), frame.size());
  EXPECT_NE(received, frame);  // damaged copy arrived
  EXPECT_EQ(link->stats().frames_corrupted, 1u);
}

// --- Tombstone bounds and execution order -----------------------------------

// Far timers (minutes to hours out) once parked in a separate wheel; they
// now share the one heap, and cancelling them all must still leave nothing
// to run and almost nothing stored.
TEST(EventLoopTest, FarTimersParkInWheelAndCancelReclaimsImmediately) {
  EventLoop loop;
  std::vector<EventId> ids;
  for (int i = 0; i < 1000; ++i) {
    ids.push_back(loop.ScheduleAfter(Duration::Seconds(60 + i), [] {}));
  }
  EXPECT_EQ(loop.pending_events(), 1000u);
  for (EventId id : ids) {
    EXPECT_TRUE(loop.Cancel(id));
  }
  EXPECT_EQ(loop.pending_events(), 0u);
  // Compaction runs from 64 tombstones up, so fewer than 64 remain.
  EXPECT_LT(loop.heap_physical_size(), 64u);
  EXPECT_EQ(loop.Run(), 0u);
  EXPECT_EQ(loop.heap_physical_size(), 0u);
}

TEST(EventLoopTest, HeapTombstonesStayBoundedUnderArmCancelChurn) {
  // The deadline-arm-then-cancel pattern (retries that succeed, TTLs that
  // never fire) must not accumulate state: pending_events() reports zero
  // and the physical heap is compacted, not grown, across 10k rounds.
  EventLoop loop;
  for (int round = 0; round < 10'000; ++round) {
    EventId id =
        loop.ScheduleAfter(Duration::Micros(1000 + (round % 97)), [] {});
    EXPECT_TRUE(loop.Cancel(id));
    EXPECT_FALSE(loop.Cancel(id));  // tombstoning is single-shot
    ASSERT_EQ(loop.pending_events(), 0u);
    ASSERT_LE(loop.heap_physical_size(), 200u);
  }
  EXPECT_EQ(loop.Run(), 0u);
}

// Reference scheduler for the order test: an ordered set of (when, seq)
// with erase-on-cancel, the definition EventLoop's heap must match.
class ReferenceLoop {
 public:
  TimePoint now() const { return TimePoint::FromMicros(now_); }

  EventId ScheduleAfter(Duration d, std::function<void()> fn) {
    const EventId id = next_seq_++;
    queue_.emplace(now_ + d.micros(), id);
    pending_.emplace(id, Pending{now_ + d.micros(), std::move(fn)});
    return id;
  }

  bool Cancel(EventId id) {
    auto it = pending_.find(id);
    if (it == pending_.end()) {
      return false;
    }
    queue_.erase({it->second.when, id});
    pending_.erase(it);
    return true;
  }

  void Run() {
    while (!queue_.empty()) {
      const auto [when, id] = *queue_.begin();
      queue_.erase(queue_.begin());
      auto node = pending_.extract(id);
      now_ = when;
      node.mapped().fn();
    }
  }

 private:
  struct Pending {
    int64_t when;
    std::function<void()> fn;
  };
  int64_t now_ = 0;
  EventId next_seq_ = 1;
  std::set<std::pair<int64_t, EventId>> queue_;
  std::map<EventId, Pending> pending_;
};

TEST(EventLoopTest, ExecutionOrderMatchesReferenceModel) {
  // Replay one pseudo-random schedule -- same-tick ties, deltas on both
  // sides of 2^14 us, deltas of 76 h and more, nested re-arms, and
  // cancellations -- against EventLoop and the reference model. Event ids
  // are allocated in schedule order, so identical execution traces imply
  // identical id streams and the cancels hit the same targets in both runs.
  auto replay = [](auto& loop) {
    std::vector<std::pair<uint64_t, int64_t>> order;  // (tag, now) or cancel
    uint64_t rng = 0x9e3779b97f4a7c15ull;
    auto next = [&rng] {
      rng = rng * 6364136223846793005ull + 1442695040888963407ull;
      return rng >> 33;
    };
    std::vector<EventId> armed;
    int spawned = 0;
    std::function<void(uint64_t)> body = [&](uint64_t tag) {
      order.emplace_back(tag, loop.now().micros());
      if (spawned >= 3000) {
        return;
      }
      static constexpr int64_t kDeltas[] = {
          0, 1, 500, 16'383, 16'384, 250'000, 3'000'000,
          90'000'000, 5'000'000'000, 400'000'000'000};
      for (int k = 0; k < 3; ++k) {
        const Duration d = Duration::Micros(kDeltas[next() % 10]);
        const uint64_t child_tag = next();
        ++spawned;
        armed.push_back(
            loop.ScheduleAfter(d, [&body, child_tag] { body(child_tag); }));
      }
      if (!armed.empty() && next() % 3 == 0) {
        const bool cancelled = loop.Cancel(armed[next() % armed.size()]);
        order.emplace_back(cancelled, -1);
      }
    };
    for (uint64_t i = 0; i < 8; ++i) {
      loop.ScheduleAfter(Duration::Micros(static_cast<int64_t>(next() % 100)),
                         [&body, i] { body(i); });
    }
    loop.Run();
    return order;
  };
  EventLoop loop;
  ReferenceLoop reference;
  const auto actual = replay(loop);
  const auto expected = replay(reference);
  ASSERT_GT(actual.size(), 1000u);
  EXPECT_EQ(actual, expected);
}

// --- Peer-indexed connectivity ----------------------------------------------

TEST(NetworkTest, PeerLookupWorkIsFlatInAttachedLinkCount) {
  // A server with 4096 attached client links must not pay more per lookup
  // than one with 16: reachability and link selection are peer-indexed.
  auto scans_per_op = [](int peers) -> uint64_t {
    EventLoop loop;
    Network net(&loop);
    for (int i = 0; i < peers; ++i) {
      net.Connect("server", "client-" + std::to_string(i), LinkProfile::Ethernet10());
    }
    Host* server = net.FindHost("server");
    ResetHostLinkScanSteps();
    constexpr uint64_t kOps = 64;
    for (uint64_t i = 0; i < kOps; ++i) {
      EXPECT_EQ(server->LinksTo("client-0").size(), 1u);
      EXPECT_TRUE(server->CanReach("client-0"));
    }
    return HostLinkScanSteps() / kOps;
  };
  const uint64_t small = scans_per_op(16);
  const uint64_t large = scans_per_op(4096);
  EXPECT_EQ(small, large);
  EXPECT_LE(large, 4u);
}

TEST(NetworkTest, PeerObserverFiresOnAttachAndForceDownForThatPeerOnly) {
  EventLoop loop;
  Network net(&loop);
  net.Connect("server", "a", LinkProfile::Ethernet10());
  Host* server = net.FindHost("server");
  int a_fires = 0;
  int owner = 0;
  server->AddPeerObserver("a", [&] { ++a_fires; }, &owner);
  server->AddPeerObserver("b", [&] { ADD_FAILURE() << "b observer fired"; }, &owner);

  Link* second = net.Connect("server", "a", LinkProfile::WaveLan2());
  EXPECT_EQ(a_fires, 1);  // attach of a link to "a"
  net.Connect("server", "c", LinkProfile::Ethernet10());
  EXPECT_EQ(a_fires, 1);  // unrelated peer: no fire
  second->ForceDown();
  EXPECT_EQ(a_fires, 2);  // force-down of a link to "a"
  EXPECT_TRUE(server->CanReach("a"));  // first link still up

  server->RemovePeerObservers(&owner);
  net.Connect("server", "a", LinkProfile::Cslip144());
  EXPECT_EQ(a_fires, 2);  // removed: no further fires
}

TEST(NetworkTest, ForceDownMakesPeerUnreachable) {
  EventLoop loop;
  Network net(&loop);
  Link* only = net.Connect("server", "a", LinkProfile::Ethernet10());
  Host* server = net.FindHost("server");
  EXPECT_TRUE(server->CanReach("a"));
  only->ForceDown();
  EXPECT_FALSE(server->CanReach("a"));
}

}  // namespace
}  // namespace rover

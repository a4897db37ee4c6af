// E13 -- primary/backup failover: client-visible unavailability and
// replication lag vs. WAL throughput.
//
// A primary ships every committed transaction to a warm backup and gates
// response release on the backup's acknowledgement (semi-synchronous
// replication). This harness drives a steady stream of durable server-side
// operations over a mobile link, kills the primary mid-stream, promotes
// the backup one detection delay later, and reports what the client saw:
//
//   * the unavailability window -- from the kill to the first operation
//     completion served by the backup;
//   * end-to-end latency before the kill (the price of waiting for the
//     backup's ack) and across the failover;
//   * replication lag at the primary (shipped-but-unacked transactions),
//     sampled while it was alive -- the work a failover could force the
//     backup to re-derive from resent requests;
//   * at-most-once across the handoff: every acknowledged token appears in
//     the backup's journal exactly once.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/fault_plan.h"
#include "src/core/toolkit.h"
#include "src/tclite/value.h"

using namespace rover;

namespace {

constexpr char kJournalCode[] = R"(
proc get {} { global state; return $state }
proc add {t} { global state; lappend state $t; return $state }
)";

constexpr double kKillAtSeconds = 15;
constexpr double kWindowSeconds = 30;

struct RunResult {
  uint64_t issued = 0;
  uint64_t ok = 0;
  uint64_t ok_after_kill = 0;
  double unavail_s = 0;  // kill -> first completion at/after promotion
  double pre_kill_p50_ms = 0;  // steady-state latency under semi-sync
  double pre_kill_max_ms = 0;
  double max_latency_ms = 0;  // worst end-to-end latency across the run
  uint64_t lag_max_txns = 0;  // max shipped-but-unacked txns at the primary
  double lag_mean_txns = 0;
  uint64_t shipped = 0;
  uint64_t bytes_shipped = 0;
  double wal_txn_per_s = 0;  // primary WAL commit throughput while alive
  bool at_most_once = false;
  double drain_s = 0;
};

RunResult Measure(const LinkProfile& profile, int calls_per_sec) {
  Testbed bed;
  bed.loop()->set_event_limit(20'000'000);
  RoverServerNode* backup = bed.AddBackup("backup", LinkProfile::Ethernet10());
  if (!bed.server()->rover()->CreateObject(
          MakeRdo("journal", "lww", kJournalCode, "")).ok()) {
    std::fprintf(stderr, "create failed\n");
    return {};
  }

  ClientNodeOptions copts;
  copts.qrpc.failover_primary = "server";
  copts.qrpc.failover_backup = "backup";
  RoverClientNode* client = bed.AddClient("mobile", profile, nullptr, copts);
  bed.AddLink("mobile", "backup", profile);

  const TimePoint kill_at = TimePoint::Epoch() + Duration::Seconds(kKillAtSeconds);
  FaultPlan plan(bed.loop(), /*seed=*/1);
  FailoverOptions fopts;
  fopts.at = kill_at;
  plan.ScheduleFailover(bed.server(), backup, {client}, fopts);
  RunResult r;
  struct Call {
    TimePoint issued;
    TimePoint completed = TimePoint::FromMicros(0);
    bool ok = false;
  };
  std::vector<Call> calls;
  const int total = static_cast<int>(kWindowSeconds) * calls_per_sec;
  calls.reserve(total);
  for (int i = 0; i < total; ++i) {
    const TimePoint at = TimePoint::Epoch() +
                         Duration::Micros(1'000'000 + i * 1'000'000 / calls_per_sec);
    calls.push_back(Call{at});
    bed.loop()->ScheduleAt(at, [&, i] {
      InvokeOptions io;
      io.force_site = ExecutionSite::kServer;
      auto p = client->access()->Invoke(
          "journal", "add", {"tok" + std::to_string(i)}, io);
      p.OnReady([&, i](const InvokeResult& res) {
        calls[i].completed = bed.loop()->now();
        calls[i].ok = res.status.ok();
      });
    });
  }

  // Replication-lag sampler: shipped-but-unacked transactions at the
  // primary, every 100 ms while it is alive.
  std::vector<uint64_t> lag_samples;
  for (double t = 1; t < kKillAtSeconds; t += 0.1) {
    bed.loop()->ScheduleAt(TimePoint::Epoch() + Duration::Seconds(t), [&] {
      if (bed.server()->dead() || bed.server()->replication_sender() == nullptr) {
        return;
      }
      const ReplicationSender* s = bed.server()->replication_sender();
      lag_samples.push_back(s->last_shipped() - s->acked_watermark());
    });
  }


  // Snapshot sender stats at the moment of death (the object dies with the
  // primary's incarnation).
  bed.loop()->ScheduleAt(kill_at - Duration::Micros(1), [&] {
    const ReplicationSender* s = bed.server()->replication_sender();
    if (s != nullptr) {
      r.shipped = s->stats().transactions_shipped;
      r.bytes_shipped = s->stats().bytes_shipped;
    }
  });

  bed.Run();

  r.issued = calls.size();
  std::vector<double> pre_kill_ms;
  TimePoint first_after_kill = TimePoint::FromMicros(INT64_MAX);
  for (const Call& c : calls) {
    if (!c.ok) {
      continue;
    }
    ++r.ok;
    const double ms = (c.completed - c.issued).seconds() * 1e3;
    r.max_latency_ms = std::max(r.max_latency_ms, ms);
    if (c.completed < kill_at) {
      pre_kill_ms.push_back(ms);
    } else {
      ++r.ok_after_kill;
      // Responses the primary released before dying can still land after
      // the kill; recovery is marked by the first completion the promoted
      // backup could have served.
      if (c.completed >= kill_at + fopts.detection_delay) {
        first_after_kill = std::min(first_after_kill, c.completed);
      }
    }
  }
  if (!pre_kill_ms.empty()) {
    std::sort(pre_kill_ms.begin(), pre_kill_ms.end());
    r.pre_kill_p50_ms = pre_kill_ms[pre_kill_ms.size() / 2];
    r.pre_kill_max_ms = pre_kill_ms.back();
  }
  if (first_after_kill != TimePoint::FromMicros(INT64_MAX)) {
    r.unavail_s = (first_after_kill - kill_at).seconds();
  }
  if (!lag_samples.empty()) {
    uint64_t sum = 0;
    for (uint64_t v : lag_samples) {
      r.lag_max_txns = std::max(r.lag_max_txns, v);
      sum += v;
    }
    r.lag_mean_txns = static_cast<double>(sum) / lag_samples.size();
  }
  r.wal_txn_per_s = static_cast<double>(r.shipped) / kKillAtSeconds;
  r.drain_s = (bed.loop()->now() - TimePoint::Epoch()).seconds();

  // At-most-once audit: every token at most once, every acked token present.
  auto obj = backup->store()->Get("journal");
  if (obj.ok()) {
    auto tokens = TclListSplit(obj->data);
    if (tokens.ok()) {
      std::vector<std::string> sorted(tokens->begin(), tokens->end());
      std::sort(sorted.begin(), sorted.end());
      const bool unique =
          std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end();
      bool acked_present = true;
      for (int i = 0; i < total; ++i) {
        if (calls[i].ok &&
            !std::binary_search(sorted.begin(), sorted.end(),
                                "tok" + std::to_string(i))) {
          acked_present = false;
        }
      }
      r.at_most_once = unique && acked_present;
    }
  }
  return r;
}

std::string FmtMs(double ms) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.1f ms", ms);
  return buf;
}

std::string FmtRate(double per_s) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.1f/s", per_s);
  return buf;
}

}  // namespace

int main() {
  std::printf(
      "E13: primary/backup failover -- unavailability window and replication "
      "lag\n");
  std::printf(
      "workload: N durable server-side ops per second for 30 s; primary "
      "killed at 15 s,\nbackup promoted 200 ms later; semi-sync replication "
      "over a 10 Mb/s backbone\n");

  struct Row {
    std::string network;
    int rate;
    RunResult r;
  };
  std::vector<Row> rows;

  for (const LinkProfile& profile :
       {LinkProfile::WaveLan2(), LinkProfile::Cslip144()}) {
    BenchTable table(
        "Failover sweep over " + profile.name,
        {"rate", "ok", "post-kill ok", "unavail", "p50 pre-kill", "max lat",
         "lag max/mean (txn)", "wal txn/s", "shipped KB", "1x?", "drain"});
    for (int rate : {1, 2, 5, 10}) {
      RunResult r = Measure(profile, rate);
      rows.push_back(Row{profile.name, rate, r});
      char lag[64];
      std::snprintf(lag, sizeof(lag), "%llu / %.2f",
                    static_cast<unsigned long long>(r.lag_max_txns),
                    r.lag_mean_txns);
      table.AddRow({FmtCount(static_cast<uint64_t>(rate)), FmtCount(r.ok),
                    FmtCount(r.ok_after_kill), FmtSeconds(r.unavail_s),
                    FmtMs(r.pre_kill_p50_ms), FmtMs(r.max_latency_ms), lag,
                    FmtRate(r.wal_txn_per_s), FmtBytes(r.bytes_shipped),
                    r.at_most_once ? "yes" : "NO", FmtSeconds(r.drain_s)});
    }
    table.Print();
  }

  const char* json_path = "BENCH_failover.json";
  if (FILE* f = std::fopen(json_path, "w")) {
    std::fprintf(f,
                 "{\n  \"bench\": \"failover\",\n  \"kill_at_s\": %g,\n"
                 "  \"window_seconds\": %g,\n  \"results\": [\n",
                 kKillAtSeconds, kWindowSeconds);
    for (size_t i = 0; i < rows.size(); ++i) {
      const Row& row = rows[i];
      std::fprintf(
          f,
          "    {\"network\": \"%s\", \"calls_per_s\": %d, \"issued\": %llu, "
          "\"ok\": %llu, \"ok_after_kill\": %llu, \"unavail_s\": %.3f, "
          "\"pre_kill_p50_ms\": %.2f, \"pre_kill_max_ms\": %.2f, "
          "\"max_latency_ms\": %.2f, \"repl_lag_max_txns\": %llu, "
          "\"repl_lag_mean_txns\": %.3f, \"wal_txn_per_s\": %.2f, "
          "\"txns_shipped\": %llu, \"bytes_shipped\": %llu, "
          "\"at_most_once\": %s, \"drain_s\": %.3f}%s\n",
          row.network.c_str(), row.rate,
          static_cast<unsigned long long>(row.r.issued),
          static_cast<unsigned long long>(row.r.ok),
          static_cast<unsigned long long>(row.r.ok_after_kill),
          row.r.unavail_s, row.r.pre_kill_p50_ms, row.r.pre_kill_max_ms,
          row.r.max_latency_ms,
          static_cast<unsigned long long>(row.r.lag_max_txns),
          row.r.lag_mean_txns, row.r.wal_txn_per_s,
          static_cast<unsigned long long>(row.r.shipped),
          static_cast<unsigned long long>(row.r.bytes_shipped),
          row.r.at_most_once ? "true" : "false", row.r.drain_s,
          i + 1 == rows.size() ? "" : ",");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("\nwrote %s\n", json_path);
  }
  return 0;
}

// E11 -- overload protection: offered load vs. goodput and shed rate.
//
// A mobile client that queues work while disconnected will eventually dump
// that backlog onto a slow link and a shared server. This harness drives a
// client with every overload mechanism armed (scheduler depth/byte budgets,
// QRPC call/log budgets, server concurrency cap with pushback) at offered
// loads from well under to well over capacity, and reports what the
// protection buys:
//
//   * goodput plateaus at link/server capacity instead of collapsing;
//   * excess load is refused or shed explicitly (kResourceExhausted), and
//     only optional background traffic is shed after admission;
//   * client memory (stable log + scheduler queue) stays under its budgets
//     at every sample, no matter how much load is offered.

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/toolkit.h"

using namespace rover;

namespace {

struct RunResult {
  uint64_t offered = 0;       // durable + background calls issued
  uint64_t ok = 0;            // completed with OK
  uint64_t ok_durable = 0;    // OK completions of logged default-priority ops
  uint64_t exhausted = 0;     // refused at admission or shed (kResourceExhausted)
  uint64_t unavailable = 0;   // pushback retries gave up (kUnavailable)
  uint64_t pushback_honored = 0;
  size_t max_log_bytes = 0;     // high-water mark, sampled every 250 ms
  size_t max_queued_bytes = 0;  // "
  double drain_s = 0;           // virtual time until the system quiesced
  double goodput_per_s = 0;     // OK completions / drain time
  double shed_rate = 0;         // kResourceExhausted / offered
};

constexpr double kWindowSeconds = 20;
constexpr size_t kPayloadBytes = 512;
constexpr size_t kMaxQueuedBytes = 16 << 10;
constexpr size_t kMaxLogBytes = 12 << 10;

// Offered load: `calls_per_sec` durable (logged, default-priority) ops per
// second plus the same rate of background (unlogged) prefetch-like traffic,
// sustained for 20 s; the run then continues until everything drains.
RunResult Measure(const LinkProfile& profile, int calls_per_sec) {
  Testbed::Options topts;
  topts.server.qrpc.max_concurrent_requests = 2;
  topts.server.qrpc.dispatch_cost = Duration::Millis(100);
  topts.server.qrpc.pushback_retry_after = Duration::Millis(200);
  Testbed bed(topts);
  bed.loop()->set_event_limit(20'000'000);
  bed.server()->qrpc()->RegisterHandler(
      "sink", [](const RpcRequestBody&, const Message&, QrpcServer::Responder respond) {
        respond(RpcResponseBody{});
      });

  ClientNodeOptions copts;
  copts.scheduler.max_queued_messages = 32;
  copts.scheduler.max_queued_bytes = kMaxQueuedBytes;
  copts.qrpc.max_outstanding_calls = 64;
  copts.qrpc.max_log_bytes = kMaxLogBytes;
  RoverClientNode* client = bed.AddClient("mobile", profile, nullptr, copts);

  const int total = static_cast<int>(kWindowSeconds) * calls_per_sec;
  const std::string payload(kPayloadBytes, 'x');
  std::vector<QrpcCall> durable(total);
  std::vector<QrpcCall> background(total);
  for (int i = 0; i < total; ++i) {
    const TimePoint at =
        TimePoint::Epoch() + Duration::Seconds(1.0 + static_cast<double>(i) / calls_per_sec);
    bed.loop()->ScheduleAt(at, [&durable, client, &payload, i] {
      durable[i] = client->qrpc()->Call("server", "sink", {payload});
    });
    bed.loop()->ScheduleAt(at, [&background, client, &payload, i] {
      QrpcCallOptions opts;
      opts.priority = Priority::kBackground;
      opts.log_request = false;
      background[i] = client->qrpc()->Call("server", "sink", {payload}, opts);
    });
  }

  RunResult r;
  r.offered = static_cast<uint64_t>(total) * 2;

  // Sample the client's memory through the loaded window. The sampler
  // re-arms itself by reference: the frame owns it, so no ownership cycle.
  std::function<void()> sampler;
  sampler = [&r, &bed, client, &sampler] {
    r.max_log_bytes = std::max(r.max_log_bytes, client->log()->TotalBytes());
    r.max_queued_bytes =
        std::max(r.max_queued_bytes, client->transport()->scheduler()->QueuedPayloadBytes());
    if (bed.loop()->now() < TimePoint::Epoch() + Duration::Seconds(kWindowSeconds + 5)) {
      bed.loop()->ScheduleAfter(Duration::Millis(250), sampler);
    }
  };
  bed.loop()->ScheduleAt(TimePoint::Epoch() + Duration::Seconds(1), sampler);

  bed.Run();

  auto tally = [&r](std::vector<QrpcCall>& calls, bool is_durable) {
    for (QrpcCall& call : calls) {
      if (!call.result.ready()) {
        continue;  // never happens with the protections on; see shape check
      }
      const Status& st = call.result.value().status;
      if (st.ok()) {
        ++r.ok;
        if (is_durable) {
          ++r.ok_durable;
        }
      } else if (st.code() == StatusCode::kResourceExhausted) {
        ++r.exhausted;
      } else if (st.code() == StatusCode::kUnavailable) {
        ++r.unavailable;
      }
    }
  };
  tally(durable, true);
  tally(background, false);

  r.pushback_honored = client->metrics()->CounterValue("qrpc_client.pushback_honored");
  r.drain_s = (bed.loop()->now() - TimePoint::Epoch()).seconds();
  r.goodput_per_s = r.drain_s > 0 ? static_cast<double>(r.ok) / r.drain_s : 0;
  r.shed_rate = static_cast<double>(r.exhausted) / static_cast<double>(r.offered);
  return r;
}

std::string FmtRate(double per_s) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.1f/s", per_s);
  return buf;
}

}  // namespace

int main() {
  std::printf("E11: overload protection -- offered load vs goodput and shed rate\n");
  std::printf(
      "workload: N durable + N background 512 B calls per second for 20 s;\n"
      "server capped at 2 concurrent requests (100 ms dispatch, pushback on);\n"
      "client budgets: 32 msgs / 16 KiB queued, 64 calls / 12 KiB log\n");

  struct Row {
    std::string network;
    int calls_per_sec;
    RunResult r;
  };
  std::vector<Row> rows;

  for (const LinkProfile& profile : {LinkProfile::Cslip144(), LinkProfile::WaveLan2()}) {
    BenchTable table("Offered load sweep over " + profile.name,
                     {"offered (calls/s)", "goodput (ok/s)", "ok", "shed/refused",
                      "gave up", "pushback honored", "peak log", "peak queue", "drain"});
    for (int rate : {1, 2, 5, 10, 20}) {
      RunResult r = Measure(profile, rate);
      rows.push_back(Row{profile.name, rate, r});
      table.AddRow({FmtCount(static_cast<uint64_t>(rate) * 2),
                    FmtRate(r.goodput_per_s), FmtCount(r.ok),
                    FmtPercent(r.shed_rate), FmtCount(r.unavailable),
                    FmtCount(r.pushback_honored), FmtBytes(r.max_log_bytes),
                    FmtBytes(r.max_queued_bytes), FmtSeconds(r.drain_s)});
    }
    table.Print();
  }

  // Machine-readable copy, one object per (network, offered-rate) cell.
  const char* json_path = "BENCH_overload.json";
  if (FILE* f = std::fopen(json_path, "w")) {
    std::fprintf(f,
                 "{\n  \"bench\": \"overload\",\n  \"window_seconds\": %g,\n"
                 "  \"payload_bytes\": %zu,\n  \"max_queued_bytes\": %zu,\n"
                 "  \"max_log_bytes\": %zu,\n  \"results\": [\n",
                 kWindowSeconds, kPayloadBytes, kMaxQueuedBytes, kMaxLogBytes);
    for (size_t i = 0; i < rows.size(); ++i) {
      const Row& row = rows[i];
      std::fprintf(f,
                   "    {\"network\": \"%s\", \"offered_calls_per_s\": %d, "
                   "\"offered\": %llu, \"ok\": %llu, \"ok_durable\": %llu, "
                   "\"shed_or_refused\": %llu, \"gave_up_unavailable\": %llu, "
                   "\"pushback_honored\": %llu, \"goodput_per_s\": %.3f, "
                   "\"shed_rate\": %.4f, \"peak_log_bytes\": %zu, "
                   "\"peak_queued_bytes\": %zu, \"drain_s\": %.3f}%s\n",
                   row.network.c_str(), row.calls_per_sec * 2,
                   static_cast<unsigned long long>(row.r.offered),
                   static_cast<unsigned long long>(row.r.ok),
                   static_cast<unsigned long long>(row.r.ok_durable),
                   static_cast<unsigned long long>(row.r.exhausted),
                   static_cast<unsigned long long>(row.r.unavailable),
                   static_cast<unsigned long long>(row.r.pushback_honored),
                   row.r.goodput_per_s, row.r.shed_rate, row.r.max_log_bytes,
                   row.r.max_queued_bytes, row.r.drain_s,
                   i + 1 == rows.size() ? "" : ",");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("\nwrote %s\n", json_path);
  }

  std::printf(
      "\nShape check: goodput rises with offered load, then plateaus at link\n"
      "(CSLIP) or server (WaveLAN) capacity while the shed rate climbs --\n"
      "overload turns into explicit kResourceExhausted refusals, never\n"
      "unbounded queues: peak log and queue bytes stay under their budgets\n"
      "in every cell, and every call resolves (nothing hangs or is lost).\n");
  return 0;
}

// E14 -- CPU hot path at scale: many-client fan-in throughput.
//
// The paper's testbed drove a handful of mobile hosts; the ROADMAP north
// star is millions. This harness measures how much *CPU* one server-plus-
// clients simulation burns per operation as fan-in grows: N clients (1k /
// 4k / 10k), each issuing a small burst of logged QRPCs over WaveLAN,
// drained to quiescence. Simulated time is free; what we report is host
// CPU, because that is what bounds how many simulated clients per server
// one core can drive -- and therefore how far the chaos / overload /
// failover harnesses scale.
//
// Reported per client count:
//   * ops/sec of host CPU (RPCs answered OK / process CPU seconds)
//   * CPU microseconds per op
//   * payload bytes memcpy'd per op (Buffer copy counter; the zero-copy
//     refactor's target metric)
//   * peak RSS (MiB)
//
// Writes BENCH_scale.json with these numbers next to the baseline measured
// at commit f6c2ea4 (the copy-per-hop scheduler-scan code),
// so the >=3x ops/sec and >=50% copy-reduction acceptance gates are
// checked against recorded history, not against vibes.

#include <sys/resource.h>

#include <cstdio>
#include <cstring>
#include <ctime>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/toolkit.h"
#include "src/obs/cpu_scope.h"
#include "src/util/buffer.h"

using namespace rover;

namespace {

constexpr size_t kNumZones = static_cast<size_t>(obs::CpuZone::kCount);

struct Row {
  size_t clients = 0;
  uint64_t ops = 0;
  double cpu_seconds = 0;
  double ops_per_cpu_sec = 0;
  double us_per_op = 0;
  double copy_bytes_per_op = 0;
  double peak_rss_mib = 0;
  // Per-subsystem CPU attribution (exclusive seconds + scope entries);
  // only filled for measured rows, not the recorded baseline.
  bool has_breakdown = false;
  double zone_seconds[kNumZones] = {};
  uint64_t zone_enters[kNumZones] = {};
};

double ProcessCpuSeconds() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double PeakRssMib() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

// N clients fan into one durable server; each client issues `ops_per_client`
// logged calls (256 B args, every 8th 2 KiB) staggered across the first
// simulated second, then the bed drains to quiescence.
Row Measure(size_t n_clients, int ops_per_client) {
  Row row;
  row.clients = n_clients;

  Testbed bed;
  bed.server()->qrpc()->RegisterHandler(
      "echo", [](const RpcRequestBody& req, const Message&, QrpcServer::Responder respond) {
        RpcResponseBody body;
        if (!req.args.empty()) {
          body.result = req.args[0];
        }
        respond(body);
      });

  std::vector<RoverClientNode*> clients;
  clients.reserve(n_clients);
  for (size_t i = 0; i < n_clients; ++i) {
    clients.push_back(bed.AddClient("mobile-" + std::to_string(i), LinkProfile::WaveLan2()));
  }

  const std::string small(256, 'q');
  const std::string big(2048, 'Q');
  uint64_t issued = 0;
  uint64_t completed = 0;  // answered OK; server arrivals would count resends

  auto& attr = obs::CpuAttribution::Instance();
  attr.CyclesPerSecond();  // calibrate outside the measured window
  attr.set_enabled(true);
  attr.Reset();
  const double cpu_before = ProcessCpuSeconds();
  const uint64_t copies_before = PayloadCopyBytes();
  for (size_t i = 0; i < n_clients; ++i) {
    RoverClientNode* c = clients[i];
    // Stagger issue times so the server sees a sustained fan-in, not one
    // synchronized tick.
    const Duration start = Duration::Micros(static_cast<int64_t>((i * 997) % 1000000));
    bed.loop()->ScheduleAfter(start, [c, ops_per_client, &small, &big, &issued, &completed] {
      for (int k = 0; k < ops_per_client; ++k) {
        c->qrpc()->Call("server", "echo", {(k % 8 == 7) ? big : small})
            .result.OnReady([&completed](const QrpcResult& r) {
              if (r.status.ok()) {
                ++completed;
              }
            });
        ++issued;
      }
    });
  }
  bed.Run();
  const double cpu_after = ProcessCpuSeconds();
  const uint64_t copies_after = PayloadCopyBytes();
  attr.set_enabled(false);
  row.has_breakdown = true;
  const double cps = attr.CyclesPerSecond();
  for (size_t z = 0; z < kNumZones; ++z) {
    const auto& t = attr.totals(static_cast<obs::CpuZone>(z));
    row.zone_seconds[z] = static_cast<double>(t.cycles) / cps;
    row.zone_enters[z] = t.enters;
  }

  row.ops = completed;
  row.cpu_seconds = cpu_after - cpu_before;
  row.ops_per_cpu_sec = static_cast<double>(completed) / row.cpu_seconds;
  row.us_per_op = row.cpu_seconds * 1e6 / static_cast<double>(completed);
  row.copy_bytes_per_op =
      static_cast<double>(copies_after - copies_before) / static_cast<double>(completed);
  row.peak_rss_mib = PeakRssMib();
  if (completed < issued) {
    std::printf("  WARNING: %llu issued but only %llu completed\n",
                static_cast<unsigned long long>(issued),
                static_cast<unsigned long long>(completed));
  }
  return row;
}

// Baseline measured at commit f6c2ea4 with the same workload
// (vector<uint8_t> payload copies at every hop; std::map scheduler with
// O(all-dests) depth scans). Keep in sync with BENCH_scale.json's
// "baseline_pre" section.
const Row kBaseline[] = {
    // clients, ops, cpu_s, ops/cpu_s, us/op, copy_bytes/op, rss_mib
    {1000, 8000, 0.391, 20447, 48.91, 7921, 52.4},
    {4000, 32000, 7.204, 4442, 225.13, 7925, 176.4},
    {10000, 80000, 59.764, 1339, 747.05, 7926, 423.2},
};

void AppendJsonRow(std::string* out, const Row& r, bool last) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "    {\"clients\": %zu, \"ops\": %llu, \"cpu_seconds\": %.3f, "
                "\"ops_per_cpu_sec\": %.0f, \"us_per_op\": %.2f, "
                "\"copy_bytes_per_op\": %.0f, \"peak_rss_mib\": %.1f",
                r.clients, static_cast<unsigned long long>(r.ops), r.cpu_seconds,
                r.ops_per_cpu_sec, r.us_per_op, r.copy_bytes_per_op, r.peak_rss_mib);
  *out += buf;
  if (r.has_breakdown) {
    *out += ",\n     \"cpu_breakdown\": {";
    for (size_t z = 0; z < kNumZones; ++z) {
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"seconds\": %.4f, \"enters\": %llu}",
                    z == 0 ? "" : ", ",
                    std::string(obs::CpuZoneName(static_cast<obs::CpuZone>(z))).c_str(),
                    r.zone_seconds[z], static_cast<unsigned long long>(r.zone_enters[z]));
      *out += buf;
    }
    *out += "}";
  }
  *out += last ? "}\n" : "},\n";
}

}  // namespace

int main(int argc, char** argv) {
  int ops_per_client = 8;
  std::vector<size_t> counts = {1000, 4000, 10000, 25000};
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      counts = {1000};
    }
  }

  std::printf("E14: many-client fan-in throughput (CPU hot path at scale)\n");
  std::printf("workload: N clients x %d logged echo RPCs (256B/2KiB) over WaveLAN,"
              " drained to quiescence\n\n", ops_per_client);

  BenchTable table("host CPU per operation vs fan-in",
                   {"clients", "ops", "cpu", "ops/cpu-sec", "us/op", "copy B/op",
                    "peak RSS"});
  std::vector<Row> rows;
  for (size_t n : counts) {
    Row r = Measure(n, ops_per_client);
    rows.push_back(r);
    table.AddRow({FmtCount(r.clients), FmtCount(r.ops), FmtSeconds(r.cpu_seconds),
                  FmtCount(static_cast<uint64_t>(r.ops_per_cpu_sec)),
                  std::to_string(r.us_per_op).substr(0, 6),
                  FmtBytes(static_cast<size_t>(r.copy_bytes_per_op)),
                  FmtBytes(static_cast<size_t>(r.peak_rss_mib * 1024 * 1024))});
  }
  table.Print();

  std::string json;
  json += "{\n";
  json += "  \"experiment\": \"E14 many-client fan-in throughput\",\n";
  json += "  \"workload\": \"N clients x 8 logged echo RPCs (256B, every 8th 2KiB) "
          "over WaveLAN, drained to quiescence; ops/sec measured against process "
          "CPU time\",\n";
  json += "  \"baseline_pre\": {\n";
  json += "    \"note\": \"measured at commit f6c2ea4 (pre zero-copy/indexed-scheduler): "
          "payload memcpy at every layer hop, std::map scheduler with O(all-dests) "
          "depth scan per enqueue\",\n";
  json += "    \"rows\": [\n";
  constexpr size_t kNumBaseline = sizeof(kBaseline) / sizeof(kBaseline[0]);
  for (size_t i = 0; i < kNumBaseline; ++i) {
    AppendJsonRow(&json, kBaseline[i], i + 1 == kNumBaseline);
  }
  json += "    ]\n";
  json += "  },\n";
  json += "  \"current\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    AppendJsonRow(&json, rows[i], i + 1 == rows.size());
  }
  json += "  ]\n}\n";

  FILE* f = std::fopen("BENCH_scale.json", "w");
  if (f != nullptr) {
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("\nwrote BENCH_scale.json\n");
  }

  // Acceptance gates vs the recorded f6c2ea4 baseline: >=3x ops/cpu-sec at
  // 4k clients and >=50% fewer payload bytes copied per op. Informational
  // here; CI applies a non-blocking floor on top.
  for (const Row& r : rows) {
    for (const Row& b : kBaseline) {
      if (b.clients != r.clients) {
        continue;
      }
      const double speedup = r.ops_per_cpu_sec / b.ops_per_cpu_sec;
      const double copy_cut = 1.0 - r.copy_bytes_per_op / b.copy_bytes_per_op;
      std::printf("%zu clients: %.2fx ops/cpu-sec vs baseline, %.0f%% less copying%s\n",
                  r.clients, speedup, copy_cut * 100.0,
                  (r.clients == 4000 && speedup < 3.0) ? "  [BELOW 3x TARGET]" : "");
    }
  }
  // Flat-profile gate: fan-in scaling is "flat" when 25k clients retain at
  // least 0.6x the per-CPU-second throughput of 1k clients.
  const Row* r1k = nullptr;
  const Row* r25k = nullptr;
  for (const Row& r : rows) {
    if (r.clients == 1000) r1k = &r;
    if (r.clients == 25000) r25k = &r;
  }
  if (r1k != nullptr && r25k != nullptr) {
    const double flatness = r25k->ops_per_cpu_sec / r1k->ops_per_cpu_sec;
    std::printf("flatness: 25k clients at %.2fx of 1k ops/cpu-sec%s\n", flatness,
                flatness >= 0.6 ? " (meets 0.6x floor)" : "  [BELOW 0.6x FLOOR]");
  }
  return 0;
}

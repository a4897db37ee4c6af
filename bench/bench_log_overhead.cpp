// E2 -- Stable-log overhead per QRPC across networks.
//
// Paper claim 2 (§7): "For lower-bandwidth networks the overhead of
// writing the log is dwarfed by the underlying communication costs."
// The prototype put the flush on the critical path for message sending.
//
// For each network this harness measures end-to-end QRPC latency with the
// log enabled and disabled, attributing the difference to the log, and
// reports the log's share of total latency. It also sweeps the flush cost
// model (slow laptop disk vs. fast flash) as an ablation.

#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "src/core/toolkit.h"

using namespace rover;

namespace {

double EndToEnd(const LinkProfile& profile, const StableLogCostModel& costs,
                bool logged, int iterations,
                DiskFaultOptions disk_faults = {},
                uint64_t* flush_retries = nullptr) {
  Testbed bed;
  bed.server()->qrpc()->RegisterHandler(
      "null", [](const RpcRequestBody&, const Message&, QrpcServer::Responder respond) {
        respond(RpcResponseBody{});
      });
  ClientNodeOptions options;
  options.log_costs = costs;
  options.disk_faults = disk_faults;
  RoverClientNode* client = bed.AddClient("mobile", profile, nullptr, options);

  std::vector<double> samples;
  for (int i = 0; i < iterations; ++i) {
    QrpcCallOptions opts;
    opts.log_request = logged;
    const TimePoint start = bed.loop()->now();
    QrpcCall call = client->qrpc()->Call("server", "null",
                                         {std::string(256, 'x')}, opts);
    call.result.Wait(bed.loop());
    samples.push_back((bed.loop()->now() - start).seconds());
  }
  if (flush_retries != nullptr) {
    *flush_retries = client->metrics()->CounterValue("stable_log.flush_retries");
  }
  return Mean(samples);
}

// Merges a "flush_retry_overhead" object into BENCH_qrpc_latency.json
// (created by bench_qrpc_latency; a fresh file is written when it does not
// exist). Idempotent: a previous flush_retry_overhead block is replaced.
void MergeRetryOverheadJson(double clean_s, double p05_s, double p10_s,
                            uint64_t p05_retries, uint64_t p10_retries) {
  const char* json_path = "BENCH_qrpc_latency.json";
  std::string existing;
  if (FILE* f = std::fopen(json_path, "r")) {
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
      existing.append(buf, n);
    }
    std::fclose(f);
  }
  const size_t cut = existing.find(",\n  \"flush_retry_overhead\"");
  if (cut != std::string::npos) {
    existing.erase(cut);
    existing += "\n}\n";
  }
  std::string head;
  const size_t brace = existing.rfind('}');
  if (brace == std::string::npos) {
    head = "{\n  \"bench\": \"qrpc_latency\"";
  } else {
    head = existing.substr(0, brace);
    while (!head.empty() && (head.back() == '\n' || head.back() == ' ')) {
      head.pop_back();
    }
  }
  if (FILE* f = std::fopen(json_path, "w")) {
    std::fprintf(f,
                 "%s,\n  \"flush_retry_overhead\": {\"network\": \"wavelan-2Mb\", "
                 "\"clean_s\": %.6f, \"p05_s\": %.6f, \"p10_s\": %.6f, "
                 "\"p05_overhead\": %.4f, \"p10_overhead\": %.4f, "
                 "\"p05_retries\": %llu, \"p10_retries\": %llu}\n}\n",
                 head.c_str(), clean_s, p05_s, p10_s,
                 p05_s / clean_s - 1.0, p10_s / clean_s - 1.0,
                 static_cast<unsigned long long>(p05_retries),
                 static_cast<unsigned long long>(p10_retries));
    std::fclose(f);
    std::printf("\nmerged flush_retry_overhead into %s\n", json_path);
  }
}

}  // namespace

int main() {
  std::printf("E2: stable-log overhead per QRPC (paper §7 claim 2, §5.2)\n");
  std::printf("workload: 256 B requests, 20 iterations per cell\n");

  struct Device {
    const char* name;
    StableLogCostModel model;
  };
  Device devices[] = {
      {"disk (8ms sync)", {}},
      {"flash (1ms sync)", {Duration::Millis(1), 8e6}},
  };

  for (const Device& device : devices) {
    BenchTable table(std::string("Stable store: ") + device.name,
                     {"network", "QRPC w/o log", "QRPC w/ log", "log overhead",
                      "share of total"});
    for (const LinkProfile& profile : LinkProfile::PaperNetworks()) {
      const double without = EndToEnd(profile, device.model, false, 20);
      const double with = EndToEnd(profile, device.model, true, 20);
      const double overhead = with - without;
      table.AddRow({profile.name, FmtSeconds(without), FmtSeconds(with),
                    FmtSeconds(overhead), FmtPercent(overhead / with)});
    }
    table.Print();
  }

  std::printf(
      "\nShape check: the flush is a visible fraction of a null RPC on\n"
      "Ethernet but is dwarfed by transmission on the dial-up links --\n"
      "matching the paper's claim that logging is cheap exactly where\n"
      "queued operation matters most.\n");

  // Ablation: a flaky device retries transient write errors with bounded
  // jittered backoff. Measure what that retry machinery costs end to end
  // at representative error rates, on the representative network.
  {
    constexpr int kFaultIterations = 60;
    const LinkProfile wavelan = LinkProfile::WaveLan2();
    BenchTable table("Flush retry overhead (wavelan-2Mb, disk 8ms sync)",
                     {"write error prob", "QRPC w/ log", "overhead vs clean",
                      "flush retries"});
    const double clean = EndToEnd(wavelan, {}, true, kFaultIterations);
    table.AddRow({"0.00", FmtSeconds(clean), "--", "0"});
    double faulty_s[2] = {0, 0};
    uint64_t retries[2] = {0, 0};
    const double probs[2] = {0.05, 0.10};
    for (int i = 0; i < 2; ++i) {
      DiskFaultOptions faults;
      faults.seed = 42 + static_cast<uint64_t>(i);
      faults.transient_write_error_prob = probs[i];
      faulty_s[i] = EndToEnd(wavelan, {}, true, kFaultIterations, faults,
                             &retries[i]);
      char prob_label[16];
      std::snprintf(prob_label, sizeof(prob_label), "%.2f", probs[i]);
      table.AddRow({prob_label, FmtSeconds(faulty_s[i]),
                    FmtPercent(faulty_s[i] / clean - 1.0),
                    std::to_string(retries[i])});
    }
    table.Print();
    MergeRetryOverheadJson(clean, faulty_s[0], faulty_s[1], retries[0],
                           retries[1]);
    std::printf(
        "Shape check: single-digit error rates cost at most a few percent\n"
        "end to end -- each retry re-pays one flush sync, which the paper's\n"
        "networks already dwarf with transmission time.\n");
  }
  return 0;
}

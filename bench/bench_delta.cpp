// E12 -- bandwidth hot path: delta imports + operation coalescing on
// dial-up links.
//
// Paper context: Rover ships whole objects on import and whole snapshots
// on export; on a 14.4 or 2.4 Kbit/s CSLIP link the payload bytes ARE the
// latency. This harness drives a mail/calendar-like workload -- repeated
// small server-side edits followed by client re-imports, plus bursts of
// local edit+export -- and compares two configurations end to end:
//
//   baseline:  delta imports off, operation coalescing off (the paper's
//              whole-object protocol);
//   optimized: delta imports on (client sends its cached version id, the
//              server answers with a delta against the journaled base) and
//              supersedable-operation coalescing on (a newer queued export
//              withdraws its not-yet-transmitted predecessor from the
//              scheduler queue and the stable log).
//
// Reported per network: total payload bytes each direction, virtual time
// to drain, delta hit counts, coalesced ops. BENCH_delta.json records both
// configurations; the optimized run must move >= 30% fewer payload bytes
// on cslip-14.4.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/toolkit.h"

using namespace rover;

namespace {

constexpr char kFolderCode[] = R"(
proc read {} { global state; return $state }
proc put {s} { global state; set state $s; return ok }
)";

constexpr int kObjects = 4;
constexpr size_t kObjectBytes = 8192;
constexpr int kRounds = 6;
constexpr int kBurstExports = 3;

std::string FolderName(int i) { return "folder" + std::to_string(i); }

// Mail-folder-like text: headers and bodies with heavy repetition.
std::string FolderPayload(int obj, size_t bytes) {
  static const char* kLines[] = {
      "From: rover@lcs.mit.edu\n", "To: mobile-host\n",
      "Subject: queued rpc status\n", "Received: by dialup (CSLIP)\n",
      "The access manager queues operations while disconnected.\n",
      "Tentative data is marked until the home server commits it.\n"};
  Rng rng(static_cast<uint64_t>(obj) + 101);
  std::string out;
  out.reserve(bytes + 64);
  while (out.size() < bytes) {
    out += kLines[rng.NextBelow(6)];
  }
  out.resize(bytes);
  return out;
}

// A small edit: a new message arrives at the top of the folder.
std::string ServerEdit(std::string data, int round, int obj) {
  const std::string added = "From: sender" + std::to_string(round) +
                            "@mit.edu\nSubject: message " +
                            std::to_string(round * kObjects + obj) + "\n";
  data.insert(0, added);
  data.resize(kObjectBytes);
  return data;
}

struct RunResult {
  uint64_t client_payload_bytes = 0;  // uplink: requests + exports
  uint64_t server_payload_bytes = 0;  // downlink: import bodies / deltas
  uint64_t total_payload_bytes = 0;
  uint64_t delta_hits = 0;
  uint64_t delta_fallbacks = 0;
  uint64_t coalesced_ops = 0;
  double drain_s = 0;
};

RunResult Measure(const LinkProfile& profile, bool optimized) {
  Testbed bed;
  std::vector<std::string> data(kObjects);
  for (int i = 0; i < kObjects; ++i) {
    data[i] = FolderPayload(i, kObjectBytes);
    bed.server()->rover()->CreateObject(
        MakeRdo(FolderName(i), "lww", kFolderCode, data[i]));
  }

  ClientNodeOptions copts;
  copts.access.delta_imports = optimized;
  copts.qrpc.coalesce_superseded = optimized;
  RoverClientNode* client =
      bed.AddClient("mobile", profile, nullptr, copts);

  // Initial population: full-body imports either way.
  for (int i = 0; i < kObjects; ++i) {
    client->access()->Import(FolderName(i)).Wait(bed.loop());
  }

  ImportOptions refetch;
  refetch.allow_cached = false;
  for (int round = 0; round < kRounds; ++round) {
    // New mail lands server-side; the client re-imports every folder.
    for (int i = 0; i < kObjects; ++i) {
      data[i] = ServerEdit(data[i], round, i);
      RdoDescriptor next = *bed.server()->store()->Get(FolderName(i));
      next.data = data[i];
      bed.server()->store()->Put(next);
    }
    for (int i = 0; i < kObjects; ++i) {
      client->access()->Import(FolderName(i), refetch).Wait(bed.loop());
    }

    // Burst of local edits, each followed by an eager export. While the
    // first snapshot crawls up the dial-up link, later exports of the same
    // object supersede the queued ones.
    const std::string victim = FolderName(round % kObjects);
    std::vector<Promise<ExportResult>> exports;
    for (int k = 0; k < kBurstExports; ++k) {
      std::string edited = *client->access()->ReadData(victim);
      edited.insert(0, "Status: read pass " + std::to_string(k) + "\n");
      edited.resize(kObjectBytes);
      client->access()->Invoke(victim, "put", {edited}).Wait(bed.loop());
      exports.push_back(client->access()->Export(victim));
    }
    for (auto& e : exports) {
      e.Wait(bed.loop());
    }
    // The export merge may have shifted the client's view; resync ours.
    data[round % kObjects] = *client->access()->ReadCommittedData(victim);
  }
  bed.Run();

  RunResult r;
  r.client_payload_bytes = client->metrics()->CounterValue("scheduler.payload_bytes_sent");
  r.server_payload_bytes =
      bed.server()->metrics()->CounterValue("scheduler.payload_bytes_sent");
  r.total_payload_bytes = r.client_payload_bytes + r.server_payload_bytes;
  r.delta_hits = client->metrics()->CounterValue("access_manager.delta_hits");
  r.delta_fallbacks = client->metrics()->CounterValue("access_manager.delta_fallbacks");
  r.coalesced_ops = client->metrics()->CounterValue("qrpc_client.coalesced");
  r.drain_s = (bed.loop()->now() - TimePoint::Epoch()).seconds();
  return r;
}

}  // namespace

int main() {
  std::printf("E12: delta imports + operation coalescing on dial-up links\n");
  std::printf("workload: %d x %zu B folders, %d rounds of edit + re-import,\n"
              "%d-deep export bursts per round\n\n",
              kObjects, kObjectBytes, kRounds, kBurstExports);

  const std::vector<LinkProfile> networks = {LinkProfile::Cslip144(),
                                             LinkProfile::Cslip24()};
  struct Row {
    std::string network;
    RunResult base;
    RunResult opt;
  };
  std::vector<Row> rows;
  for (const LinkProfile& profile : networks) {
    Row row;
    row.network = profile.name;
    row.base = Measure(profile, /*optimized=*/false);
    row.opt = Measure(profile, /*optimized=*/true);
    rows.push_back(row);
  }

  BenchTable bytes_table("Payload bytes moved (both directions)",
                         {"network", "baseline", "optimized", "reduction",
                          "delta hits", "coalesced"});
  BenchTable time_table("Virtual time to drain the workload",
                        {"network", "baseline", "optimized", "speedup"});
  for (const Row& row : rows) {
    const double reduction =
        1.0 - static_cast<double>(row.opt.total_payload_bytes) /
                  static_cast<double>(row.base.total_payload_bytes);
    bytes_table.AddRow({row.network, FmtBytes(row.base.total_payload_bytes),
                        FmtBytes(row.opt.total_payload_bytes),
                        FmtPercent(reduction),
                        FmtCount(row.opt.delta_hits),
                        FmtCount(row.opt.coalesced_ops)});
    time_table.AddRow({row.network, FmtSeconds(row.base.drain_s),
                       FmtSeconds(row.opt.drain_s),
                       FmtRatio(row.base.drain_s / row.opt.drain_s)});
  }
  bytes_table.Print();
  time_table.Print();

  const char* json_path = "BENCH_delta.json";
  if (FILE* f = std::fopen(json_path, "w")) {
    std::fprintf(f, "{\n  \"bench\": \"delta\",\n  \"runs\": [\n");
    for (size_t i = 0; i < rows.size(); ++i) {
      const Row& row = rows[i];
      for (int cfg = 0; cfg < 2; ++cfg) {
        const RunResult& r = cfg == 0 ? row.base : row.opt;
        std::fprintf(
            f,
            "    {\"network\": \"%s\", \"config\": \"%s\", "
            "\"payload_bytes\": %llu, \"uplink_bytes\": %llu, "
            "\"downlink_bytes\": %llu, \"delta_hits\": %llu, "
            "\"delta_fallbacks\": %llu, \"coalesced_ops\": %llu, "
            "\"drain_s\": %.3f}%s\n",
            row.network.c_str(), cfg == 0 ? "baseline" : "optimized",
            static_cast<unsigned long long>(r.total_payload_bytes),
            static_cast<unsigned long long>(r.client_payload_bytes),
            static_cast<unsigned long long>(r.server_payload_bytes),
            static_cast<unsigned long long>(r.delta_hits),
            static_cast<unsigned long long>(r.delta_fallbacks),
            static_cast<unsigned long long>(r.coalesced_ops), r.drain_s,
            (i + 1 == rows.size() && cfg == 1) ? "" : ",");
      }
    }
    const double reduction144 =
        1.0 - static_cast<double>(rows[0].opt.total_payload_bytes) /
                  static_cast<double>(rows[0].base.total_payload_bytes);
    std::fprintf(f, "  ],\n  \"reduction_cslip144\": %.4f\n}\n", reduction144);
    std::fclose(f);
    std::printf("\nwrote %s\n", json_path);
  }

  std::printf(
      "\nShape check: on CSLIP every re-import of an edited 8 KiB folder\n"
      "ships a delta of the edit instead of the folder, and each export\n"
      "burst uploads one snapshot instead of three. Expect well over a 30%%\n"
      "payload reduction at 14.4 Kbit/s and a matching drain-time win.\n");
  return 0;
}
